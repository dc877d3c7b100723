"""The object-path crowd oracle used by the crowd equivalence tests.

:class:`ObjectPathCrowd` is a :class:`SimulatedCrowd` that declines the
columnar channel and answers every call through the original
question-by-question simulation, so a planner fed by it runs the pure
object path end to end.
"""

from repro.crowd.simulator import SimulatedCrowd


class ObjectPathCrowd(SimulatedCrowd):
    """Declines ``collect_responses_block``; serves the sequential oracle."""

    def collect_responses_block(self, task, worker_ids):
        return None

    def collect_responses(self, task, worker_ids):
        return self.collect_responses_sequential(task, worker_ids)
