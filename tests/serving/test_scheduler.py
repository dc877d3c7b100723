"""The window scheduler as a pure state machine: no fork, no sleep, no signals.

Workers are plain strings, the clock is a float the test advances, and
every reply is a scripted call — so requeues, hedges, lame workers and the
degrade tail are checked deterministically, and a hypothesis property
explores random shards, the batches they hold queries of and event orders
in milliseconds.  The scheduler sees only shard jobs, one per message; a
shard listed under several batches holds queries of each.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.scheduler import WindowScheduler
from repro.serving.shards import ShardJob, ShardOutcome


def _job(shard_id):
    return ShardJob(shard_id=shard_id, indices=(), queries=[])


def _outcome(job):
    return ShardOutcome(job.shard_id, (), [], [], worker_pid=0)


def _scheduler(jobs_per_batch, **kwargs):
    """A scheduler over ``jobs_per_batch``: the shards holding each
    batch's queries."""
    counters = Counter()

    def record(key, value=1):
        counters[key] += value

    sched = WindowScheduler(jobs_per_batch, {}, record, **kwargs)
    return sched, counters


def _dispatches(decisions):
    return [(kind, worker, job.shard_id) for kind, worker, job in decisions]


def _queued(sched):
    return [(job.shard_id, resubmitted) for job, resubmitted in sched.ready]


class TestRequeue:
    def test_lost_shard_is_requeued_at_the_front_and_marked_resubmitted(self):
        jobs = [_job(0), _job(1), _job(2)]
        sched, counters = _scheduler([jobs])
        assert _dispatches(sched.tick(0.0, ["w0", "w1"])) == [
            ("dispatch", "w0", 0),
            ("dispatch", "w1", 1),
        ]
        assert sched.lost("w0") == []  # no respawn budget
        assert _queued(sched) == [(0, True), (2, False)]
        assert counters["resubmitted_shards"] == 1
        assert _dispatches(sched.tick(1.0, ["w1", "w2"])) == [("dispatch", "w2", 0)]
        assert sched.outcome("w2", _outcome(sched.inflight["w2"].job), 2.0) == []
        assert sched.resubmitted[0] == {0}
        assert counters["dispatch_units"] == 3

    def test_lost_multi_shard_unit_counts_one_resubmission(self):
        """A lost dispatch is one resubmission; provenance marks its shard
        and no other shard of the batch."""
        jobs = [_job(0), _job(1), _job(2)]
        sched, counters = _scheduler([jobs])
        list(sched.tick(0.0, ["w0", "w1", "w2"]))
        sched.lost("w1")
        assert counters["resubmitted_shards"] == 1
        assert sched.outcome("w0", _outcome(jobs[0]), 1.0) == []
        assert sched.outcome("w2", _outcome(jobs[2]), 1.0) == []
        list(sched.tick(1.0, ["w0"]))
        assert sched.outcome("w0", _outcome(jobs[1]), 2.0) == [0]
        assert sched.resubmitted[0] == {1}

    def test_lost_worker_requests_a_respawn_within_budget(self):
        sched, _ = _scheduler([[_job(0)]], max_respawns=1)
        list(sched.tick(0.0, ["w0"]))
        assert sched.lost("w0") == [("respawn", 0)]
        list(sched.tick(0.1, ["w1"]))
        assert sched.lost("w1") == []  # budget spent

    def test_unsent_dispatch_goes_to_the_next_idle_worker(self):
        jobs = [_job(0), _job(1)]
        sched, _ = _scheduler([jobs])
        decisions = sched.tick(0.0, ["w0", "w1", "w2"])
        assert _dispatches([next(decisions)]) == [("dispatch", "w0", 0)]
        sched.unsent("w0")
        assert _dispatches(decisions) == [("dispatch", "w1", 0), ("dispatch", "w2", 1)]
        assert set(sched.inflight) == {"w1", "w2"}

    def test_error_stops_dispatch_and_drains(self):
        jobs = [_job(0), _job(1), _job(2)]
        sched, _ = _scheduler([jobs])
        list(sched.tick(0.0, ["w0", "w1"]))
        sched.error("w0", "boom")
        assert sched.failure == "boom"
        assert list(sched.tick(1.0, ["w0", "w1"])) == []
        assert sched.active()  # w1 still owes its reply
        sched.outcome("w1", _outcome(sched.inflight["w1"].job), 1.5)
        assert not sched.active()


class TestHedging:
    def _hedged(self):
        """Shard 1 holds queries of both batches; shard 0 straggles on
        ``w0`` and is hedged onto ``w1``."""
        jobs = [_job(0), _job(1), _job(2)]
        sched, counters = _scheduler(
            [jobs[:2], jobs[1:]], hedge_after_s=1.0, lame_grace_s=5.0
        )
        list(sched.tick(0.0, ["w0", "w1", "w2"]))
        assert sched.outcome("w1", _outcome(jobs[1]), 0.5) == []
        assert list(sched.tick(0.9, ["w0", "w1", "w2"])) == []  # not overdue yet
        assert _dispatches(sched.tick(2.0, ["w0", "w1", "w2"])) == [("hedge", "w1", 0)]
        assert counters["hedges_issued"] == 1
        # The hedge wins: the original goes lame and batch 0 merges; batch
        # 1 still waits on shard 2.
        assert sched.outcome("w1", _outcome(jobs[0]), 2.1) == [0]
        assert counters["hedges_won"] == 1
        assert sched.lame == {"w0": 7.1}
        return sched, jobs

    def test_hedge_loser_is_lame_and_never_dispatched_before_it_drains(self):
        sched, jobs = self._hedged()
        sched.lost("w2")
        assert _dispatches(sched.tick(2.2, ["w0", "w1"])) == [("dispatch", "w1", 2)]
        assert list(sched.tick(2.3, ["w0", "w1"])) == []  # w0 still lame
        # The stale duplicate drains: w0 returns to service, and the
        # already-recorded shard is not recorded twice.
        assert sched.outcome("w0", _outcome(jobs[0]), 3.0) == []
        assert not sched.lame
        assert len(sched.done[0]) == 2
        assert sched.outcome("w1", _outcome(jobs[2]), 3.1) == [1]

    def test_lame_worker_past_its_deadline_expires(self):
        sched, _ = self._hedged()
        assert sched.expired(7.0) == []
        assert sched.expired(7.2) == ["w0"]
        assert not sched.lame

    def test_lost_lame_worker_just_leaves_the_lame_set(self):
        sched, _ = self._hedged()
        assert sched.lost("w0") == []
        assert not sched.lame
        assert not sched.ready  # nothing requeued

    def test_original_winning_wastes_the_hedge(self):
        jobs = [_job(0), _job(1)]
        sched, counters = _scheduler([jobs], hedge_after_s=1.0, lame_grace_s=5.0)
        list(sched.tick(0.0, ["w0", "w1"]))
        sched.outcome("w1", _outcome(jobs[1]), 0.5)
        list(sched.tick(2.0, ["w0", "w1"]))
        assert sched.outcome("w0", _outcome(jobs[0]), 2.5) == [0]
        assert counters["hedges_wasted"] == 1
        assert sched.lame == {"w1": 7.5}


class TestDegradeTail:
    def test_no_worker_and_no_budget_degrades_in_batch_order(self):
        """The tail runs every shard once, the one holding queries of three
        batches included, and batches merge in order as their last shard
        returns."""
        jobs = [_job(0), _job(1), _job(2)]
        sched, _ = _scheduler([jobs[:2], jobs[1:2], jobs[1:]])
        ((kind, remaining),) = list(sched.tick(0.0, []))
        assert kind == "degrade"
        assert [job.shard_id for job in remaining] == [0, 1, 2]
        assert not sched.pending()
        merged = []
        for position, job in enumerate(remaining):
            merged.append(sched.inline(_outcome(job), 1.0 + position, 1.5 + position))
        assert merged == [[], [0, 1], [2]]
        assert sched.execute_s(2) == pytest.approx(1.5)

    def test_respawn_before_degrading(self):
        sched, _ = _scheduler([[_job(0)]], max_respawns=1)
        assert list(sched.tick(0.0, [])) == [("respawn", 0)]
        ((kind, remaining),) = list(sched.tick(0.1, []))
        assert kind == "degrade" and [job.shard_id for job in remaining] == [0]

    def test_tail_marks_requeued_shards_resubmitted(self):
        jobs = [_job(0), _job(1)]
        sched, _ = _scheduler([jobs])
        list(sched.tick(0.0, ["w0"]))
        sched.lost("w0")
        ((_, remaining),) = list(sched.tick(0.1, []))
        assert [job.shard_id for job in remaining] == [0, 1]
        assert sched.resubmitted[0] == {0}


# ------------------------------------------------------------------ property
@st.composite
def _windows(draw):
    """A random window: shards, each holding queries of a random set of
    batches (a batch may have none), listed per batch in shard-id order."""
    batches = draw(st.integers(min_value=1, max_value=4))
    jobs_per_batch = [[] for _ in range(batches)]
    for shard in range(draw(st.integers(min_value=0, max_value=6))):
        job = _job(shard)
        held = draw(st.sets(st.integers(min_value=0, max_value=batches - 1), min_size=1))
        for batch in sorted(held):
            jobs_per_batch[batch].append(job)
    return jobs_per_batch


class TestScheduleProperty:
    @pytest.mark.property
    @settings(max_examples=300, deadline=None)
    @given(
        jobs_per_batch=_windows(),
        pool=st.integers(min_value=1, max_value=3),
        hedge_after_s=st.sampled_from([None, 0.5]),
        max_respawns=st.integers(min_value=0, max_value=2),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_random_event_orders_keep_the_window_contract(
        self, jobs_per_batch, pool, hedge_after_s, max_respawns, seed
    ):
        """Every shard completes exactly once, batches merge exactly once
        and in submission order, each only after every shard holding its
        queries returned, the tail runs each remaining shard once, and no
        lame worker is ever dispatched."""
        rng = random.Random(seed)
        sched, _ = _scheduler(
            jobs_per_batch,
            hedge_after_s=hedge_after_s,
            lame_grace_s=1.0,
            max_respawns=max_respawns,
        )
        workers = [f"w{index}" for index in range(pool)]
        spawned = iter(f"r{index}" for index in range(100))
        held = {}  # worker -> job it was sent
        returned = set()  # shard ids with a recorded outcome
        merged = []
        now = 0.0

        def merge(batches):
            for batch in batches:
                assert {job.shard_id for job in jobs_per_batch[batch]} <= returned, (
                    "merged before every shard holding its queries returned"
                )
            merged.extend(batches)

        def apply(decisions):
            for kind, *args in decisions:
                if kind == "respawn":
                    workers.append(next(spawned))
                elif kind == "degrade":
                    # The in-process tail: each remaining shard once.
                    for job in args[0]:
                        assert job.shard_id not in returned, "the tail reran a shard"
                        returned.add(job.shard_id)
                        merge(sched.inline(_outcome(job), now, now))
                else:
                    worker, job = args
                    assert worker not in sched.lame, "dispatched to a lame worker"
                    if rng.random() < 0.05:
                        workers.remove(worker)  # died before the send
                        sched.unsent(worker)
                    else:
                        held[worker] = job

        merge(sched.advance())
        for _ in range(5000):
            if not sched.active():
                break
            now += rng.choice([0.0, 0.1, 0.3, 0.7])
            for worker in sched.expired(now):
                workers.remove(worker)
            apply(sched.tick(now, list(workers)))
            busy = [w for w in workers if w in sched.inflight or w in sched.lame]
            for worker in rng.sample(busy, k=rng.randint(0, len(busy))):
                job = held.pop(worker)
                roll = rng.random()
                if roll < 0.15:
                    workers.remove(worker)
                    apply(sched.lost(worker))
                elif worker in sched.lame or rng.random() < 0.8:
                    if worker not in sched.lame and job.shard_id not in sched.completed:
                        returned.add(job.shard_id)
                    merge(sched.outcome(worker, _outcome(job), now))
                else:
                    held[worker] = job  # still running
        assert not sched.active(), "the window never settled"
        assert merged == list(range(len(jobs_per_batch)))
        for batch, jobs in enumerate(jobs_per_batch):
            shard_ids = sorted(outcome.shard_id for outcome in sched.done[batch])
            assert shard_ids == [job.shard_id for job in jobs]
