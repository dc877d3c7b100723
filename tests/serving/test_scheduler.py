"""The window scheduler as a pure state machine: no fork, no sleep, no signals.

Workers are plain strings, the clock is a float the test advances, and
every reply is a scripted call — so requeues, hedges, lame workers and the
degrade tail are checked deterministically, and a hypothesis property
explores random dispatch units, dependencies and event orders in
milliseconds.  The scheduler sees only units; that a unit's shards run
producers first is held by ``test_dispatch_units.py`` (closure) and by
``execute_unit``'s closure check.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.scheduler import WindowScheduler
from repro.serving.shards import DispatchUnit, ShardJob, ShardOutcome


def _job(shard_id, predecessors=(), handoff_from=()):
    return ShardJob(
        shard_id=shard_id,
        indices=(),
        destination_cells=frozenset(),
        queries=[],
        predecessors=tuple(predecessors),
        handoff_from=tuple(handoff_from),
    )


def _outcome(unit):
    return [ShardOutcome(job.shard_id, (), [], [], worker_pid=0) for job in unit.jobs]


def _units(jobs_per_batch, deps=None):
    """One single-job unit per job, waiting on ``deps[b][i]`` (none by default)."""
    if deps is None:
        deps = [[-1] * len(jobs) for jobs in jobs_per_batch]
    return [
        [DispatchUnit(dep, (job,)) for job, dep in zip(jobs, batch_deps)]
        for jobs, batch_deps in zip(jobs_per_batch, deps)
    ]


def _scheduler(units, **kwargs):
    counters = Counter()

    def record(key, value=1):
        counters[key] += value

    sched = WindowScheduler(units, {}, record, **kwargs)
    return sched, counters


def _dispatches(decisions):
    return [(kind, worker, unit.unit_id) for kind, worker, unit in decisions]


def _queued(sched):
    return [(batch, unit.unit_id, resubmitted) for batch, unit, resubmitted in sched.ready]


class TestRequeue:
    def test_lost_shard_is_requeued_at_the_front_and_marked_resubmitted(self):
        jobs = [_job(0), _job(1), _job(2)]
        sched, counters = _scheduler(_units([jobs]))
        assert _dispatches(sched.tick(0.0, ["w0", "w1"])) == [
            ("dispatch", "w0", 0),
            ("dispatch", "w1", 1),
        ]
        assert sched.lost("w0") == []  # no respawn budget
        assert _queued(sched) == [(0, 0, True), (0, 2, False)]
        assert counters["resubmitted_shards"] == 1
        assert _dispatches(sched.tick(1.0, ["w1", "w2"])) == [("dispatch", "w2", 0)]
        assert sched.outcome("w2", _outcome(sched.inflight["w2"].unit), 2.0) == []
        assert sched.resubmitted[0] == {0}
        assert counters["dispatch_units"] == 3

    def test_lost_multi_shard_unit_counts_one_resubmission(self):
        """A lost unit is one lost dispatch; provenance marks all its shards."""
        unit = DispatchUnit(-1, (_job(0), _job(1, (0,), (0,)), _job(2)))
        sched, counters = _scheduler([[unit]])
        list(sched.tick(0.0, ["w0"]))
        sched.lost("w0")
        assert counters["resubmitted_shards"] == 1
        list(sched.tick(1.0, ["w1"]))
        assert sched.outcome("w1", _outcome(unit), 2.0) == [0]
        assert sched.resubmitted[0] == {0, 1, 2}

    def test_lost_worker_requests_a_respawn_within_budget(self):
        sched, _ = _scheduler(_units([[_job(0)]]), max_respawns=1)
        list(sched.tick(0.0, ["w0"]))
        assert sched.lost("w0") == [("respawn", 0)]
        list(sched.tick(0.1, ["w1"]))
        assert sched.lost("w1") == []  # budget spent

    def test_unsent_dispatch_goes_to_the_next_idle_worker(self):
        jobs = [_job(0), _job(1)]
        sched, _ = _scheduler(_units([jobs]))
        decisions = sched.tick(0.0, ["w0", "w1", "w2"])
        assert _dispatches([next(decisions)]) == [("dispatch", "w0", 0)]
        sched.unsent("w0")
        assert _dispatches(decisions) == [("dispatch", "w1", 0), ("dispatch", "w2", 1)]
        assert set(sched.inflight) == {"w1", "w2"}

    def test_error_stops_dispatch_and_drains(self):
        jobs = [_job(0), _job(1), _job(2)]
        sched, _ = _scheduler(_units([jobs]))
        list(sched.tick(0.0, ["w0", "w1"]))
        sched.error("w0", "boom")
        assert sched.failure == "boom"
        assert list(sched.tick(1.0, ["w0", "w1"])) == []
        assert sched.active()  # w1 still owes its reply
        sched.outcome("w1", _outcome(sched.inflight["w1"].unit), 1.5)
        assert not sched.active()


class TestHedging:
    def _hedged(self):
        batch0, batch1 = _units([[_job(0), _job(1)], [_job(0), _job(1)]], [[-1, -1], [0, 0]])
        sched, counters = _scheduler([batch0, batch1], hedge_after_s=1.0, lame_grace_s=5.0)
        list(sched.tick(0.0, ["w0", "w1"]))
        assert sched.outcome("w1", _outcome(batch0[1]), 0.5) == []
        assert list(sched.tick(0.9, ["w0", "w1"])) == []  # not overdue yet
        assert _dispatches(sched.tick(2.0, ["w0", "w1"])) == [("hedge", "w1", 0)]
        assert counters["hedges_issued"] == 1
        # The hedge wins: the original goes lame, batch 0 merges and
        # releases batch 1.
        assert sched.outcome("w1", _outcome(batch0[0]), 2.1) == [0]
        assert counters["hedges_won"] == 1
        assert sched.lame == {"w0": 7.1}
        return sched, batch0, batch1

    def test_hedge_loser_is_lame_and_never_dispatched_before_it_drains(self):
        sched, batch0, batch1 = self._hedged()
        assert _dispatches(sched.tick(2.2, ["w0", "w1"])) == [("dispatch", "w1", 0)]
        assert list(sched.tick(2.3, ["w0", "w1"])) == []  # w0 still lame
        # The stale duplicate drains: w0 returns to service, and the
        # already-recorded shard is not recorded twice.
        assert sched.outcome("w0", _outcome(batch0[0]), 3.0) == []
        assert not sched.lame
        assert len(sched.done[0]) == 2
        assert _dispatches(sched.tick(3.1, ["w0", "w1"])) == [("dispatch", "w0", 1)]

    def test_lame_worker_past_its_deadline_expires(self):
        sched, _, _ = self._hedged()
        assert sched.expired(7.0) == []
        assert sched.expired(7.2) == ["w0"]
        assert not sched.lame

    def test_lost_lame_worker_just_leaves_the_lame_set(self):
        sched, _, _ = self._hedged()
        assert sched.lost("w0") == []
        assert not sched.lame
        assert [unit.unit_id for _, unit, _ in sched.ready] == [0, 1]  # nothing requeued

    def test_original_winning_wastes_the_hedge(self):
        (units,) = _units([[_job(0), _job(1)]])
        sched, counters = _scheduler([units], hedge_after_s=1.0, lame_grace_s=5.0)
        list(sched.tick(0.0, ["w0", "w1"]))
        sched.outcome("w1", _outcome(units[1]), 0.5)
        list(sched.tick(2.0, ["w0", "w1"]))
        assert sched.outcome("w0", _outcome(units[0]), 2.5) == [0]
        assert counters["hedges_wasted"] == 1
        assert sched.lame == {"w1": 7.5}


class TestDegradeTail:
    def test_no_worker_and_no_budget_degrades_in_batch_order(self):
        units = [
            [DispatchUnit(-1, (_job(0),)), DispatchUnit(-1, (_job(1),))],
            [DispatchUnit(0, (_job(0),))],
            [DispatchUnit(1, (_job(0), _job(1, (0,), (0,))))],
        ]
        sched, _ = _scheduler(units)
        ((kind, remaining),) = list(sched.tick(0.0, []))
        assert kind == "degrade"
        assert sorted(remaining) == [0, 1, 2]
        assert [job.shard_id for job in remaining[2]] == [0, 1]
        assert not sched.pending()
        merged = []
        for batch in sorted(remaining):
            outcomes = [o for job in remaining[batch] for o in _outcome(DispatchUnit(-1, (job,)))]
            merged += sched.inline(batch, outcomes, 1.0 + batch, 1.5 + batch)
        assert merged == [0, 1, 2]
        assert sched.execute_s(2) == pytest.approx(0.5)

    def test_respawn_before_degrading(self):
        sched, _ = _scheduler(_units([[_job(0)]]), max_respawns=1)
        assert list(sched.tick(0.0, [])) == [("respawn", 0)]
        ((kind, remaining),) = list(sched.tick(0.1, []))
        assert kind == "degrade" and list(remaining) == [0]

    def test_tail_marks_requeued_shards_resubmitted(self):
        jobs = [_job(0), _job(1)]
        sched, _ = _scheduler(_units([jobs]))
        list(sched.tick(0.0, ["w0"]))
        sched.lost("w0")
        ((_, remaining),) = list(sched.tick(0.1, []))
        assert [job.shard_id for job in remaining[0]] == [0, 1]
        assert sched.resubmitted[0] == {0}


# ------------------------------------------------------------------ property
@st.composite
def _windows(draw):
    """A random window: per batch, dispatch units with interleaved shard ids,
    sub-shard chains inside each unit (edges only to lower shard ids of the
    same unit, as split_oversized numbers them) and one cross-batch
    dependency per unit on an earlier batch."""
    window = []
    for batch in range(draw(st.integers(min_value=1, max_value=4))):
        sizes = draw(st.lists(st.integers(min_value=1, max_value=3), max_size=3))
        ids = draw(st.permutations(range(sum(sizes))))
        units, start = [], 0
        for size in sizes:
            shard_ids = sorted(ids[start : start + size])
            start += size
            jobs = []
            for position, shard in enumerate(shard_ids):
                earlier = st.sampled_from(shard_ids[:position]) if position else st.nothing()
                preds = draw(st.sets(earlier))
                handoff = draw(st.sets(earlier))
                jobs.append(_job(shard, sorted(preds), sorted(handoff)))
            dependency = draw(st.integers(min_value=-1, max_value=batch - 1))
            units.append(DispatchUnit(dependency, tuple(jobs)))
        window.append(sorted(units, key=lambda unit: unit.unit_id))
    return window


class TestScheduleProperty:
    @pytest.mark.property
    @settings(max_examples=300, deadline=None)
    @given(
        window=_windows(),
        pool=st.integers(min_value=1, max_value=3),
        hedge_after_s=st.sampled_from([None, 0.5]),
        max_respawns=st.integers(min_value=0, max_value=2),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_random_event_orders_keep_the_window_contract(
        self, window, pool, hedge_after_s, max_respawns, seed
    ):
        """Every (batch, shard) merges exactly once, batches merge in
        submission order, no unit is dispatched before its cross-batch
        dependency merged, and no lame worker is ever dispatched."""
        rng = random.Random(seed)
        sched, _ = _scheduler(
            window,
            hedge_after_s=hedge_after_s,
            lame_grace_s=1.0,
            max_respawns=max_respawns,
        )
        workers = [f"w{index}" for index in range(pool)]
        spawned = iter(f"r{index}" for index in range(100))
        batch_of = {id(unit): batch for batch, units in enumerate(window) for unit in units}
        held = {}  # worker -> (batch, unit) it was sent
        merged = []
        now = 0.0

        def merge(batches):
            merged.extend(batches)

        def apply(decisions):
            for kind, *args in decisions:
                if kind == "respawn":
                    workers.append(next(spawned))
                elif kind == "degrade":
                    # The in-process tail: batch by batch, shard-id order.
                    for batch in sorted(args[0]):
                        assert set(range(batch)) <= set(merged), "tail ran out of order"
                        jobs = sorted(args[0][batch], key=lambda job: job.shard_id)
                        outcomes = _outcome(DispatchUnit(-1, tuple(jobs)))
                        merge(sched.inline(batch, outcomes, now, now))
                else:
                    worker, unit = args
                    assert worker not in sched.lame, "dispatched to a lame worker"
                    dep = unit.dependency
                    assert dep < 0 or dep in merged, "dispatched before its dependency merged"
                    if rng.random() < 0.05:
                        workers.remove(worker)  # died before the send
                        sched.unsent(worker)
                    else:
                        held[worker] = (batch_of[id(unit)], unit)

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
                batch, unit = held.pop(worker)
                roll = rng.random()
                if roll < 0.15:
                    workers.remove(worker)
                    apply(sched.lost(worker))
                elif worker in sched.lame or rng.random() < 0.8:
                    merge(sched.outcome(worker, _outcome(unit), now))
                else:
                    held[worker] = (batch, unit)  # still running
        assert not sched.active(), "the window never settled"
        assert merged == list(range(len(window)))
        for batch, units in enumerate(window):
            shard_ids = sorted(outcome.shard_id for outcome in sched.done[batch])
            assert shard_ids == sorted(job.shard_id for unit in units for job in unit.jobs)
