"""The window scheduler: dispatch and supervision as a pure state machine.

:class:`WindowScheduler` decides what the pooled backend does with one
window of batches; :class:`~repro.serving.service.PooledBackend` — the
transport — forks, sends, kills and reads replies, and reports back.  The
scheduler never touches a pipe, a process, a signal, the clock or the
planner: workers are opaque hashable handles, times arrive as arguments and
merging stays in the backend, so a test can drive every decision with
scripted events and a fake clock.

What it schedules are :class:`~repro.serving.shards.ShardJob` s: the
shards of the window's one component plan, one message and one reply
each, all ready from the start (the plan made them interaction-closed
siblings).  A shard may hold queries of several batches; batch ``b`` merges
once every shard holding one of its queries has returned, in submission
order.  The scheduler owns the ``ready`` queue, one :class:`Flight` per
busy worker plus the ``copies`` of each shard, the ``lame`` hedge losers (a
dict the backend keeps across windows), the merge frontier and the respawn
budget.
:meth:`~WindowScheduler.tick` yields decisions — ``("dispatch", worker,
job)``, ``("hedge", worker, job)``, ``("respawn", attempt)``,
``("degrade", jobs)`` — lazily, so a dispatch the transport could
not send (:meth:`~WindowScheduler.unsent`) goes to the next idle worker in
the same tick.  :meth:`~WindowScheduler.outcome`,
:meth:`~WindowScheduler.lost` and :meth:`~WindowScheduler.error` report
replies, :meth:`~WindowScheduler.expired` names the lame workers to kill,
and every call that can complete a batch returns the batches to merge.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from .shards import ShardJob, ShardOutcome

#: A queued shard: ``(job, resubmitted)`` — the flag survives requeues so
#: the final outcome is attributed to supervision.
Entry = Tuple[ShardJob, bool]


class Flight(NamedTuple):
    """One worker's in-flight dispatch."""

    job: ShardJob
    resubmitted: bool
    started: float
    hedge: bool  # the speculative copy of an overdue shard

    @property
    def key(self) -> int:
        """Shards are identified across duplicate dispatches by shard id."""
        return self.job.shard_id


class WindowScheduler:
    """Scheduling state of one window (see the module docstring).

    ``jobs_per_batch[b]`` are the shards holding batch ``b``'s queries; a
    shard holding queries of several batches is listed under each of them
    (shard ids are unique in the window).  ``lame`` is the backend's
    lame-worker dict; ``record`` is a counter sink (``record(key,
    value=1)``).  ``hedge_after_s`` enables hedging, ``lame_grace_s`` is a
    hedge loser's hard deadline and ``max_respawns`` the window's respawn
    budget (0 when nothing can fork).
    """

    def __init__(
        self,
        jobs_per_batch: Sequence[Sequence[ShardJob]],
        lame: Dict[Any, float],
        record: Callable[..., None],
        hedge_after_s: Optional[float] = None,
        lame_grace_s: float = 0.0,
        max_respawns: int = 0,
    ):
        self.lame = lame
        self._record = record
        self.hedge_after_s = hedge_after_s
        self.lame_grace_s = lame_grace_s
        self.max_respawns = max_respawns
        count = len(jobs_per_batch)
        # Shards per batch: a batch merges once each has an outcome.
        self.total = [len(jobs) for jobs in jobs_per_batch]
        self.done: List[List[ShardOutcome]] = [[] for _ in range(count)]
        self.resubmitted: List[Set[int]] = [set() for _ in range(count)]
        self.first: List[Optional[float]] = [None] * count
        self.last: List[Optional[float]] = [None] * count
        # Shard id -> the batches it holds queries of, in order.
        self.batches_of: Dict[int, List[int]] = {}
        self.completed: Set[int] = set()
        self.ready: "deque[Entry]" = deque()
        self.inflight: Dict[Any, Flight] = {}
        self.copies: Dict[int, List[Any]] = {}
        self.merged = 0
        self.respawns = 0
        self.failure: Optional[str] = None
        for batch, jobs in enumerate(jobs_per_batch):
            for job in jobs:
                batches = self.batches_of.setdefault(job.shard_id, [])
                if not batches:
                    self.ready.append((job, False))
                batches.append(batch)

    # ------------------------------------------------------------- queries
    def pending(self) -> bool:
        """Whether any shard still waits to be dispatched."""
        return bool(self.ready)

    def active(self) -> bool:
        """Whether the window still needs the transport: work left to
        dispatch (until a failure stops dispatching) or replies owed."""
        return (self.failure is None and self.pending()) or bool(self.inflight)

    def execute_s(self, batch: int) -> float:
        """Wall-clock from a batch's first dispatch to its last outcome."""
        first, last = self.first[batch], self.last[batch]
        return last - first if first is not None and last is not None else 0.0

    # -------------------------------------------------------------- inputs
    def tick(self, now: float, workers: Sequence[Any]) -> Iterator[tuple]:
        """The next decisions, given the live workers in pool order.

        Each idle worker pulls the next ready shard.  A shard is already a
        worker's share of the window (the plan packs at most one per
        worker), and it needs no other shard's writes, so it is one
        message.  With nothing left to dispatch, overdue shards are hedged
        onto idle workers.  With work left, nothing in flight and no worker
        alive, the window respawns (budget permitting) or degrades the rest
        to in-process execution.
        """
        if self.failure is not None:
            return
        gone: Set[Any] = set()  # workers a send failed on this tick
        for worker in workers:
            if not self.ready:
                break
            if worker in self.inflight or worker in self.lame:
                continue
            job, resubmitted = self.ready.popleft()
            flight = self._launch(worker, Flight(job, resubmitted, now, False))
            yield ("dispatch", worker, job)
            if self.inflight.get(worker) is not flight:
                gone.add(worker)
                continue
            self._record("dispatch_units")
            for batch in self.batches_of[job.shard_id]:
                if self.first[batch] is None:
                    self.first[batch] = now
        if self.hedge_after_s is not None and not self.ready and self.inflight:
            idle = [w for w in workers if w not in self.inflight and w not in self.lame and w not in gone]
            yield from self._hedge(now, idle, gone)
        if self.ready and not self.inflight and all(w in gone for w in workers):
            yield from self._respawn() or [("degrade", self._drain())]

    def unsent(self, worker: Any) -> None:
        """The transport could not send ``worker``'s dispatch: requeue it at
        the front (a failed hedge copy is simply dropped)."""
        flight = self._land(worker)
        if not flight.hedge:
            self.ready.appendleft((flight.job, flight.resubmitted))

    def outcome(self, worker: Any, outcome: ShardOutcome, now: float) -> List[int]:
        """``worker`` replied with its shard's outcome.

        A lame worker's stale reply just returns it to service.  The first
        copy of a shard to finish wins: other copies go lame, and a later
        duplicate is discarded — bit-identical by the content-keyed crowd
        RNG, so dropping it is a pure no-op.  Returns the batches to merge.
        """
        if self.lame.pop(worker, None) is not None:
            return []
        flight = self._land(worker)
        if flight.key in self.completed:
            return []
        if flight.hedge:
            self._record("hedges_won")
        for peer in self.copies.pop(flight.key, ()):
            if self.inflight.pop(peer).hedge:
                # The original finished first: the speculative copy bought
                # nothing.
                self._record("hedges_wasted")
            self.lame[peer] = now + self.lame_grace_s
        if flight.resubmitted:
            self._mark_resubmitted(flight.key)
        self.completed.add(flight.key)
        return self._complete(flight.key, outcome, now)

    def inline(self, outcome: ShardOutcome, started: float, now: float) -> List[int]:
        """The degrade tail executed one remaining shard in-process.
        Returns the batches to merge."""
        for batch in self.batches_of[outcome.shard_id]:
            if self.first[batch] is None:
                self.first[batch] = started
        return self._complete(outcome.shard_id, outcome, now)

    def lost(self, worker: Any) -> List[tuple]:
        """``worker`` is gone (crash, hang, desync, stale error).

        A lame worker just leaves the lame set.  An in-flight shard is
        requeued *resubmitted* at the *front* of the ready queue — the
        merge frontier may be waiting on it — unless it already completed
        or a duplicate copy still covers it (``resubmitted_shards`` counts
        one per lost dispatch).  Either way a replacement is requested
        while the budget lasts.
        """
        if self.lame.pop(worker, None) is not None or worker not in self.inflight:
            return []
        flight = self._land(worker)
        if flight.key not in self.completed and flight.key not in self.copies:
            self.ready.appendleft((flight.job, True))
            self._record("resubmitted_shards")
        return self._respawn()

    def error(self, worker: Any, text: str) -> None:
        """A shard execution failed (the worker's state is intact; ``None``
        for the in-process tail).  Dispatching stops, in-flight shards
        drain — their frontier batches may still merge — and the backend
        returns the merged prefix."""
        if worker is not None:
            self._land(worker)
        if self.failure is None:
            self.failure = text

    def expired(self, now: float) -> List[Any]:
        """Lame workers past their hard deadline: they breached
        ``lame_grace_s`` on top of losing a hedge race, so the transport
        kills them as stragglers."""
        overdue = [worker for worker, deadline in self.lame.items() if now > deadline]
        for worker in overdue:
            del self.lame[worker]
        return overdue

    def advance(self) -> List[int]:
        """Advance the merge frontier over every fully-executed batch at the
        head of the window.  Returns those batches: the backend merges
        them, strictly in order, before anything else is dispatched."""
        merged: List[int] = []
        total, done = self.total, self.done
        while self.merged < len(total) and len(done[self.merged]) == total[self.merged]:
            merged.append(self.merged)
            self.merged += 1
        return merged

    # ------------------------------------------------------------ internal
    def _hedge(self, now: float, idle: List[Any], gone: Set[Any]) -> Iterator[tuple]:
        """Duplicate overdue dispatches onto idle workers, oldest first (it
        gates the batch).  One hedge per shard: racing more than two copies
        buys nothing the content-keyed RNG has not already guaranteed."""
        overdue = sorted(
            (
                flight
                for flight in self.inflight.values()
                if not flight.hedge and now - flight.started > self.hedge_after_s
            ),
            key=lambda flight: flight.started,
        )
        for flight in overdue:
            if not idle:
                return
            if len(self.copies[flight.key]) > 1:
                continue  # already hedged
            while idle:
                worker = idle.pop(0)
                copy = self._launch(worker, flight._replace(started=now, hedge=True))
                yield ("hedge", worker, flight.job)
                if self.inflight.get(worker) is copy:
                    self._record("hedges_issued")
                    break
                gone.add(worker)

    def _respawn(self) -> List[tuple]:
        """Request a replacement worker while the respawn budget lasts."""
        if self.respawns >= self.max_respawns:
            return []
        self.respawns += 1
        return [("respawn", self.respawns - 1)]

    def _launch(self, worker: Any, flight: Flight) -> Flight:
        self.inflight[worker] = flight
        self.copies.setdefault(flight.key, []).append(worker)
        return flight

    def _land(self, worker: Any) -> Flight:
        """Take ``worker``'s flight out of the in-flight record."""
        flight = self.inflight.pop(worker)
        peers = self.copies[flight.key]
        peers.remove(worker)
        if not peers:
            del self.copies[flight.key]
        return flight

    def _complete(self, shard_id: int, outcome: ShardOutcome, now: float) -> List[int]:
        for batch in self.batches_of[shard_id]:
            self.done[batch].append(outcome)
            self.last[batch] = now
        return self.advance()

    def _mark_resubmitted(self, shard_id: int) -> None:
        for batch in self.batches_of[shard_id]:
            self.resubmitted[batch].add(shard_id)

    def _drain(self) -> List[ShardJob]:
        """Empty the ready queue for the in-process tail, which runs the
        jobs one by one and merges each batch as soon as its last shard has
        returned (in submission order, as always)."""
        for job, resubmitted in self.ready:
            if resubmitted:
                self._mark_resubmitted(job.shard_id)
        jobs = [job for job, _ in self.ready]
        self.ready.clear()
        return jobs
