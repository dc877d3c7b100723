"""Single-process load drivers: a closed loop for capacity, an open loop for latency.

Both drive a :class:`~repro.serving.RecommendationService` only through
``submit()`` and ``results()``.  ``submit()`` just queues a batch; work runs
inside ``results()``, so the open loop interleaves: submit every batch whose
due time has passed, redeem the oldest ticket, and sleep until the next due
time when nothing is outstanding.  With ``pipeline_window > 1`` the batches
that came due during one ``results()`` call are pending together and form
the next window, as they would in a live server.
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

from repro.exceptions import CrowdPlannerError, OverloadError

clock = time.perf_counter


@dataclass
class BatchRecord:
    """What happened to one batch; times are seconds from the phase start.

    ``responses`` holds the answers until they have been judged; ``timings``
    keeps the batch's ``BatchTimings`` once the answers are dropped.
    """

    due: float
    size: int
    submitted: Optional[float] = None
    done: Optional[float] = None
    responses: Optional[list] = None
    error: Optional[str] = None
    timings: Optional[Any] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.done is not None

    @property
    def latency_s(self) -> float:
        """Due time to results; a failed or shed batch never completes."""
        return self.done - self.due if self.ok else float("inf")


@dataclass
class PhaseResult:
    records: List[BatchRecord]
    elapsed_s: float


def phase_qps(phase: PhaseResult) -> float:
    """Queries served per second of the phase's wall time."""
    return sum(record.size for record in phase.records) / phase.elapsed_s


def best_of_passes_qps(passes: Sequence[PhaseResult], window: int) -> float:
    """Closed-loop throughput of identical passes, each window at its fastest pass.

    Every pass serves the same batches from the same starting state, so one
    pass serving a window of batches slower than another was slowed by
    something other than the program: another tenant of a shared machine.
    A window's time runs from the previous window's last result to its own
    last result; the throughput is all queries over the sum, across windows,
    of the shortest time any pass took.
    """
    count = len(passes[0].records)
    total_s = 0.0
    for start in range(0, count, window):
        end = min(start + window, count)
        total_s += min(
            phase.records[end - 1].done - (phase.records[start - 1].done if start else 0.0)
            for phase in passes
        )
    return sum(record.size for record in passes[0].records) / total_s


def _redeem(service, record: BatchRecord, ticket, start: float) -> None:
    try:
        record.responses = service.results(ticket)
    except CrowdPlannerError as exc:
        record.error = repr(exc)
    record.done = clock() - start
    if record.responses:
        record.timings = record.responses[0].provenance.timings


def closed_loop(service, batches: Sequence[list], window: int) -> PhaseResult:
    """One client keeping up to ``window`` batches outstanding."""
    records = [BatchRecord(due=0.0, size=len(batch)) for batch in batches]
    outstanding: deque = deque()
    start = clock()
    for index, batch in enumerate(batches):
        records[index].submitted = clock() - start
        outstanding.append((index, service.submit(batch)))
        while len(outstanding) >= window:
            index, ticket = outstanding.popleft()
            _redeem(service, records[index], ticket, start)
    while outstanding:
        index, ticket = outstanding.popleft()
        _redeem(service, records[index], ticket, start)
    elapsed = clock() - start
    return PhaseResult(records, elapsed)


def poisson_schedule(count: int, rate_batches_per_s: float, seed) -> List[float]:
    """Seeded Poisson arrival times (seconds from phase start) for ``count`` batches."""
    rng = random.Random(seed)
    due, now = [], 0.0
    for _ in range(count):
        now += rng.expovariate(rate_batches_per_s)
        due.append(now)
    return due


def open_loop(service, batches: Sequence[list], due: Sequence[float]) -> PhaseResult:
    """Batches arrive on the ``due`` schedule whatever the service is doing."""
    records = [BatchRecord(due=when, size=len(batch)) for when, batch in zip(due, batches)]
    outstanding: deque = deque()
    next_index = 0
    start = clock()
    while next_index < len(batches) or outstanding:
        now = clock() - start
        while next_index < len(batches) and due[next_index] <= now:
            record = records[next_index]
            record.submitted = clock() - start
            try:
                outstanding.append((next_index, service.submit(batches[next_index])))
            except OverloadError as exc:
                record.error = repr(exc)
            next_index += 1
        if outstanding:
            index, ticket = outstanding.popleft()
            _redeem(service, records[index], ticket, start)
        elif next_index < len(batches):
            time.sleep(max(0.0, due[next_index] - (clock() - start)))
    elapsed = clock() - start
    return PhaseResult(records, elapsed)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (infinite entries stand for failed batches)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail_percentile(samples: int) -> float:
    """The highest standard percentile with at least ten samples beyond it."""
    for pct in TAIL_PERCENTILES:
        if samples - -(-samples * pct // 100) >= 10:
            return pct
    return 50.0
