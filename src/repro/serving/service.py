"""The session-based recommendation service.

:class:`RecommendationService` is the serving layer's public surface: an
always-on façade over a prepared :class:`~repro.core.planner.CrowdPlanner`
that answers a *stream* of query batches instead of one-shot calls.

* ``submit(queries) -> Ticket`` enqueues a batch (bounded queue);
  ``results(ticket)`` redeems it — batches execute lazily, strictly in
  submission order, so any interleaving of submits and collects observes
  the same global query sequence;
* ``stream(queries)`` pipelines a long query iterable through the service
  in batches, yielding :class:`~repro.serving.protocol.RecommendResponse`
  envelopes as they are produced;
* execution is delegated to a pluggable
  :class:`~repro.serving.protocol.ServingBackend`:
  :class:`InlineBackend` is the sequential oracle itself, and
  :class:`PooledBackend` a **persistent** forked worker pool — workers are
  forked once, keep warm :class:`~repro.core.truth.TruthDatabase` state
  between batches, and receive only the truth deltas the parent merged
  since their last shard, amortising a per-batch fork + clone;
* every batch executes inside a *window* of up to
  ``config.pipeline_window`` consecutive pending batches, handed to the
  backend's one execution method,
  :meth:`~repro.serving.protocol.ServingBackend.execute_window` (a lone
  batch is a one-batch window); the pooled backend plans the window's
  queries as one component plan and dispatches all its shards at once,
  each holding queries of any of the window's batches, while merges — and
  so all observable state — stay strictly in submission order.

Service contract
----------------
For any backend, pool size and submission interleaving, the concatenated
results (and the planner's post-batch state) are bit-identical to the
planner answering the same queries sequentially in submission order — up to
process-local task/truth serial numbers, exactly as
:func:`~repro.serving.protocol.recommendation_fingerprint` canonicalises.
The pooled path inherits this from the shard machinery
(:mod:`repro.serving.shards`); the per-batch grouping itself cannot change
answers because batch-level optimisations are performance-only channels
(see :meth:`CrowdPlanner.recommend_batch`).
"""

from __future__ import annotations

import dataclasses
import itertools
import multiprocessing
import os
import random
import time
import traceback
import warnings
from collections import OrderedDict, deque
from multiprocessing.connection import wait as mp_wait
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..config import ServiceConfig
from ..core.planner import CrowdPlanner, ShardPlan
from ..exceptions import JournalError, OverloadError, ServingError
from ..routing.base import RouteQuery
from .journal import TruthJournal
from .metrics import BATCHES, DEFAULT_TENANT, SCHEMA
from .pipeline import batch_dependencies, window_parallelism
from .protocol import (
    BatchExecution,
    BatchTimings,
    RecommendRequest,
    RecommendResponse,
    ResultProvenance,
    ServingBackend,
    Ticket,
    encode_truth_delta,
    wrap_requests,
)
from .scheduler import WindowScheduler
from .shards import (
    ShardJob,
    ShardOutcome,
    execute_shard,
    merge_shard_outcomes,
    slice_outcome,
    split_oversized,
)
from .worker import pool_worker_main

QueryLike = Union[RouteQuery, RecommendRequest]

#: :meth:`_PoolWorker.read`'s "nothing but heartbeats waiting" marker.
_SILENT = object()

#: The plan of a window its settle pass answers whole.
_EMPTY_PLAN = ShardPlan(shards=(), num_queries=0, interaction_radius_m=0.0, cell_size_m=0.0, cell_reach=0)


def _lifted(plan: ShardPlan, positions: Sequence[int]) -> ShardPlan:
    """``plan`` with each shard index ``i`` replaced by ``positions[i]``.

    The od-cell groups index the planned subset, so they are dropped."""
    shards = tuple(
        dataclasses.replace(shard, indices=tuple(positions[index] for index in shard.indices))
        for shard in plan.shards
    )
    return dataclasses.replace(plan, shards=shards, od_cell_groups=None)


# ------------------------------------------------------------ inline backend
class InlineBackend(ServingBackend):
    """The sequential oracle as a backend: no shards, no processes.

    Every other backend is tested against this one — it *is*
    ``planner.recommend_batch`` with envelopes around it.
    """

    name = "inline"

    def execute_window(self, batches: Sequence[Sequence[RouteQuery]]) -> List[BatchExecution]:
        """Answer each batch with ``planner.recommend_batch``, in order."""
        planner = self.planner
        if planner is None:
            raise ServingError("backend is not bound to a planner")
        pid = os.getpid()
        executions: List[BatchExecution] = []
        for queries in batches:
            before = planner.truth_cursor()
            started = time.perf_counter()
            try:
                results = planner.recommend_batch(queries)
            except Exception:
                if executions:
                    break  # the window contract: return the merged prefix
                raise
            executions.append(
                BatchExecution(
                    results=results,
                    origins=[(None, pid)] * len(results),
                    truth_span=(before, planner.truth_cursor()),
                    execute_s=time.perf_counter() - started,
                )
            )
        return executions


# ------------------------------------------------------------ pooled backend
class _PoolWorker:
    """Parent-side handle of one pool worker."""

    __slots__ = ("process", "conn", "pid", "cursors", "dead", "last_heard")

    def __init__(self, process, conn, cursors: Dict[str, int]):
        self.process = process
        self.conn = conn
        self.pid = process.pid
        # Per-tenant truth cursors: parent truths already synced to this
        # worker, keyed by workspace name ("" = default tenant).  A tenant
        # missing here is one the worker has never heard of — the next
        # dispatch for it ships the planner spec plus the full store.
        self.cursors = cursors
        self.dead = False
        self.last_heard = time.monotonic()  # last reply or heartbeat seen

    def touch(self) -> None:
        self.last_heard = time.monotonic()

    def read(self):
        """The next substantive message already in the pipe: the reply,
        ``None`` on EOF, or ``_SILENT`` when only heartbeats (each one
        renewing ``last_heard``) or nothing were waiting."""
        try:
            while self.conn.poll(0):
                reply = self.conn.recv()
                self.touch()
                if reply[0] != "beat":
                    return reply
        except (EOFError, OSError):
            return None
        return _SILENT

    @property
    def alive(self) -> bool:
        return not self.dead and self.process.is_alive()

    def mark_dead(self) -> None:
        self.dead = True
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


class PooledBackend(ServingBackend):
    """Persistent forked worker pool with warm truth stores.

    Workers are forked once (on the first batch) and inherit the full
    planner substrate — including state that cannot be pickled — through
    ``fork``.  Across batches each worker keeps its base truth store warm:
    every ``run`` message carries the truths the parent merged since that
    worker's cursor, so a worker idle for a few windows catches up on its
    next dispatch, and consecutive batches pay only shard-clone
    construction, never a fork or a whole-store clone.

    Every window, a lone batch included, takes one execution path,
    :meth:`execute_window`: a
    :class:`~repro.serving.scheduler.WindowScheduler` decides, and this
    backend's transport (:meth:`_drive`) forks, sends, kills and reads
    replies.  On a platform without ``fork`` no pool is started and every
    window runs through the in-process tail — the same clone-and-merge
    machinery — so results are identical everywhere.

    A query the parent's store already answers never reaches a worker, nor
    a plan: each window starts with :meth:`CrowdPlanner.settled_hits`, the
    queries it settles are answered in the parent as truth reuses
    (provenance: no shard, the parent's pid; the ``settled_queries``
    counter), and only the rest are shard-planned and dispatched.

    Truth deltas stream to workers as a columnar
    :class:`~repro.serving.protocol.TruthDeltaBlock` — node-index arrays,
    several times smaller on the wire than the pickled objects — which the
    worker's :meth:`TruthDatabase.adopt_all` decodes against its
    fork-inherited network into identical truths.

    A worker failure never fails a batch.  A crash (pipe EOF) or a *hung*
    worker — silent, no reply and no heartbeat, past ``rpc_deadline_s``,
    then killed — has its shard resubmitted and, within the
    ``max_respawns_per_batch`` budget, a replacement forked mid-window
    behind a jittered exponential backoff; with the budget spent and the
    whole pool gone the rest degrades to in-process execution, with
    identical results.  Lost capacity is restored at the next window edge.

    Every knob (pool size, supervision deadlines, respawn budget, hedging,
    the hotspot-split diagnostic) is read from the
    :class:`~repro.config.ServiceConfig` the pool is built from.
    """

    name = "pooled"

    def __init__(self, config: ServiceConfig):
        super().__init__()
        self.config = config
        # Workers overtaken by a hedge ("lame"): each still owes one stale
        # reply under the strict request/reply protocol, so it is excluded
        # from dispatch until drained.  Value = the hard,
        # non-heartbeat-renewable deadline (monotonic) after which the
        # crawler is killed (see ``_poll_lame``).
        self._lame: Dict[_PoolWorker, float] = {}
        # Seeded so backoff jitter is reproducible run to run.
        self._backoff_rng = random.Random(0x5EED)
        self._workers: List[_PoolWorker] = []
        # Named workspaces sharing this pool beside the bound (default)
        # planner: tenant name -> planner.  Registration order is the order
        # freshly forked workers inherit the warm bases in.
        self._tenants: "OrderedDict[str, CrowdPlanner]" = OrderedDict()
        # One-entry-per-tenant memo of the last encoded delta (_wire_delta).
        self._wire_cache: Dict[str, Tuple[Tuple[int, int], object]] = {}

    # -------------------------------------------------------------- plumbing
    def bind(self, planner: CrowdPlanner) -> None:
        if self.planner is not None and self.planner is not planner:
            raise ServingError("backend is already bound to a different planner")
        self.planner = planner

    # --------------------------------------------------------------- tenancy
    def register_tenant(self, name: str, planner: CrowdPlanner) -> None:
        """Register a named workspace's planner beside the default one.

        Workers forked afterwards inherit the planner (warm base included);
        workers already running learn about the tenant lazily — their first
        dispatch for it ships the tenant's
        :class:`~repro.config.PlannerConfig` plus the whole current store as
        a delta, so they rebuild an identical base from the shared substrate.
        """
        if not name:
            raise ServingError("tenant name must be non-empty")
        existing = self._tenants.get(name)
        if existing is not None and existing is not planner:
            raise ServingError(
                f"tenant {name!r} is already registered with a different planner"
            )
        self._tenants[name] = planner

    def drop_tenant(self, name: str) -> None:
        """Deregister a workspace without touching the shared pool.

        Live workers are told to forget the tenant's warm base, so a later
        workspace reusing the name starts from the fresh spec + full delta
        instead of a stale fork-inherited store.
        """
        if self._tenants.pop(name, None) is None:
            return
        self._wire_cache.pop(name, None)
        for worker in self._workers:
            if worker.cursors.pop(name, None) is not None and worker.alive:
                self._send(worker, ("drop", name))

    def _planner_for(self, tenant: str) -> CrowdPlanner:
        if tenant == DEFAULT_TENANT:
            if self.planner is None:
                raise ServingError("backend is not bound to a planner")
            return self.planner
        try:
            return self._tenants[tenant]
        except KeyError:
            raise ServingError(f"unknown tenant {tenant!r}") from None

    def resolved_pool_size(self) -> int:
        if self.config.pool_size is not None:
            return self.config.pool_size
        return os.cpu_count() or 1

    def _can_fork(self) -> bool:
        return "fork" in multiprocessing.get_all_start_methods()

    def worker_pids(self) -> List[int]:
        return [worker.pid for worker in self._workers if worker.alive]

    def close(self) -> None:
        self._stop_pool()

    # -------------------------------------------------------------- planning
    def _split(self, planner: CrowdPlanner, plan: ShardPlan, queries: Sequence[RouteQuery]) -> ShardPlan:
        """``plan`` with its oversized components split into sub-shard
        chains when ``max_shard_fraction`` is set (``plan`` otherwise): a
        diagnostic of plan shape, never executed."""
        fraction = self.config.max_shard_fraction
        return plan if fraction is None else split_oversized(planner, plan, queries, fraction)

    def _plan(self, planner: CrowdPlanner, flat: List[RouteQuery], kept: List[int]) -> ShardPlan:
        """The window's one component plan over the pool: the plan it
        dispatches, one job per shard.

        ``flat`` is the window's queries (its batches concatenated) and
        ``kept`` the positions the settle pass left.  Only those are
        planned, in submission order, so ``num_queries`` and the split's
        fraction count them; shard indices are lifted back to positions in
        ``flat``.  The split feeds the ``sharding`` counters only.  With
        nothing left to plan the plan is empty and ``shard_plan`` is not
        called."""
        if not kept:
            return _EMPTY_PLAN
        subset = [flat[index] for index in kept]
        plan = planner.shard_plan(subset, self.resolved_pool_size())
        self._note_plan(plan, self._split(planner, plan, subset))
        return _lifted(plan, kept)

    def plan(self, planner: CrowdPlanner, queries: Sequence[RouteQuery]) -> ShardPlan:
        """The plan of ``queries`` as given, splits included: the shape the
        ``sharding`` counters report.  A window dispatches the component
        plan underneath, one shard per message."""
        if not queries:
            return _EMPTY_PLAN
        return self._split(planner, planner.shard_plan(queries, self.resolved_pool_size()), queries)

    def _note_plan(self, before: ShardPlan, after: ShardPlan) -> None:
        """Record one batch's skew diagnostics (the ``sharding`` group)."""
        record, depth = self.counters.record, after.chain_depth()
        record("largest_shard_fraction_before", before.largest_shard_fraction())
        record("largest_shard_fraction_after", after.largest_shard_fraction())
        record("chain_depth", depth)
        record("max_chain_depth", depth)
        record("sub_shards_total", max(0, len(after.shards) - len(before.shards)))

    # ------------------------------------------------------------- execution
    def execute_window(
        self, batches: Sequence[Sequence[RouteQuery]], tenant: str = DEFAULT_TENANT
    ) -> List[BatchExecution]:
        """The one execution path: plan, dispatch and merge a window of
        consecutive batches on the pool.

        Settles first: :meth:`CrowdPlanner.settled_hits` names the window's
        truth reuses the parent's store already answers, and each batch
        keeps them as one parent-side outcome with no truths.  Then plans
        the rest, in submission order, as one component plan
        (:meth:`_plan`).  Its shards are interaction-closed whichever
        batches their queries come from, so each is one job, ready at once,
        that runs its queries in submission order on one clone.  The
        :class:`WindowScheduler` merges batch ``b`` once every shard holding
        one of its queries has returned, strictly in submission order, each
        outcome sliced to the batch, so parent truth-id issuance — and with
        it every fingerprint — is the sequential oracle's.  Where ``fork``
        exists the pool is ensured (polling lame workers and replacing dead
        ones on a warm pool) and :meth:`_drive` runs the window.  A failed
        shard returns the batches merged before it (the window contract);
        when that leaves none, the head batch is retried alone, so only the
        head batch's own failure raises.

        Everything recorded meanwhile is charged to ``tenant``.
        Window-structure counters (the ``pipeline`` group) count only
        windows of two or more batches.  Supervision is per window:
        ``max_respawns_per_batch`` acts as a per-*window* respawn budget,
        and ``warm_pool``/``respawn_count`` provenance fields are
        window-level (all batches of a window report the same warm flag and
        the respawns seen up to their own merge).
        """
        if self.planner is None:
            raise ServingError("backend is not bound to a planner")
        planner = self._planner_for(tenant)
        window = [list(queries) for queries in batches]
        flat = [query for queries in window for query in queries]
        starts = [0, *itertools.accumulate(len(queries) for queries in window)][:-1]
        with self.counters.charging(tenant):
            hits = planner.settled_hits(window)
            started = time.perf_counter()
            kept = [
                start + index
                for start, queries, settled in zip(starts, window, hits)
                for index in range(len(queries))
                if index not in settled
            ]
            plan = self._plan(planner, flat, kept)
            plan_s = time.perf_counter() - started
            # One plan: every dependency is -1.  The call stays as the
            # source of the pipeline counters, which servebench times by name.
            parallelism = window_parallelism(batch_dependencies([plan]))
            if len(window) > 1:
                for key, value in parallelism.items():
                    self.counters.record(key, value)
            # Warm shared read-only state before any fork so first-batch workers
            # inherit the compiled graph and source caches instead of rebuilding
            # them per process.
            planner.warm_batch(flat)
            owner = [batch for batch, queries in enumerate(window) for _ in queries]
            jobs_per_batch: List[List[ShardJob]] = [[] for _ in window]
            for job in self._jobs(flat, plan, tenant):
                for batch in sorted({owner[index] for index in job.indices}):
                    jobs_per_batch[batch].append(job)
            pid = os.getpid()
            settled_outcomes = [
                [ShardOutcome(None, tuple(found), list(found.values()), [], pid)] if found else []
                for found in hits
            ]
            can_fork = self._can_fork()
            sched = WindowScheduler(
                jobs_per_batch,
                self._lame,
                self.counters.record,
                hedge_after_s=self.config.hedge_after_s,
                lame_grace_s=self.config.rpc_deadline_s,
                max_respawns=self.config.max_respawns_per_batch if can_fork else 0,
            )
            warm = False
            if can_fork:
                # Warm only when an existing pool serves this window — a re-fork
                # after a whole-pool loss is cold like the first one (replacing
                # individual dead workers is not: the survivors' warm state is
                # what the window runs on).
                self._poll_lame(sched)
                warm = not self._ensure_pool()
            executions = self._drive(sched, planner, window, starts, settled_outcomes, plan_s, warm)
            if sched.failure is not None and not executions:
                if len(window) > 1:
                    return self.execute_window(batches[:1], tenant)
                raise ServingError(f"shard execution failed:\n{sched.failure}")
            if len(window) > 1:
                self.counters.record("windows")
            self.counters.record(BATCHES, len(executions))
        return executions

    @staticmethod
    def _jobs(queries: List[RouteQuery], plan: ShardPlan, tenant: str) -> List[ShardJob]:
        """One job per shard of the window's component plan."""
        return [
            ShardJob(
                shard_id=shard.shard_id,
                indices=shard.indices,
                queries=[queries[index] for index in shard.indices],
                tenant=tenant,
            )
            for shard in plan.shards
        ]

    def _drive(
        self,
        sched: WindowScheduler,
        planner: CrowdPlanner,
        window: List[List[RouteQuery]],
        starts: List[int],
        settled: List[List[ShardOutcome]],
        plan_s: float,
        warm: bool,
    ) -> List[BatchExecution]:
        """The transport loop of one window: carry out ``sched``'s decisions
        on the pool, feed it every reply, and merge each batch it completes
        into the parent, strictly in submission order: its share (from
        ``starts[b]``) of every shard holding its queries, together with its
        ``settled`` outcomes (answered in the parent, never resubmitted).
        The window's plan time is charged to its head batch.  A shard
        execution error (a worker's ``"error"`` reply or the in-process tail
        raising) stops dispatch and returns the merged prefix."""
        executions: List[BatchExecution] = []

        def merge(batches: List[int]) -> None:
            for index in batches:
                size, start = len(window[index]), starts[index]
                dispatched = [slice_outcome(outcome, start, start + size) for outcome in sched.done[index]]
                outcomes = dispatched + settled[index]
                before = planner.truth_cursor()
                started = time.perf_counter()
                results = merge_shard_outcomes(planner, size, outcomes)
                merge_s = time.perf_counter() - started
                origins: List[Tuple[Optional[int], Optional[int]]] = [(None, None)] * size
                for outcome in outcomes:
                    for query_index in outcome.indices:
                        origins[query_index] = (outcome.shard_id, outcome.worker_pid)
                self.counters.record(
                    "settled_queries", sum(len(outcome.indices) for outcome in settled[index])
                )
                resubmitted = sched.resubmitted[index]
                flags = [False] * size
                for outcome in dispatched:
                    if outcome.shard_id in resubmitted:
                        for query_index in outcome.indices:
                            flags[query_index] = True
                executions.append(
                    BatchExecution(
                        results=results,
                        origins=origins,
                        plan_s=plan_s if index == 0 else 0.0,
                        execute_s=sched.execute_s(index),
                        merge_s=merge_s,
                        warm_pool=warm,
                        resubmitted=flags if resubmitted else None,
                        respawn_count=sched.respawns,
                        truth_span=(before, planner.truth_cursor()),
                    )
                )

        def apply(decisions) -> None:
            for kind, *args in decisions:
                if kind in ("dispatch", "hedge"):
                    worker, job = args
                    if self._dispatch(worker, job):
                        worker.touch()
                    else:
                        sched.unsent(worker)
                elif kind == "respawn":
                    self._respawn(*args)
                else:  # "degrade": no worker left and none coming
                    self._run_tail(sched, args[0], planner, merge)

        merge(sched.advance())  # zero-shard batches at the head merge immediately
        while sched.active():
            self._poll_lame(sched)
            apply(sched.tick(time.monotonic(), self._alive_workers()))
            if not sched.inflight:
                if self._lame:
                    # Nothing in flight but a crawler still owes a reply:
                    # yield briefly instead of hot-spinning on the lame poll.
                    time.sleep(0.005)
                continue
            for worker, reply in self._poll(sched.inflight, 0.05, self.config.rpc_deadline_s):
                kind = reply[0] if reply is not None else None
                if kind == "done":
                    merge(sched.outcome(worker, reply[2], time.monotonic()))
                elif kind == "error":
                    sched.error(worker, str(reply[2]))
                else:  # EOF, exit, hang or desync: its warm base is gone or suspect
                    worker.mark_dead()
                    apply(sched.lost(worker))
        return executions

    def _run_tail(
        self, sched: WindowScheduler, jobs: List[ShardJob], planner: CrowdPlanner, merge
    ) -> None:
        """Run the window's remaining shards in-process — all of them without
        ``fork``, the rest of the window after a lost pool — one
        :func:`~repro.serving.shards.execute_shard` each, merging every
        batch whose last shard returned.  A merge writes only truths of
        other shards, which lie outside a later shard's interaction closure,
        so results are unchanged.  An execution error takes the same path
        as a worker's ``"error"`` reply."""
        if self._can_fork():
            # A lost pool: every batch with shards run in-process is degraded.
            degraded = {batch for job in jobs for batch in sched.batches_of[job.shard_id]}
            self.counters.record("degraded_batches", len(degraded))
        for job in jobs:
            started = time.monotonic()
            try:
                outcome = execute_shard(planner, job)
            except Exception:
                sched.error(None, traceback.format_exc())
                return
            merge(sched.inline(outcome, started, time.monotonic()))

    # ------------------------------------------------------------- transport
    def _poll(self, workers, timeout: float, silence_s: Optional[float] = None):
        """The one reply reader: yield ``(worker, reply)`` per settled worker.

        Waits up to ``timeout`` for any of ``workers`` — a live container:
        a worker that leaves it mid-sweep is skipped — absorbs heartbeats
        (each one renews ``last_heard``) and yields the next substantive
        reply, or ``None`` for a worker found dead: EOF, exited (after
        draining what it wrote first), or — with ``silence_s`` — silent, no
        reply and no heartbeat, past ``silence_s``: hung, so killed outright
        (SIGKILL works where a reply never will).  Dead workers are marked
        dead before they are yielded.
        """
        snapshot = list(workers)
        live = [worker.conn for worker in snapshot if not worker.dead]
        ready = self._wait(live, timeout) if live else []
        now = time.monotonic()
        for worker in snapshot:
            if worker not in workers:
                continue
            reply = worker.read() if worker.dead or worker.conn in ready else _SILENT
            if reply is _SILENT:
                if not worker.process.is_alive():
                    reply = worker.read()  # anything written before it exited
                    reply = None if reply is _SILENT else reply
                elif silence_s is not None and now - worker.last_heard > silence_s:
                    self._kill_worker(worker)
                    self.counters.record("hung_workers_killed")
                    reply = None
                else:
                    continue
            if reply is None:
                worker.mark_dead()
            yield worker, reply

    def _wait(self, conns, timeout: float):
        """The pipes among ``conns`` with something to read, waiting up to
        ``timeout`` for one."""
        return mp_wait(conns, timeout)

    def _poll_lame(self, sched: WindowScheduler) -> None:
        """Drain, recycle or retire lame workers (non-blocking).

        A stale ``done`` returns the worker, whose warm base is intact, to
        service; a stale ``desync`` or ``error`` — or death — retires it;
        past its hard deadline the scheduler has it killed as a straggler."""
        for worker, reply in self._poll(self._lame, 0):
            if reply is not None and reply[0] == "done":
                sched.outcome(worker, reply[2], time.monotonic())
            else:
                worker.mark_dead()
                sched.lost(worker)
        for worker in sched.expired(time.monotonic()):
            self._kill_worker(worker)
            self.counters.record("stragglers_killed")

    def _spawn_worker(self) -> _PoolWorker:
        """Fork one worker inheriting every tenant planner's *current* state.

        The fork carries the default planner plus all registered tenant
        planners by reference; the worker's cursors start at each store's
        current position, so the first dispatch per tenant ships an empty
        delta.
        """
        context = multiprocessing.get_context("fork")
        parent_conn, child_conn = context.Pipe()
        # The fork context passes args by reference, so the child receives
        # the inherited parent-side ends to close (see pool_worker_main):
        # its own pipe's, plus each live sibling's.
        stale_conns = [peer.conn for peer in self._workers if peer.alive]
        stale_conns.append(parent_conn)
        process = context.Process(
            target=pool_worker_main,
            args=(
                child_conn,
                self.planner,
                dict(self._tenants),
                self.config.heartbeat_interval_s,
                stale_conns,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        cursors = {DEFAULT_TENANT: self.planner.truth_cursor()}
        for name, tenant_planner in self._tenants.items():
            cursors[name] = tenant_planner.truth_cursor()
        return _PoolWorker(process, parent_conn, cursors)

    def _ensure_pool(self) -> bool:
        """Top the pool up to ``resolved_pool_size()`` live workers, dropping
        dead handles; ``True`` when it was forked from scratch (cold).  Each
        fork inherits the planner's current truth store, so replacements
        start exactly as synced as the survivors."""
        self._workers = self._alive_workers()
        cold = not self._workers
        # Spawn via append so each fork sees the siblings forked before it in
        # self._workers and closes its inherited copies of their pipe ends.
        for _ in range(self.resolved_pool_size() - len(self._workers)):
            self._workers.append(self._spawn_worker())
        return cold

    def _respawn(self, attempt: int) -> None:
        """Fork a replacement for a worker lost mid-window.

        Bounded exponential backoff plus jitter spaces consecutive respawns
        so a fast crash loop cannot hot-spin forks; the scheduler's
        ``max_respawns_per_batch`` budget is the circuit breaker.
        """
        delay = min(
            self.config.respawn_backoff_max_s,
            self.config.respawn_backoff_s * (2**attempt),
        )
        if delay > 0:
            time.sleep(delay * (1.0 + 0.25 * self._backoff_rng.random()))
        worker = self._spawn_worker()
        self._workers = self._alive_workers() + [worker]
        self.counters.record("respawns")

    def _stop_pool(self) -> None:
        """Stop every worker, escalating politely: ``stop`` message →
        ``join`` with a timeout → ``terminate()`` (SIGTERM) → ``kill()``
        (SIGKILL, which a SIGSTOP'd or wedged worker cannot ignore) — so a
        hung worker can never hang interpreter shutdown."""
        for worker in self._workers:
            if worker.alive:
                try:
                    worker.conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
            worker.process.join(timeout=1.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            if worker.process.is_alive():  # pragma: no cover - ignored SIGTERM
                worker.process.kill()
                worker.process.join(timeout=1.0)
            worker.mark_dead()
        self._workers = []
        self._lame.clear()

    def _kill_worker(self, worker: _PoolWorker) -> None:
        """Forcibly retire one worker (SIGKILL works even on a SIGSTOP'd
        process, which ``terminate``'s SIGTERM would leave pending)."""
        worker.mark_dead()
        try:
            worker.process.kill()
        except OSError:  # pragma: no cover - already reaped
            pass
        worker.process.join(timeout=1.0)

    def _alive_workers(self) -> List[_PoolWorker]:
        return [worker for worker in self._workers if worker.alive]

    def _send(self, worker: _PoolWorker, message) -> bool:
        if not worker.alive:
            return False
        try:
            worker.conn.send(message)
            return True
        except (BrokenPipeError, OSError):
            worker.mark_dead()
            return False

    def _wire_delta(self, tenant: str, cursor: int):
        """One tenant's truths recorded since ``cursor``, as a
        :class:`~repro.serving.protocol.TruthDeltaBlock` (the ``run``
        message names the tenant).

        Empty deltas (the steady-state case for workers dispatched every
        batch) skip encoding entirely.  Workers dispatched at the same merge
        point share one encoding: workers that last heard from the parent at
        the same merge sit at the same cursor, so the per-tenant one-entry
        memo (keyed by cursor + store length — truths are append-only) turns
        N per-worker encodings of the identical delta into one.
        """
        planner = self._planner_for(tenant)
        delta = planner.truth_delta(cursor)
        if not delta:
            return delta
        key = (cursor, planner.truth_cursor())
        cached = self._wire_cache.get(tenant)
        if cached is not None and cached[0] == key:
            return cached[1]
        block = encode_truth_delta(delta, planner.network)
        self._wire_cache[tenant] = (key, block)
        return block

    def _dispatch_spec(self, worker: _PoolWorker, tenant: str):
        """The planner spec to ship with a dispatch: the tenant's
        :class:`~repro.config.PlannerConfig` the first time this worker
        hears about the tenant, ``None`` once it holds the warm base."""
        if tenant == DEFAULT_TENANT or tenant in worker.cursors:
            return None
        return self._planner_for(tenant).config

    def _dispatch(self, worker: _PoolWorker, job: ShardJob) -> bool:
        """Send a run message: one job, with the worker's missing truth
        deltas.

        The tenant rides on the job itself; a worker that predates the
        tenant's registration gets the planner spec and, via cursor 0, the
        tenant's whole store as the delta — after which it is as warm as a
        fork-inherited sibling.
        """
        tenant = job.tenant
        spec = self._dispatch_spec(worker, tenant)
        cursor = worker.cursors.get(tenant, 0)
        if not self._send(worker, ("run", tenant, spec, self._wire_delta(tenant, cursor), job)):
            return False
        worker.cursors[tenant] = self._planner_for(tenant).truth_cursor()
        return True


# ---------------------------------------------------------------- the service
class RecommendationService:
    """Session-based serving façade over a prepared planner.

    Parameters
    ----------
    planner:
        A (typically prepared) :class:`CrowdPlanner`.  The service owns its
        batch-serving state while open: truths recorded by the service's
        batches land here, exactly as a sequential run would record them.
    config:
        A :class:`~repro.config.ServiceConfig`; ``None`` lifts the
        planner's own config with default serving knobs.
    backend:
        Explicit :class:`ServingBackend` instance; ``None`` builds one from
        ``config.backend``.

    The service is a context manager; :meth:`close` shuts the backend pool
    down and refuses further calls.  Uncollected pending batches are
    discarded at close (they were never executed).
    """

    def __init__(
        self,
        planner: CrowdPlanner,
        config: Optional[ServiceConfig] = None,
        backend: Optional[ServingBackend] = None,
    ):
        if config is None:
            config = ServiceConfig.from_planner_config(planner.config)
        self.planner = planner
        self.config = config
        if backend is None:
            if config.backend == "inline":
                backend = InlineBackend()
            else:
                backend = PooledBackend(config)
        backend.bind(planner)
        self.backend = backend
        self._closed = False
        self._resubmitted_results = 0
        # Resilience counters (see statistics()["resilience"]).
        self._sheds = 0
        self._deadline_breaches = 0
        self._journal_suspended = False
        # EWMA of whole-batch wall-clock (plan+execute+merge), the admission
        # controller's throughput estimate.  None until the first batch runs.
        self._batch_s_ewma: Optional[float] = None
        # The journal attaches (and replays) before the first batch, so a
        # lazily forked pool inherits the recovered truth state.
        self._journal: Optional[TruthJournal] = None
        if config.journal_path is not None:
            self._journal = TruthJournal(
                config.journal_path,
                fsync=config.journal_fsync,
                snapshot_every_truths=config.snapshot_every_truths,
            )
            self._attach_journal()
        self._next_request_id = 1
        self._next_ticket_id = 1
        # Journal records are one-per-executed-batch, so its durable record
        # count resumes batch numbering exactly where the crashed run stopped.
        self._next_batch_id = (
            self._journal.batch_count + 1 if self._journal is not None else 1
        )
        # Submitted-but-unexecuted batches, in submission order.  Each entry
        # is (requests, deadline_at) — deadline_at an absolute
        # time.monotonic() budget, or None when the caller named none.
        self._pending: "OrderedDict[int, Tuple[List[RecommendRequest], Optional[float]]]" = OrderedDict()
        # Executed-but-uncollected responses, keyed by ticket id.
        self._ready: Dict[int, List[RecommendResponse]] = {}
        self._collected: Set[int] = set()

    @classmethod
    def recover(
        cls,
        planner: CrowdPlanner,
        journal_path,
        config: Optional[ServiceConfig] = None,
        backend: Optional[ServingBackend] = None,
    ) -> "RecommendationService":
        """Rebuild a service from its truth journal after a crash.

        ``planner`` is a freshly prepared planner for the same scenario —
        the substrate (network, sources, crowd workers) is code plus
        scenario data, not journaled state.  Its truth store is brought to
        the exact pre-crash state by replaying the journal's snapshot and
        intact tail (a torn final record is truncated with a warning), and
        the journal stays attached so the recovered service keeps
        journaling.  Because batch answers depend on planner state only
        through the truth store (see the serving contract), batches redeemed
        after recovery are fingerprint-identical to an uninterrupted run.
        """
        if config is None:
            config = ServiceConfig.from_planner_config(planner.config)
        config = dataclasses.replace(config, journal_path=str(journal_path))
        return cls(planner, config=config, backend=backend)

    def _attach_journal(self) -> None:
        """Replay durable truths into the planner, then baseline the rest.

        Any planner truths the journal has never seen (a pre-seeded store,
        or journaling switched on mid-life) are captured by forcing a
        snapshot, so the journal alone rebuilds the full truth state —
        without consuming a journal record, keeping ``batch_count`` an exact
        executed-batch counter.
        """
        journal = self._journal
        truths = self.planner.truths
        durable = journal.replay(self.planner.network)
        durable_ids = {truth.truth_id for truth in durable}
        baseline = [truth for truth in truths.all() if truth.truth_id not in durable_ids]
        fresh = [truth for truth in durable if truth.truth_id not in truths]
        if fresh:
            truths.adopt_all(fresh)
        if baseline:
            journal.snapshot(truths)

    # ------------------------------------------------------------- lifecycle
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Shut the backend down; the service refuses further calls."""
        if self._closed:
            return
        self._closed = True
        try:
            self.backend.close()
        finally:
            if self._journal is not None:
                try:
                    self._journal.close()
                except OSError:
                    # A dying disk must not mask the pool shutdown (or an
                    # in-flight exception) at close time.
                    pass

    def __enter__(self) -> "RecommendationService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _ensure_open(self) -> None:
        if self._closed:
            raise ServingError("the service is closed")

    # ------------------------------------------------------------- interface
    def submit(
        self,
        queries: Union[QueryLike, Iterable[QueryLike]],
        deadline_s: Optional[float] = None,
    ) -> Ticket:
        """Enqueue one batch; returns the ticket that redeems its results.

        Accepts a single query or an iterable; raises
        :class:`~repro.exceptions.OverloadError` (a ``ServingError``) when
        ``config.max_pending_batches`` batches already await execution, or
        when ``deadline_s`` — a completion budget in seconds from now — is
        unmeetable at the service's observed throughput (queue depth times
        the batch-time EWMA).  Both sheds happen *before* any side effect,
        so the caller may retry, back off, or route elsewhere; admitted
        batches record their absolute deadline and count a deadline breach
        if they finalise late (the budget never aborts an admitted batch —
        shedding is an admission decision, not an execution one).
        Submission order is execution order, whatever order tickets are
        redeemed in.
        """
        self._ensure_open()
        if deadline_s is not None and not deadline_s > 0:
            raise ServingError("deadline_s must be positive (or None for no deadline)")
        # Reject before consuming anything: a caller whose submit is refused
        # must be able to retry with the same (possibly generator) queries.
        if len(self._pending) >= self.config.max_pending_batches:
            self._sheds += 1
            raise OverloadError(
                f"submission queue is full ({self.config.max_pending_batches} pending batches)"
            )
        if deadline_s is not None and self._batch_s_ewma is not None:
            estimate = (len(self._pending) + 1) * self._batch_s_ewma
            if estimate > deadline_s:
                self._sheds += 1
                raise OverloadError(
                    f"deadline {deadline_s:.3f}s unmeetable: {len(self._pending)} batches "
                    f"pending at ~{self._batch_s_ewma:.3f}s/batch (~{estimate:.3f}s to finish)"
                )
        if isinstance(queries, (RouteQuery, RecommendRequest)):
            queries = [queries]
        requests = wrap_requests(queries, self._next_request_id)
        self._next_request_id += len(requests)
        ticket = Ticket(ticket_id=self._next_ticket_id, size=len(requests))
        self._next_ticket_id += 1
        deadline_at = None if deadline_s is None else time.monotonic() + deadline_s
        self._pending[ticket.ticket_id] = (requests, deadline_at)
        return ticket

    def results(self, ticket: Union[Ticket, int]) -> List[RecommendResponse]:
        """Redeem a ticket (exactly once), in submission-order semantics.

        Executes every batch submitted before the ticket's first, so the
        global query sequence the planner observes is independent of
        collection order.
        """
        self._ensure_open()
        ticket_id = ticket.ticket_id if isinstance(ticket, Ticket) else int(ticket)
        if ticket_id in self._collected:
            raise ServingError(f"ticket {ticket_id} was already collected")
        if ticket_id not in self._ready and ticket_id not in self._pending:
            raise ServingError(f"unknown ticket {ticket_id}")
        while ticket_id not in self._ready:
            self._execute_next_pending()
        self._collected.add(ticket_id)
        return self._ready.pop(ticket_id)

    def drain(self) -> None:
        """Execute every pending batch (results stay redeemable by ticket)."""
        self._ensure_open()
        while self._pending:
            self._execute_next_pending()

    def pump(self) -> bool:
        """Execute the next window of pending batches, if any.

        ``True`` when something ran, ``False`` on an empty queue.  The
        fairness primitive: :class:`~repro.serving.tenancy.WorkspaceService`
        round-robins one ``pump`` per workspace so a single tenant's backlog
        cannot monopolise the shared pool between admissions.
        """
        self._ensure_open()
        if not self._pending:
            return False
        self._execute_next_pending()
        return True

    def recommend(self, query: QueryLike) -> RecommendResponse:
        """Answer a single query through the full batch pipeline."""
        return self.results(self.submit(query))[0]

    def recommend_batch(self, queries: Iterable[QueryLike]) -> List[RecommendResponse]:
        """Submit-and-collect one batch in a single call."""
        return self.results(self.submit(queries))

    def stream(self, queries: Iterable[QueryLike], batch_size: int = 32) -> Iterator[RecommendResponse]:
        """Pipeline a query iterable through the service in ``batch_size`` batches.

        Batches are submitted and redeemed lazily as the iterator is
        consumed, so an unbounded query source streams with bounded memory;
        responses arrive in submission order.

        With ``config.pipeline_window > 1`` the stream keeps up to a
        window's worth of submitted-but-unredeemed batches outstanding
        (bounded by ``max_pending_batches``), so redemptions hand the
        backend full windows to plan; at the default window of 1 each batch
        is redeemed as soon as it is submitted.
        """
        if not batch_size >= 1:
            raise ServingError("batch_size must be at least 1")
        window = self.config.pipeline_window
        max_outstanding = (
            max(0, min(window, self.config.max_pending_batches - 1)) if window > 1 else 0
        )
        tickets: "deque[Ticket]" = deque()
        chunk: List[QueryLike] = []
        for query in queries:
            chunk.append(query)
            if len(chunk) >= batch_size:
                tickets.append(self.submit(chunk))
                chunk = []
                while len(tickets) > max_outstanding:
                    for response in self.results(tickets.popleft()):
                        yield response
        if chunk:
            tickets.append(self.submit(chunk))
        while tickets:
            for response in self.results(tickets.popleft()):
                yield response

    # ------------------------------------------------------------ diagnostics
    def worker_pids(self) -> List[int]:
        """PIDs of the backend's live pool workers (empty when in-process)."""
        return self.backend.worker_pids()

    @property
    def journal(self) -> Optional[TruthJournal]:
        """The attached truth journal (``None`` when not journaling)."""
        return self._journal

    def statistics(self) -> Dict[str, Any]:
        """Serving-level counters, grouped by concern.

        ``planner`` holds the resolution counters, ``supervision`` the
        backend's fault-handling aggregates plus the number of responses
        whose shard was resubmitted after a worker loss, ``pipeline`` the
        window, dispatch and settle counters, ``sharding``
        the skew diagnostics (largest-shard fraction before/after hotspot
        splitting and the sub-shard chain depth), ``resilience`` the
        graceful-degradation counters (hedges issued/won/wasted, stragglers
        killed, admission sheds, deadline breaches, journal suspension),
        and ``journal`` (present only when journaling) the durability
        counters.  The four backend groups are views over the backend's
        counters, declared in :data:`repro.serving.metrics.SCHEMA`.
        """
        stats: Dict[str, Any] = {"planner": self.planner.statistics.as_dict()}
        for group in SCHEMA:
            stats[group] = self.backend.counters.group(group, self.backend.tenant)
        stats["supervision"]["resubmitted_results"] = self._resubmitted_results
        stats["resilience"]["sheds"] = self._sheds
        stats["resilience"]["deadline_breaches"] = self._deadline_breaches
        stats["resilience"]["journal_suspended"] = self._journal_suspended
        if self._journal is not None:
            stats["journal"] = self._journal.stats()
        return stats

    def plan(self, queries: Sequence[QueryLike]) -> ShardPlan:
        """The shard plan of a batch as given (diagnostics), settling none.

        Includes the backend's hotspot split: with ``max_shard_fraction``
        configured, oversized shards appear as their sub-shard chains.  A
        pooled window dispatches the component plan of its unsettled
        queries (:meth:`PooledBackend.execute_window`).
        """
        resolved = [
            query.query if isinstance(query, RecommendRequest) else query for query in queries
        ]
        return self.backend.plan(self.planner, resolved)

    # -------------------------------------------------------------- internal
    def _execute_next_pending(self) -> None:
        """Execute the first ``min(pipeline_window, len(pending))`` pending
        batches as one window.

        The backend returns the successfully merged *prefix* (the window
        contract): exactly those batches are finalised — journaled, popped
        from pending, marked ready — in submission order.  Batches leave
        pending only once executed, so a failing batch and everything after
        it stay pending and redeemable, and the failure surfaces
        deterministically when the failing batch heads a later window (a
        first-batch failure raises out of the backend directly).
        """
        entries = list(itertools.islice(self._pending.items(), self.config.pipeline_window))
        executions = self.backend.execute_window(
            [[request.query for request in requests] for _, (requests, _) in entries]
        )
        if not executions:  # pragma: no cover - window contract guard
            raise ServingError("backend returned no executions for a non-empty window")
        for position, ((ticket_id, (requests, deadline_at)), execution) in enumerate(
            zip(entries, executions)
        ):
            # Snapshots are deferred to the window's last journaled batch:
            # only then do the planner's truth store and the journal's batch
            # counter agree again (see TruthJournal.append).
            responses = self._finalize(
                requests, execution, allow_snapshot=(position == len(executions) - 1)
            )
            del self._pending[ticket_id]
            self._ready[ticket_id] = responses
            self._note_deadline(deadline_at)

    def _note_deadline(self, deadline_at: Optional[float]) -> None:
        """Count a breach when an admitted batch finalised past its budget."""
        if deadline_at is not None and time.monotonic() > deadline_at:
            self._deadline_breaches += 1

    def _finalize(
        self,
        requests: List[RecommendRequest],
        execution: BatchExecution,
        allow_snapshot: bool = True,
    ) -> List[RecommendResponse]:
        """Assign the batch id, journal the batch's truth span, build envelopes."""
        batch_id = self._next_batch_id
        self._next_batch_id += 1
        # Feed the admission controller: EWMA (alpha=0.5) of whole-batch
        # wall-clock, weighting recent throughput so the estimate tracks
        # load shifts within a few batches.
        batch_s = execution.plan_s + execution.execute_s + execution.merge_s
        self._batch_s_ewma = (
            batch_s
            if self._batch_s_ewma is None
            else 0.5 * batch_s + 0.5 * self._batch_s_ewma
        )
        if self._journal is not None and not self._journal_suspended:
            # One record per executed batch — even with an empty delta — so
            # the journal's record count is an exact durable progress marker
            # for crash recovery (which batches need re-executing).  Several
            # batches may merge inside one window call, so the delta is
            # bounded to this batch's own truth span.
            before, after = execution.truth_span
            try:
                self._journal.append(
                    self.planner.truth_delta(before, upto=after),
                    self.planner.truths,
                    meta={"batch_id": batch_id, "size": len(requests)},
                    allow_snapshot=allow_snapshot,
                )
            except OSError as exc:
                # Disk fault (ENOSPC, EIO, ...) on append or snapshot: the
                # degrade ladder.  The batch itself already merged — only
                # its durability record failed.
                if self.config.journal_on_error == "suspend":
                    # Stop journaling, keep serving.  recover() on this
                    # journal replays to the last *durable* batch; batches
                    # served after suspension are answered but not durable.
                    self._journal_suspended = True
                    try:
                        self._journal.close()
                    except OSError:  # pragma: no cover - double disk fault
                        pass
                    warnings.warn(
                        f"truth journal suspended after a disk fault: {exc} — "
                        "serving continues undurable (journal_on_error='suspend')",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                else:
                    raise JournalError(
                        f"truth journal append failed for batch {batch_id}: {exc}"
                    ) from exc
        timings = BatchTimings(
            plan_s=execution.plan_s, execute_s=execution.execute_s, merge_s=execution.merge_s
        )
        resubmitted = execution.resubmitted or [False] * len(requests)
        self._resubmitted_results += sum(resubmitted)
        responses = []
        for request, result, (shard_id, worker_pid), was_resubmitted in zip(
            requests, execution.results, execution.origins, resubmitted
        ):
            responses.append(
                RecommendResponse(
                    request=request,
                    result=result,
                    provenance=ResultProvenance(
                        backend=self.backend.name,
                        batch_id=batch_id,
                        batch_size=len(requests),
                        shard_id=shard_id,
                        worker_pid=worker_pid,
                        truth_reused=result.method == "truth_reuse",
                        warm_pool=execution.warm_pool,
                        timings=timings,
                        resubmitted=was_resubmitted,
                        respawn_count=execution.respawn_count,
                    ),
                )
            )
        return responses
