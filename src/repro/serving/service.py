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
* with ``config.pipeline_window > 1`` consecutive pending batches execute
  as one *window*: the pooled backend's DAG dispatcher
  (:meth:`PooledBackend.execute_window`, dependencies from
  :mod:`repro.serving.pipeline`) overlaps shards across batch boundaries
  wherever their interaction closures are disjoint, while merges — and so
  all observable state — stay strictly in submission order.

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
import multiprocessing
import os
import random
import time
import traceback
import warnings
from collections import OrderedDict, deque
from functools import partial
from multiprocessing.connection import wait as mp_wait
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

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
    WindowBatch,
    encode_truth_delta,
    wrap_requests,
)
from .scheduler import WindowScheduler
from .shards import ShardJob, execute_jobs_inline, merge_shard_outcomes, split_oversized
from .worker import pool_worker_main

QueryLike = Union[RouteQuery, RecommendRequest]

#: :meth:`_PoolWorker.read`'s "nothing but heartbeats waiting" marker.
_SILENT = object()


# ------------------------------------------------------------ inline backend
class InlineBackend(ServingBackend):
    """The sequential oracle as a backend: no shards, no processes.

    Every other backend is tested against this one — it *is*
    ``planner.recommend_batch`` with envelopes around it.
    """

    name = "inline"

    def execute_batch(
        self,
        queries: Sequence[RouteQuery],
        share_candidate_generation: bool = True,
        plan: Optional[ShardPlan] = None,
    ) -> BatchExecution:
        if self.planner is None:
            raise ServingError("backend is not bound to a planner")
        if plan is not None:
            raise ServingError("the inline backend does not accept shard plans")
        started = time.perf_counter()
        results = self.planner.recommend_batch(
            list(queries), share_candidate_generation=share_candidate_generation
        )
        elapsed = time.perf_counter() - started
        pid = os.getpid()
        return BatchExecution(
            results=results,
            origins=[(None, pid) for _ in results],
            execute_s=elapsed,
        )


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
    """Persistent forked worker pool with warm truth partitions.

    Workers are forked once (on the first batch) and inherit the full
    planner substrate — including state that cannot be pickled — through
    ``fork``.  Across batches each worker keeps its base truth store in
    sync with the parent via streamed deltas, so consecutive batches pay
    only shard-clone construction, never a fork or a whole-store clone.

    A lone batch is a one-batch window: :meth:`execute_batch` and
    :meth:`execute_window` share one execution path, :meth:`_serve_window`:
    a :class:`~repro.serving.scheduler.WindowScheduler` decides, and this
    backend's transport (:meth:`_drive`) forks, sends, kills and reads
    replies.  On a platform without ``fork`` no pool is started and every
    window runs through the in-process tail — the same clone-and-merge
    machinery — so results are identical everywhere.

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
    hotspot splitting) is read from the
    :class:`~repro.config.ServiceConfig` the pool is built from.
    """

    name = "pooled"

    def __init__(self, config: ServiceConfig):
        super().__init__()
        self.config = config
        self.batches_executed = 0
        # Workers overtaken by a hedge ("lame"): each still owes one stale
        # reply under the strict request/reply protocol, so it is excluded
        # from dispatch and sync until drained.  Value = the hard,
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

    # ------------------------------------------------------ hotspot splitting
    def _note_plan(self, before: ShardPlan, after: ShardPlan) -> None:
        """Record one batch's skew diagnostics (the ``sharding`` group)."""
        record, depth = self.counters.record, after.chain_depth()
        record("largest_shard_fraction_before", before.largest_shard_fraction())
        record("largest_shard_fraction_after", after.largest_shard_fraction())
        record("chain_depth", depth)
        record("max_chain_depth", depth)
        record("sub_shards_total", max(0, len(after.shards) - len(before.shards)))

    # ------------------------------------------------------------- execution
    def execute_batch(
        self,
        queries: Sequence[RouteQuery],
        share_candidate_generation: bool = True,
        plan: Optional[ShardPlan] = None,
        tenant: str = DEFAULT_TENANT,
    ) -> BatchExecution:
        """Serve one batch as a one-batch window (see :meth:`_serve_window`).

        An explicit ``plan`` overrides the planner's own shard plan (it may
        regroup shards only along whole interaction-closed components).
        Raises when the batch fails.
        """
        if self.planner is None:
            raise ServingError("backend is not bound to a planner")
        self._planner_for(tenant)  # an unknown tenant fails even when empty
        queries = list(queries)
        if not queries:
            return BatchExecution(results=[], origins=[])
        window = [WindowBatch(queries, share_candidate_generation)]
        return self._serve_window(window, tenant, plans=[plan])[0]

    def execute_window(
        self, batches: Sequence[WindowBatch], tenant: str = DEFAULT_TENANT
    ) -> List[BatchExecution]:
        """Overlap a window of consecutive batches on the pool (DAG dispatch).

        Each batch is shard-planned as usual, then
        :func:`~repro.serving.pipeline.batch_dependencies` reduces the
        cross-batch interaction-closure tests to one dependency per shard: a
        shard may dispatch as soon as every batch up to and including its
        dependency has merged — it need not wait for the whole previous
        batch.  Merges still happen strictly in submission order (the window
        contract), so parent truth-id issuance — and with it every
        fingerprint — is identical to the sequential oracle.

        A barrier is a one-batch window: :meth:`execute_batch` runs the same
        dispatcher.

        Supervision is per window: ``max_respawns_per_batch`` acts as a
        per-*window* respawn budget, and ``warm_pool``/``respawn_count``
        provenance fields are window-level (all batches of a window report
        the same warm flag and the respawns seen up to their own merge).
        """
        if self.planner is None:
            raise ServingError("backend is not bound to a planner")
        window = [
            WindowBatch(list(batch.queries), batch.share_candidate_generation)
            for batch in batches
        ]
        return self._serve_window(window, tenant)

    def _serve_window(
        self,
        window: List[WindowBatch],
        tenant: str,
        plans: Optional[List[Optional[ShardPlan]]] = None,
    ) -> List[BatchExecution]:
        """The one execution path: plan, dispatch and merge a window.

        Plans each batch (or takes its explicit entry in ``plans``) and
        applies the ``max_shard_fraction`` split, builds the jobs and the
        window's :class:`WindowScheduler`, ensures the pool where ``fork``
        exists (polling lame workers and replacing dead ones on a warm
        pool), runs :meth:`_drive` and applies the sync cadence.  Everything recorded meanwhile — the
        cadence sync included — is charged to ``tenant``.  Window-structure
        counters (the ``pipeline`` group) count only windows of two or more
        batches.
        """
        planner = self._planner_for(tenant)
        with self.counters.charging(tenant):
            split_plans: List[ShardPlan] = []
            plan_times: List[float] = []
            for batch, plan in zip(window, plans or [None] * len(window)):
                started = time.perf_counter()
                if plan is None:
                    plan = planner.shard_plan(batch.queries, self.resolved_pool_size())
                split_plan = plan
                if self.config.max_shard_fraction is not None:
                    fraction = self.config.max_shard_fraction
                    split_plan = split_oversized(planner, plan, batch.queries, fraction)
                self._note_plan(plan, split_plan)
                split_plans.append(split_plan)
                plan_times.append(time.perf_counter() - started)
            deps = batch_dependencies(split_plans)
            if len(window) > 1:
                for key, value in window_parallelism(deps).items():
                    self.counters.record(key, value)
            # Warm shared read-only state before any fork so first-batch workers
            # inherit the compiled graph and source caches instead of rebuilding
            # them per process.
            planner.warm_batch([query for batch in window for query in batch.queries])
            jobs_per_batch: List[List[ShardJob]] = [
                [
                    ShardJob(
                        shard_id=shard.shard_id,
                        indices=shard.indices,
                        destination_cells=shard.destination_cells,
                        queries=[batch.queries[index] for index in shard.indices],
                        share_candidate_generation=batch.share_candidate_generation,
                        predecessors=shard.predecessors,
                        handoff_from=shard.handoff_from,
                        tenant=tenant,
                    )
                    for shard in plan.shards
                ]
                for batch, plan in zip(window, split_plans)
            ]
            can_fork = self._can_fork()
            sched = WindowScheduler(
                jobs_per_batch,
                deps,
                self._lame,
                self.counters.record,
                encoder=partial(encode_truth_delta, network=self.planner.network),
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
            batches_before = self.batches_executed
            executions = self._drive(sched, planner, window, plan_times, warm)
            if len(window) > 1:
                self.counters.record("windows")
            self.counters.record(BATCHES, len(executions))
            # Sync cadence at the window edge (never mid-window: a blocking
            # "synced" round-trip while shards are in flight would swallow their
            # "done" replies).  Crossing any multiple of the cadence inside the
            # window triggers one sync here.
            if self._workers and (
                self.batches_executed // self.config.merge_every_batches
                > batches_before // self.config.merge_every_batches
            ):
                self._push_sync(tenant)
        return executions

    def _drive(
        self,
        sched: WindowScheduler,
        planner: CrowdPlanner,
        window: List[WindowBatch],
        plan_times: List[float],
        warm: bool,
    ) -> List[BatchExecution]:
        """The transport loop of one window: carry out ``sched``'s decisions
        on the pool, feed it every reply, and merge each batch it completes
        into the parent, strictly in submission order.  A shard execution
        error (a worker's ``"error"`` reply or the in-process tail raising)
        returns the merged prefix — the window contract — and raises when
        there is none."""
        executions: List[BatchExecution] = []

        def merge(batches: List[int]) -> None:
            for index in batches:
                size, outcomes = len(window[index].queries), sched.done[index]
                before = planner.truth_cursor()
                started = time.perf_counter()
                results = merge_shard_outcomes(planner, size, outcomes)
                merge_s = time.perf_counter() - started
                self.batches_executed += 1
                origins: List[Tuple[Optional[int], Optional[int]]] = [(None, None)] * size
                for outcome in outcomes:
                    for query_index in outcome.indices:
                        origins[query_index] = (outcome.shard_id, outcome.worker_pid)
                resubmitted = sched.resubmitted[index]
                executions.append(
                    BatchExecution(
                        results=results,
                        origins=origins,
                        plan_s=plan_times[index],
                        execute_s=sched.execute_s(index),
                        merge_s=merge_s,
                        warm_pool=warm,
                        resubmitted=(
                            [origin[0] in resubmitted for origin in origins] if resubmitted else None
                        ),
                        respawn_count=sched.respawns,
                        truth_span=(before, planner.truth_cursor()),
                    )
                )

        def apply(decisions) -> None:
            for kind, *args in decisions:
                if kind in ("dispatch", "hedge"):
                    worker, job = args
                    if self._dispatch(worker, [job]):
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
        if sched.failure is not None and not executions:
            raise ServingError(f"shard execution failed:\n{sched.failure}")
        return executions

    def _run_tail(self, sched: WindowScheduler, remaining, planner: CrowdPlanner, merge) -> None:
        """Run the window's remaining shards in-process — all of them without
        ``fork``, the rest of the window after a lost pool — batch by batch
        with frontier merges between batches, so each shard executes against
        exactly the sequential prefix and results are unchanged.  An
        execution error takes the same path as a worker's ``"error"``
        reply."""
        if self._can_fork():
            # A lost pool: every batch with shards run in-process is degraded.
            self.counters.record("degraded_batches", len(remaining))
        for index in sorted(remaining):
            started = time.monotonic()
            try:
                outcomes = execute_jobs_inline(planner, remaining[index], sched.chains[index])
            except Exception:
                sched.error(None, traceback.format_exc())
                return
            merge(sched.inline(index, outcomes, started, time.monotonic()))

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
        :class:`~repro.serving.protocol.TruthDeltaBlock` tagged with the
        tenant.

        Empty deltas (the steady-state case for workers dispatched every
        batch) skip encoding entirely.  Workers synced to the same point
        share one encoding: after any batch every participant sits at the
        same cursor, so the per-tenant one-entry memo (keyed by cursor +
        store length — truths are append-only) turns N per-worker encodings
        of the identical delta into one.
        """
        planner = self._planner_for(tenant)
        delta = planner.truth_delta(cursor)
        if not delta:
            return delta
        key = (cursor, planner.truth_cursor())
        cached = self._wire_cache.get(tenant)
        if cached is not None and cached[0] == key:
            return cached[1]
        block = encode_truth_delta(delta, planner.network, tenant=tenant)
        self._wire_cache[tenant] = (key, block)
        return block

    def _dispatch_spec(self, worker: _PoolWorker, tenant: str):
        """The planner spec to ship with a dispatch: the tenant's
        :class:`~repro.config.PlannerConfig` the first time this worker
        hears about the tenant, ``None`` once it holds the warm base."""
        if tenant == DEFAULT_TENANT or tenant in worker.cursors:
            return None
        return self._planner_for(tenant).config

    def _dispatch(self, worker: _PoolWorker, jobs: List[ShardJob]) -> bool:
        """Send a run message (with the worker's missing truth deltas).

        The tenant rides on the jobs themselves (a dispatch never mixes
        tenants); a worker that predates the tenant's registration gets the
        planner spec and, via cursor 0, the tenant's whole store as the
        delta — after which it is as warm as a fork-inherited sibling.
        """
        tenant = jobs[0].tenant if jobs else DEFAULT_TENANT
        spec = self._dispatch_spec(worker, tenant)
        cursor = worker.cursors.get(tenant, 0)
        if not self._send(worker, ("run", tenant, spec, self._wire_delta(tenant, cursor), jobs)):
            return False
        worker.cursors[tenant] = self._planner_for(tenant).truth_cursor()
        return True

    def _push_sync(self, tenant: str = DEFAULT_TENANT) -> None:
        """Stream one tenant's merged truth deltas to workers that are
        behind (cadence).  Workers that have never served the tenant are
        skipped — they warm up lazily at their first dispatch for it."""
        total = self._planner_for(tenant).truth_cursor()
        synced: List[_PoolWorker] = []
        for worker in self._alive_workers():
            if worker in self._lame:
                # An outstanding (stale) reply is still owed: interleaving a
                # sync round-trip would break the request/reply protocol.
                # The worker re-syncs lazily at its next dispatch instead.
                continue
            cursor = worker.cursors.get(tenant)
            if cursor is None or cursor >= total:
                continue
            message = ("sync", tenant, None, self._wire_delta(tenant, cursor))
            if self._send(worker, message):
                worker.cursors[tenant] = total
                worker.touch()
                synced.append(worker)
        while synced:
            for worker, reply in self._poll(synced, 0.02, self.config.rpc_deadline_s):
                synced.remove(worker)
                if reply is None or reply[0] != "synced":
                    # Death, hang, or a partial adopt ("desync"): either way
                    # this worker's warm base can no longer be trusted —
                    # retire it rather than serve stale lookups from it later.
                    worker.mark_dead()


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
        # is (requests, share, deadline_at) — deadline_at an absolute
        # time.monotonic() budget, or None when the caller named none.
        self._pending: (
            "OrderedDict[int, Tuple[List[RecommendRequest], bool, Optional[float]]]"
        ) = OrderedDict()
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
        share_candidate_generation: Optional[bool] = None,
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
        requests, share = self._wrap(queries, share_candidate_generation)
        ticket = Ticket(ticket_id=self._next_ticket_id, size=len(requests))
        self._next_ticket_id += 1
        deadline_at = None if deadline_s is None else time.monotonic() + deadline_s
        self._pending[ticket.ticket_id] = (requests, share, deadline_at)
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
        """Execute at most one pending batch (a window when pipelining).

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

    def recommend_batch(
        self,
        queries: Iterable[QueryLike],
        share_candidate_generation: Optional[bool] = None,
        plan: Optional[ShardPlan] = None,
    ) -> List[RecommendResponse]:
        """Submit-and-collect one batch in a single call.

        An explicit ``plan`` (e.g. a hand-built regrouping of whole
        interaction-closed components) bypasses the ticket queue: pending
        batches are drained first so submission order is preserved, then
        the batch executes under the given plan.
        """
        if plan is None:
            return self.results(self.submit(queries, share_candidate_generation))
        self._ensure_open()
        self.drain()
        requests, share = self._wrap(queries, share_candidate_generation)
        return self._execute(requests, share, plan)

    def stream(
        self,
        queries: Iterable[QueryLike],
        batch_size: Optional[int] = None,
    ) -> Iterator[RecommendResponse]:
        """Pipeline a query iterable through the service in batches.

        Batches are submitted and redeemed lazily as the iterator is
        consumed, so an unbounded query source streams with bounded memory;
        responses arrive in submission order.

        With ``config.pipeline_window > 1`` the stream keeps up to a
        window's worth of submitted-but-unredeemed batches outstanding
        (bounded by ``max_pending_batches``), so redemptions hand the
        backend full windows to overlap; at the default window of 1 each
        batch is redeemed as soon as it is submitted, exactly as before.
        """
        size = batch_size if batch_size is not None else self.config.stream_batch_size
        if not size >= 1:
            raise ServingError("batch_size must be at least 1")
        window = self.config.pipeline_window
        max_outstanding = (
            max(0, min(window, self.config.max_pending_batches - 1)) if window > 1 else 0
        )
        tickets: "deque[Ticket]" = deque()
        chunk: List[QueryLike] = []
        for query in queries:
            chunk.append(query)
            if len(chunk) >= size:
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
        cross-batch overlap and window-parallelism counters, ``sharding``
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
        """The shard plan a batch would execute under (diagnostics).

        Includes the backend's hotspot splitting: with ``max_shard_fraction``
        configured, oversized shards appear as their sub-shard chains.
        """
        resolved = [
            query.query if isinstance(query, RecommendRequest) else query for query in queries
        ]
        # Duck-typed so the tenancy facade (which wraps the shared pool
        # without subclassing it) plans against the real pool too.
        resolver = getattr(self.backend, "resolved_pool_size", None)
        shards = resolver() if resolver is not None else 1
        plan = self.planner.shard_plan(resolved, shards)
        pool_config = getattr(self.backend, "config", None)
        if pool_config is not None and pool_config.max_shard_fraction is not None:
            plan = split_oversized(self.planner, plan, resolved, pool_config.max_shard_fraction)
        return plan

    # -------------------------------------------------------------- internal
    def _wrap(
        self,
        queries: Union[QueryLike, Iterable[QueryLike]],
        share_candidate_generation: Optional[bool],
    ) -> Tuple[List[RecommendRequest], bool]:
        """Envelope queries under fresh request ids + resolve the share flag."""
        if isinstance(queries, (RouteQuery, RecommendRequest)):
            queries = [queries]
        requests = wrap_requests(queries, self._next_request_id)
        self._next_request_id += len(requests)
        share = (
            self.config.share_candidate_generation
            if share_candidate_generation is None
            else share_candidate_generation
        )
        return requests, share

    def _execute_next_pending(self) -> None:
        # Pop only after a successful execution: a backend failure leaves the
        # batch pending, so the ticket stays redeemable (retryable) instead
        # of silently becoming "unknown".
        if self.config.pipeline_window > 1 and len(self._pending) > 1:
            self._execute_pending_window()
            return
        ticket_id, (requests, share, deadline_at) = next(iter(self._pending.items()))
        responses = self._execute(requests, share)
        del self._pending[ticket_id]
        self._ready[ticket_id] = responses
        self._note_deadline(deadline_at)

    def _execute_pending_window(self) -> None:
        """Execute up to ``pipeline_window`` pending batches as one window.

        The backend returns the successfully merged *prefix* (the window
        contract): exactly those batches are finalised — journaled, popped
        from pending, marked ready — in submission order; a failing batch
        and everything after it stay pending and redeemable, and the failure
        surfaces deterministically when the failing batch heads a later
        window (a first-batch failure raises out of the backend directly).
        """
        entries = []
        for item in self._pending.items():
            entries.append(item)
            if len(entries) >= self.config.pipeline_window:
                break
        window = [
            WindowBatch(
                queries=[request.query for request in requests],
                share_candidate_generation=share,
            )
            for _, (requests, share, _deadline) in entries
        ]
        executions = self.backend.execute_window(window)
        if not executions:  # pragma: no cover - window contract guard
            raise ServingError("backend returned no executions for a non-empty window")
        for position, ((ticket_id, (requests, _share, deadline_at)), execution) in enumerate(
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

    def _execute(
        self,
        requests: List[RecommendRequest],
        share_candidate_generation: bool,
        plan: Optional[ShardPlan] = None,
    ) -> List[RecommendResponse]:
        queries = [request.query for request in requests]
        truth_cursor = self.planner.truth_cursor()
        execution = self.backend.execute_batch(
            queries, share_candidate_generation=share_candidate_generation, plan=plan
        )
        if execution.truth_span is None:
            execution.truth_span = (truth_cursor, self.planner.truth_cursor())
        return self._finalize(requests, execution)

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
            # for crash recovery (which batches need re-executing).  Under
            # pipelining several batches merge inside one window call, so the
            # delta is bounded to this batch's own truth span.
            before, after = execution.truth_span or (0, self.planner.truth_cursor())
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
