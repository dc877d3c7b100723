"""The pool worker process: the child side of the pooled backend's protocol.

:class:`~repro.serving.service.PooledBackend` forks one process per pool
worker straight into :func:`pool_worker_main`, which feeds every parent
message to :func:`serve_message` until its pipe closes.  A ``run`` message
is one shard, answered by one :func:`~repro.serving.shards.execute_shard`
on the worker's warm base.
"""

from __future__ import annotations

import os
import threading
import traceback
from typing import Dict

from ..core.planner import CrowdPlanner
from ..exceptions import ServingError
from .metrics import DEFAULT_TENANT
from .shards import build_tenant_planner, execute_shard

#: :func:`serve_message`'s answer to ``stop``: leave the loop.
STOP = object()


def serve_message(bases: Dict[str, CrowdPlanner], message, pid: int):
    """Serve one ``run`` / ``drop`` / ``stop`` message.

    ``bases`` maps tenant names to the worker's warm planners (the default
    tenant ``""`` is the fork-inherited root).  Returns the reply to send,
    ``None`` for a message that takes none (``drop``), or :data:`STOP`.
    Exceptions cross the pipe as rendered text: exception objects with
    custom constructors do not round-trip through pickle.  A failure while
    resolving the tenant base or adopting its delta is a ``desync`` — the
    warm base may be partially updated, so the parent must retire this
    worker — while a failure during shard execution leaves every base
    intact (``error``).  A ``run`` message carries one shard job, and its
    ``done`` reply one outcome.
    """
    kind = message[0]
    if kind == "stop":
        return STOP
    if kind == "drop":
        # Forget a closed workspace's warm base.  The name may be reused by
        # a future workspace whose state is rebuilt from its spec + full
        # delta.
        bases.pop(message[1], None)
        return None
    if kind != "run":  # pragma: no cover - protocol guard
        return ("error", pid, f"unknown message kind {kind!r}")
    # ("run", tenant, spec, delta, job)
    tenant, spec, delta, job = message[1:]
    try:
        base = bases.get(tenant)
        if base is None:
            if spec is None:
                raise ServingError(
                    f"worker {pid} received work for unknown tenant {tenant!r} "
                    "without a planner spec"
                )
            base = bases[tenant] = build_tenant_planner(bases[DEFAULT_TENANT], spec)
        base.truths.adopt_all(delta)
    except Exception:
        return ("desync", pid, traceback.format_exc())
    try:
        # ``execute_shard`` is looked up here, per message, so a substitute
        # bound on this module takes effect.
        outcome = execute_shard(base, job)
    except Exception:
        return ("error", pid, traceback.format_exc())
    return ("done", pid, outcome)


def pool_worker_main(
    conn,
    planner: CrowdPlanner,
    tenants=None,
    heartbeat_interval_s: float = 0.5,
    stale_conns=(),
) -> None:
    """Long-lived pool worker loop (child process, entered right after fork).

    The worker's ``planner`` is its fork-inherited copy of the parent's —
    the *base* whose truth store is kept warm across batches: each ``run``
    message carries the truths the parent merged since this worker last
    heard from it — however many windows it sat idle — as a columnar
    :class:`~repro.serving.protocol.TruthDeltaBlock` that
    :meth:`TruthDatabase.adopt_all` decodes against the fork-inherited
    network, preserving parent ids and so lookup tie-breaks — and each
    shard then executes on a fresh clone over a copy-on-write slice
    of the warm base.  Each message is served by :func:`serve_message`.  Strict
    request/reply: every *substantive* message gets exactly one response.

    Tenancy: the worker keeps one warm truth base *per workspace* —
    ``tenants`` maps workspace names to their fork-inherited planners, and
    the default tenant ``""`` is ``planner`` itself.  Every ``run`` message
    names its tenant and may carry a :class:`~repro.config.
    PlannerConfig` spec; a tenant registered after this worker forked is
    built lazily from that spec via :func:`build_tenant_planner` (sharing
    the fork-inherited substrate and *frozen* familiarity, so the lazy copy
    is behaviourally identical to a fork-inherited one) and then brought
    current by the message's own delta, which spans that tenant's whole
    store.  Deltas adopt into the named tenant's base only — one tenant's
    traffic can never touch another tenant's warm truths.

    While a message is being served, a daemon thread additionally emits a
    ``("beat", pid)`` heartbeat every ``heartbeat_interval_s`` so the
    parent's supervisor can tell *slow but alive* from *hung*: a worker that
    neither replies nor beats past the RPC deadline is declared dead
    mid-batch.  Beats are only sent while busy — an idle worker stays silent,
    so heartbeats can never fill the pipe buffer of a parent that is not
    currently draining it (which would deadlock both sides).
    """
    # Close fork-inherited copies of parent-side pipe ends — this worker's
    # own ``parent_conn`` and those of every sibling forked before it.
    # Holding them would keep each pipe's write end open inside the pool
    # itself, so ``conn.recv()`` could never see EOF after the pool owner is
    # SIGKILLed and the whole pool would leak as orphans re-parented to init.
    for stale in stale_conns:
        try:
            stale.close()
        except OSError:  # pragma: no cover - already closed pre-fork
            pass
    pid = os.getpid()
    bases: Dict[str, CrowdPlanner] = {DEFAULT_TENANT: planner}
    if tenants:
        bases.update(tenants)

    send_lock = threading.Lock()
    busy = threading.Event()
    stopping = threading.Event()

    def send(message) -> None:
        with send_lock:
            conn.send(message)

    def beat_loop() -> None:
        while not stopping.wait(heartbeat_interval_s):
            if not busy.is_set():
                continue
            try:
                send(("beat", pid))
            except (BrokenPipeError, OSError):  # pragma: no cover - parent gone
                return

    threading.Thread(target=beat_loop, daemon=True).start()

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        busy.set()
        try:
            reply = serve_message(bases, message, pid)
            if reply is STOP:
                break
            if reply is not None:
                send(reply)
        except (BrokenPipeError, OSError):  # pragma: no cover - parent gone
            break
        finally:
            busy.clear()
    stopping.set()
    conn.close()
