"""An in-process worker pool for the pooled backend's contract tests.

:class:`SimulatedPool` is the real :class:`~repro.serving.service.PooledBackend`
— window scheduler, ``_drive``, ``_poll``, lame draining, ``_push_sync``,
respawn and the degrade tail — with every forked worker replaced by a
:class:`SimWorker` living in the test process.  A ``SimWorker`` is both
handles ``_PoolWorker`` holds: the process (``pid``, ``is_alive``, ``kill``,
``join``) and the parent's pipe end (``send``, ``poll``, ``recv``).  Messages
and replies cross it pickled, as they cross a real pipe, and the worker side
is the real child loop's message handler,
:func:`~repro.serving.worker.serve_message`.

Workers serve their messages only when the parent waits for replies
(:meth:`SimulatedPool._wait`): each wait, one busy worker picked by a seeded
generator serves its next message, so replies arrive in a reproducible
shuffled order.
``kill_at`` names dispatch ordinals (0-based, counted across windows) whose
worker dies right after the send, taking the shard with it.  There is no
clock: hangs, heartbeats and hedging stay with the forked suites.  A window
that stops making progress fails an assertion instead of spinning forever.
"""

from __future__ import annotations

import itertools
import pickle
import random
from collections import deque

from repro.config import ServiceConfig
from repro.serving import RecommendationService
from repro.serving.metrics import DEFAULT_TENANT
from repro.serving.service import PooledBackend, _PoolWorker
from repro.serving.shards import build_tenant_planner
from repro.serving.worker import STOP, serve_message

#: Simulated pids start above any real pid (Linux caps pids at 2**22).
_PIDS = itertools.count(1 << 30)

#: Transport-loop turns one backend may take: far above what any test
#: workload needs, so only a stalled window reaches it.
MAX_TURNS = 20_000


class SimWorker:
    """One simulated pool worker: process handle, pipe end and child loop."""

    def __init__(self, bases):
        self.pid = next(_PIDS)
        self.bases = bases
        self.inbox: "deque[bytes]" = deque()  # sent, not yet served
        self.outbox: "deque[bytes]" = deque()  # replied, not yet read
        self.running = True
        self.closed = False

    # ---------------------------------------------------------------- process
    def is_alive(self) -> bool:
        return self.running

    def kill(self) -> None:
        """Die now; messages not yet served die with the worker."""
        self.running = False
        self.inbox.clear()

    terminate = kill

    def join(self, timeout=None) -> None:
        """Serve what was sent, up to a ``stop``."""
        while self.running and self.inbox:
            self.serve()

    # ------------------------------------------------------------------- pipe
    def send(self, message) -> None:
        if self.closed:
            raise OSError("handle is closed")
        if not self.running:
            raise BrokenPipeError("worker is gone")
        self.inbox.append(pickle.dumps(message))

    def poll(self, timeout=0) -> bool:
        """A reply is waiting, or EOF: the worker is gone."""
        if self.closed:
            raise OSError("handle is closed")
        return bool(self.outbox) or not self.running

    def recv(self):
        if self.closed:
            raise OSError("handle is closed")
        if not self.outbox:
            raise EOFError
        return pickle.loads(self.outbox.popleft())

    def close(self) -> None:
        self.closed = True

    # ------------------------------------------------------------------ child
    def serve(self) -> None:
        """Serve the next message the way the child loop does."""
        reply = serve_message(self.bases, pickle.loads(self.inbox.popleft()), self.pid)
        if reply is STOP:
            self.kill()
        elif reply is not None:
            self.outbox.append(pickle.dumps(reply))


class SimulatedPool(PooledBackend):
    """The pooled backend over :class:`SimWorker` s (see the module docstring)."""

    def __init__(self, config: ServiceConfig, seed: int = 0, kill_at=()):
        super().__init__(config)
        self._rng = random.Random(seed)
        self.kill_at = set(kill_at)
        self.dispatches = 0
        self.turns = 0

    def _can_fork(self) -> bool:
        return True

    def _spawn_worker(self) -> _PoolWorker:
        """A worker whose base is built the way a real worker builds a tenant
        it learns of lazily: a planner over the parent's substrate, brought
        current by the parent's whole store (cursor 0) on its first message.
        Registered tenants are left out of the cursors, so they take that
        same lazy path."""
        worker = SimWorker({DEFAULT_TENANT: build_tenant_planner(self.planner)})
        return _PoolWorker(worker, worker, {DEFAULT_TENANT: 0})

    def _poll_lame(self, sched) -> None:
        # Called once per turn of the transport loop.
        self.turns += 1
        assert self.turns < MAX_TURNS, "the window stopped making progress"
        super()._poll_lame(sched)

    def _wait(self, conns, timeout: float):
        """Pipes with a reply or EOF; when there are none, one busy worker,
        picked by the seeded generator, serves messages until it replies."""
        ready = [conn for conn in conns if conn.poll()]
        busy = [conn for conn in conns if conn.inbox]
        if ready or not busy:
            return ready
        conn = self._rng.choice(busy)
        while conn.inbox and not conn.outbox:
            conn.serve()
        return [conn]

    def _dispatch(self, worker: _PoolWorker, jobs) -> bool:
        ordinal = self.dispatches
        self.dispatches += 1
        sent = super()._dispatch(worker, jobs)
        if ordinal in self.kill_at:
            worker.process.kill()
        return sent


def simulated_service(planner, seed: int = 0, kill_at=(), **overrides) -> RecommendationService:
    """A pooled :class:`RecommendationService` over a :class:`SimulatedPool`
    built from the same config (``overrides`` on top of the planner's)."""
    config = ServiceConfig.from_planner_config(planner.config, backend="pooled", **overrides)
    return RecommendationService(planner, config, SimulatedPool(config, seed, kill_at))
