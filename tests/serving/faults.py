"""Deterministic fault injection for the serving layer (the chaos harness).

:class:`FaultInjectingBackend` subclasses the real :class:`PooledBackend`
and injects faults at its single dispatch choke point, keyed by the global
*dispatch ordinal* (0-based, counted across batches) so a fault schedule is
a plain ``{ordinal: kind}`` dict and a given schedule replays identically.

Fault kinds:

``kill_before``
    SIGKILL the chosen worker, then dispatch to it anyway — models a worker
    that died between scheduling decisions (detected via EOF/liveness).
``kill_after``
    Dispatch normally, then SIGKILL — models a crash mid-execution.
``hang``
    Dispatch normally, then SIGSTOP — the worker is alive but silent (no
    reply, no heartbeat), the case only the deadline supervisor can catch.
``drop``
    Pretend the dispatch succeeded without sending it — models a lost
    protocol message; the idle worker never beats, so the supervisor must
    declare it hung.
``delay``
    Sleep briefly before a normal dispatch — models scheduling jitter; must
    be absorbed without any supervision action.
``desync``
    Replace the truth delta with one that fails adoption, forcing the
    worker's "desync" reply (untrustworthy warm base → retire + re-fork).
``slow``
    Dispatch normally, then run the worker on a SIGSTOP/SIGCONT duty cycle:
    mostly stopped, briefly running, ending in a permanent SIGCONT.  Unlike
    ``hang`` the worker keeps heartbeating during its run slices, so the
    silence supervisor never fires — this is the straggler only hedged
    execution (``hedge_after_s``) can absorb, and without hedging it is a
    pure stall the batch must ride out.

The journal helpers at the bottom tear files the way a crash would
(truncating mid-record, corrupting payload bytes in place),
:func:`append_legacy_record` writes a record the way journals did before
their payloads were always columnar, and
:func:`break_journal_disk` models a *dying disk*: the journal's open segment
handle starts raising ``ENOSPC``/``EIO`` at a chosen append ordinal.
"""

from __future__ import annotations

import errno
import os
import pickle
import signal
import struct
import threading
import time
import zlib
from pathlib import Path
from typing import Dict, List, Optional

from repro.config import ServiceConfig
from repro.serving.service import DEFAULT_TENANT, PooledBackend, _PoolWorker

#: Supervision knobs tight enough for fast tests: a hung worker is declared
#: dead within ~0.6 s and respawn backoff adds at most ~0.1 s per fork.
FAST_SUPERVISION = dict(
    heartbeat_interval_s=0.05,
    rpc_deadline_s=0.6,
    respawn_backoff_s=0.01,
    respawn_backoff_max_s=0.05,
)

FAULT_KINDS = ("kill_before", "kill_after", "hang", "drop", "delay", "desync", "slow")


class _PoisonDelta:
    """A truth delta whose adoption always fails (crosses the pipe fine)."""

    def decode_truths(self, network):
        raise RuntimeError("injected fault: poisoned truth delta")


class FaultInjectingBackend(PooledBackend):
    """A :class:`PooledBackend` that injects faults per dispatch ordinal."""

    name = "pooled"  # provenance stays comparable with the real backend

    def __init__(
        self,
        schedule: Optional[Dict[int, str]] = None,
        delay_s: float = 0.05,
        slow_stop_s: float = 0.18,
        slow_run_s: float = 0.04,
        slow_total_s: float = 1.2,
        **kwargs,
    ):
        super().__init__(ServiceConfig(**{**FAST_SUPERVISION, **kwargs}))
        self.schedule = dict(schedule or {})
        self.delay_s = delay_s
        # ``slow`` duty cycle: stopped slices must stay well under
        # rpc_deadline_s so each run slice's heartbeat renews the silence
        # deadline — the worker crawls, it never looks hung.
        self.slow_stop_s = slow_stop_s
        self.slow_run_s = slow_run_s
        self.slow_total_s = slow_total_s
        self.dispatch_ordinal = 0
        self.injected: List[str] = []
        self._slow_threads: List[threading.Thread] = []

    def _dispatch(self, worker: _PoolWorker, jobs) -> bool:
        fault = self.schedule.get(self.dispatch_ordinal)
        self.dispatch_ordinal += 1
        if fault is None:
            return super()._dispatch(worker, jobs)
        self.injected.append(fault)
        if fault == "kill_before":
            os.kill(worker.pid, signal.SIGKILL)
            worker.process.join(timeout=2.0)
            return super()._dispatch(worker, jobs)
        if fault == "kill_after":
            sent = super()._dispatch(worker, jobs)
            if sent:
                os.kill(worker.pid, signal.SIGKILL)
                worker.process.join(timeout=2.0)
            return sent
        if fault == "hang":
            sent = super()._dispatch(worker, jobs)
            if sent:
                os.kill(worker.pid, signal.SIGSTOP)
            return sent
        if fault == "drop":
            # The parent believes the worker is busy; the worker never hears
            # a thing (and, being idle, never heartbeats).
            return True
        if fault == "delay":
            time.sleep(self.delay_s)
            return super()._dispatch(worker, jobs)
        if fault == "desync":
            # Mirror the real dispatch's tenant threading so the fault lands
            # in the right workspace's stream (and only there).
            tenant = jobs[0].tenant if jobs else DEFAULT_TENANT
            spec = self._dispatch_spec(worker, tenant)
            if not self._send(worker, ("run", tenant, spec, _PoisonDelta(), jobs)):
                return False
            worker.cursors[tenant] = self._planner_for(tenant).truth_cursor()
            return True
        if fault == "slow":
            sent = super()._dispatch(worker, jobs)
            if sent:
                self._start_duty_cycle(worker.pid)
            return sent
        raise AssertionError(f"unknown fault kind {fault!r}")

    def _start_duty_cycle(self, pid: int) -> None:
        """SIGSTOP now, then CONT/STOP slices until ``slow_total_s`` elapses.

        Ends in a permanent SIGCONT so the worker always finishes its shard
        eventually — the fault models *slowness*, never a permanent wedge.
        Every signal guards ``ProcessLookupError``: supervision (or a lost
        hedge race past its lame deadline) may legitimately SIGKILL the
        crawler mid-cycle.
        """
        try:
            os.kill(pid, signal.SIGSTOP)
        except ProcessLookupError:
            return

        def duty_cycle() -> None:
            deadline = time.monotonic() + self.slow_total_s
            try:
                while time.monotonic() < deadline:
                    time.sleep(self.slow_stop_s)
                    os.kill(pid, signal.SIGCONT)
                    time.sleep(self.slow_run_s)
                    if time.monotonic() >= deadline:
                        return
                    os.kill(pid, signal.SIGSTOP)
            except ProcessLookupError:
                return
            finally:
                try:
                    os.kill(pid, signal.SIGCONT)
                except ProcessLookupError:
                    pass

        thread = threading.Thread(target=duty_cycle, daemon=True)
        thread.start()
        self._slow_threads.append(thread)

    def close(self) -> None:
        super().close()
        for thread in self._slow_threads:
            thread.join(timeout=self.slow_total_s + 1.0)
        self._slow_threads.clear()


# --------------------------------------------------------- journal file chaos
_FRAME = struct.Struct("<III")
_JOURNAL_MAGIC_LEN = 6  # b"RPTJ1\n"


def journal_segment(journal_dir) -> Path:
    """The newest delta segment file in a journal directory."""
    segments = sorted(Path(journal_dir).glob("journal-*.log"))
    assert segments, f"no journal segment in {journal_dir}"
    return segments[-1]


def tear_tail(journal_dir, keep_bytes_of_last_record: int = 3) -> None:
    """Truncate the last record mid-payload, as a crash during append would."""
    segment = journal_segment(journal_dir)
    data = segment.read_bytes()
    offset = _JOURNAL_MAGIC_LEN
    last_start = None
    while offset + _FRAME.size <= len(data):
        length = _FRAME.unpack_from(data, offset)[0]
        last_start = offset
        offset += _FRAME.size + length
    assert last_start is not None, "journal has no records to tear"
    segment.write_bytes(data[: last_start + _FRAME.size + keep_bytes_of_last_record])


def corrupt_tail(journal_dir) -> None:
    """Flip a byte inside the last record's payload (CRC must catch it)."""
    segment = journal_segment(journal_dir)
    data = bytearray(segment.read_bytes())
    offset = _JOURNAL_MAGIC_LEN
    last_payload_at = None
    while offset + _FRAME.size <= len(data):
        length = _FRAME.unpack_from(data, offset)[0]
        last_payload_at = offset + _FRAME.size
        offset += _FRAME.size + length
    assert last_payload_at is not None and last_payload_at < len(data)
    data[last_payload_at] ^= 0xFF
    segment.write_bytes(bytes(data))


def append_legacy_record(journal_dir, truths, meta=None) -> None:
    """Append a record as older journals wrote it: the same frame, with a
    pickled ``(meta, list_of_truths)`` payload instead of a columnar block.
    Reopen the journal afterwards to see it."""
    payload = pickle.dumps((dict(meta or {}), list(truths)), protocol=pickle.HIGHEST_PROTOCOL)
    with open(journal_segment(journal_dir), "ab") as handle:
        handle.write(_FRAME.pack(len(payload), zlib.crc32(payload), len(truths)))
        handle.write(payload)


def append_garbage(journal_dir, blob: bytes = b"\x07garbage\x07" * 3) -> None:
    """Append trailing junk (a torn frame header) to the segment."""
    with open(journal_segment(journal_dir), "ab") as handle:
        handle.write(blob)


# ------------------------------------------------------------ dying-disk chaos
class FlakyDiskHandle:
    """Proxy a journal's open segment handle so the disk "dies" on cue.

    Append ordinals are counted by ``flush()`` calls (the journal flushes
    exactly once per append), so ``fail_at_append=N`` means appends
    ``0..N-1`` land durably and append ``N`` onward raises the chosen
    ``OSError`` — at the ``write`` (ENOSPC mid-record), ``flush`` (buffered
    bytes refused), or ``fsync`` (durability barrier refused) stage.
    """

    FAIL_STAGES = ("write", "flush", "fsync")

    def __init__(self, handle, fail_at_append: int = 0, error: int = errno.ENOSPC,
                 fail_on: str = "write"):
        assert fail_on in self.FAIL_STAGES, fail_on
        self._handle = handle
        self._fail_at = fail_at_append
        self._errno = error
        self._fail_on = fail_on
        self.appends_seen = 0
        self.failures = 0

    def _maybe_fail(self, stage: str) -> None:
        if stage == self._fail_on and self.appends_seen >= self._fail_at:
            self.failures += 1
            raise OSError(self._errno, os.strerror(self._errno))

    def write(self, data):
        self._maybe_fail("write")
        return self._handle.write(data)

    def flush(self):
        self._maybe_fail("flush")
        result = self._handle.flush()
        self.appends_seen += 1
        return result

    def fileno(self) -> int:
        # The journal only asks for the fd to fsync it, so raising here is
        # the same OSError surface an fsync failure presents to append().
        self._maybe_fail("fsync")
        return self._handle.fileno()

    def __getattr__(self, attr):
        return getattr(self._handle, attr)


def break_journal_disk(
    journal,
    fail_at_append: int = 0,
    error: int = errno.EIO,
    fail_on: str = "write",
) -> FlakyDiskHandle:
    """Swap ``journal``'s segment handle for a :class:`FlakyDiskHandle`.

    Returns the proxy so the test can assert how many appends landed before
    the injected fault fired.
    """
    flaky = FlakyDiskHandle(
        journal._handle, fail_at_append=fail_at_append, error=error, fail_on=fail_on
    )
    journal._handle = flaky
    return flaky
