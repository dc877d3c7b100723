"""Multi-tenant workspaces: isolated truth stores over one shared pool.

A *workspace* is a named, fully isolated serving tenant: it owns its own
:class:`~repro.core.truth.TruthDatabase`, answer/reward histories, batch
numbering, and :class:`~repro.serving.journal.TruthJournal` directory.  What
workspaces share is the expensive part — the scenario substrate (road
network, landmark catalog, calibrator, crowd backend) and, under the pooled
backend, one warm :class:`~repro.serving.service.PooledBackend` worker pool.

Layering
--------
::

    WorkspaceService ── template planner + shared PooledBackend
      ├── Workspace "alpha" ── RecommendationService
      │        planner (own TruthDatabase)      TenantBackend("alpha") ─┐
      ├── Workspace "beta"  ── RecommendationService                    │
      │        planner (own TruthDatabase)      TenantBackend("beta") ──┤
      │                                                                 ▼
      └── ...                                             shared PooledBackend
                                                    (per-tenant warm bases in
                                                     every worker process)

Each :class:`Workspace` wraps a plain
:class:`~repro.serving.RecommendationService`, so tickets, submission-order
execution, pipelining, journaling and crash recovery all behave exactly as
they do single-tenant.  The only difference is the backend:
:class:`TenantBackend` is a thin facade that tags every batch/window with
its workspace name before delegating to the shared pool, which routes the
work against that tenant's planner and truth store (see the tenancy plumbing
in :mod:`repro.serving.service`).

Isolation contract
------------------
For any interleaving of workspaces over one shared pool, every workspace's
answers, post-batch planner state, and recovered-journal state are
bit-identical to a dedicated single-tenant service, for every backend, pool
size, ``pipeline_window`` and ``max_shard_fraction`` — and a worker fault
inside one tenant's batch never perturbs another tenant's fingerprints.
The argument lives in ``docs/serving-invariants.md``; the enforcing tests in
``tests/serving/test_tenancy.py``.

Durability layout
-----------------
With a ``journal_root``, each workspace journals under its own
subdirectory, beside a small manifest that makes the tree self-describing::

    <journal_root>/
      alpha/
        workspace.json        # {"name": ..., "planner_config": {...}}
        journal-00000000.log
        snapshot-00000001.snap
      beta/
        ...

:meth:`WorkspaceService.recover_all` scans the root, rebuilds every
workspace from its manifest, and replays each journal — restoring every
tenant to its exact pre-crash truth state and batch numbering.
"""

from __future__ import annotations

import dataclasses
import json
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from ..config import PlannerConfig, ServiceConfig
from ..core.planner import CrowdPlanner, ShardPlan
from ..exceptions import ServingError, WorkspaceManifestError
from ..routing.base import RouteQuery
from .metrics import SCHEMA
from .protocol import BatchExecution, ServingBackend
from .service import InlineBackend, PooledBackend, RecommendationService
from .shards import build_tenant_planner

__all__ = [
    "TenantBackend",
    "Workspace",
    "WorkspaceService",
    "WORKSPACE_MANIFEST",
    "build_tenant_planner",
]

#: Manifest file written beside each workspace's journal files.  The journal
#: itself only touches ``journal-*.log`` / ``snapshot-*.snap`` names, so the
#: manifest survives compaction untouched.
WORKSPACE_MANIFEST = "workspace.json"


class TenantBackend(ServingBackend):
    """A workspace's view of the shared pool.

    Binds the workspace's planner to the pool as a named tenant instead of
    rebinding the pool itself, then delegates windows and planning with the
    tenant tag attached.  ``name`` stays ``"pooled"`` so response provenance
    is byte-identical to a dedicated pooled service.

    Its statistics read the pool's counters: its own share of the
    per-tenant groups (faults and hedges are charged to the tenant whose
    batch was running, so another tenant's fault never shows up here) and
    the pool-wide ``pipeline`` and ``sharding`` groups.

    Closing the facade drops the tenant from the pool (workers forget its
    warm base) without stopping the pool — other workspaces keep serving.
    """

    name = "pooled"

    def __init__(self, pool: PooledBackend, tenant: str):
        super().__init__()
        if not tenant:
            raise ServingError("tenant name must be non-empty")
        self.pool = pool
        self.tenant = tenant
        self.counters = pool.counters

    # -------------------------------------------------------------- lifecycle
    def bind(self, planner: CrowdPlanner) -> None:
        super().bind(planner)
        self.pool.register_tenant(self.tenant, planner)

    def close(self) -> None:
        self.pool.drop_tenant(self.tenant)

    # -------------------------------------------------------------- execution
    def execute_window(self, batches: Sequence[Sequence[RouteQuery]]) -> List[BatchExecution]:
        return self.pool.execute_window(batches, tenant=self.tenant)

    # ------------------------------------------------------------ diagnostics
    def plan(self, planner: CrowdPlanner, queries: Sequence[RouteQuery]) -> ShardPlan:
        return self.pool.plan(planner, queries)

    def worker_pids(self) -> List[int]:
        return self.pool.worker_pids()


class Workspace:
    """One named tenant: an isolated service over the shared substrate.

    Wraps a dedicated :class:`~repro.serving.RecommendationService`, so the
    full single-tenant surface — ``submit`` / ``results`` / ``drain`` /
    ``recommend`` / ``recommend_batch`` / ``stream`` / ``statistics`` — is
    available per workspace with identical semantics: attribute access
    falls through to the wrapped service.
    """

    def __init__(self, name: str, service: RecommendationService):
        self.name = name
        self.service = service

    @property
    def batches_executed(self) -> int:
        """Batches this workspace has finalised, lifetime — journal-backed
        numbering means the count survives crash recovery."""
        return self.service._next_batch_id - 1

    def __getattr__(self, attr: str):
        return getattr(self.service, attr)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Workspace({self.name!r}, closed={self.closed})"


def _validate_workspace_name(name: str) -> None:
    """A workspace name doubles as its journal directory name."""
    if not name or name in (".", ".."):
        raise ServingError(f"invalid workspace name {name!r}")
    if any(sep in name for sep in ("/", "\\", "\x00")):
        raise ServingError(
            f"workspace name {name!r} must not contain path separators"
        )


class WorkspaceService:
    """Many isolated workspaces over one scenario substrate and worker pool.

    Parameters
    ----------
    template:
        A prepared planner for the scenario.  Workspaces share its substrate
        (network, catalog, calibrator, crowd backend, **fitted** familiarity
        model) via :func:`~repro.serving.shards.build_tenant_planner`; each
        gets its own truth store and histories.
    config:
        Serving knobs applied to every workspace (backend, pool size,
        pipelining, journaling cadence, supervision deadlines).  Defaults to
        :meth:`ServiceConfig.from_planner_config` of the template's config.
    journal_root:
        Directory under which each workspace journals (``<root>/<name>/``,
        with a ``workspace.json`` manifest).  ``None`` disables durability.
    pool:
        An existing :class:`PooledBackend` to share (e.g. the fault-injecting
        harness).  Built from ``config`` when omitted and the backend is
        pooled.  The service owns the pool either way and stops it at
        :meth:`close`.
    """

    def __init__(
        self,
        template: CrowdPlanner,
        config: Optional[ServiceConfig] = None,
        journal_root=None,
        pool: Optional[PooledBackend] = None,
    ):
        if config is None:
            config = ServiceConfig.from_planner_config(template.config)
        self.template = template
        self.config = config
        self.journal_root = Path(journal_root) if journal_root is not None else None
        self._workspaces: "OrderedDict[str, Workspace]" = OrderedDict()
        self._closed = False
        # Round-robin origin for pump(): rotates one position per round so
        # no workspace is structurally first in every fairness sweep.
        self._pump_cursor = 0
        self._pool: Optional[PooledBackend] = None
        if config.backend == "pooled":
            if pool is None:
                pool = PooledBackend(config)
            # The pool's default (unnamed) tenant is the template planner;
            # workspaces register beside it.  Binding must precede the first
            # fork so workers inherit the substrate.
            if pool.planner is None:
                pool.bind(template)
            self._pool = pool
        elif pool is not None:
            raise ServingError("a shared pool requires backend='pooled'")

    # ------------------------------------------------------------- lifecycle
    @classmethod
    def recover_all(
        cls,
        template: CrowdPlanner,
        journal_root,
        config: Optional[ServiceConfig] = None,
        pool: Optional[PooledBackend] = None,
    ) -> "WorkspaceService":
        """Rebuild every workspace found under ``journal_root`` after a crash.

        Scans the root for subdirectories holding a ``workspace.json``
        manifest, re-creates each workspace under its recorded
        :class:`~repro.config.PlannerConfig`, and lets the per-workspace
        journal replay restore its exact pre-crash truth state and batch
        numbering.  Workspaces are recovered in name order; new workspaces
        can be created alongside the recovered ones afterwards.

        A corrupt or garbage manifest raises
        :class:`~repro.exceptions.WorkspaceManifestError` naming the
        workspace directory, so the operator knows exactly which tenant's
        on-disk state to inspect rather than chasing a raw decode error.
        """
        root = Path(journal_root)
        service = cls(template, config=config, journal_root=root, pool=pool)
        if root.is_dir():
            for entry in sorted(root.iterdir()):
                manifest = entry / WORKSPACE_MANIFEST
                if not manifest.is_file():
                    continue
                try:
                    data = json.loads(manifest.read_text())
                except (ValueError, UnicodeDecodeError, OSError) as exc:
                    raise WorkspaceManifestError(entry, f"not valid JSON: {exc}") from exc
                if not isinstance(data, dict):
                    raise WorkspaceManifestError(
                        entry, f"expected a JSON object, got {type(data).__name__}"
                    )
                if not isinstance(data.get("planner_config"), dict):
                    raise WorkspaceManifestError(
                        entry, "missing or malformed 'planner_config' field"
                    )
                try:
                    planner_config = PlannerConfig(**data["planner_config"])
                except TypeError as exc:
                    raise WorkspaceManifestError(
                        entry, f"planner_config does not match PlannerConfig: {exc}"
                    ) from exc
                service.create_workspace(data.get("name", entry.name), planner_config)
        return service

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Close every workspace (journals included), then stop the pool."""
        if self._closed:
            return
        self._closed = True
        for workspace in self._workspaces.values():
            workspace.service.close()
        self._workspaces.clear()
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "WorkspaceService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _ensure_open(self) -> None:
        if self._closed:
            raise ServingError("the workspace service is closed")

    # ------------------------------------------------------------ workspaces
    def create_workspace(
        self, name: str, planner_config: Optional[PlannerConfig] = None
    ) -> Workspace:
        """Open a new isolated workspace on the shared substrate.

        ``planner_config`` defaults to the template's; a different one
        changes the workspace's planning thresholds without refitting the
        shared familiarity model (see
        :func:`~repro.serving.shards.build_tenant_planner`).  With a
        ``journal_root``, the workspace's journal directory and manifest are
        created — reopening a name whose directory already holds a journal
        replays it (that is how :meth:`recover_all` restores state).
        """
        self._ensure_open()
        _validate_workspace_name(name)
        if name in self._workspaces:
            raise ServingError(f"workspace {name!r} already exists")
        if planner_config is None:
            planner_config = self.config.planner_config()
        planner = build_tenant_planner(self.template, planner_config)
        journal_path: Optional[str] = None
        if self.journal_root is not None:
            directory = self.journal_root / name
            directory.mkdir(parents=True, exist_ok=True)
            (directory / WORKSPACE_MANIFEST).write_text(
                json.dumps(
                    {"name": name, "planner_config": planner_config.to_dict()},
                    indent=2,
                    sort_keys=True,
                )
            )
            journal_path = str(directory)
        workspace_config = self._workspace_config(planner_config, journal_path)
        if self._pool is not None:
            backend: ServingBackend = TenantBackend(self._pool, name)
        else:
            backend = InlineBackend()
        service = RecommendationService(planner, config=workspace_config, backend=backend)
        workspace = Workspace(name, service)
        self._workspaces[name] = workspace
        return workspace

    def _workspace_config(
        self, planner_config: PlannerConfig, journal_path: Optional[str]
    ) -> ServiceConfig:
        """The template's serving knobs over the workspace's planner knobs."""
        planner_fields = {field.name for field in dataclasses.fields(PlannerConfig)}
        serving = {
            field.name: getattr(self.config, field.name)
            for field in dataclasses.fields(ServiceConfig)
            if field.name not in planner_fields
        }
        serving["journal_path"] = journal_path
        return ServiceConfig.from_planner_config(planner_config, **serving)

    def workspace(self, name: str) -> Workspace:
        """Look an open workspace up by name."""
        self._ensure_open()
        try:
            return self._workspaces[name]
        except KeyError:
            raise ServingError(f"unknown workspace {name!r}") from None

    def list_workspaces(self) -> List[str]:
        """Names of the open workspaces, in creation order."""
        return list(self._workspaces)

    def close_workspace(self, name: str) -> None:
        """Close one workspace: its journal closes, the pool forgets its
        warm bases, and the name becomes available again — a later
        ``create_workspace(name)`` over the same ``journal_root`` resumes
        from its journal."""
        self._ensure_open()
        workspace = self._workspaces.pop(name, None)
        if workspace is None:
            raise ServingError(f"unknown workspace {name!r}")
        workspace.service.close()

    # --------------------------------------------------------------- fairness
    def pump(self) -> bool:
        """One round-robin fairness sweep over every workspace's backlog.

        Executes at most one pending batch (or pipelined window) per open
        workspace, visiting workspaces in creation order starting one past
        the previous round's origin — so a tenant with a deep backlog gets
        exactly one turn per sweep and can never monopolise the shared pool
        between other tenants' admissions.  Returns ``True`` while any
        workspace still had work.
        """
        self._ensure_open()
        names = list(self._workspaces)
        if not names:
            return False
        start = self._pump_cursor % len(names)
        self._pump_cursor = (start + 1) % len(names)
        ran = False
        for offset in range(len(names)):
            workspace = self._workspaces.get(names[(start + offset) % len(names)])
            if workspace is not None and not workspace.closed and workspace.pump():
                ran = True
        return ran

    def drain_fair(self) -> None:
        """Drain every workspace's backlog in interleaved round-robin order.

        Equivalent end state to calling each workspace's ``drain()`` in turn
        — per-workspace submission order is preserved, and the isolation
        contract makes the interleaving invisible to fingerprints — but
        bounded-latency per tenant: after each sweep, every tenant has
        progressed by one batch.
        """
        while self.pump():
            pass

    # ------------------------------------------------------------ diagnostics
    def statistics(self) -> Dict[str, Any]:
        """Per-workspace breakdown plus the shared pool's aggregates.

        ``workspaces`` maps each open workspace to its lifetime batch count,
        current truth-store size, attributed worker respawns, and on-disk
        journal footprint; ``pool`` (pooled backend only) carries every
        counter group summed over the pool and, under ``tenants``, each
        tenant's share of the per-tenant counters.
        """
        report: Dict[str, Any] = {"workspaces": {}}
        for name, workspace in self._workspaces.items():
            entry = {
                "batches": workspace.batches_executed,
                "truths": workspace.planner.truth_cursor(),
                "respawns": 0,
                "journal_bytes": 0,
            }
            if self._pool is not None:
                entry["respawns"] = self._pool.counters.group("supervision", name)["respawns"]
            journal = workspace.journal
            if journal is not None:
                entry["journal_bytes"] = journal.disk_bytes
            report["workspaces"][name] = entry
        if self._pool is not None:
            counters = self._pool.counters
            pool: Dict[str, Any] = {"workers": self._pool.worker_pids()}
            for group in SCHEMA:
                pool[group] = counters.group(group)
            # Open workspaces are listed even before their first batch.
            names = dict.fromkeys([*counters.tenants(), *self._workspaces])
            pool["tenants"] = {name: counters.breakdown(name) for name in names}
            report["pool"] = pool
        return report

    def worker_pids(self) -> List[int]:
        """PIDs of the shared pool's live workers (empty when inline)."""
        return self._pool.worker_pids() if self._pool is not None else []
