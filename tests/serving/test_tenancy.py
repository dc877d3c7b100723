"""Multi-tenant workspace isolation contract.

The acceptance gate of the tenancy subsystem: for any interleaving of three
workspaces over one shared pool — across backends, pool sizes,
``pipeline_window`` and ``max_shard_fraction`` — every workspace's answers,
post-batch planner state, and recovered-journal state are bit-identical to a
dedicated single-tenant service (whose own contract pins it to the
sequential oracle, so the per-tenant oracle here *is* the sequential
planner).  The fault half asserts blast-radius isolation: an injected fault
inside one tenant's batch never perturbs another tenant's fingerprints, and
the supervision fallout is attributed to the faulted tenant only.
"""

from __future__ import annotations

import multiprocessing
import os
import signal

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import PlannerConfig, ServiceConfig
from repro.exceptions import ServingError, WorkspaceManifestError
from repro.serving import (
    DEFAULT_TENANT,
    PooledBackend,
    WorkspaceService,
    recommendation_fingerprint,
)

from .faults import FAST_SUPERVISION, FaultInjectingBackend
from .sim_pool import SimulatedPool

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="platform has no fork start method")

TENANTS = ("alpha", "beta", "gamma")
BATCH = 10  # queries per tenant batch; 3 batches per tenant


@pytest.fixture(scope="module")
def tenant_batches(serving_workload):
    """Three disjoint per-tenant workloads, each split into 3 batches."""
    workload = list(serving_workload[:90])
    return {
        name: [
            workload[index::3][start:start + BATCH]
            for start in range(0, len(workload[index::3]), BATCH)
        ]
        for index, name in enumerate(TENANTS)
    }


def _truth_tuples(planner):
    # Truth ids are process-local serials (a process-global sequence that
    # interleaves across tenants) and are excluded from the contract, like
    # everywhere else; per-tenant *relative* id order is what the lookup
    # tie-break relies on, and that is covered by the fingerprint equality.
    return [
        (t.origin, t.destination, t.time_slot, t.route.path, t.verified_by, t.confidence)
        for t in planner.truths.all()
    ]


@pytest.fixture(scope="module")
def tenant_oracles(build_serving_planner, tenant_batches):
    """Per-tenant sequential oracles: each tenant's batches through a
    dedicated planner, in the tenant's own submission order."""
    oracles = {}
    for name, batches in tenant_batches.items():
        planner = build_serving_planner()
        fingerprints = []
        for batch in batches:
            fingerprints.extend(
                recommendation_fingerprint(result) for result in planner.recommend_batch(batch)
            )
        oracles[name] = {
            "fingerprints": fingerprints,
            "statistics": planner.statistics.as_dict(),
            "truths": _truth_tuples(planner),
        }
    return oracles


def _tenant_config(template, **overrides):
    return ServiceConfig.from_planner_config(template.config, **overrides)


def _round_robin(tenant_batches):
    """The default global order: every tenant's next batch, round-robin."""
    rounds = max(len(batches) for batches in tenant_batches.values())
    return [name for _ in range(rounds) for name in TENANTS][: rounds * len(TENANTS)]


def _run_interleaved(service, tenant_batches, order=None, ticketed=False):
    """Execute the tenants' batches in a global interleaving.

    ``order`` names which tenant executes its next pending batch at each
    step (extra mentions of an exhausted tenant are skipped).  With
    ``ticketed=True`` every batch is submitted as a ticket first (still in
    ``order``) and redeemed afterwards, so per-workspace pipeline windows
    actually engage.
    """
    order = list(order if order is not None else _round_robin(tenant_batches))
    cursors = {name: 0 for name in tenant_batches}
    # Whatever the drawn order dropped, append round-robin so every batch runs.
    for name in _round_robin(tenant_batches):
        if order.count(name) < len(tenant_batches[name]):
            order.append(name)
    fingerprints = {name: [] for name in tenant_batches}
    tickets = []
    for name in order:
        index = cursors[name]
        if index >= len(tenant_batches[name]):
            continue
        cursors[name] = index + 1
        workspace = service.workspace(name)
        if ticketed:
            tickets.append((name, workspace.submit(tenant_batches[name][index])))
        else:
            for response in workspace.recommend_batch(tenant_batches[name][index]):
                fingerprints[name].append(recommendation_fingerprint(response.result))
    for name, ticket in tickets:
        for response in service.workspace(name).results(ticket):
            fingerprints[name].append(recommendation_fingerprint(response.result))
    return fingerprints


def _assert_matches_oracles(service, fingerprints, tenant_oracles):
    for name, oracle in tenant_oracles.items():
        assert fingerprints[name] == oracle["fingerprints"], f"tenant {name} diverged"
        planner = service.workspace(name).planner
        assert planner.statistics.as_dict() == oracle["statistics"]
        assert _truth_tuples(planner) == oracle["truths"]


class TestWorkspaceLifecycle:
    def test_create_list_lookup_close(self, build_serving_planner):
        template = build_serving_planner()
        with WorkspaceService(template, config=_tenant_config(template, backend="inline")) as svc:
            alpha = svc.create_workspace("alpha")
            svc.create_workspace("beta")
            assert svc.list_workspaces() == ["alpha", "beta"]
            assert svc.workspace("alpha") is alpha
            with pytest.raises(ServingError):
                svc.create_workspace("alpha")
            with pytest.raises(ServingError):
                svc.workspace("missing")
            svc.close_workspace("alpha")
            assert svc.list_workspaces() == ["beta"]
            assert alpha.closed
            with pytest.raises(ServingError):
                svc.close_workspace("alpha")
            # The freed name is reusable.
            svc.create_workspace("alpha")
        assert svc.closed
        with pytest.raises(ServingError):
            svc.create_workspace("gamma")

    @pytest.mark.parametrize("name", ["", ".", "..", "a/b", "a\\b", "a\x00b"])
    def test_invalid_workspace_names_rejected(self, build_serving_planner, name):
        template = build_serving_planner()
        with WorkspaceService(template, config=_tenant_config(template, backend="inline")) as svc:
            with pytest.raises(ServingError):
                svc.create_workspace(name)

    def test_workspaces_share_substrate_but_not_truths(self, build_serving_planner):
        template = build_serving_planner()
        with WorkspaceService(template, config=_tenant_config(template, backend="inline")) as svc:
            alpha = svc.create_workspace("alpha")
            beta = svc.create_workspace("beta")
            assert alpha.planner.network is beta.planner.network is template.network
            assert alpha.planner.familiarity is template.familiarity
            assert alpha.planner.truths is not beta.planner.truths
            assert alpha.planner.truths is not template.truths


class TestTenantIsolationContract:
    """Interleaved multi-tenant runs vs the per-tenant sequential oracles."""

    @pytest.mark.parametrize(
        "backend, pool_size, window, fraction, ticketed",
        [
            ("inline", 1, 1, None, False),
            ("pooled", 1, 1, None, False),
            ("pooled", 2, 1, None, False),
            ("pooled", 2, 1, 0.35, False),
            ("pooled", 2, 3, None, True),
            ("pooled", 4, 3, 0.35, True),
        ],
    )
    def test_interleaved_matches_dedicated(
        self,
        build_serving_planner,
        tenant_batches,
        tenant_oracles,
        backend,
        pool_size,
        window,
        fraction,
        ticketed,
    ):
        template = build_serving_planner()
        config = _tenant_config(
            template,
            backend=backend,
            pool_size=pool_size,
            pipeline_window=window,
            max_shard_fraction=fraction,
        )
        with WorkspaceService(template, config=config) as svc:
            for name in TENANTS:
                svc.create_workspace(name)
            fingerprints = _run_interleaved(svc, tenant_batches, ticketed=ticketed)
            _assert_matches_oracles(svc, fingerprints, tenant_oracles)

    @needs_fork
    def test_statistics_per_workspace_breakdown(
        self, build_serving_planner, tenant_batches, tmp_path
    ):
        template = build_serving_planner()
        config = _tenant_config(template, backend="pooled", pool_size=2)
        with WorkspaceService(template, config=config, journal_root=tmp_path) as svc:
            for name in TENANTS:
                svc.create_workspace(name)
            _run_interleaved(svc, tenant_batches)
            stats = svc.statistics()
            assert set(stats["workspaces"]) == set(TENANTS)
            for name in TENANTS:
                entry = stats["workspaces"][name]
                assert entry["batches"] == len(tenant_batches[name])
                assert entry["truths"] > 0
                assert entry["respawns"] == 0
                assert entry["journal_bytes"] > 0
            assert len(stats["pool"]["workers"]) == 2
            assert stats["pool"]["tenants"]["alpha"]["batches"] == len(tenant_batches["alpha"])
            # Every backend group is in the pool view, and the per-tenant
            # breakdown adds up to the pool aggregate.
            pool = stats["pool"]
            assert {"supervision", "pipeline", "sharding", "resilience"} <= set(pool)
            for group in ("supervision", "resilience"):
                for key, total in pool[group].items():
                    assert sum(tenant[key] for tenant in pool["tenants"].values()) == total

    @pytest.mark.property
    @pytest.mark.slow
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(order=st.permutations([name for name in TENANTS for _ in range(3)]))
    def test_random_interleavings_match_dedicated(
        self, build_serving_planner, tenant_batches, tenant_oracles, order
    ):
        template = build_serving_planner()
        config = _tenant_config(template, backend="pooled", pool_size=2)
        with WorkspaceService(template, config=config, pool=SimulatedPool(config)) as svc:
            for name in TENANTS:
                svc.create_workspace(name)
            fingerprints = _run_interleaved(svc, tenant_batches, order=order)
            _assert_matches_oracles(svc, fingerprints, tenant_oracles)


class TestWorkspaceRecovery:
    def test_recover_all_restores_every_workspace(
        self, build_serving_planner, tenant_batches, tenant_oracles, tmp_path
    ):
        template = build_serving_planner()
        config = _tenant_config(template, backend="inline")
        svc = WorkspaceService(template, config=config, journal_root=tmp_path)
        for name in TENANTS:
            svc.create_workspace(name)
        _run_interleaved(svc, tenant_batches)
        # Simulate a crash: the journals are never cleanly closed.
        pre_crash = {name: _truth_tuples(svc.workspace(name).planner) for name in TENANTS}
        del svc

        recovered = WorkspaceService.recover_all(
            build_serving_planner(), tmp_path, config=config
        )
        assert sorted(recovered.list_workspaces()) == sorted(TENANTS)
        for name in TENANTS:
            workspace = recovered.workspace(name)
            assert _truth_tuples(workspace.planner) == pre_crash[name]
            assert _truth_tuples(workspace.planner) == tenant_oracles[name]["truths"]
            assert workspace.batches_executed == len(tenant_batches[name])
        recovered.close()

    def test_manifest_preserves_planner_config(self, build_serving_planner, tmp_path):
        template = build_serving_planner()
        config = _tenant_config(template, backend="inline")
        custom = PlannerConfig(confidence_threshold=0.9, random_seed=123)
        with WorkspaceService(template, config=config, journal_root=tmp_path) as svc:
            svc.create_workspace("tuned", planner_config=custom)
            assert svc.workspace("tuned").planner.config == custom

        recovered = WorkspaceService.recover_all(
            build_serving_planner(), tmp_path, config=config
        )
        assert recovered.workspace("tuned").planner.config == custom
        recovered.close()

    def test_corrupt_manifest_is_a_typed_error_naming_the_directory(
        self, build_serving_planner, tmp_path
    ):
        template = build_serving_planner()
        config = _tenant_config(template, backend="inline")
        with WorkspaceService(template, config=config, journal_root=tmp_path) as svc:
            svc.create_workspace("healthy")
        broken = tmp_path / "broken"
        broken.mkdir()
        (broken / "workspace.json").write_text("{this is not json")

        with pytest.raises(WorkspaceManifestError, match="not valid JSON") as excinfo:
            WorkspaceService.recover_all(build_serving_planner(), tmp_path, config=config)
        # The operator is pointed at the exact workspace directory to inspect.
        assert excinfo.value.directory == broken
        assert str(broken) in str(excinfo.value)

    def test_manifest_missing_planner_config_is_a_typed_error(
        self, build_serving_planner, tmp_path
    ):
        template = build_serving_planner()
        config = _tenant_config(template, backend="inline")
        broken = tmp_path / "legacy"
        broken.mkdir()
        (broken / "workspace.json").write_text('{"name": "legacy"}')

        with pytest.raises(WorkspaceManifestError, match="planner_config") as excinfo:
            WorkspaceService.recover_all(build_serving_planner(), tmp_path, config=config)
        assert excinfo.value.directory == broken


@needs_fork
class TestTenantFaultIsolation:
    """A fault inside tenant alpha's batch must never perturb tenant beta."""

    @pytest.mark.parametrize("kind", ["kill_after", "hang", "desync"])
    def test_fault_in_one_tenant_leaves_others_untouched(
        self, build_serving_planner, tenant_batches, tenant_oracles, kind
    ):
        template = build_serving_planner()
        config = _tenant_config(template, backend="pooled", pool_size=2)
        pool = FaultInjectingBackend(pool_size=2)
        with WorkspaceService(template, config=config, pool=pool) as svc:
            for name in TENANTS:
                svc.create_workspace(name)
            fingerprints = {name: [] for name in TENANTS}
            for round_index in range(3):
                for name in TENANTS:
                    if name == "alpha" and round_index == 1:
                        # Target the next dispatch: the first shard of
                        # alpha's second batch.
                        pool.schedule[pool.dispatch_ordinal] = kind
                    batch = tenant_batches[name][round_index]
                    for response in svc.workspace(name).recommend_batch(batch):
                        fingerprints[name].append(
                            recommendation_fingerprint(response.result)
                        )
            assert pool.injected == [kind]
            # Answers: every tenant (faulted one included) matches its oracle.
            _assert_matches_oracles(svc, fingerprints, tenant_oracles)
            # Attribution: the fallout landed on alpha, and only alpha.
            stats = svc.statistics()["pool"]["tenants"]
            alpha_faults = sum(
                stats["alpha"][key]
                for key in ("respawns", "resubmitted_shards", "hung_workers_killed")
            )
            assert alpha_faults > 0
            for name in ("beta", "gamma"):
                assert all(
                    stats[name][key] == 0
                    for key in (
                        "respawns",
                        "resubmitted_shards",
                        "hung_workers_killed",
                        "degraded_batches",
                    )
                ), f"fault fallout leaked into tenant {name}: {stats[name]}"

    def test_worker_hung_in_cadence_sync_is_charged_to_its_tenant(
        self, build_serving_planner, tenant_batches, tenant_oracles
    ):
        """A worker that hangs in the window-edge truth sync is killed there;
        the kill belongs to the tenant whose window triggered the sync."""

        class HangInSync(PooledBackend):
            hung_pid = None

            def _push_sync(self, tenant=DEFAULT_TENANT):
                total = self._planner_for(tenant).truth_cursor()
                behind = [
                    worker
                    for worker in self._workers
                    if worker.alive and worker.cursors.get(tenant, total) < total
                ]
                if behind and self.hung_pid is None:
                    self.hung_pid = behind[0].pid
                    os.kill(behind[0].pid, signal.SIGSTOP)
                super()._push_sync(tenant)

        template = build_serving_planner()
        config = _tenant_config(
            template, backend="pooled", pool_size=2, merge_every_batches=1, **FAST_SUPERVISION
        )
        pool = HangInSync(config)
        with WorkspaceService(template, config=config, pool=pool) as svc:
            workspace = svc.create_workspace("alpha")
            fingerprints = [
                recommendation_fingerprint(response.result)
                for batch in tenant_batches["alpha"]
                for response in workspace.recommend_batch(batch)
            ]
            stats = svc.statistics()["pool"]
        assert pool.hung_pid is not None
        assert fingerprints == tenant_oracles["alpha"]["fingerprints"]
        assert stats["supervision"]["hung_workers_killed"] == 1
        assert stats["tenants"]["alpha"]["hung_workers_killed"] == 1


@needs_fork
@pytest.mark.chaos
@pytest.mark.property
@pytest.mark.slow
class TestTenantChaosMatrix:
    """Random fault schedules over random tenant interleavings (nightly)."""

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        schedule=st.dictionaries(
            st.integers(min_value=0, max_value=13),
            st.sampled_from(["kill_before", "kill_after", "hang", "drop", "delay", "desync"]),
            max_size=3,
        ),
        order=st.permutations([name for name in TENANTS for _ in range(3)]),
    )
    def test_chaos_preserves_per_tenant_fingerprints(
        self, build_serving_planner, tenant_batches, tenant_oracles, schedule, order
    ):
        template = build_serving_planner()
        config = _tenant_config(template, backend="pooled", pool_size=2)
        pool = FaultInjectingBackend(schedule=schedule, pool_size=2)
        with WorkspaceService(template, config=config, pool=pool) as svc:
            for name in TENANTS:
                svc.create_workspace(name)
            fingerprints = _run_interleaved(svc, tenant_batches, order=order)
            _assert_matches_oracles(svc, fingerprints, tenant_oracles)
