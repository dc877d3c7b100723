"""The serving tier's counter registry.

Every backend counter — supervision, pipelining, sharding and hedging — is
declared once in :data:`SCHEMA` and lives in one :class:`Counters` map
keyed by ``(tenant, key)``.  A *per-tenant* key is charged to the tenant
whose work was running when it moved (see :meth:`Counters.charging`); a
*pool-wide* key is stored under the ``None`` label and shared by every
tenant.  ``RecommendationService.statistics()`` and
``WorkspaceService.statistics()`` are views over the map, built by looping
over the schema; ``docs/architecture.md`` documents every key (its table is
checked against this schema by ``scripts/docs_check.py``).
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, List, Optional, Tuple, Union

Number = Union[int, float]

#: The default tenant: the planner a backend was bound to.  Named
#: workspaces (``repro.serving.tenancy``) are charged under their names.
DEFAULT_TENANT = ""

#: ``group -> (scope, ((key, kind, zero), ...))`` in reporting order.  The
#: scope is ``"tenant"`` (charged to the running tenant) or ``"pool"`` (one
#: pool-wide value); the kind is ``"sum"`` (add every recording), ``"last"``
#: (keep the latest) or ``"max"`` (keep the largest).  Per-tenant keys are
#: sums, so a pool aggregate is the sum over tenants.
SCHEMA = {
    "supervision": (
        "tenant",
        (
            ("respawns", "sum", 0),
            ("resubmitted_shards", "sum", 0),
            ("hung_workers_killed", "sum", 0),
            ("degraded_batches", "sum", 0),
        ),
    ),
    "pipeline": (
        "pool",
        (
            ("windows", "sum", 0),
            ("overlapped_dispatches", "sum", 0),
            ("independent_shards", "sum", 0),
            ("cross_batch_edges", "sum", 0),
            ("dispatch_units", "sum", 0),
            ("settled_queries", "sum", 0),
        ),
    ),
    "sharding": (
        "pool",
        (
            ("largest_shard_fraction_before", "last", 0.0),
            ("largest_shard_fraction_after", "last", 0.0),
            ("chain_depth", "last", 0),
            ("max_chain_depth", "max", 0),
            ("sub_shards_total", "sum", 0),
        ),
    ),
    "resilience": (
        "tenant",
        (
            ("hedges_issued", "sum", 0),
            ("hedges_won", "sum", 0),
            ("hedges_wasted", "sum", 0),
            ("stragglers_killed", "sum", 0),
        ),
    ),
}

#: Batches a tenant ran on the pool: a per-tenant sum reported only in the
#: per-tenant breakdown (:meth:`Counters.breakdown`), not in a schema group.
BATCHES = "batches"

#: ``key -> (per_tenant, kind)`` for every recordable key.
_KEYS: Dict[str, Tuple[bool, str]] = {
    key: (scope == "tenant", kind)
    for scope, entries in SCHEMA.values()
    for key, kind, _ in entries
}
_KEYS[BATCHES] = (True, "sum")


class Counters:
    """One counter map keyed by ``(tenant, key)``; see :data:`SCHEMA`."""

    def __init__(self) -> None:
        self._values: Dict[Tuple[Optional[str], str], Number] = {}
        self._tenant = DEFAULT_TENANT

    @contextlib.contextmanager
    def charging(self, tenant: str) -> Iterator[None]:
        """Charge every per-tenant recording inside the block to ``tenant``.

        Sound because the shared pool runs one batch or window at a time:
        everything recorded meanwhile happened inside that tenant's work.
        (A lame straggler killed at a later window edge is charged to the
        tenant running then.)"""
        previous, self._tenant = self._tenant, tenant
        try:
            yield
        finally:
            self._tenant = previous

    def record(self, key: str, value: Number = 1) -> None:
        """Record ``value`` under ``key`` as the schema's kind says."""
        per_tenant, kind = _KEYS[key]
        slot = (self._tenant if per_tenant else None, key)
        if kind == "sum":
            self._values[slot] = self._values.get(slot, 0) + value
        elif kind == "max":
            self._values[slot] = max(self._values.get(slot, value), value)
        else:
            self._values[slot] = value

    def group(self, group: str, tenant: Optional[str] = None) -> Dict[str, Number]:
        """One schema group: ``tenant``'s share of its per-tenant keys, or
        the sum over every tenant when ``tenant`` is ``None``."""
        scope, entries = SCHEMA[group]
        if scope == "pool":
            return {key: self._values.get((None, key), zero) for key, _, zero in entries}
        labels = self.tenants() if tenant is None else [tenant]
        return {
            key: sum((self._values.get((label, key), 0) for label in labels), zero)
            for key, _, zero in entries
        }

    def tenants(self) -> List[str]:
        """Tenants charged with a recording, in first-charged order."""
        return list(dict.fromkeys(label for label, _ in self._values if label is not None))

    def breakdown(self, tenant: str) -> Dict[str, Number]:
        """One tenant's per-tenant breakdown: its batches, then every
        per-tenant key of the schema."""
        breakdown = {BATCHES: self._values.get((tenant, BATCHES), 0)}
        for group, (scope, _) in SCHEMA.items():
            if scope == "tenant":
                breakdown.update(self.group(group, tenant))
        return breakdown
