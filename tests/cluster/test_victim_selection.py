"""No policy ever names the incoming block or a non-resident id as a victim.

``MemoryStore.put`` hands the policy the caller's ``protect`` set as is:
the block being inserted is not resident, so no victim order can name
it and it needs no protection of its own.  These runs check that claim
on every named scheme standalone and on every arbitration of a shared
cluster, where ``ArbitratedNodePolicy`` merges tenant orders.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.cluster.memory_store import MemoryStore
from repro.experiments.harness import build_workload_dag
from repro.simulator.config import TEST_CLUSTER
from repro.simulator.engine import simulate
from repro.sweep.schemes import SCHEME_SPECS
from repro.tenancy.arbitration import ARBITRATIONS, ArbitratedNodePolicy
from repro.tenancy.arrivals import PoissonArrivals
from repro.tenancy.engine import AppSpec, MultiTenantSimulator


@pytest.fixture
def selections(monkeypatch) -> Counter:
    """Check every victim selection made under ``put``; count them by policy."""
    seen: Counter = Counter()
    put = MemoryStore.put

    def checked_put(self, block, protect=frozenset(), prefetch=False):
        policy = self.policy
        select = policy.select_victims

        def checked_select(store, needed_mb, protect, for_prefetch=False):
            assert block.id not in store
            victims = select(store, needed_mb, protect, for_prefetch)
            seen[type(policy).__name__] += 1
            if isinstance(policy, ArbitratedNodePolicy) and len(policy._tenants) > 1:
                seen["arbitrated-shared"] += 1
            for victim in victims or ():
                assert victim != block.id
                assert victim in store
                assert victim not in protect
            return victims

        policy.select_victims = checked_select
        try:
            return put(self, block, protect, prefetch)
        finally:
            del policy.select_victims

    monkeypatch.setattr(MemoryStore, "put", checked_put)
    return seen


@pytest.mark.parametrize("scheme", sorted(SCHEME_SPECS))
def test_standalone_victims_are_resident(scheme, selections):
    dag = build_workload_dag("KM", partitions=8)
    simulate(dag, TEST_CLUSTER.with_cache(12.0), SCHEME_SPECS[scheme].build())
    assert sum(selections.values()) > 0


@pytest.mark.parametrize("arbitration", sorted(ARBITRATIONS))
def test_arbitrated_victims_are_resident(arbitration, selections):
    apps = [
        AppSpec("KM", scheme="MRD", partitions=8),
        AppSpec("PR", scheme="LRU", partitions=8),
        AppSpec("CC", scheme="MRD", partitions=8),
    ]
    MultiTenantSimulator(
        apps, TEST_CLUSTER.with_cache(16.0),
        arrivals=PoissonArrivals(rate=1.0, seed=3), arbitration=arbitration,
    ).run()
    assert selections["arbitrated-shared"] > 0
