"""SessionPool accounting under KB-fingerprint churn and shape churn.

Regression suite for two pool policies:

1. Checkin evicts the *oldest* idle session when the pool is full
   (counted in ``evictions``), never the incoming one — the historical
   bug let unreachable sessions squat and pin the hit rate to zero.
2. Checkout *re-keys* idle sessions whose scoped fingerprint a KB delta
   changed (counted in ``rekeyed``) instead of discarding them: the
   session absorbs the delta on its next view (adopt / guard-group
   patch / full rebase), so KB churn no longer cold-starts the pool.
   ``stale_purged`` stays for legacy accounting and is expected to be 0
   under delta-journaled mutation.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import replace

import pytest

from repro.core.design import DesignRequest
from repro.core.query import Query
from repro.kb.hardware import Hardware, NICSpec, ServerSpec
from repro.kb.registry import KnowledgeBase
from repro.kb.rules import Rule
from repro.kb.system import System
from repro.kb.workload import Workload
from repro.logic.ast import TRUE
from repro.serve.pool import SessionPool

pytestmark = pytest.mark.timeout(120)


def _kb() -> KnowledgeBase:
    kb = KnowledgeBase()
    kb.add_system(System(
        name="Stack", category="network_stack",
        solves=["packet_processing"], requires=TRUE,
    ))
    kb.add_hardware(Hardware(
        spec=NICSpec(model="NIC", rate_gbps=25, power_w=10, cost_usd=200),
        max_units=4,
    ))
    kb.add_hardware(Hardware(
        spec=ServerSpec(model="Box", cores=32, mem_gb=128, power_w=400,
                        cost_usd=5000),
        max_units=4,
    ))
    return kb


def _query(shape: str = "app") -> Query:
    return Query("check", DesignRequest(workloads=[
        Workload(name=shape, objectives=["packet_processing"]),
    ]))


def _roundtrip(pool: SessionPool, kb: KnowledgeBase, query: Query,
               kb_name: str = "default"):
    pooled = pool.checkout(kb_name, kb, query)
    result = pooled.execute(query)
    pool.checkin(pooled)
    return result


class TestFingerprintChurn:
    def test_stale_sessions_never_outlive_the_lru_bound(self):
        """Mutating the KB between requests cannot wedge the pool."""
        kb = _kb()
        pool = SessionPool(max_sessions=2)
        query = _query()
        for i in range(6):
            # Every mutation changes the scoped fingerprint; checkout
            # re-keys the idle session, which absorbs the delta.
            kb.add_rule(Rule(name=f"churn_{i}", formula=TRUE))
            assert _roundtrip(pool, kb, query).feasible
        stats = pool.stats_dict()
        assert stats["idle"] <= 2
        assert stats["size"] <= 2
        # Every idle key is addressable under the *current* KB state.
        current = SessionPool.key_for("default", kb, query)[1]
        with pool._lock:
            assert all(key[1] == current for key in pool._idle)

    def test_churn_rekeys_instead_of_purging(self):
        """A KB delta keeps warm sessions: re-key + in-place absorb."""
        kb = _kb()
        pool = SessionPool(max_sessions=2)
        query = _query()
        rounds = 5
        _roundtrip(pool, kb, query)
        for i in range(rounds):
            kb.add_rule(Rule(name=f"churn_{i}", formula=TRUE))
            assert _roundtrip(pool, kb, query).feasible
        stats = pool.stats_dict()
        # One compile total: every later round re-keys the warm session
        # (a pool hit) and the session patches the new rule in place.
        assert stats["misses"] == 1
        assert stats["hits"] == rounds
        assert stats["rekeyed"] == rounds
        assert stats["stale_purged"] == 0
        assert stats["evictions"] == 0
        assert stats["discarded_overflow"] == 0

    def test_rekeyed_session_absorbs_instead_of_recompiling(self):
        kb = _kb()
        pool = SessionPool(max_sessions=2)
        query = _query()
        pooled = pool.checkout("default", kb, query)
        pooled.execute(query)
        pool.checkin(pooled)
        kb.add_rule(Rule(name="churn", formula=TRUE))
        pooled = pool.checkout("default", kb, query)
        assert pooled.execute(query).feasible
        stats = pooled.session.stats
        assert stats.compiles == 1
        assert stats.rebases == 0
        assert stats.rebases_patched == 1
        pool.checkin(pooled)

    def test_delta_decisions_are_summed_on_the_pool(self):
        """``adopted``/``patched``/``rebased``/``compiles`` on the pool
        fold in each checked-in session's absorb decisions."""
        kb = _kb()
        pool = SessionPool(max_sessions=2)
        query = _query()
        _roundtrip(pool, kb, query)
        kb.add_rule(Rule(name="churn", formula=TRUE))
        _roundtrip(pool, kb, query)
        nic = kb.hardware["NIC"]
        kb.upsert_hardware(replace(nic, spec=replace(nic.spec, power_w=12)))
        _roundtrip(pool, kb, query)
        kb.add_system(System(
            name="Late", category="network_stack",
            solves=["packet_processing"], requires=TRUE,
        ))
        _roundtrip(pool, kb, query)
        stats = pool.stats_dict()
        assert (stats["adopted"], stats["patched"], stats["rebased"],
                stats["compiles"]) == (0, 2, 1, 2)

    def test_pool_recovers_hits_after_churn_stops(self):
        """The regression: stale squatters used to pin the hit rate at 0."""
        kb = _kb()
        pool = SessionPool(max_sessions=2)
        query = _query()
        for i in range(3):
            _roundtrip(pool, kb, query)
            kb.add_rule(Rule(name=f"churn_{i}", formula=TRUE))
        # Churn stops; the very next repeat request must be a hit.
        _roundtrip(pool, kb, query)
        assert _roundtrip(pool, kb, query).feasible
        stats = pool.stats_dict()
        assert stats["hits"] >= 1

    def test_churn_on_one_kb_leaves_other_kbs_sessions_alone(self):
        kb_a, kb_b = _kb(), _kb()
        kb_b.add_rule(Rule(name="distinct", formula=TRUE))
        pool = SessionPool(max_sessions=4)
        query = _query()
        _roundtrip(pool, kb_a, query, kb_name="a")
        _roundtrip(pool, kb_b, query, kb_name="b")
        kb_a.add_rule(Rule(name="churn", formula=TRUE))
        _roundtrip(pool, kb_a, query, kb_name="a")
        stats = pool.stats_dict()
        assert stats["rekeyed"] == 1  # only kb_a's session re-keyed
        assert stats["stale_purged"] == 0
        # Both KBs' warm sessions hit.
        assert pool.stats_dict()["hits"] == 1
        _roundtrip(pool, kb_b, query, kb_name="b")
        assert pool.stats_dict()["hits"] == 2


class TestCheckinEviction:
    def test_full_pool_evicts_oldest_not_incoming(self):
        kb = _kb()
        pool = SessionPool(max_sessions=1)
        old_query, new_query = _query("old"), _query("new")
        _roundtrip(pool, kb, old_query)
        _roundtrip(pool, kb, new_query)
        stats = pool.stats_dict()
        # The newest session is retained; the oldest was evicted.
        assert stats["evictions"] == 1
        assert stats["discarded_overflow"] == 0
        _roundtrip(pool, kb, new_query)
        assert pool.stats_dict()["hits"] == 1

    def test_zero_capacity_pool_discards_incoming(self):
        kb = _kb()
        pool = SessionPool(max_sessions=0)
        _roundtrip(pool, kb, _query())
        stats = pool.stats_dict()
        assert stats["idle"] == 0
        assert stats["discarded_overflow"] == 1
        assert stats["evictions"] == 0


class TestConcurrentAccounting:
    def test_compile_counts_survive_concurrent_checkins(self):
        """Every session compiles once on first use, so with no KB churn
        the pool's ``compiles`` must equal its ``misses`` however the
        checkins interleave."""
        kb = _kb()
        pool = SessionPool(max_sessions=2)
        queries = [_query("a"), _query("b"), _query("c")]
        errors: list[BaseException] = []

        def client(index: int) -> None:
            try:
                for step in range(6):
                    _roundtrip(pool, kb, queries[(index + step) % 3])
            except BaseException as exc:  # surfaced by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        stats = pool.stats_dict()
        assert stats["hits"] + stats["misses"] == 24
        assert stats["compiles"] == stats["misses"]
        assert (stats["adopted"], stats["patched"], stats["rebased"]) == (
            0, 0, 0
        )
