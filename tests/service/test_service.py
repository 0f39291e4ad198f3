"""BoundedQueryService: correctness vs. the naive evaluator, batches,
counters and error paths.

The load-bearing property (ISSUE acceptance): **cached results are
bit-identical to uncached execution**, across random data, random
bindings and interleaved writes — checked here against
``repro.engine.naive``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import (AccessConstraint, AccessSchema, Database, Schema,
                   ServiceError)
from repro.engine.naive import evaluate
from repro.query import parse_query
from repro.service import BatchRequest, BoundedQueryService

from concurrent_reads import read_concurrently

TEMPLATE = "Q(z) :- R(x, y), S(y, z), x = $a"


def make_db(r_rows, s_rows) -> Database:
    schema = Schema.from_dict({"R": ("A", "B"), "S": ("B", "C")})
    access = AccessSchema(schema, [
        AccessConstraint("R", ("A",), ("B",), 3),
        AccessConstraint("S", ("B",), ("C",), 2),
    ])
    db = Database(schema, access)
    db.insert_many("R", r_rows)
    db.insert_many("S", s_rows)
    return db


def bounded_rows(pairs, bound):
    """Keep at most ``bound`` distinct second components per first
    component, so the instance satisfies the access schema."""
    kept, seen = [], {}
    for x, y in pairs:
        group = seen.setdefault(x, set())
        if y in group or len(group) < bound:
            group.add(y)
            kept.append((x, y))
    return kept


small_int = st.integers(0, 5)
row = st.tuples(small_int, small_int)


class TestPropertyCachedEqualsUncachedEqualsNaive:
    @settings(max_examples=60, deadline=None)
    @given(r_rows=st.lists(row, max_size=20),
           s_rows=st.lists(row, max_size=20),
           bindings=st.lists(small_int, min_size=1, max_size=8),
           inserts=st.lists(row, max_size=4))
    def test_template_traffic_with_interleaved_writes(
            self, r_rows, s_rows, bindings, inserts):
        db = make_db(bounded_rows(r_rows, 3), bounded_rows(s_rows, 2))
        service = BoundedQueryService(db)
        template = service.register_template("t", TEMPLATE)
        assert template.bounded
        inserts = iter(bounded_rows(inserts, 1))
        for index, a in enumerate(bindings):
            result = service.execute_template("t", {"a": a})
            naive = evaluate(
                parse_query(f"Q(z) :- R(x, y), S(y, z), x = {a}"), db)
            assert result.answers == naive
            # Same binding again, now definitely cache-served.
            warm = service.execute_template("t", {"a": a})
            assert warm.answers == naive
            if index % 2 == 1:
                fresh = next(inserts, None)
                if fresh is not None:
                    x, y = fresh
                    group = {b for a2, b in db.relation_tuples("R")
                             if a2 == x}
                    if y in group or len(group) < 3:
                        db.insert("R", (x, y))  # stays within A

    @settings(max_examples=30, deadline=None)
    @given(r_rows=st.lists(row, max_size=16), a=small_int)
    def test_raw_query_warm_equals_cold(self, r_rows, a):
        db = make_db(bounded_rows(r_rows, 3), [])
        service = BoundedQueryService(db)
        text = f"Q(y) :- R(x, y), x = {a}"
        cold = service.execute(text)
        warm = service.execute(text)
        naive = evaluate(parse_query(text), db)
        assert cold.answers == warm.answers == naive
        assert warm.plan_cached


class TestBatch:
    @pytest.fixture
    def service(self):
        db = make_db([(1, 10), (1, 11), (2, 10)],
                     [(10, 0), (10, 1), (11, 2)])
        svc = BoundedQueryService(db)
        svc.register_template("t", TEMPLATE)
        return svc

    def test_concurrent_equals_sequential(self, service):
        requests = [BatchRequest(template="t", params={"a": a % 3})
                    for a in range(30)]
        sequential = service.execute_batch(requests)
        concurrent, errors = read_concurrently(
            service, "t", [request.params for request in requests],
            threads=8)
        assert sequential.errors == len(errors) == 0
        for left, right in zip(sequential.outcomes, concurrent):
            assert left.result.answers == right.answers

    def test_report_metrics(self, service):
        requests = [BatchRequest(template="t", params={"a": 1})
                    for _ in range(10)]
        report = service.execute_batch(requests)
        assert report.requests == 10
        assert report.bounded_requests == 10
        assert report.p50_ms > 0
        assert report.p95_ms >= report.p50_ms
        assert report.throughput_rps > 0
        totals = report.access_totals()
        assert totals.tuples_from_cache > 0
        assert 0 < report.fetch_cache_hit_rate <= 1

    def test_errors_are_contained(self, service):
        requests = [
            BatchRequest(template="t", params={"a": 1}),
            BatchRequest(template="missing", params={}),
            BatchRequest(template="t", params={"bogus": 1}),
        ]
        report = service.execute_batch(requests)
        assert report.errors == 2
        assert report.outcomes[0].ok
        assert "unknown template" in report.outcomes[1].error
        assert "missing bindings" in report.outcomes[2].error

    def test_fail_fast_raises(self, service):
        with pytest.raises(ServiceError):
            service.execute_batch(
                [BatchRequest(template="missing", params={})],
                fail_fast=True)

    def test_request_needs_exactly_one_kind(self):
        with pytest.raises(ValueError):
            BatchRequest()
        with pytest.raises(ValueError):
            BatchRequest(query="Q(x) :- R(x, y)", template="t")


class TestServiceLifecycle:
    def test_requires_an_access_schema(self):
        schema = Schema.from_dict({"R": ("A", "B")})
        with pytest.raises(ServiceError, match="no access schema"):
            BoundedQueryService(Database(schema))

    def test_counters_track_modes(self):
        db = make_db([(1, 10)], [(10, 0)])
        service = BoundedQueryService(db)
        service.execute("Q(y) :- R(x, y), x = 1")      # bounded
        service.execute("Q(x, y) :- R(x, y)")          # fallback scan
        stats = service.stats()
        assert stats.requests == 2
        assert stats.bounded_requests == 1
        assert stats.fallback_requests == 1
        assert stats.plan_cache.misses == 2

    def test_fallback_reports_scan_stats(self):
        db = make_db([(1, 10), (2, 11)], [])
        service = BoundedQueryService(db)
        result = service.execute("Q(x, y) :- R(x, y)")
        assert not result.bounded
        assert result.reason
        assert result.scan_stats.tuples_scanned > 0
        assert result.answers == {(1, 10), (2, 11)}

    def test_clear_caches_keeps_templates_working(self):
        db = make_db([(1, 10)], [(10, 0)])
        service = BoundedQueryService(db)
        service.register_template("t", TEMPLATE)
        before = service.execute_template("t", {"a": 1}).answers
        service.clear_caches()
        assert service.execute_template("t", {"a": 1}).answers == before

    def test_rejects_explicitly_empty_access_schema(self):
        db = make_db([(1, 10)], [(10, 0)])
        empty = AccessSchema(db.schema, [])
        with pytest.raises(ServiceError, match="empty"):
            BoundedQueryService(db, access_schema=empty)
        # The rejection must not have replaced the database's indexes.
        assert len(db.access_schema) == 2
        assert BoundedQueryService(db).execute(
            "Q(y) :- R(x, y), x = 1").bounded

    def test_attaches_explicit_access_schema(self):
        schema = Schema.from_dict({"R": ("A", "B")})
        db = Database(schema)
        db.insert("R", (1, 2))
        access = AccessSchema(schema, [
            AccessConstraint("R", ("A",), ("B",), 2)])
        service = BoundedQueryService(db, access_schema=access)
        assert service.execute("Q(y) :- R(x, y), x = 1").answers == {(2,)}


class TestPhysicalPlanCaching:
    def test_warm_requests_reuse_physical_plans_without_reoptimizing(
            self, monkeypatch):
        """The optimizer runs exactly once per compiled query; warm
        template requests bind the cached physical plan."""
        import repro.service.plancache as plancache

        calls = []
        real_optimize = plancache.optimize

        def counting_optimize(plan, statistics=None, **kwargs):
            calls.append(plan.name)
            return real_optimize(plan, statistics, **kwargs)

        monkeypatch.setattr(plancache, "optimize", counting_optimize)
        db = make_db([(1, 10), (2, 11)], [(10, 0), (11, 1)])
        service = BoundedQueryService(db)
        service.register_template("t", TEMPLATE)
        assert len(calls) == 1
        first = service.execute_template("t", {"a": 1})
        second = service.execute_template("t", {"a": 1})
        third = service.execute_template("t", {"a": 2})
        assert len(calls) == 1  # optimization never re-ran
        assert first.answers == second.answers == {(0,)}
        assert third.answers == {(1,)}

    def test_compiled_entries_carry_executable_physical_plans(self):
        from repro.engine.optimizer import PhysicalPlan

        db = make_db([(1, 10)], [(10, 7)])
        service = BoundedQueryService(db)
        entry = service.compile("Q(z) :- R(x, y), S(y, z), x = 1")
        assert entry.bounded
        assert isinstance(entry.physical, PhysicalPlan)
        assert entry.physical.trace is not None
        # The physical plan is what the hot path executes.
        result = service.execute("Q(z) :- R(x, y), S(y, z), x = 1")
        assert result.answers == {(7,)}

    def test_unbounded_entries_have_no_physical_plan(self):
        db = make_db([(1, 10)], [(10, 7)])
        service = BoundedQueryService(db)
        entry = service.compile("Q(x, y) :- R(x, y)")
        assert not entry.bounded
        assert entry.physical is None


class TestObservability:
    def test_service_result_requires_exactly_one_accounting(self):
        from repro.engine.executor import AccessStats
        from repro.engine.naive import ScanStats
        from repro.service import ServiceResult

        common = dict(answers=set(), bounded=True, plan_cached=False,
                      latency_s=0.01)
        ServiceResult(stats=AccessStats(), **common)  # bounded: ok
        ServiceResult(scan_stats=ScanStats(), **common)  # fallback: ok
        with pytest.raises(ValueError, match="got neither"):
            ServiceResult(**common)
        with pytest.raises(ValueError, match="got both"):
            ServiceResult(stats=AccessStats(), scan_stats=ScanStats(),
                          **common)

    def test_registry_counts_requests_and_caches(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        db = make_db([(1, 10), (2, 11)], [(10, 0), (11, 1)])
        service = BoundedQueryService(db, registry=registry)
        service.register_template("t", TEMPLATE)
        service.execute_template("t", {"a": 1})
        service.execute_template("t", {"a": 1})
        service.execute("Q(x, y) :- R(x, y)")  # scan fallback

        flat = registry.as_flat_dict()
        assert flat["repro_requests_total"] == 3
        assert flat["repro_bounded_requests_total"] == 2
        assert flat["repro_fallback_requests_total"] == 1
        assert flat["repro_plan_cached_requests_total"] >= 2
        assert flat["repro_request_latency_seconds_count"] == 3
        assert flat["repro_scan_tuples_total"] > 0
        assert flat["repro_tuples_fetched_total"] > 0
        # Warm repeat was served from the fetch cache, and the cache
        # collector mirrors the hit into the registry.
        assert flat["repro_tuples_from_cache_total"] > 0
        assert flat["repro_fetch_cache_hits_total"] > 0
        assert flat["repro_db_rows"] == db.size()
        # Per-op executor tallies surface as labeled counters.
        assert any(key.startswith("repro_executor_ops_total.op=")
                   for key in flat)

    def test_stats_include_storage_counters(self, tmp_path):
        from repro.storage.disk import DiskBackend

        db = make_db([(1, 10)], [(10, 7)])
        schema = db.schema
        disk = Database(schema, db.access_schema,
                        backend=DiskBackend(schema, tmp_path / "data"))
        disk.insert_many("R", [(1, 10)])
        disk.insert_many("S", [(10, 7)])
        service = BoundedQueryService(disk)
        service.execute("Q(z) :- R(x, y), S(y, z), x = 1")
        storage = service.stats().storage
        assert storage["wal_records_total"] > 0
        assert storage["dictionary_size"] > 0  # from the base backend
        assert "storage:" in str(service.stats())
        # The memory backend reports only the shared dictionary size.
        memory_service = BoundedQueryService(db)
        assert memory_service.stats().storage == {
            "dictionary_size": len(db.dictionary)}
        disk.backend.close()
