"""The serving tier end to end: routing, certificate-gated admission,
shedding, deadlines, multi-tenancy, metrics — driven through
``ReproServer.handle`` (no sockets), plus one live-socket round trip."""

from __future__ import annotations

import asyncio
import http.client
import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serve import ReproServer, ServerConfig, Request, run_forever

DATE_QUERY = "Q(d) :- Accident(a, d, t), t = '1/5/2005'"
UNBOUNDED_QUERY = "Q(a) :- Casualty(c, a, cl, v)"


@pytest.fixture
def server(accident_db):
    return ReproServer(accident_db, ServerConfig(workers=2, queue_depth=2),
                       registry=MetricsRegistry())


def call(server: ReproServer, method: str, path: str,
         payload: dict | None = None):
    body = b"" if payload is None else json.dumps(payload).encode()
    raw = server.handle(Request(method, path, body=body))
    head, _, content = raw.partition(b"\r\n\r\n")
    status = int(head.split()[1])
    headers = dict(
        line.decode().split(": ", 1)
        for line in head.split(b"\r\n")[1:] if b": " in line)
    parsed = (json.loads(content)
              if headers.get("Content-Type", "").startswith(
                  "application/json") else content.decode())
    return status, headers, parsed


class TestRouting:
    def test_healthz(self, server):
        status, _, body = call(server, "GET", "/healthz")
        assert status == 200 and body == {"status": "ok"}

    def test_unknown_route_is_404(self, server):
        status, _, body = call(server, "GET", "/nope")
        assert status == 404 and "no route" in body["error"]

    def test_query_requires_post(self, server):
        status, _, _ = call(server, "GET", "/query")
        assert status == 405

    def test_malformed_body_is_400(self, server):
        status, _, _ = call(server, "POST", "/query")
        assert status == 400

    def test_query_needs_exactly_one_of_query_or_template(self, server):
        for payload in ({}, {"query": DATE_QUERY, "template": "x"}):
            payload = dict(payload)
            status, _, body = call(server, "POST", "/query", payload)
            assert status == 400


class TestQueryPath:
    def test_bounded_query_answers(self, server):
        status, _, body = call(server, "POST", "/query",
                               {"query": DATE_QUERY})
        assert status == 200
        assert body["bounded"] is True
        assert sorted(body["answers"]) == [["Queens Park"], ["Soho"]]
        assert body["count"] == 2

    def test_unbounded_query_falls_back_without_budget(self, server):
        status, _, body = call(server, "POST", "/query",
                               {"query": UNBOUNDED_QUERY})
        assert status == 200
        assert body["bounded"] is False
        assert body["fallback_reason"]

    def test_unparsable_query_is_400(self, server):
        status, _, body = call(server, "POST", "/query",
                               {"query": "this is not datalog"})
        assert status == 400

    def test_unknown_tenant_is_404(self, server):
        status, _, _ = call(server, "POST", "/query",
                            {"tenant": "ghost", "query": DATE_QUERY})
        assert status == 404

    def test_templates_register_and_execute(self, server):
        status, _, body = call(
            server, "POST", "/templates",
            {"name": "by_date",
             "text": "Q(d) :- Accident(a, d, t), t = $date"})
        assert status == 200
        assert body["parameters"] == ["date"]
        status, _, body = call(
            server, "POST", "/query",
            {"template": "by_date", "params": {"date": "1/5/2005"}})
        assert status == 200
        assert sorted(body["answers"]) == [["Queens Park"], ["Soho"]]

    def test_expired_deadline_is_504_and_counted(self, server):
        status, _, body = call(
            server, "POST", "/query",
            {"query": DATE_QUERY, "timeout_ms": 1e-6})
        assert status == 504
        stats = server.tenants["default"].service.stats()
        assert stats.deadline_exceeded_requests == 1
        # And the exposition mirrors it.
        status, _, text = call(server, "GET", "/metrics")
        assert "repro_deadline_exceeded_requests_total 1" in text

    def test_bad_timeout_is_400(self, server):
        status, _, _ = call(server, "POST", "/query",
                            {"query": DATE_QUERY, "timeout_ms": -5})
        assert status == 400


class TestShedding:
    def test_full_admission_queue_sheds_with_retry_after(self, server):
        while server.admission.try_enter():
            pass  # occupy every slot
        status, headers, body = call(server, "POST", "/query",
                                     {"query": DATE_QUERY})
        assert status == 429
        assert headers["Retry-After"] == "1"
        assert "shed" in body["error"]
        stats = server.tenants["default"].service.stats()
        assert stats.shed_requests == 1
        assert stats.requests == 0  # refused before execution


class TestSubmit:
    """The admission-aware dispatch the async loop and load
    generators use: the gate fires on the calling thread, before the
    thread pool."""

    def submit(self, server, method, path, payload=None):
        body = b"" if payload is None else json.dumps(payload).encode()
        raw = server.submit(Request(method, path, body=body)).result(10)
        return int(raw.split()[1]), raw

    def test_query_executes_on_the_pool(self, server):
        status, raw = self.submit(server, "POST", "/query",
                                  {"query": DATE_QUERY})
        assert status == 200
        assert b"Queens Park" in raw

    def test_non_query_routes_pass_through(self, server):
        status, _ = self.submit(server, "GET", "/healthz")
        assert status == 200

    def test_shed_resolves_without_touching_the_pool(self, server):
        while server.admission.try_enter():
            pass
        status, raw = self.submit(server, "POST", "/query",
                                  {"query": DATE_QUERY})
        assert status == 429 and b"Retry-After" in raw
        assert server.tenants["default"].service.stats().shed_requests == 1

    def test_inflight_released_after_completion(self, server):
        futures = [server.submit(Request(
            "POST", "/query",
            body=json.dumps({"query": DATE_QUERY}).encode()))
            for _ in range(3)]
        for future in futures:
            future.result(10)
        assert server.admission.inflight == 0
        assert server.admission.admitted_total == 3

    def test_parse_errors_resolve_immediately(self, server):
        status, _ = self.submit(server, "POST", "/query", None)
        assert status == 400
        status, _ = self.submit(server, "POST", "/query",
                                {"tenant": "ghost", "query": DATE_QUERY})
        assert status == 404


class TestBudgetGate:
    def test_over_budget_is_429_before_execution(self, accident_db):
        server = ReproServer(
            accident_db, ServerConfig(workers=2, default_budget=5))
        status, headers, body = call(server, "POST", "/query",
                                     {"query": DATE_QUERY})
        assert status == 429
        assert headers["Retry-After"] == "1"
        assert body["bound"] > 5
        stats = server.tenants["default"].service.stats()
        assert stats.rejected_requests == 1
        assert stats.requests == 0

    def test_uncertified_query_refused_under_finite_budget(
            self, accident_db):
        server = ReproServer(
            accident_db, ServerConfig(workers=2, default_budget=10_000))
        status, _, body = call(server, "POST", "/query",
                               {"query": UNBOUNDED_QUERY})
        assert status == 429
        assert "no cost certificate" in body["error"]

    def test_within_budget_executes(self, accident_db):
        server = ReproServer(
            accident_db, ServerConfig(workers=2, default_budget=10_000))
        status, _, body = call(server, "POST", "/query",
                               {"query": DATE_QUERY})
        assert status == 200
        assert body["certified_fetch_bound"] <= 10_000


class TestTenants:
    CONSTRAINTS = [["Accident", ["date"], ["aid"], 610],
                   ["Accident", ["aid"], ["district", "date"], 1]]

    def test_register_and_query_as_tenant(self, server):
        status, _, body = call(server, "POST", "/tenants",
                               {"name": "acme", "budget": 10_000,
                                "constraints": self.CONSTRAINTS})
        assert status == 200 and body["tenant"] == "acme"
        status, _, body = call(server, "POST", "/query",
                               {"tenant": "acme", "query": DATE_QUERY})
        assert status == 200
        assert sorted(body["answers"]) == [["Queens Park"], ["Soho"]]

    def test_tenant_budget_gates_independently(self, server):
        call(server, "POST", "/tenants",
             {"name": "small", "budget": 3,
              "constraints": self.CONSTRAINTS})
        status, _, _ = call(server, "POST", "/query",
                            {"tenant": "small", "query": DATE_QUERY})
        assert status == 429  # small tenant over budget
        status, _, _ = call(server, "POST", "/query",
                            {"query": DATE_QUERY})
        assert status == 200  # default tenant unaffected
        payload = server.stats_payload()
        assert payload["tenants"]["small"]["rejected_requests"] == 1
        assert payload["tenants"]["default"]["rejected_requests"] == 0

    def test_duplicate_or_malformed_registration_is_400(self, server):
        call(server, "POST", "/tenants",
             {"name": "acme", "constraints": self.CONSTRAINTS})
        for payload in (
                {"name": "acme", "constraints": self.CONSTRAINTS},
                {"constraints": self.CONSTRAINTS},
                {"name": "x", "constraints": []},
                {"name": "x", "constraints": [["Accident", "bad"]]},
                {"name": "x", "budget": -1,
                 "constraints": self.CONSTRAINTS}):
            status, _, _ = call(server, "POST", "/tenants", payload)
            assert status == 400


class TestStatsAndMetrics:
    def test_stats_payload_shape(self, server):
        call(server, "POST", "/query", {"query": DATE_QUERY})
        status, _, payload = call(server, "GET", "/stats")
        assert status == 200
        assert payload["tenants"]["default"]["requests"] == 1
        assert payload["admission"]["max_inflight"] == 4
        assert set(payload["housekeeping"]) == {"stats_flush",
                                                "peer_health"}

    def test_stats_count_shape_hits(self, server):
        call(server, "POST", "/query", {"query": DATE_QUERY})
        before = server.stats_payload()["tenants"]["default"]
        status, _, body = call(server, "POST", "/query", {
            "query": DATE_QUERY.replace("1/5/2005", "1/6/2005")})
        assert status == 200 and body["plan_cached"] is True
        after = server.stats_payload()["tenants"]["default"]
        assert after["plan_cache_shape_misses"] == before[
            "plan_cache_shape_misses"] == 1
        assert after["plan_cache_shape_hits"] > before[
            "plan_cache_shape_hits"]

    def test_metrics_exposition_includes_all_layers(self, server):
        call(server, "POST", "/query", {"query": DATE_QUERY})
        status, _, text = call(server, "GET", "/metrics")
        assert status == 200
        for family in ("repro_requests_total", "repro_shed_requests_total",
                       "repro_rejected_requests_total",
                       "repro_deadline_exceeded_requests_total",
                       "repro_serve_inflight", "repro_db_rows",
                       "repro_housekeeping_runs_total"):
            assert family in text, family

    def test_housekeeping_handlers_run_clean(self, server):
        # Drive every registered handler once, synchronously; none may
        # error against a live database.
        for handler in server.housekeeper._handlers.values():
            handler.next_due = 0.0
        assert server.housekeeper.run_due() == 2
        report = server.housekeeper.report()
        assert all(entry["errors"] == 0 for entry in report.values())


class TestLiveSocket:
    def test_round_trip_with_keep_alive(self, accident_db):
        server = ReproServer(accident_db,
                             ServerConfig(port=18931, workers=2))

        async def go():
            ready = asyncio.Event()
            task = asyncio.ensure_future(run_forever(server, ready=ready))
            await asyncio.wait_for(ready.wait(), timeout=10)

            def client():
                conn = http.client.HTTPConnection("127.0.0.1", 18931,
                                                  timeout=10)
                conn.request("POST", "/query",
                             body=json.dumps({"query": DATE_QUERY}))
                first = conn.getresponse()
                one = json.loads(first.read())
                # Same connection again: keep-alive works.
                conn.request("GET", "/stats")
                second = json.loads(conn.getresponse().read())
                conn.close()
                return first.status, one, second

            status, one, stats = await asyncio.get_running_loop(
                ).run_in_executor(None, client)
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
            return status, one, stats

        status, one, stats = asyncio.run(go())
        assert status == 200
        assert sorted(one["answers"]) == [["Queens Park"], ["Soho"]]
        assert stats["tenants"]["default"]["requests"] == 1
