"""End-to-end CLI tests: analyze / run / discover / batch / bench-service
against a database directory on disk, via ``repro.cli.main``."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.storage.io import save_database


@pytest.fixture
def db_dir(accident_db, tmp_path):
    directory = tmp_path / "db"
    save_database(accident_db, directory)
    return str(directory)


Q0 = ("Q0(xa) :- Accident(aid, 'Queens Park', '1/5/2005'), "
      "Casualty(cid, aid, class, vid), Vehicle(vid, dri, xa)")
UNCOVERED = "Q(x) :- Casualty(cid, aid, cl, x)"


def test_analyze_bounded(db_dir, capsys):
    assert main(["analyze", "--db", db_dir, Q0]) == 0
    out = capsys.readouterr().out
    assert "BEP: yes" in out
    assert "fetch bound" in out


def test_analyze_uncovered_reports_envelopes(db_dir, capsys):
    assert main(["analyze", "--db", db_dir, UNCOVERED]) == 1
    out = capsys.readouterr().out
    assert "upper envelope" in out
    assert "lower envelope" in out


def test_explain_bounded_shows_full_pipeline(db_dir, capsys):
    assert main(["explain", "--db", db_dir, Q0]) == 0
    out = capsys.readouterr().out
    # The four sections: verdict + logical plan, rule trace, physical
    # plan, and the static cost estimate.
    assert "BEP: yes" in out
    assert "logical plan" in out
    assert "optimizer:" in out and "fired rules:" in out
    assert "physical plan" in out
    assert "cost estimate:" in out
    # The rules that must fire on the paper's Q0 join plan.
    assert "product-to-hash-join" in out
    assert "select-into-fetch" in out and "key-projection" in out
    physical = out.split("physical plan")[1]
    assert "semi-join(" in physical and "fused-fetch(" in physical
    # The logical IR's products are gone from the physical plan.
    assert " x " in out.split("optimizer:")[0]
    assert "cross(" not in out.split("physical plan")[1]


def test_explain_is_stable_for_a_fixed_query(db_dir, capsys):
    assert main(["explain", "--db", db_dir, Q0]) == 0
    first = capsys.readouterr().out
    assert main(["explain", "--db", db_dir, Q0]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_explain_uncovered_exits_nonzero(db_dir, capsys):
    assert main(["explain", "--db", db_dir, UNCOVERED]) == 1
    out = capsys.readouterr().out
    assert "BEP: no" in out
    assert "no bounded plan to explain" in out


def test_explain_missing_db_is_actionable(tmp_path, capsys):
    missing = str(tmp_path / "nowhere")
    assert main(["explain", "--db", missing, Q0]) == 2
    assert "no such database directory" in capsys.readouterr().err


def test_run_bounded_matches_expected_answers(db_dir, capsys):
    assert main(["run", "--db", db_dir, Q0]) == 0
    out = capsys.readouterr().out
    assert "bounded plan" in out
    # Queens Park on 1/5/2005 is accident a1 with drivers aged 34, 51.
    assert "(34,)" in out and "(51,)" in out
    assert "2 answer(s)" in out


def test_run_falls_back_to_scan(db_dir, capsys):
    assert main(["run", "--db", db_dir, UNCOVERED]) == 0
    out = capsys.readouterr().out
    assert "falling back to a full scan" in out
    assert "5 answer(s)" in out


def test_run_procshard_backend_same_answers(db_dir, capsys):
    assert main(["run", "--db", db_dir, Q0]) == 0
    memory_out = capsys.readouterr().out
    assert main(["run", "--db", db_dir, "--backend", "procshard",
                 "--shard-workers", "2", Q0]) == 0
    out = capsys.readouterr().out
    assert "storage: procshard(workers=2, replicas=0" in out
    assert "(34,)" in out and "(51,)" in out
    assert "2 answer(s)" in out
    # Identical access accounting across process boundaries.
    assert memory_out.split("storage: memory\n")[1].splitlines()[0] == \
        out.split("\n", 1)[1].splitlines()[0]


def test_run_procshard_with_replicas(db_dir, tmp_path, capsys):
    data_dir = str(tmp_path / "durable")
    assert main(["run", "--db", db_dir, "--backend", "procshard",
                 "--shard-workers", "2", "--replicas", "1",
                 "--data-dir", data_dir, Q0]) == 0
    out = capsys.readouterr().out
    assert "replicas=1" in out and "store=disk" in out
    assert "(34,)" in out and "(51,)" in out


def test_run_procshard_replicas_without_data_dir_is_actionable(
        db_dir, capsys):
    assert main(["run", "--db", db_dir, "--backend", "procshard",
                 "--replicas", "1", Q0]) == 2
    assert "--data-dir" in capsys.readouterr().err


def test_run_procshard_zero_workers_is_rejected(db_dir, capsys):
    assert main(["run", "--db", db_dir, "--backend", "procshard",
                 "--shard-workers", "0", Q0]) == 2
    assert "at least one worker process" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["--backend", "sharded"],
    ["--shards", "4"],
    ["--shard-threads", "2"],
], ids=["backend-sharded", "shards", "shard-threads"])
def test_run_rejects_removed_thread_sharded_options(db_dir, capsys, args):
    """The thread-sharded engine and its flags are gone: argparse
    refuses them with its usage error rather than ignoring them."""
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--db", db_dir, *args, Q0])
    assert exit_info.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_run_disk_backend_same_answers_and_recovers(db_dir, tmp_path,
                                                    capsys):
    data_dir = str(tmp_path / "durable")
    assert main(["run", "--db", db_dir, "--backend", "disk",
                 "--data-dir", data_dir, Q0]) == 0
    first = capsys.readouterr().out
    assert "storage: disk(" in first
    assert "(34,)" in first and "(51,)" in first
    assert "2 answer(s)" in first
    # Second run recovers the same directory (WAL replay + set-semantics
    # reload) and answers identically.
    assert main(["run", "--db", db_dir, "--backend", "disk",
                 "--data-dir", data_dir, Q0]) == 0
    second = capsys.readouterr().out
    assert "(34,)" in second and "(51,)" in second
    assert "2 answer(s)" in second


def test_run_disk_backend_without_data_dir_is_actionable(db_dir, capsys):
    assert main(["run", "--db", db_dir, "--backend", "disk", Q0]) == 2
    assert "--data-dir" in capsys.readouterr().err


def test_bench_service_disk_backend(db_dir, tmp_path, capsys):
    assert main(["bench-service", "--db", db_dir, "--backend", "disk",
                 "--data-dir", str(tmp_path / "durable"),
                 "--requests", "3", Q0]) == 0
    out = capsys.readouterr().out
    assert "storage: disk(" in out
    assert "2 answer(s)" in out


def test_batch_disk_backend(db_dir, tmp_path, capsys):
    requests = tmp_path / "requests.json"
    requests.write_text(json.dumps({
        "requests": [
            {"query": "Q(d) :- Accident(aid, d, t), aid = 'a4'"},
        ],
    }))
    assert main(["batch", "--db", db_dir, "--backend", "disk",
                 "--data-dir", str(tmp_path / "durable"),
                 str(requests)]) == 0
    out = capsys.readouterr().out
    assert "1 answer(s) [bounded" in out


def test_discover_prints_constraints(db_dir, capsys):
    assert main(["discover", "--db", db_dir]) == 0
    out = capsys.readouterr().out
    assert "constraints (max bound" in out
    assert "Accident(" in out


def test_batch_end_to_end(db_dir, tmp_path, capsys):
    requests = tmp_path / "requests.json"
    requests.write_text(json.dumps({
        "templates": {
            "drivers": ("Q(xa) :- Accident(aid, d, t), "
                        "Casualty(cid, aid, class, vid), "
                        "Vehicle(vid, dri, xa), d = $district, t = $date"),
        },
        "requests": [
            {"template": "drivers",
             "params": {"district": "Queens Park", "date": "1/5/2005"}},
            {"template": "drivers",
             "params": {"district": "Soho", "date": "1/5/2005"}},
            {"query": "Q(d) :- Accident(aid, d, t), aid = 'a4'"},
        ],
    }))
    assert main(["batch", "--db", db_dir, str(requests)]) == 0
    out = capsys.readouterr().out
    assert "2 answer(s) [bounded" in out      # Queens Park drivers
    assert "3 requests (0 errors, 3 bounded)" in out
    assert "latency p50" in out
    assert "hit rate" in out


def test_batch_reports_per_request_errors(db_dir, tmp_path, capsys):
    requests = tmp_path / "requests.json"
    requests.write_text(json.dumps({
        "templates": {"t": "Q(d) :- Accident(aid, d, x), aid = $aid"},
        "requests": [
            {"template": "t", "params": {"wrong_name": 1}},
            {"template": "t", "params": {"aid": "a1"}},
        ],
    }))
    assert main(["batch", "--db", db_dir, str(requests)]) == 1
    out = capsys.readouterr().out
    assert "ERROR" in out and "$wrong_name" in out
    assert "2 requests (1 errors" in out


def test_batch_rejects_malformed_request_file(db_dir, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["batch", "--db", db_dir, str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_bench_service_reports_speedup(db_dir, capsys):
    assert main(["bench-service", "--db", db_dir, "--requests", "5",
                 Q0]) == 0
    out = capsys.readouterr().out
    assert "cold (parse + analyze + plan + execute)" in out
    assert "speedup" in out


def test_missing_database_directory_is_actionable(tmp_path, capsys):
    missing = str(tmp_path / "nowhere")
    assert main(["analyze", "--db", missing, "Q(x) :- R(x)"]) == 2
    err = capsys.readouterr().err
    assert "no such database directory" in err


# -- observability flags ------------------------------------------------------


def test_run_trace_tree_spans_sum_to_request_total(db_dir, tmp_path,
                                                   capsys):
    """The acceptance property for --trace: the request root's direct
    children (compile / bep_decision / execute ...) account for its
    total duration within tolerance — no large untraced gap."""
    trace_path = tmp_path / "trace.jsonl"
    assert main(["run", "--db", db_dir, "--trace", str(trace_path),
                 Q0]) == 0
    out = capsys.readouterr().out
    assert f"-> {trace_path}" in out
    assert "request" in out and "compile" in out  # rendered tree

    trees = [json.loads(line)
             for line in trace_path.read_text().splitlines()]
    assert len(trees) == 1
    root = trees[0]
    assert root["name"] == "request"
    stages = [child["name"] for child in root["children"]]
    assert stages[:2] == ["compile", "bep_decision"]
    assert "execute" in stages
    covered = sum(child["duration_ms"] for child in root["children"])
    assert covered <= root["duration_ms"] * 1.001 + 0.01
    assert covered >= root["duration_ms"] * 0.5, \
        f"untraced gap: children {covered}ms of {root['duration_ms']}ms"


def test_run_trace_fallback_has_execute_stage(db_dir, tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    assert main(["run", "--db", db_dir, "--trace", str(trace_path),
                 UNCOVERED]) == 0
    capsys.readouterr()
    root = json.loads(trace_path.read_text().splitlines()[0])
    stages = [child["name"] for child in root["children"]]
    assert "execute" in stages  # the scan fallback is traced too


def test_run_metrics_out_writes_valid_exposition(db_dir, tmp_path,
                                                 capsys):
    from repro.obs import validate_exposition

    metrics_path = tmp_path / "metrics.prom"
    assert main(["run", "--db", db_dir, "--metrics-out",
                 str(metrics_path), Q0]) == 0
    capsys.readouterr()
    text = metrics_path.read_text()
    assert validate_exposition(text, [
        "repro_requests_total", "repro_bounded_requests_total",
        "repro_request_latency_seconds", "repro_db_rows"]) == []
    assert "repro_requests_total 1" in text


def test_bench_service_metrics_out_and_trace(db_dir, tmp_path, capsys):
    from repro.obs import parse_exposition

    metrics_path = tmp_path / "metrics.prom"
    trace_path = tmp_path / "trace.jsonl"
    assert main(["bench-service", "--db", db_dir, "--requests", "4",
                 "--metrics-out", str(metrics_path),
                 "--trace", str(trace_path), Q0]) == 0
    capsys.readouterr()
    families = parse_exposition(metrics_path.read_text())
    # The cache-priming request plus the four measured ones.
    assert families["repro_requests_total"]["samples"][
        "repro_requests_total"] == 5.0
    assert "repro_fetch_cache_hit_rate" in families
    # One root span tree per traced request (prime + 4 warm).
    assert len(trace_path.read_text().splitlines()) == 5


def test_stats_subcommand_prints_exposition(db_dir, capsys):
    assert main(["stats", "--db", db_dir]) == 0
    out = capsys.readouterr().out
    assert "storage: memory" in out
    assert "repro_db_rows" in out


def test_stats_disk_backend_reports_storage_counters(db_dir, tmp_path,
                                                     capsys):
    data_dir = str(tmp_path / "durable")
    # First run materializes the disk directory via the WAL...
    assert main(["run", "--db", db_dir, "--backend", "disk",
                 "--data-dir", data_dir, Q0]) == 0
    capsys.readouterr()
    # ...and stats on a reopened engine shows the recovery counters.
    assert main(["stats", "--db", db_dir, "--backend", "disk",
                 "--data-dir", data_dir]) == 0
    out = capsys.readouterr().out
    assert "repro_storage_recovered_rows_total" in out
    assert "repro_storage_replay_records_total" in out
