"""The benchmark-trajectory gate must fail on counter regressions and
only warn on wall-clock deltas — proven here with injected regressions
against synthetic BENCH_*.json pairs."""

from __future__ import annotations

import copy
import importlib.util
import json
import pathlib
import sys

import pytest

_SCRIPT = (pathlib.Path(__file__).parents[2]
           / "benchmarks" / "check_trajectory.py")
spec = importlib.util.spec_from_file_location("check_trajectory", _SCRIPT)
check_trajectory = importlib.util.module_from_spec(spec)
# Registered before exec: @dataclass resolves types via sys.modules.
sys.modules["check_trajectory"] = check_trajectory
spec.loader.exec_module(check_trajectory)


BASELINE = {
    "experiment": "EXP-T",
    "title": "synthetic",
    "metrics": {
        "tuples_fetched": 4460,
        "index_lookups": 2919,
        "fetch_cache_hit_rate": 0.93,
        "warm_speedup": 11.7,
        "cold_ms_per_request": 2.27,
        "end_to_end_median_ms": {"memory": 14.6, "disk": 11.2},
        "rule_firings": {"dead-step": 299, "unit-product": 30},
    },
}


def write(directory, payload, name="BENCH_exp-t.json"):
    directory.mkdir(parents=True, exist_ok=True)
    (directory / name).write_text(json.dumps(payload))


@pytest.fixture
def dirs(tmp_path):
    baseline = tmp_path / "baseline"
    fresh = tmp_path / "fresh"
    write(baseline, BASELINE)
    return baseline, fresh


def run(baseline, fresh, capsys):
    code = check_trajectory.main(
        ["--baseline", str(baseline), "--fresh", str(fresh)])
    return code, capsys.readouterr().out


def fresh_payload(**metric_overrides):
    payload = copy.deepcopy(BASELINE)
    payload["metrics"].update(metric_overrides)
    return payload


class TestGate:
    def test_identical_results_pass(self, dirs, capsys):
        baseline, fresh = dirs
        write(fresh, fresh_payload())
        code, out = run(baseline, fresh, capsys)
        assert code == 0
        assert "0 regression(s)" in out

    def test_injected_counter_regression_fails(self, dirs, capsys):
        baseline, fresh = dirs
        write(fresh, fresh_payload(tuples_fetched=4700))
        code, out = run(baseline, fresh, capsys)
        assert code == 1
        assert "FAIL EXP-T tuples_fetched: counter regression" in out
        assert "4460 -> 4700" in out

    def test_nested_counter_regression_fails(self, dirs, capsys):
        baseline, fresh = dirs
        write(fresh, fresh_payload(
            rule_firings={"dead-step": 299, "unit-product": 45}))
        code, out = run(baseline, fresh, capsys)
        assert code == 1
        assert "FAIL EXP-T rule_firings.unit-product" in out

    def test_wallclock_inflation_only_warns(self, dirs, capsys):
        baseline, fresh = dirs
        write(fresh, fresh_payload(
            warm_speedup=3.0, cold_ms_per_request=9.99,
            end_to_end_median_ms={"memory": 80.0, "disk": 60.0}))
        code, out = run(baseline, fresh, capsys)
        assert code == 0
        assert "WARN EXP-T warm_speedup" in out
        assert "WARN EXP-T end_to_end_median_ms.memory" in out
        assert "FAIL" not in out

    def test_hit_rate_drop_fails_but_jitter_passes(self, dirs, capsys):
        baseline, fresh = dirs
        write(fresh, fresh_payload(fetch_cache_hit_rate=0.92))
        code, _ = run(baseline, fresh, capsys)
        assert code == 0  # within the jitter tolerance
        write(fresh, fresh_payload(fetch_cache_hit_rate=0.60))
        code, out = run(baseline, fresh, capsys)
        assert code == 1
        assert "FAIL EXP-T fetch_cache_hit_rate: rate dropped" in out

    def test_counter_improvement_warns_to_refresh_baseline(self, dirs,
                                                           capsys):
        baseline, fresh = dirs
        write(fresh, fresh_payload(index_lookups=2000))
        code, out = run(baseline, fresh, capsys)
        assert code == 0
        assert "refresh the committed baseline" in out

    def test_vanished_counter_subkey_warns_as_improvement(self, dirs,
                                                          capsys):
        # A rule that stops firing entirely builds no rule_firings
        # entry — an improvement to zero, not a broken run.
        baseline, fresh = dirs
        write(fresh, fresh_payload(rule_firings={"dead-step": 299}))
        code, out = run(baseline, fresh, capsys)
        assert code == 0
        assert "WARN EXP-T rule_firings.unit-product: counter absent" in out

    def test_vanished_wallclock_subkey_fails(self, dirs, capsys):
        # A timing config disappearing means the run changed shape.
        baseline, fresh = dirs
        write(fresh, fresh_payload(end_to_end_median_ms={"memory": 14.6}))
        code, out = run(baseline, fresh, capsys)
        assert code == 1
        assert "FAIL EXP-T end_to_end_median_ms.disk: missing" in out

    def test_missing_metric_fails(self, dirs, capsys):
        baseline, fresh = dirs
        payload = fresh_payload()
        del payload["metrics"]["index_lookups"]
        write(fresh, payload)
        code, out = run(baseline, fresh, capsys)
        assert code == 1
        assert "FAIL EXP-T index_lookups: missing" in out

    def test_missing_experiment_fails(self, dirs, capsys):
        baseline, fresh = dirs
        fresh.mkdir()
        code, out = run(baseline, fresh, capsys)
        assert code == 1
        assert "experiment missing from the fresh run" in out

    def test_new_experiment_and_metric_warn(self, dirs, capsys):
        baseline, fresh = dirs
        write(fresh, fresh_payload(brand_new_counter=1))
        extra = {"experiment": "EXP-NEW", "metrics": {"tuples": 5}}
        write(fresh, extra, name="BENCH_exp-new.json")
        code, out = run(baseline, fresh, capsys)
        assert code == 0
        assert "WARN EXP-T brand_new_counter" in out
        assert "WARN EXP-NEW" in out

    def test_missing_directory_is_usage_error(self, dirs, capsys):
        baseline, _ = dirs
        assert check_trajectory.main(
            ["--baseline", str(baseline),
             "--fresh", str(baseline / "nope")]) == 2


class TestHardGates:
    def gated_baseline(self):
        payload = copy.deepcopy(BASELINE)
        payload["gates"] = {"warm_ms": {"max_increase_pct": 2.0}}
        payload["metrics"]["warm_ms"] = 0.150
        return payload

    def test_gated_wallclock_within_bound_passes(self, tmp_path, capsys):
        baseline, fresh = tmp_path / "b", tmp_path / "f"
        write(baseline, self.gated_baseline())
        payload = self.gated_baseline()
        payload["metrics"]["warm_ms"] = 0.152  # +1.3%, inside the gate
        write(fresh, payload)
        code, out = run(baseline, fresh, capsys)
        assert code == 0
        assert "WARN EXP-T warm_ms: wall-clock delta" in out

    def test_gated_wallclock_over_bound_fails(self, tmp_path, capsys):
        baseline, fresh = tmp_path / "b", tmp_path / "f"
        write(baseline, self.gated_baseline())
        payload = self.gated_baseline()
        payload["metrics"]["warm_ms"] = 0.160  # +6.7%: warns AND fails
        write(fresh, payload)
        code, out = run(baseline, fresh, capsys)
        assert code == 1
        assert "FAIL EXP-T warm_ms: hard gate (max +2%) exceeded" in out
        assert "0.15 -> 0.16" in out

    def test_gated_improvement_passes(self, tmp_path, capsys):
        baseline, fresh = tmp_path / "b", tmp_path / "f"
        write(baseline, self.gated_baseline())
        payload = self.gated_baseline()
        payload["metrics"]["warm_ms"] = 0.100
        write(fresh, payload)
        code, _ = run(baseline, fresh, capsys)
        assert code == 0

    def test_gate_on_missing_metric_fails(self, tmp_path, capsys):
        baseline, fresh = tmp_path / "b", tmp_path / "f"
        payload = self.gated_baseline()
        del payload["metrics"]["warm_ms"]
        write(baseline, payload)
        write(fresh, payload)
        code, out = run(baseline, fresh, capsys)
        assert code == 1
        assert "FAIL EXP-T warm_ms: gated metric missing" in out

    def test_gate_without_bound_fails_loudly(self, tmp_path, capsys):
        baseline, fresh = tmp_path / "b", tmp_path / "f"
        payload = self.gated_baseline()
        payload["gates"]["warm_ms"] = {}
        write(baseline, payload)
        write(fresh, payload)
        code, out = run(baseline, fresh, capsys)
        assert code == 1
        assert "gate declares no numeric max_increase_pct" in out

    def test_fresh_only_gate_is_enforced(self, tmp_path, capsys):
        # A PR that adds a gate before its baseline lands still gets
        # the check, against the baseline's existing metric value.
        baseline, fresh = tmp_path / "b", tmp_path / "f"
        base = copy.deepcopy(BASELINE)
        base["metrics"]["warm_ms"] = 0.150
        write(baseline, base)
        payload = self.gated_baseline()
        payload["metrics"]["warm_ms"] = 0.160
        write(fresh, payload)
        code, out = run(baseline, fresh, capsys)
        assert code == 1
        assert "hard gate" in out

    def test_floor_gate_fails_below_min_value(self, tmp_path, capsys):
        baseline, fresh = tmp_path / "b", tmp_path / "f"
        payload = copy.deepcopy(BASELINE)
        payload["gates"] = {"boundary_speedup": {"min_value": 3.0}}
        payload["metrics"]["boundary_speedup"] = 12.0
        write(baseline, payload)
        below = copy.deepcopy(payload)
        below["metrics"]["boundary_speedup"] = 2.4
        write(fresh, below)
        code, out = run(baseline, fresh, capsys)
        assert code == 1
        assert ("FAIL EXP-T boundary_speedup: hard floor gate (min 3) "
                "broken: fresh value is 2.4") in out

    def test_floor_gate_passes_at_or_above_min_value(self, tmp_path,
                                                     capsys):
        baseline, fresh = tmp_path / "b", tmp_path / "f"
        payload = copy.deepcopy(BASELINE)
        payload["gates"] = {"boundary_speedup": {"min_value": 3.0}}
        payload["metrics"]["boundary_speedup"] = 12.0
        write(baseline, payload)
        write(fresh, payload)
        code, out = run(baseline, fresh, capsys)
        assert code == 0

    def test_floor_gate_binds_without_a_baseline_metric(self, tmp_path,
                                                        capsys):
        # min_value checks the fresh value against the declared
        # constant, so a brand-new gated metric is enforced on the very
        # PR that introduces it.
        baseline, fresh = tmp_path / "b", tmp_path / "f"
        write(baseline, copy.deepcopy(BASELINE))
        payload = copy.deepcopy(BASELINE)
        payload["gates"] = {"boundary_speedup": {"min_value": 3.0}}
        payload["metrics"]["boundary_speedup"] = 1.1
        write(fresh, payload)
        code, out = run(baseline, fresh, capsys)
        assert code == 1
        assert "FAIL EXP-T boundary_speedup: hard floor gate" in out

    def test_combined_pct_and_floor_gate(self, tmp_path, capsys):
        baseline, fresh = tmp_path / "b", tmp_path / "f"
        payload = copy.deepcopy(BASELINE)
        payload["gates"] = {"warm_speedup": {"max_increase_pct": 500.0,
                                             "min_value": 3.0}}
        write(baseline, payload)
        ok = copy.deepcopy(payload)
        ok["metrics"]["warm_speedup"] = 5.0
        write(fresh, ok)
        code, _ = run(baseline, fresh, capsys)
        assert code == 0
        bad = copy.deepcopy(payload)
        bad["metrics"]["warm_speedup"] = 2.0
        write(fresh, bad)
        code, out = run(baseline, fresh, capsys)
        assert code == 1
        assert "hard floor gate" in out

    def test_gate_paths_dot_into_nested_metrics(self, tmp_path, capsys):
        baseline, fresh = tmp_path / "b", tmp_path / "f"
        payload = copy.deepcopy(BASELINE)
        payload["gates"] = {
            "end_to_end_median_ms.disk": {"max_increase_pct": 10.0}}
        write(baseline, payload)
        over = fresh_payload(
            end_to_end_median_ms={"memory": 14.6, "disk": 13.0})
        write(fresh, over)
        code, out = run(baseline, fresh, capsys)
        assert code == 1
        assert ("FAIL EXP-T end_to_end_median_ms.disk: hard gate"
                in out)

    def test_lookup_prefers_literal_keys_with_dots(self):
        metrics = {"observability": {"ops_total.op=hash_join": 5},
                   "flat.key": 7}
        assert check_trajectory.lookup(
            metrics, "observability.ops_total.op=hash_join") == 5
        assert check_trajectory.lookup(metrics, "flat.key") == 7
        assert check_trajectory.lookup(metrics, "missing.path") is None


class TestClassify:
    @pytest.mark.parametrize("name,expected", [
        ("tuples_fetched", "counter"),
        ("accidents_boundary_x_values", "counter"),
        ("rule_firings.dead-step", "counter"),
        ("db_size", "counter"),
        ("warm_speedup", "wallclock"),
        ("cold_open_wal_ms", "wallclock"),
        ("accidents_end_to_end_median_ms.memory/per-value", "wallclock"),
        ("fetch_overhead_disk_vs_memory_ratio", "wallclock"),
        ("fetch_cache_hit_rate", "rate"),
        ("boundary_rows_per_sec", "wallclock"),
        ("operator_throughput", "wallclock"),
    ])
    def test_metric_classes(self, name, expected):
        assert check_trajectory.classify(name) == expected


def test_harness_gate_lands_in_bench_json(tmp_path, monkeypatch):
    """ExperimentLog.gate declarations ride the flushed JSON, so a
    baseline refresh keeps its gates."""
    harness_spec = importlib.util.spec_from_file_location(
        "_bench_harness", _SCRIPT.parent / "_harness.py")
    harness = importlib.util.module_from_spec(harness_spec)
    harness_spec.loader.exec_module(harness)
    monkeypatch.setenv("BENCH_RESULTS_DIR", str(tmp_path))
    log = harness.ExperimentLog("EXP-T", "synthetic")
    log.metric("warm_ms", 0.15)
    log.gate("warm_ms", max_increase_pct=2.0)
    log.metric("boundary_speedup", 12.0)
    log.gate("boundary_speedup", min_value=3.0)
    log.flush()
    payload = json.loads((tmp_path / "BENCH_exp-t.json").read_text())
    assert payload["gates"] == {"warm_ms": {"max_increase_pct": 2.0},
                                "boundary_speedup": {"min_value": 3.0}}
    assert payload["metrics"]["warm_ms"] == 0.15
    with pytest.raises(ValueError):
        log.gate("warm_ms")


def test_real_committed_baselines_self_compare_clean(tmp_path, capsys):
    """The committed baselines diffed against themselves: exit 0, no
    issues — guards against a classifier change silently gating on a
    metric the policy says must stay warn-only."""
    results = _SCRIPT.parent / "results"
    code = check_trajectory.main(
        ["--baseline", str(results), "--fresh", str(results)])
    assert code == 0
    out = capsys.readouterr().out
    assert "0 regression(s)" in out and "0 warning(s)" in out
