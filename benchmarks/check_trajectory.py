"""The benchmark-trajectory gate: diff fresh BENCH_*.json against baselines.

The committed ``benchmarks/results/BENCH_<exp>.json`` files are the
repo's performance trajectory.  CI re-runs the benchmark suite with
``BENCH_RESULTS_DIR`` pointing at a scratch directory and then runs::

    python benchmarks/check_trajectory.py \
        --baseline benchmarks/results --fresh "$BENCH_RESULTS_DIR"

Metrics split into three classes by name:

* **wall-clock** (any ``_``-separated token in ``ms``, ``speedup``,
  ``ratio``, ``overhead``, ``time``, ``seconds``) — shared runners are
  noisy, so deltas only ever WARN;
* **rates** (a ``rate`` token, e.g. cache hit rates) — higher is
  better; a drop beyond the tolerance FAILs;
* **counters** (everything else: index lookups, tuples fetched,
  X-values, plan sizes, rule firings, recovered rows, ...) — these are
  deterministic functions of the code and the seeded workloads, so an
  *increase* is a genuine perf-trajectory regression and FAILs, while
  a decrease WARNs that the committed baseline is stale and should be
  refreshed in the PR (see README, "The perf trajectory").

A metric or experiment present in the baseline but missing from the
fresh run FAILs (the gate must not pass by silently not measuring);
fresh-only metrics WARN until their baseline is committed.

A BENCH json may additionally carry a ``gates`` object declared by the
experiment (``ExperimentLog.gate``)::

    "gates": {"adhoc_shape_hits": {"min_value": 183}}              # EXP-8
    "gates": {"hit_rate_10pct_writes_memory": {"min_value": 0.6}}  # EXP-14

A gated metric is a *hard* bound that overrides the class policy: the
run FAILs when the fresh value exceeds the baseline by more than the
declared ``max_increase_pct`` percentage — even for wall-clock
metrics, which are otherwise warn-only — or falls below the absolute
``min_value`` floor.  Floor gates compare the fresh value against the
declared constant, so they bind even before a baseline for the metric
is committed.  Gate paths dot into nested metric dicts.  Declaring a
wall-clock gate is a statement that its baseline is regenerated on
hardware comparable to where the gate runs.

Exit status: 0 = trajectory holds (warnings allowed), 1 = regression,
2 = usage error.  Plain stdlib, no third-party imports — CI runs it
before installing anything beyond the package itself.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from dataclasses import dataclass

WALLCLOCK_TOKENS = {"ms", "speedup", "ratio", "overhead", "time", "seconds",
                    "sec", "second", "throughput"}
RATE_TOKENS = {"rate"}

#: Absolute slack for rate drops (hit rates jitter slightly with the
#: ordering of concurrent batches); counters get none — they are
#: deterministic.
RATE_TOLERANCE = 0.02


@dataclass
class Issue:
    severity: str  # "FAIL" | "WARN"
    experiment: str
    metric: str
    detail: str

    def __str__(self) -> str:
        return (f"{self.severity} {self.experiment} {self.metric}: "
                f"{self.detail}")


def classify(metric_path: str) -> str:
    tokens = set(metric_path.replace(".", "_").lower().split("_"))
    if tokens & WALLCLOCK_TOKENS:
        return "wallclock"
    if tokens & RATE_TOKENS:
        return "rate"
    return "counter"


def _delta(baseline: float, fresh: float) -> str:
    if baseline:
        return f"{baseline} -> {fresh} ({(fresh - baseline) / baseline:+.1%})"
    return f"{baseline} -> {fresh}"


def compare_metric(experiment: str, path: str, baseline, fresh,
                   issues: list[Issue]) -> None:
    if isinstance(baseline, dict) or isinstance(fresh, dict):
        if not (isinstance(baseline, dict) and isinstance(fresh, dict)):
            issues.append(Issue("FAIL", experiment, path,
                                "metric changed shape "
                                f"({type(baseline).__name__} vs "
                                f"{type(fresh).__name__})"))
            return
        for key in sorted(baseline):
            if key not in fresh:
                # A counter sub-key can legitimately vanish when its
                # count improves to zero (e.g. an optimizer rule that
                # no longer fires builds no rule_firings entry) — that
                # follows the counter-decrease-warns policy.  Anything
                # else going missing means the run changed shape.
                if classify(f"{path}.{key}") == "counter":
                    issues.append(Issue(
                        "WARN", experiment, f"{path}.{key}",
                        "counter absent from the fresh run (improved "
                        "to zero?); refresh the committed baseline"))
                else:
                    issues.append(Issue("FAIL", experiment,
                                        f"{path}.{key}",
                                        "missing from the fresh run"))
            else:
                compare_metric(experiment, f"{path}.{key}", baseline[key],
                               fresh[key], issues)
        for key in sorted(set(fresh) - set(baseline)):
            issues.append(Issue("WARN", experiment, f"{path}.{key}",
                                "new metric; commit a baseline for it"))
        return
    numeric = (int, float)
    if not (isinstance(baseline, numeric) and isinstance(fresh, numeric)):
        if baseline != fresh:
            issues.append(Issue("WARN", experiment, path,
                                f"non-numeric change: {baseline!r} -> "
                                f"{fresh!r}"))
        return
    if baseline == fresh:
        return
    kind = classify(path)
    if kind == "wallclock":
        issues.append(Issue("WARN", experiment, path,
                            f"wall-clock delta {_delta(baseline, fresh)} "
                            "(noise-tolerant, not gated)"))
    elif kind == "rate":
        if fresh < baseline - RATE_TOLERANCE:
            issues.append(Issue("FAIL", experiment, path,
                                f"rate dropped {_delta(baseline, fresh)}"))
        else:
            issues.append(Issue("WARN", experiment, path,
                                f"rate moved {_delta(baseline, fresh)}"))
    else:  # counter
        if fresh > baseline:
            issues.append(Issue("FAIL", experiment, path,
                                "counter regression "
                                f"{_delta(baseline, fresh)}"))
        else:
            issues.append(Issue(
                "WARN", experiment, path,
                f"counter improved {_delta(baseline, fresh)}; refresh the "
                "committed baseline in this PR"))


def lookup(metrics, path: str):
    """The value at a (possibly dotted) gate path.  Tries the whole
    remaining path as a literal key first, so flat keys that themselves
    contain dots (folded metric labels like ``...total.op=hash_join``)
    stay addressable."""
    if not isinstance(metrics, dict):
        return None
    if path in metrics:
        return metrics[path]
    head, _, rest = path.partition(".")
    if rest and head in metrics:
        return lookup(metrics[head], rest)
    return None


def check_gates(experiment: str, gates: dict, base_metrics: dict,
                fresh_metrics: dict, issues: list[Issue]) -> None:
    """Enforce the hard per-metric bounds a BENCH json declares."""
    numeric = (int, float)

    def good(value) -> bool:
        return isinstance(value, numeric) and not isinstance(value, bool)

    for path in sorted(gates):
        spec = gates[path] if isinstance(gates[path], dict) else {}
        pct = spec.get("max_increase_pct")
        floor = spec.get("min_value")
        if not (good(pct) or good(floor)):
            issues.append(Issue("FAIL", experiment, path,
                                "gate declares no numeric "
                                f"max_increase_pct or min_value: {spec!r}"))
            continue
        fresh = lookup(fresh_metrics, path)
        if not good(fresh):
            issues.append(Issue("FAIL", experiment, path,
                                "gated metric missing or non-numeric "
                                f"in the fresh run: {fresh!r}"))
            continue
        if good(floor) and fresh < floor:
            issues.append(Issue("FAIL", experiment, path,
                                f"hard floor gate (min {floor:g}) broken: "
                                f"fresh value is {fresh}"))
        if good(pct):
            baseline = lookup(base_metrics, path)
            if not good(baseline):
                issues.append(Issue(
                    "FAIL", experiment, path,
                    "gated metric missing or non-numeric in the "
                    f"baseline: {baseline!r}"))
                continue
            if fresh > baseline * (1 + pct / 100):
                issues.append(Issue("FAIL", experiment, path,
                                    f"hard gate (max +{pct:g}%) exceeded: "
                                    f"{_delta(baseline, fresh)}"))


def load_payloads(directory: pathlib.Path) -> dict[str, dict]:
    payloads = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        try:
            payload = json.loads(path.read_text())
        except ValueError as error:
            raise SystemExit(f"{path} is not valid JSON: {error}")
        payloads[payload.get("experiment", path.stem)] = payload
    return payloads


def load_results(directory: pathlib.Path) -> dict[str, dict]:
    return {experiment: payload.get("metrics", {})
            for experiment, payload in load_payloads(directory).items()}


def compare_dirs(baseline_dir: pathlib.Path,
                 fresh_dir: pathlib.Path) -> list[Issue]:
    baselines = load_payloads(baseline_dir)
    fresh = load_payloads(fresh_dir)
    issues: list[Issue] = []
    if not baselines:
        raise SystemExit(f"no BENCH_*.json baselines in {baseline_dir}")
    for experiment in sorted(baselines):
        if experiment not in fresh:
            issues.append(Issue("FAIL", experiment, "(all)",
                                "experiment missing from the fresh run"))
            continue
        base_metrics = baselines[experiment].get("metrics", {})
        fresh_metrics = fresh[experiment].get("metrics", {})
        for metric in sorted(base_metrics):
            if metric not in fresh_metrics:
                issues.append(Issue("FAIL", experiment, metric,
                                    "missing from the fresh run"))
            else:
                compare_metric(experiment, metric, base_metrics[metric],
                               fresh_metrics[metric], issues)
        for metric in sorted(set(fresh_metrics) - set(base_metrics)):
            issues.append(Issue("WARN", experiment, metric,
                                "new metric; commit a baseline for it"))
        # The committed baseline's gates are the contract; gates a fresh
        # run adds apply too, until their baseline lands.
        gates = {**fresh[experiment].get("gates", {}),
                 **baselines[experiment].get("gates", {})}
        if gates:
            check_gates(experiment, gates, base_metrics, fresh_metrics,
                        issues)
    for experiment in sorted(set(fresh) - set(baselines)):
        issues.append(Issue("WARN", experiment, "(all)",
                            "new experiment; commit its BENCH json"))
    return issues


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="diff fresh BENCH_*.json against committed baselines")
    parser.add_argument("--baseline", required=True,
                        help="directory of committed BENCH_*.json baselines")
    parser.add_argument("--fresh", required=True,
                        help="directory the fresh benchmark run wrote "
                             "(BENCH_RESULTS_DIR)")
    args = parser.parse_args(argv)
    baseline_dir = pathlib.Path(args.baseline)
    fresh_dir = pathlib.Path(args.fresh)
    for directory in (baseline_dir, fresh_dir):
        if not directory.is_dir():
            print(f"error: no such directory: {directory}", file=sys.stderr)
            return 2

    issues = compare_dirs(baseline_dir, fresh_dir)
    failures = [issue for issue in issues if issue.severity == "FAIL"]
    warnings = [issue for issue in issues if issue.severity == "WARN"]
    for issue in issues:
        print(issue)
    print(f"-- trajectory: {len(failures)} regression(s), "
          f"{len(warnings)} warning(s) across "
          f"{len(load_results(baseline_dir))} experiment(s)")
    if failures:
        print("counter-based metrics regressed; either fix the "
              "regression or (for an intended trade-off) update the "
              "committed BENCH_*.json baselines in this PR and say why.")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
