"""Shared helpers for the benchmark suite.

Every experiment writes the rows it reproduces into
``benchmarks/results/<exp_id>.txt`` (and prints them when pytest runs
with ``-s``), so reported numbers can be checked against fresh ones.

Experiments can additionally record *machine-readable* numbers with
:meth:`ExperimentLog.metric`; ``flush`` then writes them to
``benchmarks/results/BENCH_<exp_id>.json`` so the perf trajectory
(medians, speedups, tuples fetched, ...) can be diffed across PRs
instead of eyeballing text tables.

Setting ``BENCH_RESULTS_DIR`` redirects all outputs (text and JSON)
to that directory: CI's trajectory job writes *fresh* numbers there
and diffs them against the committed ``benchmarks/results`` baselines
without ever dirtying the checked-out tree it is diffing.
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import time
from typing import Callable

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def results_dir() -> pathlib.Path:
    """Where outputs land: ``$BENCH_RESULTS_DIR`` if set (read per
    flush, so tests can monkeypatch it), else the committed baseline
    directory."""
    override = os.environ.get("BENCH_RESULTS_DIR")
    return pathlib.Path(override) if override else RESULTS_DIR


class ExperimentLog:
    """Collects printable rows (and metrics) for one experiment."""

    def __init__(self, exp_id: str, title: str):
        self.exp_id = exp_id
        self.title = title
        self.lines: list[str] = [f"{exp_id}: {title}", "=" * 72]
        self.metrics: dict[str, object] = {}
        self.gates: dict[str, dict] = {}

    def row(self, text: str) -> None:
        self.lines.append(text)
        print(text)

    def table(self, headers: list[str], rows: list[list]) -> None:
        widths = [max(len(str(h)), *(len(str(r[i])) for r in rows))
                  for i, h in enumerate(headers)] if rows else \
                 [len(str(h)) for h in headers]
        fmt = "  ".join(f"{{:<{w}}}" for w in widths)
        self.row(fmt.format(*headers))
        self.row(fmt.format(*("-" * w for w in widths)))
        for r in rows:
            self.row(fmt.format(*(str(c) for c in r)))

    def metric(self, name: str, value) -> None:
        """Record one machine-readable number (float/int/str/dict/list)
        for the JSON artifact."""
        self.metrics[name] = value

    def gate(self, metric_path: str, *,
             max_increase_pct: float | None = None,
             min_value: float | None = None) -> None:
        """Declare a *hard* trajectory gate on one metric path.

        Written into the JSON artifact as ``gates``;
        ``check_trajectory.py`` then FAILs (not warns) when the fresh
        value exceeds the committed baseline by more than
        ``max_increase_pct`` percent — even for wall-clock metrics,
        which are otherwise warn-only — or when it falls below the
        absolute floor ``min_value`` (checked against the fresh value
        alone, so floor gates hold even for brand-new metrics with no
        baseline).  Declare wall-clock gates only where the baseline
        is regenerated on comparable hardware.
        """
        gate: dict = {}
        if max_increase_pct is not None:
            gate["max_increase_pct"] = max_increase_pct
        if min_value is not None:
            gate["min_value"] = min_value
        if not gate:
            raise ValueError(
                "gate() needs max_increase_pct and/or min_value")
        self.gates[metric_path] = gate

    def flush(self) -> None:
        out_dir = results_dir()
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"{self.exp_id.lower()}.txt"
        path.write_text("\n".join(self.lines) + "\n")
        if self.metrics:  # experiments without metric() calls stay text-only
            payload = {"experiment": self.exp_id, "title": self.title,
                       "metrics": self.metrics}
            if self.gates:
                payload["gates"] = self.gates
            json_path = out_dir / f"BENCH_{self.exp_id.lower()}.json"
            json_path.write_text(json.dumps(
                payload, indent=2, sort_keys=True, default=str) + "\n")


def timed(fn: Callable, repeat: int = 1) -> tuple[float, object]:
    """Wall-clock one callable; returns (best seconds, last result)."""
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def timed_median(fn: Callable, repeat: int = 5) -> tuple[float, object]:
    """Wall-clock one callable; returns (median seconds, last result)."""
    samples = []
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples), result
