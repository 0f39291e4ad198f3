"""The performance ledger's one command.

One workload, one mode — what the driver of ``BENCHMARK.json`` runs::

    python3 ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

prints the workload's metrics by name and, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: every end-to-end metric with ``--trace 0``, every
per-layer metric with ``--trace 1``.

The whole ledger — every workload untraced, then traced, each in a
process of its own so ``peak_rss_mb`` is the workload's::

    python3 ledger/run.py --seed N [--seconds S] [--quick] [--out FILE]
    python3 ledger/run.py --compare A.json B.json
    python3 ledger/run.py --aa [--seed N] [--quick]

``src/`` is found next to this directory; nothing else is needed on
``PYTHONPATH``.  The command runs as a supervisor and a measuring
child (see :func:`supervise`), so no process of a run outlives it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import metrics  # noqa: E402
from stats import percentile, spread, verdict, worsening  # noqa: E402

#: Rounds an untraced run measures at least, however short ``--seconds``
#: is.
MIN_ROUNDS = 3


def peak_rss_mb(child_pids) -> float:
    """Peak resident set of this process plus that of each live child
    (the server, both shard workers), in MB.  ``RUSAGE_CHILDREN`` would
    give the largest child only, and only once it has been waited for;
    ``VmHWM`` is the same high-water mark, per process, while it runs."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in child_pids:
        with open(f"/proc/{pid}/status") as status:
            total_kb += next(int(line.split()[1]) for line in status
                             if line.startswith("VmHWM:"))
    return total_kb / 1024.0


def round_series(rounds: list) -> dict:
    """Per end-to-end metric, its value in each round: as measured,
    and with the host's speed during that round divided out (scaled
    back to µs at the reference speed)."""
    from workloads import SPIN_REFERENCE_US

    series = {
        "latency_p50_us": [percentile(r.latencies, 50) * 1e6
                           for r in rounds],
        "latency_p95_us": [percentile(r.latencies, 95) * 1e6
                           for r in rounds],
        "throughput_rps": [
            (len(r.latencies) + len(r.write_latencies) - r.failed) / r.wall
            for r in rounds],
        "dq_tuples_per_request": [r.dq / len(r.latencies) for r in rounds],
    }
    scale = [SPIN_REFERENCE_US / r.spin_us for r in rounds]
    for raw, relative in (("latency_p50_us", "latency_p50_norm_us"),
                          ("latency_p95_us", "latency_p95_norm_us")):
        series[relative] = [value * factor
                            for value, factor in zip(series[raw], scale)]
    series["throughput_norm_rps"] = [
        value / factor
        for value, factor in zip(series["throughput_rps"], scale)]
    return series


def measure(name: str, seed: int, seconds: float, trace: bool,
            quick: bool) -> dict:
    """Set one workload up, measure it, take it down."""
    from spans import Recorder
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{name}-", dir=RESULTS))
    workload = None
    try:
        setups = []
        for rep in range(cls.setup_reps):
            if workload is not None:
                # Let go of the previous set-up before the next one
                # allocates, or peak RSS depends on collector timing.
                workload.close()
                workload = None
                gc.collect()
            workload = cls(seed, quick, workdir / f"setup{rep}")
            workload.workdir.mkdir()
            begin = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - begin)
        # What set-up built stays for the whole run; keep the cyclic
        # collector from walking it in the middle of a request.
        gc.collect()
        gc.freeze()

        rounds = []
        deadline = time.perf_counter() + (seconds / 2 if trace else seconds)
        # A traced run's rounds are only the reference its budget is
        # held against; one will do where a round is long.
        while (len(rounds) < (1 if quick or trace else MIN_ROUNDS)
               or time.perf_counter() < deadline):
            rounds.append(workload.round())
            workload.after_round(len(rounds) - 1)
        pooled = [t for entry in rounds for t in entry.latencies]
        per_round = round_series(rounds)
        per_round.update(workload.extra_series(rounds))
        result = {
            "workload": name, "seed": seed, "trace": int(trace),
            "quick": quick, "rounds": len(rounds),
            "samples_per_round": len(rounds[0].latencies),
            "attempted": sum(r.ops for r in rounds),
            "failed": sum(r.failed for r in rounds),
        }
        values = {key: statistics.median(series)
                  for key, series in per_round.items()}
        if trace:
            recorder = Recorder()
            # The rows are at the reference host speed; so is the p50
            # they are meant to add up to.
            p50_us = values["latency_p50_norm_us"]
            layers, crosscheck, failed = workload.traced(recorder, rounds,
                                                         p50_us)
            result["failed"] += failed
            result["spans"] = recorder.write_jsonl(
                RESULTS / f"trace-{name}.jsonl")
            result["crosscheck"] = crosscheck
            layers.update({
                # How much of the untraced p50 the rows fail to explain.
                "ledger.residual_share": abs(sum(
                    layers.get(key, 0.0) for key in metrics.BUDGET_ROWS)
                    - p50_us) / p50_us,
                **{carrier: values[key]
                   for key, carrier in metrics.CARRIERS.items()
                   if key in values},
                "request.latency_p50_norm_us": p50_us,
                "request.latency_p99_us": percentile(pooled, 99) * 1e6,
                "request.latency_max_us": max(pooled) * 1e6,
                "request.samples": len(pooled),
                "host.spin_us": statistics.median(
                    r.spin_us for r in rounds),
            })
            # A layer the workload never enters reports 0 (the contract
            # wants every metric from every workload).
            result["absent"] = [key for key in metrics.PER_LAYER_NAMES
                                if key not in layers]
            values = {key: layers.get(key, 0.0)
                      for key in metrics.PER_LAYER_NAMES}
        else:
            per_round["setup_s"] = setups
            values["setup_s"] = statistics.median(setups)
            values["peak_rss_mb"] = peak_rss_mb(workload.child_pids())
            result["per_round"] = per_round
        checked, wrong = workload.finish()
        result["attempted"] += checked
        result["failed"] += wrong
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    if not trace:
        values["failed_fraction"] = result["failed"] / result["attempted"]
        #: The ten, ``None`` where the workload has no such operation.
        result["end_to_end"] = {key: values.get(key)
                                for key in metrics.END_TO_END_NAMES}
        # One instance size: the p50 over itself.
        values.setdefault("scale_latency_ratio", 1.0)
        values = {key: values[key] for key in metrics.CONTRACT_NAMES}
    result["correct"] = result["failed"] == 0
    result["metrics"] = {key: {"value": value, "unit": metrics.UNITS[key]}
                         for key, value in values.items()}
    return result


def run_one(args) -> int:
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.quick)
    path = RESULTS / f"run-{args.workload}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{result['rounds']} rounds x {result['samples_per_round']} "
          f"requests, {result['failed']} of {result['attempted']} failed")
    for key, entry in result["metrics"].items():
        print(f"{key:42} {entry['value']:16.4f} {entry['unit']}")
    for stage, mean_us in result.get("crosscheck", {}).items():
        print(f"obs.{stage + '_us':38} {mean_us:16.4f} us "
              "(repro.obs mean per request; cross-check)")
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


# -- the whole ledger ---------------------------------------------------------


def suite(seed: int, seconds: float, quick: bool) -> dict:
    """Every workload, untraced then traced, one process each."""
    ledger = {"seed": seed, "seconds": seconds, "quick": quick,
              "workloads": {}}
    for name in metrics.WORKLOAD_NAMES:
        entry = ledger["workloads"][name] = {}
        for trace, label in ((0, "end_to_end"), (1, "per_layer")):
            command = [sys.executable, str(HERE / "run.py"),
                       "--workload", name, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(trace)]
            if quick:
                command.append("--quick")
            done = subprocess.run(command, capture_output=True, text=True)
            path = RESULTS / f"run-{name}-trace{trace}.json"
            if done.returncode not in (0, 1) or not path.exists():
                sys.stderr.write(done.stdout + done.stderr)
                raise RuntimeError(
                    f"{name} --trace {trace} exited {done.returncode}")
            entry[label] = json.loads(path.read_text())
            path.unlink()
    return ledger


def gate_table() -> list:
    """``(name, unit, better, bound)`` of every end-to-end number a
    ledger holds: the ten, then what only the contract gates (the
    host-normalised timings)."""
    return list(metrics.END_TO_END) + [
        entry for entry in metrics.CONTRACT_END_TO_END
        if entry[0] not in metrics.END_TO_END_NAMES]


def end_to_end_values(run: dict) -> dict:
    """Every end-to-end number of one untraced run by name; ``None``
    where the workload has no such operation."""
    values = dict(run["end_to_end"])
    for key, entry in run["metrics"].items():
        values.setdefault(key, entry["value"])
    return values


def print_ledger(ledger: dict) -> None:
    bounds = {entry[0]: entry[3] for entry in gate_table()}
    moves = {name: moved for name, _, _, moved in metrics.PER_LAYER}
    for name, entry in ledger["workloads"].items():
        run, layers = entry["end_to_end"], entry["per_layer"]
        print(f"\n== {name}: seed {ledger['seed']}, {run['rounds']} rounds "
              f"x {run['samples_per_round']} requests")
        for key, value in end_to_end_values(run).items():
            shown = "null" if value is None else f"{value:.4f}"
            print(f"  {key:34} {shown:>16} {metrics.UNITS[key]:6} "
                  f"bound {bounds[key]:.0%}")
        print(f"  -- per layer ({layers['rounds']} reference rounds, one "
              f"traced round, {layers['spans']} spans)")
        for key, value in layers["metrics"].items():
            if key not in layers["absent"]:
                print(f"  {key:42} {value['value']:14.4f} "
                      f"{value['unit']:6} -> {moves[key]}")
        for stage, mean_us in layers["crosscheck"].items():
            print(f"  obs.{stage + '_us':38} {mean_us:14.4f} us     "
                  "(repro.obs mean per request; cross-check)")
        print("  -- " + budget(layers["metrics"]))


def budget(layers: dict) -> str:
    """One line: the per-layer rows that add up to the request, their
    sum, and the untraced p50 they are meant to explain (all at the
    reference host speed)."""
    rows = [(key.split("_us")[0], layers[key]["value"])
            for key in metrics.BUDGET_ROWS if layers[key]["value"]]
    total = sum(value for _, value in rows)
    measured = layers["request.latency_p50_norm_us"]["value"]
    return ("budget: " + " + ".join(f"{name} {value:.1f}"
                                    for name, value in rows)
            + f" = {total:.1f} us; untraced p50 {measured:.1f} us "
            f"({abs(total - measured) / measured:.1%} unexplained)")


def failures(ledger: dict) -> int:
    return sum(run["failed"] for entry in ledger["workloads"].values()
               for run in entry.values())


def compare(before: dict, after: dict, same_commit: bool = False) -> int:
    """Per workload x end-to-end metric: both medians, the change, the
    bound and the verdict.  Returns the number ``regressed``
    (``unresolved`` is reported, not counted: it is the host's doing).
    Two ledgers of one commit cannot differ by a regression: a timing
    further apart than its bound is then the host failing to resolve
    that bound, and only a count that differs is counted."""
    table = gate_table()
    same_seed = before["seed"] == after["seed"]
    bad = 0
    print(f"{'workload':18} {'metric':28} {'A':>14} {'B':>14} "
          f"{'worse by':>9} {'bound':>6}  verdict")
    for workload in metrics.WORKLOAD_NAMES:
        run_a = before["workloads"][workload]["end_to_end"]
        run_b = after["workloads"][workload]["end_to_end"]
        values_a, values_b = end_to_end_values(run_a), end_to_end_values(run_b)
        for name, unit, better, bound in table:
            a, b = values_a[name], values_b[name]
            if a is None or b is None:
                continue
            if unit == "count" and not same_seed:
                bound = metrics.COUNT_BOUND_ACROSS_SEEDS
            outcome = verdict(
                a, b, better, bound,
                spread(run_a["per_round"].get(name, ())),
                spread(run_b["per_round"].get(name, ())))
            if same_commit and bound and outcome == "regressed":
                outcome = "unresolved"
            bad += outcome == "regressed"
            print(f"{workload:18} {name:28} {a:14.4f} {b:14.4f} "
                  f"{worsening(a, b, better):+9.1%} {bound:6.0%}  {outcome}")
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=metrics.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(metrics.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="1 round, 200 requests, smallest sizes")
    parser.add_argument("--out", help="write the whole ledger here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--aa", action="store_true",
                        help="run the ledger twice, compare it to itself")
    args = parser.parse_args(argv)
    if args.quick:
        args.seconds = 0.0
    # A terminated run still takes its server and workers down.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.compare:
        first, second = (json.loads(Path(path).read_text())
                         for path in args.compare)
        return 1 if compare(first, second) else 0
    if args.workload:
        return run_one(args)
    ledgers = [suite(args.seed, args.seconds, args.quick)
               for _ in range(2 if args.aa else 1)]
    print_ledger(ledgers[-1])
    out = Path(args.out) if args.out else (
        RESULTS / f"ledger-seed{args.seed}.json")
    out.write_text(json.dumps(ledgers[-1], indent=1) + "\n")
    print(f"\nledger -> {out}")
    bad = sum(failures(ledger) for ledger in ledgers)
    if args.aa:
        print("\n== A/A: the same commit, the same seed, twice")
        bad += compare(*ledgers, same_commit=True)
    return 1 if bad else 0


#: Set in the environment of the process that measures.
SUPERVISED = "LEDGER_SUPERVISED"
#: How long what the measuring process leaves behind may take to end
#: by itself before it is killed.
LINGER_S = 10.0


def supervise() -> int:
    """Run this command again as a child and return its exit code only
    once every process it started has ended and been waited for.

    The child is the one that measures.  It runs with string hashing
    pinned: hashing is randomised per process, moves dict and set
    layouts, and with them peak RSS by ~5 % and latencies by a few per
    cent (the server and the shard workers inherit the setting), so a
    run differs from the next by the host only.

    Why a parent at all: ``multiprocessing``'s spawn context starts a
    ``resource_tracker`` beside the shard workers that ends only when
    it sees its parent gone, that is *after* the measuring process has
    exited, and nobody is left to wait for it.  This process is made
    the reaper of orphaned descendants, so the tracker — and a server
    or worker a crashed run failed to stop — becomes its child: it
    gives them ``LINGER_S`` to end, kills the child's process group,
    and waits until it has no child left.
    """
    import ctypes

    PR_SET_CHILD_SUBREAPER = 36
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")
    child = subprocess.Popen(
        [sys.executable] + sys.argv, start_new_session=True,
        env=dict(os.environ, PYTHONHASHSEED="0", **{SUPERVISED: "1"}))

    def forward(signum, _frame):
        # The child takes its server and workers down on its way out.
        if child.poll() is None:
            child.send_signal(signum)

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, forward)
    try:
        code = child.wait()
    finally:
        reap(child.pid, LINGER_S)
    return code if code >= 0 else 128 - code


def reap(group: int, linger_s: float) -> None:
    """Wait for every child of this process; what is still alive after
    ``linger_s`` is killed through the process group ``group``."""
    deadline = time.monotonic() + linger_s
    killed = False
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG if not killed else 0)
        except ChildProcessError:
            return  # no child left
        if pid == 0:
            if time.monotonic() < deadline:
                time.sleep(0.005)
                continue
            try:
                os.killpg(group, signal.SIGKILL)
            except ProcessLookupError:
                pass
            killed = True


if __name__ == "__main__":
    sys.exit(main() if os.environ.get(SUPERVISED) else supervise())
