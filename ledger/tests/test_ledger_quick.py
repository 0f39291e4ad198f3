"""The command itself: ``--quick`` end to end, the driver's calling
convention, comparison, and a checkout without the program."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import metrics

LEDGER = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(LEDGER / "run.py")]


@pytest.fixture(scope="module")
def quick_ledger(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "quick.json"
    begin = time.monotonic()
    done = subprocess.run(RUN + ["--quick", "--seed", "3", "--out", str(out)],
                          capture_output=True, text=True, timeout=120)
    elapsed = time.monotonic() - begin
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text()), done.stdout, elapsed, out


def test_quick_finishes_in_thirty_seconds_with_every_metric(quick_ledger):
    ledger, printed, elapsed, _ = quick_ledger
    assert elapsed < 30
    assert list(ledger["workloads"]) == list(metrics.WORKLOAD_NAMES)
    for name, entry in ledger["workloads"].items():
        untraced, traced = entry["end_to_end"], entry["per_layer"]
        assert list(untraced["metrics"]) == list(metrics.CONTRACT_NAMES)
        assert list(untraced["end_to_end"]) == list(metrics.END_TO_END_NAMES)
        assert list(traced["metrics"]) == list(metrics.PER_LAYER_NAMES)
        assert untraced["failed"] == traced["failed"] == 0
        assert untraced["end_to_end"]["failed_fraction"] == 0
        assert all(value["value"] > 0
                   for value in untraced["metrics"].values()), name
        assert traced["spans"] > 0
    for name in (metrics.END_TO_END_NAMES + metrics.CONTRACT_NAMES
                 + metrics.PER_LAYER_NAMES):
        assert name in printed
    # ``null`` exactly where a workload has no such operation.
    ten = {name: entry["end_to_end"]["end_to_end"]
           for name, entry in ledger["workloads"].items()}
    for name, values in ten.items():
        missing = {key for key, value in values.items() if value is None}
        expected = {"write_latency_p50_us", "bytes_stored_per_user_byte",
                    "scale_latency_ratio"}
        if name == "mixed_write_disk":
            expected = {"scale_latency_ratio"}
        elif name == "cold_fetch_scale":
            expected -= {"scale_latency_ratio"}
        assert missing == expected, name


def test_each_workload_isolates_the_layer_it_was_chosen_for(quick_ledger):
    layers = {name: {key: value["value"] for key, value
                     in entry["per_layer"]["metrics"].items()}
              for name, entry in quick_ledger[0]["workloads"].items()}
    assert layers["warm_template"]["backend.fetch_calls_per_request"] == 0
    assert layers["warm_template"]["fetchcache.hit_rate"] == 1
    assert layers["cold_fetch_scale"]["fetchcache.hit_rate"] == 0
    assert layers["adhoc_compile"]["plancache.hit_rate"] == 0
    assert layers["adhoc_compile"]["core.decide_us"] > 0
    assert layers["procshard_fanout"]["procshard.worker_read_share"] > 0.5
    assert layers["mixed_write_disk"]["disk.recovered_rows"] > 0
    assert layers["mixed_write_disk"]["fetchcache.maintained_entries"] > 0
    assert layers["http_closed_loop"]["http.response_bytes"] > 0
    assert layers["http_closed_loop"]["server.shed_fraction"] == 0


def test_compare_reads_two_ledgers_and_flags_a_regression(quick_ledger,
                                                          tmp_path):
    ledger, _, _, path = quick_ledger
    same = subprocess.run(RUN + ["--compare", str(path), str(path)],
                          capture_output=True, text=True)
    assert same.returncode == 0, same.stdout
    assert "regressed" not in same.stdout and "ok" in same.stdout
    run = ledger["workloads"]["warm_template"]["end_to_end"]
    run["end_to_end"]["latency_p50_us"] *= 1.5
    run["end_to_end"]["dq_tuples_per_request"] += 1
    run["metrics"]["latency_p50_norm_us"]["value"] *= 1.5
    worse = tmp_path / "worse.json"
    worse.write_text(json.dumps(ledger))
    changed = subprocess.run(RUN + ["--compare", str(path), str(worse)],
                             capture_output=True, text=True)
    assert changed.returncode == 1
    flagged = [line.split()[:2] for line in changed.stdout.splitlines()
               if line.endswith("regressed")]
    assert flagged == [["warm_template", "latency_p50_us"],
                       ["warm_template", "dq_tuples_per_request"],
                       ["warm_template", "latency_p50_norm_us"]]


def test_driver_convention_one_json_object_on_the_last_line():
    done = subprocess.run(
        RUN + ["--workload", "warm_template", "--seed", "2", "--seconds",
               "1", "--trace", "0"], capture_output=True, text=True,
        timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 3 * 2000  # at least three full rounds
    assert list(result["metrics"]) == list(metrics.CONTRACT_NAMES)
    assert all(set(entry) == {"value", "unit"}
               for entry in result["metrics"].values())


#: Runs a command as the reaper of its orphans and says, the moment the
#: command returns, whether a descendant (running or not yet waited
#: for) is left: those are re-parented to this process.
ORPHAN_WATCH = """
import ctypes, os, subprocess, sys
assert ctypes.CDLL(None).prctl(36, 1, 0, 0, 0) == 0  # PR_SET_CHILD_SUBREAPER
code = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL).returncode
try:
    os.waitpid(-1, os.WNOHANG)
    left = True
except ChildProcessError:
    left = False
print(code, left)
"""


@pytest.mark.parametrize("workload", ["procshard_fanout", "http_closed_loop"])
def test_no_process_of_a_run_outlives_the_command(workload):
    """The spawn context's resource tracker ends only after the process
    that measured; the command must not return before it has."""
    done = subprocess.run(
        [sys.executable, "-c", ORPHAN_WATCH] + RUN
        + ["--workload", workload, "--seed", "4", "--quick"],
        capture_output=True, text=True, timeout=120)
    assert done.stdout.split() == ["0", "False"], done.stdout + done.stderr


def test_without_the_program_the_command_fails_and_prints_no_result(
        tmp_path):
    shutil.copytree(LEDGER, tmp_path / "ledger",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(LEDGER.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "ledger/run.py", "--workload", "warm_template",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
