"""``BENCHMARK.json`` is ``metrics.contract()`` and fits the schema."""

import json
import re
from pathlib import Path

import metrics

ROOT = Path(__file__).resolve().parent.parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}$")


def test_benchmark_json_is_the_contract_written_out():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == (
        metrics.contract())


def test_contract_stays_inside_the_schema_limits():
    contract = metrics.contract()
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert contract["paths"] == ["ledger"]
    assert 1 <= contract["run_seconds"] <= 60
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in contract[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in contract["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in contract["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(entry["unit"])
        assert entry["better"] in ("lower", "higher")
    setup = next(entry for entry in contract["end_to_end"]
                 if entry["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(entry["bound"]
                                 for entry in contract["end_to_end"])
    assert len(json.dumps(contract)) < 64 * 1024
    # 4 + 22 runs per workload must fit the driver's 3420 s with the
    # ~13 s of set-up, checking and tear-down a run carries on the
    # build host (14-27 s a run, the traced procshard run 40 s).
    runs = 4 + 22 * len(contract["workloads"])
    assert runs * (contract["run_seconds"] + 13) <= 3420


def test_every_one_of_the_ten_is_gated_or_carried():
    """An end-to-end metric the contract cannot hold (``null`` on some
    workload, or always 0) still reaches the driver's traced run."""
    assert len(metrics.END_TO_END) == 10
    for name in metrics.END_TO_END_NAMES:
        assert (name in metrics.CONTRACT_NAMES
                or metrics.CARRIERS.get(name) in metrics.PER_LAYER_NAMES
                or name == "failed_fraction")  # the result line's failed
    for name, _, _, bound in metrics.END_TO_END:
        assert bound in (0.0, 0.10), name
