"""Deterministic fault plans: ordinal-counted triggering, the fired
log, and the module-global install/clear lifecycle."""

from __future__ import annotations

import threading

import pytest

from repro.faults import (Fault, FaultPlan, active_fault_plan,
                          clear_fault_plan, fault_hook, install_fault_plan)


@pytest.fixture(autouse=True)
def _clean_plan():
    clear_fault_plan()
    yield
    clear_fault_plan()


class TestFaultPlan:
    def test_fires_at_exact_ordinal_only(self):
        plan = FaultPlan([Fault("rpc_send", at=3, kind="kill_peer")])
        assert plan.hit("rpc_send") is None
        assert plan.hit("rpc_send") is None
        fault = plan.hit("rpc_send")
        assert fault is not None and fault.kind == "kill_peer"
        assert plan.hit("rpc_send") is None
        assert plan.hits("rpc_send") == 4
        assert plan.fired == [("rpc_send", 3, "kill_peer")]

    def test_sites_count_independently(self):
        plan = FaultPlan([Fault("rpc_send", at=1, kind="delay", arg=0.1),
                          Fault("rpc_recv", at=2, kind="drop_reply")])
        assert plan.hit("rpc_recv") is None
        assert plan.hit("rpc_send").kind == "delay"
        assert plan.hit("rpc_recv").kind == "drop_reply"
        assert plan.fired == [("rpc_send", 1, "delay"),
                              ("rpc_recv", 2, "drop_reply")]

    def test_unscheduled_site_still_counts(self):
        plan = FaultPlan([])
        assert plan.hit("wal_append") is None
        assert plan.hits("wal_append") == 1

    def test_duplicate_ordinal_per_site_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FaultPlan([Fault("rpc_send", at=1, kind="delay"),
                       Fault("rpc_send", at=1, kind="kill_peer")])

    def test_ordinals_are_one_based(self):
        with pytest.raises(ValueError, match="ordinal"):
            Fault("rpc_send", at=0, kind="delay")

    def test_hit_counting_is_thread_safe(self):
        plan = FaultPlan([Fault("rpc_send", at=500, kind="delay")])
        fired = []

        def worker():
            for _ in range(100):
                fault = plan.hit("rpc_send")
                if fault is not None:
                    fired.append(fault)

        threads = [threading.Thread(target=worker) for _ in range(5)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert plan.hits("rpc_send") == 500
        assert len(fired) == 1  # exactly one thread saw ordinal 500


class TestGlobalHook:
    def test_idle_hook_returns_none(self):
        assert active_fault_plan() is None
        assert fault_hook("rpc_send") is None

    def test_install_route_and_clear(self):
        plan = FaultPlan([Fault("wal_append", at=1, kind="torn_tail",
                                arg=4)])
        install_fault_plan(plan)
        assert active_fault_plan() is plan
        fault = fault_hook("wal_append")
        assert fault.kind == "torn_tail" and fault.arg == 4
        clear_fault_plan()
        assert fault_hook("wal_append") is None
        # The plan keeps its history after uninstall (for assertions).
        assert plan.fired == [("wal_append", 1, "torn_tail")]


def test_documented_sites_are_exactly_the_compiled_hooks():
    """The module docstring's site list names every ``fault_hook`` call
    in the source tree, and nothing that is no longer compiled in."""
    import pathlib
    import re

    import repro
    import repro.faults

    root = pathlib.Path(repro.__file__).parent
    compiled = {site for path in root.rglob("*.py")
                for site in re.findall(r'fault_hook\("(\w+)"\)',
                                       path.read_text())}
    sites_doc = repro.faults.__doc__.split("Sites compiled into the tree")[1]
    documented = set(re.findall(r"^``(\w+)``$", sites_doc, re.MULTILINE))
    assert compiled == documented == {"rpc_send", "rpc_recv", "wal_append"}
