"""Golden plan corpus: the optimizer's output, pinned plan by plan.

``plan_corpus.txt`` holds, for every covered ``random_cq`` draw of a
fixed seed list (the property test's schema and config) and for EXP-9's
accident and social queries, the physical plan as ``str()`` prints it
(steps and row estimates) and the rule trace (per rule: rewrites and
steps before and after).  Any change to a rule, to lowering or to
finalization that moves a single plan fails here with a unified diff.

After an intended change, regenerate the file and commit its diff with
the change::

    PYTHONPATH=src python tests/engine/test_plan_corpus.py
"""

from __future__ import annotations

import difflib
import random
import sys
from pathlib import Path

from repro import is_boundedly_evaluable
from repro.core import analyze_coverage
from repro.engine import build_bounded_plan, optimize
from repro.query import parse_query
from repro.workload.accidents import extended_access_schema, extended_schema
from repro.workload.qgen import accident_workload_config, random_cq

CORPUS = Path(__file__).with_name("plan_corpus.txt")
BENCHMARKS = Path(__file__).parents[2] / "benchmarks"
SEEDS = range(260)
MIN_QGEN_PLANS = 200


def _entry(label: str, text: str, physical) -> str:
    lines = [f"=== {label}", text, str(physical)]
    lines += [f"  {firing}" for firing in physical.trace.firings]
    return "\n".join(lines)


def qgen_entries() -> list[str]:
    schema = extended_schema()
    access = extended_access_schema(schema)
    config = accident_workload_config(schema)
    entries = []
    for seed in SEEDS:
        query = random_cq(random.Random(seed), config)
        coverage = analyze_coverage(query, access)
        if coverage.is_covered:
            entries.append(_entry(f"qgen seed {seed}", str(query),
                                  optimize(build_bounded_plan(coverage))))
    return entries


def exp9_entries() -> list[str]:
    sys.path.insert(0, str(BENCHMARKS))
    try:
        import bench_exp9_optimizer as exp9
    finally:
        sys.path.remove(str(BENCHMARKS))
    accident_db, accident_queries = exp9.accident_queries()
    social_db = exp9.social_db()
    entries = []
    for workload, db, queries in (
            ("accidents", accident_db, accident_queries),
            ("social", social_db, exp9.social_queries(social_db))):
        for label, text in queries:
            decision = is_boundedly_evaluable(parse_query(text),
                                              db.access_schema)
            entries.append(_entry(f"exp9 {workload} {label}", text,
                                  optimize(decision.witness["plan"])))
    return entries


def render() -> str:
    return "\n\n".join(qgen_entries() + exp9_entries()) + "\n"


def test_the_corpus_covers_enough_qgen_plans():
    assert CORPUS.read_text().count("=== qgen seed") >= MIN_QGEN_PLANS


def test_plans_match_the_committed_corpus():
    expected, actual = CORPUS.read_text(), render()
    if actual != expected:
        diff = "".join(difflib.unified_diff(
            expected.splitlines(keepends=True),
            actual.splitlines(keepends=True),
            "plan_corpus.txt (committed)", "plan_corpus.txt (current)"))
        raise AssertionError(
            "the optimizer's plans changed; if intended, regenerate with "
            "`PYTHONPATH=src python tests/engine/test_plan_corpus.py`\n"
            + diff)


if __name__ == "__main__":
    CORPUS.write_text(render())
