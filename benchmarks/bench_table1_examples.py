"""EXP-T3 — correctness table: every worked example in the paper,
decided by this library, expected vs. got.

The same assertions live as unit tests in
``tests/integration/test_paper_examples.py``; this bench prints the
table and times the whole battery.
"""

from __future__ import annotations

import pytest

from repro import AccessConstraint, AccessSchema, Schema, Var
from repro.core import (a_contained, is_boundedly_evaluable, is_covered,
                        lower_envelope, specialize_minimally, upper_envelope)
from repro.query import parse_cq, parse_ucq
from repro.workload import canonical_access_schema

from _harness import ExperimentLog


def build_cases():
    cases = []

    access0 = canonical_access_schema()
    q0 = parse_cq("Q0(xa) :- Accident(aid, 'Queens Park', '1/5/2005'), "
                  "Casualty(cid, aid, class, vid), Vehicle(vid, dri, xa)")
    cases.append(("Ex 1.1", "Q0 boundedly evaluable under ψ1–ψ4", "yes",
                  lambda: is_boundedly_evaluable(q0, access0).verdict.value))

    r1 = Schema.from_dict({"R1": ("A", "B", "E", "F")})
    a1 = AccessSchema(r1, [AccessConstraint("R1", ("A",), ("B",), 5),
                           AccessConstraint("R1", ("E",), ("F",), 5)])
    q1 = parse_cq("Q1(x, y) :- R1(x1, x, x2, y), x1 = 1, x2 = 1")
    cases.append(("Ex 3.1(1)", "Q1 boundedly evaluable", "no",
                  lambda: is_boundedly_evaluable(q1, a1).verdict.value))

    r2 = Schema.from_dict({"R2": ("A", "B")})
    a2 = AccessSchema(r2, [AccessConstraint("R2", ("A",), ("B",), 1)])
    q2 = parse_cq("Q2(x) :- R2(x, x1), R2(x, x2), x1 = 1, x2 = 2")
    cases.append(("Ex 3.1(2)", "Q2 boundedly evaluable (A-unsat)", "yes",
                  lambda: is_boundedly_evaluable(q2, a2).verdict.value))
    cases.append(("Ex 3.12", "Q2 covered", "no",
                  lambda: is_covered(q2, a2).verdict.value))

    r3 = Schema.from_dict({"R3": ("A", "B", "C")})
    a3 = AccessSchema(r3, [AccessConstraint("R3", (), ("C",), 1),
                           AccessConstraint("R3", ("A", "B"), ("C",), 5)])
    q3 = parse_cq("Q3(x, y) :- R3(x1, x2, x), R3(z1, z2, y), "
                  "R3(x, y, z3), x1 = 1, x2 = 1")
    cases.append(("Ex 3.1(3)/3.10", "Q3 covered (hence bounded)", "yes",
                  lambda: is_covered(q3, a3).verdict.value))

    s35 = Schema.from_dict({"R": ("X",), "S": ("A", "B")})
    a35 = AccessSchema(s35, [AccessConstraint("R", (), ("X",), 2)])
    q35 = parse_cq("Q(x) :- R(y1), y1 = 1, R(y2), y2 = 0, S(x, y), R(y)")
    u35 = parse_ucq("Qp(x) :- S(x, y), R(y), y = 1 ; "
                    "Qp(x) :- S(x, y), R(y), y = 0")
    cases.append(("Ex 3.5", "Q ⊑A Q1 ∪ Q2", "yes",
                  lambda: a_contained(q35, u35, a35).verdict.value))
    cases.append(("Ex 3.5", "Q ⊑A Q1 (single disjunct)", "no",
                  lambda: a_contained(q35, u35.disjuncts[0],
                                      a35).verdict.value))

    s35b = Schema.from_dict({"Rp": ("A", "B", "C")})
    a35b = AccessSchema(s35b, [AccessConstraint("Rp", ("A",), ("B",), 4)])
    u35b = parse_ucq("Q(y) :- Rp(x, y, z), x = 1 ; "
                     "Q(y) :- Rp(x, y, z), x = 1, z = y")
    cases.append(("Ex 3.5", "Q1 ∪ Q2 boundedly evaluable", "yes",
                  lambda: is_boundedly_evaluable(u35b, a35b).verdict.value))
    cases.append(("Ex 3.5", "Q2 alone boundedly evaluable", "no",
                  lambda: is_boundedly_evaluable(u35b.disjuncts[1],
                                                 a35b).verdict.value))

    s41 = Schema.from_dict({"R": ("A", "B")})
    a41 = AccessSchema(s41, [AccessConstraint("R", ("A",), ("B",), 3)])
    q41_1 = parse_cq("Q1(x) :- R(w, x), R(y, w), R(x, z), w = 1")
    q41_2 = parse_cq("Q2(x, y) :- R(w, x), R(y, w), w = 1")
    cases.append(("Ex 4.1", "Q1 has an upper envelope", "yes",
                  lambda: upper_envelope(q41_1, a41).verdict.value))
    cases.append(("Ex 4.1", "Q1 has a lower envelope", "yes",
                  lambda: lower_envelope(q41_1, a41, k=2).verdict.value))
    cases.append(("Ex 4.1", "Q2 has an upper envelope", "no",
                  lambda: upper_envelope(q41_2, a41).verdict.value))
    cases.append(("Ex 4.1", "Q2 has a lower envelope", "no",
                  lambda: lower_envelope(q41_2, a41, k=2).verdict.value))

    s45 = Schema.from_dict({"R": ("A", "B", "C")})
    a45 = AccessSchema(s45, [AccessConstraint("R", ("A",), ("B",), 4),
                             AccessConstraint("R", ("B",), ("C",), 1)])
    q45 = parse_cq("Q(x, y) :- R(u, x, y), u = 1")
    cases.append(("Ex 4.5", "split lower envelope exists (k=2)", "yes",
                  lambda: lower_envelope(q45, a45, k=2).verdict.value))

    q51 = parse_cq("Q(xa) :- Accident(aid, district, date), "
                   "Casualty(cid, aid, class, vid), Vehicle(vid, dri, xa)")
    cases.append(("Ex 5.1", "Q boundedly evaluable (unspecialized)", "no",
                  lambda: is_boundedly_evaluable(q51, access0).verdict.value))
    cases.append(("Ex 5.1", "specializable with {date} (k=1)", "yes",
                  lambda: specialize_minimally(
                      q51, access0, parameters=[Var("date")],
                      k=1).verdict.value))
    cases.append(("Ex 5.1", "specializable with {district} only", "no",
                  lambda: specialize_minimally(
                      q51, access0,
                      parameters=[Var("district")]).verdict.value))
    return cases


@pytest.fixture(scope="module")
def log():
    experiment = ExperimentLog(
        "EXP-T3", "every worked example of the paper, expected vs got")
    yield experiment
    experiment.flush()


def test_examples_battery(benchmark, log):
    cases = build_cases()

    def run_all():
        return [(case[0], case[1], case[2], case[3]()) for case in cases]

    results = benchmark(run_all)
    rows = []
    for example, claim, expected, got in results:
        status = "OK" if expected == got else "MISMATCH"
        rows.append([example, claim, expected, got, status])
    log.row("")
    log.table(["example", "claim", "paper", "library", ""], rows)
    mismatches = [r for r in rows if r[4] == "MISMATCH"]
    log.row("")
    log.row(f"{len(rows) - len(mismatches)}/{len(rows)} verdicts match "
            "the paper.")
    assert not mismatches
