"""BEP — the bounded evaluability problem (Section 3).

``is_boundedly_evaluable(Q, A)`` decides whether ``Q`` has a boundedly
evaluable query plan under ``A``.  The paper proves BEP
EXPSPACE-complete for CQ/UCQ/∃FO+ (Theorem 3.4, Corollary 3.7) and
undecidable for FO [17], so no implementation can be both fast and
complete.  This one is a pipeline:

1. **covered?** (PTIME, Theorem 3.11(2)) — YES with a constructed plan;
2. **A-unsatisfiable?** — YES with the empty plan (Example 3.1(2));
3. **chase + core rewriting** (A-equivalence preserving) — if the
   rewriting is covered, YES with its plan (Example 3.1(3));
4. otherwise **NO** — sound on every worked example in the paper and on
   the generated workloads, but heuristic in general (the ``details``
   carry ``complete: False`` and the coverage diagnosis).

For UCQ/∃FO+ the procedure follows Lemma 3.6 and the general covered
definition of Section 3.2: a CQ sub-query need not itself be bounded if
all its A-instances are answered by *other, covered* sub-queries
(Example 3.5's second half).  For FO it returns UNKNOWN unless the body
is positive (Table 1: undecidable).

``is_covered`` is the companion CQP procedure: PTIME for CQ
(Theorem 3.14), Πp2-style enumeration for UCQ/∃FO+.
"""

from __future__ import annotations

from typing import Iterable

from ..engine.builder import (build_bounded_plan, build_empty_plan,
                              build_union_plan)
from ..engine.naive import evaluate
from ..errors import QueryError
from ..obs.trace import span
from ..query.ast import CQ, UCQ, FOQuery, PositiveQuery
from ..query.normalize import as_ucq, normalize_cq
from ..query.terms import Var
from ..schema.access import AccessSchema
from .chase import chase_and_core
from .coverage import CoverageResult, analyze_coverage
from .decision import Budget, Decision, no, unknown, yes
from .satisfiability import a_instances, a_satisfiable


def _cq_bounded(q: CQ, access_schema: AccessSchema,
                budget: Budget | None = None) -> Decision:
    """The CQ pipeline; witness is a dict with the plan and rewriting."""
    q = normalize_cq(q, access_schema.schema)
    coverage = analyze_coverage(q, access_schema, normalized=True)
    if coverage.is_covered:
        plan = build_bounded_plan(coverage)
        return yes(f"{q.name} is covered by A (Theorem 3.11(2))",
                   witness={"plan": plan, "query": q, "coverage": coverage},
                   method="covered")

    sat = a_satisfiable(q, access_schema, budget)
    if sat.is_no:
        plan = build_empty_plan(q.arity, name=f"empty[{q.name}]")
        return yes(f"{q.name} is not A-satisfiable; the empty plan answers "
                   "it (Example 3.1(2))",
                   witness={"plan": plan, "query": q, "coverage": None},
                   method="unsatisfiable")

    rewritten = chase_and_core(q, access_schema, normalized=True)
    if rewritten.unsatisfiable:
        plan = build_empty_plan(q.arity, name=f"empty[{q.name}]")
        return yes(f"{q.name} is A-unsatisfiable by the chase",
                   witness={"plan": plan, "query": q, "coverage": None},
                   method="unsatisfiable")
    if rewritten.changed:
        coverage2 = analyze_coverage(rewritten.query, access_schema)
        if coverage2.is_covered:
            plan = build_bounded_plan(coverage2)
            return yes(
                f"{q.name} is A-equivalent to the covered query "
                f"{rewritten.query} (chase + core; Theorem 3.11(1))",
                witness={"plan": plan, "query": rewritten.query,
                         "coverage": coverage2},
                method="rewriting", chase_steps=rewritten.steps)

    diagnosis = coverage.decision().reason
    return no(f"no covered A-equivalent rewriting found for {q.name}: "
              f"{diagnosis}",
              witness={"coverage": coverage},
              complete=False, method="chase+core+coverage")


def _subsumed_by_covered(disjunct: CQ, covered_plans: list[CoverageResult],
                         access_schema: AccessSchema,
                         budget: Budget) -> Decision:
    """Check the general covered condition (Section 3.2, ∃FO+ case):
    every A-instance ``θ(T)`` of ``disjunct`` has ``θ(u)`` answered by
    some covered sub-query."""
    if not covered_plans:
        return no("no covered sub-queries available to subsume it")
    union = UCQ("covered_part", [c.query for c in covered_plans])
    extra = disjunct.constants()
    for coverage in covered_plans:
        extra |= coverage.query.constants()
    for instance in a_instances(disjunct, access_schema,
                                extra_constants=extra, budget=budget):
        answers = evaluate(union, instance.db)
        if instance.head_value not in answers:
            return no(f"A-instance of {disjunct.name} not answered by the "
                      "covered sub-queries", witness=instance)
    if budget.exhausted:
        return unknown("budget exhausted during subsumption check")
    return yes(f"every A-instance of {disjunct.name} is answered by "
               "covered sub-queries")


def _ucq_bounded(q: UCQ, access_schema: AccessSchema,
                 budget: Budget | None = None) -> Decision:
    """Lemma 3.6: Q is boundedly evaluable iff it is A-equivalent to a
    union of boundedly evaluable CQs."""
    budget = budget or Budget()
    schema = access_schema.schema
    covered_results: list[CoverageResult] = []
    pending: list[tuple[CQ, Decision]] = []
    notes: list[str] = []
    # True when a disjunct carrying $param placeholders was dropped by
    # reasoning that treats placeholders as pairwise-distinct constants
    # (A-unsatisfiability, subsumption): the verdict then holds for that
    # reading only, and a binding equating placeholder values can make
    # the dropped disjunct contribute answers.  Consumers serving
    # parameterized queries (repro.service) must not reuse the plan
    # across bindings in that case.
    value_dependent = False

    for disjunct in q.disjuncts:
        decision = _cq_bounded(disjunct, access_schema, budget)
        if decision.is_yes:
            if decision.details.get("method") == "unsatisfiable":
                notes.append(f"{disjunct.name}: A-unsatisfiable, dropped")
                if disjunct.parameters():
                    value_dependent = True
                continue
            covered_results.append(decision.witness["coverage"])
            notes.append(f"{disjunct.name}: bounded "
                         f"({decision.details.get('method')})")
        else:
            pending.append((normalize_cq(disjunct, schema), decision))

    unknown_seen = False
    for disjunct, original_decision in pending:
        subsumed = _subsumed_by_covered(disjunct, covered_results,
                                        access_schema, budget)
        if subsumed.is_yes:
            notes.append(f"{disjunct.name}: subsumed by covered sub-queries "
                         "(Example 3.5 pattern)")
            if disjunct.parameters():
                value_dependent = True
            continue
        if subsumed.is_unknown:
            unknown_seen = True
            continue
        return no(f"sub-query {disjunct.name} is neither bounded nor "
                  f"subsumed: {original_decision.reason}",
                  complete=False, notes=notes)

    if unknown_seen:
        return unknown("budget exhausted while checking sub-query "
                       "subsumption", notes=notes)
    if not covered_results:
        plan = build_empty_plan(q.arity, name=f"empty[{q.name}]")
        return yes(f"every sub-query of {q.name} is A-unsatisfiable",
                   witness={"plan": plan, "queries": []}, notes=notes,
                   method="unsatisfiable")
    plan = build_union_plan(covered_results, name=f"bounded[{q.name}]")
    return yes(f"{q.name} is A-equivalent to a union of covered CQs "
               "(Lemma 3.6)",
               witness={"plan": plan,
                        "queries": [c.query for c in covered_results]},
               notes=notes, value_dependent=value_dependent)


def is_boundedly_evaluable(query, access_schema: AccessSchema,
                           budget: Budget | None = None) -> Decision:
    """BEP for CQ, UCQ, ∃FO+ and (positively-bodied) FO queries.

    A YES decision carries a ready-to-execute bounded plan in
    ``decision.witness["plan"]``.
    """
    with span("bep_decision"):
        if isinstance(query, CQ):
            return _cq_bounded(query, access_schema, budget)
        if isinstance(query, UCQ):
            return _ucq_bounded(query, access_schema, budget)
        if isinstance(query, PositiveQuery):
            return _ucq_bounded(as_ucq(query, access_schema.schema),
                                access_schema, budget)
        if isinstance(query, FOQuery):
            if query.is_positive():
                positive = PositiveQuery(query.name, query.head, query.body)
                return is_boundedly_evaluable(positive, access_schema,
                                              budget)
            return unknown(
                "BEP is undecidable for FO (Table 1, [17]); this query "
                "uses negation or universal quantification")
        raise QueryError(f"cannot analyse {type(query).__name__}")


def is_covered(query, access_schema: AccessSchema,
               budget: Budget | None = None,
               extra_constants: Iterable[Var] = ()) -> Decision:
    """CQP — the covered query problem (Theorem 3.14).

    * CQ: the PTIME syntactic check of Section 3.2.
    * UCQ/∃FO+: the general definition — each CQ sub-query is covered,
      or all of its A-instances are answered by covered sub-queries
      (Πp2-style enumeration, exact within the budget).
    """
    if isinstance(query, CQ):
        return analyze_coverage(query, access_schema,
                                extra_constants=extra_constants).decision()
    if isinstance(query, PositiveQuery):
        query = as_ucq(query, access_schema.schema)
    if not isinstance(query, UCQ):
        raise QueryError(
            f"is_covered expects CQ/UCQ/PositiveQuery, got "
            f"{type(query).__name__} (the paper does not define covered "
            "queries for full FO)")

    budget = budget or Budget()
    covered_results: list[CoverageResult] = []
    uncovered: list[CQ] = []
    for disjunct in query.disjuncts:
        coverage = analyze_coverage(disjunct, access_schema,
                                    extra_constants=extra_constants)
        if coverage.is_covered:
            covered_results.append(coverage)
        else:
            uncovered.append(coverage.query)

    unknown_seen = False
    for disjunct in uncovered:
        subsumed = _subsumed_by_covered(disjunct, covered_results,
                                        access_schema, budget)
        if subsumed.is_no:
            return no(f"sub-query {disjunct.name} is not covered and not "
                      f"subsumed by covered sub-queries: {subsumed.reason}",
                      witness=subsumed.witness)
        if subsumed.is_unknown:
            unknown_seen = True
    if unknown_seen:
        return unknown("budget exhausted during the subsumption check")
    return yes(f"{query.name} is covered by A",
               witness={"covered": [c.query for c in covered_results]})
