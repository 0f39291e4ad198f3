"""Boundedly evaluable envelopes (Section 4).

When ``Q`` is not boundedly evaluable, envelopes approximate it with
covered (hence boundedly evaluable) queries with *constant* accuracy
bounds:

* an **upper envelope** ``Qu`` with ``Q ⊑A Qu`` and
  ``|Qu(D) − Q(D)| ≤ Nu`` — found among *relaxations* of ``Q``
  (atom/equality subsets, Section 4.2);
* a **lower envelope** ``Ql`` with ``Ql ⊑A Q`` and
  ``|Q(D) − Ql(D)| ≤ Nl`` — found among *k-expansions* (up to ``k``
  added atoms, Section 4.3), required A-satisfiable to rule out the
  trivial empty envelope.

Lemma 4.2 gates both: a query with an envelope must be *bounded* (its
free variables covered — Lemma 4.2(b)); queries like Q2 of Example 4.1
fail here and have no envelope at all.

Lower-envelope candidates include *FD-justified atom splits* in
addition to targeted covering atoms.  The paper's own Example 4.5
produces a lower envelope that replaces an atom by two fresh-variable
copies re-implying it under an ``N = 1`` constraint; literal
k-expansions (supersets of ``Q``'s atoms) cannot express that, so the
search also tries dropping original atoms whose ``⊑A Q`` direction is
re-established by the containment checker.  This is the one deviation
from the paper's literal definitions.

Approximation bounds are derived from the coverage structure: ``Nu`` is
the static output bound of ``Qu``'s plan; ``Nl`` is a bound on
``|Q(D)|`` itself (``Q`` is bounded, so its answer count is at most the
product of the cardinality bounds covering its free variables).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .._util import FreshNames, powerset
from ..engine.builder import build_bounded_plan, build_union_plan
from ..engine.cost import static_bounds
from ..engine.plan import Plan
from ..engine.naive import evaluate
from ..errors import QueryError, UnsafeQueryError
from ..query.ast import CQ, UCQ, Atom, Equality
from ..query.normalize import as_ucq, normalize_cq
from ..query.terms import Var
from ..schema.access import AccessSchema
from .containment import a_contained
from .coverage import CoverageResult, analyze_coverage
from .decision import Budget, Decision, no, unknown, yes
from .satisfiability import a_instances, a_satisfiable


@dataclass
class Envelope:
    """A constructed envelope: query, bounded plan and accuracy bound."""

    kind: str  # "upper" | "lower"
    query: CQ | UCQ
    plan: Plan
    bound: int | None
    coverage: CoverageResult | None = None

    def __str__(self) -> str:
        return (f"{self.kind} envelope {self.query} "
                f"(accuracy bound {self.bound})")


# ---------------------------------------------------------------------------
# Shared: boundedness precondition and |Q(D)| bound.
# ---------------------------------------------------------------------------

def _boundedness_gate(q: CQ, access_schema: AccessSchema) -> Decision | None:
    """Lemma 4.2(a)+(b): no envelope unless all free variables covered."""
    coverage = analyze_coverage(q, access_schema)
    if coverage.free_uncovered:
        names = ", ".join(v.name for v in coverage.free_uncovered)
        return no(f"{q.name} is not bounded under A (free variables "
                  f"{names} not covered; Lemma 4.2), hence it has no "
                  "envelope")
    return None


def answer_count_bound(q: CQ, access_schema: AccessSchema,
                       db_size: int | None = None) -> int | None:
    """A constant ``cr`` with ``|Q(D)| ≤ cr`` for every ``D |= A``.

    Valid only when ``Q`` is bounded (free variables covered): the
    coverage applications enumerate at most ``∏ N_i`` combinations of
    covered-variable values.  Returns None when a non-constant
    constraint is involved and ``db_size`` is not given.
    """
    coverage = analyze_coverage(q, access_schema)
    if coverage.free_uncovered:
        raise QueryError(f"{q.name} is not bounded; |Q(D)| has no constant "
                         "bound (Lemma 4.2)")
    bound = 1
    for application in coverage.applications:
        constraint = application.constraint
        if constraint.is_constant:
            bound *= constraint.bound(0)
        elif db_size is not None:
            bound *= constraint.bound(db_size)
        else:
            return None
    return bound


# ---------------------------------------------------------------------------
# Upper envelopes (Section 4.2).
# ---------------------------------------------------------------------------

def _relaxation(q: CQ, kept_atom_indices: Sequence[int]) -> CQ | None:
    """Build the relaxation keeping the given atoms.

    Equality atoms are kept when their variables remain reachable from
    the kept atoms or the head (closing over kept equalities), so the
    result is a syntactic subset of ``Q``'s atomic formulas.  Returns
    None when the candidate is unsafe (a free variable lost its
    support).
    """
    atoms = [q.atoms[i] for i in kept_atom_indices]
    known: set[Var] = set(q.head)
    for atom in atoms:
        known.update(atom.variables())
    kept_equalities: list[Equality] = []
    remaining = list(q.equalities)
    changed = True
    while changed:
        changed = False
        for equality in list(remaining):
            if all(v in known for v in equality.variables()):
                kept_equalities.append(equality)
                remaining.remove(equality)
                changed = True
            elif (equality.is_var_const and equality.left in known):
                kept_equalities.append(equality)
                remaining.remove(equality)
                changed = True
    candidate = CQ(f"{q.name}_u", q.head, atoms, kept_equalities)
    try:
        from ..query.normalize import check_safety
        check_safety(candidate)
    except UnsafeQueryError:
        return None
    return candidate


def _upper_envelope_cq(q: CQ, access_schema: AccessSchema,
                       budget: Budget,
                       db_size: int | None = None) -> Decision:
    q = normalize_cq(q, access_schema.schema)
    gate = _boundedness_gate(q, access_schema)
    if gate is not None:
        return gate

    indices = list(range(len(q.atoms)))
    # Prefer removing as little as possible: tightest envelope first.
    for removed_count in range(0, len(q.atoms) + 1):
        for removed in itertools.combinations(indices, removed_count):
            if not budget.spend():
                return unknown("budget exhausted during relaxation search")
            kept = [i for i in indices if i not in removed]
            candidate = _relaxation(q, kept)
            if candidate is None:
                continue
            coverage = analyze_coverage(candidate, access_schema)
            if not coverage.is_covered:
                continue
            plan = build_bounded_plan(coverage)
            cost = (static_bounds(plan, db_size)
                    if access_schema.all_constant or db_size is not None
                    else None)
            bound = cost.output_bound if cost is not None else None
            envelope = Envelope("upper", coverage.query, plan, bound,
                                coverage)
            return yes(
                f"covered relaxation found by removing "
                f"{removed_count} atom(s)",
                witness=envelope, removed_atoms=[str(q.atoms[i])
                                                 for i in removed])
    return no(f"no relaxation of {q.name} is covered by A")


def upper_envelope(query, access_schema: AccessSchema,
                   budget: Budget | None = None,
                   db_size: int | None = None) -> Decision:
    """UEP (Theorem 4.4): search for a covered relaxation upper envelope.

    For UCQ/∃FO+ follows Lemma 4.3: every CQ sub-query either has a
    covered relaxation or all of its A-instances are answered by the
    covered relaxations of other sub-queries.
    """
    budget = budget or Budget()
    if isinstance(query, CQ):
        return _upper_envelope_cq(query, access_schema, budget, db_size)
    query = as_ucq(query, access_schema.schema)

    relaxations: list[Envelope] = []
    stranded: list[CQ] = []
    for disjunct in query.disjuncts:
        decision = _upper_envelope_cq(disjunct, access_schema, budget,
                                      db_size)
        if decision.is_no and "not bounded" in decision.reason:
            return no(f"{query.name} is not bounded: {decision.reason}")
        if decision.is_yes:
            relaxations.append(decision.witness)
        elif decision.is_unknown:
            return decision
        else:
            stranded.append(normalize_cq(disjunct, access_schema.schema))

    # Lemma 4.3's second disjunct: stranded sub-queries must be answered
    # by the covered relaxations on every A-instance.
    if stranded:
        if not relaxations:
            return no("no CQ sub-query has a covered relaxation")
        union = UCQ("relaxed", [e.query for e in relaxations])
        extra = set()
        for cq in list(stranded) + [e.query for e in relaxations]:
            extra |= cq.constants()
        for disjunct in stranded:
            for instance in a_instances(disjunct, access_schema,
                                        extra_constants=extra,
                                        budget=budget):
                if instance.head_value not in evaluate(union, instance.db):
                    return no(
                        f"sub-query {disjunct.name} has no covered "
                        "relaxation and is not subsumed by the others "
                        "(Lemma 4.3)", witness=instance)
            if budget.exhausted:
                return unknown("budget exhausted during Lemma 4.3 check")

    plan = build_union_plan([e.coverage for e in relaxations],
                            name=f"upper[{query.name}]")
    bounds = [e.bound for e in relaxations]
    total = sum(bounds) if all(b is not None for b in bounds) else None
    union_query = UCQ(f"{query.name}_u", [e.query for e in relaxations])
    return yes("upper envelope assembled from covered relaxations",
               witness=Envelope("upper", union_query, plan, total))


# ---------------------------------------------------------------------------
# Lower envelopes (Section 4.3).
# ---------------------------------------------------------------------------

def _covering_atom_candidates(q: CQ, coverage: CoverageResult,
                              access_schema: AccessSchema,
                              fresh: FreshNames,
                              max_x_combos: int = 16) -> list[Atom]:
    """Targeted candidates: atoms that could cover a problem variable.

    For each constraint ``R(X -> Y, N)`` and each problem variable ``v``
    (a lone-violation or an X-side blocker), place ``v`` at a
    Y-position, fill X-positions with currently covered variables of the
    same query (all small combinations), and freshen the rest.
    """
    schema = access_schema.schema
    problems = set(coverage.lone_violations) | set(coverage.free_uncovered)
    for atom_index in coverage.unindexed_atoms:
        problems.update(coverage.query.atoms[atom_index].variables())
    covered_pool = sorted((v for v in coverage.covered
                           if coverage.analysis.is_data_dependent(v)
                           or coverage.analysis.is_constant_var(v)),
                          key=lambda v: v.name)
    candidates: list[Atom] = []
    for constraint in access_schema:
        relation = schema.relation(constraint.relation_name)
        x_positions = constraint.x_positions(relation)
        y_positions = constraint.y_positions(relation)
        combos = list(itertools.islice(
            itertools.product(covered_pool, repeat=len(x_positions)),
            max_x_combos)) or [()]
        for target in sorted(problems, key=lambda v: v.name):
            for y_position in y_positions:
                for combo in combos:
                    terms: list = [None] * relation.arity
                    for position, var in zip(x_positions, combo):
                        terms[position] = var
                    terms[y_position] = target
                    for position in range(relation.arity):
                        if terms[position] is None:
                            terms[position] = Var(fresh.fresh("w"))
                    candidates.append(Atom(relation.name, terms))
    return candidates


def _split_candidates(q: CQ, access_schema: AccessSchema,
                      fresh: FreshNames) -> list[tuple[int, Atom]]:
    """Example 4.5 candidates: per original atom and constraint, a copy
    with the positions outside ``X ∪ Y`` freshened.  Each copy is
    classically implied by its original, so adding copies preserves
    equivalence; dropping originals is validated separately."""
    schema = access_schema.schema
    results: list[tuple[int, Atom]] = []
    for atom_index, atom in enumerate(q.atoms):
        relation = schema.relation(atom.relation)
        for constraint in access_schema.for_relation(atom.relation):
            span = set(constraint.x_positions(relation)) | \
                set(constraint.y_positions(relation))
            outside = [p for p in range(relation.arity) if p not in span]
            if not outside:
                continue
            terms = list(atom.terms)
            for position in outside:
                terms[position] = Var(fresh.fresh("s"))
            copy = Atom(atom.relation, terms)
            if copy != atom:
                results.append((atom_index, copy))
    return results


def _try_lower_candidate(q: CQ, candidate: CQ,
                         access_schema: AccessSchema, budget: Budget,
                         needs_containment_check: bool,
                         db_size: int | None) -> Envelope | None:
    try:
        coverage = analyze_coverage(candidate, access_schema)
    except UnsafeQueryError:
        # Dropping an original atom may strand a variable (e.g. a head
        # variable whose only support was the dropped atom).
        return None
    if not coverage.is_covered:
        return None
    sat = a_satisfiable(coverage.query, access_schema, budget)
    if not sat.is_yes:
        return None
    if needs_containment_check:
        contained = a_contained(coverage.query, q, access_schema, budget)
        if not contained.is_yes:
            return None
    plan = build_bounded_plan(coverage)
    try:
        n_l = answer_count_bound(q, access_schema, db_size)
    except QueryError:
        n_l = None
    return Envelope("lower", coverage.query, plan, n_l, coverage)


def _lower_envelope_cq(q: CQ, access_schema: AccessSchema, k: int,
                       budget: Budget,
                       db_size: int | None = None) -> Decision:
    q = normalize_cq(q, access_schema.schema)
    gate = _boundedness_gate(q, access_schema)
    if gate is not None:
        return gate

    coverage = analyze_coverage(q, access_schema, normalized=True)
    fresh = FreshNames(v.name for v in q.variables())
    covering = _covering_atom_candidates(q, coverage, access_schema, fresh)
    splits = _split_candidates(q, access_schema, fresh)

    # Phase 1 — literal k-expansions: Q plus up to k new atoms (always
    # classically contained in Q; no containment check needed).
    pool = covering + [atom for _, atom in splits]
    seen: set[tuple] = set()
    unique_pool = []
    for atom in pool:
        key = (atom.relation, atom.terms)
        if key not in seen:
            seen.add(key)
            unique_pool.append(atom)
    for added in powerset(unique_pool, min_size=1, max_size=k):
        if not budget.spend():
            return unknown("budget exhausted during k-expansion search")
        candidate = CQ(f"{q.name}_l", q.head, q.atoms + tuple(added),
                       q.equalities)
        envelope = _try_lower_candidate(q, candidate, access_schema, budget,
                                        needs_containment_check=False,
                                        db_size=db_size)
        if envelope is not None:
            return yes(f"covered {len(added)}-expansion lower envelope",
                       witness=envelope,
                       added_atoms=[str(a) for a in added])

    # Phase 2 — atom splits with original-atom drops (Example 4.5): the
    # candidate is no longer a superset of Q's atoms, so ``⊑A Q`` is
    # re-established by the A-containment checker.
    by_original: dict[int, list[Atom]] = {}
    for atom_index, copy in splits:
        by_original.setdefault(atom_index, []).append(copy)
    for atom_index, copies in by_original.items():
        for chosen in powerset(copies, min_size=1,
                               max_size=min(k, len(copies))):
            if not budget.spend():
                return unknown("budget exhausted during split search")
            remaining = tuple(a for i, a in enumerate(q.atoms)
                              if i != atom_index)
            candidate = CQ(f"{q.name}_l", q.head, remaining + tuple(chosen),
                           q.equalities)
            envelope = _try_lower_candidate(
                q, candidate, access_schema, budget,
                needs_containment_check=True, db_size=db_size)
            if envelope is not None:
                return yes(
                    f"covered lower envelope via an FD-justified split of "
                    f"{q.atoms[atom_index]} (Example 4.5 pattern)",
                    witness=envelope,
                    split_atom=str(q.atoms[atom_index]),
                    added_atoms=[str(a) for a in chosen])

    return no(f"no covered, A-satisfiable {k}-expansion lower envelope "
              f"of {q.name} found", complete=False)


def lower_envelope(query, access_schema: AccessSchema, k: int = 2,
                   budget: Budget | None = None,
                   db_size: int | None = None) -> Decision:
    """LEP (Theorem 4.7): search for a covered, A-satisfiable
    k-expansion lower envelope.

    For UCQ/∃FO+ follows Lemma 4.6: all sub-queries must be bounded and
    at least one must admit a covered A-satisfiable k-expansion; the
    witness unions every expansion found (a tighter valid envelope).
    """
    budget = budget or Budget()
    if isinstance(query, CQ):
        return _lower_envelope_cq(query, access_schema, k, budget, db_size)
    query = as_ucq(query, access_schema.schema)

    # Lemma 4.6(a): Q must be bounded, i.e. every sub-query bounded.
    for disjunct in query.disjuncts:
        normalized = normalize_cq(disjunct, access_schema.schema)
        gate = _boundedness_gate(normalized, access_schema)
        if gate is not None:
            return no(f"{query.name} is not bounded: {gate.reason}")

    envelopes: list[Envelope] = []
    for disjunct in query.disjuncts:
        decision = _lower_envelope_cq(disjunct, access_schema, k, budget,
                                      db_size)
        if decision.is_yes:
            envelopes.append(decision.witness)
        elif decision.is_unknown:
            return decision
    if not envelopes:
        return no(f"no CQ sub-query of {query.name} admits a covered, "
                  f"A-satisfiable {k}-expansion (Lemma 4.6)",
                  complete=False)
    plan = build_union_plan([e.coverage for e in envelopes],
                            name=f"lower[{query.name}]")
    # |Q(D) − Ql(D)| ≤ Σ_i |Qi(D)|: each disjunct's answers are bounded
    # because the whole UCQ is bounded (Lemma 4.2(c)).
    bounds = [e.bound for e in envelopes]
    total = sum(bounds) if all(b is not None for b in bounds) else None
    union_query = UCQ(f"{query.name}_l", [e.query for e in envelopes])
    return yes("lower envelope assembled from sub-query expansions",
               witness=Envelope("lower", union_query, plan, total))
