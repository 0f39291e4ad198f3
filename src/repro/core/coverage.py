"""Covered variables and covered queries — the effective syntax.

This is the PTIME heart of the paper (Section 3.2): ``cov(Q, A)`` is the
set of variables whose values are determined by the query or retrievable
through the indexes of ``A``; a CQ is *covered* when

  (a) its free variables are covered,
  (b) every non-covered variable is non-constant and occurs only once, and
  (c) every relation atom is *indexed* by some constraint whose X-side
      is covered and whose X∪Y span all the atom's "needed" positions.

Theorem 3.11: covered queries are boundedly evaluable; every boundedly
evaluable CQ is A-equivalent to a covered one; and coverage is checkable
in PTIME — it is an *effective syntax* for bounded evaluability.

Implementation notes:

* The fixpoint is seeded with all constant variables (their values come
  from the query) and all data-independent variables (Section 3.2 sets
  ``cov(Q_di, A) = var(Q_di)``).  Seeding constant variables makes the
  fixpoint a plain monotone closure, hence order-independent
  (Lemma 3.9), and agrees with the paper's worked examples
  (cov(Q3, A3) = {x, y, z3, x1, x2} in Example 3.1/3.10).
* Applications are recorded in order; the bounded-plan builder replays
  the trace (``repro.engine.builder``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..query.ast import CQ, UCQ, Atom
from ..query.normalize import normalize_cq
from ..query.terms import Var, is_var
from ..query.varclasses import VariableAnalysis, analyze_variables
from ..schema.access import AccessConstraint, AccessSchema
from .decision import Decision, no, yes


@dataclass(frozen=True)
class ConstraintApplication:
    """One step of the coverage fixpoint: ``constraint`` applied to
    ``Q``'s atom number ``atom_index``, newly covering ``new_vars``."""

    constraint: AccessConstraint
    atom_index: int
    new_vars: tuple[Var, ...]

    def __str__(self) -> str:
        covered = ", ".join(v.name for v in self.new_vars)
        return (f"apply {self.constraint} to atom #{self.atom_index} "
                f"covering {{{covered}}}")


@dataclass(frozen=True)
class AtomIndexWitness:
    """Condition (c) evidence: ``constraint`` indexes atom ``atom_index``;
    ``checked_positions`` are the positions whose values the index can
    verify (the rest hold lone bound variables)."""

    atom_index: int
    constraint: AccessConstraint
    checked_positions: tuple[int, ...]


@dataclass
class CoverageResult:
    """Everything the coverage analysis learned about one CQ."""

    query: CQ
    access_schema: AccessSchema
    analysis: VariableAnalysis
    covered: set[Var]
    applications: list[ConstraintApplication]
    free_uncovered: list[Var]
    lone_violations: list[Var]
    unindexed_atoms: list[int]
    atom_witnesses: dict[int, AtomIndexWitness]

    @property
    def is_covered(self) -> bool:
        return (not self.free_uncovered and not self.lone_violations
                and not self.unindexed_atoms)

    def decision(self) -> Decision:
        if self.is_covered:
            return yes(f"{self.query.name} is covered by the access schema",
                       witness=self)
        reasons = []
        if self.free_uncovered:
            names = ", ".join(v.name for v in self.free_uncovered)
            reasons.append(f"free variables not covered: {names}")
        if self.lone_violations:
            names = ", ".join(v.name for v in self.lone_violations)
            reasons.append(
                f"non-covered variables occurring more than once or "
                f"pinned to constants: {names}")
        if self.unindexed_atoms:
            atoms = ", ".join(str(self.query.atoms[i])
                              for i in self.unindexed_atoms)
            reasons.append(f"atoms not indexed by any constraint: {atoms}")
        return no("; ".join(reasons), witness=self,
                  free_uncovered=list(self.free_uncovered),
                  lone_violations=list(self.lone_violations),
                  unindexed_atoms=list(self.unindexed_atoms))

    def explain(self) -> str:
        lines = [f"coverage analysis of {self.query}"]
        lines.append(f"  covered variables: "
                     f"{{{', '.join(sorted(v.name for v in self.covered))}}}")
        for application in self.applications:
            lines.append(f"  {application}")
        decision = self.decision()
        lines.append(f"  => {decision.explain()}")
        return "\n".join(lines)


def covered_variables(q: CQ, access_schema: AccessSchema,
                      analysis: VariableAnalysis | None = None,
                      extra_constants: Iterable[Var] = (),
                      ) -> tuple[set[Var], list[ConstraintApplication]]:
    """Compute ``cov(Q, A)`` and the application trace (Lemma 3.9).

    ``extra_constants`` lets callers treat chosen variables as constant
    variables without rewriting the query — exactly what instantiating
    the parameters of a specialized query does (Section 5): coverage of
    ``Q(x̄ = c̄)`` is the same for every valuation ``c̄``.
    """
    if analysis is None:
        analysis = analyze_variables(q)
    covered: set[Var] = set()
    # Seed: data-independent variables (cov(Q_di, A) = var(Q_di)) ...
    for var in q.variables():
        if analysis.is_data_independent(var):
            covered.add(var)
    # ... plus constant variables (values known from Q) and any
    # variables the caller promises to instantiate.
    for var in analysis.constant_vars:
        covered.update(analysis.eqplus_class(var))
    for var in extra_constants:
        covered.update(analysis.eqplus_class(var))

    applications: list[ConstraintApplication] = []
    schema = access_schema.schema
    changed = True
    while changed:
        changed = False
        for constraint in access_schema:
            relation = schema.relation(constraint.relation_name)
            x_positions = constraint.x_positions(relation)
            y_positions = constraint.y_positions(relation)
            for atom_index, atom in enumerate(q.atoms):
                if atom.relation != constraint.relation_name:
                    continue
                x_terms = [atom.terms[p] for p in x_positions]
                if not all(is_var(t) and t in covered for t in x_terms):
                    continue
                new_vars: list[Var] = []
                for position in y_positions:
                    term = atom.terms[position]
                    if is_var(term) and term not in covered:
                        for member in analysis.eqplus_class(term):
                            if member not in covered:
                                new_vars.append(member)
                                covered.add(member)
                if new_vars:
                    applications.append(ConstraintApplication(
                        constraint, atom_index, tuple(new_vars)))
                    changed = True
    return covered, applications


def _atom_index_witness(q: CQ, atom_index: int, atom: Atom,
                        access_schema: AccessSchema,
                        covered: set[Var],
                        lone_ok: set[Var]) -> AtomIndexWitness | None:
    """Find a constraint witnessing condition (c) for one atom.

    A variable is "needed" at a position unless it is a bound variable
    occurring exactly once in the query (``lone_ok``).  The witness
    constraint must have all X-position variables covered and all needed
    positions inside X ∪ Y.
    """
    schema = access_schema.schema
    relation = schema.relation(atom.relation)
    needed_positions = [
        position for position, term in enumerate(atom.terms)
        if not (is_var(term) and term in lone_ok)
    ]
    for constraint in access_schema.for_relation(atom.relation):
        x_positions = set(constraint.x_positions(relation))
        y_positions = set(constraint.y_positions(relation))
        span = x_positions | y_positions
        x_terms = [atom.terms[p] for p in x_positions]
        if not all(is_var(t) and t in covered for t in x_terms):
            continue
        if all(position in span for position in needed_positions):
            return AtomIndexWitness(atom_index, constraint,
                                    tuple(sorted(needed_positions)))
    return None


def analyze_coverage(q: CQ, access_schema: AccessSchema,
                     extra_constants: Iterable[Var] = (),
                     normalized: bool = False) -> CoverageResult:
    """Full coverage analysis of one CQ (conditions (a), (b), (c)).

    ``normalized=True`` skips re-normalization when the caller already
    normalized the query against the schema.
    """
    if not normalized:
        q = normalize_cq(q, access_schema.schema)
    analysis = analyze_variables(q)
    covered, applications = covered_variables(
        q, access_schema, analysis, extra_constants)

    free_uncovered = [v for v in q.head if v not in covered]

    # Condition (c) excludes *every* bound variable occurring exactly
    # once — covered or not (the paper's ȳ is "w̄ excluding bound
    # variables that only occur once in Q").  Example 4.5's lower
    # envelope relies on this: z1 is covered there, yet exempt from the
    # index-span requirement.
    bound_vars = q.bound_variables()
    lone_ok: set[Var] = {
        var for var in bound_vars
        if q.occurrence_count(var) == 1
        and not analysis.is_constant_var(var)
    }

    # Condition (b) constrains the non-covered variables only.
    lone_violations: list[Var] = []
    for var in sorted(q.variables() - covered, key=lambda v: v.name):
        if var in q.head:
            continue  # Condition (a) already flags free variables.
        if var not in lone_ok:
            lone_violations.append(var)

    unindexed: list[int] = []
    witnesses: dict[int, AtomIndexWitness] = {}
    for atom_index, atom in enumerate(q.atoms):
        witness = _atom_index_witness(
            q, atom_index, atom, access_schema, covered, lone_ok)
        if witness is None:
            unindexed.append(atom_index)
        else:
            witnesses[atom_index] = witness

    return CoverageResult(
        query=q,
        access_schema=access_schema,
        analysis=analysis,
        covered=covered,
        applications=applications,
        free_uncovered=free_uncovered,
        lone_violations=lone_violations,
        unindexed_atoms=unindexed,
        atom_witnesses=witnesses,
    )


def is_covered_cq(q: CQ, access_schema: AccessSchema,
                  extra_constants: Iterable[Var] = ()) -> Decision:
    """CQP(CQ): PTIME covered-query check (Theorems 3.11/3.14)."""
    return analyze_coverage(q, access_schema, extra_constants).decision()


def is_bounded_cq(q: CQ, access_schema: AccessSchema) -> Decision:
    """Lemma 4.2(b): a CQ is *bounded* under A iff all free variables are
    covered.  (Bounded is weaker than boundedly evaluable: Q1 of
    Example 4.1 is bounded but has no bounded plan.)"""
    result = analyze_coverage(q, access_schema)
    if not result.free_uncovered:
        return yes(f"all free variables of {q.name} are covered",
                   witness=result)
    names = ", ".join(v.name for v in result.free_uncovered)
    return no(f"free variables not covered: {names}", witness=result)


def covered_disjuncts(q: UCQ, access_schema: AccessSchema
                      ) -> tuple[list[int], list[int]]:
    """Split a UCQ's disjunct indices into (covered, uncovered)."""
    covered: list[int] = []
    uncovered: list[int] = []
    for index, disjunct in enumerate(q.disjuncts):
        if analyze_coverage(disjunct, access_schema).is_covered:
            covered.append(index)
        else:
            uncovered.append(index)
    return covered, uncovered
