"""Tableau representation of CQs and homomorphism machinery.

A CQ ``Q`` is classically represented by a tableau ``(T_Q, u)``: the
relation atoms as rows over variables/constants, plus the head summary
``u`` (paper, proof of Lemma 3.2).  This module provides:

* :func:`resolved_tableau` — the tableau with every term replaced by its
  eq-class representative, or by the pinning constant when the class is
  equated with a constant.  This "resolved" form makes equality atoms
  implicit, which simplifies the chase, homomorphism search and
  A-instance enumeration.
* :func:`find_homomorphism` — backtracking search for a homomorphism
  between tableaux fixing constants (and any prescribed variables); the
  engine behind classical containment and core minimization.
* :func:`tableau_to_cq` — rebuild a normalized CQ from a resolved
  tableau (constants are pulled back out of atoms into equality atoms to
  respect the paper's normal form).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .._util import FreshNames
from ..errors import QueryError
from .ast import CQ, Atom, Equality
from .terms import Const, Term, Var, is_const, is_var
from .varclasses import VariableAnalysis, analyze_variables


@dataclass(frozen=True)
class Row:
    """One tableau row: a relation name and a term tuple."""

    relation: str
    terms: tuple[Term, ...]

    def __str__(self) -> str:
        return f"{self.relation}({', '.join(str(t) for t in self.terms)})"


@dataclass
class Tableau:
    """A resolved tableau ``(T_Q, u)``.

    ``rows`` contain representative variables and constants only; the
    equality atoms of the source query are fully absorbed (same-class
    variables collapsed, pinned classes replaced by their constant).
    ``summary`` is the resolved head.  ``rep_of`` maps each original
    variable to its resolved term, so answers can be translated back.
    """

    rows: tuple[Row, ...]
    summary: tuple[Term, ...]
    rep_of: dict[Var, Term]
    name: str = "Q"

    def variables(self) -> set[Var]:
        result: set[Var] = set()
        for row in self.rows:
            result.update(t for t in row.terms if is_var(t))
        result.update(t for t in self.summary if is_var(t))
        return result

    def constants(self) -> set[Const]:
        result: set[Const] = set()
        for row in self.rows:
            result.update(t for t in row.terms if is_const(t))
        result.update(t for t in self.summary if is_const(t))
        return result

    def __str__(self) -> str:
        rows = ", ".join(str(r) for r in self.rows)
        summary = ", ".join(str(t) for t in self.summary)
        return f"({{{rows}}}, ({summary}))"


def resolved_tableau(q: CQ, analysis: VariableAnalysis | None = None) -> Tableau:
    """Build the resolved tableau of a normalized CQ.

    Raises :class:`QueryError` when the query is classically
    unsatisfiable (a class pinned to two constants): such a query has no
    tableau instance; callers check ``analysis.classically_satisfiable``
    first (the library treats those queries as trivially empty).
    """
    if analysis is None:
        analysis = analyze_variables(q)
    if not analysis.classically_satisfiable:
        raise QueryError(
            f"{q.name} is classically unsatisfiable; it has no tableau"
        )

    def resolve(term: Term) -> Term:
        if is_const(term):
            return term
        constant = analysis.constant_of(term)
        if constant is not None:
            return constant
        return analysis.eq.find(term)

    rows = tuple(
        Row(atom.relation, tuple(resolve(t) for t in atom.terms))
        for atom in q.atoms
    )
    summary = tuple(resolve(v) for v in q.head)
    rep_of = {v: resolve(v) for v in q.variables()}
    return Tableau(rows=rows, summary=summary, rep_of=rep_of, name=q.name)


def tableau_to_cq(tableau: Tableau, name: str | None = None) -> CQ:
    """Rebuild a normalized CQ from a resolved tableau.

    Constants inside rows become fresh pinned variables; constants in
    the summary likewise (a head position equal to a constant needs a
    variable with an equality atom).  Inverse of :func:`resolved_tableau`
    up to A-equivalence and variable naming.
    """
    taken = {v.name for v in tableau.variables()}
    fresh = FreshNames(taken)
    pin_var: dict[Const, Var] = {}
    equalities: list[Equality] = []

    def unresolve(term: Term) -> Var:
        if is_var(term):
            return term
        if term not in pin_var:
            var = Var(fresh.fresh("c"))
            pin_var[term] = var
            equalities.append(Equality(var, term))
        return pin_var[term]

    atoms = [
        Atom(row.relation, tuple(unresolve(t) for t in row.terms))
        for row in tableau.rows
    ]
    head = tuple(unresolve(t) for t in tableau.summary)
    return CQ(name or tableau.name, head, atoms, equalities)


def find_homomorphism(
    source_rows: Sequence[Row],
    target_rows: Sequence[Row],
    fixed: Mapping[Term, Term] | None = None,
) -> dict[Term, Term] | None:
    """Find a homomorphism mapping every source row onto some target row.

    Constants map to themselves; variables map to any term, subject to
    ``fixed`` (pre-assigned images, e.g. head variables for retractions).
    Returns the mapping or ``None``.  Backtracking with a most-
    constrained-first row order.
    """
    assignment: dict[Term, Term] = dict(fixed or {})
    for term, image in list(assignment.items()):
        if is_const(term) and term != image:
            return None

    targets_by_relation: dict[str, list[Row]] = {}
    for row in target_rows:
        targets_by_relation.setdefault(row.relation, []).append(row)

    # Order source rows: fewest candidate targets first, then most
    # already-bound variables first (cheap fail-fast heuristic).
    ordered = sorted(
        source_rows,
        key=lambda r: len(targets_by_relation.get(r.relation, ())),
    )

    def extend(index: int) -> bool:
        if index == len(ordered):
            return True
        row = ordered[index]
        for candidate in targets_by_relation.get(row.relation, ()):
            trail: list[Term] = []
            ok = True
            for term, image in zip(row.terms, candidate.terms):
                if is_const(term):
                    if term != image:
                        ok = False
                        break
                    continue
                bound = assignment.get(term)
                if bound is None:
                    assignment[term] = image
                    trail.append(term)
                elif bound != image:
                    ok = False
                    break
            if ok and extend(index + 1):
                return True
            for term in trail:
                del assignment[term]
        return False

    if extend(0):
        return dict(assignment)
    return None


def core_tableau(tableau: Tableau) -> Tableau:
    """The core of a tableau: fold away redundant rows.

    Repeatedly looks for a retraction — a homomorphism from the full row
    set into a proper subset that fixes the summary terms — and keeps
    the image.  The result is the classical core, unique up to
    isomorphism; since classical equivalence implies A-equivalence for
    every access schema A, core minimization is always sound for the
    bounded-evaluability pipeline (``core/bep.py``).
    """
    rows = list(tableau.rows)
    fixed = {t: t for t in tableau.summary if is_var(t)}
    changed = True
    while changed:
        changed = False
        for i in range(len(rows)):
            without = rows[:i] + rows[i + 1:]
            hom = find_homomorphism(rows, without, fixed)
            if hom is not None:
                # Apply the retraction image: fold rows through hom.
                folded = []
                seen = set()
                for row in rows:
                    image = Row(row.relation,
                                tuple(hom.get(t, t) for t in row.terms))
                    if image not in seen:
                        seen.add(image)
                        folded.append(image)
                rows = folded
                changed = True
                break
    rep_of = dict(tableau.rep_of)
    return Tableau(rows=tuple(rows), summary=tableau.summary,
                   rep_of=rep_of, name=tableau.name)


def classically_contained(q1: CQ, q2: CQ) -> bool:
    """Classical containment ``Q1 ⊆ Q2`` by the Homomorphism Theorem [13].

    There must be a homomorphism from ``T_Q2`` into ``T_Q1`` mapping the
    summary of ``Q2`` onto the summary of ``Q1``.  Classically
    unsatisfiable queries are contained in everything.
    """
    analysis1 = analyze_variables(q1)
    if not analysis1.classically_satisfiable:
        return True
    analysis2 = analyze_variables(q2)
    if not analysis2.classically_satisfiable:
        return False  # q1 is satisfiable here, q2 is empty.
    t1 = resolved_tableau(q1, analysis1)
    t2 = resolved_tableau(q2, analysis2)
    if len(t1.summary) != len(t2.summary):
        return False
    fixed: dict[Term, Term] = {}
    for term2, term1 in zip(t2.summary, t1.summary):
        if is_const(term2):
            if term2 != term1:
                return False
        elif term2 in fixed:
            if fixed[term2] != term1:
                return False
        else:
            fixed[term2] = term1
    return find_homomorphism(t2.rows, t1.rows, fixed) is not None


def classically_equivalent(q1: CQ, q2: CQ) -> bool:
    """Classical equivalence: mutual containment."""
    return classically_contained(q1, q2) and classically_contained(q2, q1)
