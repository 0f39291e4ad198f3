"""Chasing CQs with the functional fragment of an access schema.

An ``N = 1`` access constraint ``R(X -> Y, 1)`` is a functional
dependency: on any instance satisfying ``A``, two tuples agreeing on
``X`` agree on ``Y``.  Chasing a query's tableau with these FDs derives
the equalities that *must* hold in every A-instance — the engine behind
Example 3.1's subtleties:

* Example 3.1(2): ``ϕ3 = R2(A → B, 1)`` forces ``x1 = x2`` in ``Q2``,
  contradicting ``x1 = 1 ∧ x2 = 2`` — the chase reports
  **A-unsatisfiable**, so ``Q2`` is answered by the empty plan.
* Example 3.1(3): ``ϕ4 = R3(∅ → C, 1)`` equates ``x, y, z3``; the atom
  ``R3(z1, z2, y)`` then folds into ``R3(1, 1, x)`` during core
  minimization, producing the covered query ``Q'3``.

The chase preserves A-equivalence (every derived equality holds on all
instances satisfying ``A``); core minimization preserves classical
equivalence, hence also A-equivalence.  Together they form the rewriting
step of the BEP pipeline (``core/bep.py``).

A pigeonhole fast path extends unsatisfiability detection to ``N ≥ 2``:
if more than ``N`` pairwise-distinct constant ``Y``-values share one
``X``-value, no instance can satisfy the constraint.  (Completeness of
A-satisfiability is the job of ``repro.core.satisfiability``.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .._util import UnionFind, stable_unique
from ..query.ast import CQ, Atom, Equality
from ..query.normalize import normalize_cq
from ..query.tableau import core_tableau, resolved_tableau, tableau_to_cq
from ..query.terms import Const, Term, Var, is_const
from ..query.varclasses import analyze_variables
from ..schema.access import AccessSchema


@dataclass
class ChaseResult:
    """Outcome of chasing one CQ."""

    original: CQ
    query: CQ
    unsatisfiable: bool = False
    steps: list[str] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        return bool(self.steps) or self.unsatisfiable


class _ChaseState:
    """Union-find over variables plus constant pinning."""

    def __init__(self, variables: Iterable[Var]):
        self.uf = UnionFind(variables)
        self.pin: dict[Var, Const] = {}
        self.unsatisfiable = False

    def resolve(self, term: Term) -> Term:
        if is_const(term):
            return term
        root = self.uf.find(term)
        return self.pin.get(root, root)

    def equate(self, a: Term, b: Term) -> bool:
        """Merge two resolved terms; returns True when anything changed."""
        a, b = self.resolve(a), self.resolve(b)
        if a == b:
            return False
        if is_const(a) and is_const(b):
            self.unsatisfiable = True
            return True
        if is_const(a):
            a, b = b, a
        # a is a variable root now.
        if is_const(b):
            self.pin[self.uf.find(a)] = b
            return True
        root_a, root_b = self.uf.find(a), self.uf.find(b)
        pin_a, pin_b = self.pin.get(root_a), self.pin.get(root_b)
        new_root = self.uf.union(root_a, root_b)
        if pin_a is not None and pin_b is not None and pin_a != pin_b:
            self.unsatisfiable = True
            return True
        survivor = pin_a if pin_a is not None else pin_b
        for stale in (root_a, root_b):
            self.pin.pop(stale, None)
        if survivor is not None:
            self.pin[new_root] = survivor
        return True


def chase(q: CQ, access_schema: AccessSchema,
          normalized: bool = False) -> ChaseResult:
    """Chase ``q`` with the FD fragment of ``A``; detect unsatisfiability.

    Returns an A-equivalent query in which all forced equalities are
    applied, or the original query flagged ``unsatisfiable``.
    """
    if not normalized:
        q = normalize_cq(q, access_schema.schema)
    analysis = analyze_variables(q)
    if not analysis.classically_satisfiable:
        return ChaseResult(q, q, unsatisfiable=True,
                           steps=["classically unsatisfiable"])

    state = _ChaseState(q.variables())
    for equality in q.equalities:
        state.equate(equality.left, equality.right)
        if state.unsatisfiable:
            return ChaseResult(q, q, unsatisfiable=True,
                               steps=["contradictory equalities"])

    schema = access_schema.schema
    steps: list[str] = []
    fds = access_schema.functional_constraints()
    changed = True
    while changed and not state.unsatisfiable:
        changed = False
        for constraint in fds:
            relation = schema.relation(constraint.relation_name)
            x_positions = constraint.x_positions(relation)
            y_positions = constraint.y_positions(relation)
            groups: dict[tuple, list[Atom]] = {}
            for atom in q.atoms:
                if atom.relation != constraint.relation_name:
                    continue
                key = tuple(state.resolve(atom.terms[p]) for p in x_positions)
                groups.setdefault(key, []).append(atom)
            for key, members in groups.items():
                if len(members) < 2:
                    continue
                leader = members[0]
                for follower in members[1:]:
                    for position in y_positions:
                        if state.equate(leader.terms[position],
                                        follower.terms[position]):
                            changed = True
                            steps.append(
                                f"{constraint}: {leader} and {follower} "
                                f"agree on X, equate position {position}")
                        if state.unsatisfiable:
                            return ChaseResult(
                                q, q, unsatisfiable=True,
                                steps=steps + ["constant clash during chase"])

    # Pigeonhole unsatisfiability for N >= 2 (constant-cardinality only:
    # a non-constant bound can always be outgrown by a larger instance).
    for constraint in access_schema:
        if not constraint.is_constant:
            continue
        limit = constraint.bound(0)
        relation = schema.relation(constraint.relation_name)
        x_positions = constraint.x_positions(relation)
        y_positions = constraint.y_positions(relation)
        groups: dict[tuple, set[tuple]] = {}
        for atom in q.atoms:
            if atom.relation != constraint.relation_name:
                continue
            key = tuple(state.resolve(atom.terms[p]) for p in x_positions)
            y_value = tuple(state.resolve(atom.terms[p]) for p in y_positions)
            if all(is_const(t) for t in y_value):
                groups.setdefault(key, set()).add(y_value)
        for key, y_values in groups.items():
            if len(y_values) > limit:
                steps.append(
                    f"pigeonhole: {len(y_values)} distinct constant "
                    f"Y-values under one X-value exceed {constraint}")
                return ChaseResult(q, q, unsatisfiable=True, steps=steps)

    if not steps:
        return ChaseResult(q, q)
    return ChaseResult(q, _rebuild(q, state), steps=steps)


def _rebuild(q: CQ, state: _ChaseState) -> CQ:
    """Materialize the chase state as a normalized CQ."""
    mapping: dict[Term, Term] = {}
    for var in q.variables():
        mapping[var] = state.uf.find(var)
    atoms = stable_unique(a.substitute(mapping) for a in q.atoms)
    head = [mapping[v] for v in q.head]
    needed_roots = set(head)
    for atom in atoms:
        needed_roots.update(atom.variables())
    equalities = []
    emitted: set[Var] = set()
    for root, const in sorted(state.pin.items(), key=lambda kv: kv[0].name):
        if root in needed_roots and root not in emitted:
            equalities.append(Equality(root, const))
            emitted.add(root)
    return CQ(q.name, head, atoms, equalities)


def core_of(q: CQ) -> CQ:
    """Classical core of a CQ (fold redundant atoms; Homomorphism
    Theorem [13]).  Classical equivalence implies A-equivalence, so this
    is always a sound minimization step."""
    analysis = analyze_variables(q)
    if not analysis.classically_satisfiable:
        return q
    tableau = resolved_tableau(q, analysis)
    minimized = core_tableau(tableau)
    if len(minimized.rows) == len(tableau.rows):
        return q
    return tableau_to_cq(minimized, name=q.name)


def chase_and_core(q: CQ, access_schema: AccessSchema,
                   normalized: bool = False) -> ChaseResult:
    """The BEP rewriting pipeline: chase with A's FDs, then minimize.

    The result is A-equivalent to ``q``; when it is covered, ``q`` is
    boundedly evaluable (Theorem 3.11(1) direction "if").
    """
    result = chase(q, access_schema, normalized=normalized)
    if result.unsatisfiable:
        return result
    minimized = core_of(result.query)
    if minimized is not result.query:
        result.steps.append(
            f"core minimization: {len(result.query.atoms)} -> "
            f"{len(minimized.atoms)} atoms")
        result.query = minimized
    return result
