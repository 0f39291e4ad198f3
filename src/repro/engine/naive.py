"""Naive (scan-based) query evaluation — the costly baseline.

Bounded evaluation's whole point is to beat this module: here queries
are answered by scanning and joining entire relations, so work grows
with ``|D|``.  It doubles as the reference semantics for every other
component (plans, envelopes, specializations are all property-tested
against it).

* CQ/UCQ/∃FO+ are evaluated with a pipelined hash join over resolved
  tableaux — an idealized in-memory stand-in for the paper's MySQL
  baseline.
* FO is evaluated by active-domain recursion, exponential in the number
  of quantifiers; fine for the small instances the tests use, and the
  best one can do generically for full FO.

``ScanStats`` counts every tuple read, so benchmarks can contrast
scan-based access volume with the bounded plans' fetch counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

from ..errors import QueryError
from ..query.ast import (CQ, UCQ, FAnd, FAtom, FEq, FExists, FForAll, FNot,
                         FOQuery, FOr, Formula, PositiveQuery)
from ..query.normalize import as_ucq
from ..query.tableau import Row, resolved_tableau
from ..query.terms import Var, is_const, is_var
from ..query.varclasses import analyze_variables
from ..storage.database import Database


@dataclass
class ScanStats:
    """Accounting for scan-based evaluation."""

    tuples_scanned: int = 0
    relations_scanned: int = 0
    intermediate_rows: int = 0

    def merge(self, other: "ScanStats") -> None:
        self.tuples_scanned += other.tuples_scanned
        self.relations_scanned += other.relations_scanned
        self.intermediate_rows += other.intermediate_rows


def evaluate_cq(q: CQ, db: Database,
                stats: ScanStats | None = None) -> set[tuple]:
    """Evaluate a normalized CQ by hash-joining full relation scans.

    Returns the answer set ``Q(D)`` as a set of value tuples (one per
    head position; ``set()`` vs ``{()}`` distinguishes false/true for
    Boolean queries).
    """
    stats = stats if stats is not None else ScanStats()
    analysis = analyze_variables(q)
    if not analysis.classically_satisfiable:
        return set()
    tableau = resolved_tableau(q, analysis)

    # Partial bindings over representative variables, built row by row.
    bindings: list[dict[Var, Hashable]] = [{}]
    bound: set[Var] = set()

    for row in _join_order(tableau.rows):
        bindings = _hash_join_step(row, bindings, bound, db, stats)
        if not bindings:
            return set()
        bound.update(t for t in row.terms if is_var(t))

    answers: set[tuple] = set()
    for binding in bindings:
        answer = []
        for term in tableau.summary:
            if is_const(term):
                answer.append(term.value)
            else:
                if term not in binding:
                    raise QueryError(
                        f"head variable {term} of {q.name} is unbound after "
                        "evaluation; the query is unsafe"
                    )
                answer.append(binding[term])
        answers.add(tuple(answer))
    return answers


def _join_order(rows: Sequence[Row]) -> list[Row]:
    """Greedy ordering: prefer rows sharing variables with what is bound."""
    remaining = list(rows)
    ordered: list[Row] = []
    bound: set[Var] = set()
    while remaining:
        def score(row: Row) -> tuple:
            row_vars = {t for t in row.terms if is_var(t)}
            consts = sum(1 for t in row.terms if is_const(t))
            return (-len(row_vars & bound), -consts, len(row_vars))
        best = min(remaining, key=score)
        remaining.remove(best)
        ordered.append(best)
        bound.update(t for t in best.terms if is_var(t))
    return ordered


def _hash_join_step(row: Row, bindings: list[dict[Var, Hashable]],
                    bound: set[Var], db: Database,
                    stats: ScanStats) -> list[dict[Var, Hashable]]:
    """Join current partial bindings with one relation scan."""
    shared: list[Var] = []
    seen_positions: dict[Var, int] = {}
    for position, term in enumerate(row.terms):
        if is_var(term):
            if term in bound and term not in seen_positions:
                shared.append(term)
            seen_positions.setdefault(term, position)

    # Build the hash table over the scanned relation.
    table: dict[tuple, list[tuple]] = {}
    tuples = db.relation_tuples(row.relation)
    stats.relations_scanned += 1
    stats.tuples_scanned += len(tuples)
    for data_row in tuples:
        if not _matches_pattern(data_row, row):
            continue
        key = tuple(data_row[seen_positions[v]] for v in shared)
        table.setdefault(key, []).append(data_row)

    new_vars = [v for v in seen_positions if v not in bound]
    result: list[dict[Var, Hashable]] = []
    for binding in bindings:
        key = tuple(binding[v] for v in shared)
        for data_row in table.get(key, ()):
            extended = dict(binding)
            for v in new_vars:
                extended[v] = data_row[seen_positions[v]]
            result.append(extended)
    stats.intermediate_rows += len(result)
    return result


def _matches_pattern(data_row: tuple, row: Row) -> bool:
    """Check constants and repeated variables within one tableau row."""
    first_seen: dict[Var, Hashable] = {}
    for value, term in zip(data_row, row.terms):
        if is_const(term):
            if value != term.value:
                return False
        else:
            previous = first_seen.setdefault(term, value)
            if previous != value:
                return False
    return True


def evaluate_ucq(q: UCQ, db: Database,
                 stats: ScanStats | None = None) -> set[tuple]:
    """Evaluate a UCQ: union of disjunct answers."""
    answers: set[tuple] = set()
    for disjunct in q.disjuncts:
        answers |= evaluate_cq(disjunct, db, stats)
    return answers


def evaluate_positive(q: PositiveQuery, db: Database,
                      stats: ScanStats | None = None) -> set[tuple]:
    """Evaluate an ∃FO+ query via its UCQ normal form."""
    return evaluate_ucq(as_ucq(q), db, stats)


def evaluate_fo(q: FOQuery, db: Database,
                stats: ScanStats | None = None) -> set[tuple]:
    """Active-domain evaluation of a full FO query.

    ``Q(D) = {ā ∈ adom(D)^m | D |= Q(ā)}`` with ``adom`` extended by the
    query's constants (paper, Section 2).  Exponential; test-scale only.
    """
    stats = stats if stats is not None else ScanStats()
    constants = _formula_constants(q.body)
    domain = sorted(db.active_domain(constants), key=repr)
    answers: set[tuple] = set()
    free = list(q.head)

    def assign(index: int, env: dict[Var, Hashable]) -> None:
        if index == len(free):
            if _holds(q.body, env, db, domain, stats):
                answers.add(tuple(env[v] for v in q.head))
            return
        var = free[index]
        if var in env:  # Repeated head variable.
            assign(index + 1, env)
            return
        for value in domain:
            env[var] = value
            assign(index + 1, env)
        del env[var]

    assign(0, {})
    return answers


def _formula_constants(formula: Formula) -> set[Hashable]:
    if isinstance(formula, FAtom):
        return {c.value for c in formula.atom.constants()}
    if isinstance(formula, FEq):
        values = set()
        for side in (formula.equality.left, formula.equality.right):
            if is_const(side):
                values.add(side.value)
        return values
    if isinstance(formula, (FAnd, FOr)):
        result: set[Hashable] = set()
        for child in formula.children:
            result |= _formula_constants(child)
        return result
    if isinstance(formula, (FExists, FForAll, FNot)):
        return _formula_constants(formula.child)
    raise QueryError(f"unknown formula node {type(formula).__name__}")


def _holds(formula: Formula, env: dict[Var, Hashable], db: Database,
           domain: Sequence[Hashable], stats: ScanStats) -> bool:
    if isinstance(formula, FAtom):
        atom = formula.atom
        values = []
        for term in atom.terms:
            if is_const(term):
                values.append(term.value)
            elif term in env:
                values.append(env[term])
            else:
                raise QueryError(f"free variable {term} not in scope in {atom}")
        stats.tuples_scanned += 1
        return (atom.relation, tuple(values)) in db
    if isinstance(formula, FEq):
        sides = []
        for side in (formula.equality.left, formula.equality.right):
            sides.append(side.value if is_const(side) else env[side])
        return sides[0] == sides[1]
    if isinstance(formula, FAnd):
        return all(_holds(c, env, db, domain, stats) for c in formula.children)
    if isinstance(formula, FOr):
        return any(_holds(c, env, db, domain, stats) for c in formula.children)
    if isinstance(formula, FNot):
        return not _holds(formula.child, env, db, domain, stats)
    if isinstance(formula, (FExists, FForAll)):
        is_exists = isinstance(formula, FExists)
        variables = formula.variables

        def sweep(index: int) -> bool:
            if index == len(variables):
                return _holds(formula.child, env, db, domain, stats)
            var = variables[index]
            saved = env.get(var)
            had = var in env
            for value in domain:
                env[var] = value
                result = sweep(index + 1)
                if is_exists and result:
                    _restore(env, var, saved, had)
                    return True
                if not is_exists and not result:
                    _restore(env, var, saved, had)
                    return False
            _restore(env, var, saved, had)
            return not is_exists

        return sweep(0)
    raise QueryError(f"unknown formula node {type(formula).__name__}")


def _restore(env: dict, var: Var, saved, had: bool) -> None:
    if had:
        env[var] = saved
    else:
        env.pop(var, None)


def evaluate(query, db: Database, stats: ScanStats | None = None) -> set[tuple]:
    """Evaluate any supported query class naively."""
    if isinstance(query, CQ):
        return evaluate_cq(query, db, stats)
    if isinstance(query, UCQ):
        return evaluate_ucq(query, db, stats)
    if isinstance(query, PositiveQuery):
        return evaluate_positive(query, db, stats)
    if isinstance(query, FOQuery):
        return evaluate_fo(query, db, stats)
    raise QueryError(f"cannot evaluate {type(query).__name__}")
