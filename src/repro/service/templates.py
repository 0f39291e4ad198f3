"""Parameterized query templates: compile once, bind per request.

A template is a query text with ``$name`` placeholders::

    by_day = service.register_template(
        "by_day", "Q(xa) :- Accident(aid, d, t), d = $district, t = $date")

Registration runs the *whole* static pipeline once — parse, coverage
fixpoint, bounded-plan construction, cost certificate — with the
placeholders treated as opaque constants (:class:`repro.query.terms.Param`
values inside ``Const``).  That is sound because coverage and plan shape
are functions of Q and A only, never of a constant's value (paper,
Section 2): every binding of the template shares one plan skeleton.

Binding is then the per-request hot path, and it copies nothing: a
:class:`~repro.engine.optimizer.physical.BoundPlan` is the compiled
*physical* plan plus the bound values in its constant-slot order — no
parsing, no fixpoint, no plan building, no re-optimization and no
re-specialization.  Rule rewrites and specialized steps depend on plan
shape only, so every binding runs the template's own steps; the
executor turns the values into dictionary codes per request.  For
templates that are *not* boundedly evaluable, :func:`bind_query`
substitutes into the AST instead so the scan-based fallback still
answers correctly.

One caveat: treating placeholders as pairwise-distinct constants is
unsound exactly where the pipeline concludes *emptiness* from constants
being distinct (constant clashes, the chase's pigeonhole rule, dropped
UCQ disjuncts) — a binding equating two placeholders can contradict the
verdict.  The plan cache detects those value-dependent verdicts and
withholds the plan (see ``plancache._value_dependent``), so such
templates transparently take the scan fallback and stay correct for
every binding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping

from ..engine.optimizer import BoundPlan, PhysicalPlan
from ..engine.plan import Plan
from ..errors import ServiceError
from ..query.ast import CQ, UCQ, Atom, Equality, PositiveQuery
from ..query.normalize import positive_to_ucq
from ..query.terms import Const, Param
from .plancache import CompiledQuery


def _resolver(values: Mapping[str, Hashable], where: str):
    """A constant-mapping function that swaps Params for bound values."""

    def resolve(value):
        if isinstance(value, Param):
            if value.name not in values:
                raise ServiceError(
                    f"{where}: parameter ${value.name} is unbound; "
                    f"supplied {sorted(values) or '{}'}")
            return values[value.name]
        return value

    return resolve


def check_bindings(parameters: frozenset[str],
                   values: Mapping[str, Hashable], where: str) -> None:
    """Reject missing, undeclared or unhashable parameter bindings up
    front, before any execution."""
    if values.keys() != parameters:
        missing = parameters - set(values)
        if missing:
            raise ServiceError(
                f"{where}: missing bindings for "
                f"{', '.join('$' + n for n in sorted(missing))}")
        extra = set(values) - parameters
        raise ServiceError(
            f"{where}: unknown parameters "
            f"{', '.join('$' + n for n in sorted(extra))}; declared "
            f"{sorted(parameters) or '(none)'}")
    for name, value in values.items():
        try:
            hash(value)
        except TypeError:
            raise ServiceError(
                f"{where}: value for ${name} is unhashable "
                f"({type(value).__name__}); parameters must be "
                "constants") from None


def bind_plan(plan: Plan, parameters: frozenset[str],
              values: Mapping[str, Hashable],
              where: str = "bind") -> Plan:
    """Substitute bound constants into a compiled *logical* plan's
    const nodes.

    Returns a structurally shared copy — the certificate, fetch
    structure and column layout are untouched.  Raises
    :class:`ServiceError` on missing or undeclared bindings.
    """
    check_bindings(parameters, values, where)
    if not parameters:
        return plan
    return plan.map_constants(_resolver(values, where))


def bind_physical_plan(plan: PhysicalPlan, parameters: frozenset[str],
                       values: Mapping[str, Hashable],
                       where: str = "bind") -> PhysicalPlan | BoundPlan:
    """Bind an optimized *physical* plan — the service's warm path.

    Returns a :class:`BoundPlan`: the plan itself plus one value per
    constant slot, with each ``$param`` replaced by its binding.  No op
    is copied, so the request skips the optimizer and the specializer
    entirely.  A plan without parameters is returned as is."""
    check_bindings(parameters, values, where)
    if not parameters:
        return plan
    return BoundPlan(plan, [values[c.name] if type(c) is Param else c
                            for c in plan.constants])


def bind_query(query, parameters: frozenset[str],
               values: Mapping[str, Hashable], where: str = "bind"):
    """Substitute bound constants into a CQ/UCQ/∃FO+ AST (fallback path)."""
    check_bindings(parameters, values, where)
    if not parameters:
        return query
    if isinstance(query, PositiveQuery):
        # Bind the equivalent UCQ; the scan evaluator answers both the
        # same way, and the UCQ form is what substitution understands.
        query = positive_to_ucq(query)
    resolve = _resolver(values, where)

    def bind_const(term):
        if isinstance(term, Const):
            value = resolve(term.value)
            if value is not term.value:
                return Const(value)
        return term

    def bind_cq(q: CQ) -> CQ:
        atoms = [Atom(a.relation, [bind_const(t) for t in a.terms])
                 for a in q.atoms]
        equalities = [Equality(bind_const(e.left), bind_const(e.right))
                      for e in q.equalities]
        return CQ(q.name, q.head, atoms, equalities)

    if isinstance(query, CQ):
        return bind_cq(query)
    if isinstance(query, UCQ):
        return UCQ(query.name, [bind_cq(d) for d in query.disjuncts])
    raise ServiceError(
        f"{where}: cannot bind parameters of a "
        f"{type(query).__name__}; only CQ/UCQ/positive-formula "
        "templates support the scan fallback")


@dataclass
class QueryTemplate:
    """A registered template: name, source text and compiled entry."""

    name: str
    text: str
    compiled: CompiledQuery

    @property
    def parameters(self) -> frozenset[str]:
        return self.compiled.parameters

    @property
    def bounded(self) -> bool:
        return self.compiled.bounded

    def bind_plan(self, values: Mapping[str, Hashable]) -> Plan:
        if self.compiled.plan is None:
            raise ServiceError(
                f"template {self.name!r} has no bounded plan "
                f"({self.compiled.reason}); use the fallback path")
        return bind_plan(self.compiled.plan, self.parameters, values,
                         where=f"template {self.name!r}")

    def bind_physical(self, values: Mapping[str, Hashable]
                      ) -> PhysicalPlan | BoundPlan:
        if self.compiled.physical is None:
            raise ServiceError(
                f"template {self.name!r} has no bounded plan "
                f"({self.compiled.reason}); use the fallback path")
        return bind_physical_plan(self.compiled.physical, self.parameters,
                                  values, where=f"template {self.name!r}")

    def bind_query(self, values: Mapping[str, Hashable]):
        return bind_query(self.compiled.query, self.parameters, values,
                          where=f"template {self.name!r}")

    def __str__(self) -> str:
        params = ", ".join("$" + n for n in sorted(self.parameters))
        mode = "bounded" if self.bounded else "fallback"
        return f"template {self.name}({params}) [{mode}]: {self.text}"
