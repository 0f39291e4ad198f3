"""LRU cache for compiled queries: the static half of the service.

The paper's central observation is that a covered query's plan and cost
certificate are determined by ``Q`` and ``A`` *only* (Section 2) — not
by the instance, not by request time.  So the expensive static pipeline
(parse → normalize → coverage fixpoint → plan construction → cost
certificate) is a pure function of the pair

    (query fingerprint, access-schema fingerprint)

and can be computed once and reused for every later request.  This
module is that memo table: a bounded, thread-safe LRU from cache keys to
:class:`CompiledQuery` entries, with hit/miss counters so benchmarks can
report amortization honestly.

Query *text* is keyed one step earlier, on its shape: the literals are
lifted into positional parameters, so texts that differ only in their
constants share one compilation and bind their own values to it, like
requests of a template (:meth:`PlanCache.compile_text`).

Negative results are cached too: a query that is *not* boundedly
evaluable still costs a coverage fixpoint to diagnose, and heavy
repeated traffic repeats uncovered queries just as often as covered
ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..core.bep import is_boundedly_evaluable
from ..core.decision import Decision, no
from ..engine.optimizer import PhysicalPlan, optimize
from ..engine.plan import EmptyOp, Plan
from ..errors import ParseError
from ..query.normalize import query_fingerprint
from ..query.parser import lift_literals
from ..schema.access import AccessSchema
from .lru import LruDict


def _value_dependent(decision: Decision, plan: Plan) -> bool:
    """Did a YES verdict lean on constant (in)equality reasoning?

    The static pipeline treats ``$param`` placeholders as opaque,
    pairwise-distinct constants.  Plan *shape* never depends on a
    constant's value, so one compilation soundly serves every binding —
    except where the pipeline concluded *emptiness* from constants being
    distinct: the chase's constant clash and pigeonhole rules, the
    classical-unsatisfiability ``EmptyOp`` shortcut of the plan builder
    (Example 3.12), and UCQ disjuncts dropped as A-unsatisfiable or
    subsumed.  A binding equating two placeholder values (or a
    placeholder with a literal) can contradict those verdicts, so such
    plans must not be reused across bindings.

    The test is deliberately conservative: it does not track which
    constants a derivation actually compared, so a clash among literals
    only (no placeholder involved) also routes the query to the scan
    fallback — still correct for every binding, merely unamortized.
    """
    if decision.details.get("method") == "unsatisfiable":
        return True
    if decision.details.get("value_dependent"):
        return True
    return any(isinstance(op, EmptyOp) for op in plan.steps)


@dataclass(frozen=True)
class PlanCacheKey:
    """``(fingerprint(Q), fingerprint(A))`` — what a compiled plan is a
    function of."""

    query_fp: str
    access_fp: str


@dataclass
class CompiledQuery:
    """Everything the static pipeline produced for one query.

    ``plan`` (the certified logical plan) and ``physical`` (its
    optimized, executable form) are present exactly when the query is
    boundedly evaluable (or A-unsatisfiable, in which case they are the
    empty plan); otherwise the service falls back to scan-based
    evaluation and ``reason`` explains why.  The optimizer runs here,
    at compile time, once — warm requests execute ``physical`` (bound
    per request for templates) without ever re-optimizing.
    """

    query: object
    decision: Decision
    plan: Plan | None
    parameters: frozenset[str]
    physical: PhysicalPlan | None = None
    #: Process-unique id, a safe key for downstream memo tables (ids of
    #: garbage-collected entries are never reused, unlike ``id()``).
    serial: int = field(default_factory=itertools.count().__next__)

    @property
    def bounded(self) -> bool:
        return self.plan is not None

    @property
    def reason(self) -> str:
        return self.decision.reason


@dataclass
class CacheInfo:
    """A point-in-time snapshot of one cache's counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    capacity: int = 0

    @classmethod
    def of(cls, lru: LruDict, capacity: int) -> "CacheInfo":
        return cls(hits=lru.hits, misses=lru.misses,
                   evictions=lru.evictions, size=len(lru),
                   capacity=capacity)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __str__(self) -> str:
        return (f"{self.hits} hits / {self.misses} misses "
                f"({self.hit_rate:.1%}), {self.size}/{self.capacity} "
                f"entries, {self.evictions} evictions")


class PlanCache:
    """A bounded LRU over :class:`CompiledQuery` entries.

    >>> cache = PlanCache(capacity=2)
    >>> cache.info().capacity
    2
    """

    def __init__(self, capacity: int = 256):
        self.capacity = capacity
        self._entries: LruDict = LruDict(capacity)
        # Source-text front: (shape text, access fp) -> the shape's
        # CompiledQuery, so a text that differs from an earlier one only
        # in its constants skips the parser and the whole pipeline.
        self._shapes: LruDict = LruDict(capacity)

    def get(self, key: PlanCacheKey) -> CompiledQuery | None:
        return self._entries.get(key)

    def put(self, key: PlanCacheKey, entry: CompiledQuery) -> None:
        self._entries.put(key, entry)

    def compile(self, query, access_schema: AccessSchema,
                statistics=None) -> tuple[CompiledQuery, bool]:
        """Look up (or run and memoize) the static pipeline for ``query``.

        Returns ``(entry, cached)``.  ``query`` may be any parsed query
        object; parameter placeholders are compiled as opaque constants,
        so one compilation serves every binding of a template.  The
        optimizer runs as the pipeline's last stage, so cached entries
        carry a ready-to-execute physical plan; ``statistics`` is
        passed to :func:`~repro.engine.optimizer.optimize` on a miss,
        where it only caps the plan's printed row estimates.
        """
        key = PlanCacheKey(query_fingerprint(query, access_schema.schema),
                           access_schema.fingerprint())
        entry = self.get(key)
        if entry is not None:
            return entry, True
        decision = is_boundedly_evaluable(query, access_schema)
        parameters = (frozenset(query.parameters())
                      if hasattr(query, "parameters") else frozenset())
        plan = physical = None
        if decision.is_yes:
            plan = decision.witness["plan"]
            if parameters and _value_dependent(decision, plan):
                # The verdict holds only for the placeholders-as-
                # distinct-constants reading; no single plan is correct
                # for every binding.  Serve the query through the scan
                # fallback, which evaluates the *bound* AST per request.
                decision = no(
                    "the bounded-evaluability verdict depends on the "
                    f"placeholder values ({decision.reason}); "
                    "parameterized queries take the scan fallback so "
                    "every binding is answered correctly",
                    witness=decision.witness, method="value-dependent")
                plan = None
            else:
                physical = optimize(plan, statistics)
        entry = CompiledQuery(query=query, decision=decision, plan=plan,
                              parameters=parameters, physical=physical)
        self.put(key, entry)
        return entry, False

    def compile_text(self, text: str, access_schema: AccessSchema,
                     parse) -> tuple[CompiledQuery, bool, dict]:
        """Like :meth:`compile` for source text, keyed on the text's
        *shape* (:func:`~repro.query.parser.lift_literals`).

        Returns ``(entry, cached, values)``: ``values`` binds the
        entry's positional parameters (``{"0": 'a', "1": 2}``) and is
        empty when the entry is the text's own compilation.  Every text
        of one shape shares the shape's plan, which is sound because the
        shape keeps the constants' equality pattern and the pipeline
        looks at nothing else — except where the shape's verdict leaned
        on the constants being distinct (:func:`_value_dependent`) or
        the shape is not bounded: such a shape is *concrete*, and each
        of its texts compiles as written.  ``parse`` maps text to a
        query object (injected so this module stays parser-agnostic).
        """
        shape, literals = lift_literals(text)
        key = (shape, access_schema.fingerprint())
        entry = self._shapes.get(key, count=False)
        found = entry is not None
        cached = True
        if not found:
            try:
                query = parse(shape)
            except ParseError:
                parse(text)  # the same error, located in the caller's text
                raise
            entry, cached = self.compile(query, access_schema)
            self._shapes.put(key, entry)
        if literals and not entry.bounded:
            # A concrete shape: the verdict for the text may differ.
            self._shapes.record_misses(1)
            entry, cached = self.compile(parse(text), access_schema)
            return entry, cached, {}
        if found:
            self._shapes.record_hits(1)
        else:
            self._shapes.record_misses(1)
        return entry, cached, {str(k): v for k, v in enumerate(literals)}

    def clear(self) -> None:
        self._entries.clear()
        self._shapes.clear()

    def info(self) -> CacheInfo:
        """Counters of the compiled-query table: a miss is one run of the
        static pipeline."""
        return CacheInfo.of(self._entries, self.capacity)

    def shape_info(self) -> CacheInfo:
        """Counters of the shape table: a hit is a text served by an
        earlier text's plan, a miss is a text that compiled (its shape,
        or itself when the shape is concrete)."""
        return CacheInfo.of(self._shapes, self.capacity)

    def __len__(self) -> int:
        return len(self._entries)
