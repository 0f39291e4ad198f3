"""Access schemas: cardinality constraints paired with index obligations.

An access constraint (paper, Section 2) has the form ``R(X -> Y, N)``:

* for any ``X``-value ``a`` in an instance ``D``, there are at most ``N``
  distinct ``Y``-values among tuples with ``t[X] = a``; and
* an index on ``X`` for ``Y`` exists, so that ``D_Y(X = a)`` can be
  retrieved without scanning ``D``.

The general form ``R(X -> Y, s(.))`` bounds the count by a sublinear
function ``s`` of ``|D|`` instead of a constant (paper, Section 2,
"General access constraints"); the constant form is the special case
where ``s`` is constant.  Cardinality functions are represented by
:class:`CardinalityFunction` subclasses, all PTIME-computable as the
paper requires for Corollary 3.15.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from ..errors import SchemaError
from .relation import RelationSchema, Schema


class CardinalityFunction:
    """Abstract sublinear bound ``s(|D|)`` for the general constraint form."""

    #: True when the bound does not depend on ``|D|``.
    is_constant: bool = False

    def bound(self, db_size: int) -> int:
        """The maximum number of distinct Y-values for one X-value."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.describe()


@dataclass(frozen=True)
class ConstantCardinality(CardinalityFunction):
    """``s(n) = N`` — the paper's plain access constraint ``R(X→Y, N)``."""

    value: int
    is_constant = True

    def __post_init__(self):
        if self.value < 1:
            raise SchemaError(f"cardinality bound must be >= 1, got {self.value}")

    def bound(self, db_size: int) -> int:
        return self.value

    def describe(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class LogCardinality(CardinalityFunction):
    """``s(n) = max(1, ceil(scale * log2(n)))`` — a non-constant bound."""

    scale: float = 1.0

    def __post_init__(self):
        if self.scale <= 0:
            raise SchemaError(f"log cardinality scale must be > 0, got {self.scale}")

    def bound(self, db_size: int) -> int:
        if db_size <= 2:
            return 1
        return max(1, math.ceil(self.scale * math.log2(db_size)))

    def describe(self) -> str:
        return f"{self.scale}*log2(|D|)"


@dataclass(frozen=True)
class PowerCardinality(CardinalityFunction):
    """``s(n) = max(1, ceil(scale * n**exponent))`` with ``exponent < 1``.

    ``exponent = 0.5`` gives a square-root bound.  Exponents at or above
    one are rejected: they would not be sublinear and bounded evaluation
    would degenerate to scanning.
    """

    exponent: float
    scale: float = 1.0

    def __post_init__(self):
        if not 0 < self.exponent < 1:
            raise SchemaError(
                f"power cardinality exponent must be in (0, 1), got {self.exponent}"
            )
        if self.scale <= 0:
            raise SchemaError(f"power cardinality scale must be > 0, got {self.scale}")

    def bound(self, db_size: int) -> int:
        return max(1, math.ceil(self.scale * (max(db_size, 1) ** self.exponent)))

    def describe(self) -> str:
        return f"{self.scale}*|D|^{self.exponent}"


def as_cardinality(value) -> CardinalityFunction:
    """Coerce an ``int`` or :class:`CardinalityFunction` to a function."""
    if isinstance(value, CardinalityFunction):
        return value
    if isinstance(value, int):
        return ConstantCardinality(value)
    raise SchemaError(
        f"cardinality must be an int or CardinalityFunction, got {value!r}"
    )


@dataclass(frozen=True)
class AccessConstraint:
    """An access constraint ``R(X -> Y, s)``.

    ``x`` and ``y`` are attribute tuples of relation ``relation_name``
    (``X`` may be empty, as in ``R3(∅ -> C, 1)`` of Example 3.1).  The
    attribute *sets* are what matters semantically; tuples keep a
    deterministic order for printing and index layout.

    >>> psi1 = AccessConstraint("Accident", ("date",), ("aid",), 610)
    >>> str(psi1)
    'Accident(date -> aid, 610)'
    """

    relation_name: str
    x: tuple[str, ...]
    y: tuple[str, ...]
    cardinality: CardinalityFunction

    def __init__(self, relation_name: str, x: Sequence[str], y: Sequence[str],
                 cardinality):
        x = tuple(x)
        y = tuple(y)
        if len(set(x)) != len(x):
            raise SchemaError(f"duplicate attributes in X: {x}")
        if len(set(y)) != len(y):
            raise SchemaError(f"duplicate attributes in Y: {y}")
        if not y:
            raise SchemaError("Y must contain at least one attribute")
        object.__setattr__(self, "relation_name", relation_name)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "cardinality", as_cardinality(cardinality))

    # -- structural helpers -------------------------------------------------

    @property
    def x_set(self) -> frozenset[str]:
        return frozenset(self.x)

    @property
    def y_set(self) -> frozenset[str]:
        return frozenset(self.y)

    @property
    def xy_set(self) -> frozenset[str]:
        return self.x_set | self.y_set

    @property
    def is_constant(self) -> bool:
        return self.cardinality.is_constant

    @property
    def is_functional(self) -> bool:
        """True for ``N = 1`` constraints, which act as functional
        dependencies ``X -> Y`` (used by the chase, ``core/chase.py``)."""
        return (isinstance(self.cardinality, ConstantCardinality)
                and self.cardinality.value == 1)

    def bound(self, db_size: int) -> int:
        return self.cardinality.bound(db_size)

    def validate_against(self, schema: Schema) -> RelationSchema:
        """Check the constraint refers to real attributes; return the relation."""
        relation = schema.relation(self.relation_name)
        for attribute in self.x + self.y:
            if not relation.has_attribute(attribute):
                raise SchemaError(
                    f"constraint {self} refers to unknown attribute "
                    f"{attribute!r} of {relation}"
                )
        return relation

    def x_positions(self, relation: RelationSchema) -> tuple[int, ...]:
        return relation.positions(self.x)

    def y_positions(self, relation: RelationSchema) -> tuple[int, ...]:
        return relation.positions(self.y)

    def __str__(self) -> str:
        xs = ", ".join(self.x) if self.x else "()"
        ys = ", ".join(self.y)
        if len(self.y) > 1:
            ys = f"({ys})"
        return f"{self.relation_name}({xs} -> {ys}, {self.cardinality})"


class AccessSchema:
    """A set ``A`` of access constraints over a relational schema.

    >>> schema = Schema.from_dict({"R": ("A", "B")})
    >>> aschema = AccessSchema(schema, [AccessConstraint("R", ("A",), ("B",), 3)])
    >>> len(aschema)
    1
    """

    def __init__(self, schema: Schema,
                 constraints: Iterable[AccessConstraint] = ()):
        self.schema = schema
        self._constraints: list[AccessConstraint] = []
        self._fingerprint: str | None = None
        for constraint in constraints:
            self.add(constraint)

    def add(self, constraint: AccessConstraint) -> None:
        constraint.validate_against(self.schema)
        self._constraints.append(constraint)
        self._fingerprint = None

    @property
    def constraints(self) -> list[AccessConstraint]:
        return list(self._constraints)

    def for_relation(self, relation_name: str) -> list[AccessConstraint]:
        return [c for c in self._constraints if c.relation_name == relation_name]

    def functional_constraints(self) -> list[AccessConstraint]:
        """The ``N = 1`` fragment, used as FDs by the chase."""
        return [c for c in self._constraints if c.is_functional]

    @property
    def all_constant(self) -> bool:
        """True when every constraint uses a constant cardinality bound."""
        return all(c.is_constant for c in self._constraints)

    def max_constant_bound(self) -> int:
        """Largest constant bound (1 if there are none); a coarse plan-size
        ingredient used by cost analysis."""
        bounds = [c.cardinality.value for c in self._constraints
                  if isinstance(c.cardinality, ConstantCardinality)]
        return max(bounds, default=1)

    def covers_relation(self, relation_name: str) -> bool:
        """Proposition 5.4's condition for one relation: some constraint
        ``R(X -> Y, N)`` has ``X ∪ Y`` equal to all attributes of ``R``."""
        relation = self.schema.relation(relation_name)
        all_attrs = frozenset(relation.attributes)
        return any(c.xy_set == all_attrs or all_attrs <= c.xy_set
                   for c in self.for_relation(relation_name))

    def covers_schema(self) -> bool:
        """Proposition 5.4: ``A`` covers ``R`` when every relation is covered."""
        return all(self.covers_relation(name)
                   for name in self.schema.relation_names())

    def size(self) -> int:
        """``|A|``: total number of attributes mentioned across constraints."""
        return sum(len(c.x) + len(c.y) for c in self._constraints)

    def fingerprint(self) -> str:
        """A canonical string determining ``A`` up to constraint order.

        Since a query's coverage verdict, bounded plan and cost
        certificate are functions of Q and A only (paper, Section 2),
        this is the access-schema half of the ``repro.service``
        plan-cache key.  Memoized until the next :meth:`add`.
        """
        if self._fingerprint is None:
            self._fingerprint = "&".join(
                sorted(str(c) for c in self._constraints))
        return self._fingerprint

    def __len__(self) -> int:
        return len(self._constraints)

    def __iter__(self) -> Iterator[AccessConstraint]:
        return iter(self._constraints)

    def __str__(self) -> str:
        return "{" + "; ".join(str(c) for c in self._constraints) + "}"
