"""Property: the chase preserves A-equivalence.

For random small CQs and random FD-style access schemas, the chased
query must agree with the original on every instance satisfying A —
checked both by the A-equivalence decision procedure and by direct
evaluation on random repaired instances.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro import AccessConstraint, AccessSchema, Database, Schema
from repro.core import a_equivalent, chase, chase_and_core
from repro.engine import evaluate
from repro.query import CQ, Atom, Const, Equality, Var
from repro.query.normalize import normalize_cq


def make_schema():
    return Schema.from_dict({"R": ("A", "B"), "S": ("B", "C")})


@st.composite
def random_query(draw):
    """Small random safe CQs over R(A,B), S(B,C)."""
    variables = [Var(f"v{i}") for i in range(4)]
    n_atoms = draw(st.integers(1, 3))
    atoms = []
    for _ in range(n_atoms):
        relation = draw(st.sampled_from(["R", "S"]))
        atoms.append(Atom(relation, (draw(st.sampled_from(variables)),
                                     draw(st.sampled_from(variables)))))
    atom_vars = sorted({v for a in atoms for v in a.variables()},
                       key=lambda v: v.name)
    equalities = []
    for var in atom_vars:
        if draw(st.booleans()) and len(equalities) < 2:
            equalities.append(Equality(var, Const(draw(st.integers(0, 2)))))
    head = [draw(st.sampled_from(atom_vars))]
    return CQ("Q", head, atoms, equalities)


@st.composite
def random_fd_schema(draw):
    schema = make_schema()
    constraints = []
    if draw(st.booleans()):
        constraints.append(AccessConstraint("R", ("A",), ("B",), 1))
    if draw(st.booleans()):
        constraints.append(AccessConstraint("S", ("B",), ("C",), 1))
    if draw(st.booleans()):
        constraints.append(AccessConstraint("R", (), ("A",), 2))
    return AccessSchema(schema, constraints)


@given(q=random_query(), access=random_fd_schema())
@settings(max_examples=60, deadline=None)
def test_chase_preserves_a_equivalence(q, access):
    schema = access.schema
    q = normalize_cq(q, schema)
    result = chase_and_core(q, access)
    if result.unsatisfiable:
        # Unsatisfiability means Q is empty on all A-instances: verified
        # by direct evaluation below instead of a_equivalent.
        _check_empty_on_instances(q, access)
        return
    if not result.changed:
        return
    verdict = a_equivalent(q, result.query, access)
    assert not verdict.is_no, (
        f"chase broke A-equivalence: {q} vs {result.query}: "
        f"{verdict.reason}")


def _check_empty_on_instances(q, access, n_instances: int = 5):
    rng = random.Random(hash(str(q)) % (2 ** 31))
    schema = access.schema
    for _ in range(n_instances):
        db = Database(schema, access)
        for _ in range(12):
            relation = rng.choice(["R", "S"])
            row = (rng.randint(0, 2), rng.randint(0, 2))
            db.insert(relation, row)
            if not db.satisfies():
                rebuilt = Database(schema, access)
                for name in schema.relation_names():
                    keep = [t for t in db.relation_tuples(name)
                            if not (name == relation and t == row)]
                    rebuilt.insert_many(name, keep)
                db = rebuilt
        assert db.satisfies()
        assert evaluate(q, db) == set()


@given(q=random_query(), access=random_fd_schema(),
       rows=st.lists(st.tuples(st.sampled_from(["R", "S"]),
                               st.integers(0, 2), st.integers(0, 2)),
                     max_size=12))
@settings(max_examples=60, deadline=None)
def test_chase_agrees_on_concrete_instances(q, access, rows):
    """Direct check: chased query evaluates identically on satisfying
    instances (stronger than the enumeration when it applies)."""
    schema = access.schema
    q = normalize_cq(q, schema)
    result = chase_and_core(q, access)
    db = Database(schema, access)
    for relation, a, b in rows:
        db.insert(relation, (a, b))
        if not db.satisfies():
            rebuilt = Database(schema, access)
            for name in schema.relation_names():
                keep = [t for t in db.relation_tuples(name)
                        if not (name == relation and t == (a, b))]
                rebuilt.insert_many(name, keep)
            db = rebuilt
    assert db.satisfies()
    expected = evaluate(q, db)
    if result.unsatisfiable:
        assert expected == set()
    else:
        assert evaluate(result.query, db) == expected
