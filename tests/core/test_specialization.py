"""Unit tests for bounded query specialization — QSP (Section 5)."""

from __future__ import annotations

import pytest

from repro import AccessConstraint, AccessSchema, Const, Schema, Var
from repro.core import (analyze_coverage, fully_parameterized_specialization,
                        is_boundedly_evaluable, specialization_is_covered,
                        specialize_minimally)
from repro.engine import evaluate
from repro.query import parse_cq, parse_query, parse_ucq


@pytest.fixture
def parameterized_q(accident_schema):
    """Example 5.1's Q: like Q0 but with district/date as parameters."""
    return parse_cq(
        "Q(xa) :- Accident(aid, district, date), "
        "Casualty(cid, aid, class, vid), Vehicle(vid, dri, xa)")


class TestExample51:
    def test_q_itself_not_bounded(self, accident_access, parameterized_q):
        assert is_boundedly_evaluable(parameterized_q,
                                      accident_access).is_no

    def test_date_alone_suffices(self, accident_access, parameterized_q):
        decision = specialize_minimally(
            parameterized_q, accident_access,
            parameters=[Var("date"), Var("district")])
        assert decision
        assert [v.name for v in decision.witness] == ["date"]

    def test_district_alone_fails(self, accident_access, parameterized_q):
        decision = specialize_minimally(
            parameterized_q, accident_access, parameters=[Var("district")])
        assert decision.is_no

    def test_specialized_query_is_actually_bounded(
            self, accident_access, accident_db, parameterized_q):
        """Instantiate date with a real constant: the specialized query
        is covered, and its bounded plan agrees with naive evaluation."""
        specialized = parameterized_q.specialize(
            {Var("date"): Const("1/5/2005")})
        decision = is_boundedly_evaluable(specialized, accident_access)
        assert decision
        from repro.engine import execute_plan
        plan = decision.witness["plan"]
        assert execute_plan(plan, accident_db).answers == \
            evaluate(specialized, accident_db)

    def test_coverage_is_valuation_independent(self, accident_access,
                                               parameterized_q):
        """Any constant gives the same (covered) analysis — including one
        that already occurs in the query's data domain."""
        for value in ("1/5/2005", "nonsense", 42):
            specialized = parameterized_q.specialize(
                {Var("date"): Const(value)})
            assert analyze_coverage(specialized,
                                    accident_access).is_covered


class TestQSPMechanics:
    @pytest.fixture
    def world(self):
        schema = Schema.from_dict({"R": ("A", "B"), "S": ("B", "C")})
        access = AccessSchema(schema, [
            AccessConstraint("R", ("A",), ("B",), 2),
            AccessConstraint("S", ("B",), ("C",), 2)])
        return schema, access

    def test_k_limits_search(self, world):
        _, access = world
        q = parse_cq("Q(y, c) :- R(x, y), S(y2, c), y2 = y")
        # Instantiating x covers everything downstream.
        decision = specialize_minimally(q, access, parameters=[Var("x")],
                                        k=1)
        assert decision
        assert len(decision.witness) == 1

    def test_k_zero_only_accepts_covered(self, world, accident_access, q0):
        decision = specialize_minimally(q0, accident_access, k=0)
        assert decision
        assert decision.witness == ()

    def test_unsatisfiable_query_rejected(self):
        schema = Schema.from_dict({"R": ("A", "B")})
        access = AccessSchema(schema, [
            AccessConstraint("R", ("A",), ("B",), 1)])
        q = parse_cq("Q(x) :- R(x, y1), R(x, y2), y1 = 1, y2 = 2")
        decision = specialize_minimally(q, access)
        assert decision.is_no
        assert "condition (b)" in decision.reason

    def test_unknown_parameter_rejected(self, world):
        _, access = world
        q = parse_cq("Q(y) :- R(x, y)")
        from repro.errors import QueryError
        with pytest.raises(QueryError, match="does not occur"):
            specialize_minimally(q, access, parameters=[Var("zzz")])

    def test_default_parameters_all_variables(self, world):
        _, access = world
        q = parse_cq("Q(y) :- R(x, y)")
        decision = specialize_minimally(q, access)
        assert decision
        # x is the cheapest single choice (y alone also works; ties are
        # broken by combination order, x first).
        assert decision.witness == (Var("x"),)

    def test_minimality(self, world):
        """The returned tuple has the smallest possible size."""
        _, access = world
        q = parse_cq("Q(c) :- R(x, y), S(y, c)")
        decision = specialize_minimally(q, access)
        assert decision
        assert len(decision.witness) == 1

    def test_no_solution_within_k(self, world):
        _, access = world
        # Two independent chains need two instantiations.
        q = parse_cq("Q(c, d) :- R(x, y), S(y, c), R(u, v), S(v, d)")
        assert specialize_minimally(q, access, k=1).is_no
        decision = specialize_minimally(q, access, k=2)
        assert decision
        assert len(decision.witness) == 2

    def test_ucq_specialization(self, world):
        _, access = world
        u = parse_ucq("Q(y) :- R(x, y) ; Q(y) :- S(y, c), c = 1")
        # x appears in disjunct 1 only; S-disjunct is unconstrained on y.
        decision = specialize_minimally(u, access)
        assert decision
        chosen = {v.name for v in decision.witness}
        assert "x" in chosen

    def test_specialization_is_covered_helper(self, accident_access,
                                              parameterized_q):
        assert specialization_is_covered(parameterized_q, accident_access,
                                         (Var("date"),))
        assert not specialization_is_covered(parameterized_q,
                                             accident_access,
                                             (Var("district"),))


class TestProposition54:
    def test_covering_schema_accepts(self):
        schema = Schema.from_dict({"R": ("A", "B")})
        access = AccessSchema(schema, [
            AccessConstraint("R", ("A",), ("B",), 3)])
        q = parse_query("Q(x) := FORALL y. (NOT R(x, y) OR R(y, x))")
        decision = fully_parameterized_specialization(q, access)
        assert decision
        names = {v.name for v in decision.witness}
        assert names == {"x", "y"}

    def test_non_covering_schema_rejected(self):
        schema = Schema.from_dict({"R": ("A", "B", "C")})
        access = AccessSchema(schema, [
            AccessConstraint("R", ("A",), ("B",), 3)])
        q = parse_query("Q(x) := EXISTS y, z. R(x, y, z)")
        decision = fully_parameterized_specialization(q, access)
        assert decision.is_no
        assert "does not cover" in decision.reason

    def test_fo_query_with_negation_goes_through_prop54(self):
        schema = Schema.from_dict({"R": ("A", "B")})
        access = AccessSchema(schema, [
            AccessConstraint("R", ("A",), ("B",), 3)])
        q = parse_query("Q(x) := R(x, y) AND NOT R(y, x)")
        # QSP proper is undecidable for FO...
        assert specialize_minimally(q, access).is_unknown
        # ... but Proposition 5.4 gives the constructive fallback.
        assert fully_parameterized_specialization(q, access)


class TestSetCoverShape:
    """Example 5.2's reduction skeleton: shared z-variables make QSP a
    set-cover search.  (The literal example text folds away under core
    minimization, so we keep the shared-variable
    structure without the constant atoms.)"""

    def make(self, n_relations=3):
        spec = {f"R{i}": ("A", "B1", "B2", "B3")
                for i in range(1, n_relations + 1)}
        schema = Schema.from_dict(spec)
        constraints = []
        for name in spec:
            constraints.append(
                AccessConstraint(name, ("A",), ("B1", "B2", "B3"), 1))
            for b in ("B1", "B2", "B3"):
                constraints.append(AccessConstraint(name, (b,), ("A",), 1))
        return schema, AccessSchema(schema, constraints)

    def test_cover_by_one_subset(self):
        schema, access = self.make(2)
        # R1 covers z1, z2, z3; R2 repeats z1, z2, z3 => choosing y1
        # covers everything R2 needs through the shared z's.
        q = parse_cq("Q() :- R1(y1, z1, z2, z3), R2(y2, z1, z2, z3)")
        assert is_boundedly_evaluable(q, access).is_no
        decision = specialize_minimally(
            q, access, parameters=[Var("y1"), Var("y2")], k=1)
        assert decision
        assert len(decision.witness) == 1

    def test_disjoint_subsets_need_both(self):
        schema, access = self.make(2)
        q = parse_cq("Q() :- R1(y1, z1, z1, z1), R2(y2, z2, z2, z2)")
        assert specialize_minimally(
            q, access, parameters=[Var("y1"), Var("y2")], k=1).is_no
        assert specialize_minimally(
            q, access, parameters=[Var("y1"), Var("y2")], k=2)
