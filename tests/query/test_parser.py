"""Unit tests for the query parser."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import CQ, UCQ, Const, ParseError, PositiveQuery, Var
from repro.query import FOQuery, parse_cq, parse_query, parse_ucq
from repro.query.ast import Atom, Equality
from repro.query.parser import _tokenize, lift_literals


class TestCQParsing:
    def test_basic(self):
        q = parse_cq("Q(x) :- R(x, y), y = 1")
        assert isinstance(q, CQ)
        assert q.head == (Var("x"),)
        assert q.atoms == (Atom("R", (Var("x"), Var("y"))),)
        assert q.equalities == (Equality(Var("y"), Const(1)),)

    def test_inline_constants(self):
        q = parse_cq("Q(x) :- R(x, 'hello world', 3, -2.5)")
        atom = q.atoms[0]
        assert atom.terms[1] == Const("hello world")
        assert atom.terms[2] == Const(3)
        assert atom.terms[3] == Const(-2.5)

    def test_boolean_query(self):
        q = parse_cq("Q() :- R(x)")
        assert q.arity == 0

    def test_empty_body_true(self):
        q = parse_cq("Q() :- true")
        assert q.atoms == ()

    def test_var_var_equality(self):
        q = parse_cq("Q(x, y) :- R(x), S(y), x = y")
        assert q.equalities[0].is_var_var

    def test_escaped_quote(self):
        q = parse_cq(r"Q(x) :- R(x, 'it\'s')")
        assert q.atoms[0].terms[1] == Const("it's")

    def test_parse_error_position(self):
        with pytest.raises(ParseError):
            parse_cq("Q(x) :- R(x,, y)")

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_cq("Q(x) ! R(x)")

    def test_missing_arrow(self):
        with pytest.raises(ParseError):
            parse_cq("Q(x) R(x)")


class TestUCQParsing:
    def test_two_rules(self):
        u = parse_ucq("Q(x) :- R(x) ; Q(x) :- S(x)")
        assert isinstance(u, UCQ)
        assert len(u.disjuncts) == 2
        assert u.disjuncts[0].name == "Q_1"

    def test_single_rule_wrapped(self):
        u = parse_ucq("Q(x) :- R(x)")
        assert isinstance(u, UCQ)
        assert len(u.disjuncts) == 1

    def test_head_names_must_match(self):
        with pytest.raises(ParseError, match="share a head name"):
            parse_ucq("Q(x) :- R(x) ; P(x) :- S(x)")

    def test_trailing_semicolon_ok(self):
        u = parse_ucq("Q(x) :- R(x) ; Q(x) :- S(x) ;")
        assert len(u.disjuncts) == 2


class TestFormulaParsing:
    def test_positive(self):
        q = parse_query("Q(x) := EXISTS y. (R(x, y) AND (S(y) OR T(y)))")
        assert isinstance(q, PositiveQuery)

    def test_fo_with_not(self):
        q = parse_query("Q(x) := R(x) AND NOT S(x)")
        assert isinstance(q, FOQuery)
        assert not q.is_positive()

    def test_forall(self):
        q = parse_query("Q(x) := FORALL y. (NOT R(x, y) OR S(y))")
        assert isinstance(q, FOQuery)

    def test_precedence_and_binds_tighter(self):
        q = parse_query("Q(x) := R(x) AND S(x) OR T(x)")
        from repro.query.ast import FOr
        assert isinstance(q.body, FOr)

    def test_multi_var_quantifier(self):
        q = parse_query("Q() := EXISTS x, y. R(x, y)")
        assert isinstance(q, PositiveQuery)

    def test_equality_in_formula(self):
        q = parse_query("Q(x) := EXISTS y. (R(x, y) AND y = 1)")
        assert isinstance(q, PositiveQuery)

    def test_parse_cq_rejects_formula(self):
        with pytest.raises(ParseError, match="expected a CQ"):
            parse_cq("Q(x) := R(x) OR S(x)")

    def test_parse_ucq_rejects_fo(self):
        with pytest.raises(ParseError, match="expected a UCQ"):
            parse_ucq("Q(x) := NOT R(x)")


#: Fragments that tokenize in every way the lifter must agree with:
#: digits inside identifiers, signs after arrows, escaped quotes,
#: placeholders, unicode digits and characters the tokenizer rejects.
FRAGMENTS = ["x", "x1", "_", "1", "-1", "1.5", "-", "'a'", "'it\\'s'",
             "'1'", " ", ":-", ":=", "(", ")", ",", "=", ".", ";", "$p",
             "$0", "$", "AND", "٣", "é", "'"]


def parse_query_term(token):
    """The constant the parser builds for one literal token."""
    return parse_cq(f"Q(x) :- R(x), x = {token.text}").equalities[0].right


class TestLiftLiterals:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(FRAGMENTS), max_size=12))
    def test_shape_tokenizes_like_the_text(self, fragments):
        text = "".join(fragments)
        shape, values = lift_literals(text)
        try:
            tokens = _tokenize(text)
        except ParseError:
            assert (shape, values) == (text, ())
            return
        kinds = [token.kind for token in tokens]
        if "PARAM" in kinds or not set(kinds) & {"NUMBER", "STRING"}:
            assert (shape, values) == (text, ())
            return
        lifted = _tokenize(shape)
        assert ([t.kind for t in lifted]
                == ["PARAM" if k in ("NUMBER", "STRING") else k
                    for k in kinds])
        placeholders, constants = [], []
        for before, after in zip(tokens, lifted):
            if after.kind == "PARAM":
                value = values[int(after.text[1:])]
                assert Const(value) == parse_query_term(before)
                placeholders.append(after.text)
                constants.append(value)
            else:
                assert after.text == before.text
        # One placeholder per class of equal constants.
        for i, (p, c) in enumerate(zip(placeholders, constants)):
            for q, d in zip(placeholders[i:], constants[i:]):
                assert (p == q) == (c == d)

    def test_equal_literals_share_a_placeholder(self):
        assert lift_literals("Q(x) :- R(x, 1.0, 'a'), S(1, 'a', '1')") == (
            "Q(x) :- R(x, $0, $1), S($0, $1, $2)", (1.0, "a", "1"))

    def test_texts_with_placeholders_or_no_literals_are_their_own(self):
        for text in ("Q(x) :- R(x, $p), x = 1", "Q(x) :- R(x, y)"):
            assert lift_literals(text) == (text, ())

