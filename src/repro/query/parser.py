"""A small textual query language.

Two rule forms are supported:

* Datalog-style CQ/UCQ rules::

      Q(x) :- Accident(aid, d, t), d = 'Queens Park', t = '1/5/2005'
      Q(x) :- R(x, y) ; Q(x) :- S(x, 1)        # two rules => UCQ

* Formula-style ∃FO+/FO rules::

      Q(x) := EXISTS y. (R(x, y) AND (S(y) OR T(y)))
      Q(x) := FORALL y. (NOT R(x, y) OR S(y))

Lexical rules: identifiers are variables; an identifier followed by
``(`` is a relation (or head) name; numbers and single-quoted strings
are constants; ``$name`` is a parameter placeholder (a constant whose
value is bound per request — see ``repro.service.templates``).  Inline
constants in relation atoms are legal and are normalized away later
(``repro.query.normalize``).  Digit-only placeholders (``$0``, ``$1``,
...) are *positional*: :func:`lift_literals` writes them when it turns
a text's literals into parameters.

The parser is deliberately simple — a hand-rolled tokenizer plus
recursive descent — and reports offsets in :class:`ParseError`.
"""

from __future__ import annotations

import re

from ..errors import ParseError
from ..obs.trace import span
from .ast import (CQ, UCQ, Atom, Equality, FAnd, FAtom, FEq, FExists, FForAll,
                  FNot, FOQuery, FOr, Formula, PositiveQuery)
from .terms import Const, Param, Term, Var

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<ARROW>:-|:=)
  | (?P<STRING>'(?:[^'\\]|\\.)*')
  | (?P<NUMBER>-?\d+(?:\.\d+)?)
  | (?P<PARAM>\$(?:[A-Za-z_][A-Za-z_0-9]*|\d+))
  | (?P<IDENT>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
  | (?P<COMMA>,)
  | (?P<EQ>=)
  | (?P<DOT>\.)
  | (?P<SEMI>;)
    """,
    re.VERBOSE,
)

#: A maximal run of the tokens that are neither literals nor
#: placeholders, matched the way ``_TOKEN_RE`` matches them (no such
#: token can start where a literal starts), so :func:`lift_literals`
#: loops once per literal instead of once per token.
_RUN_RE = re.compile(r"(?:\s+|:-|:=|[A-Za-z_][A-Za-z_0-9]*|[(),=.;])*")

_KEYWORDS = {"AND", "OR", "NOT", "EXISTS", "FORALL", "TRUE"}
_LITERALS = ("NUMBER", "STRING")


def _literal_value(kind: str, text: str):
    """The constant a NUMBER or STRING token denotes."""
    if kind == "NUMBER":
        return float(text) if "." in text else int(text)
    return text[1:-1].replace("\\'", "'").replace("\\\\", "\\")


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind
        self.text = text
        self.pos = pos

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r})"


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError("unexpected character", text, pos)
        kind = match.lastgroup
        value = match.group()
        if kind != "WS":
            if kind == "IDENT" and value.upper() in _KEYWORDS:
                kind = value.upper()
            tokens.append(_Token(kind, value, pos))
        pos = match.end()
    tokens.append(_Token("EOF", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    # -- token plumbing ------------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def next(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, kind: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            raise ParseError(
                f"expected {kind}, found {token.kind} {token.text!r}",
                self.text, token.pos,
            )
        return self.next()

    def at(self, kind: str) -> bool:
        return self.peek().kind == kind

    # -- grammar -------------------------------------------------------------

    def parse_program(self):
        """Parse one or more rules; returns CQ, UCQ, PositiveQuery or FOQuery."""
        rules = [self.parse_rule()]
        while self.at("SEMI"):
            self.next()
            if self.at("EOF"):
                break
            rules.append(self.parse_rule())
        self.expect("EOF")
        if len(rules) == 1:
            return rules[0]
        if not all(isinstance(rule, CQ) for rule in rules):
            raise ParseError(
                "only CQ rules can be combined into a union", self.text, 0
            )
        names = {rule.name for rule in rules}
        if len(names) != 1:
            raise ParseError(
                f"union rules must share a head name, got {sorted(names)}",
                self.text, 0,
            )
        name = rules[0].name
        return UCQ(name, [
            CQ(f"{name}_{i}", rule.head, rule.atoms, rule.equalities)
            for i, rule in enumerate(rules, start=1)
        ])

    def parse_rule(self):
        name_token = self.expect("IDENT")
        head = self.parse_head_vars()
        arrow = self.peek()
        if arrow.kind != "ARROW":
            raise ParseError("expected ':-' or ':='", self.text, arrow.pos)
        self.next()
        if arrow.text == ":-":
            atoms, equalities = self.parse_conjunct_list()
            return CQ(name_token.text, head, atoms, equalities)
        body = self.parse_formula()
        if body.is_positive():
            return PositiveQuery(name_token.text, head, body)
        return FOQuery(name_token.text, head, body)

    def parse_head_vars(self) -> list[Var]:
        self.expect("LPAREN")
        head: list[Var] = []
        if not self.at("RPAREN"):
            while True:
                token = self.expect("IDENT")
                head.append(Var(token.text))
                if self.at("COMMA"):
                    self.next()
                    continue
                break
        self.expect("RPAREN")
        return head

    def parse_conjunct_list(self):
        atoms: list[Atom] = []
        equalities: list[Equality] = []
        if self.at("TRUE"):
            self.next()
            return atoms, equalities
        while True:
            atom_or_eq = self.parse_literal()
            if isinstance(atom_or_eq, Atom):
                atoms.append(atom_or_eq)
            else:
                equalities.append(atom_or_eq)
            if self.at("COMMA"):
                self.next()
                continue
            break
        return atoms, equalities

    def parse_literal(self):
        """An atom ``R(t, ...)`` or an equality ``t = t``."""
        token = self.peek()
        if token.kind == "IDENT" and self.tokens[self.index + 1].kind == "LPAREN":
            return self.parse_atom()
        left = self.parse_term()
        self.expect("EQ")
        right = self.parse_term()
        return Equality(left, right)

    def parse_atom(self) -> Atom:
        name = self.expect("IDENT").text
        self.expect("LPAREN")
        terms: list[Term] = []
        if not self.at("RPAREN"):
            while True:
                terms.append(self.parse_term())
                if self.at("COMMA"):
                    self.next()
                    continue
                break
        self.expect("RPAREN")
        return Atom(name, terms)

    def parse_term(self) -> Term:
        token = self.peek()
        if token.kind == "IDENT":
            self.next()
            return Var(token.text)
        if token.kind in _LITERALS:
            self.next()
            return Const(_literal_value(token.kind, token.text))
        if token.kind == "PARAM":
            self.next()
            return Const(Param(token.text[1:]))
        raise ParseError("expected a term", self.text, token.pos)

    # -- formula grammar (for := rules) ---------------------------------------
    # formula   := or_expr
    # or_expr   := and_expr (OR and_expr)*
    # and_expr  := unary (AND unary)*
    # unary     := NOT unary | EXISTS vars. unary | FORALL vars. unary | primary
    # primary   := '(' formula ')' | atom | equality

    def parse_formula(self) -> Formula:
        return self.parse_or()

    def parse_or(self) -> Formula:
        children = [self.parse_and()]
        while self.at("OR"):
            self.next()
            children.append(self.parse_and())
        return children[0] if len(children) == 1 else FOr(children)

    def parse_and(self) -> Formula:
        children = [self.parse_unary()]
        while self.at("AND"):
            self.next()
            children.append(self.parse_unary())
        return children[0] if len(children) == 1 else FAnd(children)

    def parse_unary(self) -> Formula:
        token = self.peek()
        if token.kind == "NOT":
            self.next()
            return FNot(self.parse_unary())
        if token.kind in ("EXISTS", "FORALL"):
            self.next()
            variables = [Var(self.expect("IDENT").text)]
            while self.at("COMMA"):
                self.next()
                variables.append(Var(self.expect("IDENT").text))
            self.expect("DOT")
            child = self.parse_unary()
            if token.kind == "EXISTS":
                return FExists(variables, child)
            return FForAll(variables, child)
        return self.parse_primary()

    def parse_primary(self) -> Formula:
        if self.at("LPAREN"):
            self.next()
            inner = self.parse_formula()
            self.expect("RPAREN")
            return inner
        literal = self.parse_literal()
        if isinstance(literal, Atom):
            return FAtom(literal)
        return FEq(literal)


def parse_query(text: str):
    """Parse a query of any supported class.

    Returns a :class:`CQ`, :class:`UCQ`, :class:`PositiveQuery` or
    :class:`FOQuery` depending on the rule form and body shape.

    >>> q = parse_query("Q(x) :- R(x, y), y = 1")
    >>> type(q).__name__
    'CQ'
    """
    with span("compile"):
        return _Parser(text).parse_program()


def lift_literals(text: str) -> tuple[str, tuple]:
    """Split a query text into its constant-free *shape* and its literals.

    Every NUMBER and STRING literal becomes a positional placeholder
    ``$k``, where ``k`` indexes the first literal *equal* to it (equal
    as :class:`Const` values are, so ``1`` and ``1.0`` share a
    placeholder and ``'1'`` does not); ``values[k]`` is that literal.
    The shape therefore keeps the equality pattern among the constants,
    which is all the static pipeline ever looks at; everything else,
    whitespace included, is kept as written.  A text without literals,
    or with a ``$name`` placeholder of its own, is its own shape with no
    values — user parameters and lifted ones never mix.  So is a text
    with a character the tokenizer rejects, which fails to parse as is.

    >>> lift_literals("Q(x) :- R(x, y), y = 'a', x = 2, y = 'a'")
    ('Q(x) :- R(x, y), y = $0, x = $1, y = $0', ('a', 2))
    >>> lift_literals("Q(x) :- R(x, y), y = $p")
    ('Q(x) :- R(x, y), y = $p', ())
    """
    parts: list[str] = []
    values: list = []
    slots: dict = {}
    run, token = _RUN_RE.match, _TOKEN_RE.match
    pos, end = 0, len(text)
    while True:
        start = run(text, pos).end()
        if start == end:
            break
        found = token(text, start)
        kind = found.lastgroup if found is not None else None
        if kind not in _LITERALS:  # a placeholder, or a bad character
            return text, ()
        value = _literal_value(kind, found.group())
        slot = slots.get(value)
        if slot is None:
            slot = slots[value] = len(values)
            values.append(value)
        parts.append(text[pos:start])
        parts.append(f"${slot}")
        pos = found.end()
    if not values:
        return text, ()
    parts.append(text[pos:])
    return "".join(parts), tuple(values)


def parse_cq(text: str) -> CQ:
    """Parse text that must denote a single CQ."""
    query = parse_query(text)
    if not isinstance(query, CQ):
        raise ParseError(f"expected a CQ, parsed a {type(query).__name__}", text, 0)
    return query


def parse_ucq(text: str) -> UCQ:
    """Parse text that must denote a UCQ (a single CQ is wrapped)."""
    query = parse_query(text)
    if isinstance(query, CQ):
        return UCQ(query.name, [query])
    if not isinstance(query, UCQ):
        raise ParseError(f"expected a UCQ, parsed a {type(query).__name__}", text, 0)
    return query
