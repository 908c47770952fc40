"""Parser for the practical TRPQ syntax of Section IV.

Two entry points:

* :func:`parse_path` parses a path expression such as
  ``"PREV*/FWD/:visits/FWD"`` or
  ``"(FWD/:meets/FWD + FWD/:visits/FWD/:Room/BWD/:visits/BWD)/NEXT[0,12]"``
  and returns the corresponding NavL[PC,NOI] expression.  By default the
  practical-language convention that *every traversed temporal object
  must exist* is applied (an ``∃`` test follows every navigation step and
  accompanies every label test), exactly as in the translations of
  Section V-A.  Pass ``implicit_existence=False`` to get the bare formal
  operators.

* :func:`parse_match` parses a full ``MATCH`` clause such as::

      MATCH (x:Person {risk = 'high'})-
          /FWD/:meets/FWD/NEXT*/-(y:Person {test = 'pos'})
      ON contact_tracing

  and returns a :class:`MatchQuery`: an alternating sequence of node
  patterns and connectors (edge patterns or path patterns) plus the name
  of the input graph.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Hashable, Optional

from repro.errors import QuerySyntaxError
from repro.lang import ast
from repro.lang.ast import PathExpr, Test

# --------------------------------------------------------------------- #
# Tokenizer
# --------------------------------------------------------------------- #
#: A quoted string literal (a backslash escapes the next character).
STRING_PATTERN = r"'(?:[^'\\]|\\.)*'"
_TOKEN_RE = re.compile(
    rf"""
    (?P<WS>\s+)
  | (?P<STRING>{STRING_PATTERN})
  | (?P<NUMBER>\d+)
  | (?P<IDENT>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<ARROW_IN><-)
  | (?P<NEQ><>|!=)
  | (?P<LE><=)
  | (?P<GE>>=)
  | (?P<SYMBOL>[()\[\]{{}}\-+*/:,=<>_?])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    position: int


def tokenize(text: str) -> list[Token]:
    """Split the input into tokens; whitespace is discarded."""
    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise QuerySyntaxError(f"unexpected character {text[pos]!r} at offset {pos}")
        kind = match.lastgroup or "SYMBOL"
        if kind != "WS":
            value = match.group()
            if kind == "SYMBOL":
                kind = value
            elif kind in {"ARROW_IN", "NEQ", "LE", "GE"}:
                kind = value if kind != "NEQ" else "!="
            tokens.append(Token(kind, value, pos))
        pos = match.end()
    return tokens


class _TokenStream:
    """A small cursor over the token list with peek/expect helpers."""

    def __init__(self, tokens: list[Token], text: str) -> None:
        self._tokens = tokens
        self._text = text
        self._index = 0

    def peek(self, offset: int = 0) -> Optional[Token]:
        index = self._index + offset
        if index < len(self._tokens):
            return self._tokens[index]
        return None

    def next(self) -> Token:
        token = self.peek()
        if token is None:
            raise QuerySyntaxError(f"unexpected end of input in {self._text!r}")
        self._index += 1
        return token

    def expect(self, kind: str) -> Token:
        token = self.peek()
        if token is None or token.kind != kind:
            found = "end of input" if token is None else f"{token.text!r}"
            raise QuerySyntaxError(
                f"expected {kind!r} but found {found} at offset "
                f"{token.position if token else len(self._text)}"
            )
        return self.next()

    def accept(self, kind: str) -> Optional[Token]:
        token = self.peek()
        if token is not None and token.kind == kind:
            return self.next()
        return None

    def accept_keyword(self, word: str) -> Optional[Token]:
        token = self.peek()
        if token is not None and token.kind == "IDENT" and token.text.upper() == word:
            return self.next()
        return None

    def at_keyword(self, word: str, offset: int = 0) -> bool:
        token = self.peek(offset)
        return token is not None and token.kind == "IDENT" and token.text.upper() == word

    def at_end(self) -> bool:
        return self._index >= len(self._tokens)

    def require_end(self) -> None:
        if not self.at_end():
            token = self.peek()
            raise QuerySyntaxError(
                f"trailing input starting with {token.text!r} at offset {token.position}"
            )


# --------------------------------------------------------------------- #
# Pattern dataclasses (the parsed form of a MATCH clause)
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class NodePattern:
    """A node element ``(var:Label {conditions})``; every part is optional."""

    variable: Optional[str] = None
    label: Optional[str] = None
    condition: Optional[Test] = None


@dataclass(frozen=True)
class EdgePattern:
    """An edge connector ``-[var:Label {conditions}]->`` (or ``<-…-`` / ``-…-``)."""

    variable: Optional[str] = None
    label: Optional[str] = None
    condition: Optional[Test] = None
    direction: str = "out"  # "out", "in" or "both"


@dataclass(frozen=True)
class PathPattern:
    """A path connector ``-/ expression /-`` holding the translated NavL expression."""

    path: PathExpr
    source_text: str = ""


Connector = EdgePattern | PathPattern


@dataclass(frozen=True)
class MatchQuery:
    """A parsed MATCH clause: ``elements[0] connectors[0] elements[1] …``."""

    elements: tuple[NodePattern, ...]
    connectors: tuple[Connector, ...] = ()
    graph_name: Optional[str] = None
    text: str = ""

    def variables(self) -> list[str]:
        """Variable names in order of first appearance."""
        names: list[str] = []
        for index, element in enumerate(self.elements):
            if index > 0:
                connector = self.connectors[index - 1]
                if isinstance(connector, EdgePattern) and connector.variable:
                    names.append(connector.variable)
            if element.variable:
                names.append(element.variable)
        return names


# --------------------------------------------------------------------- #
# Property conditions (the {...} blocks)
# --------------------------------------------------------------------- #
def _parse_condition(stream: _TokenStream) -> Test:
    return _parse_or(stream)


def _parse_or(stream: _TokenStream) -> Test:
    parts = [_parse_and(stream)]
    while stream.accept_keyword("OR"):
        parts.append(_parse_and(stream))
    return ast.or_(*parts)


def _parse_and(stream: _TokenStream) -> Test:
    parts = [_parse_not(stream)]
    while stream.accept_keyword("AND"):
        parts.append(_parse_not(stream))
    return ast.and_(*parts)


def _parse_not(stream: _TokenStream) -> Test:
    if stream.accept_keyword("NOT"):
        return ast.not_(_parse_not(stream))
    if stream.accept("("):
        inner = _parse_condition(stream)
        stream.expect(")")
        return inner
    return _parse_comparison(stream)


_COMPARATORS = {"=", "<", "<=", ">", ">=", "!="}


def _parse_comparison(stream: _TokenStream) -> Test:
    name_token = stream.expect("IDENT")
    op_token = stream.next()
    if op_token.kind not in _COMPARATORS:
        raise QuerySyntaxError(
            f"expected a comparison operator after {name_token.text!r}, "
            f"found {op_token.text!r}"
        )
    value = _parse_value(stream)
    return _comparison_test(name_token.text, op_token.kind, value)


def _parse_value(stream: _TokenStream) -> Hashable:
    token = stream.next()
    if token.kind == "STRING":
        return re.sub(r"\\(.)", r"\1", token.text[1:-1])
    if token.kind == "NUMBER":
        return int(token.text)
    if token.kind == "IDENT":
        return token.text
    raise QuerySyntaxError(f"expected a value, found {token.text!r}")


def _comparison_test(name: str, op: str, value: Hashable) -> Test:
    if name == "time":
        bound = _as_int(value)
        if op == "=":
            return ast.time_eq(bound)
        if op == "<":
            return ast.time_lt(bound)
        if op == "<=":
            return ast.time_lt(bound + 1)
        if op == ">":
            return ast.not_(ast.time_lt(bound + 1))
        if op == ">=":
            return ast.not_(ast.time_lt(bound))
        if op == "!=":
            return ast.not_(ast.time_eq(bound))
    if op == "=":
        return _property_test(name, value)
    if op == "!=":
        return ast.not_(_property_test(name, value))
    raise QuerySyntaxError(
        f"operator {op!r} is only supported on the reserved word 'time', "
        f"not on property {name!r}"
    )


def _as_int(value: Hashable) -> int:
    try:
        return int(value)  # type: ignore[arg-type]
    except (TypeError, ValueError) as exc:
        raise QuerySyntaxError(f"time bound {value!r} is not an integer") from exc


def _property_test(name: str, value: Hashable) -> Test:
    """``name = value``; a quoted digit string matches the int and the string.

    Property values in the model may be stored as ints (e.g. room
    numbers) while queries typically quote every literal, so
    ``{num = '750'}`` matches a stored integer 750 (the loosely-typed
    behaviour of the paper's experimental implementation) *and* a stored
    string ``'750'``.  An unquoted number is an int only.
    """
    test = ast.prop_eq(name, value)
    if isinstance(value, str) and value.isdecimal():
        return ast.or_(ast.prop_eq(name, int(value)), test)
    return test


# --------------------------------------------------------------------- #
# Path expressions
# --------------------------------------------------------------------- #
_AXIS_KEYWORDS = {
    "FWD": ast.F,
    "BWD": ast.B,
    "NEXT": ast.N,
    "PREV": ast.P,
}


class _PathParser:
    """Recursive-descent parser for practical path expressions.

    When ``stop_at_slash_dash`` is set (parsing the body of a ``-/…/-``
    connector inside a MATCH clause), a ``/`` immediately followed by a
    ``-`` terminates the expression instead of being read as a
    concatenation operator.
    """

    def __init__(
        self,
        stream: _TokenStream,
        implicit_existence: bool,
        stop_at_slash_dash: bool = False,
    ) -> None:
        self._stream = stream
        self._implicit = implicit_existence
        self._stop_at_slash_dash = stop_at_slash_dash

    def parse(self) -> PathExpr:
        return self._parse_union()

    def _parse_union(self) -> PathExpr:
        parts = [self._parse_concat()]
        while self._stream.accept("+"):
            parts.append(self._parse_concat())
        return ast.union(*parts)

    def _parse_concat(self) -> PathExpr:
        parts = [self._parse_factor()]
        while True:
            token = self._stream.peek()
            if token is None or token.kind != "/":
                break
            if self._stop_at_slash_dash:
                nxt = self._stream.peek(1)
                if nxt is not None and nxt.kind == "-":
                    break
            self._stream.next()
            parts.append(self._parse_factor())
        return ast.concat(*parts)

    def _parse_factor(self) -> PathExpr:
        atom = self._parse_atom()
        while True:
            token = self._stream.peek()
            if token is None:
                break
            if token.kind == "*":
                self._stream.next()
                atom = ast.star(atom)
            elif token.kind == "[":
                lower, upper = self._parse_bounds()
                atom = self._apply_bounds(atom, lower, upper)
            else:
                break
        return atom

    def _parse_bounds(self) -> tuple[int, Optional[int]]:
        self._stream.expect("[")
        lower = int(self._stream.expect("NUMBER").text)
        self._stream.expect(",")
        token = self._stream.peek()
        if token is not None and token.kind == "IDENT" and token.text == "_":
            self._stream.next()
            upper: Optional[int] = None
        else:
            upper = int(self._stream.expect("NUMBER").text)
        self._stream.expect("]")
        return lower, upper

    def _apply_bounds(self, atom: PathExpr, lower: int, upper: Optional[int]) -> PathExpr:
        return ast.repeat(atom, lower, upper)

    def _parse_atom(self) -> PathExpr:
        stream = self._stream
        token = stream.peek()
        if token is None:
            raise QuerySyntaxError("unexpected end of path expression")
        if token.kind == "IDENT" and token.text.upper() in _AXIS_KEYWORDS:
            stream.next()
            axis = _AXIS_KEYWORDS[token.text.upper()]
            if self._implicit:
                return ast.concat(axis, ast.exists())
            return axis
        if token.kind == ":":
            stream.next()
            name = stream.expect("IDENT").text
            if self._implicit:
                return ast.test(ast.and_(ast.label(name), ast.exists()))
            return ast.test(ast.label(name))
        if token.kind == "{":
            stream.next()
            condition = _parse_condition(stream)
            stream.expect("}")
            if self._implicit:
                condition = ast.and_(condition, ast.exists())
            return ast.test(condition)
        if token.kind == "(":
            stream.next()
            inner = self._parse_union()
            stream.expect(")")
            return inner
        raise QuerySyntaxError(
            f"unexpected token {token.text!r} at offset {token.position} in path expression"
        )


def parse_path(text: str, implicit_existence: bool = True) -> PathExpr:
    """Parse a practical path expression into a NavL[PC,NOI] expression."""
    stream = _TokenStream(tokenize(text), text)
    parser = _PathParser(stream, implicit_existence)
    path = parser.parse()
    stream.require_end()
    return path


# --------------------------------------------------------------------- #
# MATCH clauses
# --------------------------------------------------------------------- #
def parse_match(text: str) -> MatchQuery:
    """Parse a full MATCH clause into a :class:`MatchQuery`."""
    stream = _TokenStream(tokenize(text), text)
    if not stream.accept_keyword("MATCH"):
        raise QuerySyntaxError("a MATCH clause must start with the keyword MATCH")
    elements: list[NodePattern] = [_parse_node_pattern(stream)]
    connectors: list[Connector] = []
    while True:
        token = stream.peek()
        if token is None or stream.at_keyword("ON"):
            break
        connector = _parse_connector(stream)
        connectors.append(connector)
        elements.append(_parse_node_pattern(stream))
    graph_name: Optional[str] = None
    if stream.accept_keyword("ON"):
        graph_name = stream.expect("IDENT").text
    stream.require_end()
    return MatchQuery(tuple(elements), tuple(connectors), graph_name, text)


def _parse_node_pattern(stream: _TokenStream) -> NodePattern:
    stream.expect("(")
    variable: Optional[str] = None
    label: Optional[str] = None
    condition: Optional[Test] = None
    token = stream.peek()
    if token is not None and token.kind == "IDENT":
        variable = stream.next().text
    if stream.accept(":"):
        label = stream.expect("IDENT").text
    if stream.accept("{"):
        condition = _parse_condition(stream)
        stream.expect("}")
    stream.expect(")")
    return NodePattern(variable, label, condition)


def _parse_connector(stream: _TokenStream) -> Connector:
    token = stream.peek()
    if token is None:
        raise QuerySyntaxError("expected a connector, found end of input")
    if token.kind == "<-":
        stream.next()
        pattern = _parse_edge_body(stream)
        stream.expect("-")
        return EdgePattern(pattern.variable, pattern.label, pattern.condition, "in")
    if token.kind == "-":
        stream.next()
        nxt = stream.peek()
        if nxt is not None and nxt.kind == "[":
            pattern = _parse_edge_body(stream)
            stream.expect("-")
            if stream.accept(">"):
                return EdgePattern(pattern.variable, pattern.label, pattern.condition, "out")
            return EdgePattern(pattern.variable, pattern.label, pattern.condition, "both")
        if nxt is not None and nxt.kind == "/":
            stream.next()  # consume '/'
            path, source = _parse_path_connector(stream)
            return PathPattern(path, source)
        raise QuerySyntaxError(
            f"expected '[' or '/' after '-' at offset {token.position}"
        )
    raise QuerySyntaxError(f"expected a connector, found {token.text!r}")


def _parse_edge_body(stream: _TokenStream) -> EdgePattern:
    stream.expect("[")
    variable: Optional[str] = None
    label: Optional[str] = None
    condition: Optional[Test] = None
    token = stream.peek()
    if token is not None and token.kind == "IDENT":
        variable = stream.next().text
    if stream.accept(":"):
        label = stream.expect("IDENT").text
    if stream.accept("{"):
        condition = _parse_condition(stream)
        stream.expect("}")
    stream.expect("]")
    return EdgePattern(variable, label, condition, "out")


def _parse_path_connector(stream: _TokenStream) -> tuple[PathExpr, str]:
    """Parse the body of ``-/ … /-``: the expression ends at a ``/`` ``-`` pair."""
    parser = _PathParser(stream, implicit_existence=True, stop_at_slash_dash=True)
    path = parser.parse()
    stream.expect("/")
    stream.expect("-")
    return path, ""
