"""Parser for the ring-expression DSL.

Grammar (whitespace-insensitive between tokens)::

    expr    := 'Z' '(' INT ')'
             | 'M' '(' INT ',' expr ')'         # expr must be a Z(...)
             | 'prod' '(' expr ',' expr ')'
             | 'sub' '(' expr ';' literal (',' literal)* ')'
    literal := INT
             | '[' row (',' row)* ']'           # matrix, rows of INTs
             | '(' literal ',' literal ')'      # product pair
    row     := '[' INT (',' INT)* ']'

Errors are reported as :class:`ParseError` with the byte offset of the
offending token and the set of token descriptions that were acceptable there.
Input is capped at 64 KiB, and an integer at ``MAX_DIGITS`` (4300) digits,
the longest decimal text Python converts to an int by default.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, List, Tuple

from .descriptor import (
    Cyclic,
    Descriptor,
    Matrix,
    Product,
    SubringClosure,
    check_literal_shape,
    validate_descriptor,
)
from .errors import MAX_DIGITS, ParseError

MAX_INPUT_BYTES = 64 * 1024

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<int>-?\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<punct>[(),;\[\]])"
)


@dataclass(frozen=True)
class _Tok:
    kind: str  # "int" | "name" | "punct" | "eof"
    text: str
    pos: int

    def describe(self) -> str:
        if self.kind == "eof":
            return "end of input"
        if self.kind == "int":
            return "integer %s" % self.text
        return "'%s'" % self.text


def _tokenize(text: str) -> List[_Tok]:
    if len(text.encode("utf-8", errors="replace")) > MAX_INPUT_BYTES:
        raise ParseError(MAX_INPUT_BYTES, ("shorter input",), "input over 64 KiB")
    out: List[_Tok] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                pos,
                ("integer", "name", "punctuation"),
                "'%s'" % text[pos],
            )
        if m.lastgroup != "ws":
            out.append(_Tok(m.lastgroup, m.group(), m.start()))
        pos = m.end()
    out.append(_Tok("eof", "", len(text)))
    return out


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def advance(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def fail(self, expected: Tuple[str, ...]) -> ParseError:
        t = self.peek()
        return ParseError(t.pos, expected, t.describe())

    def expect_punct(self, ch: str) -> _Tok:
        t = self.peek()
        if t.kind == "punct" and t.text == ch:
            return self.advance()
        raise self.fail(("'%s'" % ch,))

    def expect_int(self) -> int:
        t = self.peek()
        if t.kind == "int":
            if len(t.text.lstrip("-")) > MAX_DIGITS:
                raise self.fail(("integer of at most %d digits" % MAX_DIGITS,))
            self.advance()
            return int(t.text)
        raise self.fail(("integer",))

    # --- descriptors ---------------------------------------------------

    def parse_expr(self) -> Descriptor:
        t = self.peek()
        if t.kind != "name":
            raise self.fail(("'Z'", "'M'", "'prod'", "'sub'"))
        if t.text == "Z":
            self.advance()
            self.expect_punct("(")
            m = self.expect_int()
            self.expect_punct(")")
            return Cyclic(m)
        if t.text == "M":
            self.advance()
            self.expect_punct("(")
            n = self.expect_int()
            self.expect_punct(",")
            base_tok = self.peek()
            base = self.parse_expr()
            if not isinstance(base, Cyclic):
                raise ParseError(base_tok.pos, ("'Z'",), base_tok.describe())
            self.expect_punct(")")
            return Matrix(n, base)
        if t.text == "prod":
            self.advance()
            self.expect_punct("(")
            left = self.parse_expr()
            self.expect_punct(",")
            right = self.parse_expr()
            self.expect_punct(")")
            return Product(left, right)
        if t.text == "sub":
            self.advance()
            self.expect_punct("(")
            parent = self.parse_expr()
            self.expect_punct(";")
            gens = [self.parse_literal()]
            while self.peek().kind == "punct" and self.peek().text == ",":
                self.advance()
                gens.append(self.parse_literal())
            self.expect_punct(")")
            return SubringClosure(parent, tuple(gens))
        raise self.fail(("'Z'", "'M'", "'prod'", "'sub'"))

    # --- element literals ----------------------------------------------

    def parse_literal(self) -> Any:
        t = self.peek()
        if t.kind == "int":
            return self.expect_int()
        if t.kind == "punct" and t.text == "[":
            return self.parse_matrix_literal()
        if t.kind == "punct" and t.text == "(":
            self.advance()
            first = self.parse_literal()
            self.expect_punct(",")
            second = self.parse_literal()
            self.expect_punct(")")
            return (first, second)
        raise self.fail(("integer", "'['", "'('"))

    def parse_matrix_literal(self) -> Tuple[Tuple[int, ...], ...]:
        self.expect_punct("[")
        rows = [self.parse_row()]
        while self.peek().kind == "punct" and self.peek().text == ",":
            self.advance()
            rows.append(self.parse_row())
        self.expect_punct("]")
        return tuple(rows)

    def parse_row(self) -> Tuple[int, ...]:
        self.expect_punct("[")
        entries = [self.expect_int()]
        while self.peek().kind == "punct" and self.peek().text == ",":
            self.advance()
            entries.append(self.expect_int())
        self.expect_punct("]")
        return tuple(entries)

    def expect_eof(self) -> None:
        if self.peek().kind != "eof":
            raise self.fail(("end of input",))


def parse_ring_expr(text: str) -> Descriptor:
    """Parse DSL text into a descriptor; validates constructor invariants."""
    p = _Parser(text)
    d = p.parse_expr()
    p.expect_eof()
    validate_descriptor(d)
    return d


def parse_element(text: str, d: Descriptor) -> Any:
    """Parse an element literal and check its shape against the descriptor."""
    p = _Parser(text)
    lit = p.parse_literal()
    p.expect_eof()
    check_literal_shape(d, lit)
    return lit
