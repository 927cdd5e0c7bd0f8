"""The real-line bound parser against the match-loop reference.

The reference below is the tokenizer and parser ``realline`` shipped
before its front end took the idiom of ``syntax``: one regular-expression
scan and an index-based recursive descent. It builds the package's own
expression nodes, so a differential test can ask for the same tree or
the same ``ParseError`` (message, line, column and expected set) on any
input.
"""

from __future__ import annotations

import itertools
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dfblang.errors import ParseError
from dfblang.realline import BinOp, Neg, Num, Pow, SelfRef, X, parse_expr
from dfblang.syntax import MAX_NESTING

# ---------------------------------------------------------------------------
# Reference: the match loop and the peek/advance parser.

_TOKEN = re.compile(r"\s*(?:(\d+\.\d+|\d+\.|\.\d+|\d+)|([A-Za-z_]\w*)|([-+*/^()]))")
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def ref_tokenize_expr(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            col = pos + (len(text[pos:]) - len(stripped)) + 1
            raise ParseError(f"unexpected character {stripped[0]!r}", 1, col)
        number, name, op = m.groups()
        start = m.start(1) if number else m.start(2) if name else m.start(3)
        if number:
            tokens.append(("num", number, start + 1))
        elif name:
            tokens.append(("name", name, start + 1))
        else:
            tokens.append(("op", op, start + 1))
        pos = m.end()
    tokens.append(("eof", "", len(text) + 1))
    return tokens


class RefExprParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def at_op(self, *ops):
        kind, text, _ = self.peek()
        return kind == "op" and text in ops

    def fail(self, message, expected=frozenset()):
        _, text, col = self.peek()
        raise ParseError(message, 1, col, frozenset(expected))

    def nest(self, depth):
        if depth > MAX_NESTING:
            self.fail(f"expression nested deeper than {MAX_NESTING} levels")
        return depth

    def parse_binary(self, depth, min_prec=1):
        left, reach = self.parse_operand(depth)
        while True:
            kind, op, _ = self.peek()
            if kind != "op" or _PRECEDENCE.get(op, 0) < min_prec:
                return left, reach
            reach = self.nest(reach + 1)
            self.advance()
            right, right_reach = self.parse_binary(depth + 1,
                                                   _PRECEDENCE[op] + 1)
            left, reach = BinOp(op, left, right), max(reach, right_reach)

    def parse_operand(self, depth):
        if self.at_op("-"):
            depth = self.nest(depth + 1)
            self.advance()
            operand, reach = self.parse_operand(depth)
            return Neg(operand), reach
        base, reach = self.parse_atom(depth)
        while self.at_op("^"):
            reach = self.nest(reach + 1)
            self.advance()
            kind, text, col = self.peek()
            if kind != "num" or "." in text:
                self.fail("exponent must be a nonnegative integer")
            self.advance()
            base = Pow(base, int(text))
        return base, reach

    def parse_atom(self, depth):
        kind, text, col = self.peek()
        if kind == "num":
            self.advance()
            return Num(float(text)), depth
        if kind == "name":
            self.advance()
            if text == "x":
                return X(), depth
            if text == "f":
                for want in "(x)":
                    k, t, c = self.peek()
                    if t != want:
                        raise ParseError(
                            "the self-reference must be written f(x)", 1, c,
                            frozenset({want}))
                    self.advance()
                return SelfRef(), depth
            raise ParseError(f"unknown name {text!r}", 1, col,
                             frozenset({"x", "f(x)"}))
        if self.at_op("("):
            depth = self.nest(depth + 1)
            self.advance()
            inner = self.parse_binary(depth)
            if not self.at_op(")"):
                self.fail("unbalanced parenthesis", {")"})
            self.advance()
            return inner
        self.fail("expected a number, x, f(x), or (", {"x", "f(x)", "("})


def ref_parse_expr(text):
    parser = RefExprParser(ref_tokenize_expr(text))
    expr, _ = parser.parse_binary(0)
    if parser.peek()[0] != "eof":
        parser.fail("trailing input", {"end of input"})
    return expr


# ---------------------------------------------------------------------------
# Inputs: grammar-built bounds, then mutated with what matters to a lexer
# (blanks of every kind, Unicode digits and letters, stray dots, names
# that run into digits, operators out of place).

_ATOMS = ("x", "f(x)", "1", "0", "2.5", ".5", "3.", "12", "٣",
          "１.5", "y", "x2", "_", "e3", "f", "xé")
_BLANKS = ("", " ", "  ", "\t", "\n", " ", " ", "\x1c")
_JUNK = _BLANKS + ("(", ")", "-", "+", "*", "/", "^", ".", "..", "1.2.3",
                   "٣", "é", "λ", "_", "9", "2x", "f(", "x)",
                   "^-1", "^2.5", "$", "@", "f (x )", " ")


@st.composite
def expr_texts(draw, depth=4):
    def blank():
        return draw(st.sampled_from(_BLANKS))
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        return blank() + draw(st.sampled_from(_ATOMS)) + blank()
    form = draw(st.integers(0, 3))
    inner = draw(expr_texts(depth - 1))
    if form == 0:
        return f"-{blank()}{inner}"
    if form == 1:
        return f"({inner}){blank()}"
    if form == 2:
        exponent = draw(st.sampled_from(("0", "2", "3", "12", "٣", "400")))
        return f"{inner}^{blank()}{exponent}"
    op = draw(st.sampled_from("+-*/"))
    return f"{inner}{blank()}{op}{draw(expr_texts(depth - 1))}"


@st.composite
def mutated(draw, base):
    text = draw(base)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 2))
        text = text[:i] + draw(st.sampled_from(_JUNK)) + text[i + cut:]
    return text


def outcome(parse, text):
    """What parsing gives: the tree, or the four fields of its ParseError."""
    try:
        return "ok", parse(text)
    except ParseError as exc:
        return "error", (exc.message, exc.line, exc.column, exc.expected)


@settings(max_examples=400, deadline=None)
@given(mutated(expr_texts()))
@example("")
@example("   ")
@example("x +")
@example("x y")
@example("x^")
@example("x^ 2 ^3")
@example("x^.5")
@example("x^2.")
@example("f")
@example("f(x")
@example("f(2)")
@example("(x")
@example("x)")
@example("1.2.3")
@example("٣.٣^٣")
@example("x é")
@example("xy_é")
@example(" x +\x1c.5")
def test_trees_and_errors_match_the_reference(text):
    assert outcome(parse_expr, text) == outcome(ref_parse_expr, text)


_SHAPES = {
    "parens": lambda n: "(" * n + "x" + ")" * n,
    "minuses": lambda n: "-" * n + "x",
    "sum": lambda n: "+".join(["x"] * (n + 1)),
    "differences": lambda n: "-".join(["x"] * (n + 1)),
    "product": lambda n: "*".join(["2"] * n + ["x"]),
    "powers": lambda n: "x" + "^1" * n,
    "paren-powers": lambda n: "(" * n + "x" + ")^2" * n,
    "neg-parens": lambda n: "-(" * n + "x" + ")" * n,
    "sum-in-parens": lambda n: "(x+" * n + "x" + ")" * n,
    "times-minus": lambda n: "2*-" * n + "x",
    "minus-power-sum": lambda n: "-x^2+" * n + "x",
    "open-parens": lambda n: "(" * n + "x",
    "self-in-parens": lambda n: "(" * n + "f(x)" + ")" * n,
    "bad-leaf": lambda n: "(" * n + "y" + ")" * n,
}


@pytest.mark.parametrize(
    "shape, depth",
    list(itertools.product(_SHAPES, range(MAX_NESTING - 1, MAX_NESTING + 3))))
def test_nesting_shapes_match_the_reference(shape, depth):
    text = _SHAPES[shape](depth)
    assert outcome(parse_expr, text) == outcome(ref_parse_expr, text)
