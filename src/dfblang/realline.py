"""Bounded-argument domains over the real line.

Bounds are small arithmetic expressions in x; the token ``f(x)`` may
appear inside a bound to mean the function's own value at x, and is
substituted away against the body before any evaluation, which is
exactly what makes the self-referential spelling decidable here: the
one-shot reading with the body inlined has the same domain.

The domain of ``f(l(x) <= x <= u(x))`` is decided numerically: the
predicate is sampled on a uniform grid over a finite window and every
sign change is sharpened by bisection down to a tolerance. What the
grid cannot see (features narrower than one cell) stays invisible;
intervals that run into the window edge are flagged rather than
extended, standing in for unbounded rays.

``parse_expr`` reads a bound the way ``syntax`` reads a program: one
regular-expression scan into tokens, then a recursive descent over
token indices. It refuses operators and parentheses nested deeper than
``MAX_NESTING`` levels with a positioned ParseError, so neither parsing
nor compiling nor evaluating a bound can reach Python's recursion limit.
Each bound is compiled once, on its first evaluation, into nested
closures, one per node, that do the float operations of a walk over the
tree in the walk's order; the thousands of evaluations a decision makes
then cost one call per node and no dispatch.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable
from functools import cached_property

from .errors import DfbError, InvalidValue, ParseError
from .record import Record, set_field
from .syntax import MAX_NESTING


class SelfReferenceInBody(DfbError):
    pass


class DivisionByZero(DfbError):
    def __init__(self, x: float):
        super().__init__(f"division by zero at x = {x!r}")
        self.x = x


class EmptyWindow(DfbError):
    pass


# ---------------------------------------------------------------------------
# Expressions


class _Node(Record):
    """Base of the expression nodes: each compiles once, on first use.

    The closure is cached in the instance dict, not in a field, so
    equality, hashing, repr and pickling never see it.
    """

    @cached_property
    def _closure(self) -> Callable[[float], float]:
        return _compile(self)


class Num(_Node):
    __match_args__ = ("value",)

    def __init__(self, value: float):
        set_field(self, "value", value)


class X(_Node):
    pass


class SelfRef(_Node):
    """The literal token f(x): the function's own value at x."""


class Neg(_Node):
    __match_args__ = ("operand",)

    def __init__(self, operand: Expr):
        set_field(self, "operand", operand)


class BinOp(_Node):
    __match_args__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):  # op: '+', '-', '*', '/'
        set_field(self, "op", op)
        set_field(self, "left", left)
        set_field(self, "right", right)


class Pow(_Node):
    __match_args__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int):
        set_field(self, "base", base)
        set_field(self, "exponent", exponent)
        if exponent < 0:
            raise ValueError("exponents must be nonnegative integers")


Expr = Num | X | SelfRef | Neg | BinOp | Pow

# Lexemes: a number, a name, an operator or parenthesis, or any other
# character that is not a blank (an error). Blanks fall between matches.
_LEXEME = re.compile(r"\d+\.\d+|\d+\.|\.\d+|\d+|[A-Za-z_]\w*|[-+*/^()]|(\S)")
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def _tokenize_expr(text: str) -> list[tuple[str, int]]:
    """Split a bound into (text, column) pairs, ending with ("", end)."""
    tokens = []
    for m in _LEXEME.finditer(text):
        if m.lastindex:
            raise ParseError(f"unexpected character {m[1]!r}", 1, m.start() + 1)
        tokens.append((m[0], m.start() + 1))
    tokens.append(("", len(text) + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser
#
# Precedence climbing: ^ binds tightest, then unary -, then * /, then + -.
# Each production takes the index of its first token and the depth of
# what it parses (the operators and parentheses around it), and returns
# the node, the depth of its deepest leaf and the index just past it; it
# never moves past the end token. Nesting past MAX_NESTING is a
# ParseError at the token that goes one level too deep. Operator texts
# are never numbers or names, so a token's text alone tells them apart.


def _fail(tokens: list[tuple[str, int]], i: int, message: str,
          expected: tuple[str, ...] = ()) -> None:
    raise ParseError(message, 1, tokens[i][1], frozenset(expected))


def _nest(tokens: list[tuple[str, int]], i: int, depth: int) -> int:
    if depth > MAX_NESTING:
        _fail(tokens, i, f"expression nested deeper than {MAX_NESTING} levels")
    return depth


def _parse_binary(tokens: list[tuple[str, int]], i: int, depth: int,
                  min_prec: int = 1) -> tuple[Expr, int, int]:
    left, reach, i = _parse_operand(tokens, i, depth)
    while True:
        op = tokens[i][0]
        if _PRECEDENCE.get(op, 0) < min_prec:
            return left, reach, i
        reach = _nest(tokens, i, reach + 1)
        right, right_reach, i = _parse_binary(tokens, i + 1, depth + 1,
                                              _PRECEDENCE[op] + 1)
        left, reach = BinOp(op, left, right), max(reach, right_reach)


def _parse_operand(tokens: list[tuple[str, int]], i: int,
                   depth: int) -> tuple[Expr, int, int]:
    if tokens[i][0] == "-":
        depth = _nest(tokens, i, depth + 1)
        operand, reach, i = _parse_operand(tokens, i + 1, depth)
        return Neg(operand), reach, i
    base, reach, i = _parse_atom(tokens, i, depth)
    while tokens[i][0] == "^":
        reach = _nest(tokens, i, reach + 1)
        i += 1
        text = tokens[i][0]
        if not text.isdecimal():
            _fail(tokens, i, "exponent must be a nonnegative integer")
        try:
            exponent = int(text)
        except ValueError:  # more digits than int() converts
            _fail(tokens, i, "exponent has too many digits")
        base = Pow(base, exponent)
        i += 1
    return base, reach, i


def _parse_atom(tokens: list[tuple[str, int]], i: int,
                depth: int) -> tuple[Expr, int, int]:
    text = tokens[i][0]
    if text[:1].isdecimal() or text[:1] == ".":
        return Num(float(text)), depth, i + 1
    if text == "x":
        return X(), depth, i + 1
    if text == "f":
        for want in "(x)":
            i += 1
            if tokens[i][0] != want:
                _fail(tokens, i, "the self-reference must be written f(x)",
                      (want,))
        return SelfRef(), depth, i + 1
    if text == "(":
        depth = _nest(tokens, i, depth + 1)
        inner, reach, i = _parse_binary(tokens, i + 1, depth)
        if tokens[i][0] != ")":
            _fail(tokens, i, "unbalanced parenthesis", (")",))
        return inner, reach, i + 1
    if text[:1].isalpha() or text[:1] == "_":
        _fail(tokens, i, f"unknown name {text!r}", ("x", "f(x)"))
    _fail(tokens, i, "expected a number, x, f(x), or (", ("x", "f(x)", "("))


def parse_expr(text: str) -> Expr:
    """Parse a bound in x.

    Operators and parentheses may nest at most MAX_NESTING levels deep,
    which keeps every recursive walk over the tree, the compiled
    closures included, clear of Python's recursion limit.
    """
    tokens = _tokenize_expr(text)
    expr, _, i = _parse_binary(tokens, 0, 0)
    if tokens[i][0]:
        _fail(tokens, i, "trailing input", ("end of input",))
    return expr


def contains_self(e: Expr) -> bool:
    match e:
        case SelfRef():
            return True
        case Neg(operand):
            return contains_self(operand)
        case BinOp(_, left, right):
            return contains_self(left) or contains_self(right)
        case Pow(base, _):
            return contains_self(base)
        case _:
            return False


def resolve_self_reference(bound: Expr, body: Expr) -> Expr:
    """Substitute the body for every f(x) inside a bound.

    The body itself must not mention f(x): a self-referential body has
    no reading here.
    """
    if contains_self(body):
        raise SelfReferenceInBody("the function body cannot mention f(x)")

    def sub(e: Expr) -> Expr:
        match e:
            case SelfRef():
                return body
            case Neg(operand):
                return Neg(sub(operand))
            case BinOp(op, left, right):
                return BinOp(op, sub(left), sub(right))
            case Pow(base, exponent):
                return Pow(sub(base), exponent)
            case _:
                return e
    return sub(bound)


def _compile(e: Expr) -> Callable[[float], float]:
    """One closure per node, doing the float operations of a recursive
    walk over e in the walk's order; a fault raises when it is reached."""
    match e:
        case Num(value):
            return lambda x: value
        case X():
            return lambda x: x
        case SelfRef():
            def unresolved(x: float) -> float:
                raise SelfReferenceInBody(
                    "unresolved f(x): substitute the body before evaluating")
            return unresolved
        case Neg(operand):
            f = _compile(operand)
            return lambda x: -f(x)
        case BinOp("+", left, right):
            f, g = _compile(left), _compile(right)
            return lambda x: f(x) + g(x)
        case BinOp("-", left, right):
            f, g = _compile(left), _compile(right)
            return lambda x: f(x) - g(x)
        case BinOp("*", left, right):
            f, g = _compile(left), _compile(right)
            return lambda x: f(x) * g(x)
        case BinOp("/", left, right):
            f, g = _compile(left), _compile(right)

            def divide(x: float) -> float:
                denom = g(x)
                if denom == 0.0:
                    raise DivisionByZero(x)
                return f(x) / denom
            return divide
        case Pow(base, exponent):
            f = _compile(base)

            def power(x: float) -> float:
                b = f(x)
                try:
                    return b ** exponent
                except OverflowError:
                    # The power overflowed, or the exponent is past the
                    # float range; either way |b| ** inf is its magnitude.
                    magnitude = abs(b) ** math.inf
                    return math.copysign(magnitude, b) if exponent % 2 else magnitude
            return power

    def not_a_node(x: float) -> float:
        raise TypeError(f"not an expression node: {e!r}")
    return not_a_node


def eval_expr(e: Expr, x: float) -> float:
    """IEEE double evaluation; infinities flow through, 0 denominators raise.

    Runs the closure e compiled to on its first evaluation.
    """
    try:
        closure = e._closure
    except AttributeError:
        raise TypeError(f"not an expression node: {e!r}") from None
    return closure(x)


# ---------------------------------------------------------------------------
# Domains


class Interval(Record):
    """[lo, hi], with flags marking ends that sit on the window edge.

    A flagged end means the true interval continues past the window and
    the number is merely where sampling stopped.
    """

    __match_args__ = ("lo", "hi", "touches_left_edge", "touches_right_edge")

    def __init__(self, lo: float, hi: float, touches_left_edge: bool = False,
                 touches_right_edge: bool = False):
        set_field(self, "lo", lo)
        set_field(self, "hi", hi)
        set_field(self, "touches_left_edge", touches_left_edge)
        set_field(self, "touches_right_edge", touches_right_edge)
        assert lo <= hi, "interval ends out of order"

    def __contains__(self, x: float) -> bool:
        return self.lo <= x <= self.hi


class IntervalSet(Record):
    __match_args__ = ("intervals",)

    def __init__(self, intervals: tuple[Interval, ...] = ()):
        set_field(self, "intervals", intervals)
        for a, b in zip(intervals, intervals[1:]):
            assert a.hi < b.lo, "intervals must be disjoint and increasing"

    def __iter__(self):
        return iter(self.intervals)

    def __len__(self) -> int:
        return len(self.intervals)

    def __contains__(self, x: float) -> bool:
        return any(x in iv for iv in self.intervals)


class SkippedSample(Record):
    __match_args__ = ("x", "reason")

    def __init__(self, x: float, reason: str):
        set_field(self, "x", x)
        set_field(self, "reason", reason)


class DomainReport(Record):
    __match_args__ = ("intervals", "window", "tolerance", "sample_count",
                      "skipped")

    def __init__(self, intervals: IntervalSet, window: tuple[float, float],
                 tolerance: float, sample_count: int,
                 skipped: tuple[SkippedSample, ...] = ()):
        set_field(self, "intervals", intervals)
        set_field(self, "window", window)
        set_field(self, "tolerance", tolerance)
        set_field(self, "sample_count", sample_count)
        set_field(self, "skipped", skipped)


DEFAULT_WINDOW = (-100.0, 100.0)
DEFAULT_GRID_N = 4001
DEFAULT_TOL = 1e-9
# Samples one grid may take; the grid is allocated up front.
MAX_GRID_N = 1_000_000


def _grid(window: tuple[float, float], n: int) -> list[float]:
    lo, hi = window
    step = (hi - lo) / (n - 1)
    xs = [lo + i * step for i in range(n)]
    xs[-1] = hi
    return xs


def real_domain(
    lower: Expr | None,
    upper: Expr | None,
    window: tuple[float, float] = DEFAULT_WINDOW,
    grid_n: int = DEFAULT_GRID_N,
    tol: float = DEFAULT_TOL,
) -> DomainReport:
    """Decide {x : l(x) <= x <= u(x)} inside the window.

    Bounds must already be free of f(x). A sample where a bound divides
    by zero is excluded and recorded; one that evaluates to NaN is
    skipped and recorded likewise. Infinite bound values just compare.
    """
    if lower is None and upper is None:
        raise ValueError("at least one bound is required")
    for bound in (lower, upper):
        if bound is not None and contains_self(bound):
            raise SelfReferenceInBody(
                "bounds still mention f(x): resolve against a body first")
    lo, hi = window
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise EmptyWindow(f"window [{lo}, {hi}] contains no interval")
    if not math.isfinite(hi - lo):
        raise InvalidValue(f"window [{lo}, {hi}] is wider than the float range")
    if grid_n < 2:
        raise InvalidValue(f"the grid needs at least 2 samples, got {grid_n}")
    if grid_n > MAX_GRID_N:
        raise InvalidValue(
            f"the grid allows at most {MAX_GRID_N} samples, got {grid_n}")
    if not tol > 0:  # also refuses NaN
        raise InvalidValue(f"the tolerance must be positive, got {tol}")

    skipped: list[SkippedSample] = []

    def predicate(x: float, record: bool = False) -> bool:
        try:
            if lower is not None:
                lx = eval_expr(lower, x)
                if math.isnan(lx):
                    if record:
                        skipped.append(SkippedSample(x, "lower bound is NaN"))
                    return False
                if not lx <= x:
                    return False
            if upper is not None:
                ux = eval_expr(upper, x)
                if math.isnan(ux):
                    if record:
                        skipped.append(SkippedSample(x, "upper bound is NaN"))
                    return False
                if not x <= ux:
                    return False
        except DivisionByZero:
            if record:
                skipped.append(SkippedSample(x, "division by zero"))
            return False
        return True

    def refine(a: float, b: float) -> float:
        # pred differs at a and b; shrink the bracket until it is well
        # inside the tolerance, or until no float lies strictly between
        # a and b, and answer its midpoint.
        pa = predicate(a)
        # (a + b) / 2 would overflow near the top of the float range.
        while b - a > tol / 2:
            mid = a / 2 + b / 2
            if not a < mid < b:
                break
            if predicate(mid) == pa:
                a = mid
            else:
                b = mid
        return a / 2 + b / 2

    xs = _grid(window, grid_n)
    if xs[-2] > hi:
        # Only a subnormal step rounds up far enough to pass hi.
        raise InvalidValue(
            f"window [{lo}, {hi}] is too narrow for {grid_n} samples")
    flags = [predicate(x, record=True) for x in xs]

    intervals: list[Interval] = []
    i = 0
    while i < grid_n:
        if not flags[i]:
            i += 1
            continue
        j = i
        while j + 1 < grid_n and flags[j + 1]:
            j += 1
        if i == 0:
            left, touches_left = lo, True
        else:
            left, touches_left = refine(xs[i - 1], xs[i]), False
        if j == grid_n - 1:
            right, touches_right = hi, True
        else:
            right, touches_right = refine(xs[j], xs[j + 1]), False
        if intervals and left - intervals[-1].hi <= tol:  # touches the last
            prev = intervals.pop()
            left, touches_left = prev.lo, prev.touches_left_edge
        intervals.append(Interval(left, right, touches_left, touches_right))
        i = j + 1
    return DomainReport(IntervalSet(tuple(intervals)), window, tol, grid_n,
                        tuple(skipped))


def emit_plot_csv(
    path: str,
    report: DomainReport,
    body: Expr | None = None,
    lower: Expr | None = None,
    upper: Expr | None = None,
) -> None:
    """Write one row per grid sample: x, f, l, u, id, valid.

    f is left empty outside the domain (and everywhere when no body is
    given); id is the identity function, so it always equals x. The file
    uses LF line endings, '.' decimals, and no quoting.
    """
    def cell(expr: Expr | None, x: float) -> str:
        if expr is None:
            return ""
        try:
            value = eval_expr(expr, x)
        except DivisionByZero:
            return ""
        return "" if math.isnan(value) else repr(value)

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,f,l,u,id,valid\n")
        for x in _grid(report.window, report.sample_count):
            valid = x in report.intervals
            f_cell = cell(body, x) if valid else ""
            fh.write(
                f"{x!r},{f_cell},{cell(lower, x)},{cell(upper, x)},"
                f"{x!r},{int(valid)}\n"
            )
