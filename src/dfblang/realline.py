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
A literal holds a double from the moment its node is built, and a tree
that still holds f(x) is refused when it compiles, so bounds run as
generated Python that is only arithmetic: nested expressions, with a
statement only where division by zero or overflow can occur. A decision
compiles one function that loops over the grid with both bounds inline,
tests l(x) <= x <= u(x) in place and appends 1 or 0 to a bytearray, so
its thousands of samples cost one call in all and ``bytearray.find``
reads off the runs; bisection evaluates a bound through ``eval_expr``,
which compiles it once, on first use, into a function of x. Numbers
enter that code as names, so it depends only on the bounds' shape and
compiles once per shape. Each grid is checked once, when it is built,
and the last one is kept for the next decision.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable
from functools import cached_property, lru_cache
from itertools import count, islice
from operator import lt

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

    The compiled function is cached in the instance dict, not in a field,
    so equality, hashing, repr and pickling never see it.
    """

    @cached_property
    def _closure(self) -> Callable[[float], float]:
        return _Source().build(self)


class Num(_Node):
    """A literal, held as a double: an int or a float becomes its float,
    an int past the float range its sign's infinity; else a TypeError."""

    __match_args__ = ("value",)

    def __init__(self, value: float):
        if not isinstance(value, (int, float)):
            raise TypeError(f"a literal must be an int or a float, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            value = math.inf if value > 0 else -math.inf
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
        if not isinstance(exponent, int) or exponent < 0:
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
    which keeps every recursive walk over the tree, the compiler's
    included, clear of Python's recursion limit.
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


# A subtree whose code passes this many lines becomes a function of its
# own, so that compile() never holds much more than that at once.
_CHUNK_LINES = 256
# An inline expression past this many nodes is assigned to a name: lines
# stay short and parentheses nest far below the parser's 200 levels.
_INLINE_NODES = 32


# Code objects kept, keyed by their source, which depends only on a
# tree's shape. A decision of ordinary bounds compiles three (its loop
# and each bound's function for bisection), about 3 KB each, so 32 hold
# the last ten such decisions; a piece as long as _CHUNK_LINES allows
# takes about 0.15 MB, so the memo never holds more than 5 MB.
@lru_cache(maxsize=32)
def _compiled(source: str):
    return compile(source, "<bound>", "exec")


def _overflowed(b, exponent):
    # The power overflowed, or the exponent is past the float range;
    # either way |b| ** inf is its magnitude.
    magnitude = abs(b) ** math.inf
    return math.copysign(magnitude, b) if exponent % 2 else magnitude


class _Source:
    """Generated Python for bounds, as nested expressions. Compiling
    refuses a tree unfit to run, before any evaluation: f(x) is a
    SelfReferenceInBody, a non-node or unknown operator a TypeError.
    +, -, * and unary minus sit inline in their parent's expression, as
    on doubles they never raise, and a negated literal folds into the
    literal. Only the two faults are statements, in a recursive walk's
    order: / raises DivisionByZero on a 0.0 denominator before its
    numerator runs, and ** turns OverflowError into the signed limit.
    No input text and no number enters the source: every literal and
    exponent is a name bound in the decision's own namespace, so the
    source depends only on the tree's shape. It compiles once per shape
    (_compiled), and each decision runs that code in its namespace."""

    def __init__(self):
        self.names = {"DivisionByZero": DivisionByZero, "_overflowed": _overflowed}
        self.lines: list[str] = []
        self.ids = count()

    def build(self, e: Expr) -> Callable[[float], float]:
        """The function of x that evaluates e."""
        result, _ = self.emit(e)
        # Popped, the function and its namespace form no reference cycle.
        return self.names.pop(self.define("x", [*self.lines, f"return {result}"]))

    def decide(self, lower: Expr | None, upper: Expr | None) -> Callable:
        """The function of (xs, skip) that answers, for each x in xs in
        order, 1 if l(x) <= x <= u(x) and 0 if not; u is evaluated only
        where l holds. A sample where a bound divides by zero or is NaN
        fails and is handed to skip(x, reason) first."""
        loop = []
        for bound, test, side in ((lower, "{} <= x", "lower"),
                                  (upper, "x <= {}", "upper")):
            if bound is not None:
                self.lines = []
                text, nodes = self.emit(bound)
                v = text if nodes == 1 else self.assign(text)
                loop += [*self.lines, f"if not {test.format(v)}:",
                         f" if {v} != {v}: skip(x, '{side} bound is NaN')",
                         " flag(0)", " continue"]
        return self.names.pop(self.define("xs, skip", [
            "flags = bytearray()", "flag = flags.append", "for x in xs:", " try:",
            *(f"  {line}" for line in loop),
            " except DivisionByZero:", "  skip(x, 'division by zero')",
            "  flag(0)", "  continue", " flag(1)", "return flags"]))

    def bind(self, value) -> str:
        name = f"c{next(self.ids)}"
        self.names[name] = value
        return name

    def assign(self, text: str) -> str:
        v = f"v{next(self.ids)}"
        self.lines.append(f"{v} = {text}")
        return v

    def define(self, params: str, body: list[str]) -> str:
        name = f"c{next(self.ids)}"
        source = "".join([f"def {name}({params}):\n", *(f" {line}\n" for line in body)])
        exec(_compiled(source), self.names)
        return name

    def emit(self, e) -> tuple[str, int]:
        """Append the statements e needs to lines, operands before the
        node; answer the expression that then gives its value and the
        nodes it holds."""
        match e:
            case X():
                return "x", 1
            case Num(value) | Neg(Num(value)):
                return self.bind(-value if isinstance(e, Neg) else value), 1
            case SelfRef():
                raise SelfReferenceInBody(
                    "unresolved f(x): substitute the body before evaluating")
        emit, lines, start = self.emit, self.lines, len(self.lines)
        match e:
            case Neg(operand):
                a, n = emit(operand)
                text, nodes = f"(-{a})", n + 1
            case BinOp("+" | "-" | "*" as op, left, right):
                a, m = emit(left)
                b, n = emit(right)
                text, nodes = f"({a} {op} {b})", m + n + 1
            case BinOp("/", left, right):
                d, n = emit(right)
                test = d
                if n > 1:  # named as it is tested, for the division to read
                    d = f"v{next(self.ids)}"
                    test = f"({d} := {test})"
                lines.append(f"if {test} == 0.0: raise DivisionByZero(x)")
                a, m = emit(left)
                text, nodes = f"({a} / {d})", m + 2
            case Pow(base, exponent):
                b, _ = emit(base)
                v, n = f"v{next(self.ids)}", self.bind(exponent)
                lines.append(f"try: {v} = {b} ** {n}")
                lines.append(f"except OverflowError: {v} = _overflowed({b}, {n})")
                text, nodes = v, 1
            case _:
                raise TypeError(f"not an expression node: {e!r}")
        if nodes > _INLINE_NODES:
            text, nodes = self.assign(text), 1
        if len(lines) - start > _CHUNK_LINES:
            chunk = self.define("x", [*lines[start:], f"return {text}"])
            del lines[start:]
            text, nodes = self.assign(f"{chunk}(x)"), 1
        return text, nodes


def eval_expr(e: Expr, x: float) -> float:
    """IEEE double evaluation; infinities flow through, 0 denominators raise.

    Runs the function e compiled to on its first evaluation. Its
    literals are names in that function's namespace, so a tree of a
    shape compiled before reuses that code with its own numbers. A tree
    that still holds f(x) never compiles, so it is refused at every x
    with SelfReferenceInBody. Bisection and the CSV writer evaluate
    bounds here; the grid pass has its own loop, generated from the same
    code.
    """
    try:
        function = e._closure
    except AttributeError:
        raise TypeError(f"not an expression node: {e!r}") from None
    return function(x)


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


# The last grid built: its key, then its samples.
_last_grid: tuple[tuple, tuple[float, ...]] = ((), ())


def _grid(window: tuple[float, float], n: int) -> tuple[float, ...]:
    """The n samples lo + i * step of the window, the last one hi itself.

    A grid is checked once, when it is built: a step near the float
    spacing can round two samples equal or the last one past hi, and
    samples that do not strictly increase raise InvalidValue. The last
    good grid is kept, as a tuple no caller can change: real_domain and
    emit_plot_csv ask for the same one, and bounds decided over one
    window and grid ask for it again. The ends key it as floats, signs
    included, since -0.0 == 0.0 yet a bound can tell them apart."""
    global _last_grid
    lo, hi = map(float, window)
    key = (lo, hi, n, math.copysign(1.0, lo), math.copysign(1.0, hi))
    if _last_grid[0] != key:
        step = (hi - lo) / (n - 1)
        xs = [lo + i * step for i in range(n)]
        xs[-1] = hi
        if not all(map(lt, xs, islice(xs, 1, None))):
            raise InvalidValue(f"window [{window[0]}, {window[1]}] is too "
                               f"narrow for {n} samples")
        _last_grid = key, tuple(xs)
    return _last_grid[1]


def _run_edges(flags: bytearray) -> list[int]:
    """[i, j, ..., len(flags)] such that each flags[i:j] is a maximal run
    of 1s; find() gives each edge, so the cost grows with the runs."""
    edges, i, want = [], 0, 1
    while (i := flags.find(want, i)) >= 0:
        edges.append(i)
        want ^= 1
    edges.append(len(flags))
    return edges


def real_domain(lower: Expr | None, upper: Expr | None,
                window: tuple[float, float] = DEFAULT_WINDOW,
                grid_n: int = DEFAULT_GRID_N, tol: float = DEFAULT_TOL
                ) -> DomainReport:
    """Decide {x : l(x) <= x <= u(x)} inside the window.

    The decision compiles first, so a bound that still holds f(x) raises
    SelfReferenceInBody before any window, grid or tolerance error, and
    before the grid takes memory. A sample where a bound divides by zero
    is excluded and recorded; one that evaluates to NaN is skipped and
    recorded likewise. Infinite bound values just compare. The grid,
    checked by _grid when built and kept while the window and grid_n
    stay, is decided in one generated pass, compiled once per shape of
    the bounds; each change of answer between neighbours is bisected.
    """
    if lower is None and upper is None:
        raise ValueError("at least one bound is required")
    decide = _Source().decide(lower, upper)
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

    def skip(x: float, reason: str) -> None:
        skipped.append(SkippedSample(x, reason))

    def holds(x: float) -> bool:
        try:
            return ((lower is None or eval_expr(lower, x) <= x)
                    and (upper is None or x <= eval_expr(upper, x)))
        except DivisionByZero:
            return False

    def refine(a: float, b: float) -> float:
        # holds differs at a and b; shrink the bracket until it is well
        # inside the tolerance, or until no float lies strictly between
        # a and b, and answer its midpoint.
        pa = holds(a)
        # (a + b) / 2 would overflow near the top of the float range.
        while b - a > tol / 2:
            mid = a / 2 + b / 2
            if not a < mid < b:
                break
            if holds(mid) == pa:
                a = mid
            else:
                b = mid
        return a / 2 + b / 2

    xs = _grid(window, grid_n)
    edges = _run_edges(decide(xs, skip))
    intervals: list[Interval] = []
    for i, j in zip(edges[::2], edges[1::2]):
        if i == 0:
            left, touches_left = lo, True
        else:
            left, touches_left = refine(xs[i - 1], xs[i]), False
        if j == grid_n:
            right, touches_right = hi, True
        else:
            right, touches_right = refine(xs[j - 1], xs[j]), False
        if intervals and left - intervals[-1].hi <= tol:  # touches the last
            prev = intervals.pop()
            left, touches_left = prev.lo, prev.touches_left_edge
        intervals.append(Interval(left, right, touches_left, touches_right))
    return DomainReport(IntervalSet(tuple(intervals)), window, tol, grid_n,
                        tuple(skipped))


def emit_plot_csv(path: str, report: DomainReport, body: Expr | None = None,
                  lower: Expr | None = None, upper: Expr | None = None) -> None:
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
