"""Expression parsing, evaluation, and numeric domain decisions."""

from __future__ import annotations

import hashlib
import math
import os
import pickle
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from itertools import chain, compress, islice, pairwise
from operator import lt, ne
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import REPO_ROOT
from dfblang import realline
from dfblang.errors import InvalidValue, ParseError
from dfblang.realline import (
    DEFAULT_GRID_N,
    BinOp,
    DivisionByZero,
    DomainReport,
    EmptyWindow,
    Interval,
    IntervalSet,
    Neg,
    Num,
    Pow,
    SelfRef,
    SelfReferenceInBody,
    SkippedSample,
    X,
    contains_self,
    emit_plot_csv,
    eval_expr,
    parse_expr,
    real_domain,
    resolve_self_reference,
)
from dfblang.syntax import MAX_NESTING

TOL = 1e-9


class TestParseExpr:
    def test_literals_and_variables(self):
        assert parse_expr("3.5") == Num(3.5)
        assert parse_expr("x") == X()
        assert parse_expr("f(x)") == SelfRef()

    def test_power_binds_tighter_than_unary_minus(self):
        assert parse_expr("-x^2") == Neg(Pow(X(), 2))

    def test_product_binds_tighter_than_sum(self):
        assert parse_expr("1+2*x") == BinOp("+", Num(1.0),
                                            BinOp("*", Num(2.0), X()))

    def test_sums_and_products_are_left_associative(self):
        assert parse_expr("x-1-2") == BinOp("-", BinOp("-", X(), Num(1.0)),
                                            Num(2.0))
        assert eval_expr(parse_expr("8/2/2"), 0.0) == 2.0

    def test_parentheses_group(self):
        assert parse_expr("(x-2)^2") == Pow(BinOp("-", X(), Num(2.0)), 2)

    def test_chained_powers(self):
        assert parse_expr("x^2^3") == Pow(Pow(X(), 2), 3)

    def test_unary_minus_nests(self):
        assert eval_expr(parse_expr("--x"), 5.0) == 5.0
        assert eval_expr(parse_expr("2*-x"), 3.0) == -6.0

    @pytest.mark.parametrize("bad", ["y", "x^-1", "x^2.5", "x^(2)",
                                     "(x", "x+", "", "x @ 2"])
    def test_rejections(self, bad):
        with pytest.raises(ParseError):
            parse_expr(bad)

    def test_error_carries_a_column(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("x + y")
        assert exc.value.column == 5

    def test_self_reference_must_be_spelled_exactly(self):
        with pytest.raises(ParseError):
            parse_expr("f(2)")

    def test_an_exponent_int_cannot_convert_is_a_positioned_error(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("x ^ " + "9" * 5000)
        assert (exc.value.line, exc.value.column) == (1, 5)


def _parens(n: int) -> str:
    return "(" * n + "x" + ")" * n


def _sum(n_terms: int) -> str:
    return "+".join(["x"] * n_terms)


def _minuses(n: int) -> str:
    return "-" * n + "x"


class TestNestingCap:
    # Each shape nests one level per parenthesis, '+' or '-'; the cap
    # counts levels, so a flat sum reaches it at MAX_NESTING + 1 terms.
    @pytest.mark.parametrize("text, value", [
        (_parens(MAX_NESTING), 3.0),
        (_sum(MAX_NESTING + 1), 3.0 * (MAX_NESTING + 1)),
        (_minuses(MAX_NESTING), 3.0),
    ], ids=["parens", "sum", "minuses"])
    def test_at_the_cap_it_evaluates(self, text, value):
        assert eval_expr(parse_expr(text), 3.0) == value

    @pytest.mark.parametrize("text, column", [
        (_parens(MAX_NESTING + 1), MAX_NESTING + 1),
        (_sum(MAX_NESTING + 2), 2 * (MAX_NESTING + 1)),
        (_minuses(MAX_NESTING + 1), MAX_NESTING + 1),
    ], ids=["parens", "sum", "minuses"])
    def test_one_past_the_cap_is_a_positioned_parse_error(self, text, column):
        with pytest.raises(ParseError) as exc:
            parse_expr(text)
        assert (exc.value.line, exc.value.column) == (1, column)
        assert "nested deeper" in exc.value.message

    @pytest.mark.parametrize("text", [
        _parens(MAX_NESTING * 5), _sum(1000), _minuses(3000),
        "x" + "^1" * (MAX_NESTING + 1),
    ], ids=["parens", "sum", "minuses", "powers"])
    def test_far_past_the_cap_is_a_parse_error(self, text):
        with pytest.raises(ParseError):
            parse_expr(text)

    def test_levels_add_up_across_shapes(self):
        half = MAX_NESTING // 2
        parse_expr("-" * half + _parens(half))
        with pytest.raises(ParseError):
            parse_expr("-" * half + _parens(half + 1))

    def test_resolved_bounds_at_the_cap_decide(self):
        # f(x) at the bottom of a capped bound, replaced by a capped body,
        # doubles the tree's depth; deciding it stays clear of the
        # recursion limit.
        body = parse_expr(_minuses(MAX_NESTING))
        bound = parse_expr("-" * (MAX_NESTING - 2) + "(1-f(x))")
        report = real_domain(None, resolve_self_reference(bound, body),
                             window=(-4.0, 4.0), grid_n=9)
        (only,) = report.intervals
        assert only.touches_left_edge and abs(only.hi - 0.5) <= TOL


class TestEval:
    def test_polynomial(self):
        assert eval_expr(parse_expr("x^3"), 2.0) == 8.0
        assert eval_expr(parse_expr("(x-5)^3-10*x+65"), 5.0) == 15.0

    def test_power_of_zero_exponent(self):
        assert eval_expr(parse_expr("x^0"), 7.0) == 1.0

    def test_division_by_zero_raises_with_location(self):
        with pytest.raises(DivisionByZero) as exc:
            eval_expr(parse_expr("1/x"), 0.0)
        assert exc.value.x == 0.0

    def test_overflowing_powers_become_infinities(self):
        assert eval_expr(parse_expr("10^400"), 0.0) == math.inf
        assert eval_expr(parse_expr("(-10)^401"), 0.0) == -math.inf

    def test_exponents_past_the_float_range(self):
        # 10^400 cannot convert to a float, which is not an overflow.
        big = 10 ** 400
        powers = {b: (eval_expr(Pow(Num(b), big), 0.0),
                      eval_expr(Pow(Num(b), big + 1), 0.0))
                  for b in (0.5, -1.0, 1.0, -2.0)}
        assert powers == {0.5: (0.0, 0.0), -1.0: (1.0, -1.0), 1.0: (1.0, 1.0),
                          -2.0: (math.inf, -math.inf)}

    def test_unresolved_self_reference_refuses_to_evaluate(self):
        with pytest.raises(SelfReferenceInBody):
            eval_expr(SelfRef(), 1.0)

    def test_an_unresolved_numerator_is_refused_before_a_zero_denominator(self):
        with pytest.raises(SelfReferenceInBody):
            eval_expr(BinOp("/", SelfRef(), Num(-0.0)), 1.0)

    @pytest.mark.parametrize("e", [BinOp("/", SelfRef(), X()),
                                   BinOp("/", X(), SelfRef()),
                                   BinOp("/", SelfRef(), Num(0.0))],
                             ids=["f(x)/x", "x/f(x)", "f(x)/0"])
    def test_an_unresolved_self_reference_is_refused_at_every_x(self, e):
        for x in _SPECIAL:
            with pytest.raises(SelfReferenceInBody):
                eval_expr(e, x)

    def test_non_nodes_are_type_errors(self):
        with pytest.raises(TypeError):
            eval_expr(3.0, 1.0)
        with pytest.raises(TypeError):
            eval_expr(Neg(3.0), 1.0)
        with pytest.raises(TypeError):
            eval_expr(BinOp("%", X(), X()), 1.0)

    def test_the_compiled_closure_stays_out_of_eq_hash_and_repr(self):
        evaluated, fresh = parse_expr("x^2+1"), parse_expr("x^2+1")
        eval_expr(evaluated, 2.0)
        assert evaluated == fresh and hash(evaluated) == hash(fresh)
        assert repr(evaluated) == repr(fresh)

    def test_evaluated_expressions_still_pickle(self):
        e = parse_expr("1/(x-2)^3")
        eval_expr(e, 1.0)
        copy = pickle.loads(pickle.dumps(e))
        assert copy == e and eval_expr(copy, 1.0) == -1.0


# The least int that rounds past the largest double: halfway from it to
# 2 ** 1024, where round-half-even goes up.
_PAST_FLOATS = 2 ** 1024 - 2 ** 970


class TestLiterals:
    @settings(max_examples=300, deadline=None)
    @given(st.integers()
           | st.tuples(st.integers(-2 ** 971, 2 ** 971), st.sampled_from([1, -1]))
             .map(lambda t: t[1] * (_PAST_FLOATS + t[0]))
           | st.sampled_from([10 ** 400, -10 ** 400, _PAST_FLOATS, _PAST_FLOATS - 1])
           | st.floats()
           | st.sampled_from([math.nan, -0.0, math.inf, -math.inf]))
    def test_a_literal_holds_its_double(self, v):
        if isinstance(v, int) and abs(v) >= _PAST_FLOATS:
            want = math.inf if v > 0 else -math.inf
        else:
            want = float(v)
        value = Num(v).value
        assert type(value) is float and repr(value) == repr(want)

    @pytest.mark.parametrize("constant", [Decimal("1.5"), Fraction(1, 3),
                                          complex(1, 2), "s", None],
                             ids=["Decimal", "Fraction", "complex", "str", "None"])
    def test_a_literal_not_an_int_or_float_is_a_type_error(self, constant):
        with pytest.raises(TypeError):
            Num(constant)


def _reference(e, x):
    """Reference: a tree that still holds f(x) is refused before any
    evaluation; any other is walked."""
    if contains_self(e):
        raise SelfReferenceInBody("unresolved f(x)")
    return _walk(e, x)


def _walk(e, x):
    """A recursive walk over an f(x)-free tree, one node per call."""
    match e:
        case Num(value):
            return value
        case X():
            return x
        case Neg(operand):
            return -_walk(operand, x)
        case BinOp("+", left, right):
            return _walk(left, x) + _walk(right, x)
        case BinOp("-", left, right):
            return _walk(left, x) - _walk(right, x)
        case BinOp("*", left, right):
            return _walk(left, x) * _walk(right, x)
        case BinOp("/", left, right):
            denom = _walk(right, x)
            if denom == 0.0:
                raise DivisionByZero(x)
            return _walk(left, x) / denom
        case Pow(base, exponent):
            try:
                return _walk(base, x) ** exponent
            except OverflowError:
                # The limit of |b| ** n as n grows, signed for odd n.
                b = _walk(base, x)
                sign = math.copysign(1.0, b) if exponent % 2 else 1.0
                return sign * abs(b) ** math.inf
    raise TypeError(f"not an expression node: {e!r}")


def _outcome(evaluate, e, x):
    try:
        return repr(evaluate(e, x))
    except Exception as exc:  # the exception's type is the outcome
        return type(exc)


_SPECIAL = [0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 10.0, 1e300, -1e300,
            math.inf, -math.inf]
_numbers = st.sampled_from(_SPECIAL) | st.floats(width=64)
_leaves = st.one_of(st.builds(Num, _numbers), st.just(Num(0.0)), st.just(X()),
                    st.just(SelfRef()))
_exprs = st.recursive(
    _leaves,
    lambda sub: (st.builds(Neg, sub)
                 | st.builds(BinOp, st.sampled_from("+-*/"), sub, sub)
                 | st.builds(Pow, sub, st.sampled_from([0, 1, 2, 3, 7, 400, 401]))),
    max_leaves=12)
_free_exprs = _exprs.filter(lambda e: not contains_self(e))
_xs = st.sampled_from(_SPECIAL) | st.floats(-1e3, 1e3)
_ZERO_OVER_ZERO = BinOp("/", Num(1.0), BinOp("-", X(), X()))
_POLE_AT_HALF = BinOp("+", X(), BinOp("/", Num(1.0), BinOp("-", Num(0.5), X())))
_NAN_PAST_6 = BinOp("-", Pow(X(), 400), Pow(X(), 400))


class TestCompiledMatchesTheWalk:
    @settings(max_examples=400, deadline=None)
    @given(_exprs, _xs)
    @example(BinOp("/", SelfRef(), X()), 0.0)
    @example(BinOp("+", _ZERO_OVER_ZERO, SelfRef()), 1.0)
    @example(Pow(BinOp("*", X(), Num(-1e300)), 3), 1e10)
    def test_same_value_or_same_exception(self, e, x):
        assert _outcome(eval_expr, e, x) == _outcome(_reference, e, x)

    def test_the_awkward_cases_occur(self):
        x = 0.0
        cases = {
            "x/0": BinOp("/", X(), Num(0.0)),
            "inf-inf": BinOp("-", Pow(Num(10.0), 400), Pow(Num(10.0), 400)),
            "(-10)^401": Pow(Num(-10.0), 401),
            "-0": Neg(X()),
        }
        outcomes = {k: _outcome(eval_expr, e, x) for k, e in cases.items()}
        assert outcomes == {k: _outcome(_reference, e, x) for k, e in cases.items()}
        assert outcomes == {"x/0": DivisionByZero, "inf-inf": "nan",
                            "(-10)^401": "-inf", "-0": "-0.0"}

    @settings(max_examples=100, deadline=None)
    @given(st.none() | _free_exprs, st.none() | _free_exprs,
           st.floats(-50, 50), st.floats(0.5, 50), st.integers(2, 60))
    @example(None, _POLE_AT_HALF, 0.0, 1.0, 3)  # the pole is a sample
    @example(_NAN_PAST_6, None, 0.0, 10.0, 21)  # inf - inf past x = 5.9
    @example(BinOp("-", Pow(X(), 2), Num(3.0)), None, -4.0, 8.0, 9)
    @example(None, Pow(X(), 3), -4.0, 8.0, 9)
    @example(X(), _POLE_AT_HALF, -1.0, 3.0, 2)
    def test_real_domain_matches_the_walk(self, lower, upper, a, width, n):
        assume(lower is not None or upper is not None)
        window = (a, a + width)
        assert (repr(real_domain(lower, upper, window=window, grid_n=n))
                == repr(_reference_domain(lower, upper, window, n)))


def _reference_domain(lower, upper, window, grid_n, tol=TOL):
    """Reference decision: one predicate call per sample, through _walk,
    a scan for runs of holding samples, then bisection at each run end."""
    skipped = []

    def predicate(x, record=False):
        try:
            if lower is not None:
                lx = _walk(lower, x)
                if math.isnan(lx):
                    if record:
                        skipped.append(SkippedSample(x, "lower bound is NaN"))
                    return False
                if not lx <= x:
                    return False
            if upper is not None:
                ux = _walk(upper, x)
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

    def refine(a, b):
        pa = predicate(a)
        while b - a > tol / 2:
            mid = a / 2 + b / 2
            if not a < mid < b:
                break
            if predicate(mid) == pa:
                a = mid
            else:
                b = mid
        return a / 2 + b / 2

    lo, hi = window
    step = (hi - lo) / (grid_n - 1)
    xs = [lo + i * step for i in range(grid_n)]
    xs[-1] = hi
    flags = [predicate(x, record=True) for x in xs]
    intervals = []
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
        if intervals and left - intervals[-1].hi <= tol:
            prev = intervals.pop()
            left, touches_left = prev.lo, prev.touches_left_edge
        intervals.append(Interval(left, right, touches_left, touches_right))
        i = j + 1
    return DomainReport(IntervalSet(tuple(intervals)), window, tol, grid_n,
                        tuple(skipped))


def _balanced(leaves: int, ops: str = "+*-/") -> str:
    """A balanced bound over x and 1.5, cycling through ops by levels."""
    level = ["x", "1.5"] * (leaves // 2)
    while len(level) > 1:
        level = [f"({a}{ops[i % len(ops)]}{b})"
                 for i, (a, b) in enumerate(zip(level[::2], level[1::2]))]
    return level[0]


def _nested_differences(depth: int) -> BinOp:
    """x-(x-(...-(x-x))), depth operators deep: past what parse_expr
    accepts, so built by hand."""
    e = X()
    for _ in range(depth):
        e = BinOp("-", X(), e)
    return e


def _paren_depth(source: str) -> int:
    depth = deepest = 0
    for char in source:
        if char == "(":
            depth += 1
            deepest = max(deepest, depth)
        elif char == ")":
            depth -= 1
    return deepest


# Longest generated line allowed: one statement holds at most one inline
# expression of 2 * _INLINE_NODES + 1 nodes.
_MAX_LINE = 1000


class TestCompilerExtremes:
    # Text is parsed when the test runs, so collection stays cheap.
    @pytest.mark.parametrize("e", [
        _parens(MAX_NESTING),
        _minuses(MAX_NESTING),
        "x" + "^3" * MAX_NESTING,
        "(x-0.5)" + "^2" * (MAX_NESTING - 2),
        _sum(MAX_NESTING + 1),
        _balanced(2 ** 14),
        Pow(Num(0.5), 10 ** 5000),
        Pow(Num(-0.0), 10 ** 5000 + 1),
        Pow(Num(-2.0), 10 ** 5000 + 1),
        BinOp("+", Num(3), Pow(X(), 2)),
        BinOp("*", Num(-10 ** 400), X()),
        BinOp("-", Num(2 ** 53 + 1), X()),
        Num(math.inf),
        Neg(Num(-math.inf)),
        BinOp("*", Num(math.nan), X()),
        Pow(Num(-0.0), 3),
        BinOp("/", SelfRef(), X()),
        BinOp("/", X(), SelfRef()),
    ], ids=["parens", "minuses", "odd-powers", "even-powers", "flat-sum",
            "balanced-16384", "exponent-5001-digits", "-0-to-odd-5001-digits",
            "-2-to-odd-5001-digits", "int", "int-past-the-float-range",
            "int-that-rounds", "inf", "-inf", "nan", "-0",
            "f(x)-over-x", "x-over-f(x)"])
    def test_same_outcome_as_the_walk(self, e):
        if isinstance(e, str):
            e = parse_expr(e)
        for x in _SPECIAL:
            outcome = _outcome(eval_expr, e, x)
            assert outcome not in (RecursionError, SyntaxError, MemoryError)
            assert outcome == _outcome(_reference, e, x)

    def test_large_bounds_compile_in_bounded_pieces(self):
        sources = []

        def spy(source, *args):
            sources.append(source)
            return compile(source, *args)

        realline._compiled.cache_clear()
        with mock.patch.object(realline, "compile", spy, create=True):
            eval_expr(parse_expr(_balanced(2 ** 14)), 1.0)
            evaluated = len(sources)
            bound = parse_expr(_balanced(2 ** 14))
            real_domain(bound, bound, window=(1.0, 2.0), grid_n=5)
        # The decision names the lower bound's pieces in the order
        # eval_expr did, so it reuses their code; it compiles only the
        # upper bound's pieces, then its loop.
        assert evaluated > 10 and len(sources) - evaluated == evaluated
        # A chunk holds its two operands' pieces, the node and def/return;
        # the loop holds what is left of each bound at its top level.
        assert max(s.count("\n") for s in sources) <= 2 * realline._CHUNK_LINES + 4

    # Parsed when the test runs, so collection stays cheap.
    @pytest.mark.parametrize("make", [
        lambda: parse_expr(_parens(MAX_NESTING)),
        lambda: parse_expr(_minuses(MAX_NESTING)),
        lambda: _nested_differences(MAX_NESTING),
        lambda: parse_expr(_sum(MAX_NESTING + 1)),
        lambda: parse_expr(_balanced(2 ** 14, "+")),
        lambda: parse_expr(_balanced(2 ** 14, "*")),
        lambda: parse_expr(_balanced(2 ** 14)),
    ], ids=["parens", "minuses", "nested-differences", "flat-sum",
            "balanced-sum-16384", "balanced-product-16384", "balanced-16384"])
    def test_generated_code_stays_short_and_shallow(self, make):
        sources = []

        def spy(source, *args):
            sources.append(source)
            return compile(source, *args)

        e = make()
        realline._compiled.cache_clear()
        with mock.patch.object(realline, "compile", spy, create=True):
            eval_expr(e, 1.0)
            real_domain(e, e, window=(1.0, 2.0), grid_n=5)
        assert len(sources) >= 2
        for source in sources:
            lines = source.splitlines()
            assert len(lines) <= 2 * realline._CHUNK_LINES + 4
            assert max(map(len, lines)) <= _MAX_LINE
            # An inline expression inside a call or a test at most, and
            # far below the parser's 200 levels.
            assert _paren_depth(source) <= min(realline._INLINE_NODES + 3, 50)

    def test_an_int_past_the_float_range_is_an_infinity(self):
        # 3 ** 10**400 as a Python int never finishes; as a double it
        # overflows at once. Run in a child, so a regression cannot hang
        # the suite.
        code = (
            "import math\n"
            "from dfblang.realline import Num, Pow, eval_expr, real_domain\n"
            "power = Pow(Num(3), 10 ** 400)\n"
            "assert eval_expr(power, 0.0) == math.inf\n"
            "report = real_domain(None, power, window=(0.0, 1.0), grid_n=5)\n"
            "assert [(iv.lo, iv.hi) for iv in report.intervals] == [(0.0, 1.0)]\n"
            "assert eval_expr(Num(-10 ** 400), 0.0) == -math.inf\n"
            "assert type(eval_expr(Num(3), 0.0)) is float\n")
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src") + os.pathsep
                   + os.environ.get("PYTHONPATH", ""))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr


def _with_literals(e, change):
    """A fresh copy of e whose every literal v is change(v)."""
    match e:
        case Num(value):
            return Num(change(value))
        case Neg(operand):
            return Neg(_with_literals(operand, change))
        case BinOp(op, left, right):
            return BinOp(op, _with_literals(left, change),
                         _with_literals(right, change))
        case Pow(base, exponent):
            return Pow(_with_literals(base, change), exponent)
    return type(e)()


def _compiling(run):
    """The sources compile() is handed while run() runs."""
    sources = []

    def spy(source, *args):
        sources.append(source)
        return compile(source, *args)

    with mock.patch.object(realline, "compile", spy, create=True):
        run()
    return sources


class TestCodeMemo:
    @staticmethod
    def _decide(e):
        _outcome(eval_expr, e, 0.5)
        return repr(real_domain(e, e, window=(-2.0, 3.0), grid_n=11))

    @settings(max_examples=150, deadline=None)
    @given(_free_exprs)
    def test_bounds_that_differ_in_their_numbers_compile_once(self, e):
        changes = abs, lambda v: v / 3 - 1
        realline._compiled.cache_clear()
        reports = []
        for change, compiles in zip(changes, (True, False)):
            sources = _compiling(
                lambda: reports.append(self._decide(_with_literals(e, change))))
            assert bool(sources) == compiles
        # What the memo answers is what a fresh compile gives.
        for change, report in zip(changes, reports):
            realline._compiled.cache_clear()
            assert self._decide(_with_literals(e, change)) == report

    def test_no_number_enters_the_source(self):
        realline._compiled.cache_clear()
        bound = parse_expr("x - 3.25")
        sources = _compiling(lambda: (eval_expr(bound, 0.0),
                                      real_domain(bound, parse_expr("x + 3.25"),
                                                  window=(0.0, 10.0), grid_n=11)))
        assert len(sources) == 2
        assert not any("3.25" in source for source in sources)

    def test_each_decision_keeps_its_own_numbers(self):
        # One code object, two namespaces: the second decision does not
        # see the first one's literals.
        reports = [real_domain(parse_expr(f"x - {c}"), parse_expr(f"{c} + 1"),
                               window=(0.0, 10.0), grid_n=101)
                   for c in ("2", "5")]
        assert [[(iv.lo, round(iv.hi, 6)) for iv in r.intervals]
                for r in reports] == [[(0.0, 3.0)], [(0.0, 6.0)]]


class TestResolveSelfReference:
    def test_substitutes_the_body(self):
        resolved = resolve_self_reference(parse_expr("f(x)+1"),
                                          parse_expr("x^2"))
        assert resolved == parse_expr("x^2+1")

    def test_bound_without_self_reference_is_unchanged(self):
        bound = parse_expr("3*x")
        assert resolve_self_reference(bound, parse_expr("x^2")) == bound

    def test_self_referential_body_rejected(self):
        with pytest.raises(SelfReferenceInBody):
            resolve_self_reference(parse_expr("f(x)"), parse_expr("f(x)+1"))

    def test_contains_self_walks_all_shapes(self):
        assert contains_self(parse_expr("-(f(x)^2+1)/3"))
        assert not contains_self(parse_expr("-(x^2+1)/3"))

    def test_resolution_soundness(self):
        # Deciding against the resolved bound must equal deciding against
        # the bound written out by hand, sample for sample.
        via_self = real_domain(
            None, resolve_self_reference(parse_expr("f(x)"), parse_expr("x^3")))
        direct = real_domain(None, parse_expr("x^3"))
        assert via_self == direct


def _endpoints(report):
    out = []
    for iv in report.intervals:
        out.append((iv.lo, iv.hi, iv.touches_left_edge, iv.touches_right_edge))
    return out


class TestRealDomain:
    def test_linear_pair_is_the_nonnegatives(self):
        report = real_domain(parse_expr("x/2"), parse_expr("3*x"))
        (lo, hi, left, right), = _endpoints(report)
        assert abs(lo - 0.0) <= TOL
        assert hi == 100.0 and right and not left

    def test_parabola_pair(self):
        report = real_domain(parse_expr("(x-2)^2+1"),
                             parse_expr("-(x-2)^2+3"))
        (lo, hi, left, right), = _endpoints(report)
        # l(x) <= x gives x^2-5x+5 <= 0, x <= u(x) gives x^2-3x+1 <= 0;
        # the intersection runs between one root of each quadratic.
        assert abs(lo - (5 - math.sqrt(5)) / 2) <= TOL * 10
        assert abs(hi - (3 + math.sqrt(5)) / 2) <= TOL * 10
        assert not left and not right

    def test_cubic_pair_has_a_ray_and_an_island(self):
        report = real_domain(parse_expr("(x-5)^3-10*x+65"),
                             parse_expr("-(x-5)^3+10*x-37"))
        first, second = _endpoints(report)
        # l(x) <= x reduces to (x-6)(x^2-9x+10) <= 0, so the binding
        # roots are (9 - sqrt(41))/2, 6, and (9 + sqrt(41))/2.
        assert first[0] == -100.0 and first[2]
        assert abs(first[1] - (9 - math.sqrt(41)) / 2) <= TOL * 10
        assert abs(second[0] - 6.0) <= TOL * 10
        assert abs(second[1] - (9 + math.sqrt(41)) / 2) <= TOL * 10

    def test_self_referential_upper_bound(self):
        upper = resolve_self_reference(parse_expr("f(x)"), parse_expr("x^3"))
        report = real_domain(None, upper)
        first, second = _endpoints(report)
        assert abs(first[0] - -1.0) <= TOL and abs(first[1] - 0.0) <= TOL
        assert abs(second[0] - 1.0) <= TOL
        assert second[1] == 100.0 and second[3]

    def test_constant_bounds(self):
        report = real_domain(parse_expr("1"), parse_expr("3"))
        (lo, hi, left, right), = _endpoints(report)
        assert abs(lo - 1.0) <= TOL and abs(hi - 3.0) <= TOL
        assert not left and not right

    def test_single_bound_suffices(self):
        report = real_domain(parse_expr("2*x"), None, window=(-4.0, 4.0))
        (lo, hi, left, right), = _endpoints(report)
        assert left and abs(hi - 0.0) <= TOL

    def test_empty_domain(self):
        report = real_domain(parse_expr("x+1"), None)
        assert len(report.intervals) == 0

    def test_full_window_domain_touches_both_edges(self):
        report = real_domain(None, parse_expr("x+1"))
        (lo, hi, left, right), = _endpoints(report)
        assert (lo, hi) == (-100.0, 100.0)
        assert left and right

    def test_division_by_zero_excludes_and_records(self):
        report = real_domain(None, parse_expr("1/x"),
                             window=(-1.0, 1.0), grid_n=5)
        assert [s.reason for s in report.skipped] == ["division by zero"]
        assert report.skipped[0].x == 0.0
        assert len(report.intervals) == 2

    def test_nan_bounds_skip_and_record(self):
        report = real_domain(None, parse_expr("10^400-10^400"),
                             window=(0.0, 1.0), grid_n=5)
        assert len(report.intervals) == 0
        assert len(report.skipped) == 5
        assert all("NaN" in s.reason for s in report.skipped)

    def test_infinite_bound_values_just_compare(self):
        # An upper bound of +inf keeps every sample; no skips.
        report = real_domain(None, parse_expr("10^400"),
                             window=(0.0, 1.0), grid_n=5)
        assert report.skipped == ()
        assert _endpoints(report) == [(0.0, 1.0, True, True)]

    def test_bisection_contract(self):
        lower, upper = parse_expr("(x-2)^2+1"), parse_expr("-(x-2)^2+3")
        report = real_domain(lower, upper)

        def pred(x):
            return eval_expr(lower, x) <= x <= eval_expr(upper, x)

        for iv in report.intervals:
            for e, flagged in ((iv.lo, iv.touches_left_edge),
                               (iv.hi, iv.touches_right_edge)):
                if not flagged:
                    assert pred(e - TOL) != pred(e + TOL), \
                        f"endpoint {e} is not bracketed within tolerance"

    def test_doubling_the_grid_moves_no_endpoint(self):
        pairs = [
            ("x/2", "3*x"),
            ("(x-2)^2+1", "-(x-2)^2+3"),
            ("(x-5)^3-10*x+65", "-(x-5)^3+10*x-37"),
            ("1", "3"),
        ]
        for lo_text, hi_text in pairs:
            coarse = real_domain(parse_expr(lo_text), parse_expr(hi_text))
            fine = real_domain(parse_expr(lo_text), parse_expr(hi_text),
                               grid_n=8001)
            assert len(coarse.intervals) == len(fine.intervals)
            for a, b in zip(coarse.intervals, fine.intervals):
                assert abs(a.lo - b.lo) <= TOL
                assert abs(a.hi - b.hi) <= TOL

    def test_only_bisection_evaluates_bounds_one_by_one(self):
        # The grid is decided in one generated pass; eval_expr serves the
        # bisection at each inner end, and a domain without one needs none.
        with mock.patch.object(realline, "eval_expr", wraps=eval_expr) as spy:
            whole = real_domain(parse_expr("x-1"), parse_expr("x+1"))
            assert spy.call_count == 0
            real_domain(parse_expr("1"), parse_expr("x+1"))
        assert _endpoints(whole) == [(-100.0, 100.0, True, True)]
        assert 0 < spy.call_count < 200

    def test_window_must_hold_an_interval(self):
        for window in ((1.0, 1.0), (2.0, 1.0), (-math.inf, 0.0)):
            with pytest.raises(EmptyWindow):
                real_domain(parse_expr("1"), None, window=window)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            real_domain(None, None)
        with pytest.raises(ValueError):
            real_domain(parse_expr("1"), None, grid_n=1)
        with pytest.raises(ValueError):
            real_domain(parse_expr("1"), None, tol=0.0)

    def test_grid_cap(self, monkeypatch):
        with pytest.raises(InvalidValue, match="at most 1000000 samples"):
            real_domain(parse_expr("1"), None, grid_n=realline.MAX_GRID_N + 1)
        monkeypatch.setattr(realline, "MAX_GRID_N", 9)
        report = real_domain(parse_expr("1"), None, window=(0.0, 4.0), grid_n=9)
        assert report.sample_count == 9
        with pytest.raises(InvalidValue):
            real_domain(parse_expr("1"), None, window=(0.0, 4.0), grid_n=10)

    def test_negative_tolerance_is_an_input_error(self):
        with pytest.raises(InvalidValue):
            real_domain(parse_expr("1"), None, tol=-1.0)

    def test_nan_tolerance_is_an_input_error(self):
        # NaN compares false with everything, so `tol <= 0` let it through
        # and bisection never ran.
        with pytest.raises(InvalidValue, match="got nan"):
            real_domain(parse_expr("1"), None, tol=float("nan"))

    def test_unresolved_bounds_rejected(self):
        with pytest.raises(SelfReferenceInBody):
            real_domain(None, parse_expr("f(x)"))

    @pytest.mark.parametrize("kwargs", [
        {"window": (1.0, 1.0)}, {"window": (-1e308, 1e308)}, {"grid_n": 1},
        {"tol": 0.0},
    ], ids=["empty-window", "window-wider-than-floats", "grid-1", "tol-0"])
    def test_an_unresolved_bound_is_refused_before_the_other_errors(self, kwargs):
        with pytest.raises((EmptyWindow, InvalidValue)):
            real_domain(None, X(), **kwargs)
        for lower, upper in ((parse_expr("f(x)"), None),
                             (None, parse_expr("x/f(x)")),
                             (X(), parse_expr("f(x)+1"))):
            with pytest.raises(SelfReferenceInBody):
                real_domain(lower, upper, **kwargs)


def _run_edges_reference(flags):
    """The scan _run_edges replaced: one step per sample, by compress."""
    n = len(flags)
    edges = [*compress(range(1, n), map(ne, flags, islice(flags, 1, None))), n]
    if flags[0]:
        edges.insert(0, 0)
    return edges


def _from_runs(first: int, lengths: list[int]) -> bytearray:
    """Runs of the given lengths, alternating from flag first."""
    flags = bytearray()
    for k, length in enumerate(lengths):
        flags += bytes([(first + k) % 2]) * length
    return flags


class TestRunEdges:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=2, max_size=5000).map(bytearray)
           | st.builds(_from_runs, st.integers(0, 1),
                       st.lists(st.integers(1, 250), min_size=1, max_size=20)
                       ).filter(lambda flags: len(flags) >= 2))
    def test_matches_the_scan(self, flags):
        assert realline._run_edges(flags) == _run_edges_reference(flags)

    @pytest.mark.parametrize("n", [2, 3, 4001, 5000])
    @pytest.mark.parametrize("flags", [
        lambda n: bytearray(n), lambda n: bytearray([1]) * n,
        lambda n: bytearray(i % 2 for i in range(n)),
        lambda n: bytearray((i + 1) % 2 for i in range(n)),
    ], ids=["all-0", "all-1", "alternating-from-0", "alternating-from-1"])
    def test_uniform_and_alternating_runs(self, flags, n):
        flags = flags(n)
        assert realline._run_edges(flags) == _run_edges_reference(flags)


# Windows [lo, lo + k (n - 1) ulp(lo)]: a small k puts the step near the
# float spacing, where rounding can make samples collide; the rest lie on
# either side of it.
_guard_windows = st.tuples(
    st.floats(-1e308, 1e308) | st.floats(-1e-306, 1e-306),
    st.integers(2, 64) | st.integers(2, realline.MAX_GRID_N),
    st.floats(0.5, 300.0) | st.floats(0.5, 1e6))


class TestGridCheck:
    @settings(max_examples=100, deadline=None)
    @given(_guard_windows)
    @example((0.0, 1_000_000, 64.6))  # a subnormal step
    @example((1.0, 4001, 64.5))
    @example((1.0, 4001, 0.5))
    @example((-100.0, 4001, 2 ** 40))
    def test_a_grid_is_refused_exactly_when_a_fresh_build_does_not_increase(
            self, draw):
        lo, n, k = draw
        hi = lo + k * (n - 1) * math.ulp(lo)
        assume(lo < hi < math.inf and math.isfinite(hi - lo))
        # A grid _grid returns is a fresh build (TestGridMemo); a refused
        # one is built again lazily, up to its first pair out of order,
        # with the last pair, where a subnormal step fails, read first.
        try:
            xs = realline._grid((lo, hi), n)
        except InvalidValue as exc:
            assert "too narrow" in str(exc)
            step = (hi - lo) / (n - 1)
            fresh = chain((lo + i * step for i in range(n - 1)), (hi,))
            pairs = chain([(lo + (n - 2) * step, hi)], pairwise(fresh))
            assert not all(a < b for a, b in pairs)
        else:
            assert len(xs) == n and all(map(lt, xs, islice(xs, 1, None)))

    def test_ordinary_grids_pass_and_narrow_ones_are_refused(self):
        realline._grid((-100.0, 100.0), DEFAULT_GRID_N)
        for window in (0.0, 1e-322), (1.0, 1.000000000000001):
            with pytest.raises(InvalidValue, match="too narrow"):
                realline._grid(window, DEFAULT_GRID_N)

    def test_a_subnormal_step_is_refused(self):
        # A subnormal step rounds by up to half its own ulp, which n - 1
        # steps turn into more than a step: the last computed sample
        # passes hi, though the step is over 64 ulps of hi.
        window, n = (0.0, 64599935 * 5e-324), 1_000_000
        step = (window[1] - window[0]) / (n - 1)
        assert step > 64 * math.ulp(window[1])
        assert window[0] + (n - 2) * step > window[1]
        with pytest.raises(InvalidValue, match="too narrow for 1000000 samples"):
            realline._grid(window, n)


def _fresh_grid(lo, hi, n):
    step = (hi - lo) / (n - 1)
    return [*(lo + i * step for i in range(n - 1)), hi]


class TestGridMemo:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([-1.0, -0.0, 0.0]),
                              st.sampled_from([-0.0, 0.0, 2.5]),
                              st.sampled_from([2, 5, 4001])),
                    min_size=1, max_size=6))
    @example([(-1.0, 0.0, 5), (-1.0, -0.0, 5), (-1.0, 0.0, 5)])
    @example([(0.0, 2.5, 5), (-0.0, 2.5, 5)])
    def test_a_kept_grid_is_a_fresh_build(self, windows):
        for lo, hi, n in windows:
            assume(lo < hi)
            fresh = list(map(float.hex, _fresh_grid(lo, hi, n)))
            for _ in range(2):  # built or kept, then surely kept
                xs = realline._grid((lo, hi), n)
                assert type(xs) is tuple
                assert list(map(float.hex, xs)) == fresh

    def test_a_bound_tells_the_kept_zeros_apart(self):
        upper = parse_expr("1/x")
        for hi, sign in ((0.0, 1.0), (-0.0, -1.0), (0.0, 1.0)):
            report = real_domain(None, upper, window=(-1.0, hi), grid_n=5)
            assert math.copysign(1.0, report.skipped[-1].x) == sign

    def test_a_window_may_be_a_list(self, tmp_path):
        lower, upper = parse_expr("x^2 - 3"), parse_expr("x + 2")
        as_tuple = real_domain(lower, upper, window=(-4.0, 4.0), grid_n=9)
        as_list = real_domain(lower, upper, window=[-4.0, 4.0], grid_n=9)
        assert as_list.intervals == as_tuple.intervals
        assert as_list.skipped == as_tuple.skipped
        paths = tmp_path / "tuple.csv", tmp_path / "list.csv"
        for path, report in zip(paths, (as_tuple, as_list)):
            emit_plot_csv(str(path), report, None, lower, upper)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("window", [(0.0, 1e-322), (1.0, 1.000000000000001)])
    def test_a_narrow_window_is_refused_and_never_kept(self, window):
        kept = realline._grid((-4.0, 4.0), DEFAULT_GRID_N)
        for _ in range(2):
            with pytest.raises(InvalidValue, match="too narrow"):
                realline._grid(window, DEFAULT_GRID_N)
            with pytest.raises(InvalidValue, match="too narrow"):
                real_domain(parse_expr("1"), None, window=window)
        assert realline._grid((-4.0, 4.0), DEFAULT_GRID_N) is kept


class TestIntervalTypes:
    def test_interval_orders_its_ends(self):
        with pytest.raises(AssertionError):
            Interval(2.0, 1.0)

    def test_interval_set_must_increase(self):
        with pytest.raises(AssertionError):
            IntervalSet((Interval(0.0, 2.0), Interval(1.0, 3.0)))

    def test_membership(self):
        s = IntervalSet((Interval(0.0, 1.0), Interval(2.0, 3.0)))
        assert 0.5 in s and 2.0 in s
        assert 1.5 not in s


class TestPlotCsv:
    @pytest.fixture
    def small_report(self):
        return real_domain(parse_expr("1"), parse_expr("3"),
                           window=(0.0, 4.0), grid_n=9)

    def test_shape_and_flags(self, tmp_path, small_report):
        path = tmp_path / "plot.csv"
        emit_plot_csv(str(path), small_report, body=parse_expr("x^3"),
                      lower=parse_expr("1"), upper=parse_expr("3"))
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "x,f,l,u,id,valid"
        assert len(lines) == 1 + small_report.sample_count
        for line in lines[1:]:
            x, f, l, u, ident, valid = line.split(",")
            assert valid in ("0", "1")
            assert ident == x
            assert (f == "") == (valid == "0")
            assert float(l) == 1.0 and float(u) == 3.0

    def test_missing_body_leaves_f_empty(self, tmp_path, small_report):
        path = tmp_path / "plot.csv"
        emit_plot_csv(str(path), small_report)
        lines = path.read_text().splitlines()
        assert all(line.split(",")[1] == "" for line in lines[1:])

    def test_cubic_fixture_is_pinned(self, tmp_path):
        # sha256 of this file as written by the recursive-walk evaluator.
        lower = parse_expr("(x-5)^3-10*x+65")
        upper = parse_expr("-(x-5)^3+10*x-37")
        path = tmp_path / "cubic.csv"
        emit_plot_csv(str(path), real_domain(lower, upper), None, lower, upper)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "7155fcf0099926c497e3ed96277343862fd5b02455bfad7838fc8352ca48028f")

    def test_byte_identical_across_runs(self, tmp_path, small_report):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            emit_plot_csv(str(path), small_report, body=parse_expr("x^3"),
                          lower=parse_expr("1"), upper=parse_expr("3"))
        assert a.read_bytes() == b.read_bytes()
