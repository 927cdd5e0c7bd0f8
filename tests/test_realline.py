"""Expression parsing, evaluation, and numeric domain decisions."""

from __future__ import annotations

import hashlib
import math
import pickle
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dfblang import realline
from dfblang.errors import InvalidValue, ParseError
from dfblang.realline import (
    BinOp,
    DivisionByZero,
    EmptyWindow,
    Interval,
    IntervalSet,
    Neg,
    Num,
    Pow,
    SelfRef,
    SelfReferenceInBody,
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

    def test_denominator_is_evaluated_first(self):
        with pytest.raises(DivisionByZero):
            eval_expr(BinOp("/", SelfRef(), Num(-0.0)), 1.0)

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


def _walk(e, x):
    """Reference: a recursive walk over the tree, one node per call."""
    match e:
        case Num(value):
            return value
        case X():
            return x
        case SelfRef():
            raise SelfReferenceInBody("unresolved f(x)")
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
                b = _walk(base, x)
                sign = -1.0 if b < 0 and exponent % 2 else 1.0
                return sign * math.inf
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


class TestCompiledMatchesTheWalk:
    @settings(max_examples=400, deadline=None)
    @given(_exprs, _xs)
    @example(BinOp("/", SelfRef(), X()), 0.0)
    @example(BinOp("+", _ZERO_OVER_ZERO, SelfRef()), 1.0)
    @example(Pow(BinOp("*", X(), Num(-1e300)), 3), 1e10)
    def test_same_value_or_same_exception(self, e, x):
        assert _outcome(eval_expr, e, x) == _outcome(_walk, e, x)

    def test_the_awkward_cases_occur(self):
        x = 0.0
        cases = {
            "x/0": BinOp("/", X(), Num(0.0)),
            "inf-inf": BinOp("-", Pow(Num(10.0), 400), Pow(Num(10.0), 400)),
            "(-10)^401": Pow(Num(-10.0), 401),
            "-0": Neg(X()),
        }
        outcomes = {k: _outcome(eval_expr, e, x) for k, e in cases.items()}
        assert outcomes == {k: _outcome(_walk, e, x) for k, e in cases.items()}
        assert outcomes == {"x/0": DivisionByZero, "inf-inf": "nan",
                            "(-10)^401": "-inf", "-0": "-0.0"}

    @settings(max_examples=60, deadline=None)
    @given(st.none() | _free_exprs, _free_exprs,
           st.floats(-50, 50), st.floats(0.5, 50), st.integers(2, 60))
    def test_real_domain_matches_the_walk(self, lower, upper, a, width, n):
        window = (a, a + width)
        compiled = real_domain(lower, upper, window=window, grid_n=n)
        with mock.patch.object(realline, "eval_expr", _walk):
            walked = real_domain(lower, upper, window=window, grid_n=n)
        assert repr(compiled) == repr(walked)


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
