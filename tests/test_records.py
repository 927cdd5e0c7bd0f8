"""The package's value classes against ``@dataclass`` reference definitions.

Each value class used to be a dataclass; the references below rebuild
those definitions (same names, fields, defaults, comparison flags and
``__post_init__`` checks), and every test asks the plain classes to
behave the same way: equality, hashing, ``repr``, refused assignment,
``match`` class patterns and construction-time checks. Pickling and a
cold import without ``dataclasses`` are checked on the plain classes.
"""

from __future__ import annotations

import math
import os
import pickle
import subprocess
import sys
from dataclasses import field, make_dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REPO_ROOT
from dfblang import classtable, errors, poset, realline, subtyping, syntax, validity

NEW = {}
for module, names in (
        (syntax, ("Var", "App", "TypeParamDecl", "ClassDecl", "Program")),
        (errors, ("ParseError",)),
        (classtable, ("Diagnostic", "ClassInfo", "ClassTable")),
        (subtyping, ("GroundGraph",)),
        (validity, ("QueryRecord", "Verdict")),
        (poset, ("DomainSpec", "DomainResult")),
        (realline, ("Num", "X", "SelfRef", "Neg", "BinOp", "Pow", "Interval",
                    "IntervalSet", "SkippedSample", "DomainReport"))):
    for name in names:
        NEW[name] = getattr(module, name)


def _check_identifier(name):
    syntax._check_identifier(name)


def _post(check):
    return {"__post_init__": check}


def _tupled(*names):
    def post_init(self):
        for n in names:
            object.__setattr__(self, n, tuple(getattr(self, n)))
    return post_init


def _app_post(self):
    _check_identifier(self.name)
    object.__setattr__(self, "args", tuple(self.args))


def _decl_post(self):
    _check_identifier(self.name)
    object.__setattr__(self, "params", tuple(self.params))
    names = [p.name for p in self.params]
    if len(names) != len(set(names)):
        raise ValueError(f"duplicate type parameter names in class {self.name}")


def _verdict_post(self):
    if self.status is validity.Status.INVALID:
        assert self.reasons, "an invalid verdict must carry reasons"
    else:
        assert not self.reasons, "only invalid verdicts carry reasons"


def _spec_post(self):
    if self.lower is None and self.upper is None:
        raise ValueError("at least one bound is required")
    if self.strict_lower and self.lower is None:
        raise ValueError("strict_lower without a lower bound")
    if self.strict_upper and self.upper is None:
        raise ValueError("strict_upper without an upper bound")


def _pow_post(self):
    if self.exponent < 0:
        raise ValueError("exponents must be nonnegative integers")


def _interval_post(self):
    assert self.lo <= self.hi, "interval ends out of order"


def _interval_set_post(self):
    for a, b in zip(self.intervals, self.intervals[1:]):
        assert a.hi < b.lo, "intervals must be disjoint and increasing"


def _frozen(name, fields, namespace=None):
    return make_dataclass(name, fields, frozen=True, namespace=namespace)


REF = {
    "Var": _frozen("Var", ["name"], _post(lambda self: _check_identifier(self.name))),
    "App": _frozen("App", ["name", ("args", tuple, field(default=()))],
                   _post(_app_post)),
    "TypeParamDecl": _frozen(
        "TypeParamDecl", ["name", ("lower", object, field(default=None)),
                          ("upper", object, field(default=None))],
        _post(lambda self: _check_identifier(self.name))),
    "ClassDecl": _frozen(
        "ClassDecl", ["name", ("params", tuple, field(default=())),
                      ("extends_clause", object, field(default=None)),
                      ("pos", object, field(default=None, compare=False))],
        _post(_decl_post)),
    "Program": _frozen("Program", [("decls", tuple, field(default=()))],
                       _post(_tupled("decls"))),
    "ParseError": make_dataclass(
        "ParseError", ["message", "line", "column",
                       ("expected", frozenset, field(default_factory=frozenset))],
        bases=(errors.DfbError,)),
    "Diagnostic": _frozen("Diagnostic", ["severity", "class_name", "message"]),
    "ClassInfo": _frozen("ClassInfo", ["name", "param_names", "lowers", "uppers",
                                       "extends_clause"]),
    "ClassTable": _frozen("ClassTable", ["infos", ("warnings", tuple, field(default=()))]),
    "GroundGraph": _frozen("GroundGraph", ["nodes", "edges"]),
    "QueryRecord": _frozen("QueryRecord", ["left", "right", "subject", "origin"]),
    "Verdict": _frozen("Verdict", ["status", ("reasons", tuple, field(default=())),
                                   ("query_log", tuple, field(default=()))],
                       _post(_verdict_post)),
    "DomainSpec": _frozen(
        "DomainSpec", [("lower", object, field(default=None)),
                       ("upper", object, field(default=None)),
                       ("strict_lower", bool, field(default=False)),
                       ("strict_upper", bool, field(default=False))],
        _post(_spec_post)),
    "DomainResult": _frozen("DomainResult", ["members"]),
    "Num": _frozen("Num", ["value"]),
    "X": _frozen("X", []),
    "SelfRef": _frozen("SelfRef", []),
    "Neg": _frozen("Neg", ["operand"]),
    "BinOp": _frozen("BinOp", ["op", "left", "right"]),
    "Pow": _frozen("Pow", ["base", "exponent"], _post(_pow_post)),
    "Interval": _frozen(
        "Interval", ["lo", "hi", ("touches_left_edge", bool, field(default=False)),
                     ("touches_right_edge", bool, field(default=False))],
        _post(_interval_post)),
    "IntervalSet": _frozen("IntervalSet", [("intervals", tuple, field(default=()))],
                           _post(_interval_set_post)),
    "SkippedSample": _frozen("SkippedSample", ["x", "reason"]),
    "DomainReport": _frozen(
        "DomainReport", ["intervals", "window", "tolerance", "sample_count",
                         ("skipped", tuple, field(default=()))]),
}


class S:
    """A value to build twice: once from the plain classes, once from the references."""

    def __init__(self, cls, *args, **kwargs):
        self.cls, self.args, self.kwargs = cls, args, kwargs


def build(spec, classes):
    if isinstance(spec, S):
        args = [build(a, classes) for a in spec.args]
        kwargs = {k: build(v, classes) for k, v in spec.kwargs.items()}
        return classes[spec.cls](*args, **kwargs)
    if isinstance(spec, tuple):
        return tuple(build(a, classes) for a in spec)
    if isinstance(spec, list):
        return [build(a, classes) for a in spec]
    if isinstance(spec, frozenset):
        return frozenset(build(a, classes) for a in spec)
    if isinstance(spec, dict):
        return {k: build(v, classes) for k, v in spec.items()}
    return spec


CHAIN = poset.make_poset(["a", "b"], [("a", "b")])
SUCC = poset.EndoMap(CHAIN, {"a": "b", "b": "b"})
NAN = math.nan
T = S("Var", "T")
C_T = S("App", "C", (T,))
C_NULL = S("App", "C", (S("App", "Null"),))
IV = S("Interval", 0.0, 1.0)

# Per class, values that differ in every field, and some that agree.
SAMPLES = {
    "Var": [S("Var", "T"), S("Var", "T"), S("Var", "U")],
    "App": [S("App", "Null"), S("App", "Null", ()), S("App", "C", [T]), C_T,
            C_NULL, S("App", "D", (T,)), S("App", "C", (C_T, S("Var", "U")))],
    "TypeParamDecl": [S("TypeParamDecl", "T"), S("TypeParamDecl", "T", None, C_T),
                      S("TypeParamDecl", "T", lower=C_T), S("TypeParamDecl", "U")],
    "ClassDecl": [S("ClassDecl", "C"), S("ClassDecl", "C", pos=(1, 1)),
                  S("ClassDecl", "C", pos=(7, 3)),
                  S("ClassDecl", "C", [S("TypeParamDecl", "T")], C_T, (2, 5)),
                  S("ClassDecl", "D")],
    "Program": [S("Program"), S("Program", [S("ClassDecl", "C")]),
                S("Program", (S("ClassDecl", "C", pos=(4, 4)),))],
    "ParseError": [S("ParseError", "unexpected 'x'", 1, 2),
                   S("ParseError", "unexpected 'x'", 1, 2, frozenset({">"})),
                   S("ParseError", "unexpected 'x'", 1, 2, frozenset())],
    "Diagnostic": [S("Diagnostic", "warning", "C", "m"),
                   S("Diagnostic", "warning", "D", "m")],
    "ClassInfo": [S("ClassInfo", "C", ("T",), (S("App", "Null"),), (C_T,), C_NULL),
                  S("ClassInfo", "Object", (), (), (), None)],
    "ClassTable": [S("ClassTable", {"C": 1}), S("ClassTable", {"C": 1}, ()),
                   S("ClassTable", {}, (S("Diagnostic", "warning", "C", "m"),))],
    "GroundGraph": [S("GroundGraph", frozenset({C_NULL}), frozenset()),
                    S("GroundGraph", frozenset(), frozenset())],
    "QueryRecord": [S("QueryRecord", C_NULL, C_NULL, C_NULL, "ordinary"),
                    S("QueryRecord", C_NULL, C_NULL, C_NULL, "bound")],
    "Verdict": [S("Verdict", validity.Status.VALID),
                S("Verdict", validity.Status.INVALID, ("r",)),
                S("Verdict", validity.Status.VALID, (),
                  (S("QueryRecord", C_NULL, C_NULL, C_NULL, "ordinary"),))],
    "DomainSpec": [S("DomainSpec", SUCC), S("DomainSpec", upper=SUCC, strict_upper=True),
                   S("DomainSpec", SUCC, SUCC, True, True)],
    "DomainResult": [S("DomainResult", frozenset({"a"})), S("DomainResult", frozenset())],
    "Num": [S("Num", 1.0), S("Num", 1), S("Num", -0.0), S("Num", NAN), S("Num", 2.5)],
    "X": [S("X"), S("X")],
    "SelfRef": [S("SelfRef")],
    "Neg": [S("Neg", S("X")), S("Neg", S("Num", 1.0))],
    "BinOp": [S("BinOp", "+", S("X"), S("Num", 1.0)),
              S("BinOp", "/", S("X"), S("Neg", S("SelfRef")))],
    "Pow": [S("Pow", S("X"), 2), S("Pow", S("X"), 0)],
    "Interval": [IV, S("Interval", 0.0, 1.0, True), S("Interval", -1.0, -1.0, False, True)],
    "IntervalSet": [S("IntervalSet"), S("IntervalSet", (IV, S("Interval", 2.0, 3.0)))],
    "SkippedSample": [S("SkippedSample", 0.0, "division by zero"),
                      S("SkippedSample", NAN, "overflow")],
    "DomainReport": [S("DomainReport", S("IntervalSet", (IV,)), (-1.0, 1.0), 1e-9, 11),
                     S("DomainReport", S("IntervalSet"), (-1.0, 1.0), 1e-9, 11,
                       (S("SkippedSample", 0.0, "division by zero"),))],
}

# Inputs each class refuses at construction, with the reference's error.
REFUSED = [
    S("Var", "9lives"), S("Var", "_T"), S("App", ""), S("App", "C d"),
    S("TypeParamDecl", "T-1"),
    S("ClassDecl", "C", (S("TypeParamDecl", "T"), S("TypeParamDecl", "T"))),
    S("ClassDecl", "é"),
    S("Verdict", validity.Status.INVALID), S("Verdict", validity.Status.VALID, ("r",)),
    S("DomainSpec"), S("DomainSpec", strict_lower=True, upper=SUCC),
    S("DomainSpec", SUCC, strict_upper=True), S("Pow", S("X"), -1),
    S("Interval", 1.0, 0.0), S("IntervalSet", (IV, IV)),
]


def test_every_value_class_is_covered():
    assert set(SAMPLES) == set(NEW) == set(REF)
    assert len(NEW) == 24


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_behaves_as_the_dataclass(name):
    specs = SAMPLES[name]
    new = [build(s, NEW) for s in specs]
    ref = [build(s, REF) for s in specs]
    assert NEW[name].__match_args__ == REF[name].__match_args__
    for a, b in zip(new, ref):
        assert type(a) is NEW[name]
        assert repr(a) == repr(b)
        assert _hash_or_error(a) == _hash_or_error(b)
    for i in range(len(specs)):
        for j in range(len(specs)):
            assert (new[i] == new[j]) == (ref[i] == ref[j]), (i, j)
            assert (new[i] != new[j]) == (ref[i] != ref[j]), (i, j)
    assert (new[0] == ref[0]) is False  # a reference is another class


@pytest.mark.parametrize("name", sorted(set(SAMPLES) - {"ParseError"}))
def test_assignment_is_refused(name):
    new = build(SAMPLES[name][-1], NEW)
    ref = build(SAMPLES[name][-1], REF)
    for value in (new, ref):
        for attr in (*type(value).__match_args__, "other"):
            with pytest.raises(AttributeError):
                setattr(value, attr, 0)
        for attr in type(value).__match_args__:
            with pytest.raises(AttributeError):
                delattr(value, attr)
    assert repr(new) == repr(ref)


def test_parse_errors_stay_mutable_and_unhashable():
    error = NEW["ParseError"]("m", 1, 2)
    error.line = 3
    assert error == NEW["ParseError"]("m", 3, 2)
    assert NEW["ParseError"].__hash__ is None is REF["ParseError"].__hash__
    assert str(error) == "3:2: m"
    assert error.args == ("m", 1, 2)


@pytest.mark.parametrize("spec", REFUSED, ids=lambda s: s.cls)
def test_construction_checks_match(spec):
    with pytest.raises(Exception) as ref:
        build(spec, REF)
    with pytest.raises(type(ref.value)) as new:
        build(spec, NEW)
    # pytest appends its own explanation to the references' assert messages.
    assert str(new.value) == str(ref.value).splitlines()[0]


def _positional(value, cls, n):
    match n:
        case 0:
            match value:
                case cls():
                    return ()
        case 1:
            match value:
                case cls(a):
                    return (a,)
        case 2:
            match value:
                case cls(a, b):
                    return (a, b)
        case 3:
            match value:
                case cls(a, b, c):
                    return (a, b, c)
        case 4:
            match value:
                case cls(a, b, c, d):
                    return (a, b, c, d)
        case 5:
            match value:
                case cls(a, b, c, d, e):
                    return (a, b, c, d, e)
    return None


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_class_patterns_bind_the_fields(name):
    for spec in SAMPLES[name]:
        new, ref = build(spec, NEW), build(spec, REF)
        n = len(REF[name].__match_args__)
        got = _positional(new, NEW[name], n)
        want = _positional(ref, REF[name], n)
        assert repr(got) == repr(want)


def test_realline_patterns_dispatch_on_the_operator():
    e = realline.parse_expr("(x + 1) / x")
    match e:
        case realline.BinOp("/", realline.BinOp(_, left, right), realline.X()):
            assert (left, right) == (realline.X(), realline.Num(1.0))
        case _:
            pytest.fail("no match")


@pytest.mark.parametrize("name", sorted(set(SAMPLES) - {"ParseError"}))
def test_pickling_round_trips(name):
    for spec in SAMPLES[name]:
        value = build(spec, NEW)
        back = pickle.loads(pickle.dumps(value))
        assert type(back) is type(value)
        assert repr(back) == repr(value)
        if "nan" not in repr(value):  # a copied NaN is another float
            assert back == value


def test_parse_errors_pickle():
    error = NEW["ParseError"]("m", 1, 2, frozenset({">"}))
    assert pickle.loads(pickle.dumps(error)) == error


def test_evaluated_expressions_still_pickle():
    e = realline.parse_expr("x^2 - 1 / (x + 3)")
    assert realline.eval_expr(e, 2.0) == pytest.approx(3.8)
    back = pickle.loads(pickle.dumps(e))
    assert back == e and hash(back) == hash(e)
    assert realline.eval_expr(back, 2.0) == realline.eval_expr(e, 2.0)


def _trees():
    leaves = st.one_of(st.sampled_from(("T", "U")).map(lambda n: ("Var", n)),
                       st.sampled_from(("C", "Null")).map(lambda n: ("App", n, ())))
    return st.recursive(
        leaves,
        lambda inner: st.tuples(st.just("App"), st.sampled_from(("C", "D")),
                                st.lists(inner, min_size=1, max_size=3).map(tuple)),
        max_leaves=8)


def _grow(tree, classes):
    if tree[0] == "Var":
        return classes["Var"](tree[1])
    return classes["App"](tree[1], tuple(_grow(a, classes) for a in tree[2]))


@settings(max_examples=150, deadline=None)
@given(_trees(), _trees())
def test_type_trees_compare_and_hash_as_dataclasses(a, b):
    na, nb = _grow(a, NEW), _grow(b, NEW)
    ra, rb = _grow(a, REF), _grow(b, REF)
    assert (na == nb) == (ra == rb)
    assert hash(na) == hash(ra) and hash(nb) == hash(rb)
    assert repr(na) == repr(ra)
    assert syntax.render(na) == str(na)


def test_deep_types_hash_without_recursing():
    t = syntax.App("Null")
    for _ in range(50_000):
        t = syntax.App("C", (t,))
    assert hash(t) == hash(syntax.App("C", (t.args[0],)))
    assert syntax.render(t) == "C<" * 50_000 + "Null" + ">" * 50_000


def test_cold_import_skips_dataclasses_inspect_and_traceback():
    code = ("import sys; before = set(sys.modules); import dfblang.cli; "
            "print(sorted({'dataclasses', 'inspect', 'traceback'} "
            "& (set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
