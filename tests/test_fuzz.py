"""Fuzzing the command line: every input meets the exit-code contract.

``cli.main`` runs in-process on grammar-built programs and queries (some
mutated into lexical and syntax errors), poset JSON files (some broken,
nested past the JSON parser's recursion limit, or not UTF-8) and
real-line expressions with odd flag values. Whatever the input, the
exit code is 0, 1 or 2, no traceback is printed, and each run finishes
within ``TIME_BOUND_S``. The explicit examples are the shapes of inputs
that used to end in exit 3.
"""

from __future__ import annotations

import contextlib
import io
import json
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dfblang.cli import main

TIME_BOUND_S = 20.0
FUZZ_SETTINGS = settings(max_examples=60, deadline=None)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_main(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing the arguments
            code = exc.code
    elapsed = time.perf_counter() - start
    assert code in (0, 1, 2), (argv, code, err.getvalue()[-2000:])
    assert "Traceback" not in err.getvalue(), err.getvalue()[-2000:]
    assert elapsed < TIME_BOUND_S, (argv, elapsed)
    return code, out.getvalue(), err.getvalue()


def write(workdir, name: str, data: str | bytes) -> str:
    path = workdir / name
    if isinstance(data, str):
        data = data.encode("utf-8")
    path.write_bytes(data)
    return str(path)


def nested(head: str, depth: int, leaf: str) -> str:
    return f"{head}<" * depth + leaf + ">" * depth


# ---------------------------------------------------------------------------
# Programs and queries over a small universe of classes of fixed arity.

ARITY = {"A": 0, "B": 0, "Box": 1, "Enum": 1, "Pair": 2}
HEADS = tuple(ARITY) + ("Null", "Object", "Zorp")
JUNK = ("\t", "\r", "\f", "\n", "é", "_", "9", "//", "/", "$", "<", ">", ",",
        "{", "}", "class", "extends", "super", "T")


@st.composite
def types(draw, scope=(), depth=3):
    head = draw(st.sampled_from(HEADS + tuple(scope)))
    arity = ARITY.get(head, 0)
    if depth == 0 or arity == 0:
        return head
    args = [draw(types(scope, depth - 1)) for _ in range(arity)]
    return f"{head}<{', '.join(args)}>"


@st.composite
def decls(draw, name):
    scope = ("T", "U")[:ARITY[name]]
    params = []
    for p in scope:
        form = draw(st.integers(0, 3))
        if form == 1:
            p += f" extends {draw(types(scope, 2))}"
        elif form == 2:
            p += f" super {draw(types(scope, 2))}"
        elif form == 3:
            p = f"{draw(types(scope, 2))} extends {p} extends {draw(types(scope, 2))}"
        params.append(p)
    text = f"class {name}"
    if params:
        text += "<" + ", ".join(params) + ">"
    if draw(st.booleans()):
        text += f" extends {draw(types(scope, 2))}"
    return text + " {}"


@st.composite
def mutated(draw, text):
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from(JUNK)) + text[i + draw(st.integers(0, 2)):]
    return text


@st.composite
def programs(draw):
    names = draw(st.lists(st.sampled_from(tuple(ARITY)), unique=True, max_size=5))
    text = "\n".join([draw(decls(n)) for n in names])
    return draw(mutated(text)) if draw(st.booleans()) else text


@st.composite
def check_argvs(draw):
    argv = [draw(st.sampled_from(("check", "graph")))]
    if argv[0] == "check":
        if draw(st.booleans()):
            query = draw(types())
            argv.append(draw(mutated(query)) if draw(st.booleans()) else query)
        if draw(st.booleans()):
            argv.append("--json")
    else:
        argv += ["--depth", str(draw(st.integers(-1, 2)))]
    return argv


DEEP_SELF_BOUND = f"class A<T extends {nested('A', 199, 'T')}> {{}}\n"
DEEP_CHAIN = "class K1<T> {}\n" + "".join(
    f"class K{k}<T> extends {nested(f'K{k - 1}', 199, 'T')} {{}}\n" for k in range(2, 5))


@FUZZ_SETTINGS
@given(programs().map(str.encode), check_argvs())
@example("class Café {}\n".encode("latin-1"), ["check"])
@example(b"class A {}\n\xff\xfe", ["graph", "--depth", "1"])
@example(DEEP_SELF_BOUND.encode(), ["check", nested("A", 199, "Object")])
@example(DEEP_SELF_BOUND.encode(), ["check", nested("A", 170, "Object"), "--json"])
@example(DEEP_CHAIN.encode(), ["graph", "--depth", "1"])
@example(b"class A {}", ["check", nested("Box", 3000, "A")])
def test_check_and_graph_meet_the_contract(workdir, source, argv):
    path = write(workdir, "program.dfb", source)
    run_main([argv[0], path, *argv[1:]])


# ---------------------------------------------------------------------------
# Poset files.

LABELS = ("a", "b", "c", "d", "e")


@st.composite
def poset_files(draw):
    elements = draw(st.lists(st.sampled_from(LABELS), max_size=5))
    covers = draw(st.lists(st.lists(st.sampled_from(LABELS + ("z",)),
                                    min_size=1, max_size=3), max_size=6))
    maps = {name: draw(st.dictionaries(st.sampled_from(LABELS + ("z",)),
                                       st.sampled_from(LABELS + ("z",)), max_size=6))
            for name in ("m", "n")}
    data = {"elements": elements, "covers": covers, "maps": maps}
    if draw(st.booleans()):
        data[draw(st.sampled_from(("elements", "covers", "maps", "extra")))] = draw(
            st.sampled_from((None, 3, "x", [], {}, [[1, 2]])))
    text = json.dumps(data)
    if draw(st.integers(0, 5)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text.encode()


MAP_NAMES = ("m", "n", "q", "")

poset_argvs = st.one_of(
    st.tuples(st.just("domain"), st.sampled_from(MAP_NAMES),
              st.sampled_from(MAP_NAMES), st.booleans()).map(
        lambda t: ["domain", "--lower", t[1], "--upper", t[2]] + ["--strict"] * t[3]),
    st.sampled_from(MAP_NAMES).map(lambda m: ["theorem", "--map", m]),
    st.tuples(st.integers(-2, 20), st.integers(-1, 100), st.integers(0, 99)).map(
        lambda t: ["theorem", "--random", str(t[0]), "--max-size", str(t[1]),
                   "--seed", str(t[2])]),
)


@FUZZ_SETTINGS
@given(poset_files(), poset_argvs)
@example('{"elements": ["é"], "maps": {}}'.encode("latin-1"), ["domain", "--upper", "m"])
@example('{"elements": ["é"], "maps": {}}'.encode("latin-1"), ["theorem", "--map", "m"])
@example(b"[" * 100_000 + b"]" * 100_000, ["domain", "--upper", "m"])
@example(b'{"elements": ["a", "b", "a"], "covers": [], "maps": {}}', ["domain", "--upper", "m"])
def test_poset_commands_meet_the_contract(workdir, data, argv):
    path = write(workdir, "poset.json", data)
    if argv[0] == "theorem" and argv[1] == "--random":
        run_main(["poset", *argv])
    else:
        run_main(["poset", argv[0], path, *argv[1:]])


# ---------------------------------------------------------------------------
# Real-line expressions and flags.

ATOMS = ("x", "1", "0", "2.5", ".5", "3.", "f(x)", "y", "1e3")
# Past the float range, and past the digits int() converts.
EXPONENTS = ("0", "2", "3", "-1", "400", "1" + "0" * 400, "9" * 5000)


@st.composite
def expressions(draw, depth=3):
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        return draw(st.sampled_from(ATOMS))
    form = draw(st.integers(0, 3))
    if form == 0:
        return f"-{draw(expressions(depth - 1))}"
    if form == 1:
        return f"({draw(expressions(depth - 1))})"
    if form == 2:
        return f"{draw(expressions(depth - 1))}^{draw(st.sampled_from(EXPONENTS))}"
    op = draw(st.sampled_from("+-*/"))
    return f"{draw(expressions(depth - 1))} {op} {draw(expressions(depth - 1))}"


@st.composite
def real_argvs(draw):
    argv = ["real"]
    for flag in ("--lower", "--upper", "--body"):
        if draw(st.booleans()):
            text = draw(expressions())
            if draw(st.integers(0, 3)) == 0:
                text = draw(mutated(text))
            argv.append(f"{flag}={text}")
    if draw(st.booleans()):
        argv += ["--tol", draw(st.sampled_from(("nan", "inf", "0", "-1", "1e-20", "0.5")))]
    if draw(st.booleans()):
        argv += ["--grid", str(draw(st.sampled_from((-1, 0, 1, 2, 3, 101))))]
    if draw(st.booleans()):
        lo, hi = draw(st.sampled_from(((-1, 1), (1, -1), (0, 0), (-1e308, 1e308),
                                       (0, 1e-320))))
        argv += ["--window", str(lo), str(hi)]
    return argv


@FUZZ_SETTINGS
@given(real_argvs())
@example(["real", "--upper", "x", "--tol", "nan"])
@example(["real", "--lower", "1", "--upper", "3", "--tol", "1e-20"])
@example(["real", "--upper=" + "(" * 201 + "x" + ")" * 201])
@example(["real", "--upper=" + "-" * 3000 + "x"])
@example(["real", "--upper=x^" + "9" * 5000])
@example(["real", "--upper=1", "--body=f(x)", "--window", "0", "4", "--grid", "5"])
def test_real_meets_the_contract(argv):
    run_main(argv)
