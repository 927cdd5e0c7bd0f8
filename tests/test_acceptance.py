"""End-to-end acceptance checks.

One test per criterion; each prints a single ``acceptance N (...): PASS``
or ``FAIL`` line (visible with ``pytest -s``). Tolerances and budgets
are pinned in the constants below.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager

from conftest import run_cli_process
from dfblang.classtable import superclass_of
from dfblang.poset import (
    DomainSpec,
    dfbf_domain,
    fixed_point_domain,
    random_endomap,
    random_poset,
    theorem_check,
    validity_step,
)
from dfblang.realline import parse_expr, real_domain, resolve_self_reference
from dfblang.subtyping import enumerate_ground, is_subtype
from dfblang.syntax import App, NULL, OBJECT, render
from dfblang.validity import Status, is_valid_argument

ENDPOINT_TOL = 1e-6
CUBIC_TOL = 0.05


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"acceptance {number} ({title}): FAIL")
        raise
    print(f"acceptance {number} ({title}): PASS")


def test_criterion_1_walkthrough(run_cli, enum_file):
    with criterion(1, "self-bounded enumeration walkthrough"):
        start = time.perf_counter()

        code, out, _ = run_cli("check", enum_file, "Enum<Object>", "--json")
        invalid = json.loads(out)
        assert code == 1
        assert invalid["status"] == "invalid"
        assert any("Object is not a subtype of Enum<Object>" in r
                   for r in invalid["reasons"])

        code, out, _ = run_cli("check", enum_file, "Enum<Color>", "--json")
        valid = json.loads(out)
        assert code == 0
        assert valid["status"] == "valid"

        # The bound instantiation Enum<Color> shows up inside subtype
        # queries but is never itself re-judged: two queries total, all
        # issued from ordinary context, with only the queried type and
        # its subterm as subjects.
        for payload in (invalid, valid):
            assert len(payload["query_log"]) == 2
            assert all(q["origin"] == "ordinary" for q in payload["query_log"])
        assert {q["subject"] for q in valid["query_log"]} == {"Enum<Color>"}

        assert time.perf_counter() - start < 1.0


def test_criterion_2_real_line_endpoints():
    with criterion(2, "real line worked examples"):
        start = time.perf_counter()

        report = real_domain(parse_expr("x/2"), parse_expr("3*x"))
        (only,) = report.intervals
        assert abs(only.lo - 0.0) <= ENDPOINT_TOL
        assert only.touches_right_edge

        report = real_domain(parse_expr("(x-2)^2+1"), parse_expr("-(x-2)^2+3"))
        (only,) = report.intervals
        assert abs(only.lo - (5 - math.sqrt(5)) / 2) <= ENDPOINT_TOL
        assert abs(only.hi - (3 + math.sqrt(5)) / 2) <= ENDPOINT_TOL

        upper = resolve_self_reference(parse_expr("f(x)"), parse_expr("x^3"))
        report = real_domain(None, upper)
        first, second = report.intervals
        assert abs(first.lo - -1.0) <= ENDPOINT_TOL
        assert abs(first.hi - 0.0) <= ENDPOINT_TOL
        assert abs(second.lo - 1.0) <= ENDPOINT_TOL
        assert second.touches_right_edge

        report = real_domain(parse_expr("(x-5)^3-10*x+65"),
                             parse_expr("-(x-5)^3+10*x-37"))
        first, second = report.intervals
        assert first.touches_left_edge
        assert abs(first.hi - 1.3) <= CUBIC_TOL
        assert abs(second.lo - 6.0) <= CUBIC_TOL
        assert abs(second.hi - 7.7) <= CUBIC_TOL

        report = real_domain(parse_expr("1"), parse_expr("3"))
        (only,) = report.intervals
        assert abs(only.lo - 1.0) <= ENDPOINT_TOL
        assert abs(only.hi - 3.0) <= ENDPOINT_TOL

        assert time.perf_counter() - start < 2.0


def test_criterion_3_two_readings_sweep():
    with criterion(3, "one-shot vs self-referential domains, 1000 posets"):
        start = time.perf_counter()
        for i in range(1000):
            poset = random_poset(i, 8)
            g = random_endomap(10_000 + i, poset)
            assert theorem_check(poset, g, strict=True), \
                f"readings disagree on seed {i}"
            everything = frozenset(poset.elements)
            for side in ("upper", "lower"):
                once = validity_step(poset, everything, g, True, side)
                again = validity_step(poset, once, g, True, side)
                assert again == once, f"second step moved on seed {i}"
        assert time.perf_counter() - start < 10.0


def test_criterion_4_fixed_point_lemma():
    with criterion(4, "equal bounds select the fixed points"):
        for i in range(200):
            poset = random_poset(i, 8)
            f = random_endomap(20_000 + i, poset)
            spec = DomainSpec(lower=f, upper=f)
            assert dfbf_domain(poset, spec).members == \
                fixed_point_domain(poset, f).members, f"seed {i}"


def test_criterion_5_subtyping_axioms(showcase_table, enum_table):
    with criterion(5, "subtyping axioms, exhaustive to depth 2"):
        start = time.perf_counter()
        for table in (showcase_table, enum_table):
            nodes = sorted(enumerate_ground(table, 2), key=render)
            up = {s: {t for t in nodes if is_subtype(table, s, t)}
                  for s in nodes}
            for s in nodes:
                assert s in up[s], f"reflexivity fails at {render(s)}"
                assert is_subtype(table, NULL, s), "Null must be the bottom"
                assert is_subtype(table, s, OBJECT), "Object must be the top"
                for t in up[s]:
                    if s in up[t]:
                        assert s == t, \
                            f"antisymmetry fails on {render(s)}, {render(t)}"
                    assert up[t] <= up[s], \
                        f"transitivity fails through {render(s)} <: {render(t)}"
            declared = [n for n in table.names() if n not in ("Null", "Object")]
            for name in declared:
                tuples = [()] if table.arity(name) == 0 else \
                    [(arg,) for arg in nodes]
                for args in tuples:
                    inst = App(name, args)
                    sup = superclass_of(table, inst)
                    assert is_subtype(table, inst, sup), \
                        f"{render(inst)} must be below its substituted superclass"
        assert time.perf_counter() - start < 5.0


def test_criterion_6_useless_declaration(useless_table):
    with criterion(6, "unsatisfiable self-sandwich declaration"):
        assert any("useless" in d.message for d in useless_table.warnings), \
            "declaring Fx must raise the useless-declaration warning"
        args = sorted(enumerate_ground(useless_table, 49), key=render)
        assert len(args) == 100
        for arg in args:
            verdict = is_valid_argument(useless_table, App("Fx", (arg,)))
            assert verdict.status is Status.INVALID, render(arg)


def test_criterion_7_deterministic_artifacts(enum_file, tmp_path):
    with criterion(7, "byte-identical artifacts across runs"):
        dot_runs = [run_cli_process("graph", enum_file, "--depth", "2")
                    for _ in range(2)]
        assert dot_runs[0].returncode == 0
        assert dot_runs[0].stdout == dot_runs[1].stdout
        assert dot_runs[0].stdout.startswith("digraph subtyping {")

        csv_paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in csv_paths:
            result = run_cli_process(
                "real", "--lower", "x/2", "--upper", "3*x",
                "--body", "x^3", "--csv", str(path))
            assert result.returncode == 0
        assert csv_paths[0].read_bytes() == csv_paths[1].read_bytes()

        json_runs = [run_cli_process("check", enum_file, "Enum<Color>", "--json")
                     for _ in range(2)]
        assert json_runs[0].returncode == 0
        assert json_runs[0].stdout == json_runs[1].stdout
        json.loads(json_runs[0].stdout)
