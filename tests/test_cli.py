"""Driver behavior: subcommands, exit codes, output formats."""

from __future__ import annotations

import json
import random

import pytest

from conftest import USELESS_SRC, run_cli_process


class TestCheck:
    def test_file_only_reports_class_count(self, run_cli, enum_file):
        code, out, err = run_cli("check", enum_file)
        assert code == 0
        assert "4 classes" in out

    def test_valid_query(self, run_cli, enum_file):
        code, out, _ = run_cli("check", enum_file, "Enum<Color>")
        assert code == 0
        assert out.startswith("valid")

    def test_invalid_query_exits_one_with_reasons(self, run_cli, enum_file):
        code, out, _ = run_cli("check", enum_file, "Enum<Object>")
        assert code == 1
        assert "invalid" in out
        assert "Object is not a subtype of Enum<Object>" in out

    def test_json_is_parseable_and_complete(self, run_cli, enum_file):
        code, out, _ = run_cli("check", enum_file, "Enum<Color>", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "valid"
        assert len(payload["query_log"]) == 2
        assert all(q["origin"] == "ordinary" for q in payload["query_log"])

    def test_warnings_reach_stderr(self, run_cli, tmp_path):
        path = tmp_path / "useless.dfb"
        path.write_text(USELESS_SRC)
        code, out, err = run_cli("check", str(path))
        assert code == 0
        assert "useless" in err
        assert "useless" not in out

    def test_parse_error_exits_two(self, run_cli, tmp_path):
        path = tmp_path / "broken.dfb"
        path.write_text("class C<T {}")
        code, _, err = run_cli("check", str(path))
        assert code == 2
        assert "1:11" in err

    def test_semantic_table_error_exits_two(self, run_cli, tmp_path):
        path = tmp_path / "cyclic.dfb"
        path.write_text("class A extends B {} class B extends A {}")
        code, _, err = run_cli("check", str(path))
        assert code == 2
        assert "circular" in err

    def test_missing_file_exits_two(self, run_cli):
        code, _, err = run_cli("check", "no-such-file.dfb")
        assert code == 2
        assert err.startswith("error:")

    def test_ill_formed_query_exits_two(self, run_cli, enum_file):
        code, _, err = run_cli("check", enum_file, "Enum<Zorp>")
        assert code == 2


class TestGraph:
    def test_stdout_dot(self, run_cli, enum_file):
        code, out, _ = run_cli("graph", enum_file, "--depth", "0")
        assert code == 0
        assert out.startswith("digraph subtyping {")
        assert '"Color" -> "Object";' in out

    def test_out_file(self, run_cli, enum_file, tmp_path):
        target = tmp_path / "graph.dot"
        code, out, _ = run_cli("graph", enum_file, "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("digraph")


class TestPosetCommands:
    def test_domain_strict_upper(self, run_cli, chain4_file):
        code, out, _ = run_cli("poset", "domain", chain4_file,
                               "--upper", "succ", "--strict")
        assert code == 0
        assert out.strip() == "{a, b, c}"

    def test_domain_equal_strict_bounds_print_empty_set(self, run_cli,
                                                        chain4_file):
        code, out, _ = run_cli("poset", "domain", chain4_file,
                               "--lower", "succ", "--upper", "succ",
                               "--strict")
        assert code == 0
        assert out.strip() == "{}"

    def test_domain_needs_a_bound(self, run_cli, chain4_file):
        code, _, err = run_cli("poset", "domain", chain4_file)
        assert code == 2

    def test_domain_unknown_map(self, run_cli, chain4_file):
        code, _, err = run_cli("poset", "domain", chain4_file,
                               "--upper", "missing")
        assert code == 2
        assert "missing" in err

    def test_theorem_on_a_file(self, run_cli, chain4_file):
        code, out, _ = run_cli("poset", "theorem", chain4_file,
                               "--map", "succ")
        assert code == 0
        assert out.strip() == "pass"

    def test_theorem_sweep(self, run_cli):
        code, out, _ = run_cli("poset", "theorem", "--random", "25",
                               "--seed", "5")
        assert code == 0
        assert out.strip() == "25/25 pass"

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_theorem_sweep_needs_an_instance(self, run_cli, count):
        code, out, err = run_cli("poset", "theorem", "--random", count)
        assert code == 2
        assert out == ""
        assert err == f"error: --random needs at least 1 instance, got {count}\n"

    def test_theorem_needs_map_or_random(self, run_cli, chain4_file):
        code, _, _ = run_cli("poset", "theorem", chain4_file)
        assert code == 2


class TestReal:
    def test_half_line(self, run_cli):
        code, out, _ = run_cli("real", "--lower", "x/2", "--upper", "3*x")
        assert code == 0
        assert out.strip() == "[0.000000, +edge]"

    def test_two_piece_domain(self, run_cli):
        code, out, _ = run_cli("real", "--upper", "f(x)", "--body", "x^3")
        assert code == 0
        assert out.strip() == "[-1.000000, 0.000000] ∪ [1.000000, +edge]"

    def test_empty_domain(self, run_cli):
        code, out, _ = run_cli("real", "--lower", "x+1")
        assert code == 0
        assert out.strip() == "(empty)"

    def test_self_reference_needs_a_body(self, run_cli):
        code, _, err = run_cli("real", "--upper", "f(x)")
        assert code == 2
        assert "--body" in err

    def test_needs_at_least_one_bound(self, run_cli):
        code, _, _ = run_cli("real")
        assert code == 2

    def test_bad_expression_exits_two(self, run_cli):
        code, _, err = run_cli("real", "--upper", "3*q")
        assert code == 2

    def test_csv_written(self, run_cli, tmp_path):
        target = tmp_path / "plot.csv"
        code, _, _ = run_cli("real", "--lower", "1", "--upper", "3",
                             "--window", "0", "4", "--grid", "9",
                             "--csv", str(target))
        assert code == 0
        lines = target.read_text().splitlines()
        assert lines[0] == "x,f,l,u,id,valid"
        assert len(lines) == 10

    def test_window_flag(self, run_cli):
        code, out, _ = run_cli("real", "--upper", "0", "--window", "-8", "8")
        assert code == 0
        assert out.strip() == "[-edge, 0.000000]"


class TestProcessLevel:
    def test_console_entry_runs(self):
        result = run_cli_process("--help")
        assert result.returncode == 0
        assert "check" in result.stdout

    def test_argparse_rejections_use_exit_two(self):
        result = run_cli_process("frobnicate")
        assert result.returncode == 2

    def test_json_outputs_are_stable_across_processes(self, enum_file):
        first = run_cli_process("check", enum_file, "Enum<Object>", "--json")
        second = run_cli_process("check", enum_file, "Enum<Object>", "--json")
        assert first.returncode == second.returncode == 1
        assert first.stdout == second.stdout
        json.loads(first.stdout)


def _draws_past_the_cap(seed: int) -> bool:
    # random_poset's first draw is the carrier size.
    return random.Random(seed).randint(1, 100) > 64


THEOREM_SEED = next(s for s in range(100) if _draws_past_the_cap(s))


def _unary_dot(depth: int) -> str:
    """`dfb graph --depth` on `class C<T> {}`, worked out by hand.

    The nodes are Null, Object and C^k<Null>, C^k<Object> for k = 1 to
    depth. Each C node's superclass is Object, and nothing extends C, so
    Null points at every C node.
    """
    nested = [f"{'C<' * k}{leaf}{'>' * k}"
              for k in range(1, depth + 1) for leaf in ("Null", "Object")]
    nodes = sorted(["Null", "Object", *nested])
    edges = sorted([(n, "Object") for n in nested] + [("Null", n) for n in nested])
    return "\n".join(["digraph subtyping {", *(f'  "{n}";' for n in nodes),
                      *(f'  "{a}" -> "{b}";' for a, b in edges), "}"]) + "\n"


def _unreadable_files(tmp_path) -> dict[str, str]:
    """Input files the rows below name, by placeholder name: all but
    `unary` are files no command can use as asked."""
    files = {
        "unary": b"class C<T> {}\n",
        "dup": '{"elements": ["a", "b", "a"], "covers": [], "maps": {}}'.encode(),
        "bad_map": '{"elements": ["a"], "maps": {"m": {"a": "zz"}}}'.encode(),
        "one_map": '{"elements": ["a"], "maps": {"succ": {"a": "a"}}}'.encode(),
        "latin": "class Caf\u00e9 {}\n".encode("latin-1"),
        "latin_json": '{"elements": ["\u00e9"], "maps": {}}'.encode("latin-1"),
        "deep_json": b"[" * 100_000 + b"]" * 100_000,
    }
    paths = {}
    for name, data in files.items():
        path = tmp_path / f"{name}.in"
        path.write_bytes(data)
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize("argv, code, out", [
    (("graph", "{enum}", "--depth", "-1"), 2, ""),
    (("poset", "domain", "{dup}", "--upper", "m"), 2, ""),
    (("real", "--upper", "x", "--grid", "1"), 2, ""),
    (("poset", "theorem", "--random", "1", "--max-size", "100",
      "--seed", str(THEOREM_SEED)), 2, ""),
    (("check", "{enum}", "Box<" * 3000 + "Nope" + ">" * 3000), 2, ""),
    (("real", "--lower", "1", "--upper", "3", "--tol", "1e-20"), 0,
     "[1.000000, 3.000000]\n"),
    (("real", "--upper", "(" * 200 + "x" + ")" * 200), 0, "[-edge, +edge]\n"),
    (("real", "--upper", "+".join(["x"] * 1000)), 2, ""),
    (("real", "--upper=" + "-" * 3000 + "x"), 2, ""),
    (("graph", "{enum}", "--depth", "1000000000"), 2, ""),
    (("real", "--upper", "x", "--grid", "1000001"), 2, ""),
    (("check", "{latin}"), 2, ""),
    (("graph", "{latin}"), 2, ""),
    (("poset", "domain", "{latin_json}", "--upper", "m"), 2, ""),
    (("poset", "theorem", "{latin_json}", "--map", "m"), 2, ""),
    (("poset", "domain", "{deep_json}", "--upper", "m"), 2, ""),
    (("real", "--upper", "x", "--tol", "nan"), 2, ""),
    (("real", "--upper", "x", "--window", "-1" + "0" * 308, "1" + "0" * 308),
     2, ""),
    (("real", "--upper", "x^" + "9" * 5000), 2, ""),
    (("real", "--upper", "x^1" + "0" * 400, "--window", "-0.9", "0.9",
      "--grid", "11"), 0, "[-edge, 0.000000]\n"),
    (("real", "--upper", "15" + "0" * 307, "--window", "1e308", "1.7e308"), 0,
     f"[-edge, {1.5e308:.6f}]\n"),
    (("poset", "theorem", "--random", "1", "--max-size", "1000000",
      "--seed", "3"), 2, ""),
    (("poset", "domain", "{one_map}", "--lower="), 2, ""),
    (("poset", "domain", "{one_map}", "--upper=", "--strict"), 2, ""),
    (("poset", "domain", "{one_map}", "--lower=", "--upper", "succ"), 2, ""),
    (("real", "--lower", "0." + "0" * 319 + "15", "--window", "0", "1e-320"),
     2, ""),
    (("real", "--upper", "x", "--window", "0", "1e-322"), 2, ""),
    (("real", "--upper", "x", "--window", "1", "1.000000000000001"), 2, ""),
    (("real", "--upper", "1", "--body", "f(x)", "--window", "0", "4",
      "--grid", "5"), 2, ""),
    (("real", "--upper", "1", "--body", "f(x)", "--window", "0", "4",
      "--grid", "5", "--csv", "{enum}.csv"), 2, ""),
    (("graph", "{unary}", "--depth", "201"), 2, ""),
    (("graph", "{unary}", "--depth", "200"), 0, _unary_dot(200)),
    (("real", "--upper", "x", "--csv", "{tmp}/missing/a.csv"), 2, ""),
    (("real", "--upper", "x", "--csv", "{tmp}"), 2, ""),
    (("poset", "theorem", "--random", "1", "--max-size", "100", "--seed", "0"),
     2, ""),
], ids=["negative-depth", "duplicate-labels", "grid-1", "max-size-100",
        "nested-3000", "tol-1e-20", "parens-200", "sum-1000", "minus-3000",
        "depth-1e9", "grid-1000001", "check-not-utf8", "graph-not-utf8",
        "domain-not-utf8", "theorem-not-utf8", "json-nested-100000", "tol-nan",
        "window-wider-than-floats", "exponent-5000-digits",
        "exponent-past-floats", "midpoint-near-float-max", "max-size-1000000",
        "empty-lower-name", "empty-strict-upper-name", "empty-lower-name-with-upper",
        "window-narrower-than-grid", "window-step-rounds-to-0",
        "window-repeats-samples", "self-referential-body",
        "self-referential-body-csv", "depth-past-nesting", "depth-at-nesting",
        "csv-in-a-missing-directory", "csv-at-a-directory",
        "max-size-100-seed-0"])
def test_bad_values_meet_the_exit_code_contract(argv, code, out, enum_file,
                                                tmp_path):
    files = _unreadable_files(tmp_path)
    argv = [a.format(enum=enum_file, tmp=tmp_path, **files) for a in argv]
    result = run_cli_process(*argv)
    assert result.returncode == code, result.stderr
    assert result.stdout == out
    assert "Traceback" not in result.stderr
    if code == 2:
        assert result.stderr.startswith("error: ")


CROSSED_CYCLES = {"elements": ["a", "b", "c", "d", "e"],
                  "covers": [["a", "b"], ["a", "c"], ["b", "d"], ["d", "b"],
                             ["c", "e"], ["e", "c"]],
                  "maps": {}}


def test_cycle_message_does_not_depend_on_the_hash_seed(tmp_path):
    # Two disjoint cycles below a; the search walks covers in the order
    # given, so it meets b <= d <= b first under every string hash.
    path = tmp_path / "cycles.json"
    path.write_text(json.dumps(CROSSED_CYCLES))
    results = {
        (r.returncode, r.stdout, r.stderr)
        for r in (run_cli_process("poset", "domain", str(path), "--upper", "m",
                                  PYTHONHASHSEED=str(seed))
                  for seed in range(8))
    }
    assert results == {
        (2, "", f"error: {path}: cover relation has a cycle: b <= d <= b\n")}


@pytest.mark.parametrize("argv, reason", [
    (("check", "{latin}"), "not UTF-8 text"),
    (("graph", "{latin}", "--depth", "0"), "not UTF-8 text"),
    (("poset", "domain", "{latin_json}", "--upper", "m"), "not UTF-8 text"),
    (("poset", "theorem", "{latin_json}", "--map", "m"), "not UTF-8 text"),
    (("poset", "domain", "{deep_json}", "--upper", "m"), "JSON nested too deeply"),
    (("poset", "domain", "{bad_map}", "--upper", "m"),
     "map 'm': unknown element 'zz'"),
    (("poset", "theorem", "{bad_map}", "--map", "m"),
     "map 'm': unknown element 'zz'"),
    (("poset", "domain", "{one_map}", "--lower", "nope"),
     "no map named 'nope' (have: succ)"),
    (("poset", "theorem", "{one_map}", "--map", "nope"),
     "no map named 'nope' (have: succ)"),
    (("poset", "domain", "{one_map}", "--lower="), "no map named '' (have: succ)"),
    (("poset", "domain", "{one_map}", "--upper=", "--strict"),
     "no map named '' (have: succ)"),
    (("poset", "domain", "{one_map}", "--lower=", "--upper", "succ"),
     "no map named '' (have: succ)"),
], ids=["check", "graph", "domain", "theorem", "deep-json",
        "domain-unknown-element", "theorem-unknown-element",
        "domain-missing-map", "theorem-missing-map", "domain-empty-lower-name",
        "domain-empty-strict-upper-name", "domain-empty-lower-name-with-upper"])
def test_unreadable_files_are_named_in_the_error(argv, reason, run_cli, tmp_path):
    files = _unreadable_files(tmp_path)
    argv = [a.format(**files) for a in argv]
    code, out, err = run_cli(*argv)
    assert (code, out) == (2, "")
    path = next(a for a in argv if a in files.values())
    assert err.startswith(f"error: {path}: {reason}")


def _nested(head: str, depth: int, leaf: str) -> str:
    return f"{head}<" * depth + leaf + ">" * depth


@pytest.mark.parametrize("depth", [170, 199])
def test_query_against_a_deep_self_bound_is_answered(tmp_path, depth):
    # Substituting a query nested `depth` deep into a bound nested as deep
    # gives a type nested about twice as deep; rendering and hashing it
    # must not recurse once per level.
    path = tmp_path / "deep.dfb"
    path.write_text(f"class A<T extends {_nested('A', depth, 'T')}> {{}}\n")
    result = run_cli_process("check", str(path), _nested("A", depth, "Object"))
    assert result.returncode == 1, result.stderr[-500:]
    assert result.stdout.startswith("invalid\n")
    assert "Traceback" not in result.stderr


def test_graph_over_a_chain_of_deep_superclasses(tmp_path):
    # Each class extends the one before nested 199 deep, so the superclass
    # chain of K4<Object> reaches types nested hundreds of levels deep.
    lines = ["class K1<T> {}"]
    for k in range(2, 5):
        lines.append(f"class K{k}<T> extends {_nested(f'K{k - 1}', 199, 'T')} {{}}")
    path = tmp_path / "chain.dfb"
    path.write_text("\n".join(lines) + "\n")
    result = run_cli_process("graph", str(path), "--depth", "1")
    assert result.returncode == 0, result.stderr[-500:]
    assert '"K4<Object>" -> "Object";' in result.stdout
    assert "Traceback" not in result.stderr
