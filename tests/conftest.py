"""Shared fixtures: the standard class tables, CLI helpers and generated programs."""

from __future__ import annotations

import importlib.util
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from dfblang.classtable import build_table, superclass_chain
from dfblang.syntax import NULL, OBJECT, parse_program

REPO_ROOT = Path(__file__).resolve().parent.parent

# A chain C <- D <- E plus one class per doubly-bounded shape: F with
# plain classes on both sides, G bounded below by itself, H bounded by
# classes declared later, and the I/J links H's bounds lean on.
SHOWCASE_SRC = """\
class C<T> {}
class D<T> extends C<T> {}
class E<T> extends D<T> {}
class F<E<T> extends T extends C<T>> {}
class G<G<T> extends T extends C<T>> extends D<T> {}
class H<J<T> extends T extends H<T>> {}
class I<T> extends H<T> {}
class J<T> extends I<T> {}
"""

ENUM_SRC = """\
class Enum<T extends Enum<T>> {}
class Color extends Enum<Color> {}
"""

# Same bound below and above, and the bound mentions the parameter: no
# finite argument can ever be valid.
USELESS_SRC = "class Fx<Fx<T> extends T extends Fx<T>> {}\n"

CHAIN4_JSON = """\
{"elements": ["a", "b", "c", "d"],
 "covers": [["a", "b"], ["b", "c"], ["c", "d"]],
 "maps": {"succ": {"a": "b", "b": "c", "c": "d", "d": "d"},
          "ident": {"a": "a", "b": "b", "c": "c", "d": "d"}}}
"""


@pytest.fixture(scope="session")
def showcase_table():
    return build_table(parse_program(SHOWCASE_SRC))


@pytest.fixture(scope="session")
def enum_table():
    return build_table(parse_program(ENUM_SRC))


@pytest.fixture(scope="session")
def useless_table():
    return build_table(parse_program(USELESS_SRC))


@pytest.fixture
def enum_file(tmp_path):
    path = tmp_path / "enum.dfb"
    path.write_text(ENUM_SRC)
    return str(path)


@pytest.fixture
def chain4_file(tmp_path):
    path = tmp_path / "chain4.json"
    path.write_text(CHAIN4_JSON)
    return str(path)


@pytest.fixture
def run_cli(capsys):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    from dfblang.cli import main

    def run(*argv: str):
        capsys.readouterr()
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


def walk_is_subtype(table, s, t) -> bool:
    """Subtyping by walking the chain of ``s``, as ``is_subtype`` did
    before it answered from its memo: the reference its answers must equal."""
    if s == t or s == NULL or t == OBJECT:
        return True
    return any(sup == t for sup in superclass_chain(table, s))


def run_cli_process(*argv: str, **env_vars: str) -> subprocess.CompletedProcess:
    """Invoke the CLI as a child process, importable without installation.

    Keyword arguments are set in the child's environment.
    """
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "dfblang", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def _load_gen_types():
    path = REPO_ROOT / "perfbench" / "gen_types.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen_types", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclass looks its module up
    spec.loader.exec_module(module)
    return module


# The benchmark's program generator and independent oracle, loaded from
# its file unedited; it shares no code with dfblang.
gen_types = _load_gen_types()


def generated(seed, count):
    """A generated program, its class table and ``count`` of its queries."""
    rng = random.Random(f"oracle-{seed}")
    program = gen_types.Program(rng, families=2, chain_len=6)
    table = build_table(parse_program(program.source()))
    queries = [program.chain_query(rng) if rng.random() < 0.35
               else program.deep_query(rng, rng.randint(1, 12))
               for _ in range(count)]
    return program, table, queries
