"""`dfb` invocations against recorded answers.

``real_golden.json`` holds, for each ``dfb real`` invocation, the
stdout, stderr, exit code and ``--csv`` file that the per-sample
decision (commit 6fa03a5, one ``eval_expr`` call per bound per grid
sample) produced. The cases cover planted roots, poles exactly on a grid
sample, bounds that are NaN on part of the window, one-sided bounds,
``f(x)`` resolved against ``--body``, and windows too narrow for their
grid. Any change to how the grid is decided must reproduce them byte for
byte.

``cli_golden.json`` holds full command lines of ``check``, ``graph`` and
``poset``, each with the input files it reads, recorded at commit
4f0299f: every ill-formed bound and extends clause the parser lets
through, with the line of its declaration, the other table errors,
valid, invalid and not-admittable queries as text and as JSON (query
log included), ``graph --depth 2``, ``poset domain`` with each bound
with and without ``--strict``, and ``poset theorem`` from a file and
with ``--random``. The files are written to a fresh working directory,
so paths in messages are the relative names recorded.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest


def _load(name: str) -> list[dict]:
    return json.loads(Path(__file__).with_name(name).read_text(encoding="utf-8"))


GOLDEN = ([dict(case, argv=["real", *case["argv"]])
           for case in _load("real_golden.json")]
          + _load("cli_golden.json"))


@pytest.mark.parametrize("case", GOLDEN, ids=[case["name"] for case in GOLDEN])
def test_output_is_byte_identical(case, run_cli, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in case.get("files", {}).items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    csv = tmp_path / "plot.csv"
    argv = [str(csv) if arg == "{csv}" else arg for arg in case["argv"]]
    assert run_cli(*argv) == (case["exit"], case["stdout"], case["stderr"])
    written = csv.read_bytes() if csv.exists() else None
    expected = case.get("csv")
    assert written == (None if expected is None else expected.encode("utf-8"))
