"""`dfb real` against recorded answers.

``real_golden.json`` holds, for each invocation, the stdout, stderr,
exit code and ``--csv`` file that the per-sample decision (commit
6fa03a5, one ``eval_expr`` call per bound per grid sample) produced.
The cases cover planted roots, poles exactly on a grid sample, bounds
that are NaN on part of the window, one-sided bounds, ``f(x)`` resolved
against ``--body``, and windows too narrow for their grid. Any change to
how the grid is decided must reproduce them byte for byte.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

GOLDEN = json.loads(Path(__file__).with_name("real_golden.json")
                    .read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", GOLDEN, ids=[case["name"] for case in GOLDEN])
def test_output_is_byte_identical(case, run_cli, tmp_path):
    csv = tmp_path / "plot.csv"
    argv = [str(csv) if arg == "{csv}" else arg for arg in case["argv"]]
    assert run_cli("real", *argv) == (case["exit"], case["stdout"], case["stderr"])
    written = csv.read_bytes() if csv.exists() else None
    assert written == (None if case["csv"] is None else case["csv"].encode("utf-8"))
