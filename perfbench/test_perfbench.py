"""Tests of the benchmark itself (not part of the package's suite).

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cli_load
import run
import workloads
from tracing import TARGETS, Tracer

HERE = Path(__file__).resolve().parent
IN_PROCESS = (workloads.Typecheck, workloads.Poset, workloads.Real)


@pytest.fixture
def tmp():
    # The cli workload writes its inputs inside the checkout, as in a run.
    path = run.ROOT / ".bench_tmp" / "test"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_every_wrapper_fires(tmp):
    tracer = Tracer()
    for cls in IN_PROCESS:
        tracer.install()
        try:
            load = cls(1, tmp)
            for _ in range(5):
                load.run(load.next_op())
        finally:
            tracer.uninstall()
    load = cli_load.Cli(1, tmp)
    with load.traced(tracer):
        for _ in range(load.cycle_len):
            load.run(load.next_op())
    assert not tracer.absent
    silent = [name for name, stat in tracer.stats.items() if stat.calls == 0]
    assert silent == []
    assert len(tracer.stats) == len(TARGETS)
    assert load.cli_times["interpreter_s"] > 0 and load.cli_times["import_s"] > 0


def test_wrappers_come_off(tmp):
    import dfblang.subtyping
    import dfblang.validity

    original = dfblang.subtyping.is_subtype
    tracer = Tracer()
    tracer.install()
    assert dfblang.validity.is_subtype is not original  # bound by name there
    tracer.uninstall()
    assert dfblang.validity.is_subtype is original
    assert dfblang.subtyping.is_subtype is original


@pytest.mark.parametrize("cls", IN_PROCESS, ids=lambda c: c.name)
def test_counts_repeat_for_a_seed(cls, tmp, monkeypatch):
    monkeypatch.setattr(cls, "trace_batch", 8)
    counts = []
    for _ in range(2):
        failures: list = []
        metrics, _, _ = run.traced(cls, 3, 0.0, tmp, failures)
        assert failures == []
        counts.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_graph_counts_follow_the_recurrence():
    assert [cli_load.graph_nodes(d) for d in range(4)] == [2, 18, 146, 1170]


def test_rays_are_accepted_in_either_spelling():
    inf = float("inf")
    expected = ((-inf, -4.1), (3.2, inf))
    for text in ("[-edge, -4.100000] ∪ [3.200000, +edge]",
                 "[-inf, -4.100000] ∪ [3.200000, inf]"):
        got = cli_load.parse_intervals(text)
        assert workloads.check_intervals(got, expected, 1e-6) is None
    assert workloads.check_intervals([(-100.0, -4.0)], expected[:1], 1e-6) is not None


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "poset", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_killed_operations_stay_out_of_latency_figures():
    class Load:
        cycle_len, tail_pct, in_process = 2, 50.0, True

    latencies = [0.1, None] * 20
    metrics, notes = run.end_to_end(Load, [1.0], latencies, [{}] * 20)
    assert metrics["ops_per_s"][0] == pytest.approx(10.0)
    assert metrics["op_p50_ms"][0] == pytest.approx(100.0)
    assert metrics["op_tail_ms"][0] == pytest.approx(100.0)
    assert metrics["success_ratio"][0] == 0.5
    assert notes["killed"] == 20 and notes["fail_ratio"] == 0.5


def test_repeat_share_is_measured(tmp):
    load = workloads.Typecheck(1, tmp)
    texts = [load.next_op()[0] for _ in range(400)]
    assert load.repeats == len(texts) - len(set(texts))
    assert load.record()["repeat_share"] == load.repeats / 400
