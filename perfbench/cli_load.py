"""The ``cli`` workload: ``dfb`` run cold as a child process."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import gen_types
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OP_LIMIT_S = 2.0

SHOWCASE = """\
class C<T> {}
class D<T> extends C<T> {}
class E<T> extends D<T> {}
class F<E<T> extends T extends C<T>> {}
class G<G<T> extends T extends C<T>> extends D<T> {}
class H<J<T> extends T extends H<T>> {}
class I<T> extends H<T> {}
class J<T> extends I<T> {}
"""
SHOWCASE_UNARY = 8

# Invocations that exit 3 or hang at the time this benchmark was written,
# where the README's exit-code contract asks for exit 2.
DEFECTS = (
    "graph-negative-depth",
    "poset-duplicate-labels",
    "real-grid-1",
    "theorem-max-size-100",
    "type-nested-3000",
    "real-tol-1e-20",
)


def graph_nodes(depth: int) -> int:
    """n(d+1) = 2 + k * n(d), n(0) = 2, for a table of k unary classes."""
    n = 2
    for _ in range(depth):
        n = 2 + SHOWCASE_UNARY * n
    return n


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple
    codes: tuple  # acceptable exit codes
    expect: object = None  # what the output check compares against
    defect: str | None = None


@dataclass
class Outcome:
    code: int | None
    out: str
    err: str
    timed_out: bool


class Cli(workloads.Workload):
    """``dfb`` run cold as a child process, one child at a time.

    Why: interpreter start-up, imports, ``syntax.parse_program`` and
    ``classtable.build_table`` dominate and the engines do little, so the
    front end is measured cold here and hot in ``typecheck``. A change
    that speeds up queries by adding table-construction cost loses here.

    Shape: set-up writes a generated program of twelve families (1926
    classes), the showcase table (eight unary classes), a poset file and
    a file with duplicate labels to a directory inside the checkout. One
    cycle of 24 operations holds eighteen ordinary invocations (``check``
    without a query twice and with six queries, ``graph --depth 2`` and
    ``3``, ``poset theorem --random`` twice, ``poset domain``, ``real``
    five times) and six error-path invocations, each a documented defect that should exit 2
    (see ``DEFECTS``). A child still running after ``OP_LIMIT_S`` is
    killed and counts as failed. Runs end on a cycle boundary.
    """

    name = "cli"
    tail_pct = 80.0
    cycle_len = 24
    trace_batch = 24
    in_process = False
    op_limit_s = OP_LIMIT_S

    def __init__(self, seed: int, tmp: Path):
        self.tmp = tmp
        self.tracer = None
        self.cli_times = {"interpreter_s": 0.0, "import_s": 0.0}
        rng = random.Random(f"cli-{seed}")
        program = gen_types.Program(rng, families=12, chain_len=30)
        big = self._write("big.dfb", program.source())
        show = self._write("showcase.dfb", SHOWCASE)
        dup = self._write("dup.json", json.dumps(
            {"elements": ["a", "b", "a"], "covers": [], "maps": {}}))
        posets, members = self._poset_file(rng)
        n_classes = len(program.names())

        queries = []
        for want_valid in (True, False):
            for deep in (False, True, True):
                while True:
                    t = (program.deep_query(rng, rng.randint(40, 60)) if deep
                         else program.chain_query(rng))
                    if program.oracle.is_valid(t) == want_valid:
                        break
                queries.append(t)
        theorem_seed = rng.randrange(10**6)
        while all(random.Random(theorem_seed + i).randint(1, 100) <= 64 for i in range(10)):
            theorem_seed += 1  # make sure some draw exceeds the 64-element cap
        reals = [workloads.real_op(rng) for _ in range(5)]

        ops = [
            Op("check-json", ("check", big, "--json"), (0,), program.names()),
            Op("check-text", ("check", big), (0,), f"ok: {n_classes} classes"),
        ]
        for t in queries:
            valid = program.oracle.is_valid(t)
            ops.append(Op("check-query", ("check", big, gen_types.render(t), "--json"),
                          (0,) if valid else (1,),
                          ("valid" if valid else "invalid", 2 * gen_types.arity_total(t))))
        ops += [
            Op("graph-2", ("graph", show, "--depth", "2"), (0,), graph_nodes(2)),
            Op("graph-3", ("graph", show, "--depth", "3"), (0,), graph_nodes(3)),
            Op("theorem", ("poset", "theorem", "--random", "300", "--max-size", "8",
                           "--seed", str(rng.randrange(10**6))), (0,), "300/300 pass"),
            Op("theorem", ("poset", "theorem", "--random", "60", "--max-size", "64",
                           "--seed", str(rng.randrange(10**6))), (0,), "60/60 pass"),
            Op("poset-domain", ("poset", "domain", posets, "--lower", "low",
                                "--upper", "high", "--strict"), (0,), members),
        ]
        for r in reals:
            argv = ["real"]
            for flag, text in (("--lower", r.lower), ("--upper", r.upper), ("--body", r.body)):
                argv += [flag, text]
            ops.append(Op("real", tuple(argv), (0,), r.expected))
        deep_ill = "Box0<" * 3000 + "Nope" + ">" * 3000
        ops += [
            Op("error", ("graph", show, "--depth", "-1"), (2,), None, DEFECTS[0]),
            Op("error", ("poset", "domain", dup, "--upper", "m"), (2,), None, DEFECTS[1]),
            Op("error", ("real", "--upper", "x", "--grid", "1"), (2,), None, DEFECTS[2]),
            Op("error", ("poset", "theorem", "--random", "10", "--max-size", "100",
                         "--seed", str(theorem_seed)), (2,), None, DEFECTS[3]),
            Op("error", ("check", big, deep_ill), (2,), None, DEFECTS[4]),
            # Exit 2 (tolerance rejected) or the right answer both honour
            # the contract; hanging does not.
            Op("error", ("real", "--lower", "1", "--upper", "3", "--tol", "1e-20"),
               (0, 2), ((1.0, 3.0),), DEFECTS[5]),
        ]
        assert len(ops) == self.cycle_len
        self.cycle = ops
        self._next = 0
        # Warm-up: compile the package's bytecode and touch the input files.
        for op in (ops[1], ops[6]):
            self.run(op)

    def _write(self, name: str, text: str) -> str:
        path = self.tmp / name
        path.write_text(text, encoding="utf-8")
        return str(path.relative_to(ROOT))

    def _poset_file(self, rng):
        """A 24-element poset with two maps, and its strict two-sided domain."""
        n = 24
        succ = [[j for j in range(i + 1, n) if rng.random() < 0.15] for i in range(n)]
        up = workloads.close_up_sets(succ)
        names = [f"e{i}" for i in range(n)]
        low = [rng.randrange(n) for _ in range(n)]
        high = [rng.randrange(n) for _ in range(n)]
        data = {
            "elements": names,
            "covers": [[names[i], names[j]] for i in range(n) for j in succ[i]],
            "maps": {"low": {names[i]: names[low[i]] for i in range(n)},
                     "high": {names[i]: names[high[i]] for i in range(n)}},
        }
        members = [names[x] for x in range(n)
                   if up[low[x]] >> x & 1 and low[x] != x
                   and up[x] >> high[x] & 1 and high[x] != x]
        return self._write("poset.json", json.dumps(data)), members

    def defect(self, op: Op) -> str | None:
        return op.defect

    @contextmanager
    def traced(self, tracer):
        """Start children through the tracing bootstrap and merge their spans."""
        self.tracer = tracer
        try:
            yield
        finally:
            self.tracer = None

    def killed(self, res: Outcome) -> bool:
        return res.timed_out

    def next_op(self) -> Op:
        op = self.cycle[self._next % self.cycle_len]
        self._next += 1
        return op

    def run(self, op: Op) -> Outcome:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        if self.tracer is None:
            cmd = [sys.executable, "-m", "dfblang", *op.argv]
        else:
            side = self.tmp / "trace.json"
            side.unlink(missing_ok=True)
            env["DFB_BENCH_TRACE_OUT"] = str(side)
            env["DFB_BENCH_SPAWN"] = repr(time.clock_gettime(time.CLOCK_MONOTONIC))
            cmd = [sys.executable, str(HERE / "trace_child.py"), *op.argv]
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True, encoding="utf-8",
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            out, err = proc.communicate(timeout=OP_LIMIT_S)
            timed_out = False
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            timed_out = True
        if self.tracer is not None and not timed_out and side.exists():
            dumped = json.loads(side.read_text(encoding="utf-8"))
            self.tracer.merge(dumped)
            for key in self.cli_times:
                self.cli_times[key] += dumped[key]
        return Outcome(None if timed_out else proc.returncode, out, err, timed_out)

    def check(self, op: Op, res: Outcome) -> str | None:
        if res.timed_out:
            return f"{op.label}: killed after {OP_LIMIT_S} s"
        if res.code not in op.codes:
            return f"{op.label}: exit {res.code}, expected {op.codes}: {res.err[-200:]!r}"
        if op.expect is None or (op.defect and res.code == 2):
            return None
        try:
            return self._check_output(op, res.out)
        except (ValueError, KeyError, TypeError) as exc:
            return f"{op.label}: unreadable output ({exc})"

    @staticmethod
    def _check_output(op: Op, out: str) -> str | None:
        if op.label == "check-json":
            ok = json.loads(out)["classes"] == op.expect
        elif op.label == "check-query":
            payload = json.loads(out)
            ok = (payload["status"], len(payload["query_log"])) == op.expect
        elif op.label.startswith("graph"):
            nodes = sum(1 for line in out.splitlines()
                        if line.endswith('";') and "->" not in line)
            ok = nodes == op.expect
        elif op.label == "poset-domain":
            ok = out.strip() == "{" + ", ".join(op.expect) + "}"
        elif op.label in ("real", "error"):
            return workloads.check_intervals(parse_intervals(out), op.expect, 1e-6)
        else:
            ok = out.strip() == op.expect
        return None if ok else f"{op.label}: output differs from the expected answer"

    def record(self):
        return {"cycle": [op.defect or op.label for op in self.cycle],
                "op_limit_s": OP_LIMIT_S}


def parse_intervals(out: str) -> list[tuple[float, float]]:
    """Intervals from ``real`` output; an end that is not a number is a ray."""
    text = out.strip().splitlines()[0] if out.strip() else ""
    if text == "(empty)":
        return []
    found = []
    for part in text.split("∪"):
        ends = []
        for token in part.strip().strip("[]").split(","):
            token = token.strip()
            try:
                ends.append(float(token))
            except ValueError:
                ends.append(-float("inf") if token.startswith("-") else float("inf"))
        found.append(tuple(ends))
    return found
