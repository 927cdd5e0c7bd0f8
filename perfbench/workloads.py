"""The three in-process workloads: ``typecheck``, ``poset`` and ``real``.

Each workload is built from its seed alone. Constructing it is the
set-up (input generation, table building, warm-up); ``next_op`` makes
the next operation's input outside the timed region, ``run`` is the
timed operation, and ``check`` compares its result with an answer the
benchmark works out without the code under test. Every call into
``dfblang`` goes through a module attribute so that the tracer's
wrappers see it.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager
from dataclasses import dataclass

from dfblang import classtable, poset, realline, syntax, validity

import gen_types


class Workload:
    """Defaults shared by every workload."""

    in_process = True  # False: operations run as child processes
    cycle_len = 1  # a run ends on a multiple of this many operations
    op_limit_s = 5.0  # an operation slower than this counts as failed

    def defect(self, op) -> str | None:
        """The documented defect ``op`` exercises, if any."""
        return None

    def killed(self, result) -> bool:
        """Whether the operation was stopped at its time limit."""
        return False

    @contextmanager
    def traced(self, tracer):
        """Run the body with ``tracer``'s wrappers installed (None: plain)."""
        if tracer is None:
            yield
            return
        tracer.install()
        try:
            yield
        finally:
            tracer.uninstall()


class Typecheck(Workload):
    """Library path with the table already built.

    Why: ``subtyping`` and ``validity`` do almost all the work; ``syntax``
    and ``classtable`` do little once the table exists. This is where a
    faster subtyping core has to show its gain.

    Shape: one program of four families (362 classes, nullary chains of
    28 to 52 links). One operation is ``parse_type`` plus ``check_type`` of
    one query. About a third of the queries are shallow chain walks; the
    rest nest 10 to 60 levels deep through bounded containers, so every
    query re-validates its subterms (quadratic in depth). Roughly half
    the verdicts are invalid. Queries repeat only as the generator happens
    to draw them again; the run record reports the measured share of
    operations whose query text appeared earlier in the run.
    """

    name = "typecheck"
    tail_pct = 99.0
    trace_batch = 300
    chain_share = 0.35

    def __init__(self, seed: int, tmp=None):
        rng = random.Random(f"typecheck-program-{seed}")
        self.program = gen_types.Program(rng, families=4, chain_len=28)
        self.table = classtable.build_table(syntax.parse_program(self.program.source()))
        self._rng = random.Random(f"typecheck-ops-{seed}")
        self._seen: set[str] = set()
        self.ops = self.repeats = 0
        warm = random.Random("typecheck-warm")
        for _ in range(20):
            self.run(self._query(warm))

    def _query(self, rng):
        if rng.random() < self.chain_share:
            t = self.program.chain_query(rng)
        else:
            t = self.program.deep_query(rng, rng.randint(10, 60))
        return (gen_types.render(t), self.program.oracle.is_valid(t),
                gen_types.arity_total(t))

    def next_op(self):
        op = self._query(self._rng)
        self.ops += 1
        if op[0] in self._seen:
            self.repeats += 1
        self._seen.add(op[0])
        return op

    def run(self, op):
        return validity.check_type(self.table, syntax.parse_type(op[0]))

    def check(self, op, verdict):
        text, valid, arity = op
        if verdict.is_valid != valid:
            return f"verdict {verdict.status.value} for {text}, expected valid={valid}"
        if len(verdict.query_log) != 2 * arity:
            return f"query log has {len(verdict.query_log)} entries, expected {2 * arity}"
        return None

    def record(self):
        return {"classes": len(self.program.classes) + 2,
                "repeat_share": self.repeats / self.ops if self.ops else 0.0}


class Poset(Workload):
    """The ``theorem --random`` sweep, in-process.

    Why: only ``poset`` works here; this is the home of a faster poset
    engine, which should move nothing on the other workloads.

    Shape: one operation is ``random_poset`` with ``max_size`` 64 (carrier
    of 1 to 64 elements, uniform), two ``random_endomap`` draws,
    ``theorem_check`` of the first map, and a two-sided ``dfbf_domain``
    (first map below, second above). Every operation has fresh seeds.
    """

    name = "poset"
    tail_pct = 99.0
    trace_batch = 3000
    max_size = 64

    def __init__(self, seed: int, tmp=None):
        self._rng = random.Random(f"poset-ops-{seed}")
        warm = random.Random("poset-warm")
        for _ in range(50):
            self.run(self._draw(warm))

    @staticmethod
    def _draw(rng):
        return tuple(rng.randrange(2**32) for _ in range(3))

    def next_op(self):
        return self._draw(self._rng)

    def run(self, op):
        p = poset.random_poset(op[0], self.max_size)
        g = poset.random_endomap(op[1], p)
        h = poset.random_endomap(op[2], p)
        holds = poset.theorem_check(p, g)
        domain = poset.dfbf_domain(p, poset.DomainSpec(lower=g, upper=h))
        return p, g, h, holds, domain

    def check(self, op, result):
        p, g, h, holds, domain = result
        if not holds:
            return f"theorem fails for poset seed {op[0]}, map seed {op[1]}"
        elements, up = replica_poset(op[0], self.max_size)
        if tuple(p.elements) != elements:
            return f"poset seed {op[0]}: carrier differs from the replica"
        index = {x: i for i, x in enumerate(elements)}

        def leq(a, b):
            return up[index[a]] >> index[b] & 1

        expected = {x for x in elements if leq(g(x), x) and leq(x, h(x))}
        if set(domain.members) != expected:
            return f"two-sided domain differs for poset seed {op[0]}"
        return None

    def record(self):
        return {"max_size": self.max_size}


def replica_poset(seed: int, max_size: int):
    """The carrier and up-sets (as bit masks) of ``random_poset(seed)``.

    Draws the same covers as the documented sampler (a DAG over a linear
    order with one edge density per draw) and closes them.
    """
    rng = random.Random(seed)
    n = rng.randint(1, max_size)
    density = rng.uniform(0.1, 0.6)
    succ = [[j for j in range(i + 1, n) if rng.random() < density] for i in range(n)]
    return tuple(f"p{i}" for i in range(n)), close_up_sets(succ)


def close_up_sets(succ: list[list[int]]) -> list[int]:
    """Up-set bit masks of the order generated by covers ``i < succ[i]``,
    where every cover goes from a lower to a higher index."""
    up = [0] * len(succ)
    for i in reversed(range(len(succ))):
        mask = 1 << i
        for j in succ[i]:
            mask |= up[j]
        up[i] = mask
    return up


@dataclass(frozen=True)
class RealOp:
    body: str
    lower: str  # mentions f(x)
    upper: str
    expected: tuple  # ((lo, hi), ...); +-inf marks a ray past the window


WINDOW = realline.DEFAULT_WINDOW


def real_op(rng: random.Random) -> RealOp:
    """Bounds whose domain has planted endpoints.

    The body is ``c*(x - r1)*(x - r2)*(x - r3)*(x - r4)``; 0 to 4 of the
    roots lie inside [-95, 95], at least 1.5 apart, and the rest outside
    the window, so every operation evaluates the same number of nodes
    while the number of sign changes varies. The lower bound
    ``x - f(x)`` turns into ``f(x) >= 0``, so every root inside is an
    endpoint. The upper bound ``x + 1/(p - x)`` has a pole and keeps
    ``x < p``. Half the poles lie inside the window, half of those
    exactly on a grid sample, where the engine must skip the sample; the
    rest lie above the window and cut nothing. (The engine evaluates the
    upper bound only where the lower one holds, so keeping ``f(x)`` below
    keeps the cost of an operation nearly constant.)
    """
    lo, hi = WINDOW
    roots: list[float] = []
    for _ in range(rng.randint(0, 4)):
        r = round(rng.uniform(-95, 95), 3)
        if all(abs(r - q) >= 1.5 for q in roots):
            roots.append(r)
    roots.sort()
    outside = [round(rng.choice((-1, 1)) * rng.uniform(110, 300), 3)
               for _ in range(4 - len(roots))]
    coef = round(rng.uniform(0.5, 2.0), 3) * rng.choice((-1, 1))
    body = "*".join([f"({coef})"] + [f"(x - ({r}))" for r in roots + outside])
    pole = None
    if rng.random() < 0.5:
        n = realline.DEFAULT_GRID_N
        if rng.random() < 0.5:
            i = rng.randrange(n // 20, n - n // 20)
            pole = lo + i * ((hi - lo) / (n - 1))  # the grid's own arithmetic
        else:
            pole = round(rng.uniform(-90, 90), 3)
        # Near zero, repr() would need an exponent, which bounds cannot spell.
        if abs(pole) < 1e-3 or any(abs(pole - r) < 1.5 for r in roots):
            pole = None
    if pole is None:
        pole = round(rng.uniform(110, 300), 3)
    # Sign of f on each cell between the roots, left to right. Left of
    # every root inside the window, the negative factors are those roots
    # and the outside roots above the window.
    below = sum(r < lo for r in outside)
    sign = (coef > 0) == (below % 2 == 0)
    cuts = [-math.inf] + roots + [math.inf]
    cells = []
    for a, b in zip(cuts, cuts[1:]):
        if sign:
            b = min(b, pole)
            if a < b:
                cells.append((-math.inf if a < lo else a, math.inf if b > hi else b))
        sign = not sign
    # Cells meet only at a double root, which the generator never plants.
    return RealOp(body, "x - f(x)", f"x + 1/(({pole!r}) - x)", tuple(cells))


class Real(Workload):
    """The real-line engine, in-process.

    Why: only ``realline`` works here; this is the home of an exact
    real-line engine, and a change there should move nothing elsewhere.

    Shape: one operation parses the body and both bounds, resolves the
    lower bound's ``f(x)`` against the body, and runs ``real_domain`` at the
    default window, grid (4001) and tolerance (1e-9). Every operation
    evaluates bounds of the same size, with 0 to 4 planted roots inside
    the window and, half the time, a pole there too, so the number of
    sign changes (and of bisections) varies from operation to operation
    while the grid sampling cost stays put.
    """

    name = "real"
    tail_pct = 90.0
    trace_batch = 40

    def __init__(self, seed: int, tmp=None):
        self._rng = random.Random(f"real-ops-{seed}")
        warm = random.Random("real-warm")
        for _ in range(3):
            self.run(real_op(warm))

    def next_op(self):
        return real_op(self._rng)

    def run(self, op: RealOp):
        body = realline.parse_expr(op.body)
        lower = realline.resolve_self_reference(realline.parse_expr(op.lower), body)
        return realline.real_domain(lower, realline.parse_expr(op.upper))

    def check(self, op: RealOp, report):
        return check_intervals([(iv.lo, iv.hi) for iv in report.intervals],
                               op.expected, realline.DEFAULT_TOL)

    def record(self):
        return {"grid": realline.DEFAULT_GRID_N, "tol": realline.DEFAULT_TOL}


def check_intervals(got, expected, tol: float):
    """Compare interval endpoints with planted ones.

    An expected infinite end matches any reported end at or beyond the
    window edge, so a ray may be spelled as the edge or as infinity.
    """
    if len(got) != len(expected):
        return f"{len(got)} intervals, expected {len(expected)}: {got} vs {expected}"
    lo_edge, hi_edge = WINDOW
    for (a, b), (ea, eb) in zip(got, expected):
        ok_a = a <= lo_edge if ea == -math.inf else abs(a - ea) <= tol
        ok_b = b >= hi_edge if eb == math.inf else abs(b - eb) <= tol
        if not (ok_a and ok_b):
            return f"interval [{a}, {b}], expected [{ea}, {eb}]"
    return None
