"""dfblang against the benchmark's independent oracle.

``perfbench/gen_types.py`` generates class tables and queries and holds
an ``Oracle`` written from the README's definitions; it shares no code
with ``dfblang``. Here it is loaded from its file, unedited, and every
verdict, query count and subtype answer of ``check_type`` is compared
with it on small generated programs.
"""

from __future__ import annotations

import importlib.util
import random
import sys

import pytest

from conftest import REPO_ROOT, walk_is_subtype
from dfblang.classtable import build_table
from dfblang.subtyping import is_subtype
from dfblang.syntax import parse_program, parse_type
from dfblang.validity import check_type


def _load_gen_types():
    path = REPO_ROOT / "perfbench" / "gen_types.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen_types", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclass looks its module up
    spec.loader.exec_module(module)
    return module


gen_types = _load_gen_types()


def _as_tuple(t):
    return (t.name, tuple(_as_tuple(a) for a in t.args))


def _generated(seed, count):
    """A generated program, its class table and ``count`` of its queries."""
    rng = random.Random(f"oracle-{seed}")
    program = gen_types.Program(rng, families=2, chain_len=6)
    table = build_table(parse_program(program.source()))
    queries = [program.chain_query(rng) if rng.random() < 0.35
               else program.deep_query(rng, rng.randint(1, 12))
               for _ in range(count)]
    return program, table, queries


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_check_type_agrees_with_the_oracle(seed):
    program, table, queries = _generated(seed, 200)
    oracle = program.oracle
    asked = []
    oracle_is_subtype = oracle.is_subtype

    def recording(s, t):
        asked.append((s, t))
        return oracle_is_subtype(s, t)

    oracle.is_subtype = recording
    for query in queries:
        text = gen_types.render(query)
        asked.clear()
        verdict = check_type(table, parse_type(text))
        assert verdict.is_valid == oracle.is_valid(query), text
        assert len(verdict.query_log) == 2 * gen_types.arity_total(query), text
        logged = {(_as_tuple(q.left), _as_tuple(q.right))
                  for q in verdict.query_log}
        # The oracle stops judging a node at its first failed bound; the
        # log holds every pair, so it covers what the oracle asks.
        assert set(asked) <= logged, text
        for s, t in logged:
            got = is_subtype(table, parse_type(gen_types.render(s)),
                             parse_type(gen_types.render(t)))
            assert got == oracle_is_subtype(s, t), (text, s, t)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_memoized_answers_equal_the_chain_walk(seed):
    _, table, queries = _generated(seed, 200)
    for query in queries:
        verdict = check_type(table, parse_type(gen_types.render(query)))
        for q in verdict.query_log:
            assert (is_subtype(table, q.left, q.right)
                    == walk_is_subtype(table, q.left, q.right)), (q.left, q.right)


def test_the_memo_is_bounded_by_pairs_of_classes():
    _, table, queries = _generated(1, 2000)
    heads = set()
    for query in queries:
        verdict = check_type(table, parse_type(gen_types.render(query)))
        heads.update((q.left.name, q.right.name) for q in verdict.query_log)
    # One entry per pair of head names asked, however many types.
    assert 0 < len(table._meets) <= len(heads) <= len(table.infos) ** 2
