"""dfblang against the benchmark's independent oracle.

``perfbench/gen_types.py`` generates class tables and queries and holds
an ``Oracle`` written from the README's definitions; it shares no code
with ``dfblang``. ``conftest`` loads it from its file, unedited, and every
verdict, query count and subtype answer of ``check_type`` is compared
with it on small generated programs.
"""

from __future__ import annotations

import pytest

from conftest import gen_types, generated, walk_is_subtype
from dfblang.classtable import chain_meet
from dfblang.subtyping import is_subtype
from dfblang.syntax import parse_type
from dfblang.validity import check_type


def _as_tuple(t):
    return (t.name, tuple(_as_tuple(a) for a in t.args))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_check_type_agrees_with_the_oracle(seed):
    program, table, queries = generated(seed, 200)
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
    _, table, queries = generated(seed, 200)
    for query in queries:
        verdict = check_type(table, parse_type(gen_types.render(query)))
        for q in verdict.query_log:
            assert (is_subtype(table, q.left, q.right)
                    == walk_is_subtype(table, q.left, q.right)), (q.left, q.right)


def test_the_memo_is_bounded_by_pairs_of_classes():
    _, table, queries = generated(1, 2000)
    heads = set()
    for query in queries:
        verdict = check_type(table, parse_type(gen_types.render(query)))
        heads.update((q.left.name, q.right.name) for q in verdict.query_log)
    # One entry per pair of head names asked, however many types.
    assert 0 < len(table._meets) <= len(heads) <= len(table.infos) ** 2


def test_a_meeting_point_without_arguments_needs_no_substitution():
    # Box0<T> extends N0_4, so Box0's chain meets each N0_j at a nullary
    # type: the answer holds whatever Box0's argument is.
    program, table, _ = generated(1, 0)
    assert chain_meet(table, "Box0", "N0_0") == parse_type("N0_0")
    answers = set()
    for s in ("Box0<N0_5>", "Box0<Box0<N0_3>>", "Box0<N1_2>"):
        for t in ("N0_0", "N0_4", "N0_5", "N1_0", "U0_0<N0_5>"):
            got = is_subtype(table, parse_type(s), parse_type(t))
            expected = program.oracle.is_subtype(
                _as_tuple(parse_type(s)), _as_tuple(parse_type(t)))
            assert got == expected, (s, t)
            answers.add(got)
    assert answers == {True, False}
