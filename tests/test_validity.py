"""Admittable vs valid arguments, no re-check inside bounds, and the query log."""

from __future__ import annotations

import gc

import pytest

from conftest import gen_types, generated
from dfblang import validity
from dfblang.classtable import UnknownClass, build_table
from dfblang.subtyping import enumerate_ground
from dfblang.syntax import (
    MAX_NESTING,
    App,
    NULL,
    OBJECT,
    Var,
    parse_program,
    parse_type,
    render,
)
from dfblang.validity import (
    NotAdmittable,
    Status,
    check_type,
    is_admittable,
    is_valid_argument,
)


def _app_nodes(t) -> int:
    return 1 + sum(_app_nodes(a) for a in t.args)


def _preorder(t) -> list:
    """The nodes of ``t``, outermost first, left to right."""
    nodes, stack = [], [t]
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(reversed(node.args))
    return nodes


def _judging_every_node(table, t):
    """check_type's answer as it was reached by judging every node of
    ``t``, nullary arguments included: the reference for the walk that
    skips them."""
    valid, reasons, log = True, [], []
    for node in _preorder(t):
        verdict = is_valid_argument(table, node)
        valid = valid and verdict.is_valid
        reasons.extend(verdict.reasons)
        log.extend(verdict.query_log)
    return (Status.VALID if valid else Status.INVALID), tuple(reasons), tuple(log)


class TestIsAdmittable:
    def test_ground_arity_correct_argument(self, enum_table):
        assert is_admittable(enum_table, App("Enum", (App("Color"),)))

    def test_bounds_play_no_part(self, enum_table):
        # Object violates Enum's bound yet is perfectly admittable.
        assert is_admittable(enum_table, App("Enum", (OBJECT,)))

    def test_misapplied_argument_is_not_admittable(self, enum_table):
        assert not is_admittable(enum_table, App("Enum", (App("Enum"),)))

    def test_wrong_argument_count(self, enum_table):
        assert not is_admittable(enum_table, App("Enum", ()))
        assert not is_admittable(enum_table, App("Color", (NULL,)))

    def test_open_or_unknown_arguments(self, enum_table):
        assert not is_admittable(enum_table, App("Enum", (Var("T"),)))
        assert not is_admittable(enum_table, App("Enum", (App("Zorp"),)))
        nested = App("Enum", (App("Enum", (App("Zorp"),)),))
        assert not is_admittable(enum_table, App("Enum", (nested,)))

    def test_unknown_class_is_an_error(self, enum_table):
        with pytest.raises(UnknownClass):
            is_admittable(enum_table, App("Zorp", ()))


class TestIsValidArgument:
    def test_bound_satisfied_via_declared_chain(self, enum_table):
        verdict = is_valid_argument(enum_table, App("Enum", (App("Color"),)))
        assert verdict.status is Status.VALID
        assert verdict.reasons == ()
        assert [(render(q.left), render(q.right)) for q in verdict.query_log] == [
            ("Null", "Color"), ("Color", "Enum<Color>"),
        ]

    def test_bound_violated(self, enum_table):
        verdict = is_valid_argument(enum_table, App("Enum", (OBJECT,)))
        assert verdict.status is Status.INVALID
        assert verdict.reasons == (
            "Object is not a subtype of Enum<Object> (upper bound of T in Enum)",
        )

    def test_directly_declared_superclass_satisfies_the_bound(self):
        src = "class C<T> {} class D<T extends C<T>> {} class X extends C<X> {}"
        table = build_table(parse_program(src))
        verdict = is_valid_argument(table, App("D", (App("X"),)))
        assert verdict.status is Status.VALID

    def test_every_parameter_is_checked_no_short_circuit(self):
        src = ("class C<T> {} "
               "class P<A extends C<A>, B extends C<B>> {}")
        table = build_table(parse_program(src))
        verdict = is_valid_argument(table, App("P", (OBJECT, NULL)))
        assert verdict.status is Status.INVALID
        # First parameter fails, second passes; all four queries still run.
        assert len(verdict.query_log) == 4
        assert len(verdict.reasons) == 1

    def test_two_parameters_two_failures_two_reasons(self, enum_table):
        src = "class P<A extends Null, B extends Null> {}"
        table = build_table(parse_program(src))
        verdict = is_valid_argument(table, App("P", (OBJECT, OBJECT)))
        assert len(verdict.reasons) == 2

    def test_queries_cost_two_per_parameter(self, showcase_table):
        verdict = is_valid_argument(showcase_table, App("F", (NULL,)))
        assert len(verdict.query_log) == 2

    def test_not_admittable_is_an_error(self, enum_table):
        with pytest.raises(NotAdmittable):
            is_valid_argument(enum_table, App("Enum", (App("Enum"),)))

    def test_nullary_instantiation_is_trivially_valid(self, enum_table):
        verdict = is_valid_argument(enum_table, App("Color", ()))
        assert verdict.status is Status.VALID
        assert verdict.query_log == ()

    def test_lower_bound_failures_reported_too(self, showcase_table):
        # F wants E<T> below T; Object is above, C<Object> is not.
        verdict = is_valid_argument(showcase_table, App("F", (App("C", (OBJECT,)),)))
        assert verdict.status is Status.INVALID
        assert any("lower bound" in r for r in verdict.reasons)


class TestBoundContext:
    def test_admittability_still_required(self, enum_table):
        with pytest.raises(NotAdmittable):
            is_valid_argument(enum_table, App("Enum", (App("Enum"),)))


class TestCheckType:
    def test_deepest_parsable_type_is_judged(self):
        table = build_table(parse_program("class Box<T> {}"))
        deepest = parse_type("Box<" * MAX_NESTING + "Null" + ">" * MAX_NESTING)
        verdict = check_type(table, deepest)
        assert verdict.is_valid
        assert len(verdict.query_log) == 2 * MAX_NESTING

    def test_walkthrough_instantiation(self, enum_table):
        verdict = check_type(enum_table, parse_type("Enum<Color>"))
        assert verdict.status is Status.VALID
        assert len(verdict.query_log) == 2

    def test_nested_argument_fails_the_outer_bound(self, enum_table):
        # Enum<Color> is valid on its own but is not below Enum<Enum<Color>>.
        verdict = check_type(enum_table, parse_type("Enum<Enum<Color>>"))
        assert verdict.status is Status.INVALID
        assert any("Enum<Enum<Color>>" in r for r in verdict.reasons)

    def test_log_runs_outermost_first(self, enum_table):
        verdict = check_type(enum_table, parse_type("Enum<Enum<Color>>"))
        subjects = [render(q.subject) for q in verdict.query_log]
        assert subjects == ["Enum<Enum<Color>>", "Enum<Enum<Color>>",
                            "Enum<Color>", "Enum<Color>"]
        # Left to right below each node, and each subtree before the next.
        table = build_table(parse_program("class P<A, B> {}\nclass N {}"))
        verdict = check_type(table, parse_type("P<P<N, P<N, N>>, P<N, N>>"))
        subjects = [render(q.subject) for q in verdict.query_log[::4]]
        assert subjects == ["P<P<N, P<N, N>>, P<N, N>>", "P<N, P<N, N>>",
                            "P<N, N>", "P<N, N>"]

    def test_leaves_no_cyclic_garbage(self, showcase_table):
        # A reference cycle per call would keep each call's log and query
        # trees alive until a full garbage collection.
        t = parse_type("G<G<C<Null>>>")
        gc.collect()
        gc.disable()
        try:
            check_type(showcase_table, t)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_variables_are_not_checkable(self, enum_table):
        with pytest.raises(NotAdmittable):
            check_type(enum_table, Var("T"))

    def test_agrees_with_per_node_judgements(self, enum_table):
        def subterms(t):
            yield t
            for a in t.args:
                yield from subterms(a)

        for t in enumerate_ground(enum_table, 2):
            verdict = check_type(enum_table, t)
            expected = all(
                is_valid_argument(enum_table, s).is_valid
                for s in subterms(t)
            )
            assert verdict.is_valid == expected, render(t)

    def test_query_budget(self, enum_table, showcase_table):
        # At most 2 * applications * max arity subtype queries, ever.
        for table in (enum_table, showcase_table):
            max_arity = max(table.arity(n) for n in table.names())
            for t in enumerate_ground(table, 2):
                verdict = check_type(table, t)
                budget = 2 * _app_nodes(t) * max(max_arity, 1)
                assert len(verdict.query_log) <= budget, render(t)

    def test_no_query_ever_originates_from_a_bound(self, enum_table):
        for t in enumerate_ground(enum_table, 2):
            verdict = check_type(enum_table, t)
            assert all(q.as_dict()["origin"] == "ordinary"
                       for q in verdict.query_log), render(t)

    def test_bound_side_instantiations_are_never_subjects(self, enum_table):
        # Checking Enum<Color> mentions Enum<Color> as a bound; the log's
        # subjects must only ever be subterms of the queried type.
        for text in ("Enum<Color>", "Enum<Enum<Color>>", "Enum<Object>"):
            t = parse_type(text)
            verdict = check_type(enum_table, t)
            allowed = set()

            def collect(s):
                allowed.add(render(s))
                for a in s.args:
                    collect(a)

            collect(t)
            for q in verdict.query_log:
                assert render(q.subject) in allowed

    def test_judges_the_root_and_each_argument_with_arguments(
            self, enum_table, showcase_table, monkeypatch):
        judged = []
        original = validity.is_valid_argument

        def recording(table, t):
            judged.append(t)
            return original(table, t)

        monkeypatch.setattr(validity, "is_valid_argument", recording)
        for table, text in ((enum_table, "Color"), (enum_table, "Object"),
                            (enum_table, "Enum<Color>"),
                            (enum_table, "Enum<Enum<Object>>"),
                            (showcase_table, "F<E<G<D<Object>>>>"),
                            (showcase_table, "C<C<Null>>")):
            t = parse_type(text)
            judged.clear()
            check_type(table, t)
            expected = [t] + [node for node in _preorder(t)[1:] if node.args]
            assert len(judged) == len(expected), text
            assert all(a is b for a, b in zip(judged, expected)), text
        # The root is judged whatever its arity, so an unknown one raises.
        with pytest.raises(UnknownClass):
            check_type(enum_table, App("Nope"))

    def test_equals_judging_every_node(self, enum_table, showcase_table,
                                       useless_table):
        queries = [(table, t)
                   for table in (enum_table, showcase_table, useless_table)
                   for t in sorted(enumerate_ground(table, 2), key=render)]
        for seed in (1, 2, 3):
            _, table, generated_queries = generated(seed, 100)
            queries += [(table, parse_type(gen_types.render(q)))
                        for q in generated_queries]
        statuses = set()
        for table, t in queries:
            verdict = check_type(table, t)
            status, reasons, log = _judging_every_node(table, t)
            assert (verdict.status, verdict.reasons) == (status, reasons), render(t)
            assert verdict.query_log == log, render(t)
            assert all(q.subject is r.subject
                       for q, r in zip(verdict.query_log, log)), render(t)
            statuses.add(status)
        assert statuses == {Status.VALID, Status.INVALID}

    def test_each_subject_is_the_very_node_of_the_query(self, showcase_table):
        # Outermost first, left to right: each node of the parsed query
        # is the subject of its 2k queries, the same object, not a copy.
        t = parse_type("F<E<G<D<Object>>>>")
        expected = [node for node in _preorder(t) for _ in range(2 * len(node.args))]
        log = check_type(showcase_table, t).query_log
        assert len(log) == len(expected) == 8
        assert all(q.subject is node for q, node in zip(log, expected))


class TestUselessDeclaration:
    def test_no_argument_is_ever_valid(self, useless_table):
        args = sorted(enumerate_ground(useless_table, 6), key=render)
        assert len(args) >= 10
        for arg in args:
            verdict = is_valid_argument(useless_table, App("Fx", (arg,)))
            assert verdict.status is Status.INVALID, render(arg)
