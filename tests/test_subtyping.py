"""Chain-walk subtyping, ground enumeration, and the exported graph."""

from __future__ import annotations

import pytest

from dfblang.classtable import (
    ArityMismatch,
    IllFormedType,
    UnboundVariable,
    UnknownClass,
    build_table,
)
from dfblang import subtyping
from dfblang.errors import InvalidValue
from dfblang.subtyping import (
    enumerate_ground,
    export_graph,
    ground_graph,
    is_subtype,
    require_well_formed,
    superclass_chain,
)
from dfblang.syntax import (
    App,
    ClassDecl,
    NULL,
    OBJECT,
    Program,
    TypeParamDecl,
    Var,
    parse_program,
    parse_type,
    render,
)


class TestIsSubtype:
    def test_reflexive_on_samples(self, showcase_table):
        for text in ("Null", "Object", "C<Null>", "E<C<Object>>"):
            t = parse_type(text)
            assert is_subtype(showcase_table, t, t), f"{text} <: {text} must hold"

    def test_null_below_everything(self, showcase_table):
        for text in ("Object", "C<Null>", "F<Object>"):
            assert is_subtype(showcase_table, NULL, parse_type(text))

    def test_object_above_everything(self, showcase_table):
        for text in ("Null", "C<Null>", "G<C<Null>>"):
            assert is_subtype(showcase_table, parse_type(text), OBJECT)

    def test_nothing_below_null_but_null(self, showcase_table):
        assert not is_subtype(showcase_table, OBJECT, NULL)
        assert not is_subtype(showcase_table, parse_type("C<Null>"), NULL)

    def test_chain_walk_through_declared_superclasses(self, showcase_table):
        e = parse_type("E<Null>")
        assert is_subtype(showcase_table, e, parse_type("D<Null>"))
        assert is_subtype(showcase_table, e, parse_type("C<Null>"))
        assert not is_subtype(showcase_table, parse_type("C<Null>"), e)

    def test_arguments_are_invariant(self, showcase_table):
        assert not is_subtype(showcase_table,
                              parse_type("C<Null>"), parse_type("C<Object>"))
        assert not is_subtype(showcase_table,
                              parse_type("E<Null>"), parse_type("D<Object>"))

    def test_self_bounded_instantiation_facts(self, enum_table):
        color, enum_color = parse_type("Color"), parse_type("Enum<Color>")
        assert is_subtype(enum_table, color, enum_color)
        assert not is_subtype(enum_table, enum_color, color)
        assert not is_subtype(enum_table, OBJECT, parse_type("Enum<Object>"))

    def test_subtyping_never_invents_a_loop(self, enum_table):
        # t <: Enum<t> can only come from a declared chain, and t is
        # never structurally equal to an application of itself.
        for t in enumerate_ground(enum_table, 1):
            assert t != App("Enum", (t,))
            if is_subtype(enum_table, t, App("Enum", (t,))):
                assert t in (NULL, App("Color"))

    def test_ill_formed_operands_rejected(self, showcase_table):
        good = parse_type("C<Null>")
        for bad in (Var("T"), App("Zorp"), App("C"), App("C", (Var("T"),))):
            with pytest.raises(IllFormedType):
                is_subtype(showcase_table, bad, good)
            with pytest.raises(IllFormedType):
                is_subtype(showcase_table, good, bad)


class TestWellFormed:
    def test_accepts_ground_types(self, showcase_table):
        require_well_formed(showcase_table, parse_type("F<C<Null>>"))

    @pytest.mark.parametrize("bad", [Var("T"), App("Zorp"),
                                     App("C", (App("C"),))])
    def test_rejects_open_unknown_or_misapplied(self, bad, showcase_table):
        with pytest.raises(IllFormedType):
            require_well_formed(showcase_table, bad)

    def test_variables_in_scope_are_accepted(self, enum_table):
        require_well_formed(enum_table, App("Enum", (Var("T"),)), frozenset({"T"}))
        with pytest.raises(UnboundVariable):
            require_well_formed(enum_table, App("Enum", (Var("U"),)),
                                frozenset({"T"}))

    @pytest.mark.parametrize("bad, error", [
        (Var("T"), UnboundVariable),
        (App("C", (App("Zorp"),)), UnknownClass),
        (App("C", (App("C", (App("C"),)),)), ArityMismatch),
    ])
    def test_each_fault_has_its_own_error_and_site(self, bad, error,
                                                   showcase_table):
        message = {UnboundVariable: "unbound type variable T",
                   UnknownClass: "unknown class Zorp",
                   ArityMismatch: "class C expects 1 type argument(s), got 0"}[error]
        with pytest.raises(error) as exc:
            require_well_formed(showcase_table, bad)
        assert (str(exc.value), exc.value.site) == (message, "")
        # The same fault as the upper bound of a declaration names its site.
        k = ClassDecl("K", (TypeParamDecl("U", upper=bad),), pos=(2, 1))
        program = Program(parse_program("class C<T> {}").decls + (k,))
        with pytest.raises(error) as exc:
            build_table(program)
        assert str(exc.value) == f"{message} in class K, upper bound of U (line 2)"


class TestEnumerateGround:
    def test_depth_zero_is_the_nullary_types(self):
        table = build_table(parse_program("class C<T> {}"))
        assert enumerate_ground(table, 0) == {NULL, OBJECT}

    def test_depth_one_single_unary_class(self):
        table = build_table(parse_program("class C<T> {}"))
        expected = {NULL, OBJECT, App("C", (NULL,)), App("C", (OBJECT,))}
        assert enumerate_ground(table, 1) == expected

    def test_nullary_user_classes_count_as_depth_zero(self, enum_table):
        assert enumerate_ground(enum_table, 0) == {NULL, OBJECT, App("Color")}

    def test_counts_follow_the_recurrence(self, showcase_table):
        # n(d+1) = base + k * n(d) for k generic unary classes.
        k = 8
        counts = [len(enumerate_ground(showcase_table, d)) for d in range(3)]
        assert counts[0] == 2
        assert counts[1] == 2 + k * counts[0]
        assert counts[2] == 2 + k * counts[1]

    def test_sets_are_nested_by_depth(self, enum_table):
        d1, d2 = enumerate_ground(enum_table, 1), enumerate_ground(enum_table, 2)
        assert d1 < d2

    def test_negative_depth_rejected(self, enum_table):
        with pytest.raises(ValueError):
            enumerate_ground(enum_table, -1)

    def test_node_budget_admits_exactly_its_count(self, showcase_table,
                                                   monkeypatch):
        # The count is predicted before anything is built, so the budget
        # must match the real size: 146 nodes at depth 2.
        monkeypatch.setattr(subtyping, "MAX_GRAPH_NODES", 146)
        assert len(enumerate_ground(showcase_table, 2)) == 146
        monkeypatch.setattr(subtyping, "MAX_GRAPH_NODES", 145)
        with pytest.raises(InvalidValue, match="more than 145 ground types"):
            enumerate_ground(showcase_table, 2)

    def test_node_budget_counts_higher_arities(self, monkeypatch):
        table = build_table(parse_program("class P<A, B> {}\nclass K {}"))
        # n(0) = 3 (Null, Object, K); n(1) = 3 + 3 * 3 = 12.
        monkeypatch.setattr(subtyping, "MAX_GRAPH_NODES", 12)
        assert len(enumerate_ground(table, 1)) == 12
        with pytest.raises(InvalidValue):
            enumerate_ground(table, 2)

    @pytest.mark.parametrize("depth", [6, 10**9])
    def test_depth_past_the_budget_is_rejected(self, showcase_table, depth):
        # Showcase depth 5 (74898 nodes) fits; depth 6 would be 599186.
        with pytest.raises(InvalidValue, match=f"depth {depth} enumerates"):
            enumerate_ground(showcase_table, depth)

    def test_nullary_tables_take_any_depth(self):
        table = build_table(parse_program("class K {}"))
        assert enumerate_ground(table, 10**9) == {NULL, OBJECT, App("K")}


def _reachable(graph):
    """Reflexive-transitive closure of the edge set, by iteration."""
    reach = {n: {n} for n in graph.nodes}
    succ = {n: set() for n in graph.nodes}
    for a, b in graph.edges:
        succ[a].add(b)
    changed = True
    while changed:
        changed = False
        for n in graph.nodes:
            grown = set(reach[n])
            for m in list(grown):
                grown |= succ[m]
            for m in list(grown):
                grown |= reach[m]
            if grown != reach[n]:
                reach[n] = grown
                changed = True
    return reach


class TestGroundGraph:
    def test_depth_zero_graph_is_null_to_object(self):
        table = build_table(parse_program("class C<T> {}"))
        assert export_graph(table, 0) == (
            'digraph subtyping {\n'
            '  "Null";\n'
            '  "Object";\n'
            '  "Null" -> "Object";\n'
            '}\n'
        )

    def test_reachability_matches_subtyping(self, showcase_table, enum_table):
        for table in (showcase_table, enum_table):
            graph = ground_graph(table, 1)
            reach = _reachable(graph)
            for s in graph.nodes:
                for t in graph.nodes:
                    expected = is_subtype(table, s, t)
                    assert (t in reach[s]) == expected, \
                        f"graph and checker disagree on {render(s)} <: {render(t)}"

    def test_superclass_beyond_budget_links_to_nearest_kept(self, enum_table):
        # At depth 0 Color's superclass Enum<Color> is not a node, so the
        # edge runs to the next chain element that is.
        graph = ground_graph(enum_table, 0)
        assert (App("Color"), OBJECT) in graph.edges

    def test_null_feeds_only_minimal_nodes(self, enum_table):
        graph = ground_graph(enum_table, 1)
        null_targets = {b for a, b in graph.edges if a == NULL}
        assert App("Enum", (App("Color"),)) not in null_targets
        assert App("Color") in null_targets

    def test_dot_output_is_deterministic_and_sorted(self, showcase_table):
        first = export_graph(showcase_table, 1)
        second = export_graph(showcase_table, 1)
        assert first == second
        node_lines = [l for l in first.splitlines() if "->" not in l and '"' in l]
        assert node_lines == sorted(node_lines)
        assert first.endswith("}\n")
        assert "\r" not in first


class TestSubstitutionSoundness:
    def test_instantiation_is_below_substituted_superclass(self, showcase_table):
        args = enumerate_ground(showcase_table, 1)
        for name in "CDEFGHIJ":
            for arg in args:
                inst = App(name, (arg,))
                sup = superclass_chain(showcase_table, inst)
                first = next(sup)
                assert is_subtype(showcase_table, inst, first), \
                    f"{render(inst)} must be below its own superclass"
