"""Chain-walk subtyping, ground enumeration, and the exported graph."""

from __future__ import annotations

import pickle
import time
from itertools import product

import pytest

from conftest import SHOWCASE_SRC, walk_is_subtype
from dfblang.classtable import (
    ArityMismatch,
    IllFormedType,
    UnboundVariable,
    UnknownClass,
    build_table,
    superclass_chain,
)
from dfblang import classtable, subtyping, validity
from dfblang.errors import InvalidValue
from dfblang.subtyping import (
    enumerate_ground,
    export_graph,
    ground_graph,
    is_subtype,
    require_well_formed,
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


class TestCheckedMark:
    """``require_well_formed`` skips an ``App`` it already found ground and
    well-formed against the same table, and only then."""

    def test_a_type_checked_against_one_table_is_rechecked_against_another(self):
        # Through the check itself and through its two readers, which
        # skip it only on a type marked against the very same table.
        t = parse_type("B<B<Object>>")
        require_well_formed(build_table(parse_program("class B<T> {}")), t)
        for source, error, holder in (
                ("class C {}", UnknownClass, None),
                ("class C<T> {}", UnknownClass, App("C", (t,))),
                ("class B<S, T> {}", ArityMismatch, App("B", (t, NULL)))):
            table = build_table(parse_program(source))
            with pytest.raises(error):
                require_well_formed(table, t)
            with pytest.raises(error):
                is_subtype(table, t, OBJECT)
            with pytest.raises(error):
                is_subtype(table, NULL, t)
            if holder is not None:
                assert not validity.is_admittable(table, holder)

    def test_a_check_under_a_scope_leaves_no_mark(self, showcase_table):
        t = App("C", (Var("T"),))
        require_well_formed(showcase_table, t, frozenset({"T"}))
        with pytest.raises(UnboundVariable):
            require_well_formed(showcase_table, t)
        ground = parse_type("C<Null>")
        require_well_formed(showcase_table, ground, frozenset({"T"}))
        assert ground._checked is None

    def test_a_failed_check_fails_again(self, showcase_table):
        for text, error in (("C<C<Zorp>>", UnknownClass),
                            ("C<D<Null>, C<C>>", ArityMismatch),
                            ("C<C<C>>", ArityMismatch)):
            t = parse_type(text)
            for _ in range(2):
                with pytest.raises(error):
                    require_well_formed(showcase_table, t)

    def test_check_type_validates_in_linear_time(self, monkeypatch):
        calls = 0
        original = classtable.require_well_formed

        def counting(*args):
            nonlocal calls
            calls += 1
            return original(*args)

        for module in (classtable, subtyping, validity):
            monkeypatch.setattr(module, "require_well_formed", counting)
        table = build_table(parse_program("class B<T> {}"))
        counts = {}
        for depth in (100, 199):
            calls = 0
            verdict = validity.check_type(
                table, parse_type("B<" * depth + "Object" + ">" * depth))
            assert verdict.is_valid
            counts[depth] = calls
        # Linear in depth; re-validating each query's operands in full
        # would be quadratic (about 3.9 times the calls here).
        assert counts[199] <= 2.1 * counts[100], counts


class TestChainMemo:
    """``is_subtype`` answers from ``chain_meet``'s per-table memo of
    where a class's open chain meets a head class."""

    def test_agrees_with_the_walk_on_all_pairs_at_depth_2(self):
        table = build_table(parse_program(SHOWCASE_SRC))
        nodes = sorted(enumerate_ground(table, 2), key=render)
        assert len(nodes) == 146
        for s in nodes:
            for t in nodes:
                assert is_subtype(table, s, t) == walk_is_subtype(table, s, t), (
                    render(s), render(t))
        # One entry per pair of head names asked, not per pair of types.
        assert 0 < len(table._meets) <= len(table.infos) ** 2

    def test_memo_is_open_over_the_class_parameters(self):
        table = build_table(parse_program(SHOWCASE_SRC))
        assert classtable.chain_meet(table, "E", "C") == App("C", (Var("T"),))
        assert classtable.chain_meet(table, "E", "E") is None
        assert classtable.chain_meet(table, "C", "E") is None
        assert table._meets == {("E", "C"): App("C", (Var("T"),)),
                                ("E", "E"): None, ("C", "E"): None}

    def test_tables_from_different_texts_keep_their_own_answers(self):
        with_edge = build_table(parse_program("class C {}\nclass B extends C {}"))
        without = build_table(parse_program("class C {}\nclass B {}"))
        b, c = App("B"), App("C")
        for _ in range(3):
            assert is_subtype(with_edge, b, c) is True
            assert is_subtype(without, b, c) is False
        same = build_table(parse_program("class C {}\nclass B extends C {}"))
        assert same == with_edge and same._meets is not with_edge._meets
        assert same._meets == {}

    def test_equality_repr_hash_and_pickling_ignore_the_memo(self):
        table = build_table(parse_program(SHOWCASE_SRC))
        fresh = build_table(parse_program(SHOWCASE_SRC))

        def hash_or_error(value):
            try:
                return hash(value)
            except TypeError:
                return TypeError

        before = (repr(table), hash_or_error(table))
        s, t = parse_type("E<D<Null>>"), parse_type("C<D<Null>>")
        assert is_subtype(table, s, t)
        assert table._meets
        assert table == fresh and not table != fresh
        assert (repr(table), hash_or_error(table)) == before
        assert repr(fresh) == before[0]
        back = pickle.loads(pickle.dumps(table))
        assert back == table and back._meets == {}
        assert is_subtype(back, s, t)
        assert not is_subtype(back, t, s)
        assert not is_subtype(back, s, parse_type("C<D<Object>>"))

    def test_a_long_nullary_chain_is_walked_without_recursion(self):
        n = 3000
        text = "".join(f"class N{i} extends N{i + 1} {{}}\n" for i in range(n - 1))
        table = build_table(parse_program(text + f"class N{n - 1} {{}}\n"))
        bottom, top = App("N0"), App(f"N{n - 1}")
        start = time.perf_counter()
        assert is_subtype(table, bottom, top)
        assert not is_subtype(table, top, bottom)
        assert not is_subtype(table, bottom, NULL)
        assert time.perf_counter() - start < 1.0


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

    def test_character_budget_admits_exactly_its_total(self, showcase_table,
                                                       monkeypatch):
        # Predicted from the counts and arities before anything is built,
        # so the budget must match the renderings' real total.
        for table, depth in ((showcase_table, 2), (build_table(parse_program(
                "class P<A, B> {}\nclass K {}\nclass Long<X, Y, Z> {}")), 1)):
            total = sum(len(render(t)) for t in enumerate_ground(table, depth))
            monkeypatch.setattr(subtyping, "MAX_GRAPH_CHARS", total)
            assert len(enumerate_ground(table, depth)) > 0
            monkeypatch.setattr(subtyping, "MAX_GRAPH_CHARS", total - 1)
            with pytest.raises(InvalidValue,
                               match=f"more than {total - 1} characters"):
                enumerate_ground(table, depth)

    def test_character_budget_refuses_deep_types_over_a_wide_table(self):
        # Few nodes per level, but each level renders every type one
        # level deeper: 50 702 nodes at depth 100, under the node budget.
        table = _wide_table()
        for depth in (44, 100):
            with pytest.raises(InvalidValue, match=f"depth {depth} renders more"):
                enumerate_ground(table, depth)

    @pytest.mark.parametrize("depth", [6, 10**9])
    def test_depth_past_the_budget_is_rejected(self, showcase_table, depth):
        # Showcase depth 5 (74898 nodes) fits; depth 6 would be 599186.
        with pytest.raises(InvalidValue, match=f"depth {depth} enumerates"):
            enumerate_ground(showcase_table, depth)

    def test_nullary_tables_take_any_depth(self):
        table = build_table(parse_program("class K {}"))
        assert enumerate_ground(table, 10**9) == {NULL, OBJECT, App("K")}

    def test_each_type_is_built_once(self, showcase_table, monkeypatch):
        built = []

        def counting(name, args=()):
            built.append(args)
            return App(name, args)

        monkeypatch.setattr(subtyping, "App", counting)
        for table, depth in ((showcase_table, 3), (_wide_table(), 20),
                             (build_table(parse_program(BINARY_SRC)), 2)):
            base = enumerate_ground(table, 0)
            built.clear()
            nodes = enumerate_ground(table, depth)
            assert len([args for args in built if args]) == len(nodes - base)
            assert len(built) == len(nodes)

    def test_agrees_with_regrowing_every_level(self, showcase_table,
                                               enum_table):
        for table, depth in ((showcase_table, 3), (enum_table, 4),
                             (_wide_table(), 10),
                             (build_table(parse_program(BINARY_SRC)), 2)):
            for d in range(depth + 1):
                assert enumerate_ground(table, d) == _regrown(table, d)


# A binary class beside a unary and a nullary one.
BINARY_SRC = "class P<A, B> {}\nclass U<T extends U<T>> {}\nclass K {}\n"


def _wide_table():
    """``class Cc<T> {}`` beside 500 nullary classes."""
    text = "class Cc<T> {}\n" + "".join(f"class N{i} {{}}\n" for i in range(500))
    return build_table(parse_program(text))


def _regrown(table, depth):
    """Ground types to ``depth`` by rebuilding every lower level at each
    depth: the reference ``enumerate_ground`` must equal."""
    base = {NULL, OBJECT}
    generic = []
    for name in table.names():
        if table.arity(name) == 0:
            base.add(App(name))
        else:
            generic.append((name, table.arity(name)))
    current = set(base)
    for _ in range(depth if generic else 0):
        grown = set(base)
        for name, arity in generic:
            for args in product(current, repeat=arity):
                grown.add(App(name, args))
        current = grown
    return current


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

    def test_each_node_is_rendered_once(self, showcase_table, monkeypatch):
        rendered = 0

        def counting(t):
            nonlocal rendered
            rendered += 1
            return render(t)

        monkeypatch.setattr(subtyping, "render", counting)
        dot = export_graph(showcase_table, 2)
        assert rendered == len(ground_graph(showcase_table, 2).nodes) == 146
        assert dot.count(";\n") - dot.count("->") == 146

    def test_dot_output_sorts_nodes_and_edges_by_their_text(self, enum_table):
        for table, depth in ((enum_table, 2),
                             (build_table(parse_program(BINARY_SRC)), 2)):
            graph = ground_graph(table, depth)
            lines = ["digraph subtyping {"]
            for node in sorted(graph.nodes, key=render):
                lines.append(f'  "{render(node)}";')
            for src, dst in sorted(graph.edges,
                                   key=lambda e: (render(e[0]), render(e[1]))):
                lines.append(f'  "{render(src)}" -> "{render(dst)}";')
            lines.append("}")
            assert export_graph(table, depth) == "\n".join(lines) + "\n"


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
