"""Class table construction, diagnostics, and substitution."""

from __future__ import annotations

import random
import sys

import pytest

from conftest import ENUM_SRC, SHOWCASE_SRC, USELESS_SRC
from dfblang.classtable import (
    ArityMismatch,
    CircularInheritance,
    DuplicateClass,
    IllFormedType,
    InvalidExtends,
    NoSuperclass,
    UnboundVariable,
    UnknownClass,
    bounds_of,
    build_table,
    substitute,
    superclass_of,
)
from dfblang.syntax import (
    App,
    ClassDecl,
    NULL,
    OBJECT,
    Program,
    TypeExpr,
    TypeParamDecl,
    Var,
    parse_program,
    parse_type,
)


class TestBuildTable:
    def test_builtins_always_present(self):
        table = build_table(Program(()))
        assert "Object" in table
        assert "Null" in table
        assert table.arity("Object") == 0

    def test_showcase_program_builds(self, showcase_table):
        assert set("CDEFGHIJ") < set(showcase_table.names())

    def test_absent_pieces_normalize(self, showcase_table):
        info = showcase_table.info("C")
        assert info.lowers == (NULL,)
        assert info.uppers == (OBJECT,)
        assert info.extends_clause == OBJECT

    def test_bounds_may_mention_the_declaring_class(self, enum_table):
        info = enum_table.info("Enum")
        assert info.uppers == (App("Enum", (Var("T"),)),)

    def test_forward_references_are_fine(self, showcase_table):
        # H's bounds lean on J, declared two classes later.
        info = showcase_table.info("H")
        assert info.lowers == (App("J", (Var("T"),)),)

    def test_declaration_order_does_not_matter(self):
        decls = list(parse_program(SHOWCASE_SRC).decls)
        reference = build_table(Program(tuple(decls)))
        rng = random.Random(11)
        for _ in range(5):
            rng.shuffle(decls)
            assert build_table(Program(tuple(decls))) == reference

    def test_duplicate_class(self):
        with pytest.raises(DuplicateClass):
            build_table(parse_program("class A {} class A {}"))

    @pytest.mark.parametrize("name", ["Object", "Null"])
    def test_builtins_cannot_be_redeclared(self, name):
        with pytest.raises(DuplicateClass):
            build_table(parse_program(f"class {name} {{}}"))

    def test_unknown_class_in_bound(self):
        with pytest.raises(UnknownClass) as exc:
            build_table(parse_program("class A<T extends Mystery<T>> {}"))
        assert exc.value.name == "Mystery"
        assert "upper bound of T" in exc.value.site
        assert isinstance(exc.value, IllFormedType)

    def test_arity_mismatch_in_extends(self):
        with pytest.raises(ArityMismatch) as exc:
            build_table(parse_program("class C<T> {} class A extends C {}"))
        assert (exc.value.expected, exc.value.got) == (1, 0)
        assert isinstance(exc.value, IllFormedType)

    def test_circular_inheritance(self):
        with pytest.raises(CircularInheritance) as exc:
            build_table(parse_program("class A extends B {} class B extends A {}"))
        assert exc.value.cycle == ("A", "B")

    def test_self_extension_is_a_cycle(self):
        with pytest.raises(CircularInheritance) as exc:
            build_table(parse_program("class A extends A {}"))
        assert exc.value.cycle == ("A",)

    def test_mutual_bounds_are_not_a_cycle(self):
        # Only the extends relation must be acyclic; bounds may be mutual.
        src = "class A<T extends B<T>> {} class B<T extends A<T>> {}"
        table = build_table(parse_program(src))
        assert table.info("A").extends_clause == OBJECT

    def test_unbound_variable_in_handwritten_program(self):
        decl = ClassDecl("A", (TypeParamDecl("T", upper=Var("Z")),))
        with pytest.raises(UnboundVariable) as exc:
            build_table(Program((decl,)))
        assert exc.value.name == "Z"
        assert isinstance(exc.value, IllFormedType)

    def test_first_fault_in_declaration_order_is_reported(self):
        src = ("class A<T extends C<Zorp>> extends C {}\n"
               "class C<T> {}\n")
        with pytest.raises(UnknownClass) as exc:
            build_table(parse_program(src))
        assert str(exc.value) == (
            "unknown class Zorp in class A, upper bound of T (line 1)")

    def test_null_cannot_be_extended(self):
        with pytest.raises(InvalidExtends):
            build_table(parse_program("class A extends Null {}"))

    def test_type_variables_cannot_be_extended(self):
        with pytest.raises(InvalidExtends):
            build_table(parse_program("class A<T> extends T {}"))

    def test_null_allowed_inside_bounds(self):
        table = build_table(parse_program("class A<T super Null> {}"))
        assert table.info("A").lowers == (NULL,)


class TestWarnings:
    def test_equal_self_mentioning_bounds_warn(self, useless_table):
        assert len(useless_table.warnings) == 1
        diag = useless_table.warnings[0]
        assert diag.severity == "warning"
        assert diag.class_name == "Fx"
        assert "useless" in diag.message

    def test_warned_declaration_still_usable(self, useless_table):
        assert useless_table.arity("Fx") == 1

    def test_showcase_and_enum_programs_are_clean(self):
        for src in (SHOWCASE_SRC, ENUM_SRC):
            assert build_table(parse_program(src)).warnings == ()

    def test_equal_ground_bounds_do_not_warn(self):
        # T must equal Color exactly; restrictive, but satisfiable.
        src = "class Color {} class A<T extends Color super Color> {}"
        assert build_table(parse_program(src)).warnings == ()

    def test_parameter_bounded_by_itself_does_not_warn(self):
        table = build_table(parse_program("class A<T extends T super T> {}"))
        assert table.warnings == ()

    def test_different_self_mentioning_bounds_do_not_warn(self, showcase_table):
        assert showcase_table.warnings == ()


class TestSubstitute:
    def test_replaces_variables(self):
        expr = parse_type("C<T, U>", scope=frozenset({"T", "U"}))
        result = substitute(expr, {"T": App("X"), "U": NULL})
        assert result == parse_type("C<X, Null>")

    def test_missing_mapping_entry(self):
        with pytest.raises(UnboundVariable):
            substitute(Var("T"), {})

    def test_first_unbound_variable_from_the_left_raises(self):
        expr = parse_type("C<D<U>, V>", scope=frozenset({"U", "V"}))
        with pytest.raises(UnboundVariable) as info:
            substitute(expr, {})
        assert info.value.name == "U"

    def test_types_deeper_than_the_recursion_limit(self):
        depth = 5 * sys.getrecursionlimit()
        expr: TypeExpr = Var("T")
        for _ in range(depth):
            expr = App("W", (expr,))
        result = substitute(App("C", (expr, Var("T"))), {"T": NULL})
        assert result.args[1] == NULL
        inner = result.args[0]
        for _ in range(depth):
            assert inner.name == "W"
            (inner,) = inner.args
        assert inner == NULL


class TestSuperclassOf:
    def test_declared_chain(self, showcase_table):
        x = App("X")
        assert superclass_of(showcase_table, App("E", (x,))) == App("D", (x,))
        assert superclass_of(showcase_table, App("D", (x,))) == App("C", (x,))
        assert superclass_of(showcase_table, App("C", (x,))) == OBJECT

    def test_nongeneric_superclass_substitutes_nothing(self, enum_table):
        assert superclass_of(enum_table, App("Color")) == App("Enum", (App("Color"),))

    @pytest.mark.parametrize("name", ["Object", "Null"])
    def test_roots_have_no_superclass(self, name, showcase_table):
        with pytest.raises(NoSuperclass):
            superclass_of(showcase_table, App(name))

    def test_arity_checked(self, showcase_table):
        with pytest.raises(ArityMismatch):
            superclass_of(showcase_table, App("C", ()))

    def test_unknown_class(self, showcase_table):
        with pytest.raises(UnknownClass):
            superclass_of(showcase_table, App("Zorp", ()))


class TestBoundsOf:
    def test_doubly_bounded_parameter(self, showcase_table):
        x = App("X")
        assert bounds_of(showcase_table, App("F", (x,))) == [
            (App("E", (x,)), App("C", (x,)))
        ]

    def test_self_bounded_upper(self, enum_table):
        color = App("Color")
        assert bounds_of(enum_table, App("Enum", (color,))) == [
            (NULL, App("Enum", (color,)))
        ]

    def test_nullary_class_has_no_bounds(self, enum_table):
        assert bounds_of(enum_table, App("Color")) == []

    def test_arity_checked(self, showcase_table):
        with pytest.raises(ArityMismatch):
            bounds_of(showcase_table, App("F", ()))

    def test_unknown_class(self, showcase_table):
        with pytest.raises(UnknownClass):
            bounds_of(showcase_table, App("Zorp", ()))

    def test_substitution_is_simultaneous(self):
        # The argument for A reuses the name B; a sequential substitution
        # would rewrite it again, a simultaneous one leaves it alone.
        src = "class Pair<X, Y> {} class M<A extends Pair<A, B>, B> {}"
        table = build_table(parse_program(src))
        lo, hi = bounds_of(table, App("M", (Var("B"), App("X"))))[0]
        assert hi == App("Pair", (Var("B"), App("X")))
        assert lo == NULL
