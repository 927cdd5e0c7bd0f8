"""Parser, renderer, and AST behavior."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfblang.errors import ParseError
from dfblang.syntax import (
    MAX_NESTING,
    App,
    ClassDecl,
    Program,
    TypeParamDecl,
    Var,
    parse_program,
    parse_type,
    render,
    render_decl,
    render_program,
    tokenize,
)

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)


class TestTokenizer:
    def test_positions_track_lines_and_columns(self):
        tokens = tokenize("class A {}\nclass B {}")
        kw = [(line, column) for _, text, line, column in tokens
              if text == "class"]
        assert kw == [(1, 1), (2, 1)]

    def test_comments_run_to_end_of_line(self):
        tokens = tokenize("class A {} // class B {}\nclass C {}")
        names = [text for kind, text, _, _ in tokens if kind == "ident"]
        assert names == ["A", "C"]

    def test_rejects_stray_characters(self):
        with pytest.raises(ParseError) as exc:
            tokenize("class A$ {}")
        assert exc.value.line == 1
        assert exc.value.column == 8

    def test_identifiers_cannot_start_with_underscore(self):
        with pytest.raises(ParseError):
            tokenize("class _A {}")


class TestParseProgram:
    def test_plain_class(self):
        program = parse_program("class C {}")
        assert program == Program((ClassDecl("C"),))

    def test_unbounded_parameter(self):
        program = parse_program("class C<T> {}")
        assert program.decls[0].params == (TypeParamDecl("T"),)

    def test_upper_bound_mentioning_parameter(self):
        program = parse_program("class D<T extends C<T>> {}")
        assert program.decls[0].params[0].upper == App("C", (Var("T"),))

    def test_sandwich_and_keyword_forms_agree(self):
        sandwich = parse_program(
            "class C<T> {} class E<T> {} class F<E<T> extends T extends C<T>> {}")
        keyword = parse_program(
            "class C<T> {} class E<T> {} class F<T extends C<T> super E<T>> {}")
        assert sandwich == keyword
        param = sandwich.decls[2].params[0]
        assert param.lower == App("E", (Var("T"),))
        assert param.upper == App("C", (Var("T"),))

    def test_super_without_extends(self):
        program = parse_program("class B<T super C> {}")
        param = program.decls[0].params[0]
        assert param.lower == App("C")
        assert param.upper is None

    def test_sandwich_middle_must_be_bare_name(self):
        with pytest.raises(ParseError) as exc:
            parse_program("class F<C<T> extends D<T> extends C<T>> {}")
        assert "bare" in exc.value.message

    def test_extends_clause_sees_parameter_scope(self):
        program = parse_program("class G<T> extends D<T> {}")
        assert program.decls[0].extends_clause == App("D", (Var("T"),))

    def test_bare_name_not_in_scope_is_a_class(self):
        program = parse_program("class D<T extends C<Color>> {}")
        assert program.decls[0].params[0].upper == App("C", (App("Color"),))

    def test_lower_bound_may_mention_a_later_parameter_name(self):
        # Scope resolution runs after the whole parameter list is read.
        program = parse_program("class P<A super B, B> {}")
        assert program.decls[0].params[0].lower == Var("B")

    def test_body_is_required(self):
        with pytest.raises(ParseError) as exc:
            parse_program("class C<T>")
        assert "{" in exc.value.expected

    def test_duplicate_parameter_names_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_program("class C<T, T> {}")
        assert "duplicate" in exc.value.message

    def test_error_reports_position_and_expectations(self):
        with pytest.raises(ParseError) as exc:
            parse_program("class C<T {}")
        assert (exc.value.line, exc.value.column) == (1, 11)
        assert exc.value.expected == {",", ">"}

    def test_empty_program(self):
        assert parse_program("  // nothing here\n") == Program(())

    def test_multiple_parameters(self):
        program = parse_program("class M<A, B extends C<A, B>> {}")
        a, b = program.decls[0].params
        assert a == TypeParamDecl("A")
        assert b.upper == App("C", (Var("A"), Var("B")))


class TestParseType:
    def test_ground_by_default(self):
        assert parse_type("Enum<Color>") == App("Enum", (App("Color"),))

    def test_scope_turns_bare_names_into_variables(self):
        assert parse_type("C<T>", scope=frozenset({"T"})) == App("C", (Var("T"),))
        assert parse_type("T", scope=frozenset({"T"})) == Var("T")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_type("C<T> extra")

    def test_missing_close_angle(self):
        with pytest.raises(ParseError) as exc:
            parse_type("C<T")
        assert ">" in exc.value.expected

    def test_nesting_is_capped_with_a_position(self):
        deepest = "C<" * MAX_NESTING + "Null" + ">" * MAX_NESTING
        assert render(parse_type(deepest)) == deepest
        with pytest.raises(ParseError) as exc:
            parse_type("C<" + deepest + ">")
        # The offending token is the opening bracket of level 201.
        assert (exc.value.line, exc.value.column) == (1, 2 * MAX_NESTING + 2)


class TestRender:
    @pytest.mark.parametrize("text", ["Null", "Object", "Enum<Color>",
                                      "P<A, Q<B, Null>>"])
    def test_round_trips_types(self, text):
        assert render(parse_type(text)) == text

    def test_canonical_output_uses_keyword_form(self):
        program = parse_program("class F<E<T> extends T extends C<T>> {}")
        assert render_decl(program.decls[0]) == \
            "class F<T extends C<T> super E<T>> {}"

    def test_program_round_trip(self):
        source = (
            "class C<T> {}\n"
            "class D<T> extends C<T> {}\n"
            "class F<T extends C<T> super E<T>> {}\n"
        )
        program = parse_program(source)
        assert render_program(program) == source
        assert parse_program(render_program(program)) == program


# Random programs for the round-trip property. Heads and bare class
# names come from a pool disjoint from parameter names, matching the
# scoping rule the parser applies.
_PARAM_NAMES = ("T", "U", "V")
_CLASS_NAMES = ("Ca", "Cb", "Cc")


def _types(param_names: tuple[str, ...]):
    leaves = st.one_of(
        st.sampled_from(_CLASS_NAMES + ("Null", "Object")).map(App),
        *((st.sampled_from(param_names).map(Var),) if param_names else ()),
    )
    return st.recursive(
        leaves,
        lambda inner: st.builds(
            App,
            st.sampled_from(_CLASS_NAMES),
            st.lists(inner, min_size=1, max_size=2).map(tuple),
        ),
        max_leaves=4,
    )


@st.composite
def _class_decls(draw):
    name = draw(st.sampled_from(("Ka", "Kb", "Kc", "Kd")))
    count = draw(st.integers(0, len(_PARAM_NAMES)))
    scope = _PARAM_NAMES[:count]
    bound = st.none() | _types(scope)
    params = tuple(
        TypeParamDecl(p, lower=draw(bound), upper=draw(bound)) for p in scope
    )
    extends = draw(st.none() | _types(scope))
    return ClassDecl(name, params, extends)


class TestRoundTripProperty:
    @PROPERTY_SETTINGS
    @given(st.lists(_class_decls(), max_size=4).map(tuple).map(Program))
    def test_parse_of_render_is_identity(self, program):
        assert parse_program(render_program(program)) == program


class TestAstInvariants:
    def test_identifiers_validated(self):
        with pytest.raises(ValueError):
            App("")
        with pytest.raises(ValueError):
            Var("9lives")

    def test_duplicate_params_rejected_at_construction(self):
        with pytest.raises(ValueError):
            ClassDecl("C", (TypeParamDecl("T"), TypeParamDecl("T")))

    def test_types_are_hashable_and_compare_structurally(self):
        a = App("C", (App("Null"),))
        b = App("C", (App("Null"),))
        assert a == b
        assert len({a, b}) == 1

    def test_position_does_not_affect_equality(self):
        assert ClassDecl("C", pos=(1, 1)) == ClassDecl("C", pos=(7, 3))
