"""The one-pass tokenizer and parser against the character-loop reference.

The reference below is the tokenizer and parser the package shipped
before the front end was rewritten as one regular-expression scan and
one index-based recursive descent. It builds the package's own value
types, so a differential test can ask for the same ``Program`` (each
declaration's ``pos`` included), the same type, the same tokens, or the
same ``ParseError`` (message, line, column and expected set) on any
input.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import example, given, settings
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
    tokenize,
)

# ---------------------------------------------------------------------------
# Reference: the character loop and the at/peek/expect parser.

_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_KEYWORDS = frozenset({"class", "extends", "super"})
_PUNCT = frozenset({"<", ">", ",", "{", "}"})


def ref_tokenize(source: str) -> list[tuple[str, str, int, int]]:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch in _PUNCT:
            tokens.append(("punct", ch, line, col))
            i += 1
            col += 1
            continue
        m = _IDENT.match(source, i)
        if m:
            text = m.group()
            kind = "kw" if text in _KEYWORDS else "ident"
            tokens.append((kind, text, line, col))
            i = m.end()
            col += len(text)
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("eof", "", line, col))
    return tokens


class RefParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def at(self, kind, text=None):
        tok = self.peek()
        return tok[0] == kind and (text is None or tok[1] == text)

    def expect(self, kind, text=None):
        if self.at(kind, text):
            return self.advance()
        self.fail({text if text is not None else f"<{kind}>"})

    def fail(self, expected):
        kind, text, line, col = self.peek()
        shown = text if kind != "eof" else "end of input"
        raise ParseError(f"unexpected {shown!r}", line, col, frozenset(expected))

    def parse_program(self):
        decls = []
        while not self.at("eof"):
            decls.append(self.parse_decl())
        return Program(tuple(decls))

    def parse_decl(self):
        kw = self.expect("kw", "class")
        name = self.expect("ident")[1]
        params = ()
        if self.at("punct", "<"):
            params = self.parse_params()
        extends_clause = None
        if self.at("kw", "extends"):
            self.advance()
            extends_clause = self.parse_type_expr()
        self.expect("punct", "{")
        self.expect("punct", "}")
        scope = frozenset(p.name for p in params)
        params = tuple(
            TypeParamDecl(p.name, ref_scope_names(p.lower, scope),
                          ref_scope_names(p.upper, scope))
            for p in params)
        extends_clause = ref_scope_names(extends_clause, scope)
        return ClassDecl(name, params, extends_clause, pos=(kw[2], kw[3]))

    def parse_params(self):
        self.expect("punct", "<")
        params = [self.parse_param()]
        seen = {params[0].name}
        while True:
            if self.at("punct", ">"):
                self.advance()
                return tuple(params)
            if not self.at("punct", ","):
                self.fail({",", ">"})
            self.advance()
            tok = self.peek()
            param = self.parse_param()
            if param.name in seen:
                raise ParseError(f"duplicate type parameter {param.name!r}",
                                 tok[2], tok[3])
            seen.add(param.name)
            params.append(param)

    def parse_param(self):
        first_tok = self.peek()
        first = self.parse_type_expr()
        if self.at("kw", "extends"):
            self.advance()
            mid_tok = self.peek()
            mid = self.parse_type_expr()
            if self.at("kw", "extends"):
                self.advance()
                name = self.bare_name(mid, mid_tok)
                upper = self.parse_type_expr()
                return TypeParamDecl(name, lower=first, upper=upper)
            name = self.bare_name(first, first_tok)
            lower = None
            if self.at("kw", "super"):
                self.advance()
                lower = self.parse_type_expr()
            return TypeParamDecl(name, lower=lower, upper=mid)
        if self.at("kw", "super"):
            self.advance()
            name = self.bare_name(first, first_tok)
            return TypeParamDecl(name, lower=self.parse_type_expr())
        name = self.bare_name(first, first_tok)
        return TypeParamDecl(name)

    def parse_type_expr(self, depth=0):
        name = self.expect("ident")[1]
        args = ()
        if self.at("punct", "<"):
            if depth == MAX_NESTING:
                tok = self.peek()
                raise ParseError(
                    f"type arguments nested deeper than {MAX_NESTING} levels",
                    tok[2], tok[3])
            self.advance()
            collected = [self.parse_type_expr(depth + 1)]
            while self.at("punct", ","):
                self.advance()
                collected.append(self.parse_type_expr(depth + 1))
            self.expect("punct", ">")
            args = tuple(collected)
        return App(name, args)

    @staticmethod
    def bare_name(expr, tok):
        if isinstance(expr, App) and not expr.args:
            return expr.name
        raise ParseError(f"expected a bare parameter name, got {render(expr)!r}",
                         tok[2], tok[3])


def ref_scope_names(expr, scope):
    if expr is None:
        return None
    if isinstance(expr, Var):
        return expr
    if not expr.args:
        return Var(expr.name) if expr.name in scope else expr
    return App(expr.name, tuple(ref_scope_names(a, scope) for a in expr.args))


def ref_parse_program(source):
    return RefParser(ref_tokenize(source)).parse_program()


def ref_parse_type(source, scope=frozenset()):
    parser = RefParser(ref_tokenize(source))
    expr = parser.parse_type_expr()
    if not parser.at("eof"):
        parser.fail({"end of input"})
    return ref_scope_names(expr, scope)


# ---------------------------------------------------------------------------
# Inputs: grammar-built text, then mutated with the characters that matter
# to a lexer (blanks of every kind, non-ASCII, `_`- and digit-leading
# names, comment openers, punctuation and keywords out of place).

_NAMES = ("T", "U", "C", "Box", "Enum", "K_1", "a9", "x")
_JUNK = ("\t", "\r", "\f", "\v", "\n", " ", "é", "λ", "_", "_A", "9", "1x",
         "//", "/", "// c", "$", "<", ">", ",", "{", "}", "class", "extends",
         "super", "\r\n", " ", " ")


@st.composite
def type_texts(draw, depth=3):
    name = draw(st.sampled_from(_NAMES))
    if depth == 0 or not draw(st.booleans()):
        return name
    args = draw(st.lists(type_texts(depth - 1), min_size=1, max_size=3))
    return f"{name}<{', '.join(args)}>"


@st.composite
def param_texts(draw):
    name = draw(st.sampled_from(("T", "U", "V", "C")))
    form = draw(st.integers(0, 4))
    if form == 0:
        return name
    if form == 1:
        return f"{name} extends {draw(type_texts())}"
    if form == 2:
        return f"{name} super {draw(type_texts())}"
    if form == 3:
        return f"{name} extends {draw(type_texts())} super {draw(type_texts())}"
    return f"{draw(type_texts())} extends {name} extends {draw(type_texts())}"


@st.composite
def decl_texts(draw):
    sep = draw(st.sampled_from((" ", "  ", "\t", " \r", "\n")))
    text = f"class{sep}{draw(st.sampled_from(_NAMES))}"
    params = draw(st.lists(param_texts(), max_size=3))
    if params:
        text += "<" + ",".join(params) + ">"
    if draw(st.booleans()):
        text += f" extends{sep}{draw(type_texts())}"
    return text + draw(st.sampled_from((" {}", "{}", " {\t}", " {}\t// tail")))


@st.composite
def mutated(draw, base):
    text = draw(base)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 2))
        text = text[:i] + draw(st.sampled_from(_JUNK)) + text[i + cut:]
    return text


program_texts = mutated(
    st.lists(decl_texts(), max_size=5).map("\n".join)
    .flatmap(lambda s: st.sampled_from(("", "\n", "// end", "\n// end", "  "))
             .map(lambda tail: s + tail)))
query_texts = mutated(type_texts(4))
scopes = st.sets(st.sampled_from(("T", "U", "C", "x"))).map(frozenset)


def outcome(fn, *args):
    """What a call gives: its value, or the four fields of its ParseError."""
    try:
        return "ok", fn(*args)
    except ParseError as exc:
        return "error", (exc.message, exc.line, exc.column, exc.expected)


def positions(program):
    return [d.pos for d in program.decls]


REFERENCE_SETTINGS = settings(max_examples=150, deadline=None)


@REFERENCE_SETTINGS
@given(program_texts)
@example("class A {} // trailing")
@example("class A {}\t\r\f")
@example("class _A {}")
@example("class 9A {}")
@example("class \u00c4 {}")
@example("  // only a comment")
@example("class A {}\nclass B<T extends A> extends A {} // c")
@example("class P<A super B, B> {}")
@example("class A<T, T> {}")
@example("class A<T {}")
@example("class C<T>")
@example("class C<> {}")
@example("class F<C<T> extends D<T> extends C<T>> {}")
@example("class A<T super X extends Y> {}")
def test_tokens_and_programs_match_the_reference(source):
    assert outcome(tokenize, source) == outcome(ref_tokenize, source)
    new, ref = outcome(parse_program, source), outcome(ref_parse_program, source)
    assert new == ref
    if new[0] == "ok":
        assert positions(new[1]) == positions(ref[1])


@REFERENCE_SETTINGS
@given(query_texts, scopes)
@example("T", frozenset({"T"}))
@example("C<T> extra", frozenset())
@example("C<T", frozenset())
@example("", frozenset())
@example("C<" * MAX_NESTING + "Null" + ">" * MAX_NESTING, frozenset())
@example("C<" * (MAX_NESTING + 1) + "Null" + ">" * (MAX_NESTING + 1), frozenset())
def test_types_match_the_reference(source, scope):
    assert outcome(parse_type, source, scope) == outcome(ref_parse_type, source, scope)


@pytest.mark.parametrize("source, column", [
    ("class A {} // c", 12),
    ("class A {}   ", 14),
    ("class A {}\n// c", 1),
    ("", 1),
])
def test_eof_column_after_a_trailing_comment(source, column):
    assert tokenize(source)[-1][3] == column == ref_tokenize(source)[-1][3]
