"""Surface syntax for the bounded-generics language.

A program is a sequence of class declarations. Each declaration may
take type parameters, each parameter may carry a lower and an upper
bound, and the whole class may name a superclass:

    class C<T> {}
    class D<T extends C<T>> {}
    class F<E<T> extends T extends C<T>> {}     // sandwich form
    class F<T extends C<T> super E<T>> {}       // keyword form

The two bound spellings above declare the same parameter. The sandwich
form is accepted only when its middle term is a bare parameter name;
the keyword form is what :func:`render_program` emits. Bodies are
literally ``{}``, comments run from ``//`` to end of line.

Inside a declaration, a bare identifier that matches one of the
declaration's own parameter names parses as a type variable; every
other bare identifier is a nullary class application. That resolution
happens after the whole parameter list is known, so a sandwich bound
may mention the parameter it precedes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, Union

from .errors import ParseError

_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_KEYWORDS = frozenset({"class", "extends", "super"})
_PUNCT = frozenset({"<", ">", ",", "{", "}"})

# Deepest type-argument nesting the parser accepts. The tree walks over
# types recurse once per level, so the cap keeps them clear of Python's
# recursion limit.
MAX_NESTING = 200


def _check_identifier(name: str) -> None:
    if not _IDENT.fullmatch(name):
        raise ValueError(f"invalid identifier: {name!r}")


@dataclass(frozen=True)
class Var:
    """A reference to an in-scope type parameter."""

    name: str

    def __post_init__(self) -> None:
        _check_identifier(self.name)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class App:
    """A class applied to type arguments; nullary applications are ground names."""

    name: str
    args: tuple["TypeExpr", ...] = ()

    def __post_init__(self) -> None:
        _check_identifier(self.name)
        object.__setattr__(self, "args", tuple(self.args))

    def __str__(self) -> str:
        return render(self)


TypeExpr = Union[Var, App]

NULL = App("Null")
OBJECT = App("Object")


@dataclass(frozen=True)
class TypeParamDecl:
    """One declared type parameter with optional bounds.

    Absent bounds stay ``None`` here; the class table is what fills in
    the Null and Object defaults.
    """

    name: str
    lower: TypeExpr | None = None
    upper: TypeExpr | None = None

    def __post_init__(self) -> None:
        _check_identifier(self.name)


@dataclass(frozen=True)
class ClassDecl:
    """A single class declaration.

    ``pos`` records the source line and column of the ``class`` keyword
    for diagnostics; it does not participate in structural equality.
    """

    name: str
    params: tuple[TypeParamDecl, ...] = ()
    extends_clause: TypeExpr | None = None
    pos: tuple[int, int] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        _check_identifier(self.name)
        object.__setattr__(self, "params", tuple(self.params))
        names = [p.name for p in self.params]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate type parameter names in class {self.name}")


@dataclass(frozen=True)
class Program:
    decls: tuple[ClassDecl, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "decls", tuple(self.decls))


# ---------------------------------------------------------------------------
# Tokenizer


@dataclass(frozen=True)
class Token:
    kind: str  # 'ident' | 'kw' | 'punct' | 'eof'
    text: str
    line: int
    column: int


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
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
            tokens.append(Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        m = _IDENT.match(source, i)
        if m:
            text = m.group()
            kind = "kw" if text in _KEYWORDS else "ident"
            tokens.append(Token(kind, text, line, col))
            i = m.end()
            col += len(text)
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def expect(self, kind: str, text: str | None = None) -> Token:
        if self.at(kind, text):
            return self.advance()
        expected = text if text is not None else f"<{kind}>"
        self.fail({expected})

    def fail(self, expected: set[str]) -> None:
        tok = self.peek()
        shown = tok.text if tok.kind != "eof" else "end of input"
        raise ParseError(
            f"unexpected {shown!r}", tok.line, tok.column, frozenset(expected)
        )

    # -- grammar productions ------------------------------------------------

    def parse_program(self) -> Program:
        decls = []
        while not self.at("eof"):
            decls.append(self.parse_decl())
        return Program(tuple(decls))

    def parse_decl(self) -> ClassDecl:
        kw = self.expect("kw", "class")
        name = self.expect("ident").text
        params: tuple[TypeParamDecl, ...] = ()
        if self.at("punct", "<"):
            params = self.parse_params()
        extends_clause: TypeExpr | None = None
        if self.at("kw", "extends"):
            self.advance()
            extends_clause = self.parse_type_expr()
        self.expect("punct", "{")
        self.expect("punct", "}")
        # Bound expressions were parsed before the full parameter list was
        # known, so rebind bare names to the declaration's scope now.
        scope = frozenset(p.name for p in params)
        params = tuple(
            TypeParamDecl(
                p.name, _scope_names(p.lower, scope), _scope_names(p.upper, scope)
            )
            for p in params
        )
        extends_clause = _scope_names(extends_clause, scope)
        return ClassDecl(name, params, extends_clause, pos=(kw.line, kw.column))

    def parse_params(self) -> tuple[TypeParamDecl, ...]:
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
                raise ParseError(
                    f"duplicate type parameter {param.name!r}", tok.line, tok.column
                )
            seen.add(param.name)
            params.append(param)

    def parse_param(self) -> TypeParamDecl:
        # Either `LB extends T extends UB` (sandwich) or
        # `T [extends UB] [super LB]` (keyword form). Both start with a
        # type; two `extends` in a row is what makes it a sandwich.
        first_tok = self.peek()
        first = self.parse_type_expr()
        if self.at("kw", "extends"):
            self.advance()
            mid_tok = self.peek()
            mid = self.parse_type_expr()
            if self.at("kw", "extends"):
                self.advance()
                name = self._bare_name(mid, mid_tok, "parameter name")
                upper = self.parse_type_expr()
                return TypeParamDecl(name, lower=first, upper=upper)
            name = self._bare_name(first, first_tok, "parameter name")
            lower = None
            if self.at("kw", "super"):
                self.advance()
                lower = self.parse_type_expr()
            return TypeParamDecl(name, lower=lower, upper=mid)
        if self.at("kw", "super"):
            self.advance()
            name = self._bare_name(first, first_tok, "parameter name")
            return TypeParamDecl(name, lower=self.parse_type_expr())
        name = self._bare_name(first, first_tok, "parameter name")
        return TypeParamDecl(name)

    def parse_type_expr(self, depth: int = 0) -> TypeExpr:
        name = self.expect("ident").text
        args: tuple[TypeExpr, ...] = ()
        if self.at("punct", "<"):
            if depth == MAX_NESTING:
                tok = self.peek()
                raise ParseError(
                    f"type arguments nested deeper than {MAX_NESTING} levels",
                    tok.line, tok.column)
            self.advance()
            collected = [self.parse_type_expr(depth + 1)]
            while self.at("punct", ","):
                self.advance()
                collected.append(self.parse_type_expr(depth + 1))
            self.expect("punct", ">")
            args = tuple(collected)
        return App(name, args)

    @staticmethod
    def _bare_name(expr: TypeExpr, tok: Token, what: str) -> str:
        if isinstance(expr, App) and not expr.args:
            return expr.name
        raise ParseError(f"expected a bare {what}, got {render(expr)!r}",
                         tok.line, tok.column)


def _scope_names(expr: TypeExpr | None, scope: frozenset[str]) -> TypeExpr | None:
    """Rewrite nullary applications of in-scope parameter names to variables."""
    if expr is None:
        return None
    if isinstance(expr, Var):
        return expr
    if not expr.args:
        return Var(expr.name) if expr.name in scope else expr
    return App(expr.name, tuple(_scope_names(a, scope) for a in expr.args))


def parse_program(source: str) -> Program:
    """Parse a whole program; raises :class:`ParseError` on rejection."""
    parser = _Parser(tokenize(source))
    return parser.parse_program()


def parse_type(source: str, scope: frozenset[str] = frozenset()) -> TypeExpr:
    """Parse a single type expression.

    Bare identifiers found in ``scope`` become variables; all others
    become nullary class applications, which is the right reading for
    ground query types (the default, empty scope).
    """
    parser = _Parser(tokenize(source))
    expr = parser.parse_type_expr()
    if not parser.at("eof"):
        parser.fail({"end of input"})
    return _scope_names(expr, scope)


# ---------------------------------------------------------------------------
# Rendering (canonical text, keyword bound form)


def render(t: TypeExpr) -> str:
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return t.name
    return f"{t.name}<{', '.join(render(a) for a in t.args)}>"


def render_param(p: TypeParamDecl) -> str:
    text = p.name
    if p.upper is not None:
        text += f" extends {render(p.upper)}"
    if p.lower is not None:
        text += f" super {render(p.lower)}"
    return text


def render_decl(d: ClassDecl) -> str:
    text = f"class {d.name}"
    if d.params:
        text += "<" + ", ".join(render_param(p) for p in d.params) + ">"
    if d.extends_clause is not None:
        text += f" extends {render(d.extends_clause)}"
    return text + " {}"


def render_program(p: Program) -> str:
    return "".join(render_decl(d) + "\n" for d in p.decls)


def free_vars(t: TypeExpr | None) -> Iterator[str]:
    """Yield variable names in ``t`` in left-to-right order."""
    if t is None:
        return
    if isinstance(t, Var):
        yield t.name
    else:
        for a in t.args:
            yield from free_vars(a)
