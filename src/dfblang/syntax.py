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
from collections.abc import Container, Iterable, Iterator

from .errors import ParseError
from .record import Record, set_field

_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
# Lexemes: an identifier or keyword, a punctuation mark, a newline, a
# comment, or any other character that is not a blank (an error).
# Blanks fall between matches.
_LEXEME = re.compile(r"[A-Za-z][A-Za-z0-9_]*|[<>,{}\n]|//[^\n]*|[^ \t\r]")
_KINDS = {"class": "kw", "extends": "kw", "super": "kw", "<": "punct",
          ">": "punct", ",": "punct", "{": "punct", "}": "punct", "\n": None}
_LETTERS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")

# Deepest type-argument nesting the parser accepts. The tree walks over
# types recurse once per level, so the cap keeps them clear of Python's
# recursion limit.
MAX_NESTING = 200


def _check_identifier(name: str) -> None:
    if not _IDENT.fullmatch(name):
        raise ValueError(f"invalid identifier: {name!r}")


class Var(Record):
    """A reference to an in-scope type parameter."""

    __slots__ = ("name",)
    __match_args__ = ("name",)
    _checked = None  # never ground, so never marked as an App can be

    def __init__(self, name: str):
        _check_identifier(name)
        set_field(self, "name", name)

    def __str__(self) -> str:
        return self.name


class App(Record):
    """A class applied to type arguments; nullary applications are ground names.

    The hash is taken once, at construction, from the arguments' stored
    hashes, so hashing a deeply nested type never recurses.

    ``_checked`` is ``None`` when built. ``classtable.require_well_formed``
    sets it to the ``infos`` dict of the table against which the type was
    found ground and well-formed, and skips the walk when it meets that
    same dict again. It is never set by a check under a scope or by one
    that failed. ``subtyping.is_subtype`` and ``validity.is_admittable``
    read it to skip that check. Like ``_hash`` it is not a field:
    equality, hash, repr, pickling and ``match`` ignore it.
    """

    __slots__ = ("name", "args", "_hash", "_checked")
    __match_args__ = ("name", "args")

    def __init__(self, name: str, args: Iterable[TypeExpr] = ()):
        _check_identifier(name)
        args = tuple(args)
        set_field(self, "name", name)
        set_field(self, "args", args)
        set_field(self, "_hash", hash((name, args)))
        set_field(self, "_checked", None)

    @classmethod
    def of_identifier(cls, name: str, args: tuple[TypeExpr, ...] = ()) -> App:
        """``App(name, args)`` for a known identifier and a tuple of args."""
        self = cls.__new__(cls)
        set_field(self, "name", name)
        set_field(self, "args", args)
        set_field(self, "_hash", hash((name, args)))
        set_field(self, "_checked", None)
        return self

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (
            self._hash == other._hash  # type: ignore[attr-defined]
            and self.name == other.name  # type: ignore[attr-defined]
            and self.args == other.args)  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return render(self)


TypeExpr = Var | App

NULL = App("Null")
OBJECT = App("Object")


class TypeParamDecl(Record):
    """One declared type parameter with optional bounds.

    Absent bounds stay ``None`` here; the class table is what fills in
    the Null and Object defaults.
    """

    __slots__ = ("name", "lower", "upper")
    __match_args__ = ("name", "lower", "upper")

    def __init__(self, name: str, lower: TypeExpr | None = None,
                 upper: TypeExpr | None = None):
        _check_identifier(name)
        set_field(self, "name", name)
        set_field(self, "lower", lower)
        set_field(self, "upper", upper)


class ClassDecl(Record):
    """A single class declaration.

    ``pos`` records the source line and column of the ``class`` keyword
    for diagnostics; it does not participate in structural equality.
    """

    __slots__ = ("name", "params", "extends_clause", "pos")
    __match_args__ = ("name", "params", "extends_clause", "pos")

    def __init__(self, name: str, params: Iterable[TypeParamDecl] = (),
                 extends_clause: TypeExpr | None = None,
                 pos: tuple[int, int] | None = None):
        _check_identifier(name)
        params = tuple(params)
        names = [p.name for p in params]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate type parameter names in class {name}")
        set_field(self, "name", name)
        set_field(self, "params", params)
        set_field(self, "extends_clause", extends_clause)
        set_field(self, "pos", pos)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.name, self.params, self.extends_clause)
                == (other.name, other.params, other.extends_clause))  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((self.name, self.params, self.extends_clause))


class Program(Record):
    __slots__ = ("decls",)
    __match_args__ = ("decls",)

    def __init__(self, decls: Iterable[ClassDecl] = ()):
        set_field(self, "decls", tuple(decls))


# ---------------------------------------------------------------------------
# Tokenizer


def tokenize(source: str) -> list[tuple[str, str, int, int]]:
    """Split ``source`` into ``(kind, text, line, column)`` tuples.

    ``kind`` is 'ident', 'kw' or 'punct', and the list ends with
    ``("eof", "", line, column)``. Lines and columns count from 1, a tab
    or carriage return is one column, and a comment runs to the end of
    its line. At the end of input the column stays where a trailing
    comment began.
    """
    tokens: list[tuple[str, str, int, int]] = []
    append = tokens.append
    find = source.find
    kinds = _KINDS
    line, line_start, pos = 1, 0, 0
    comment_line = comment_column = 0
    # Only blanks lie between two lexemes, so each one is found at or
    # after the end of the one before it.
    for word in _LEXEME.findall(source):
        pos = find(word, pos)
        kind = kinds.get(word, "ident")
        if kind is None:  # a newline
            line += 1
            pos += 1
            line_start = pos
            continue
        if kind == "ident" and word[0] not in _LETTERS:
            if word[0] == "/" and len(word) > 1:
                comment_line, comment_column = line, pos - line_start + 1
                continue
            raise ParseError(f"unexpected character {word!r}",
                             line, pos - line_start + 1)
        append((kind, word, line, pos - line_start + 1))
        pos += len(word)
    if comment_line == line:
        column = comment_column
    else:
        column = len(source) - line_start + 1
    append(("eof", "", line, column))
    return tokens


# ---------------------------------------------------------------------------
# Parser
#
# Recursive descent over the token list. Each production takes the index
# of its first token and returns what it parsed together with the index
# just past it; it never moves past the 'eof' token. Keyword and
# punctuation texts cannot be identifiers, so a token's text alone tells
# them apart.


def _fail(tok: tuple[str, str, int, int], expected: tuple[str, ...]) -> None:
    kind, text, line, column = tok
    shown = text if kind != "eof" else "end of input"
    raise ParseError(f"unexpected {shown!r}", line, column, frozenset(expected))


def _parse_type(tokens: list[tuple[str, str, int, int]], i: int,
                scope: Container[str], depth: int = 0) -> tuple[TypeExpr, int]:
    kind, name, _, _ = tokens[i]
    if kind != "ident":
        _fail(tokens[i], ("<ident>",))
    i += 1
    _, text, line, column = tokens[i]
    if text != "<":
        return (Var(name) if name in scope else App.of_identifier(name)), i
    if depth == MAX_NESTING:
        raise ParseError(
            f"type arguments nested deeper than {MAX_NESTING} levels",
            line, column)
    args = []
    while True:
        arg, i = _parse_type(tokens, i + 1, scope, depth + 1)
        args.append(arg)
        text = tokens[i][1]
        if text != ",":
            break
    if text != ">":
        _fail(tokens[i], (">",))
    return App.of_identifier(name, tuple(args)), i + 1


def _bare_name(expr: TypeExpr, tok: tuple[str, str, int, int]) -> str:
    if isinstance(expr, App) and not expr.args:
        return expr.name
    raise ParseError(f"expected a bare parameter name, got {render(expr)!r}",
                     tok[2], tok[3])


def _parse_param(tokens: list[tuple[str, str, int, int]], i: int):
    # Either `LB extends T extends UB` (sandwich) or
    # `T [extends UB] [super LB]` (keyword form). Both start with a
    # type; two `extends` in a row is what makes it a sandwich. Bounds
    # are read before the whole parameter list is known, so they come
    # back unscoped.
    first_tok = tokens[i]
    first, i = _parse_type(tokens, i, ())
    lower = upper = None
    if tokens[i][1] == "extends":
        mid_tok = tokens[i + 1]
        mid, i = _parse_type(tokens, i + 1, ())
        if tokens[i][1] == "extends":
            name = _bare_name(mid, mid_tok)
            upper, i = _parse_type(tokens, i + 1, ())
            return name, first, upper, i
        upper = mid
    name = _bare_name(first, first_tok)
    if tokens[i][1] == "super":
        lower, i = _parse_type(tokens, i + 1, ())
    return name, lower, upper, i


def _parse_decl(tokens: list[tuple[str, str, int, int]],
                i: int) -> tuple[ClassDecl, int]:
    _, text, line, column = tokens[i]
    if text != "class":
        _fail(tokens[i], ("class",))
    pos = (line, column)
    kind, name, _, _ = tokens[i + 1]
    if kind != "ident":
        _fail(tokens[i + 1], ("<ident>",))
    i += 2
    params: list[TypeParamDecl] = []
    scope: set[str] = set()
    if tokens[i][1] == "<":
        parsed = []
        while True:
            tok = tokens[i + 1]
            pname, lower, upper, i = _parse_param(tokens, i + 1)
            if pname in scope:
                raise ParseError(f"duplicate type parameter {pname!r}",
                                 tok[2], tok[3])
            scope.add(pname)
            parsed.append((pname, lower, upper))
            text = tokens[i][1]
            if text == ">":
                break
            if text != ",":
                _fail(tokens[i], (",", ">"))
        i += 1
        params = [TypeParamDecl(pname, _scope_names(lower, scope),
                                _scope_names(upper, scope))
                  for pname, lower, upper in parsed]
    extends_clause = None
    if tokens[i][1] == "extends":
        extends_clause, i = _parse_type(tokens, i + 1, scope)
    if tokens[i][1] != "{":
        _fail(tokens[i], ("{",))
    if tokens[i + 1][1] != "}":
        _fail(tokens[i + 1], ("}",))
    return ClassDecl(name, params, extends_clause, pos), i + 2


def _scope_names(expr: TypeExpr | None, scope: set[str]) -> TypeExpr | None:
    """Rewrite nullary applications of in-scope parameter names to variables."""
    if expr is None or not scope:
        return expr
    if isinstance(expr, Var):
        return expr
    if not expr.args:
        return Var(expr.name) if expr.name in scope else expr
    return App(expr.name, [_scope_names(a, scope) for a in expr.args])


def parse_program(source: str) -> Program:
    """Parse a whole program; raises :class:`ParseError` on rejection."""
    tokens = tokenize(source)
    last = len(tokens) - 1
    decls = []
    i = 0
    while i < last:
        decl, i = _parse_decl(tokens, i)
        decls.append(decl)
    return Program(decls)


def parse_type(source: str, scope: frozenset[str] = frozenset()) -> TypeExpr:
    """Parse a single type expression.

    Bare identifiers found in ``scope`` become variables; all others
    become nullary class applications, which is the right reading for
    ground query types (the default, empty scope).
    """
    tokens = tokenize(source)
    expr, i = _parse_type(tokens, 0, scope)
    if i != len(tokens) - 1:
        _fail(tokens[i], ("end of input",))
    return expr


# ---------------------------------------------------------------------------
# Rendering (canonical text, keyword bound form)


def render(t: TypeExpr) -> str:
    """Canonical text of a type, built without recursion.

    A type substituted into a bound nests deeper than either, so the
    walk keeps its own stack of pending pieces: types still to render
    and the literal text between them.
    """
    out: list[str] = []
    pending: list[TypeExpr | str] = [t]
    while pending:
        item = pending.pop()
        if item.__class__ is str:
            out.append(item)  # type: ignore[arg-type]
            continue
        out.append(item.name)  # type: ignore[union-attr]
        args = getattr(item, "args", ())
        if args:
            out.append("<")
            pending.append(">")
            for arg in reversed(args[1:]):
                pending.append(arg)
                pending.append(", ")
            pending.append(args[0])
    return "".join(out)


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
