"""Class tables: declaration collection, checking, and substitution.

The table closes a parsed program over the two built-in classes:
``Object`` (top, default superclass, no superclass of its own) and
``Null`` (bottom, never declarable, banned from extends clauses).

Bound expressions may mention the declared parameters and the declaring
class itself; classes may reference each other in any order. Only the
extends relation must be acyclic. Absent bounds normalize to ``Null``
(lower) and ``Object`` (upper), an absent extends clause to ``Object``.

A declaration whose parameter carries the same bound below and above,
with that bound mentioning the parameter, is accepted but flagged: by
antisymmetry any argument would have to equal a type that properly
contains it, so no finite argument can ever satisfy the class.
"""

from __future__ import annotations

from collections.abc import Iterator

from .errors import DfbError
from .record import Record, set_field
from .syntax import (
    App,
    ClassDecl,
    NULL,
    OBJECT,
    Program,
    TypeExpr,
    Var,
    free_vars,
    render,
)

BUILTIN_CLASSES = ("Null", "Object")


class DuplicateClass(DfbError):
    def __init__(self, name: str):
        super().__init__(f"class {name} is already defined")
        self.name = name


class IllFormedType(DfbError):
    """A type expression with an unknown head, a wrong arity or a stray variable.

    ``site`` names the place in the source where a declaration holds the
    expression; it is empty for a query.
    """

    site = ""

    def __str__(self) -> str:
        text = super().__str__()
        return f"{text} in {self.site}" if self.site else text


class UnknownClass(IllFormedType):
    def __init__(self, name: str):
        super().__init__(f"unknown class {name}")
        self.name = name


class ArityMismatch(IllFormedType):
    def __init__(self, name: str, expected: int, got: int):
        super().__init__(
            f"class {name} expects {expected} type argument(s), got {got}")
        self.name = name
        self.expected = expected
        self.got = got


class CircularInheritance(DfbError):
    def __init__(self, cycle: tuple[str, ...]):
        path = " -> ".join(cycle + (cycle[0],))
        super().__init__(f"circular inheritance: {path}")
        self.cycle = cycle


class UnboundVariable(IllFormedType):
    def __init__(self, name: str):
        super().__init__(f"unbound type variable {name}")
        self.name = name


class InvalidExtends(DfbError):
    pass


class NoSuperclass(DfbError):
    def __init__(self, name: str):
        super().__init__(f"class {name} has no superclass")
        self.name = name


class Diagnostic(Record):
    """A non-fatal finding attached to a declaration."""

    __match_args__ = ("severity", "class_name", "message")

    def __init__(self, severity: str, class_name: str, message: str):
        set_field(self, "severity", severity)
        set_field(self, "class_name", class_name)
        set_field(self, "message", message)

    def __str__(self) -> str:
        return f"{self.severity}: class {self.class_name}: {self.message}"


class ClassInfo(Record):
    """One class as the checker sees it, bounds and superclass normalized."""

    __slots__ = ("name", "param_names", "lowers", "uppers", "extends_clause")
    __match_args__ = __slots__

    def __init__(self, name: str, param_names: tuple[str, ...],
                 lowers: tuple[TypeExpr, ...], uppers: tuple[TypeExpr, ...],
                 extends_clause: TypeExpr | None):  # None only for Object and Null
        set_field(self, "name", name)
        set_field(self, "param_names", param_names)
        set_field(self, "lowers", lowers)
        set_field(self, "uppers", uppers)
        set_field(self, "extends_clause", extends_clause)

    @property
    def arity(self) -> int:
        return len(self.param_names)


_OBJECT_INFO = ClassInfo("Object", (), (), (), None)
_NULL_INFO = ClassInfo("Null", (), (), (), None)


class ClassTable(Record):
    """All classes of a program, keyed by name, plus build-time warnings.

    ``_meets`` is :func:`chain_meet`'s memo, empty when the table is
    built. Like ``App._checked`` it is not a field: equality, hash, repr,
    pickling and ``match`` ignore it, so a rebuilt or unpickled table
    starts with an empty one and no two tables ever share one.
    """

    __slots__ = ("infos", "warnings", "_meets")
    __match_args__ = ("infos", "warnings")

    def __init__(self, infos: dict[str, ClassInfo],
                 warnings: tuple[Diagnostic, ...] = ()):
        set_field(self, "infos", infos)
        set_field(self, "warnings", warnings)
        set_field(self, "_meets", {})

    def __contains__(self, name: str) -> bool:
        return name in self.infos

    def info(self, name: str) -> ClassInfo:
        try:
            return self.infos[name]
        except KeyError:
            raise UnknownClass(name) from None

    def arity(self, name: str) -> int:
        return self.info(name).arity

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self.infos))


def _site(decl: ClassDecl, detail: str) -> str:
    where = f"class {decl.name}, {detail}"
    if decl.pos is not None:
        where += f" (line {decl.pos[0]})"
    return where


def require_well_formed(table: ClassTable, expr: TypeExpr,
                        scope: frozenset[str] = frozenset()) -> None:
    """Raise unless every head in ``expr`` is a known class at its arity
    and every variable is in ``scope``.

    The default empty scope demands a ground type, as queries do; a
    declaration passes its own parameters. A ground check that succeeds
    marks each ``App`` it passed with ``table.infos`` (``App._checked``),
    and a later check of a marked ``App`` against the same table returns
    at once, so re-checking a type, or a new type built around checked
    ones, costs only its unmarked nodes. A check under a scope, or one
    that fails, marks nothing. The mark holds the dict itself, not its
    ``id()``, so it can never match a later table; a table's ``infos``
    must not change once built. ``subtyping.is_subtype`` and
    ``validity.is_admittable`` read the mark to skip this call.
    """
    if isinstance(expr, Var):
        if expr.name not in scope:
            raise UnboundVariable(expr.name)
        return
    infos = table.infos
    if expr._checked is infos:
        return
    info = infos.get(expr.name)
    if info is None:
        raise UnknownClass(expr.name)
    if len(expr.args) != info.arity:
        raise ArityMismatch(expr.name, info.arity, len(expr.args))
    for arg in expr.args:
        require_well_formed(table, arg, scope)
    if not scope:
        set_field(expr, "_checked", infos)


def _require_well_formed_at(table: ClassTable, expr: TypeExpr,
                            scope: frozenset[str], decl: ClassDecl,
                            *detail: str) -> None:
    """require_well_formed at a site in decl, named by the words of
    detail; the site's text is built only when the check fails."""
    try:
        require_well_formed(table, expr, scope)
    except IllFormedType as exc:
        exc.site = _site(decl, " ".join(detail))
        raise


def build_table(program: Program) -> ClassTable:
    """Check a program's declarations and assemble its class table.

    The result is the same whatever the declaration order: forward and
    mutual references are fine, and warnings come out sorted by class
    name.
    """
    decls: dict[str, ClassDecl] = {}
    for decl in program.decls:
        if decl.name in BUILTIN_CLASSES or decl.name in decls:
            raise DuplicateClass(decl.name)
        decls[decl.name] = decl

    infos: dict[str, ClassInfo] = {"Object": _OBJECT_INFO, "Null": _NULL_INFO}
    for name, decl in decls.items():
        infos[name] = ClassInfo(
            name,
            tuple(p.name for p in decl.params),
            tuple(NULL if p.lower is None else p.lower for p in decl.params),
            tuple(OBJECT if p.upper is None else p.upper for p in decl.params),
            OBJECT if decl.extends_clause is None else decl.extends_clause,
        )
    table = ClassTable(infos)

    warnings: list[Diagnostic] = []
    for name, decl in decls.items():
        info = infos[name]
        scope = frozenset(info.param_names)
        for pname, lower, upper in zip(info.param_names, info.lowers, info.uppers):
            _require_well_formed_at(table, lower, scope, decl,
                                    "lower bound of", pname)
            _require_well_formed_at(table, upper, scope, decl,
                                    "upper bound of", pname)
            if (lower == upper and isinstance(lower, App)
                    and pname in free_vars(lower)):
                warnings.append(Diagnostic(
                    "warning", name,
                    f"useless declaration: no finite type argument can satisfy "
                    f"{pname}, whose lower and upper bounds are both "
                    f"{render(lower)}"))

        extends_clause = info.extends_clause
        if isinstance(extends_clause, Var):
            raise InvalidExtends(
                f"{_site(decl, 'extends clause')}: a type variable cannot "
                f"be extended")
        if extends_clause.name == "Null":
            raise InvalidExtends(
                f"{_site(decl, 'extends clause')}: Null cannot be extended")
        _require_well_formed_at(table, extends_clause, scope, decl,
                                "extends clause")

    _check_acyclic(decls, infos)
    warnings.sort(key=lambda d: (d.class_name, d.message))
    return ClassTable(infos, tuple(warnings))


def _check_acyclic(decls: dict[str, ClassDecl],
                   infos: dict[str, ClassInfo]) -> None:
    # Each class has exactly one superclass edge, so following it either
    # reaches Object or revisits a node, which pins down the cycle.
    state: dict[str, int] = {}  # 1 = on current path, 2 = done
    for start in decls:
        if state.get(start) == 2:
            continue
        path: list[str] = []
        cur = start
        while True:
            if cur == "Object" or state.get(cur) == 2:
                break
            if state.get(cur) == 1:
                cycle = tuple(path[path.index(cur):])
                raise CircularInheritance(cycle)
            state[cur] = 1
            path.append(cur)
            cur = infos[cur].extends_clause.name  # type: ignore[union-attr]
        for node in path:
            state[node] = 2


def substitute(expr: TypeExpr, mapping: dict[str, TypeExpr]) -> TypeExpr:
    """Replace variables in ``expr`` simultaneously according to ``mapping``.

    Built without recursion, as ``render`` is: a superclass type composed
    along a chain (as ``chain_meet`` keeps them) may nest far deeper than
    any type written in the source. The walk keeps its own stack of
    applications being rebuilt, each with the arguments rebuilt so far
    and those still to come; arguments are met left to right, so the
    first unbound variable raises, as in a recursive walk.
    """
    try:
        if expr.__class__ is Var:
            return mapping[expr.name]
        if not expr.args:
            return expr
        stack = [(expr.name, [], iter(expr.args))]
        while True:
            name, built, rest = stack[-1]
            for arg in rest:
                if arg.__class__ is Var:
                    built.append(mapping[arg.name])
                elif arg.args:
                    stack.append((arg.name, [], iter(arg.args)))
                    break
                else:
                    built.append(arg)
            else:  # every argument is rebuilt
                stack.pop()
                t = App.of_identifier(name, tuple(built))
                if not stack:
                    return t
                stack[-1][1].append(t)
    except KeyError as exc:
        raise UnboundVariable(exc.args[0]) from None


def mapping_for(table: ClassTable, t: App) -> tuple[ClassInfo, dict[str, TypeExpr]]:
    """``t``'s class, and the map from its parameters to ``t``'s arguments."""
    info = table.info(t.name)
    if len(t.args) != info.arity:
        raise ArityMismatch(t.name, info.arity, len(t.args))
    return info, dict(zip(info.param_names, t.args))


def superclass_of(table: ClassTable, t: App) -> TypeExpr:
    """The direct superclass of ``t``, with ``t``'s arguments substituted in.

    ``Object`` has none, and ``Null`` sits below everything rather than
    on a declared chain; both raise :class:`NoSuperclass`.
    """
    info, mapping = mapping_for(table, t)
    if info.extends_clause is None:
        raise NoSuperclass(t.name)
    return substitute(info.extends_clause, mapping)


def superclass_chain(table: ClassTable, t: TypeExpr) -> Iterator[TypeExpr]:
    """Successive superclasses of ``t``, ending with Object; empty for Null."""
    assert isinstance(t, App)
    cur = t
    while cur.name not in ("Object", "Null"):
        cur = superclass_of(table, cur)
        yield cur


def bounds_of(table: ClassTable, t: App) -> list[tuple[TypeExpr, TypeExpr]]:
    """Per-parameter (lower, upper) bounds of ``t``, at ``t``'s arguments.

    The substitution is simultaneous, so a bound that mentions several
    parameters sees all of the arguments at once; nullary bounds are kept.
    """
    info, mapping = mapping_for(table, t)
    return [
        (substitute(lo, mapping) if lo.__class__ is Var or lo.args else lo,
         substitute(hi, mapping) if hi.__class__ is Var or hi.args else hi)
        for lo, hi in zip(info.lowers, info.uppers)
    ]


def chain_meet(table: ClassTable, name: str, head: str) -> TypeExpr | None:
    """The type at which the superclass chain of ``name<P1..Pk>`` meets
    class ``head``, open over ``name``'s own parameters ``P1..Pk``;
    ``None`` when the chain reaches Object without meeting it.

    The chain starts at the direct superclass, so a class never meets
    itself. Substituting arguments for ``P1..Pk`` in the answer gives the
    type the chain of ``name<args>`` reaches, because substitution
    composes and acyclic ``extends`` puts ``head`` on a chain at most
    once. The first call for a pair walks :func:`superclass_chain` up to
    ``head``; the answer is kept in ``table._meets``, one entry per pair
    of names.
    """
    key = (name, head)
    meets = table._meets
    try:
        return meets[key]
    except KeyError:
        pass
    start = App(name, tuple(Var(p) for p in table.info(name).param_names))
    found = meets[key] = next(
        (s for s in superclass_chain(table, start) if s.name == head), None)
    return found
