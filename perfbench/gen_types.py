"""Seeded generator for dfblang class tables and type queries, plus an
independent subtype and validity oracle.

The generated program mixes the shapes that make the checker work:

* ``N{c}_{j}``: long chains of nullary classes (``N0_7 extends N0_6``).
* ``U{c}_{j}<T>``: unary chains; ``P{c}_{j}<A, B>``: binary chains whose
  ``extends`` clause swaps the two arguments at every step, so each chain
  step needs a real substitution.
* ``Box{c}<T extends N{c}_0>`` (extends far down ``N{c}``) and
  ``Duo{c}<A extends N{c}_0, B>`` (extends a ``P{c}`` link): unary and
  binary containers whose bounds are chain roots, so every nesting level
  costs a chain walk.
* ``Fb{c}<T extends Fb{c}<T>>`` with members ``Fm{c}_0 extends
  Fb{c}<Fm{c}_0>`` and a chain below them: F-bounded parameters.
* ``Sw{c}`` (sandwich spelling, upper bound F-bounded) and ``Sl{c}``
  (keyword spelling, lower bound ``Wr{c}<T>`` mentions the parameter):
  doubly bounded self-referential parameters.
* ``Q{c}<T extends P{c}_0<N{c}_0, N{c}_1>>``: a bound reached only through
  the swapping binary chain.

Types are plain tuples here, ``(name, args)``, and the oracle below is
written from the language definition in the README; it shares no code
with ``dfblang``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

NULL = ("Null", ())
OBJECT = ("Object", ())


def render(t) -> str:
    name, args = t
    if not args:
        return name
    return f"{name}<{', '.join(render(a) for a in args)}>"


def arity_total(t) -> int:
    """Sum of the arities of every application in ``t``."""
    total, stack = 0, [t]
    while stack:
        name, args = stack.pop()
        total += len(args)
        stack.extend(args)
    return total


@dataclass
class Cls:
    name: str
    params: tuple = ()  # (pname, lower | None, upper | None, spelling)
    ext: tuple | None = None

    def source(self) -> str:
        text = f"class {self.name}"
        if self.params:
            parts = []
            for pname, lo, hi, spelling in self.params:
                if spelling == "sandwich":
                    parts.append(f"{_expr(lo)} extends {pname} extends {_expr(hi)}")
                    continue
                part = pname
                if hi is not None:
                    part += f" extends {_expr(hi)}"
                if lo is not None:
                    part += f" super {_expr(lo)}"
                parts.append(part)
            text += "<" + ", ".join(parts) + ">"
        if self.ext is not None:
            text += f" extends {_expr(self.ext)}"
        return text + " {}"


def _expr(e) -> str:
    # A bound or extends expression: a str is a type variable.
    if isinstance(e, str):
        return e
    name, args = e
    if not args:
        return name
    return f"{name}<{', '.join(_expr(a) for a in args)}>"


def _app(name, *args):
    return (name, tuple(args))


class Program:
    """A generated class table: declarations, families and an oracle."""

    def __init__(self, rng: random.Random, families: int, chain_len: int):
        """``families`` copies of every shape; family ``c`` has nullary
        chains of ``chain_len + 8c`` links, so the shape and size of the
        table do not depend on the seed: it only shuffles the declaration
        order and picks the queries."""
        self.families = families
        self.classes: list[Cls] = []
        self.nlen: list[int] = []
        self.ulen: list[int] = []
        self.plen: list[int] = []
        self.flen: list[int] = []
        for c in range(families):
            n = chain_len + 8 * c
            u, p, f = n // 2, n // 3, n // 4
            self.nlen.append(n)
            self.ulen.append(u)
            self.plen.append(p)
            self.flen.append(f)
            self._chain(f"N{c}", n, ())
            self._chain(f"U{c}", u, ("T",))
            self._chain(f"P{c}", p, ("A", "B"), swap=True)
            self.classes.append(Cls(f"Fb{c}", (("T", None, _app(f"Fb{c}", "T"), "kw"),)))
            self.classes.append(Cls(f"Fm{c}_0", (), _app(f"Fb{c}", _app(f"Fm{c}_0"))))
            for j in range(1, f):
                self.classes.append(Cls(f"Fm{c}_{j}", (), _app(f"Fm{c}_{j - 1}")))
            root = _app(f"N{c}_0")
            self.classes.append(Cls(f"Box{c}", (("T", None, root, "kw"),),
                                    _app(f"N{c}_{3 * n // 4}")))
            q = p // 2
            self.classes.append(Cls(f"Duo{c}", (("A", None, root, "kw"), ("B", None, None, "kw")),
                                    _app(f"P{c}_{q}", "B", "A")))
            self.classes.append(Cls(f"Sw{c}", (("T", _app(f"Fm{c}_{f - 1}"), _app(f"Fb{c}", "T"),
                                                "sandwich"),)))
            self.classes.append(Cls(f"Wr{c}", (("T", None, None, "kw"),),
                                    _app(f"N{c}_{n // 2}")))
            self.classes.append(Cls(f"Sl{c}", (("T", _app(f"Wr{c}", "T"), root, "kw"),)))
            self.classes.append(Cls(
                f"Q{c}", (("T", None, _app(f"P{c}_0", root, _app(f"N{c}_1")), "kw"),)))
        # Declaration order must not matter to the checker: shuffle it.
        rng.shuffle(self.classes)
        self.oracle = Oracle(self.classes)

    def _chain(self, prefix: str, length: int, params: tuple, swap: bool = False) -> None:
        decl = tuple((p, None, None, "kw") for p in params)
        self.classes.append(Cls(f"{prefix}_0", decl))
        for j in range(1, length):
            args = tuple(reversed(params)) if swap else params
            self.classes.append(Cls(f"{prefix}_{j}", decl, _app(f"{prefix}_{j - 1}", *args)))

    def source(self) -> str:
        return "".join(c.source() + "\n" for c in self.classes)

    def names(self) -> list[str]:
        return sorted([c.name for c in self.classes] + ["Null", "Object"])

    # -- queries ---------------------------------------------------------

    def leaf(self, rng: random.Random, c: int):
        return _app(f"N{c}_{rng.randrange(self.nlen[c])}")

    def chain_query(self, rng: random.Random):
        """A shallow query whose cost is one or two long chain walks."""
        c = rng.randrange(self.families)
        kind = rng.randrange(7)
        if kind == 0:  # valid: walk from N{c}_j up to N{c}_0
            return _app(f"Box{c}", self.leaf(rng, c))
        if kind == 1:  # invalid: walks a whole foreign chain
            other = (c + 1 + rng.randrange(self.families - 1)) % self.families
            return _app(f"Box{c}", self.leaf(rng, other))
        if kind == 2:  # swapping binary chain; parity decides validity
            a, b = rng.sample([_app(f"N{c}_0"), _app(f"N{c}_1")], 2)
            j = rng.randrange(self.plen[c])
            return _app(f"Q{c}", _app(f"P{c}_{j}", a, b))
        if kind == 3:  # a container reached through the swapping chain
            a, b = rng.sample([_app(f"N{c}_0"), _app(f"N{c}_1")], 2)
            return _app(f"Q{c}", _app(f"Duo{c}", a, b))
        if kind == 4:  # F-bounded: only Fm{c}_0 is valid
            j = rng.choice([0, rng.randrange(self.flen[c])])
            return _app(f"Fb{c}", _app(f"Fm{c}_{j}"))
        if kind == 5:  # sandwich, F-bounded above
            j = rng.choice([0, rng.randrange(self.flen[c])])
            return _app(f"Sw{c}", _app(f"Fm{c}_{j}"))
        return _app(f"Sl{c}", self.leaf(rng, c))  # self-referential lower bound

    def deep_query(self, rng: random.Random, depth: int):
        """A query nested ``depth`` levels deep through the containers.

        ``Box{c}`` needs an argument below ``N{c}_0`` (a leaf or another
        ``Box{c}``); ``Duo{c}`` and ``U{c}`` take anything in their last
        slot but are not below ``N{c}_0``. Roughly two in five queries get
        one planted violation at a random level: a foreign leaf, or a
        ``Box`` around a ``Duo`` or ``U``.
        """
        c = rng.randrange(self.families)
        plant = rng.randrange(depth + 1) if rng.random() < 0.4 else -1
        if plant == 0:
            t = self.leaf(rng, (c + 1) % self.families)
        else:
            t = self.leaf(rng, c)
        below_root = True  # is the current t a subtype of N{c}_0?
        for level in range(1, depth + 1):
            if level == plant and below_root:
                t = _app(f"U{c}_{rng.randrange(self.ulen[c])}", t)
                t = _app(f"Box{c}", t)
                continue
            r = rng.random()
            if below_root and r < 0.55:
                t = _app(f"Box{c}", t)
            elif r < 0.9 or not below_root:
                t = _app(f"Duo{c}", self.leaf(rng, c), t)
                below_root = False
            else:
                t = _app(f"U{c}_{rng.randrange(self.ulen[c])}", t)
                below_root = False
            if level == plant:
                t = _app(f"Box{c}", t)
                below_root = True
        return t


class Oracle:
    """Nominal subtyping and bound validity, from the definitions.

    ``s <: t`` when equal, when ``s`` is Null, when ``t`` is Object, or when
    ``t`` lies on the declared superclass chain of ``s``; arguments are
    invariant. ``C<As>`` is valid when each argument sits between its
    bounds with ``As`` substituted, and every argument is valid in turn.
    """

    def __init__(self, classes: list[Cls]):
        self.decl = {c.name: c for c in classes}

    def _subst(self, e, mapping):
        if isinstance(e, str):
            return mapping[e]
        name, args = e
        return (name, tuple(self._subst(a, mapping) for a in args))

    def _mapping(self, t):
        decl = self.decl[t[0]]
        return decl, {p[0]: a for p, a in zip(decl.params, t[1])}

    def is_subtype(self, s, t) -> bool:
        if s == t or s == NULL or t == OBJECT:
            return True
        cur = s
        while cur != OBJECT and cur != NULL:
            decl, mapping = self._mapping(cur)
            cur = OBJECT if decl.ext is None else self._subst(decl.ext, mapping)
            if cur == t:
                return True
        return False

    def _node_valid(self, t) -> bool:
        if t in (NULL, OBJECT):
            return True
        decl, mapping = self._mapping(t)
        ok = True
        for (_, lo, hi, _), arg in zip(decl.params, t[1]):
            lower = NULL if lo is None else self._subst(lo, mapping)
            upper = OBJECT if hi is None else self._subst(hi, mapping)
            ok = ok and self.is_subtype(lower, arg) and self.is_subtype(arg, upper)
        return ok

    def is_valid(self, t) -> bool:
        """Validity of ``t`` and of every argument inside it."""
        return self._node_valid(t) and all(self.is_valid(a) for a in t[1])
