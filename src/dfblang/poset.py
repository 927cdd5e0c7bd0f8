"""Finite partial orders, total self-maps, and bounded-argument domains.

This is the order-theoretic model of the type checker's question: given
a map g on a poset P, which x may be passed to a function whose
argument must sit below (or above) g(x)? The one-shot reading of that
domain and the self-referential reading, where membership keeps being
re-asked of the bound's value, coincide; the iteration in
:func:`recursive_domain_gfp` makes the second reading executable and
stabilizes after a single step.

A poset is built from cover pairs over a carrier of at most 64
elements. One depth-first search rejects a cycle (which would break
antisymmetry) and closes each element's up-set as an ``int`` bit mask,
the OR of its own bit and its successors' masks; reflexivity and
transitivity hold by construction, and an order query is one shift.
"""

from __future__ import annotations

import json
import random

from .errors import DfbError, InvalidValue
from .record import Record, set_field

MAX_ELEMENTS = 64


class CyclicOrder(DfbError):
    def __init__(self, cycle: tuple[str, ...]):
        path = " <= ".join(cycle + (cycle[0],))
        super().__init__(f"cover relation has a cycle: {path}")
        self.cycle = cycle


class UnknownElement(DfbError):
    def __init__(self, element: str):
        super().__init__(f"unknown element {element!r}")
        self.element = element


class PosetFileError(DfbError):
    pass


class FinitePoset:
    """A finite poset with O(1) order queries.

    ``elements`` keeps declaration order, which is also the order used
    when printing subsets. The order is one ``int`` bit mask per
    element: bit ``j`` of ``up[i]`` is set when
    ``elements[i] <= elements[j]``.
    """

    def __init__(self, elements: tuple[str, ...], up: list[int]):
        self.elements = elements
        self._index = {x: i for i, x in enumerate(elements)}
        self._up = up

    @property
    def size(self) -> int:
        return len(self.elements)

    def check_element(self, x: str) -> None:
        if x not in self._index:
            raise UnknownElement(x)

    def leq(self, x: str, y: str) -> bool:
        index = self._index
        try:
            i = index[x]
            j = index[y]
        except KeyError as exc:
            raise UnknownElement(exc.args[0]) from None
        return self._up[i] >> j & 1 == 1

    def up_set(self, x: str) -> frozenset[str]:
        self.check_element(x)
        mask = self._up[self._index[x]]
        return frozenset(y for j, y in enumerate(self.elements) if mask >> j & 1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FinitePoset):
            return NotImplemented
        return self.elements == other.elements and self._up == other._up

    def __repr__(self) -> str:
        return f"FinitePoset({len(self.elements)} elements)"


def make_poset(
    elements: list[str] | tuple[str, ...],
    covers: list[tuple[str, str]] | tuple[tuple[str, str], ...],
) -> FinitePoset:
    """Close a cover relation into a poset.

    Duplicate or too many elements are rejected outright; covers over
    undeclared labels raise :class:`UnknownElement`, in cover order; a
    cycle in the covers would break antisymmetry and raises
    :class:`CyclicOrder` naming the first cycle a depth-first search
    meets, walking elements in declaration order and each element's
    covers in the order given.
    """
    elements = tuple(elements)
    index = {x: i for i, x in enumerate(elements)}
    if len(index) != len(elements):
        raise InvalidValue("duplicate element labels")
    if len(elements) > MAX_ELEMENTS:
        raise InvalidValue(
            f"carrier too large: {len(elements)} elements, cap is {MAX_ELEMENTS}"
        )
    succ: list[list[int]] = [[] for _ in elements]
    for a, b in covers:
        if a not in index:
            raise UnknownElement(a)
        if b not in index:
            raise UnknownElement(b)
        succ[index[a]].append(index[b])

    # up[i] is 0 before the search reaches i, -1 while i is on the path,
    # and i's closed up-set mask once every successor of i is finished.
    up = [0] * len(elements)
    for root in range(len(elements)):
        if up[root]:
            continue
        up[root] = -1
        path = [root]
        pending = [iter(succ[root])]
        while pending:
            for j in pending[-1]:
                if up[j] == -1:
                    cycle = path[path.index(j):]
                    raise CyclicOrder(tuple(elements[k] for k in cycle))
                if not up[j]:
                    up[j] = -1
                    path.append(j)
                    pending.append(iter(succ[j]))
                    break
            else:
                pending.pop()
                i = path.pop()
                mask = 1 << i
                for j in succ[i]:
                    mask |= up[j]
                up[i] = mask
    return FinitePoset(elements, up)


class EndoMap:
    """A total map from a poset's carrier to itself."""

    def __init__(self, poset: FinitePoset, mapping: dict[str, str]):
        for x in poset.elements:
            if x not in mapping:
                raise ValueError(f"map is not total: missing {x!r}")
        for x, y in mapping.items():
            poset.check_element(x)
            poset.check_element(y)
        self.poset = poset
        self.mapping = dict(mapping)

    def __call__(self, x: str) -> str:
        try:
            return self.mapping[x]
        except KeyError:
            raise UnknownElement(x) from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EndoMap):
            return NotImplemented
        return self.poset == other.poset and self.mapping == other.mapping

    def __repr__(self) -> str:
        body = ", ".join(f"{x}->{y}" for x, y in sorted(self.mapping.items()))
        return f"EndoMap({body})"


class DomainSpec(Record):
    """Which bounds constrain the argument, and whether strictly.

    At least one bound must be present. ``strict`` applies to each bound
    that is: an element equal to its bound's value is left out.
    """

    __match_args__ = ("lower", "upper", "strict")

    def __init__(self, lower: EndoMap | None = None, upper: EndoMap | None = None,
                 strict: bool = False):
        set_field(self, "lower", lower)
        set_field(self, "upper", upper)
        set_field(self, "strict", strict)
        if lower is None and upper is None:
            raise ValueError("at least one bound is required")


class DomainResult(Record):
    __match_args__ = ("members",)

    def __init__(self, members: frozenset[str]):
        set_field(self, "members", members)


def dfbf_domain(poset: FinitePoset, spec: DomainSpec) -> DomainResult:
    """One-shot domain: every x whose bound conditions hold at x itself."""
    members = set()
    for x in poset.elements:
        if spec.lower is not None:
            lx = spec.lower(x)
            if not poset.leq(lx, x):
                continue
            if spec.strict and lx == x:
                continue
        if spec.upper is not None:
            ux = spec.upper(x)
            if not poset.leq(x, ux):
                continue
            if spec.strict and ux == x:
                continue
        members.add(x)
    return DomainResult(frozenset(members))


def fixed_point_domain(poset: FinitePoset, f: EndoMap) -> DomainResult:
    """Domain of f(f(x) <= x <= f(x)): exactly the fixed points of f."""
    return DomainResult(frozenset(x for x in poset.elements if f(x) == x))


def validity_step(
    poset: FinitePoset,
    members: frozenset[str],
    g: EndoMap,
    strict: bool = True,
    side: str = "upper",
) -> frozenset[str]:
    """One application of the self-referential reading's operator.

    Keeps the members whose bound condition against g holds; ``side``
    selects whether g bounds from above or below.
    """
    if side not in ("upper", "lower"):
        raise ValueError(f"side must be 'upper' or 'lower', not {side!r}")
    kept = set()
    for x in members:
        gx = g(x)
        ok = poset.leq(x, gx) if side == "upper" else poset.leq(gx, x)
        if ok and not (strict and gx == x):
            kept.add(x)
    return frozenset(kept)


def recursive_domain_gfp(
    poset: FinitePoset,
    g: EndoMap,
    strict: bool = True,
    side: str = "upper",
) -> DomainResult:
    """Greatest fixed point of the self-referential operator, from the top.

    Iterates from the full carrier until stable. The operator discards
    exactly the elements that fail their own bound condition, so the
    iteration stabilizes after one application; running it to an actual
    fixed point keeps that a checked outcome rather than an assumption.
    """
    members = frozenset(poset.elements)
    while True:
        refined = validity_step(poset, members, g, strict, side)
        if refined == members:
            return DomainResult(members)
        members = refined


def theorem_check(poset: FinitePoset, g: EndoMap, strict: bool = True) -> bool:
    """One-shot domain equals self-referential domain, above and below."""
    upper = dfbf_domain(poset, DomainSpec(upper=g, strict=strict))
    if upper.members != recursive_domain_gfp(poset, g, strict, "upper").members:
        return False
    lower = dfbf_domain(poset, DomainSpec(lower=g, strict=strict))
    return lower.members == recursive_domain_gfp(poset, g, strict, "lower").members


def random_poset(seed: int, max_size: int = 8) -> FinitePoset:
    """A seeded random poset with 1..max_size elements.

    Samples a DAG over a linearly ordered carrier with a per-draw edge
    density, then closes it; the same seed always yields the same poset.
    """
    # Refused before any draw, so the answer cannot depend on the seed.
    if not 1 <= max_size <= MAX_ELEMENTS:
        raise InvalidValue(
            f"the maximum size must be 1 to {MAX_ELEMENTS}, got {max_size}")
    rng = random.Random(seed)
    n = rng.randint(1, max_size)
    # A list, not a generator: CPython builds a tuple from a generator by
    # resizing it, and each such tuple of under 20 items, once freed, grows
    # the tuple free list until the next full garbage collection.
    labels = [f"p{i}" for i in range(n)]
    density = rng.uniform(0.1, 0.6)
    covers = [
        (labels[i], labels[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    return make_poset(labels, covers)


def random_endomap(seed: int, poset: FinitePoset) -> EndoMap:
    """A seeded uniform draw among all total self-maps of the carrier."""
    rng = random.Random(seed)
    return EndoMap(poset, {x: rng.choice(poset.elements) for x in poset.elements})


def load_poset_file(path: str) -> tuple[FinitePoset, dict[str, EndoMap]]:
    """Read a poset with named maps from a JSON file.

    Schema: {"elements": [..], "covers": [[a, b], ..], "maps": {name: {x: y}}}.
    Unknown top-level keys are rejected so typos fail loudly.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise PosetFileError(f"{path}: not valid JSON: {exc}") from None
        except UnicodeDecodeError as exc:
            raise PosetFileError(f"{path}: not UTF-8 text: {exc.reason} "
                                 f"at byte {exc.start}") from None
        except RecursionError:
            raise PosetFileError(f"{path}: JSON nested too deeply") from None
    if not isinstance(data, dict):
        raise PosetFileError(f"{path}: top level must be an object")
    unknown = set(data) - {"elements", "covers", "maps"}
    if unknown:
        raise PosetFileError(
            f"{path}: unknown keys: {', '.join(sorted(unknown))}"
        )
    elements = data.get("elements")
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise PosetFileError(f"{path}: 'elements' must be a list of strings")
    covers_raw = data.get("covers", [])
    if not isinstance(covers_raw, list):
        raise PosetFileError(f"{path}: 'covers' must be a list of pairs")
    covers = []
    for pair in covers_raw:
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(isinstance(p, str) for p in pair)):
            raise PosetFileError(f"{path}: bad cover entry {pair!r}")
        covers.append((pair[0], pair[1]))
    try:
        poset = make_poset(elements, covers)
    except DfbError as exc:
        raise PosetFileError(f"{path}: {exc}") from None
    maps_raw = data.get("maps", {})
    if not isinstance(maps_raw, dict):
        raise PosetFileError(f"{path}: 'maps' must be an object")
    maps = {}
    for name, mapping in maps_raw.items():
        if (not isinstance(mapping, dict)
                or not all(isinstance(k, str) and isinstance(v, str)
                           for k, v in mapping.items())):
            raise PosetFileError(f"{path}: map {name!r} must send labels to labels")
        try:
            maps[name] = EndoMap(poset, mapping)
        except (ValueError, UnknownElement) as exc:
            raise PosetFileError(f"{path}: map {name!r}: {exc}") from None
    return poset, maps
