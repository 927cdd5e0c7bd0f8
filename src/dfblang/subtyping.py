"""Nominal subtyping over ground types.

``s`` is a subtype of ``t`` when they are the same type, when ``s`` is
``Null``, when ``t`` is ``Object``, or when repeatedly replacing the
head class by its substituted superclass starting from ``s`` reaches
``t``. Type arguments are invariant: ``C<s> <: C<t>`` needs ``s = t``.
The walk terminates because the extends relation is acyclic and each
step is determined by the head class alone.

Both operands must be ground and well-formed over the table, or
:func:`is_subtype` raises. The check is ``require_well_formed``, which
marks each type it passes and returns at once on a marked one, so asking
again about types already checked against the same table (as validity
does for every argument and bound) costs only their new nodes.

The module also enumerates ground types up to a nesting depth and can
export the induced subtype graph as DOT text; the graph is an artifact
for inspection, the decision procedure itself never consults it.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import product

from .classtable import ClassTable, require_well_formed, superclass_of
from .errors import InvalidValue
from .record import Record, set_field
from .syntax import App, MAX_NESTING, NULL, OBJECT, TypeExpr, render

# Ground types one enumeration may produce. Each depth level multiplies
# the count (by k for k unary classes), so the budget is checked on the
# predicted count before anything is built.
MAX_GRAPH_NODES = 100_000


def superclass_chain(table: ClassTable, t: TypeExpr) -> Iterator[TypeExpr]:
    """Successive superclasses of ``t``, ending with Object; empty for Null."""
    assert isinstance(t, App)
    cur = t
    while cur.name not in ("Object", "Null"):
        cur = superclass_of(table, cur.name, cur.args)
        yield cur


def is_subtype(table: ClassTable, s: TypeExpr, t: TypeExpr) -> bool:
    require_well_formed(table, s)
    require_well_formed(table, t)
    if s == t:
        return True
    if s == NULL:
        return True
    if t == OBJECT:
        return True
    return any(sup == t for sup in superclass_chain(table, s))


def enumerate_ground(table: ClassTable, depth: int) -> frozenset[TypeExpr]:
    """All ground types over ``table`` whose nesting depth is at most ``depth``.

    Nullary applications have depth 0; ``C<ts>`` has depth one more than
    its deepest argument. For a table of k unary classes the counts obey
    n(d+1) = 2 + k * n(d) with n(0) = 2, the 2 being Null and Object.
    A depth whose count would exceed MAX_GRAPH_NODES is rejected, and so
    is one past the parser's MAX_NESTING, whose types no query could name.
    """
    if depth < 0:
        raise InvalidValue(f"depth must be nonnegative, got {depth}")
    base = {NULL, OBJECT}
    generic: list[tuple[str, int]] = []
    for name in table.names():
        arity = table.arity(name)
        if arity == 0:
            base.add(App(name))
        else:
            generic.append((name, arity))
    if not generic:
        depth = 0  # every depth gives the same nullary types
    count = len(base)
    for _ in range(depth):
        count = len(base) + sum(count ** arity for _, arity in generic)
        if count > MAX_GRAPH_NODES:
            raise InvalidValue(
                f"depth {depth} enumerates more than {MAX_GRAPH_NODES} ground types")
    if depth > MAX_NESTING:
        raise InvalidValue(
            f"depth {depth} nests deeper than {MAX_NESTING} levels")
    current: set[TypeExpr] = set(base)
    for _ in range(depth):
        grown = set(base)
        for name, arity in generic:
            for args in product(current, repeat=arity):
                grown.add(App(name, args))
        current = grown
    return frozenset(current)


class GroundGraph(Record):
    """The declared-subtype graph over an enumerated node set."""

    __match_args__ = ("nodes", "edges")

    def __init__(self, nodes: frozenset[TypeExpr],
                 edges: frozenset[tuple[TypeExpr, TypeExpr]]):
        set_field(self, "nodes", nodes)
        set_field(self, "edges", edges)


def ground_graph(table: ClassTable, depth: int) -> GroundGraph:
    """Edges: each node to its nearest enumerated superclass, Null to minimals.

    A direct superclass can exceed the depth budget (its rendering may
    nest deeper than the node itself), so each node links to the first
    type on its superclass chain that made it into the node set; Object
    always does. Reachability then matches ``is_subtype`` restricted to
    the nodes.
    """
    nodes = enumerate_ground(table, depth)
    edges: set[tuple[TypeExpr, TypeExpr]] = set()
    for t in nodes:
        if t == NULL or t == OBJECT:
            continue
        for sup in superclass_chain(table, t):
            if sup in nodes:
                edges.add((t, sup))
                break
    has_incoming = {dst for _, dst in edges}
    for t in nodes:
        if t != NULL and t not in has_incoming:
            edges.add((NULL, t))
    return GroundGraph(nodes, frozenset(edges))


def export_graph(table: ClassTable, depth: int) -> str:
    """Render the ground subtype graph as deterministic DOT text."""
    graph = ground_graph(table, depth)
    lines = ["digraph subtyping {"]
    for node in sorted(graph.nodes, key=render):
        lines.append(f'  "{render(node)}";')
    for src, dst in sorted(graph.edges, key=lambda e: (render(e[0]), render(e[1]))):
        lines.append(f'  "{render(src)}" -> "{render(dst)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
