"""Nominal subtyping over ground types.

``s`` is a subtype of ``t`` when they are the same type, when ``s`` is
``Null``, when ``t`` is ``Object``, or when repeatedly replacing the
head class by its substituted superclass starting from ``s`` reaches
``t``. Type arguments are invariant: ``C<s> <: C<t>`` needs ``s = t``.
The walk terminates because the extends relation is acyclic and each
step is determined by the head class alone.

That walk is not repeated per query. The walk from ``C<P1..Pk>``, over
``C``'s own parameters, meets ``t``'s head class ``K`` at most once
(acyclic ``extends``), and substituting ``s``'s arguments for
``P1..Pk`` in that meeting point gives what the walk from ``s`` would
meet, since substitution composes. ``classtable.chain_meet`` walks the open chain
once per pair ``(C, K)`` and keeps the meeting point, or ``None``, in
the table; each query is then one lookup, plus one substitution when
``s`` has arguments, and one comparison with ``t``. The memo holds one
entry per pair of class names asked about, so it is bounded by the
square of the table's size however many queries are asked.

Both operands must be ground and well-formed over the table, or
:func:`is_subtype` raises. The check is ``require_well_formed``, which
marks each type it passes; :func:`is_subtype` calls it only on an operand
not yet marked against this table, so asking again about types already
checked (as validity does for every argument and bound) costs only
their new nodes.

The module also enumerates ground types up to a nesting depth and can
export the induced subtype graph as DOT text; the graph is an artifact
for inspection, the decision procedure itself never consults it.
"""

from __future__ import annotations

from itertools import product

from .classtable import (
    ClassTable,
    chain_meet,
    mapping_for,
    require_well_formed,
    substitute,
    superclass_chain,
)
from .errors import InvalidValue
from .record import Record, set_field
from .syntax import App, MAX_NESTING, NULL, OBJECT, TypeExpr, render

# Ground types one enumeration may produce. Each depth level multiplies
# the count (by k for k unary classes), so the budget is checked on the
# predicted count before anything is built.
MAX_GRAPH_NODES = 100_000
# Characters in the renderings of those types, predicted the same way:
# the DOT text names each node once on its own line and again in its
# edges, so its size and the time to sort and write it follow this total.
MAX_GRAPH_CHARS = 2_000_000


def is_subtype(table: ClassTable, s: TypeExpr, t: TypeExpr) -> bool:
    if s._checked is not table.infos:
        require_well_formed(table, s)
    if t._checked is not table.infos:
        require_well_formed(table, t)
    # Both are well-formed now, so a head name decides Null and Object.
    if s == t or s.name == "Null" or t.name == "Object":
        return True
    found = chain_meet(table, s.name, t.name)
    if found is None:
        return False
    if not (s.args and found.args):  # nothing to substitute into
        return found == t
    return substitute(found, mapping_for(table, s)[1]) == t


def enumerate_ground(table: ClassTable, depth: int) -> frozenset[TypeExpr]:
    """All ground types over ``table`` whose nesting depth is at most ``depth``.

    Nullary applications have depth 0; ``C<ts>`` has depth one more than
    its deepest argument. For a table of k unary classes the counts obey
    n(d+1) = 2 + k * n(d) with n(0) = 2, the 2 being Null and Object.
    A depth whose count would exceed MAX_GRAPH_NODES, or whose types'
    renderings would total more than MAX_GRAPH_CHARS characters, is
    rejected before anything is built, and so is one past the parser's
    MAX_NESTING, whose types no query could name.

    Each type is built once: level d + 1 holds only the applications
    with an argument new at level d, the others being already built.
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
    count = base_count = len(base)
    chars = base_chars = sum(len(t.name) for t in base)
    for _ in range(depth):
        # n types of total length S give n^k applications of a class of
        # arity k, each its name, "<", ">" and k - 1 ", " around k
        # arguments, and each argument slot holds every type n^(k-1) times.
        count, chars = (
            base_count + sum(count ** k for _, k in generic),
            base_chars + sum(count ** k * (len(name) + 2 * k)
                             + k * count ** (k - 1) * chars
                             for name, k in generic))
        if count > MAX_GRAPH_NODES:
            raise InvalidValue(
                f"depth {depth} enumerates more than {MAX_GRAPH_NODES} ground types")
        if chars > MAX_GRAPH_CHARS:
            raise InvalidValue(
                f"depth {depth} renders more than {MAX_GRAPH_CHARS} characters "
                f"of ground types")
    if depth > MAX_NESTING:
        raise InvalidValue(
            f"depth {depth} nests deeper than {MAX_NESTING} levels")
    # By the first new argument's position i: older types before it, any after.
    older: list[TypeExpr] = []
    new = list(base)
    for _ in range(depth):
        known = older + new
        grown = [App(name, args)
                 for name, arity in generic
                 for i in range(arity)
                 for args in product(*[older] * i, new,
                                     *[known] * (arity - 1 - i))]
        older, new = known, grown
    return frozenset(older + new)


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
    """Render the ground subtype graph as deterministic DOT text, each node once."""
    graph = ground_graph(table, depth)
    text = {node: render(node) for node in graph.nodes}
    lines = ["digraph subtyping {"]
    lines.extend(f'  "{name}";' for name in sorted(text.values()))
    lines.extend(f'  "{src}" -> "{dst}";' for src, dst in
                 sorted((text[src], text[dst]) for src, dst in graph.edges))
    lines.append("}")
    return "\n".join(lines) + "\n"
