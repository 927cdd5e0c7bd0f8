"""Deciding whether ground type arguments satisfy declared bounds.

Two gates apply to an instantiation ``C<A1, .., Ak>``, taken whole as an ``App``:

* admittable: every argument is a ground, arity-correct type over the
  table. Bounds play no part.
* valid: admittable, and each argument sits between its substituted
  bounds, ``Li[A/T] <: Ai <: Ui[A/T]``.

Validity of ``C<As>`` costs exactly 2k subtype queries, so a nullary
argument needs none: its parent's admittability check settles it, and
:func:`check_type` judges only the root and the arguments with arguments.
The paper's coinductive reading says an admittable argument inside a
bound counts as valid without a re-check, and :func:`check_type` follows
it by never walking into bounds: the bound instantiations themselves
(``Enum<Color>`` when checking ``Color`` against ``class Enum<T extends
Enum<T>>``) are only ever operands of subtype queries, never judged. Every
subtype query performed is recorded in the verdict's log with the
instantiation that triggered it: :func:`check_type` hands each node of
the query over unchanged, and that very node is the ``subject`` of its
queries. The log is how tests observe that no bound-side re-check ever
happens and that the query count stays at most 2 * (number of
applications) * (maximum arity) for a full deep check.

Well-formedness is checked once per type: :func:`is_admittable` checks
each argument not yet marked by ``require_well_formed``, and the subtype
queries that follow find the arguments marked, so they check only the
nodes that substitution built into the bounds. The well-formedness work
of a full deep check is therefore linear in the size of the query and
its bounds, not quadratic in its depth.
"""

from __future__ import annotations

import enum

from .classtable import ClassTable, IllFormedType, bounds_of, require_well_formed
from .errors import DfbError
from .record import Record, set_field
from .subtyping import is_subtype
from .syntax import App, TypeExpr, Var, render


class NotAdmittable(DfbError):
    def __init__(self, detail: str):
        super().__init__(detail)
        self.detail = detail


class Status(enum.Enum):
    VALID = "valid"
    INVALID = "invalid"


class QueryRecord(Record):
    """One subtype query, tagged with the instantiation that issued it.

    Its JSON form keeps the field ``"origin": "ordinary"``: every query
    is asked outside any bound.
    """

    __slots__ = ("left", "right", "subject")
    __match_args__ = __slots__

    def __init__(self, left: TypeExpr, right: TypeExpr, subject: TypeExpr):
        set_field(self, "left", left)
        set_field(self, "right", right)
        set_field(self, "subject", subject)

    def as_dict(self) -> dict[str, str]:
        return {
            "left": render(self.left),
            "right": render(self.right),
            "subject": render(self.subject),
            "origin": "ordinary",
        }


class Verdict(Record):
    __slots__ = ("status", "reasons", "query_log")
    __match_args__ = __slots__

    def __init__(self, status: Status, reasons: tuple[str, ...] = (),
                 query_log: tuple[QueryRecord, ...] = ()):
        if status is Status.INVALID:
            assert reasons, "an invalid verdict must carry reasons"
        else:
            assert not reasons, "only invalid verdicts carry reasons"
        set_field(self, "status", status)
        set_field(self, "reasons", reasons)
        set_field(self, "query_log", query_log)

    @property
    def is_valid(self) -> bool:
        return self.status is Status.VALID


def is_admittable(table: ClassTable, t: App) -> bool:
    """Ground and arity-correct, bounds ignored.

    ``t``'s class must exist; problems with its arguments make the
    answer False rather than an error.
    """
    if len(t.args) != table.arity(t.name):
        return False
    try:
        for a in t.args:
            if a._checked is not table.infos:
                require_well_formed(table, a)
    except IllFormedType:
        return False
    return True


def is_valid_argument(table: ClassTable, t: App) -> Verdict:
    """Judge the arguments of the single instantiation ``t`` against its bounds.

    All parameters are checked even after a failure, so the verdict
    reports every violated bound. ``t`` is the subject of each logged query.
    """
    if not is_admittable(table, t):
        raise NotAdmittable(f"{render(t)} is not admittable: arguments must "
                            f"be ground, arity-correct types over the table")
    info = table.info(t.name)
    log: list[QueryRecord] = []
    reasons: list[str] = []
    for pname, arg, (lo, hi) in zip(info.param_names, t.args, bounds_of(table, t)):
        log.append(QueryRecord(lo, arg, t))
        if not is_subtype(table, lo, arg):
            reasons.append(
                f"{render(lo)} is not a subtype of {render(arg)} "
                f"(lower bound of {pname} in {t.name})"
            )
        log.append(QueryRecord(arg, hi, t))
        if not is_subtype(table, arg, hi):
            reasons.append(
                f"{render(arg)} is not a subtype of {render(hi)} "
                f"(upper bound of {pname} in {t.name})"
            )
    status = Status.INVALID if reasons else Status.VALID
    return Verdict(status, tuple(reasons), tuple(log))


def check_type(table: ClassTable, t: TypeExpr) -> Verdict:
    """Validate a ground type and, recursively, its argument subterms.

    Each nested instantiation among the arguments is judged once,
    outermost first, left to right; a nullary argument, settled by its
    parent's admittability check, is not. The walk never enters a bound,
    so bound instantiations are only ever operands of the logged queries.
    """
    if isinstance(t, Var):
        raise NotAdmittable(f"{render(t)} is a type variable, not a ground type")
    reasons: list[str] = []
    log: list[QueryRecord] = []
    valid = True
    # A loop, not a nested recursive function: such a function refers to
    # itself, and the cycle would keep every call's log alive until a
    # full garbage collection.
    stack = [t]
    while stack:
        node = stack.pop()
        verdict = is_valid_argument(table, node)
        valid = valid and verdict.is_valid
        reasons.extend(verdict.reasons)
        log.extend(verdict.query_log)
        stack.extend([a for a in reversed(node.args) if a.args])
    status = Status.VALID if valid else Status.INVALID
    return Verdict(status, tuple(reasons), tuple(log))
