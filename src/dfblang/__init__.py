"""A small nominally-typed generic language whose type parameters may be
bounded below and above, with bounds free to mention the parameter they
constrain, plus two engines (finite posets, the real line) that decide
the matching bounded-argument domains."""

from .classtable import (
    ClassTable,
    Diagnostic,
    bounds_of,
    build_table,
    substitute,
    superclass_of,
)
from .errors import DfbError, ParseError
from .subtyping import (
    GroundGraph,
    enumerate_ground,
    export_graph,
    ground_graph,
    is_subtype,
)
from .syntax import (
    App,
    ClassDecl,
    NULL,
    OBJECT,
    Program,
    TypeParamDecl,
    Var,
    parse_program,
    parse_type,
    render,
    render_program,
)
from .validity import (
    Context,
    Status,
    Verdict,
    check_type,
    is_admittable,
    is_valid_argument,
)

__all__ = [
    "App",
    "ClassDecl",
    "ClassTable",
    "Context",
    "DfbError",
    "Diagnostic",
    "GroundGraph",
    "NULL",
    "OBJECT",
    "ParseError",
    "Program",
    "Status",
    "TypeParamDecl",
    "Var",
    "Verdict",
    "bounds_of",
    "build_table",
    "check_type",
    "enumerate_ground",
    "export_graph",
    "ground_graph",
    "is_admittable",
    "is_subtype",
    "parse_program",
    "parse_type",
    "render",
    "render_program",
    "substitute",
    "superclass_of",
]
