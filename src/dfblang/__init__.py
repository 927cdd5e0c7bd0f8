"""A small nominally-typed generic language whose type parameters may be
bounded below and above, with bounds free to mention the parameter they
constrain, plus two engines (finite posets, the real line) that decide
the matching bounded-argument domains."""
