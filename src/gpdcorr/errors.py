"""Exception types shared across the package."""


class GpdError(Exception):
    """Base class for all errors raised by this package."""


class BoundExceeded(GpdError):
    """A required element lies beyond the enumeration bound."""


class DepthInsufficient(GpdError):
    """A search needed more depth than the caller allowed."""


class OracleIncomplete(GpdError):
    """An equality oracle declined to answer a query."""


class NotCoOrbital(GpdError):
    """Inner product of two points in different orbits."""


class NotTight(GpdError):
    def __init__(self, arrow):
        super().__init__(f"correspondence at {arrow!r} is not tight")
        self.arrow = arrow


class NotEquivalence(GpdError):
    def __init__(self, arrow):
        super().__init__(f"correspondence at {arrow!r} is not a Morita equivalence")
        self.arrow = arrow


class NotEquivariant(GpdError):
    def __init__(self, witness):
        super().__init__(f"map is not equivariant, witness {witness!r}")
        self.witness = witness


class Mismatch(GpdError):
    """A claimed groupoid model fails the action bijection test."""

    def __init__(self, witness):
        super().__init__(f"model mismatch: {witness}")
        self.witness = witness


class ConditionFailed(GpdError):
    def __init__(self, which, witness):
        super().__init__(f"condition {which} failed at {witness!r}")
        self.which = which
        self.witness = witness


class HexagonViolation(GpdError):
    def __init__(self, triple):
        super().__init__(f"braiding hexagon fails on {triple!r}")
        self.triple = triple


class NotSupported(GpdError):
    """The requested construction is out of range for this shape."""


class Undefined(GpdError):
    """A partial operation was applied outside its domain.

    Arguments after the first fill its ``{!r}`` fields only when the
    text is read, so a caller that just catches the error formats nothing.
    """

    def __str__(self):
        text, *operands = self.args or ("",)
        return text.format(*operands) if operands else str(text)


class ParseError(GpdError):
    """A document could not be parsed."""


class SchemaError(GpdError):
    """A document parsed but does not match its schema."""
