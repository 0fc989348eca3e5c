"""Exception hierarchy for the christol package.

Everything raised on purpose by this library derives from ChristolError,
so callers (the CLI in particular) can catch a single type at the API
boundary and turn it into a diagnostic.
"""


class ChristolError(Exception):
    """Base class for all errors raised by this library."""


class ModulusMismatch(ChristolError):
    """Operands live over different prime fields."""


class DegreeOutOfRange(ChristolError):
    """Weeding degree outside the legal range 0 <= k < p."""


class PolynomialSyntaxError(ChristolError):
    """Malformed polynomial text.  `pos` is the zero-based offset of the
    first character that could not be consumed."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class DegreeOverflow(ChristolError):
    """A parsed polynomial exceeds the configured degree caps."""


class AmbiguousBranch(ChristolError):
    """More than one residue extends the partial solution; the seed is too
    short to pin down a branch.  `index` is the offending coefficient."""

    def __init__(self, index: int):
        super().__init__(f"coefficient {index} is not determined by the seed")
        self.index = index


class NoBranch(ChristolError):
    """No residue extends the partial solution: the seed is inconsistent
    with the polynomial, or the branch is not a power series."""

    def __init__(self, index: int):
        super().__init__(f"no coefficient {index} extends the partial solution")
        self.index = index


class StateCapExceeded(ChristolError):
    """A state-space construction grew past the configured cap."""


class DimensionMismatch(ChristolError):
    """Vector length does not match the basis dimension."""


class MalformedNumber(ChristolError, ValueError):
    """Text is not a plain base-10 natural number."""


class SchemaError(ChristolError):
    """Serialized automaton does not conform to the dfao-v1 schema."""


class NoRelationFound(ChristolError):
    """No nonzero polynomial within the degree bounds annihilates the series."""
