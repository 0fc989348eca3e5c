"""Validation of the prime modulus p <= 2**16, parse_natural(), the
one reader of the decimal naturals that come from outside (query
indices, series and seed entries, polynomial literals), and brief(),
which shows a value in a message, cut short, with ints of any size.

Elements of F_p are plain int residues in [0, p) throughout the package.
"""

import functools
import reprlib

from .errors import MalformedNumber

MAX_MODULUS = 2**16
# below 640, the lowest int(str) limit an interpreter can be set to
_PARSE_LEAF = 600


def ensure_prime(p: int) -> int:
    """Validate that p is a prime in [2, 2**16] and return it.  The
    messages show p through brief(), so a huge value prints cut short.
    The type is checked before the cache, which cannot hash a list."""
    if not isinstance(p, int) or isinstance(p, bool):
        raise ValueError(f"modulus must be an int, got {brief(p)}")
    return _checked_prime(p)


@functools.lru_cache(maxsize=None)
def _checked_prime(p: int) -> int:
    """Trial division is plenty at this size, and the cache makes repeated
    validation (one per series or machine construction) a dictionary hit."""
    if p < 2 or p > MAX_MODULUS:
        raise ValueError(f"modulus {brief(p)} outside the supported range [2, {MAX_MODULUS}]")
    d = 2
    while d * d <= p:
        if p % d == 0:
            raise ValueError(f"modulus {p} is not prime (divisible by {d})")
        d += 1
    return p


class _Brief(reprlib.Repr):
    """reprlib's cut-short repr, except that an int of more than
    _PARSE_LEAF digits, wherever it sits in the value, shows as its bit
    length, since the interpreter may refuse to write it in decimal."""

    def repr_int(self, x, level):
        if abs(x) < 10**_PARSE_LEAF:
            return super().repr_int(x, level)
        return f"<int of {x.bit_length()} bits>"


brief = _Brief().repr


def parse_natural(text: str) -> int:
    """The value of a nonempty string of ASCII digits, of any length; a
    MalformedNumber for anything else, such as the signs, spaces,
    underscores and non-ASCII digits that int() takes.  A long string is
    read in halves, hi * 10**k + lo, so the interpreter's int(str) limit
    is never hit."""
    if not isinstance(text, str) or not (text.isascii() and text.isdigit()):
        raise MalformedNumber(f"expected a decimal natural number, got {brief(text)}")
    if len(text) <= _PARSE_LEAF:
        return int(text)
    k = len(text) // 2
    return parse_natural(text[:-k]) * 10**k + parse_natural(text[-k:])
