"""Truncated formal power series over F_p.

A TruncatedSeries holds the first N coefficients of a series and nothing
else.  Every operation propagates precision pessimistically: the result
claims only the coefficients that are fully determined by the inputs.
Equality compares modulus and the full coefficient vector, so two
truncations of the same series at different precisions are *not* equal;
use truncate() to bring operands to a common precision first.

Instances are immutable and safe to share.
"""

import sys
from array import array

from .errors import ModulusMismatch
from .finite_field import brief, ensure_prime, parse_natural

# (slot width in bytes, array/memoryview format of that width), narrowest
# first.  The formats are native, so slots are packed and read in the
# machine's byte order.
_SLOTS = tuple(
    (width, next(fmt for fmt in "BHILQ" if array(fmt).itemsize == width))
    for width in (1, 2, 4, 8)
)


def cauchy_product(a, b, p: int, n: int) -> tuple:
    """First n coefficients of the product of coefficient vectors a and b.

    a and b hold residues in [0, p); the result always has n entries.
    Kronecker substitution: each vector is packed into one integer, one
    fixed-width slot per coefficient, the two integers are multiplied
    once, and the slots of the product are read back and reduced mod p.
    A slot of the product holds a sum of at most min(len a, len b)
    products of two residues, so it is given the narrowest width of 1,
    2, 4 or 8 bytes that holds min(len a, len b) * (p-1)**2.  Eight
    bytes always suffice: p <= 2**16 makes (p-1)**2 < 2**32, and no
    vector reaches 2**32 entries.
    """
    if n <= 0:
        return ()
    a = a[:n]
    b = b[:n]
    if not a or not b:
        return (0,) * n
    bound = min(len(a), len(b)) * (p - 1) ** 2
    width, fmt = next(slot for slot in _SLOTS if bound < 1 << 8 * slot[0])
    order = sys.byteorder
    product = int.from_bytes(array(fmt, a).tobytes(), order) * int.from_bytes(
        array(fmt, b).tobytes(), order
    )
    # big-endian machines put the lowest coefficient last, so the byte
    # string spans the whole product before slots are taken from it
    size = len(a) + len(b) - 1
    slots = memoryview(product.to_bytes(size * width, order)).cast(fmt)
    out = [v % p for v in slots[:n]]
    if size < n:
        out += [0] * (n - size)
    return tuple(out)


class TruncatedSeries:
    """The first len(coeffs) coefficients of a power series over F_p."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs=()):
        ensure_prime(p)
        self.p = p
        self.coeffs = tuple(int(c) % p for c in coeffs)

    @classmethod
    def _of(cls, p: int, coeffs: tuple) -> "TruncatedSeries":
        """Wrap a tuple of residues in [0, p) without validating p or
        reducing; for results built from series that were validated."""
        series = object.__new__(cls)
        series.p = p
        series.coeffs = coeffs
        return series

    @property
    def precision(self) -> int:
        return len(self.coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _match(self, other: "TruncatedSeries") -> None:
        if not isinstance(other, TruncatedSeries):
            raise TypeError(f"expected TruncatedSeries, got {type(other).__name__}")
        if other.p != self.p:
            raise ModulusMismatch(f"mixed moduli {self.p} and {other.p}")

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        """self + other, at the smaller of the two precisions."""
        self._match(other)
        p = self.p
        return TruncatedSeries._of(
            p, tuple([(a + b) % p for a, b in zip(self.coeffs, other.coeffs)])
        )

    def scale(self, c: int) -> "TruncatedSeries":
        p = self.p
        s = c % p
        return TruncatedSeries._of(p, tuple([s * a % p for a in self.coeffs]))

    def __mul__(self, other):
        """Cauchy product, truncated at the smaller input precision."""
        self._match(other)
        n = min(self.precision, other.precision)
        return TruncatedSeries._of(self.p, cauchy_product(self.coeffs, other.coeffs, self.p, n))

    # -- reshaping ----------------------------------------------------

    def truncate(self, n: int) -> "TruncatedSeries":
        if n < 0 or n > self.precision:
            raise ValueError(f"cannot truncate precision {self.precision} to {brief(n)}")
        return TruncatedSeries._of(self.p, self.coeffs[:n])

    # -- plumbing -----------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSeries)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __repr__(self):
        body = ",".join(str(c) for c in self.coeffs[:16])
        if self.precision > 16:
            body += ",..."
        return f"TruncatedSeries(p={self.p}, N={self.precision}, [{body}])"


def parse_series(text: str, p: int) -> TruncatedSeries:
    """Parse a comma-separated coefficient literal like "0,1,1,0,1,0,0,1".

    Entries are decimal naturals of any length, read by parse_natural();
    they are reduced mod p.  The empty literal is rejected: zero-precision
    series only ever arise as degenerate results of precision loss, never
    as inputs.
    """
    ensure_prime(p)
    parts = [s.strip() for s in text.split(",")]
    if parts == [""]:
        raise ValueError("empty series literal")
    return TruncatedSeries._of(p, tuple(parse_natural(part) % p for part in parts))
