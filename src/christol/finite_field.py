"""Validation of the prime modulus p <= 2**16.

Elements of F_p are plain int residues in [0, p) throughout the package.
"""

import functools
import reprlib

MAX_MODULUS = 2**16


@functools.lru_cache(maxsize=None)
def ensure_prime(p: int) -> int:
    """Validate that p is a prime in [2, 2**16] and return it.  Messages
    show p through reprlib, so a huge value prints cut short.

    Trial division is plenty at this size, and the cache makes repeated
    validation (one per series or machine construction) a dictionary hit.
    """
    if not isinstance(p, int) or isinstance(p, bool):
        raise ValueError(f"modulus must be an int, got {reprlib.repr(p)}")
    if p < 2 or p > MAX_MODULUS:
        raise ValueError(f"modulus {reprlib.repr(p)} outside the supported range [2, {MAX_MODULUS}]")
    d = 2
    while d * d <= p:
        if p % d == 0:
            raise ValueError(f"modulus {p} is not prime (divisible by {d})")
        d += 1
    return p

