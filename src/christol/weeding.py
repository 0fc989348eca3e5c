"""Subsequence extraction on truncated series over F_p.

Two routes to the same operator.  The section (Cartier) operator of
residue r picks out every p-th coefficient starting at r:

    section(sum a_j x^j, r) = sum a_{p*m+r} x^m.

Weeding of degree k reaches the same subsequence by calculus: multiply
by x^k, apply the (p-1)-fold derivative, negate, and take the termwise
p-th root.  The (p-1)-fold derivative of x^j survives exactly when
j = p*m + p - 1 (any other run of p-1 consecutive factors hits a
multiple of p), and the surviving factor (p-1)! is -1 by Wilson's
theorem, which the negation cancels.  Hence

    weed(f, k) = section(f, p - 1 - k),

extracting the subsequence a_{p*n + p - 1 - k}.  weed() is implemented
as the section directly; weed_via_derivative() keeps the calculus route
alive as an independent cross-check.
"""

from .errors import DegreeOutOfRange
from .finite_field import brief
from .power_series import TruncatedSeries


def section(f: TruncatedSeries, r: int) -> TruncatedSeries:
    """Cartier section of residue r: result[m] = f[p*m + r].

    The result keeps floor((N-1-r)/p) + 1 coefficients when N > r and
    none otherwise; that is exactly how many indices p*m + r are below N.
    """
    if not 0 <= r < f.p:
        raise ValueError(f"residue {r} outside [0, {f.p})")
    return TruncatedSeries._of(f.p, f.coeffs[r :: f.p])


def weed(f: TruncatedSeries, k: int) -> TruncatedSeries:
    """Weeding of degree k: the subsequence a_{p*n + p - 1 - k}.

    k must lie in [0, p); the degree counts how far the extracted
    residue class sits below p-1.
    """
    if not 0 <= k < f.p:
        raise DegreeOutOfRange(f"weeding degree {brief(k)} outside [0, {f.p})")
    return section(f, f.p - 1 - k)


def weed_via_derivative(f: TruncatedSeries, k: int) -> TruncatedSeries:
    """Weeding of degree k computed the long way, on coefficient tuples:
    multiply by x^k, take p-1 derivatives (each costs one coefficient),
    negate, and take the termwise p-th root, which over F_p just
    decimates.

    Agrees with weed(f, k) coefficient for coefficient, including the
    resulting precision.  Kept as a differential-testing oracle for the
    fast path; a nonzero coefficient off the multiples of p before the
    p-th root would mean the algebra above is wrong, so it is a hard
    failure.
    """
    p = f.p
    if not 0 <= k < p:
        raise DegreeOutOfRange(f"weeding degree {brief(k)} outside [0, {p})")
    g = (0,) * k + f.coeffs
    for _ in range(p - 1):
        g = tuple([j * c % p for j, c in enumerate(g)][1:])
    stray = next((i for i, c in enumerate(g) if c and i % p), None)
    if stray is not None:  # pragma: no cover - internal invariant
        raise RuntimeError(f"derivative route left a nonzero coefficient at index {stray}")
    return TruncatedSeries._of(p, tuple([-c % p for c in g[::p]]))
