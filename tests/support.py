"""Shared helpers for the test suite.

The oracles here deliberately avoid the library's own code paths: digit
parity comes from Python's bin(), base conversion from int divmod, and
binomials from math.comb, so a library bug cannot vouch for itself.
"""

import math
import random

from christol import BivariatePolynomial, BranchSpec, TruncatedSeries


def parity(n: int) -> int:
    """Thue-Morse: parity of the binary digit sum of n."""
    return bin(n).count("1") & 1


def base_digits(n: int, p: int) -> list:
    """Base-p digits of n, least significant first, via int arithmetic."""
    out = []
    while n:
        n, r = divmod(n, p)
        out.append(r)
    return out


def lucas_central_binomial_mod3(n: int) -> int:
    """C(2n, n) mod 3: zero when some base-3 digit of n is 2 (the addition
    n + n carries there), else 2 to the number of 1 digits."""
    digits = base_digits(n, 3)
    if 2 in digits:
        return 0
    return pow(2, digits.count(1), 3)


def central_binomial_direct(n: int) -> int:
    """C(2n, n) mod 3 the slow, undeniable way."""
    return math.comb(2 * n, n) % 3


def central_binomial_lucas(n: int, p: int) -> int:
    """C(2n, n) mod p by Lucas' theorem: the product over base-p digit
    positions of C(digit of 2n, digit of n), each from math.comb."""
    out = 1
    top, bottom = 2 * n, n
    while bottom:
        top, t = divmod(top, p)
        bottom, b = divmod(bottom, p)
        out = out * math.comb(t, b) % p
    return out


def random_separable_spec(rng: random.Random, p: int, max_dx: int = 4, max_dy: int = 3) -> BranchSpec:
    """A random Q with a root a0 of Q(0, y) where dQ/dy(0, a0) != 0, so
    Newton applies; the spec is seeded with a0."""
    while True:
        grid = [[rng.randrange(p) for _ in range(max_dy + 1)] for _ in range(max_dx + 1)]
        a0 = rng.randrange(p)
        grid[0][0] = -sum(grid[0][j] * a0**j for j in range(1, max_dy + 1)) % p
        if sum(j * grid[0][j] * a0 ** (j - 1) for j in range(1, max_dy + 1)) % p:
            return BranchSpec(BivariatePolynomial(p, grid), seed=(a0,))


def random_series(rng: random.Random, p: int, max_len: int = 48, min_len: int = 0) -> TruncatedSeries:
    length = rng.randint(min_len, max_len)
    return TruncatedSeries(p, [rng.randrange(p) for _ in range(length)])


def random_decimal(rng: random.Random, num_digits: int) -> str:
    first = rng.choice("123456789")
    rest = "".join(rng.choice("0123456789") for _ in range(num_digits - 1))
    return first + rest


def random_primitive_denominator(rng: random.Random, p: int, degree: int) -> list:
    """Coefficients (low order first) of a random D of the given degree
    modulo which x has order p^degree - 1, so 1/D has the longest period
    a degree-degree denominator allows.  The order is found by stepping
    x^e mod D one power at a time."""
    while True:
        denom = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(degree - 1)]
        denom.append(rng.randrange(1, p))
        lead_inv = pow(denom[-1], p - 2, p)
        one = [1] + [0] * (degree - 1)
        power, order = one, 0
        while True:
            order += 1
            carry = power[-1] * lead_inv % p
            power = [(a - carry * b) % p for a, b in zip([0] + power[:-1], denom)]
            if power == one:
                break
        if order == p**degree - 1:
            return denom


def polynomial_text(coeffs) -> str:
    """Parser text for a univariate polynomial in x, low order first."""
    terms = [f"{c}*x^{i}" if i else str(c) for i, c in enumerate(coeffs) if c]
    return "+".join(terms) or "0"


def byte_identity_cases(rng):
    """(p, poly, seed) for seeded random families: primitive 1/D over
    F_2, F_3 and F_5, 1/(1+x^k) over F_2, and the central binomial
    series (1-4x)^(-1/2) over F_3, F_5 and F_7."""
    cases = []
    for p, degrees in ((2, (1, 2, 3, 4, 5)), (3, (1, 2, 3)), (5, (1, 2))):
        for degree in degrees:
            denom = random_primitive_denominator(rng, p, degree)
            cases.append((p, f"({polynomial_text(denom)})*y + {p - 1}", ""))
    for k in range(1, 11):
        cases.append((2, f"(1+x^{k})*y + 1", ""))
    for p in (3, 5, 7):
        cases.append((p, f"(1+{(p - 4) % p}*x)*y^2 + {p - 1}", "1"))
    return cases


def rref_nullspace_basis(rows, p: int, ncols: int):
    """Right kernel basis by reduced row echelon form, pivots chosen left
    to right, one vector per free column in column order.  This is the
    elimination nullspace_basis() used before it became a column scan
    over SpanTracker; it stays here as an independent reference."""
    mat = [[x % p for x in row] for row in rows]
    pivot_of_col = {}
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = pow(mat[r][c], p - 2, p)
        mat[r] = [(x * inv) % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                fac = mat[i][c]
                mat[i] = [(a - fac * b) % p for a, b in zip(mat[i], mat[r])]
        pivot_of_col[c] = r
        r += 1
    basis = []
    for free in range(ncols):
        if free in pivot_of_col:
            continue
        v = [0] * ncols
        v[free] = 1
        for c, row_idx in pivot_of_col.items():
            v[c] = (-mat[row_idx][free]) % p
        basis.append(tuple(v))
    return basis
