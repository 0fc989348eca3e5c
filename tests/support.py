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
