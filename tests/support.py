"""Shared helpers for the test suite.

The oracles here deliberately avoid the library's own code paths: digit
parity comes from Python's bin(), base conversion from int divmod, and
binomials from math.comb, so a library bug cannot vouch for itself.
"""

import math
import random
import sys

from christol import (
    AmbiguousBranch,
    BivariatePolynomial,
    BranchSpec,
    NoBranch,
    NoRelationFound,
    TruncatedSeries,
)
from christol.algebraic_series import _start_coefficient


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


def close_roots_case(rng: random.Random, p: int, v: int):
    """(poly text, r, seed) for Q = (y - r)(y - r - u*x^v)(1 + c1*x + c2*x*y)
    with a random polynomial r and u != 0.  The roots r and r + u*x^v
    agree below x^v, so dQ/dy has valuation v along r, and the seed is
    r mod x^(v+1), the shortest prefix that tells them apart.  The third
    factor is linear in y with no power-series root."""
    r = [rng.randrange(p) for _ in range(rng.randint(1, v + 3))]
    u, c1, c2 = rng.randrange(1, p), rng.randrange(p), rng.randrange(p)
    rt = polynomial_text(r)
    text = f"(y - ({rt}))*(y - ({rt}) - {u}*x^{v})*(1 + {c1}*x + {c2}*x*y)"
    seed = tuple(r[: v + 1]) + (0,) * (v + 1 - len(r))
    return text, r, seed


def random_singular_spec(rng: random.Random, p: int, max_dx: int = 3, max_dy: int = 3):
    """A random Q and a root a0 of Q(0, y) with dQ/dy(0, a0) = 0, so
    Newton does not apply at the start."""
    while True:
        grid = [[rng.randrange(p) for _ in range(max_dy + 1)] for _ in range(max_dx + 1)]
        a0 = rng.randrange(p)
        grid[0][1] = -sum(j * grid[0][j] * a0 ** (j - 1) for j in range(2, max_dy + 1)) % p
        grid[0][0] = -sum(grid[0][j] * a0**j for j in range(1, max_dy + 1)) % p
        if any(grid[i][j] for i in range(max_dx + 1) for j in range(1, max_dy + 1)):
            return BivariatePolynomial(p, grid), a0


def naive_compose(grid, p: int, f, n: int) -> list:
    """sum_ij grid[i][j] * x^i * f^j mod x^n for a coefficient list f, by
    schoolbook products of plain lists."""
    out, power = [0] * n, [1] + [0] * (n - 1)
    for j in range(len(grid[0])):
        for i in range(min(len(grid), n)):
            for k in range(n - i):
                out[i + k] = (out[i + k] + grid[i][j] * power[k]) % p
        power = [sum(power[a] * f[k - a] for a in range(k + 1) if k - a < len(f)) % p for k in range(n)]
    return out


def root_prefixes(q: BivariatePolynomial, seed, depth: int) -> list:
    """Every f of length depth extending seed with Q(x, f) = 0 mod x^depth.

    Grown one coefficient at a time: Q(x, f) mod x^(k+1) depends only on
    f mod x^(k+1), so a prefix that fails mod x^(k+1) has no extension
    that succeeds."""
    level = [()]
    for k in range(depth):
        choices = (seed[k],) if k < len(seed) else range(q.p)
        level = [f + (c,) for f in level for c in choices if not naive_compose(q.coeffs, q.p, f + (c,), k + 1)[k]]
    return level


def random_series(rng: random.Random, p: int, max_len: int = 48, min_len: int = 0) -> TruncatedSeries:
    length = rng.randint(min_len, max_len)
    return TruncatedSeries(p, [rng.randrange(p) for _ in range(length)])


def decimal_str(n: int) -> str:
    """str(n) for an n of any length.  The interpreter's int(str) limit
    (sys.set_int_max_str_digits) is lifted for this one conversion and
    restored after it, so the code under test still runs under the limit
    the suite was started with."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return str(n)
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(saved)


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


def rational_coefficients(p: int, numer, denom, n: int) -> list:
    """First n coefficients of numer/denom over F_p, low order first, by
    long division; denom[0] must be a unit."""
    inv = pow(denom[0], p - 2, p)
    out = []
    for k in range(n):
        acc = numer[k] if k < len(numer) else 0
        acc -= sum(denom[t] * out[k - t] for t in range(1, min(k, len(denom) - 1) + 1))
        out.append(acc * inv % p)
    return out


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


def rank(vectors, p: int, width: int) -> int:
    """Rank of the given vectors over F_p: width minus the kernel size of
    the matrix whose rows they are, by rref_nullspace_basis(), so the
    tests never ask SpanTracker to check itself."""
    return width - len(rref_nullspace_basis(vectors, p, width))


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


def full_matrix_guess(f: TruncatedSeries, dx: int, dy: int) -> BivariatePolynomial:
    """guess_polynomial() as it was before it solved on a few rows: the
    first reduced row echelon kernel vector of the whole N x k matrix of
    columns x^i * f^j, by rref_nullspace_basis(), normalized so its
    first nonzero coefficient in (j, i) order is 1.  Raises
    NoRelationFound on full column rank.  A reference only."""
    p, n = f.p, f.precision
    powers = [[1] + [0] * (n - 1)]
    for _ in range(dy):
        prev = powers[-1]
        powers.append([sum(prev[a] * f.coeffs[k - a] for a in range(k + 1)) % p for k in range(n)])
    columns = [[0] * i + powers[j][: n - i] for j in range(dy + 1) for i in range(dx + 1)]
    kernel = rref_nullspace_basis([[col[r] for col in columns] for r in range(n)], p, len(columns))
    if not kernel:
        raise NoRelationFound(f"no relation within degree bounds ({dx}, {dy})")
    inv = pow(next(v for v in kernel[0] if v), p - 2, p)
    terms = {(idx % (dx + 1), idx // (dx + 1)): v * inv % p for idx, v in enumerate(kernel[0]) if v}
    return BivariatePolynomial.from_dict(p, terms)


def _hasse_rows(q: BivariatePolynomial, a0: int, n: int):
    """H[m] = (m-th Hasse y-derivative of Q)(x, a0) as length-n lists.

    H[m] has y-row coefficients C(j, m) * a0^(j-m) summed over j >= m.
    """
    p = q.p
    rows = []
    for m in range(q.dy + 1):
        acc = [0] * n
        for j in range(m, q.dy + 1):
            w = (math.comb(j, m) % p) * pow(a0, j - m, p) % p
            if not w:
                continue
            for i in range(min(q.dx + 1, n)):
                if q.coeffs[i][j]:
                    acc[i] = (acc[i] + w * q.coeffs[i][j]) % p
        rows.append(acc)
    return rows


def _hasse_update(rows, c: int, k: int, p: int, n: int):
    """Replace H[m] <- Hasse rows of Q at (partial + c*x^k).

    Uses H'_m = sum_l C(m+l, m) c^l x^(k*l) H_(m+l); the composition rule
    for Hasse derivatives, exact in characteristic p.
    """
    dy = len(rows) - 1
    powc = [1]
    for _ in range(dy):
        powc.append(powc[-1] * c % p)
    fresh = []
    for m in range(dy + 1):
        acc = rows[m][:]
        for l in range(1, dy - m + 1):
            off = k * l
            if off >= n:
                break
            w = (math.comb(m + l, m) % p) * powc[l] % p
            if not w:
                continue
            src = rows[m + l]
            for idx in range(n - off):
                if src[idx]:
                    acc[idx + off] = (acc[idx + off] + w * src[idx]) % p
        fresh.append(acc)
    rows[:] = fresh


def expand_baseline(q: BivariatePolynomial, seed, n: int) -> TruncatedSeries:
    """Candidate-testing expansion: at step k, a residue c survives iff
    Q(x, partial + c*x^k) = 0 mod x^(k+1).  The Hasse rows make each test
    a lookup: the condition is H0[k] + c*H1[0] = 0.

    This is the engine expand_branch() used before the shift replaced it
    where dQ/dy(0, a0) = 0; it stays here as an independent reference.
    Where dQ/dy(0, a0) = 0 it returns at most the seed."""
    p = q.p
    a0 = _start_coefficient(q, seed)
    coeffs = [a0]
    if n == 1:
        return TruncatedSeries(p, coeffs)
    rows = _hasse_rows(q, a0, n)
    qy0 = rows[1][0]
    inv_qy0 = pow(qy0, p - 2, p) if qy0 else 0
    for k in range(1, n):
        v = rows[0][k]
        if k < len(seed):
            c = seed[k]
            if (v + c * qy0) % p:
                raise NoBranch(k)
        elif qy0:
            c = (-v * inv_qy0) % p
        elif v == 0:
            raise AmbiguousBranch(k)  # every residue extends mod x^(k+1)
        else:
            raise NoBranch(k)
        coeffs.append(c)
        if c:
            _hasse_update(rows, c, k, p, n)
    return TruncatedSeries(p, coeffs)
