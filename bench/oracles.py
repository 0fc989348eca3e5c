"""Independent oracles for the benchmark's correctness checks.

Nothing here imports christol: every value is computed from a closed
form or a recurrence with plain Python integers, so a defect in the
library cannot hide behind a defect shared with its checker.

Indices may have more decimal digits than ``sys.get_int_max_str_digits()``
allows ``int()`` to parse in one call.  decimal_to_int() therefore parses
in chunks below that limit, and nothing in the benchmark raises the
limit: a library routine that leans on ``int(str)`` fails here exactly as
it would for a user.
"""

import math

# Below the interpreter's default limit of 4300 digits per int() call.
DECIMAL_CHUNK = 1000


def decimal_to_int(text: str) -> int:
    """Value of a decimal digit string of any length, parsed in chunks."""
    if not text or not text.isascii() or not text.isdigit():
        raise ValueError(f"expected a decimal natural number, got {text[:40]!r}")
    value = 0
    for start in range(0, len(text), DECIMAL_CHUNK):
        chunk = text[start : start + DECIMAL_CHUNK]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def base_digits(n: int, p: int) -> list:
    """Base-p digits of n >= 0, least significant first; [] for 0.

    Divide and conquer on p**(2**k), so long indices cost a few big-int
    divisions rather than one short division per digit."""
    if n < 0 or p < 2:
        raise ValueError(f"need n >= 0 and p >= 2, got n={n}, p={p}")
    if n == 0:
        return []
    powers = [p]  # powers[k] = p**(2**k)
    while powers[-1] * powers[-1] <= n:
        powers.append(powers[-1] * powers[-1])

    def split(m, k):
        # exactly 2**(k+1) digits of m < p**(2**(k+1)), low first
        if k < 0:
            return [m]
        hi, lo = divmod(m, powers[k])
        return split(lo, k - 1) + split(hi, k - 1)

    digits = split(n, len(powers) - 1)
    while digits and digits[-1] == 0:
        digits.pop()
    return digits


# -- coefficient oracles ----------------------------------------------


def digit_sum_parity(n: int) -> int:
    """Thue-Morse: parity of the number of ones in the binary digits of n."""
    return bin(n).count("1") & 1


def central_binomial_mod(n: int, p: int) -> int:
    """C(2n, n) mod p by Lucas: the product over base-p digit positions
    of C(digit of 2n, digit of n)."""
    top = base_digits(2 * n, p)
    bottom = base_digits(n, p)
    value = 1
    for i, b in enumerate(bottom):
        t = top[i]
        if b > t:
            return 0
        value = value * math.comb(t, b) % p
    return value


def divides_indicator(k: int, n: int) -> int:
    """Coefficient n of 1/(1 + x^k) over F_2: 1 when k divides n."""
    return 1 if n % k == 0 else 0


class Reciprocal:
    """Coefficients of 1/D(x) over F_p, D given low order first with
    D(0) != 0.

    With a_n the n-th coefficient, D * A = 1 gives the recurrence
    d0 * a_n = [n == 0] - sum_{i >= 1} d_i * a_{n-i}.  prefix() runs it
    directly; coefficient() powers its companion matrix, so an index of
    thousands of digits costs one squaring per bit."""

    def __init__(self, denom, p: int):
        self.p = p
        self.denom = [c % p for c in denom]
        while len(self.denom) > 1 and self.denom[-1] == 0:
            self.denom.pop()
        if not self.denom[0]:
            raise ValueError("D(0) must be nonzero")
        self.inv0 = pow(self.denom[0], p - 2, p)
        self.order = len(self.denom) - 1

    def prefix(self, count: int) -> list:
        p, d = self.p, self.denom
        out = []
        for n in range(count):
            acc = 1 if n == 0 else 0
            for i in range(1, min(n, self.order) + 1):
                acc -= d[i] * out[n - i]
            out.append(acc * self.inv0 % p)
        return out

    def coefficient(self, n: int) -> int:
        if self.order == 0:
            return self.inv0 if n == 0 else 0
        p, r = self.p, self.order
        # state (a_n, a_{n-1}, ..., a_{n-r+1}); one step multiplies by
        # the companion matrix whose first row is -d_i / d_0
        step = [[0] * r for _ in range(r)]
        for i in range(r):
            step[0][i] = -self.denom[i + 1] * self.inv0 % p
        for i in range(1, r):
            step[i][i - 1] = 1
        power = _mat_pow(step, n, p)
        # a_0 = 1/d0 and a_{-1} = ... = 0, so only column 0 matters
        return power[0][0] * self.inv0 % p


def _mat_mul(a, b, p):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in a]


def _mat_pow(m, e, p):
    r = len(m)
    result = [[int(i == j) for j in range(r)] for i in range(r)]
    for bit in bin(e)[2:]:
        result = _mat_mul(result, result, p)
        if bit == "1":
            result = _mat_mul(result, m, p)
    return result


# -- truncated series arithmetic on Python ints ------------------------


def mul_trunc(a, b, p: int, n: int) -> list:
    """First n coefficients of a*b over F_p, by Kronecker substitution:
    pack each vector into one big integer with byte slots wide enough
    that no coefficient of the integer product carries, multiply once,
    unpack."""
    a, b = list(a[:n]), list(b[:n])
    if not a or not b or n <= 0:
        return [0] * max(n, 0)
    bound = (p - 1) ** 2 * min(len(a), len(b))
    width = max(1, (bound.bit_length() + 7) // 8)
    slots = len(a) + len(b) - 1
    raw = (_pack(a, width) * _pack(b, width)).to_bytes(width * slots, "little")
    out = [int.from_bytes(raw[k * width : (k + 1) * width], "little") % p for k in range(min(n, slots))]
    return out + [0] * (n - len(out))


def _pack(coeffs, width: int) -> int:
    return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in coeffs), "little")


def annihilates(q_rows, f, p: int) -> bool:
    """Does sum_{i,j} q_rows[i][j] x^i f^j vanish mod x^len(f)?

    q_rows[i][j] is the coefficient of x^i y^j, the layout christol's
    BivariatePolynomial.coeffs uses.  Horner in y."""
    n = len(f)
    dy = max((len(row) for row in q_rows), default=0) - 1
    acc = [0] * n
    for j in range(dy, -1, -1):
        if any(acc):
            acc = mul_trunc(acc, f, p, n)
        for i, row in enumerate(q_rows[:n]):
            if j < len(row) and row[j]:
                acc[i] = (acc[i] + row[j]) % p
    return not any(acc)
