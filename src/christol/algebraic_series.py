"""Bivariate polynomials over F_p and the power-series branches they cut out.

The polynomial text format is a tiny expression language:

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' uint)?
    atom   := uint | 'x' | 'y' | '(' expr ')'

Whitespace between tokens is ignored.  There is no unary minus and no
implicit multiplication: write "2*x", not "2x".  A uint has any
length.  Degrees are capped at 64 in each variable so a typo like
x^999999 fails fast instead of allocating, and parentheses nest at most
100 deep, so deeper text is a syntax error, not a RecursionError.

The BranchSpec constructor checks that a seed of low-order
coefficients picks exactly one power series f with Q(x, f) = 0, and
expand_branch() grows that f.  Its one engine is a Newton iteration
with precision doubling, which reaches large precision in a
logarithmic number of series multiplications once dQ/dy is a unit at
the start.  A simple root where dQ/dy vanishes at the start is
first shifted past the seed prefix that shows the valuation of dQ/dy
along it; the shifted polynomial has a root of unit slope.
"""

import math
from dataclasses import dataclass, field

from .errors import (
    AmbiguousBranch,
    DegreeOverflow,
    ModulusMismatch,
    NoBranch,
    PolynomialSyntaxError,
)
from .finite_field import brief, ensure_prime, parse_natural
from .power_series import TruncatedSeries, cauchy_product

DEFAULT_DEGREE_CAP = 64
MAX_NESTING = 100  # four parser frames a level, far below the recursion limit


class BivariatePolynomial:
    """A polynomial Q(x, y) over F_p that genuinely involves y.

    coeffs[i][j] is the coefficient of x^i y^j; the grid is rectangular
    with trailing zero rows and columns trimmed.  Q must have y-degree at
    least 1: these polynomials exist to define series in y, and a
    univariate constraint defines nothing.
    """

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        ensure_prime(p)
        grid = [[int(c) % p for c in row] for row in coeffs]
        width = max((len(row) for row in grid), default=0)
        for row in grid:
            row.extend([0] * (width - len(row)))
        while grid and not any(grid[-1]):
            grid.pop()
        while grid and not any(row[-1] for row in grid):
            for row in grid:
                row.pop()
        if not grid or len(grid[0]) < 2:
            raise ValueError("polynomial must involve y")
        self.p = p
        self.coeffs = tuple(tuple(row) for row in grid)

    @classmethod
    def from_dict(cls, p: int, terms: dict) -> "BivariatePolynomial":
        """Build from {(i, j): coefficient of x^i y^j}."""
        if not terms:
            raise ValueError("polynomial must involve y")
        dx = max(i for i, _ in terms)
        dy = max(j for _, j in terms)
        grid = [[0] * (dy + 1) for _ in range(dx + 1)]
        for (i, j), c in terms.items():
            grid[i][j] = c
        return cls(p, grid)

    @property
    def dx(self) -> int:
        return len(self.coeffs) - 1

    @property
    def dy(self) -> int:
        return len(self.coeffs[0]) - 1

    def _horner(self, f: TruncatedSeries, m: int = 0) -> TruncatedSeries:
        """The m-th Hasse derivative in y at f, sum_j C(j, m) * Q_j * f**(j-m)
        with Q_j the x-coefficients of y^j, truncated at f's precision.
        Horner in y: each step is one series product plus the at most
        dx+1 coefficients of the next weighted row."""
        if f.p != self.p:
            raise ModulusMismatch(f"mixed moduli {self.p} and {f.p}")
        p, n = self.p, f.precision
        acc = []
        for j in range(self.dy, m - 1, -1):
            if acc:
                acc = list(cauchy_product(acc, f.coeffs, p, n))
            row = [r[j] for r in self.coeffs[:n]]
            acc += [0] * (len(row) - len(acc))
            w = math.comb(j, m) % p
            for i, c in enumerate(row):
                acc[i] = (acc[i] + w * c) % p
        acc += [0] * (n - len(acc))
        return TruncatedSeries._of(p, tuple(acc))

    def evaluate(self, f: TruncatedSeries) -> TruncatedSeries:
        """Q(x, f), truncated at f's precision."""
        return self._horner(f)

    def evaluate_dy(self, f: TruncatedSeries) -> TruncatedSeries:
        """(dQ/dy)(x, f), truncated at f's precision."""
        return self._horner(f, 1)

    def dy_at_origin(self, a0: int) -> int:
        """(dQ/dy)(0, a0) as a residue; nonzero means Newton applies."""
        return self._horner(TruncatedSeries._of(self.p, (a0,)), 1).coeffs[0]

    def to_text(self) -> str:
        """Render in the input grammar; parse_bivariate() round-trips it.

        Terms appear in lexicographic (j, i) order with residues spelled
        out, e.g. "x + y + 2*x*y^2".
        """
        parts = []
        for j in range(self.dy + 1):
            for i in range(self.dx + 1):
                c = self.coeffs[i][j]
                if not c:
                    continue
                factors = []
                if c != 1 or (i == 0 and j == 0):
                    factors.append(str(c))
                if i:
                    factors.append("x" if i == 1 else f"x^{i}")
                if j:
                    factors.append("y" if j == 1 else f"y^{j}")
                parts.append("*".join(factors))
        return " + ".join(parts)

    def __eq__(self, other):
        return (
            isinstance(other, BivariatePolynomial)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __repr__(self):
        return f"BivariatePolynomial(p={self.p}, {self.to_text()!r})"


# -- parsing ----------------------------------------------------------

class _Parser:
    # Operates on {(i, j): residue} dicts and only wraps the final result
    # in a BivariatePolynomial, since intermediates (like "(1+x)") need
    # not involve y.

    def __init__(self, text: str, p: int):
        self.text = text
        self.p = p
        self.pos = 0
        self.depth = 0  # parentheses open at pos

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def _peek(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def _fail(self, message):
        raise PolynomialSyntaxError(message, self.pos)

    def _uint(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isascii() and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self._fail("expected an unsigned integer")
        return parse_natural(self.text[start : self.pos])

    def _check_degrees(self, poly):
        for i, j in poly:
            if max(i, j) > DEFAULT_DEGREE_CAP:
                cap = DEFAULT_DEGREE_CAP
                raise DegreeOverflow(f"term x^{i}*y^{j} exceeds degree caps ({cap}, {cap})")

    def _mul(self, a, b):
        out = {}
        for (i1, j1), c1 in a.items():
            for (i2, j2), c2 in b.items():
                key = (i1 + i2, j1 + j2)
                v = (out.get(key, 0) + c1 * c2) % self.p
                if v:
                    out[key] = v
                elif key in out:
                    del out[key]
        self._check_degrees(out)
        return out

    def _addsub(self, a, b, sign):
        out = dict(a)
        for key, c in b.items():
            v = (out.get(key, 0) + sign * c) % self.p
            if v:
                out[key] = v
            elif key in out:
                del out[key]
        return out

    def parse(self):
        poly = self._expr()
        self._skip_ws()
        if self.pos != len(self.text):
            self._fail(f"unexpected character {self.text[self.pos]!r}")
        return poly

    def _expr(self):
        poly = self._term()
        while True:
            ch = self._peek()
            if ch not in ("+", "-"):
                return poly
            self.pos += 1
            rhs = self._term()
            poly = self._addsub(poly, rhs, 1 if ch == "+" else -1)

    def _term(self):
        poly = self._factor()
        while self._peek() == "*":
            self.pos += 1
            poly = self._mul(poly, self._factor())
        return poly

    def _factor(self):
        poly = self._atom()
        if self._peek() == "^":
            self.pos += 1
            exponent = self._uint()
            result = {(0, 0): 1}
            square = poly
            e = exponent
            while e:
                if e & 1:
                    result = self._mul(result, square)
                e >>= 1
                if e:
                    square = self._mul(square, square)
            poly = result
        return poly

    def _atom(self):
        ch = self._peek()
        if ch is None:
            self._fail("unexpected end of input")
        if ch == "(":
            if self.depth == MAX_NESTING:
                self._fail(f"parentheses nested deeper than {MAX_NESTING}")
            self.depth += 1
            self.pos += 1
            poly = self._expr()
            if self._peek() != ")":
                self._fail("expected ')'")
            self.pos += 1
            self.depth -= 1
            return poly
        if ch == "x":
            self.pos += 1
            return {(1, 0): 1}
        if ch == "y":
            self.pos += 1
            return {(0, 1): 1}
        if ch.isascii() and ch.isdigit():
            value = self._uint() % self.p
            return {(0, 0): value} if value else {}
        self._fail(f"unexpected character {ch!r}")


def parse_bivariate(text: str, p: int) -> BivariatePolynomial:
    """Parse polynomial text over F_p into a BivariatePolynomial.

    Raises PolynomialSyntaxError (with offset) on malformed text, also
    past MAX_NESTING parentheses, DegreeOverflow where a term, also an
    intermediate one, has x- or y-degree above DEFAULT_DEGREE_CAP, and
    ValueError if the result does not involve y.
    """
    ensure_prime(p)
    terms = _Parser(text, p).parse()
    return BivariatePolynomial.from_dict(p, terms)


@dataclass(frozen=True)
class BranchSpec:
    """A defining polynomial plus the seed coefficients that pick one of
    its power-series roots.  The constructor is the one check of a
    branch: NoBranch where no root extends the seed, AmbiguousBranch
    where the seed stops before the root is determined, whatever the
    number of terms asked later.  It keeps the start (head, qt, a0) that
    _root_start() finds; equality, hash and repr read q and seed alone."""

    q: BivariatePolynomial
    seed: tuple = ()
    head: tuple = field(init=False, compare=False, repr=False)
    qt: BivariatePolynomial = field(init=False, compare=False, repr=False)
    a0: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        seed = tuple(int(c) % self.q.p for c in self.seed)
        head, qt, a0 = _root_start(self.q, seed)
        for name, value in (("seed", seed), ("head", head), ("qt", qt), ("a0", a0)):
            object.__setattr__(self, name, value)

    @property
    def p(self) -> int:
        return self.q.p


# -- expansion --------------------------------------------------------


def _trim(a: list) -> list:
    """a without its trailing zeros, trimmed in place."""
    while a and not a[-1]:
        a.pop()
    return a


def _monic(a, p: int) -> list:
    """a scaled to leading coefficient 1; a is nonzero and trimmed."""
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def _rem(a, g, p: int) -> list:
    """a mod the monic g, trimmed; coefficient lists low order first."""
    a, d = list(a), len(g) - 1
    for k in range(len(a) - 1, d - 1, -1):
        c = a[k]
        if c:
            for t in range(d + 1):
                a[k - d + t] = (a[k - d + t] - c * g[t]) % p
    return _trim(a[:d])


def _mulmod(a, b, g, p: int) -> list:
    """a * b mod the monic g."""
    return _rem(cauchy_product(a, b, p, len(a) + len(b) - 1), g, p)


def _root_product_at_origin(q: BivariatePolynomial):
    """gcd(Q(0, y), y^p - y), monic and low order first: the product of
    y - c over the distinct roots c in F_p of Q(0, y), so its degree
    counts them.  y^p is reduced modulo Q(0, y) by repeated squaring, in
    time polynomial in deg_y Q and log p.  None when Q(0, y) = 0, where
    every residue is a root."""
    p, g = q.p, _trim(list(q.coeffs[0]))
    if not g:
        return None
    g = _monic(g, p)
    y = _rem([0, 1], g, p)
    power = y
    for bit in bin(p)[3:]:
        power = _mulmod(power, power, g, p)
        if bit == "1":
            power = _mulmod(power, y, g, p)
    b = power + [0] * (2 - len(power))
    b[1] = (b[1] - 1) % p  # y^p - y
    a, b = g, _rem(b, g, p)
    while b:
        b = _monic(b, p)
        a, b = b, _rem(a, b, p)
    return a


def _start_coefficient(q: BivariatePolynomial, seed) -> int:
    if seed:
        if q.evaluate(TruncatedSeries._of(q.p, (seed[0],))).coeffs[0]:
            raise NoBranch(0)
        return seed[0]
    h = _root_product_at_origin(q)
    if h is None or len(h) > 2:
        raise AmbiguousBranch(0)
    if len(h) == 1:
        raise NoBranch(0)
    return -h[0] % q.p


def _expand_newton(q: BivariatePolynomial, a0: int, n: int) -> TruncatedSeries:
    """First n >= 0 coefficients of the root of q through a0, by the Newton
    iteration f <- f - Q(x,f)/Qy(x,f) with precision doubling.

    Requires Qy(0, a0) != 0, which keeps the divisor a unit throughout.
    The inverse g of Qy(x, f) is carried along at half precision: a
    step from t to T correct coefficients needs it only mod x^(T-t),
    because Q(x, f) vanishes mod x^t, and one inverse-Newton step
    g <- g*(2 - Qy*g) then doubles it for the next round.
    """
    p = q.p
    f = (a0,)
    g = (pow(q.dy_at_origin(a0), p - 2, p),)  # 1/Qy(x, f) mod x^(T-t)
    t = 1
    while t < n:
        T = min(2 * t, n)
        value = q.evaluate(TruncatedSeries._of(p, f + (0,) * (T - t))).coeffs[t:]
        f += tuple([(-c) % p for c in cauchy_product(value, g, p, T - t)])
        if T < n:
            # Qy*g = 1 + x^h*e mod x^(2h), so g*(2 - Qy*g) = g - x^h*g*e
            h, need = len(g), min(2 * T, n) - T
            slope = q.evaluate_dy(TruncatedSeries._of(p, f[:need])).coeffs
            e = cauchy_product(slope, g, p, need)[h:]
            g += tuple([(-c) % p for c in cauchy_product(g, e, p, need - h)])
        t = T
    return TruncatedSeries._of(p, f[:n])


def _shift(q: BivariatePolynomial, head, v: int) -> BivariatePolynomial:
    """x^-(2v+1) * Q(x, s + x^(v+1)*z) for the polynomial s = head of
    length v+1, along which Qy has valuation v.

    Its z^m coefficient is x^((v+1)m - 2v - 1) times the m-th Hasse
    derivative of Q at s, a polynomial of degree at most dx + v*dy, so
    evaluating at that precision is exact.  The m = 0 term must vanish
    below x^(2v+1); where it does not, no series extending head is a
    root, since adding x^(v+1)*z to s moves Q only from x^(2v+1) on.
    """
    p = q.p
    s = TruncatedSeries._of(p, head + (0,) * (q.dx + v * (q.dy - 1)))
    hasse = [q._horner(s, m).coeffs for m in range(q.dy + 1)]
    for k, c in enumerate(hasse[0][: 2 * v + 1]):
        if c:
            raise NoBranch(k)
    return BivariatePolynomial.from_dict(
        p,
        {(i + (v + 1) * m - 2 * v - 1, m): c for m, h in enumerate(hasse) for i, c in enumerate(h) if c},
    )


def _root_start(q: BivariatePolynomial, seed):
    """Where the root of q extending seed starts, for the BranchSpec
    constructor, which alone calls this: (head, qt, a0), the root being
    head followed by the root of qt through a0, at which qt has unit
    slope.  Every seed entry is checked: NoBranch where no root extends
    the seed, AmbiguousBranch where the seed stops before the root is
    determined.

    a0 is the first coefficient: seed[0] if it is a root of Q(0, y),
    else the one root of Q(0, y) in F_p.  Where Qy(0, a0) != 0, head is
    () and qt is q.  Otherwise the coefficient of x^k in Q(x, s) does
    not depend on s beyond index k-1, so the seed (or (a0,)) is checked
    index by index below its length first.  If Qy has valuation v along
    it, the shift y = s + x^(v+1)*z (Kung and Traub, J. ACM 1978) turns
    the root into one of unit slope; that needs the seed to run one
    coefficient past v.  A shorter seed, or an inseparable Q, leaves the
    next coefficient undetermined or impossible.  Then head is the
    prefix s = seed[:v+1] and qt the shifted Q.

    The root is then unique, and the seed is compared with its Newton
    expansion to the seed's length.
    """
    a0 = _start_coefficient(q, seed)
    head, qt = (), q
    if not q.dy_at_origin(a0):
        known, p = seed or (a0,), q.p
        size = len(known)
        s = TruncatedSeries._of(p, known + (0,))
        value = q.evaluate(s).coeffs
        for k in range(size):
            if value[k]:
                raise NoBranch(k)
        slope = q.evaluate_dy(s).coeffs[:size]
        v = next((k for k, c in enumerate(slope) if c), size)
        if v == size:
            raise (NoBranch if value[size] else AmbiguousBranch)(size)
        head = seed[: v + 1]
        qt = _shift(q, head, v)
        a0 = _start_coefficient(qt, ())
    root = head + _expand_newton(qt, a0, len(seed) - len(head)).coeffs
    for k, c in enumerate(seed):
        if root[k] != c:
            raise NoBranch(k)
    return head, qt, a0


def expand_branch(spec: BranchSpec, n: int) -> TruncatedSeries:
    """First n coefficients of the series root of spec.q extending spec.seed.

    The BranchSpec constructor has checked the seed, every entry of it,
    and found where the root starts: the head it took from the seed, then
    the Newton iteration on the polynomial of unit slope there, which is
    spec.q itself where dQ/dy(0, a0) is a unit and the shift past the
    head otherwise.
    """
    if n < 0:
        raise ValueError(f"term count must be nonnegative, got {brief(n)}")
    head = spec.head[:n]
    return TruncatedSeries._of(spec.p, head + _expand_newton(spec.qt, spec.a0, n - len(head)).coeffs)


def verify_annihilation(q: BivariatePolynomial, f: TruncatedSeries) -> bool:
    """Does Q(x, f) vanish to f's precision?  Vacuously true at precision 0;
    ModulusMismatch, from the evaluation, where f lives over another field."""
    return q.evaluate(f).is_zero()
