"""Linear machines for the coefficients of an algebraic series.

A linear representation of a series f over F_p is a start row vector
alpha0, one matrix M[d] per base-p digit and an output vector b0:
feeding the digits of n, least significant first, through
alpha <- alpha * M[d] and reading off alpha . b0 yields the n-th
coefficient of f.  Two constructions build one.

exact_representation() is the production route.  By the section
formula of Bostan, Caruso, Christol and Dumas (ANTS XIII, 2018), the
sections of A(x, f)/Qy(x, f) are again of that form, with A in a
finite space of polynomials bounded by the degrees of Q: the proof of
Christol's theorem made finite.  The representation on that space is
exact at every index; reduced to its reachable and observable part it
is minimal.  No root is expanded and nothing is truncated.

orbit_closure() is kept as an independent oracle.  Iterated sections
of an algebraic series span a finite-dimensional space over F_p; it
finds a basis of that space by breadth-first search over truncated
series: starting from the series itself, apply every section, keep the
results that are linearly independent of what came before, and record
the coordinates of the rest.  All comparisons happen at a fixed
truncation precision n_eq.  That makes the closure a certificate at
precision n_eq, not a proof; recheck() re-derives every stored
relation at twice that precision to catch truncation accidents.
Basis elements remember the digit path that produced them, so any of
them can be recomputed from the defining polynomial at any precision.
Only the oracle's result, an OrbitClosure, carries them and n_eq; the
exact route returns the bare machine, a KernelRepresentation.

Both constructions close a span with the same breadth-first search,
_span_closure(), which fixes the order of the basis.  They share nothing
else: the exact route closes polynomial coordinates under the maps T_r,
the oracle the coefficients of truncated series under sections.
"""

from dataclasses import dataclass
from functools import reduce
from operator import mul
from typing import NamedTuple

from .algebraic_series import BivariatePolynomial, BranchSpec, expand_branch
from .errors import ChristolError, DimensionMismatch, StateCapExceeded
from .finite_field import brief
from .linalg import SpanTracker
from .power_series import TruncatedSeries, cauchy_product
from .weeding import section

DEFAULT_N_EQ = 64
DEFAULT_MAX_STATES = 4096
# exact_representation() refuses a Q whose power Q^(p-1) has more
# coefficient cells than this: ((p-1)*dx + 1) * ((p-1)*dy + 1).
MAX_POWER_CELLS = 1 << 16


@dataclass(frozen=True)
class ClosureConfig:
    """Knobs for the closure search.

    n_eq is the truncation precision at which series are compared; below
    8 the comparisons are too blunt to be meaningful, so that is the
    floor.  max_states caps every state-space construction.
    """

    n_eq: int = DEFAULT_N_EQ
    max_states: int = DEFAULT_MAX_STATES

    def __post_init__(self):
        if self.n_eq < 8:
            raise ValueError(f"n_eq must be at least 8, got {brief(self.n_eq)}")
        if self.max_states < 1:
            raise ValueError(f"max_states must be positive, got {brief(self.max_states)}")


class PathExpander:
    """Computes the series at the end of a digit path, growing the root
    expansion on demand.

    A path of length L at target precision t needs the root series to
    t * p**L coefficients; the root is re-expanded with doubling whenever
    a request outgrows it (expansion is deterministic, so earlier
    coefficients never change)."""

    def __init__(self, spec: BranchSpec):
        self.spec = spec
        self._root = None

    def series(self, path, precision: int) -> TruncatedSeries:
        need = precision * self.spec.p ** len(path)
        if self._root is None:
            self._root = expand_branch(self.spec, need)
        elif self._root.precision < need:
            self._root = expand_branch(self.spec, max(need, 2 * self._root.precision))
        s = self._root
        for r in path:
            s = section(s, r)
        return s


class BasisElement(NamedTuple):
    path: tuple
    series: TruncatedSeries


@dataclass(frozen=True)
class KernelRepresentation:
    """A linear machine of dimension m = len(b0) over F_p: one m x m
    update matrix per digit, the start vector alpha0 and the output
    vector b0.  Row vectors update as alpha <- alpha * M[d], digits least
    significant first, and alpha . b0 is the output.  m = 0 is the zero
    series: alpha0 = b0 = () and every output is 0.
    """

    p: int
    matrices: tuple
    b0: tuple
    alpha0: tuple

    @property
    def m(self) -> int:
        return len(self.b0)


@dataclass(frozen=True)
class OrbitClosure(KernelRepresentation):
    """The machine orbit_closure() finds, with what recheck() replays.

    basis holds the BasisElement z_1..z_m of the section closure,
    matrices[d][i][j] is the j-th coordinate of section(z_i, d) over that
    basis, b0 holds the constant terms of the basis, and alpha0 is e_1,
    the series itself being the first basis element, unless the series
    is zero at n_eq: then the basis is empty and m = 0.  Everything was
    verified at truncation precision n_eq.
    """

    basis: tuple
    n_eq: int


def orbit_closure(spec: BranchSpec, cfg: ClosureConfig | None = None) -> OrbitClosure:
    """Breadth-first section closure of the series defined by spec.

    _span_closure() runs over the coefficients of the truncated series,
    so basis elements are adopted in first-seen order (paths shortest
    first, digits ascending), which makes the result canonical: two runs
    on the same spec and config build identical representations.
    """
    cfg = cfg or ClosureConfig()
    p, n_eq = spec.p, cfg.n_eq
    expander = PathExpander(spec)

    def images(_coeffs, path):
        # lazy, so the cap is checked before the next section is expanded
        return (expander.series(path + (d,), n_eq).truncate(n_eq).coeffs for d in range(p))

    first = expander.series((), n_eq).truncate(n_eq).coeffs
    members, paths, matrices = _span_closure(p, first, images, cfg.max_states)
    m = len(members)
    return OrbitClosure(
        p=p,
        matrices=matrices,
        b0=tuple(c[0] for c in members),
        alpha0=(1,) + (0,) * (m - 1) if m else (),
        basis=tuple(BasisElement(path, TruncatedSeries._of(p, c)) for path, c in zip(paths, members)),
        n_eq=n_eq,
    )


def alpha_step(rep: KernelRepresentation, alpha, digit: int) -> tuple:
    """One digit of the linear machine: alpha * M[digit]."""
    if len(alpha) != rep.m:
        raise DimensionMismatch(f"alpha has length {len(alpha)}, basis has {rep.m}")
    if not 0 <= digit < rep.p:
        raise ValueError(f"digit {brief(digit)} outside [0, {rep.p})")
    mat = rep.matrices[digit]
    out = [0] * rep.m
    for i, a in enumerate(alpha):
        if a:
            row = mat[i]
            for j in range(rep.m):
                if row[j]:
                    out[j] = (out[j] + a * row[j]) % rep.p
    return tuple(out)


def alpha_output(rep: KernelRepresentation, alpha) -> int:
    """Output functional alpha . b0, a residue in [0, p)."""
    if len(alpha) != rep.m:
        raise DimensionMismatch(f"alpha has length {len(alpha)}, basis has {rep.m}")
    return sum(a * b for a, b in zip(alpha, rep.b0)) % rep.p


def recheck(rep: OrbitClosure, spec: BranchSpec) -> bool:
    """Re-verify every stored relation at 2 * n_eq coefficients.

    Expands the root once, far enough for the deepest basis path, takes
    each basis series from it by sections, and replays the basis
    prefixes, the output vector, the matrix relations and alpha0 against
    them.  False means the closure was a truncation artifact (or the
    representation was tampered with); True upgrades the certificate to
    the larger precision.  ValueError for anything but an OrbitClosure,
    such as the machine from exact_representation(): it has no
    truncation to recheck, and no basis series to replay.
    """
    if not isinstance(rep, OrbitClosure):
        raise ValueError("recheck needs a representation from orbit_closure(), which has n_eq")
    big = 2 * rep.n_eq
    depth = max((len(el.path) for el in rep.basis), default=0)
    # p*big coefficients at the deepest path, so each section keeps >= big
    root = expand_branch(spec, rep.p * big * rep.p**depth)
    fat = [reduce(section, el.path, root) for el in rep.basis]
    zs = [s.truncate(big) for s in fat]

    for i, el in enumerate(rep.basis):
        if zs[i].truncate(rep.n_eq) != el.series:
            return False
        if rep.b0[i] != zs[i].coeffs[0]:
            return False

    for d in range(rep.p):
        for i in range(rep.m):
            lhs = section(fat[i], d).truncate(big)
            rhs = TruncatedSeries.zero(rep.p, big)
            for j in range(rep.m):
                w = rep.matrices[d][i][j]
                if w:
                    rhs = rhs + zs[j].scale(w)
            if lhs != rhs:
                return False

    combo = TruncatedSeries.zero(rep.p, big)
    for j in range(rep.m):
        if rep.alpha0[j]:
            combo = combo + zs[j].scale(rep.alpha0[j])
    return combo == root.truncate(big)


def _packed_power(q: BivariatePolynomial, e: int, width: int) -> tuple:
    """Q^e for e >= 1, with the coefficient of x^i y^j at i*width + j.

    x -> t^width, y -> t is a ring map into F_p[t] that loses nothing
    while every y-degree stays below width, so Q^e is a univariate power
    by repeated squaring through cauchy_product()."""
    base = [0] * (q.dx * width + q.dy + 1)
    for i, row in enumerate(q.coeffs):
        base[i * width : i * width + len(row)] = row
    out = tuple(base)
    for bit in bin(e)[3:]:
        out = cauchy_product(out, out, q.p, 2 * len(out) - 1)
        if bit == "1":
            out = cauchy_product(out, base, q.p, len(out) + len(base) - 1)
    return out


def _apply(rows, col, p: int) -> tuple:
    """rows * col."""
    return tuple(sum(map(mul, row, col)) % p for row in rows)


def _span_closure(p: int, first, images, max_states: int | None = None):
    """Breadth-first closure of span(first) under p linear maps, digits
    ascending; images(v, path) lists the images under maps 0..p-1 of the
    member v, which the maps in path take first to.  Vectors are
    residues in [0, p).

    Returns (members, paths, matrices): the m members kept, the maps
    that take first to each (in the order applied), and one m x m matrix
    per map, whose row matrices[r][i] holds the coordinates of the image
    of member i under map r over the members.  A zero first gives no
    members."""
    tracker = SpanTracker(p, len(first))
    members, paths = [], []
    rows = [[] for _ in range(p)]

    def adopt(vec, path):
        coords = tracker.append(vec)
        if coords is None:
            if max_states is not None and len(members) >= max_states:
                raise StateCapExceeded(f"section closure exceeds {brief(max_states)} basis elements")
            members.append(vec)
            paths.append(path)
            coords = (0,) * (len(members) - 1) + (1,)
        return coords

    adopt(first, ())
    i = 0
    while i < len(members):
        for r, image in enumerate(images(members[i], paths[i])):
            rows[r].append(adopt(image, paths[i] + (r,)))
        i += 1
    m = len(members)
    return members, paths, tuple(tuple(row + (0,) * (m - len(row)) for row in rows[r]) for r in range(p))


def exact_representation(spec: BranchSpec, max_states: int = DEFAULT_MAX_STATES) -> KernelRepresentation:
    """Minimal linear representation of the root of spec, exact at every
    index: no root expansion, no truncation, no recheck.

    The section formula: for a root f of Q with Qy(0, f(0)) != 0 and any
    polynomial A(x, y),

        section(A(x,f)/Qy(x,f), r) = B(x,f)/Qy(x,f),
        B = sum_ij [x^(p*i+r) y^(p*j+p-1)](A * Q^(p-1)) x^i y^j,

    so T_r(x^a y^b) reads coefficient (p*i+r-a, p*j+p-1-b) of Q^(p-1).
    T_r keeps the space deg_x A <= h = deg_x Q, deg_y A <= d = deg_y Q.
    The start A0 = y*Qy gives f itself, and A(0, a0)/Qy(0, a0) is the
    constant term of the series of A.  Where Qy(0, a0) = 0, the root is
    f = s + x^(v+1)*g for the root g of the shifted polynomial Q~, with s
    and Q~ the head and qt that the BranchSpec constructor found, as
    expand_branch() reads them; then A0 = (s + x^(v+1)*z)*Q~_z, in the
    space deg_x A <= deg_x Q~ + v + 1, which T_r keeps as well.

    Two SpanTracker passes make the representation minimal (Berstel and
    Reutenauer, Noncommutative Rational Series, ch. 2): the vectors
    reachable from A0 under the T_r, then the quotient of that space by
    the states no digit string tells apart, from the columns M_w * b0,
    output functional first.  Coordinate i of a state of the result is
    its output after reading w_i, the digit string of the i-th column
    that search kept (shortest first, the empty string first), so m is
    the dimension of the section closure, alpha0 holds the coefficients
    of f at the indices the w_i spell, and b0 = e_1.

    The BranchSpec constructor has checked every seed entry already.
    StateCapExceeded past max_states basis elements; ChristolError where
    Q^(p-1) would have more than MAX_POWER_CELLS coefficients.
    """
    p, head, q, a0 = spec.p, spec.head, spec.qt, spec.a0
    h, d = q.dx, q.dy
    cells = ((p - 1) * h + 1) * ((p - 1) * d + 1)
    if cells > MAX_POWER_CELLS:
        raise ChristolError(f"Q^(p-1) has {cells} coefficients, more than {MAX_POWER_CELLS}")
    width = (p - 1) * d + 1
    power = _packed_power(q, p - 1, width)

    # A0 = (s + x^(v+1)*y) * Qy over x^a y^b at index a*(d+1) + b, a <= nx - 1
    nx = h + len(head) + 1
    start = [0] * (nx * (d + 1))
    for i, row in enumerate(q.coeffs):
        for j in range(1, d + 1):
            c = j * row[j] % p
            for k, s in enumerate(head):
                start[(i + k) * (d + 1) + j - 1] += c * s
            start[(i + len(head)) * (d + 1) + j] += c
    # terms[b]: (X, j, w) for each nonzero Q^(p-1) coefficient w at
    # (X, Y) with Y + b = p*j + p - 1, so x^a y^b * it lands in T_r
    terms = [[] for _ in range(d + 1)]
    for idx, w in enumerate(power):
        if w:
            X, Y = divmod(idx, width)
            for b in range((p - 1 - Y) % p, d + 1, p):
                terms[b].append((X, (Y + b) // p, w))

    def images(vec, _path):
        """T_0 vec, ..., T_(p-1) vec."""
        out = [[0] * len(vec) for _ in range(p)]
        for idx, c in enumerate(vec):
            if c:
                a, b = divmod(idx, d + 1)
                for X, j, w in terms[b]:
                    i, r = divmod(a + X, p)
                    out[r][i * (d + 1) + j] += c * w
        return [[x % p for x in o] for o in out]

    # the polynomials reachable from A0; rows[r][l] = coordinates of T_r v_l
    reach, _, rows = _span_closure(p, [x % p for x in start], images)
    slope_inv = pow(q.dy_at_origin(a0), p - 2, p)
    b0 = tuple(sum(vec[b] * pow(a0, b, p) for b in range(d + 1)) * slope_inv % p for vec in reach)

    # the observable quotient: columns M_w * b0 for digit strings w, the
    # last digit applied first; cols[r][i] = coordinates of M_r u_i
    columns, _, cols = _span_closure(
        p, b0, lambda col, _path: [_apply(rows[r], col, p) for r in range(p)], max_states
    )
    m = len(columns)
    return KernelRepresentation(
        p=p,
        matrices=tuple(tuple(zip(*cols[r])) for r in range(p)),
        b0=(1,) + (0,) * (m - 1) if m else (),
        alpha0=tuple(col[0] for col in columns),
    )
