"""Finite section closure of an algebraic series and its linear machine.

Iterated sections of an algebraic series span a finite-dimensional space
over F_p.  orbit_closure() finds a basis of that space by breadth-first
search: starting from the series itself, apply every section, keep the
results that are linearly independent of what came before, and record
the coordinates of the rest.  The per-digit coordinate matrices turn
coefficient lookup into linear algebra: feeding the base-p digits of n,
least significant first, through alpha <- alpha * M[digit] and reading
off alpha . b0 yields the n-th coefficient.

All comparisons happen at a fixed truncation precision n_eq.  That makes
the closure a certificate at precision n_eq, not a proof; recheck()
re-derives every stored relation at a strictly larger precision to catch
truncation accidents.

Basis elements remember the digit path that produced them, so any of
them can be recomputed from the defining polynomial at any precision.
"""

from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

from .algebraic_series import BranchSpec, expand_branch
from .errors import ChristolError, DimensionMismatch, StateCapExceeded
from .finite_field import FpElement
from .linalg import SpanTracker
from .power_series import TruncatedSeries
from .weeding import section

DEFAULT_N_EQ = 64
DEFAULT_MAX_STATES = 4096


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
            raise ValueError(f"n_eq must be at least 8, got {self.n_eq}")
        if self.max_states < 1:
            raise ValueError(f"max_states must be positive, got {self.max_states}")


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
    """Basis of the section closure plus the per-digit update matrices.

    matrices[d][i][j] is the j-th coordinate of section(z_i, d) over the
    basis z_1..z_m; row vectors update as alpha <- alpha * M[d].  b0
    holds the constant terms of the basis, so alpha . b0 is the output.
    alpha0 is e_1, the series itself being the first basis element,
    unless the series is zero at n_eq: then the basis is empty, m = 0,
    alpha0 = () and every output is 0.
    Everything was verified at truncation precision n_eq.
    """

    p: int
    basis: tuple
    matrices: tuple
    b0: tuple
    alpha0: tuple
    n_eq: int

    @property
    def m(self) -> int:
        return len(self.basis)


def orbit_closure(spec: BranchSpec, cfg: ClosureConfig | None = None) -> KernelRepresentation:
    """Breadth-first section closure of the series defined by spec.

    Basis elements are adopted in first-seen order (paths shortest first,
    digits ascending), which makes the result canonical: two runs on the
    same spec and config build identical representations.
    """
    cfg = cfg or ClosureConfig()
    p = spec.p
    expander = PathExpander(spec)
    tracker = SpanTracker(p, cfg.n_eq)

    basis = []
    rows = [[] for _ in range(p)]  # rows[d][i] = coords of section(z_i, d)

    def adopt(path):
        """Coordinates of the series at path, adopting it if independent."""
        s = expander.series(path, cfg.n_eq).truncate(cfg.n_eq)
        coords = tracker.append(s.coeffs)
        if coords is None:
            if len(basis) >= cfg.max_states:
                raise StateCapExceeded(
                    f"section closure exceeds {cfg.max_states} basis elements"
                )
            basis.append(BasisElement(path, s))
            coords = (0,) * (len(basis) - 1) + (1,)
        return coords

    alpha0 = adopt(())
    i = 0
    while i < len(basis):
        for d in range(p):
            rows[d].append(adopt(basis[i].path + (d,)))
        i += 1

    m = len(basis)
    matrices = tuple(
        tuple(tuple(row) + (0,) * (m - len(row)) for row in rows[d]) for d in range(p)
    )
    b0 = tuple(el.series.coeffs[0] for el in basis)
    alpha0 += (0,) * (m - len(alpha0))
    return KernelRepresentation(
        p=p, basis=tuple(basis), matrices=matrices, b0=b0, alpha0=alpha0, n_eq=cfg.n_eq
    )


def alpha_step(rep: KernelRepresentation, alpha, digit: int) -> tuple:
    """One digit of the linear machine: alpha * M[digit]."""
    if len(alpha) != rep.m:
        raise DimensionMismatch(f"alpha has length {len(alpha)}, basis has {rep.m}")
    if not 0 <= digit < rep.p:
        raise ValueError(f"digit {digit} outside [0, {rep.p})")
    mat = rep.matrices[digit]
    out = [0] * rep.m
    for i, a in enumerate(alpha):
        if a:
            row = mat[i]
            for j in range(rep.m):
                if row[j]:
                    out[j] = (out[j] + a * row[j]) % rep.p
    return tuple(out)


def alpha_output(rep: KernelRepresentation, alpha) -> FpElement:
    """Output functional alpha . b0."""
    if len(alpha) != rep.m:
        raise DimensionMismatch(f"alpha has length {len(alpha)}, basis has {rep.m}")
    total = sum(a * b for a, b in zip(alpha, rep.b0))
    return FpElement(total, rep.p)


def recheck(rep: KernelRepresentation, spec: BranchSpec, factor: int = 2) -> bool:
    """Re-verify every stored relation at factor * n_eq coefficients.

    Expands the root once, far enough for the deepest basis path, takes
    each basis series from it by sections, and replays the basis
    prefixes, the output vector, the matrix relations and alpha0 against
    them.  False means the closure was a truncation artifact (or the
    representation was tampered with); True upgrades the certificate to
    the larger precision.
    """
    if factor < 2:
        raise ValueError(f"recheck factor must be at least 2, got {factor}")
    big = factor * rep.n_eq
    depth = max((len(el.path) for el in rep.basis), default=0)
    try:
        # p*big coefficients at the deepest path, so each section keeps >= big
        root = expand_branch(spec, rep.p * big * rep.p**depth)
    except ChristolError:
        return False
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
