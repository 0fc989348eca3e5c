"""From automatic sequences back to algebraic equations.

automatic_to_series() tabulates a machine's outputs as a truncated
series, level by level: the states reached on the k-digit strings, high
zeros included, give those on the (k+1)-digit strings through one
transition each, and the strings with a nonzero top digit are exactly
the base-p forms of the next indices.  Every level is cut at N entries
and the levels grow geometrically, so N terms take fewer than 3N
transitions for every p.

guess_polynomial() then searches for a nonzero Q(x, y) of bounded degree
with Q(x, f) = 0 mod x^N: each product x^i * f^j is one column of an
evaluation matrix, and a kernel vector is a candidate relation.  The
columns are scanned on a few rows, O(k) for k columns, and the scan
stops at the first column that depends on the ones before it; the
candidate is then checked against the whole input, so the answer is
certified exactly as far as the input reaches (the returned Q
annihilates the given truncation; more coefficients give a stronger
certificate, never a different normalized Q).
"""

from .algebraic_series import BivariatePolynomial, verify_annihilation
from .errors import NoRelationFound
from .finite_field import brief
from .kernel import KernelRepresentation, alpha_output, alpha_step
from .linalg import first_dependency
from .power_series import TruncatedSeries, cauchy_product


def automatic_to_series(machine, n: int) -> TruncatedSeries:
    """First n outputs of the machine, a Dfao or a KernelRepresentation,
    as a truncated series: coefficient j is query(machine, str(j)).

    reached[u] is the state after the k base-p digits of u, high zeros
    included, for every u < p^k; it starts as [start] at k = 0.  Reading
    one more digit d maps reached[u] to the state of u + d*p^k on k+1
    digits, so the next level is p blocks, block d the images of
    reached under digit d.  The entries from index p^k on have a nonzero
    top digit: they are the digits query() reads, and their outputs are
    the next coefficients, exact even for a machine whose outputs change
    under trailing zeros.  Every level is cut at n entries, so the table
    takes fewer than 3n transitions and holds at most 2n states at once,
    for every p, p = 65521 included, against one decimal conversion and
    O(log n) transitions per index through query().
    """
    if n < 0:
        raise ValueError(f"term count must be nonnegative, got {brief(n)}")
    p = machine.p
    if isinstance(machine, KernelRepresentation):
        start = machine.alpha0

        def advance(states, d):
            return [alpha_step(machine, a, d) for a in states]

        def outputs(states):
            return [alpha_output(machine, a) for a in states]

    else:
        start, delta, tau = machine.start, machine.delta, machine.tau

        def advance(states, d):
            return [delta[s][d] for s in states]

        def outputs(states):
            return [tau[s] for s in states]

    reached = [start]
    coeffs = outputs(reached)[:n]
    while len(coeffs) < n:
        level, reached = reached, []
        for d in range(p):
            if len(reached) >= n:
                break
            reached += advance(level[: n - len(reached)], d)
        coeffs += outputs(reached[len(level):])
    return TruncatedSeries._of(p, tuple(coeffs))


def guess_polynomial(f: TruncatedSeries, dx: int, dy: int) -> BivariatePolynomial:
    """A nonzero Q with deg_x <= dx, deg_y <= dy and Q(x, f) = 0 to f's
    precision, normalized so its first nonzero coefficient in
    lexicographic (j, i) order is 1.

    Needs f to carry at least (dx+1)*(dy+1) + dx + dy coefficients:
    enough rows that the kernel is cut out by a comfortable margin of
    equations beyond the unknown count.  Raises NoRelationFound when the
    evaluation matrix has full column rank.

    The relation is found on the first r = 2k+8 rows, k = (dx+1)*(dy+1)
    the number of columns, and certified on all of them; r doubles until
    the certificate holds.  On r rows the columns are scanned in (j, i)
    order, and the scan stops at the first column that depends on the
    ones before it: that is the first free column, and its dependency is
    the first reduced row echelon kernel vector, so the later columns
    need no elimination.  The result is still that vector for the whole
    matrix: the columns before its free column are independent on r
    rows, hence on all rows, so a vector that passes the full check is
    the unique dependency of that column on them.  A sub-system with no
    dependent column settles NoRelationFound, since more rows only
    shrink the kernel.
    """
    if dx < 0 or dy < 1:
        raise ValueError(f"degree bounds must have dx >= 0 and dy >= 1, got ({brief(dx)}, {brief(dy)})")
    k = (dx + 1) * (dy + 1)
    needed = k + dx + dy
    n = f.precision
    if n < needed:
        raise ValueError(
            f"series precision {n} too small for bounds ({brief(dx)}, {brief(dy)}); need {brief(needed)}"
        )
    p = f.p
    r = min(n, 2 * k + 8)
    while True:
        # column (j, i) holds the first r coefficients of x^i * f^j
        power = (1,) + (0,) * (r - 1)
        columns = []
        for j in range(dy + 1):
            if j:
                power = cauchy_product(power, f.coeffs, p, r)
            columns += [(0,) * i + power[: r - i] for i in range(dx + 1)]
        vec = first_dependency(columns, p)
        if vec is None:
            raise NoRelationFound(f"no relation within degree bounds ({dx}, {dy})")
        lead = next(v for v in vec if v)
        inv = pow(lead, p - 2, p)
        terms = {}
        for idx, v in enumerate(vec):
            if v:
                j, i = divmod(idx, dx + 1)
                terms[(i, j)] = v * inv % p
        q = BivariatePolynomial.from_dict(p, terms)
        if verify_annihilation(q, f):
            return q
        if r == n:  # pragma: no cover - a kernel vector of all rows annihilates
            raise RuntimeError("kernel vector failed verification; linear algebra is broken")
        r = min(2 * r, n)
