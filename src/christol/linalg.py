"""Dense linear algebra over F_p on plain sequences of residues.

SpanTracker is the one elimination: is a vector a combination of those
kept so far?  The section closure asks it of truncated sections; the
column scan behind first_dependency and nullspace_basis asks it of
matrix columns, such as guess_polynomial's columns x^i * f^j.  Its
echelon rows stay in insertion order, each reduced only against the
rows before it, so one pass in order reduces a vector and a vector
outside the span joins it in that pass.
"""


class SpanTracker:
    """Grows a list of 'member' vectors and answers membership queries
    against their span, with coordinates over the original members.

    Echelon row k is member k reduced against rows 0..k-1 and scaled to
    pivot entry 1, at its first nonzero column.  Every later row is
    clear at that column, so a single pass over the rows in order clears
    every pivot.  combos[k] writes row k over members 0..k, a triangular
    change of basis.

    append(vec) decides and adopts in one reduction: it returns vec's
    coordinates if vec lies in the span, and otherwise makes vec the next
    member and returns None.  coordinates(vec) is the same query without
    adopting.  Every vec holds residues in [0, p): it is copied, not
    reduced again.
    """

    def __init__(self, p: int, width: int):
        self.p = p
        self.width = width
        self.size = 0  # number of members added
        self._rows = []  # echelon rows in insertion order, pivot entry 1
        self._pivots = []  # pivot column per echelon row
        self._combos = []  # echelon row k = sum_j combos[k][j] * member_j, j <= k

    def _reduce(self, vec):
        """vec = sum_k cs[k] * rows[k] + residual, with residual clear at
        every pivot column."""
        if len(vec) != self.width:
            raise ValueError(f"expected width {self.width}, got {len(vec)}")
        v = list(vec)
        cs = []
        for row, piv in zip(self._rows, self._pivots):
            c = v[piv]
            cs.append(c)
            if c:
                for j in range(piv, self.width):
                    if row[j]:
                        v[j] = (v[j] - c * row[j]) % self.p
        return cs, v

    def _combine(self, cs):
        """sum_k cs[k] * combos[k]: the member coordinates of
        sum_k cs[k] * rows[k]."""
        out = [0] * self.size
        for c, combo in zip(cs, self._combos):
            if c:
                for j, w in enumerate(combo):
                    if w:
                        out[j] = (out[j] + c * w) % self.p
        return tuple(out)

    def coordinates(self, vec):
        """Coordinates of vec over the members, or None if independent."""
        cs, residual = self._reduce(vec)
        return None if any(residual) else self._combine(cs)

    def append(self, vec):
        """Coordinates of vec over the members if it lies in their span;
        otherwise vec becomes the next member and the result is None."""
        cs, residual = self._reduce(vec)
        piv = next((j for j, x in enumerate(residual) if x), None)
        if piv is None:
            return self._combine(cs)
        # the new row is lead_inv * (vec - sum_k cs[k] * rows[k]), so its
        # combo is lead_inv * (e_new - sum_k cs[k] * combos[k])
        lead_inv = pow(residual[piv], self.p - 2, self.p)
        self._rows.append([x * lead_inv % self.p for x in residual])
        self._pivots.append(piv)
        self._combos.append([-w * lead_inv % self.p for w in self._combine(cs)] + [lead_inv])
        self.size += 1
        return None


def _dependencies(columns, p: int, height: int, ncols: int):
    """Scan the columns, each of the given height, left to right: an
    independent column joins the span, and a dependent column c yields
    the kernel vector with 1 at c and minus its coordinates at the
    earlier independent columns.  Lazy, so a caller that stops early
    stops the elimination with it."""
    tracker = SpanTracker(p, height)
    members = []  # column index of each tracker member
    for c, col in enumerate(columns):
        coords = tracker.append(col)
        if coords is None:
            members.append(c)
            continue
        v = [0] * ncols
        v[c] = 1
        for m, x in zip(members, coords):
            v[m] = -x % p
        yield tuple(v)


def first_dependency(columns, p: int):
    """The first reduced row echelon kernel vector of the matrix with
    these columns of residues, or None if they are independent.

    The scan stops at the first column that depends on the ones before
    it.  That column is the first free column, and its vector involves
    only the columns before it, so it equals nullspace_basis(...)[0]
    without the elimination of the later columns.
    """
    height = len(columns[0]) if columns else 0
    return next(_dependencies(columns, p, height, len(columns)), None)


def nullspace_basis(rows, p: int, ncols: int):
    """Deterministic basis of the right kernel of the matrix given by rows.

    The column scan of first_dependency, run to the end: one vector per
    free column in order, which is the reduced row echelon basis.  The
    entries of rows may be any ints; each column is reduced mod p.
    """
    columns = ([row[c] % p for row in rows] for c in range(ncols))
    return list(_dependencies(columns, p, len(rows), ncols))
