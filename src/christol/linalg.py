"""Dense linear algebra over F_p on plain sequences of residues.

SpanTracker is the one elimination: is a vector a combination of those
kept so far?  The section closure asks it of truncated sections;
nullspace_basis asks it of guess_polynomial's columns x^i * f^j, which
have thousands of entries.
"""


class SpanTracker:
    """Grows a list of 'member' vectors and answers membership queries
    against their span, with coordinates over the original members.

    Internally keeps the members' row space in reduced echelon form,
    together with change-of-basis rows, so that coordinates() is a single
    elimination pass.
    """

    def __init__(self, p: int, width: int):
        self.p = p
        self.width = width
        self.size = 0  # number of members added
        self._rows = []  # echelon rows, pivot entry 1, pivot column clear elsewhere
        self._pivots = []  # pivot column per echelon row
        self._combos = []  # echelon row k = sum_j combos[k][j] * member_j

    def _reduce(self, vec):
        """vec = sum_k cs[k] * rows[k] + residual, with residual clear at
        every pivot column."""
        v = [x % self.p for x in vec]
        cs = []
        for row, piv in zip(self._rows, self._pivots):
            c = v[piv]
            cs.append(c)
            if c:
                for j in range(self.width):
                    if row[j]:
                        v[j] = (v[j] - c * row[j]) % self.p
        return cs, v

    def coordinates(self, vec):
        """Coordinates of vec over the members, or None if independent."""
        if len(vec) != self.width:
            raise ValueError(f"expected width {self.width}, got {len(vec)}")
        cs, residual = self._reduce(vec)
        if any(residual):
            return None
        out = [0] * self.size
        for c, combo in zip(cs, self._combos):
            if c:
                for j, w in enumerate(combo):
                    if w:
                        out[j] = (out[j] + c * w) % self.p
        return tuple(out)

    def append(self, vec) -> int:
        """Add an independent vector as the next member; returns its index."""
        cs, residual = self._reduce(vec)
        if not any(residual):
            raise ValueError("vector already lies in the span")
        for combo in self._combos:
            combo.append(0)
        piv = next(j for j, x in enumerate(residual) if x)
        lead_inv = pow(residual[piv], self.p - 2, self.p)
        row = [(x * lead_inv) % self.p for x in residual]
        combo = [0] * (self.size + 1)
        combo[self.size] = 1
        for c, cb in zip(cs, self._combos):
            if c:
                for j, w in enumerate(cb):
                    combo[j] = (combo[j] - c * w) % self.p
        combo = [(w * lead_inv) % self.p for w in combo]
        # keep existing rows clear at the new pivot column
        for k in range(len(self._rows)):
            fac = self._rows[k][piv]
            if fac:
                self._rows[k] = [
                    (a - fac * b) % self.p for a, b in zip(self._rows[k], row)
                ]
                self._combos[k] = [
                    (a - fac * b) % self.p for a, b in zip(self._combos[k], combo)
                ]
        self._rows.append(row)
        self._pivots.append(piv)
        self._combos.append(combo)
        self.size += 1
        return self.size - 1


def rank(vectors, p: int, width: int) -> int:
    """Rank of the given vectors over F_p."""
    tracker = SpanTracker(p, width)
    for v in vectors:
        if tracker.coordinates(v) is None:
            tracker.append(v)
    return tracker.size


def nullspace_basis(rows, p: int, ncols: int):
    """Deterministic basis of the right kernel of the matrix given by rows.

    Scans the columns left to right: an independent column joins the
    span, and a dependent column c gives the basis vector with 1 at c and
    minus its coordinates at the earlier independent columns.  That is
    the reduced row echelon basis, one vector per free column in order.
    """
    tracker = SpanTracker(p, len(rows))
    members = []  # column index of each tracker member
    basis = []
    for c in range(ncols):
        col = [row[c] for row in rows]
        coords = tracker.coordinates(col)
        if coords is None:
            tracker.append(col)
            members.append(c)
            continue
        v = [0] * ncols
        v[c] = 1
        for m, x in zip(members, coords):
            v[m] = -x % p
        basis.append(tuple(v))
    return basis
