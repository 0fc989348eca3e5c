import random

import pytest

from christol import algebraize, expand_branch, guess_polynomial, orbit_closure
from christol.errors import NoRelationFound
from christol.examples import shipped_specs, thue_morse_spec
from christol.linalg import SpanTracker, first_dependency, nullspace_basis
from support import rank, rref_nullspace_basis


def test_tracker_membership_and_coordinates():
    t = SpanTracker(5, 3)
    assert t.coordinates((0, 0, 0)) == ()
    t.append((1, 2, 0))
    t.append((0, 1, 1))
    assert t.coordinates((1, 2, 0)) == (1, 0)
    assert t.coordinates((0, 1, 1)) == (0, 1)
    assert t.coordinates((1, 3, 1)) == (1, 1)
    assert t.coordinates((2, 0, 1)) == (2, 1)  # 2*(1,2,0) = (2,4,0); +(0,1,1)
    assert t.coordinates((0, 0, 1)) is None


def test_tracker_append_decides_and_adopts():
    t = SpanTracker(3, 2)
    assert t.append((1, 1)) is None
    assert t.size == 1
    # a dependent vector returns its coordinates and does not join
    assert t.append((2, 2)) == (2,)
    assert t.append((0, 0)) == (0,)
    assert t.size == 1
    assert t.append((0, 1)) is None
    assert t.size == 2
    assert t.append((1, 2)) == (1, 1)
    assert t.size == 2
    with pytest.raises(ValueError):
        t.append((1, 1, 1))
    with pytest.raises(ValueError):
        t.coordinates((1, 1, 1))
    assert t.size == 2


def test_tracker_coordinates_reproduce_vector():
    rng = random.Random(2718)
    for p in (2, 3, 7):
        width = 8
        t = SpanTracker(p, width)
        members = []
        while t.size < 4:
            v = tuple(rng.randrange(p) for _ in range(width))
            if t.coordinates(v) is None:
                t.append(v)
                members.append(v)
        for _ in range(200):
            weights = [rng.randrange(p) for _ in members]
            combo = tuple(
                sum(w * m[j] for w, m in zip(weights, members)) % p
                for j in range(width)
            )
            coords = t.coordinates(combo)
            assert coords is not None
            assert t.append(combo) == coords
            assert t.size == 4
            rebuilt = tuple(
                sum(c * m[j] for c, m in zip(coords, members)) % p
                for j in range(width)
            )
            assert rebuilt == combo


def test_each_append_reduces_its_vector_once(monkeypatch):
    reduce, append = SpanTracker._reduce, SpanTracker.append
    reductions, per_append = [], []

    def counting_reduce(self, vec):
        reductions.append(vec)
        return reduce(self, vec)

    def counting_append(self, vec):
        before = len(reductions)
        out = append(self, vec)
        per_append.append(len(reductions) - before)
        return out

    monkeypatch.setattr(SpanTracker, "_reduce", counting_reduce)
    monkeypatch.setattr(SpanTracker, "append", counting_append)
    # one tracker call per truncated section: the root, then p per basis element
    rep = orbit_closure(thue_morse_spec())
    assert rep.m > 1
    assert per_append == [1] * (1 + rep.p * rep.m)
    assert len(reductions) == len(per_append)
    # one tracker call per column
    reductions.clear()
    per_append.clear()
    rows = dependent_matrix(random.Random(5), 7, 40, 12)
    assert nullspace_basis(rows, 7, 12) == rref_nullspace_basis(rows, 7, 12)
    assert per_append == [1] * 12
    assert len(reductions) == 12


def test_rank():
    assert rank([], 2, 4) == 0
    assert rank([(0, 0, 0, 0)], 2, 4) == 0
    assert rank([(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)], 2, 4) == 2
    assert rank([(1, 2, 3), (2, 4, 6)], 7, 3) == 1
    assert rank([(1, 2, 3), (2, 4, 5)], 7, 3) == 2


def test_nullspace_shapes():
    # x + y = 0 over F_3: kernel spanned by (2, 1) after normalization
    basis = nullspace_basis([[1, 1]], 3, 2)
    assert basis == [(2, 1)]
    # full-rank square matrix: trivial kernel
    assert nullspace_basis([[1, 0], [0, 1]], 5, 2) == []
    # zero matrix: the whole space, one vector per column
    assert nullspace_basis([[0, 0]], 2, 2) == [(1, 0), (0, 1)]
    # no rows at all behaves like the zero matrix
    assert nullspace_basis([], 2, 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_nullspace_vectors_annihilate():
    rng = random.Random(31337)
    for p in (2, 3, 5):
        for _ in range(100):
            nrows = rng.randrange(1, 6)
            ncols = rng.randrange(1, 6)
            rows = [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
            basis = nullspace_basis(rows, p, ncols)
            for v in basis:
                for row in rows:
                    assert sum(a * b for a, b in zip(row, v)) % p == 0
            # rank-nullity
            assert len(basis) == ncols - rank(rows, p, ncols)


def test_nullspace_is_deterministic():
    rows = [[1, 2, 0, 1], [0, 1, 1, 1]]
    assert nullspace_basis(rows, 3, 4) == nullspace_basis(list(rows), 3, 4)
    # free-column markers: each basis vector has a 1 in its own free
    # column and zeros in the other free columns
    basis = nullspace_basis(rows, 3, 4)
    frees = []
    for v in basis:
        ones = [j for j, x in enumerate(v) if x == 1]
        assert ones
        frees.append(ones[-1])
    assert frees == sorted(frees)


def dependent_matrix(rng, p, nrows, ncols):
    """Rows of a random nrows x ncols matrix whose columns are drawn as
    zero, a repeat of an earlier column, a random combination of earlier
    columns, or fresh random entries, so kernels of every size occur."""
    cols = []
    for _ in range(ncols):
        kind = rng.randrange(4) if cols else 3
        if kind == 0:
            col = [0] * nrows
        elif kind == 1:
            col = list(rng.choice(cols))
        elif kind == 2:
            weights = [rng.randrange(p) for _ in cols]
            col = [sum(w * c[r] for w, c in zip(weights, cols)) % p for r in range(nrows)]
        else:
            col = [rng.randrange(p) for _ in range(nrows)]
        cols.append(col)
    return [[c[r] for c in cols] for r in range(nrows)]


def test_nullspace_matches_rref_reference_on_random_matrices():
    rng = random.Random(16180)
    for p in (2, 3, 5, 7, 65521):
        shapes = [(0, 1), (0, 4), (1, 1), (3, 7), (7, 3), (5, 5), (2, 12), (40, 6)]
        for nrows, ncols in shapes * 4:
            rows = dependent_matrix(rng, p, nrows, ncols)
            assert nullspace_basis(rows, p, ncols) == rref_nullspace_basis(rows, p, ncols)
        # all-zero, unreduced and negative entries, and a full random matrix
        zero = [[0] * 6 for _ in range(4)]
        assert nullspace_basis(zero, p, 6) == rref_nullspace_basis(zero, p, 6)
        loose = [[rng.randrange(-3 * p, 3 * p) for _ in range(5)] for _ in range(3)]
        assert nullspace_basis(loose, p, 5) == rref_nullspace_basis(loose, p, 5)
        # dependent columns, each entry moved by a multiple of p
        shifted = [[x + p * rng.randrange(-3, 3) for x in row] for row in dependent_matrix(rng, p, 5, 8)]
        assert nullspace_basis(shifted, p, 8) == rref_nullspace_basis(shifted, p, 8)
        full = [[rng.randrange(p) for _ in range(6)] for _ in range(6)]
        assert nullspace_basis(full, p, 6) == rref_nullspace_basis(full, p, 6)
        # the shape guess_polynomial produces: thousands of rows, few columns
        tall = dependent_matrix(rng, p, 2048, 15)
        basis = nullspace_basis(tall, p, 15)
        assert basis and basis == rref_nullspace_basis(tall, p, 15)


def test_nullspace_matches_rref_reference_on_evaluation_matrices(monkeypatch):
    seen = []

    def recording(columns, p):
        seen.append((columns, p))
        return first_dependency(columns, p)

    monkeypatch.setattr(algebraize, "first_dependency", recording)
    for _, spec in shipped_specs():
        for terms in (16, 64, 512, 2048):
            f = expand_branch(spec, terms)
            for dx, dy in ((0, 1), (1, 1), (3, 2), (4, 2), (2, 3)):
                if (dx + 1) * (dy + 1) + dx + dy > terms:
                    continue
                try:
                    guess_polynomial(f, dx, dy)
                except NoRelationFound:
                    pass
    assert len(seen) == 51
    for columns, p in seen:
        ncols = len(columns)
        rows = [list(row) for row in zip(*columns)]
        expect = rref_nullspace_basis(rows, p, ncols)
        assert first_dependency(columns, p) == (expect[0] if expect else None)
        assert nullspace_basis(rows, p, ncols) == expect
