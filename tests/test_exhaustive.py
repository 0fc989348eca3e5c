"""The whole pipeline on every small input: every Q over a tiny field
with small degrees, and every short seed.  Each accepted spec must
expand to a root, build an exact machine that reproduces the expansion
and give back a relation from the machine's outputs; each refused seed
must be refused rightly.  A complete floor, not a sample."""

from itertools import product

import pytest

from christol import (
    AmbiguousBranch,
    BivariatePolynomial,
    BranchSpec,
    NoBranch,
    automatic_to_series,
    dfao_from_linear,
    exact_representation,
    expand_branch,
    guess_polynomial,
    parse_bivariate,
    query,
    verify_annihilation,
)
from support import root_prefixes

TERMS = 200
DEPTH = 14


def polynomials(p, max_dx, max_dy):
    """Every Q over F_p of degrees at most (max_dx, max_dy) that involves y."""
    for cells in product(range(p), repeat=(max_dx + 1) * (max_dy + 1)):
        grid = [list(cells[i * (max_dy + 1) : (i + 1) * (max_dy + 1)]) for i in range(max_dx + 1)]
        if any(row[j] for row in grid for j in range(1, max_dy + 1)):
            yield BivariatePolynomial(p, grid)


# (p, max_dx, max_dy, max seed length, (machines, NoBranch, AmbiguousBranch))
@pytest.mark.parametrize(
    "p, max_dx, max_dy, max_seed, counts",
    [(2, 2, 2, 3, (1056, 6092, 412)), (3, 1, 2, 2, (1224, 7782, 354))],
    ids=["F2", "F3"],
)
def test_every_small_spec_runs_the_whole_pipeline(p, max_dx, max_dy, max_seed, counts):
    seeds = [s for length in range(max_seed + 1) for s in product(range(p), repeat=length)]
    machines = no_branch = ambiguous = 0
    for q in polynomials(p, max_dx, max_dy):
        for seed in seeds:
            try:
                spec = BranchSpec(q, seed)
            except NoBranch:
                no_branch += 1
                assert root_prefixes(q, seed, DEPTH) == [], (q, seed)
                continue
            except AmbiguousBranch:
                ambiguous += 1
                continue
            machines += 1
            f = expand_branch(spec, TERMS)
            assert verify_annihilation(q, f), (q, seed)
            machine = dfao_from_linear(exact_representation(spec))
            assert tuple(query(machine, str(n)) for n in range(TERMS)) == f.coeffs, (q, seed)
            g = guess_polynomial(automatic_to_series(machine, TERMS), q.dx, q.dy)
            assert verify_annihilation(g, f), (q, seed, g)
    assert (machines, no_branch, ambiguous) == counts


def undetermined(q, seed) -> bool:
    try:
        BranchSpec(q, seed)
    except AmbiguousBranch:
        return True
    except NoBranch:
        pass
    return False


# (p, max_dx, max_dy, (Q with an undetermined seed of length 8, every Q), two such Q)
@pytest.mark.parametrize(
    "p, max_dx, max_dy, counts, examples",
    [(2, 2, 2, (18, 504), ("x^2*y^2", "x^2 + x^2*y^2")), (3, 1, 2, (24, 720), ("x*y^2", "x + x*y + x*y^2"))],
    ids=["F2", "F3"],
)
def test_repeated_roots_leave_seeds_undetermined_at_length_8(p, max_dx, max_dy, counts, examples):
    # seeds grown one coefficient at a time while the BranchSpec
    # constructor refuses each as undetermined, as it refuses every seed
    # of a branch that is a multiple root of Q: resolving such branches
    # must lower these counts on purpose
    qs = list(polynomials(p, max_dx, max_dy))
    stuck = []
    for q in qs:
        seeds = [()]
        for _ in range(8):
            seeds = [seed + (c,) for seed in seeds for c in range(p) if undetermined(q, seed + (c,))]
        if seeds:
            stuck.append(q)
    assert (len(stuck), len(qs)) == counts
    for text in examples:
        assert parse_bivariate(text, p) in stuck
