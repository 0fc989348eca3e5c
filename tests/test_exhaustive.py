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
    query,
    verify_annihilation,
)
from support import root_prefixes

TERMS = 200
DEPTH = 14


# (p, max_dx, max_dy, max seed length, (machines, NoBranch, AmbiguousBranch))
@pytest.mark.parametrize(
    "p, max_dx, max_dy, max_seed, counts",
    [(2, 2, 2, 3, (1056, 6092, 412)), (3, 1, 2, 2, (1224, 7782, 354))],
    ids=["F2", "F3"],
)
def test_every_small_spec_runs_the_whole_pipeline(p, max_dx, max_dy, max_seed, counts):
    seeds = [s for length in range(max_seed + 1) for s in product(range(p), repeat=length)]
    machines = no_branch = ambiguous = 0
    for cells in product(range(p), repeat=(max_dx + 1) * (max_dy + 1)):
        grid = [list(cells[i * (max_dy + 1) : (i + 1) * (max_dy + 1)]) for i in range(max_dx + 1)]
        if not any(row[j] for row in grid for j in range(1, max_dy + 1)):
            continue  # Q must involve y
        q = BivariatePolynomial(p, grid)
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
