import random

import pytest

from christol import (
    BivariatePolynomial,
    BranchSpec,
    DegreeOverflow,
    Dfao,
    NoRelationFound,
    StateCapExceeded,
    TruncatedSeries,
    automatic_to_series,
    build_dfao,
    dfao_from_linear,
    exact_representation,
    expand_branch,
    guess_polynomial,
    orbit_closure,
    parse_bivariate,
    query,
    verify_annihilation,
)
from christol import algebraize
from christol.examples import all_ones_spec, central_binomial_spec, shipped_specs, thue_morse_spec
from christol.linalg import SpanTracker
from support import full_matrix_guess, rational_coefficients


def normalized(q):
    # rescale so the first nonzero coefficient in (j, i) order is 1,
    # matching the guess_polynomial() output convention
    lead = next(
        q.coeffs[i][j]
        for j in range(q.dy + 1)
        for i in range(q.dx + 1)
        if q.coeffs[i][j]
    )
    inv = pow(lead, q.p - 2, q.p)
    return BivariatePolynomial(
        q.p, [[c * inv % q.p for c in row] for row in q.coeffs]
    )


def test_automatic_to_series_tabulates_queries():
    for _, spec in shipped_specs():
        a = build_dfao(spec)
        f = automatic_to_series(a, 64)
        assert f == expand_branch(spec, 64)
        assert all(type(c) is int for c in f.coeffs)
    rep = orbit_closure(thue_morse_spec())
    f = automatic_to_series(rep, 32)
    assert f == expand_branch(thue_morse_spec(), 32)
    assert all(type(c) is int for c in f.coeffs)
    with pytest.raises(ValueError):
        automatic_to_series(rep, -1)
    assert automatic_to_series(rep, 0).precision == 0


def random_dfao(rng, p, delta_row=tuple):
    """A seeded machine with random transitions and outputs, so as a rule
    not trailing-zero stable, and a random start state."""
    n = rng.randint(1, 6)
    delta = tuple(delta_row(rng.randrange(n) for _ in range(p)) for _ in range(n))
    return Dfao(p, rng.randrange(n), delta, tuple(rng.randrange(p) for _ in range(n)))


def test_automatic_to_series_matches_per_index_queries():
    rng = random.Random(11)
    unstable = moved_start = 0
    for p in (2, 3, 5, 7, 65521):
        for _ in range(6 if p < 65521 else 2):
            m = random_dfao(rng, p)
            unstable += not m.is_trailing_zero_stable()
            moved_start += m.start != 0
            # p^k - 1, p^k and p^k + 1 for every p^k <= 700, and k = 1 always
            terms = [0, 1, rng.randint(0, 700), rng.randint(0, 700)]
            power = p
            while power <= 700 or power == p:
                terms += [power - 1, power, power + 1]
                power *= p
            for n in terms:
                expect = tuple(query(m, str(j)) for j in range(n))
                assert automatic_to_series(m, n).coeffs == expect, (p, m.start, n)
            with pytest.raises(ValueError):
                automatic_to_series(m, -1)
    assert unstable > 20 and moved_start > 10


def test_automatic_to_series_reads_a_representation_past_the_dfao_cap():
    spec = BranchSpec(parse_bivariate("(1+x^3+x^20)*y + 1", 2))
    rep = exact_representation(spec)
    assert rep.m == 20
    with pytest.raises(StateCapExceeded):
        dfao_from_linear(rep)
    assert automatic_to_series(rep, 256) == expand_branch(spec, 256)


class CountingRow(tuple):
    """A transition row that counts the entries read from it."""

    reads = 0

    def __getitem__(self, d):
        CountingRow.reads += 1
        return tuple.__getitem__(self, d)


def test_automatic_to_series_cuts_every_level_at_n():
    # over F_65521 an uncut first level alone reads 65521 transitions
    m = random_dfao(random.Random(12), 65521, CountingRow)
    CountingRow.reads = 0
    f = automatic_to_series(m, 300)
    assert 0 < CountingRow.reads <= 2 * 300
    assert f.coeffs == tuple(query(m, str(j)) for j in range(300))


def test_guess_all_ones():
    f = TruncatedSeries(2, (1,) * 8)
    q = guess_polynomial(f, 1, 1)
    assert q.coeffs == ((1, 1), (0, 1))
    assert q.to_text() == "1 + y + x*y"


def test_guess_recovers_parity_polynomial():
    f = expand_branch(thue_morse_spec(), 32)
    q = guess_polynomial(f, 3, 2)
    assert q == thue_morse_spec().q  # already normalized
    # the relation holds well past the window it was fitted on
    assert verify_annihilation(q, expand_branch(thue_morse_spec(), 64))


def test_guess_needs_enough_degrees():
    f = expand_branch(thue_morse_spec(), 64)
    with pytest.raises(NoRelationFound):
        guess_polynomial(f, 1, 1)
    with pytest.raises(NoRelationFound):
        guess_polynomial(f, 2, 1)


def test_guess_input_validation():
    f = expand_branch(thue_morse_spec(), 16)
    with pytest.raises(ValueError):
        guess_polynomial(f, -1, 1)
    with pytest.raises(ValueError):
        guess_polynomial(f, 1, 0)
    with pytest.raises(ValueError):
        guess_polynomial(f, 3, 2)  # needs 17 coefficients, has 16


def test_guess_refuses_bounds_past_the_degree_caps(monkeypatch):
    # 1/(1+x^70) over F_2 satisfies 1 + y + x^70*y, which to_text() would
    # write and parse_bivariate() refuse; the bound is refused before any
    # product or elimination, and the message names the caps
    def never(*_args):
        raise AssertionError("arithmetic past the caps")

    f = TruncatedSeries(2, rational_coefficients(2, [1], [1] + [0] * 69 + [1], 400))
    with monkeypatch.context() as patched:
        patched.setattr(algebraize, "cauchy_product", never)
        patched.setattr(algebraize, "first_dependency", never)
        for dx, dy in ((70, 1), (1, 65)):
            with pytest.raises(DegreeOverflow, match=r"exceed the caps \(64, 64\)"):
                guess_polynomial(f, dx, dy)
    # at the caps the relation is found, and its text parses back
    f = TruncatedSeries(2, rational_coefficients(2, [1], [1] + [0] * 63 + [1], 400))
    q = guess_polynomial(f, 64, 1)
    assert q.to_text() == "1 + y + x^64*y"
    assert parse_bivariate(q.to_text(), 2) == q


def test_guess_output_is_normalized():
    for _, spec in shipped_specs():
        f = expand_branch(spec, 40)
        q = guess_polynomial(f, 3, 2)
        assert q == normalized(q)


def test_round_trip_machine_to_polynomial():
    cases = [
        (thue_morse_spec(), 3, 2, 32),
        (central_binomial_spec(), 1, 2, 16),
        (all_ones_spec(), 1, 1, 8),
    ]
    for spec, dx, dy, n in cases:
        machine = build_dfao(spec)
        f = automatic_to_series(machine, n)
        q = guess_polynomial(f, dx, dy)
        assert q == normalized(spec.q)
        assert verify_annihilation(q, expand_branch(spec, 2 * n))


def test_guess_on_rational_series():
    # 1/(1+x) over F_3 satisfies (1+x)*y - 1 = 0
    f = TruncatedSeries(3, [1, 2] * 6)
    q = guess_polynomial(f, 1, 1)
    assert verify_annihilation(q, TruncatedSeries(3, [1, 2] * 20))
    assert q.to_text() == "1 + 2*y + 2*x*y"


def test_guess_prefers_low_y_degree_relations():
    # for the all-ones series with slack bounds, some relation is found
    # and it still annihilates; which one is pinned by normalization
    f = TruncatedSeries(2, (1,) * 20)
    q = guess_polynomial(f, 2, 2)
    assert verify_annihilation(q, TruncatedSeries(2, (1,) * 60))
    assert q == normalized(q)


def outcome(guess, f, dx, dy):
    """The Q a guess returns, or NoRelationFound."""
    try:
        return guess(f, dx, dy)
    except NoRelationFound:
        return NoRelationFound


@pytest.fixture
def row_counts(monkeypatch):
    """Row count of every column scan guess_polynomial makes."""
    counts = []
    first_dependency = algebraize.first_dependency

    def counting(columns, p):
        counts.append(len(columns[0]))
        return first_dependency(columns, p)

    monkeypatch.setattr(algebraize, "first_dependency", counting)
    return counts


def test_guess_matches_the_full_matrix_reference(row_counts):
    rng = random.Random(8)
    outcomes = []  # (doubled, found a relation) per case
    for p in (2, 3, 5, 7, 65521):
        for n in (16, 40, 100, 300):
            for kind in ("noise", "zero prefix", "recurrence"):
                for _ in range(4):
                    dx, dy = rng.randint(0, 3), rng.randint(1, 2)
                    if kind == "noise":
                        coeffs = [rng.randrange(p) for _ in range(n)]
                    elif kind == "zero prefix":
                        zeros = rng.randrange(n // 2, n)
                        coeffs = [0] * zeros + [rng.randrange(p) for _ in range(n - zeros)]
                    else:
                        denom = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(rng.randint(0, 4))]
                        numer = [rng.randrange(p) for _ in range(rng.randint(1, 4))]
                        coeffs = rational_coefficients(p, numer, denom, n)
                    f = TruncatedSeries(p, coeffs)
                    if n < (dx + 1) * (dy + 1) + dx + dy:
                        with pytest.raises(ValueError):
                            guess_polynomial(f, dx, dy)
                        continue
                    row_counts.clear()
                    expect = outcome(full_matrix_guess, f, dx, dy)
                    assert outcome(guess_polynomial, f, dx, dy) == expect, (p, n, kind, dx, dy)
                    k = (dx + 1) * (dy + 1)
                    assert row_counts[0] == min(n, 2 * k + 8)
                    outcomes.append((len(row_counts) > 1, expect is not NoRelationFound))
    # every outcome is exercised: with and without doubling, each ending
    # at a relation or at NoRelationFound
    assert len(outcomes) > 200
    for kind in ((False, False), (False, True), (True, False), (True, True)):
        assert outcomes.count(kind) > 10, kind


def test_guess_doubles_the_rows_until_certified(row_counts):
    # zeros up to x^100: the first free column on 16, 32 and 64 rows is
    # f itself, Q = y, which fails on all rows; 128 rows see the noise
    rng = random.Random(9)
    f = TruncatedSeries(7, [0] * 100 + [1] + [rng.randrange(7) for _ in range(59)])
    expect = outcome(full_matrix_guess, f, 1, 1)
    assert expect is NoRelationFound
    assert outcome(guess_polynomial, f, 1, 1) == expect
    assert row_counts == [16, 32, 64, 128]
    # zeros up to x^70 at 140 terms: Q = y fails on all rows, and on 80
    # rows f^2 is the first free column; Q = y^2 holds since 2*70 >= 140
    f = TruncatedSeries(7, [0] * 70 + [1] + [rng.randrange(7) for _ in range(69)])
    row_counts.clear()
    assert guess_polynomial(f, 1, 2) == full_matrix_guess(f, 1, 2) == parse_bivariate("y^2", 7)
    assert row_counts == [20, 40, 80]


def test_guess_solves_on_2k_plus_8_rows(row_counts):
    f = expand_branch(thue_morse_spec(), 4096)
    assert guess_polynomial(f, 3, 2) == thue_morse_spec().q
    assert row_counts == [2 * 12 + 8]


def test_guess_stops_the_scan_at_the_first_dependent_column(monkeypatch, row_counts):
    append = SpanTracker.append
    appends = []

    def counting(self, vec):
        appends.append(len(vec))
        return append(self, vec)

    monkeypatch.setattr(SpanTracker, "append", counting)
    for _, spec in shipped_specs():
        # slack bounds: the relation's free column comes well before the last
        dx, dy = spec.q.dx + 2, spec.q.dy + 1
        f = expand_branch(spec, 512)
        appends.clear()
        row_counts.clear()
        q = guess_polynomial(f, dx, dy)
        assert row_counts == [2 * (dx + 1) * (dy + 1) + 8]
        # the free column holds the last nonzero coefficient in (j, i) order
        free = max(
            j * (dx + 1) + i
            for i in range(q.dx + 1)
            for j in range(q.dy + 1)
            if q.coeffs[i][j]
        )
        assert len(appends) == free + 1 < (dx + 1) * (dy + 1)


def test_guess_on_full_rank_stops_at_the_first_subsystem(row_counts):
    rng = random.Random(10)
    f = TruncatedSeries(65521, [rng.randrange(65521) for _ in range(300)])
    with pytest.raises(NoRelationFound):
        guess_polynomial(f, 1, 1)
    assert row_counts == [16]
