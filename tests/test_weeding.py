import random

import pytest

from christol import (
    DegreeOutOfRange,
    TruncatedSeries,
    section,
    weed,
    weed_via_derivative,
)
from support import parity, random_series


def S(p, coeffs):
    return TruncatedSeries(p, coeffs)


def test_section_worked_examples():
    f = S(2, [1, 0, 1, 0, 1])
    assert section(f, 0).coeffs == (1, 1, 1)
    assert section(f, 1).coeffs == (0, 0)
    g = S(3, [0, 1, 2, 0, 1, 2, 0])
    assert section(g, 0).coeffs == (0, 0, 0)
    assert section(g, 1).coeffs == (1, 1)
    assert section(g, 2).coeffs == (2, 2)


def test_section_on_parity_sequence():
    # t_{2m+1} = 1 - t_m and t_{2m} = t_m for the binary digit-sum parity
    f = S(2, [parity(n) for n in range(16)])
    even = section(f, 0)
    odd = section(f, 1)
    assert even.coeffs == tuple(parity(m) for m in range(8))
    assert odd.coeffs == tuple(1 - parity(m) for m in range(8))
    assert even.coeffs == (0, 1, 1, 0, 1, 0, 0, 1)


def test_section_precision_formula():
    for p in (2, 3, 5):
        for n in range(13):
            f = S(p, [1] * n)
            for r in range(p):
                got = section(f, r).precision
                want = 0 if n <= r else (n - 1 - r) // p + 1
                assert got == want
                # count definition: indices p*m + r strictly below n
                assert want == sum(1 for m in range(n) if p * m + r < n)


def test_section_rejects_bad_residue():
    f = S(3, [1, 1, 1])
    with pytest.raises(ValueError):
        section(f, 3)
    with pytest.raises(ValueError):
        section(f, -1)


def test_weed_is_complementary_section():
    rng = random.Random(8)
    for p in (2, 3, 5, 7):
        for _ in range(50):
            f = random_series(rng, p, max_len=40)
            for k in range(p):
                assert weed(f, k) == section(f, p - 1 - k)


def test_weed_worked_examples():
    f = S(2, [1, 0, 1, 0, 1, 0])
    assert weed(f, 0).coeffs == (0, 0, 0)  # r = 1
    assert weed(f, 1).coeffs == (1, 1, 1)  # r = 0
    g = S(3, [0, 1, 2, 0, 1, 2, 0, 1, 2])
    assert weed(g, 0).coeffs == (2, 2, 2)  # r = 2
    assert weed(g, 1).coeffs == (1, 1, 1)  # r = 1
    assert weed(g, 2).coeffs == (0, 0, 0)  # r = 0


def test_weed_degree_range():
    f = S(5, [1] * 10)
    for bad in (-1, 5, 6):
        with pytest.raises(DegreeOutOfRange):
            weed(f, bad)
        with pytest.raises(DegreeOutOfRange):
            weed_via_derivative(f, bad)


def test_derivative_route_agrees_with_section():
    rng = random.Random(20260819)
    for p in (2, 3, 5, 7):
        for _ in range(200):
            f = random_series(rng, p, max_len=36)
            for k in range(p):
                fast = weed(f, k)
                slow = weed_via_derivative(f, k)
                # the calculus route loses p-1 coefficients before the
                # root, so it can only claim floor((N+k)/p) of them
                assert slow.precision == (f.precision + k) // p
                n = min(fast.precision, slow.precision)
                assert fast.truncate(n) == slow.truncate(n)
                # and the two precisions in fact coincide
                assert fast.precision == slow.precision


def test_weed_via_derivative_worked_examples():
    f = S(2, [1, 0, 1, 0, 1, 0])
    assert weed_via_derivative(f, 1).coeffs == (1, 1, 1)
    g = S(3, [0, 1, 2, 0, 1, 2, 0, 1, 2])
    assert weed_via_derivative(g, 0).coeffs == (2, 2, 2)


def test_weeding_is_linear():
    rng = random.Random(55)
    for p in (2, 3, 5):
        for _ in range(100):
            f = random_series(rng, p, max_len=30)
            g = random_series(rng, p, max_len=30)
            c = rng.randrange(p)
            for k in range(p):
                lhs = weed(f.scale(c) + g, k)
                rhs = weed(f, k).scale(c) + weed(g, k)
                # equal content; precisions agree because min() commutes
                # with the section count only after a common truncation
                n = min(lhs.precision, rhs.precision)
                assert lhs.truncate(n) == rhs.truncate(n)


def test_sections_reassemble_the_series():
    # sum_r x^r * (section(f, r))(x^p) recovers f exactly, with no
    # precision loss in either direction: section r fills the indices
    # r, r+p, ... below N, and an extended-slice assignment refuses a
    # section of any other length
    rng = random.Random(4242)
    for p in (2, 3, 5):
        for _ in range(200):
            f = random_series(rng, p, max_len=40, min_len=1)
            total = [None] * f.precision
            for r in range(p):
                total[r::p] = section(f, r).coeffs
            assert tuple(total) == f.coeffs


def test_frobenius_semilinearity():
    # section(g(x^p) * h, r) == g * section(h, r): p-th powers pass
    # through the section operator
    rng = random.Random(616)
    for p in (2, 3, 5):
        for _ in range(100):
            g = random_series(rng, p, max_len=12, min_len=1)
            h = random_series(rng, p, max_len=12 * p, min_len=p)
            for r in range(p):
                stretched = [0] * (p * g.precision)
                stretched[::p] = g.coeffs
                lhs = section(TruncatedSeries(p, stretched) * h, r)
                rhs = g * section(h, r)
                n = min(lhs.precision, rhs.precision)
                assert lhs.truncate(n) == rhs.truncate(n)
