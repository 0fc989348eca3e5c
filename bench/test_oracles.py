"""Tests of the benchmark's oracles against brute force.

Run from the repository root with ``python -m pytest -q bench``.
"""

import math
import random

import pytest

from oracles import (
    DECIMAL_CHUNK,
    Reciprocal,
    annihilates,
    base_digits,
    central_binomial_mod,
    decimal_to_int,
    digit_sum_parity,
    divides_indicator,
    mul_trunc,
)
from workloads import SLOTS, WORKLOADS


def naive_mul(a, b, p, n):
    out = [0] * n
    for i, x in enumerate(a[:n]):
        for j, y in enumerate(b[: n - i]):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def test_digit_sum_parity_matches_thue_morse_recursion():
    t = [0]
    for n in range(1, 4096):
        t.append(t[n // 2] if n % 2 == 0 else 1 - t[n // 2])
    assert [digit_sum_parity(n) for n in range(4096)] == t


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_central_binomial_matches_math_comb(p):
    for n in range(600):
        assert central_binomial_mod(n, p) == math.comb(2 * n, n) % p


@pytest.mark.parametrize("k", [1, 2, 5, 11])
def test_divides_indicator_inverts_one_plus_x_to_the_k(k):
    n = 300
    a = [divides_indicator(k, j) for j in range(n)]
    d = [1] + [0] * (k - 1) + [1]
    assert naive_mul(d, a, 2, n) == [1] + [0] * (n - 1)


@pytest.mark.parametrize(
    "denom,p", [([1, 1, 0, 1], 2), ([1, 0, 1, 0, 1, 1], 2), ([2, 1, 2], 3), ([3, 4, 1], 5), ([4], 5)]
)
def test_reciprocal_prefix_and_power_agree_with_series_inversion(denom, p):
    r = Reciprocal(denom, p)
    a = r.prefix(400)
    assert naive_mul(denom, a, p, 400) == [1] + [0] * 399
    assert [r.coefficient(n) for n in range(400)] == a


def test_reciprocal_long_index_respects_the_period():
    # 1/(1+x+x^3) over F_2 has period 7 (x has order 7 mod the primitive D)
    r = Reciprocal([1, 1, 0, 1], 2)
    n = decimal_to_int("9" * 5000)
    assert r.coefficient(n) == r.prefix(7)[n % 7]


def test_decimal_to_int_matches_int_below_the_limit():
    rng = random.Random(3)
    for length in (1, 7, DECIMAL_CHUNK - 1, DECIMAL_CHUNK, DECIMAL_CHUNK + 1, 3000):
        text = "".join(rng.choice("0123456789") for _ in range(length))
        assert decimal_to_int(text) == int(text)


def test_decimal_to_int_beyond_the_limit_keeps_every_chunk():
    rng = random.Random(4)
    text = "".join(rng.choice("0123456789") for _ in range(6001))
    value = decimal_to_int(text)
    assert value % 10**1000 == int(text[-1000:])
    assert value // 10 ** (len(text) - 1000) == int(text[:1000])
    assert value.bit_length() <= math.ceil(6001 * math.log2(10))


@pytest.mark.parametrize("text", ["", "12a", "-5", "١٢"])
def test_decimal_to_int_rejects_non_decimal_text(text):
    with pytest.raises(ValueError):
        decimal_to_int(text)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_base_digits_match_repeated_division(p):
    rng = random.Random(p)
    for n in [0, 1, p - 1, p, p * p] + [rng.getrandbits(rng.randrange(1, 3000)) for _ in range(30)]:
        expect = []
        m = n
        while m:
            m, d = divmod(m, p)
            expect.append(d)
        assert base_digits(n, p) == expect


def test_mul_trunc_matches_schoolbook():
    rng = random.Random(5)
    for p in (2, 3, 7, 65521):
        for _ in range(20):
            a = [rng.randrange(p) for _ in range(rng.randrange(0, 60))]
            b = [rng.randrange(p) for _ in range(rng.randrange(0, 60))]
            n = rng.randrange(0, 90)
            assert mul_trunc(a, b, p, n) == naive_mul(a, b, p, n)


def test_annihilates_accepts_true_relations_and_rejects_perturbed_ones():
    p = 3
    f = [central_binomial_mod(n, p) for n in range(500)]
    q = [[2, 0, 1], [0, 0, 2]]  # (1 + 2x) y^2 + 2, rows indexed by x-degree
    assert annihilates(q, f, p)
    assert not annihilates([[2, 0, 1], [0, 1, 2]], f, p)
    g = [digit_sum_parity(n) for n in range(500)]
    # (1+x)^3 y^2 + (1+x)^2 y + x over F_2
    tm = [[0, 1, 1], [1, 0, 1], [0, 1, 1], [0, 0, 1]]
    assert annihilates(tm, g, 2)
    g[321] ^= 1
    assert not annihilates(tm, g, 2)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_median_is_one_slot(name):
    assert SLOTS[name] % 2 == 1
    assert WORKLOADS[name].tail_percentile == 90
