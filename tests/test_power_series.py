import os
import random
import subprocess
import sys

import pytest

import christol
from christol import (
    ModulusMismatch,
    TruncatedSeries,
    parse_series,
)
from christol.power_series import cauchy_product
from support import random_series


def S(p, coeffs):
    return TruncatedSeries(p, coeffs)


def schoolbook(a, b, p, n):
    """First n coefficients of a*b by the double loop, zero-padded."""
    out = [0] * max(n, 0)
    for i, x in enumerate(a[:n]):
        for j, y in enumerate(b[: n - i]):
            out[i + j] += x * y
    return tuple(c % p for c in out)


def test_add_mul_shift_worked_examples():
    assert (S(2, [1, 1]) + S(2, [0, 1])).coeffs == (1, 0)
    f = S(2, [1, 1, 0])
    assert (f * f).coeffs == (1, 0, 1)


def test_precision_rules():
    p = 5
    f = random_series(random.Random(1), p, max_len=20, min_len=12)
    g = random_series(random.Random(2), p, max_len=10, min_len=4)
    n = min(f.precision, g.precision)
    assert (f + g).precision == n
    assert (f * g).precision == n


def test_mul_ring_axioms_random():
    rng = random.Random(3141)
    for p in (2, 3, 7):
        for _ in range(300):
            f = random_series(rng, p, max_len=20)
            g = random_series(rng, p, max_len=20)
            h = random_series(rng, p, max_len=20)
            assert f * g == g * f
            assert ((f * g) * h).coeffs == (f * (g * h)).coeffs
            n = min(f.precision, g.precision, h.precision)
            lhs = (f * (g + h)).truncate(n)
            rhs = (f * g).truncate(n) + (f * h).truncate(n)
            assert lhs == rhs


def test_mul_matches_schoolbook():
    rng = random.Random(99)
    for _ in range(100):
        p = rng.choice((2, 3, 5, 251))
        f = random_series(rng, p, max_len=12)
        g = random_series(rng, p, max_len=12)
        n = min(f.precision, g.precision)
        assert (f * g).coeffs == schoolbook(f.coeffs, g.coeffs, p, n)


def test_empty_series_degenerate_results():
    empty = S(2, [])
    assert (empty + empty).precision == 0
    assert (empty * S(2, [1, 1])).precision == 0


def test_equality_is_exact_including_precision():
    assert S(2, [1, 0]) != S(2, [1, 0, 0])
    assert S(2, [1, 0]) == S(2, [1, 0])
    assert S(2, [1]) != S(3, [1])
    assert hash(S(5, [1, 2])) == hash(S(5, [1, 2]))


def test_repr_shows_at_most_16_coefficients():
    assert repr(S(3, [1, 2])) == "TruncatedSeries(p=3, N=2, [1,2])"
    assert repr(S(2, [1] * 16)) == f"TruncatedSeries(p=2, N=16, [{','.join('1' * 16)}])"
    assert repr(S(2, [1] * 17)) == f"TruncatedSeries(p=2, N=17, [{','.join('1' * 16)},...])"


def test_truncate_and_pad():
    f = S(3, [1, 2, 0, 1])
    assert f.truncate(2).coeffs == (1, 2)
    with pytest.raises(ValueError):
        f.truncate(5)


def test_modulus_mismatch_in_ops():
    with pytest.raises(ModulusMismatch):
        S(2, [1]) + S(3, [1])
    with pytest.raises(ModulusMismatch):
        S(2, [1]) * S(3, [1])
    with pytest.raises(TypeError, match="expected TruncatedSeries, got tuple"):
        S(2, [1]) + (1,)


def test_parse_series_literal():
    assert parse_series("0,1,1,0,1,0,0,1", 2).coeffs == (0, 1, 1, 0, 1, 0, 0, 1)
    assert parse_series(" 3 , 4 ", 3).coeffs == (0, 1)  # reduced mod 3
    for bad in ("", "1,,2", "1,-2", "a,b", ","):
        with pytest.raises(ValueError):
            parse_series(bad, 2)
    # entries of any length: 5000 ones is 2 mod 3
    assert parse_series("1" * 5000 + ", 1,2", 3).coeffs == (2, 1, 2)
    assert parse_series("0" * 4999 + "1", 3).coeffs == (1,)


# -- cauchy_product ---------------------------------------------------

PRIMES = (2, 3, 251, 257, 65521)


def test_cauchy_product_degenerate_sizes():
    for p in PRIMES:
        assert cauchy_product((1, 2 % p), (1,), p, 0) == ()
        assert cauchy_product((1, 2 % p), (1,), p, -3) == ()
        assert cauchy_product((), (1, 1), p, 3) == (0, 0, 0)
        assert cauchy_product((p - 1,), (p - 1, 5 % p), p, 1) == (1,)
        assert cauchy_product((), (), p, 1) == (0,)


def test_cauchy_product_matches_schoolbook():
    rng = random.Random(20261018)
    for p in PRIMES:
        for _ in range(60):
            a = tuple(rng.randrange(p) for _ in range(rng.randrange(40)))
            b = tuple(rng.randrange(p) for _ in range(rng.randrange(40)))
            # n below, between and beyond the input lengths
            n = rng.randrange(len(a) + len(b) + 5)
            got = cauchy_product(a, b, p, n)
            assert got == schoolbook(a, b, p, n)
            assert len(got) == n


def test_cauchy_product_long_operand():
    rng = random.Random(5000)
    p = 65521
    a = tuple(rng.randrange(p) for _ in range(5000))
    b = tuple(rng.randrange(p) for _ in range(700))
    assert cauchy_product(a, b, p, 4999) == schoolbook(a, b, p, 4999)
    want = schoolbook(a, b, p, 6000)
    assert cauchy_product(a, b, p, 6000) == want
    assert cauchy_product(b, a, p, 6000) == want


def test_cauchy_product_at_slot_width_switches():
    # With every residue p-1, the middle coefficient of the product is
    # exactly min(len a, len b) * (p-1)**2 before reduction: the two
    # lengths around each 2**8, 2**16 and 2**32 crossing fill a slot to
    # the brim, then overflow it unless the slot is widened.  Such a
    # product is known in closed form: (p-1)**2 = 1 mod p, so the k-th
    # coefficient counts the index pairs summing to k.
    cases = []
    for p in PRIMES:
        for bits in (8, 16, 32):
            fit = (2**bits - 1) // (p - 1) ** 2
            if fit <= 70000:
                cases += [(p, length) for length in (fit, fit + 1) if length > 0]
    assert {(2, 255), (2, 256), (3, 16383), (3, 16384), (251, 68719), (251, 68720),
            (257, 65535), (257, 65536), (65521, 1), (65521, 2)} <= set(cases)
    for p, length in cases:
        # an unequal partner only where the product is cheap
        for other in (length, length + 3) if length < 1000 else (length,):
            a = (p - 1,) * length
            b = (p - 1,) * other
            n = length + other - 1
            want = tuple(min(k + 1, length, other, n - k) % p for k in range(n))
            assert cauchy_product(a, b, p, n) == want, (p, length, other)
            if other != length:
                assert cauchy_product(b, a, p, n) == want, (p, other, length)
        if length < 300:
            rng = random.Random(length)
            a = tuple(rng.randrange(p) for _ in range(length))
            b = tuple(rng.randrange(p) for _ in range(length + 1))
            assert cauchy_product(a, b, p, 2 * length) == schoolbook(a, b, p, 2 * length)


def test_import_does_not_load_numpy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(christol.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, christol; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_public_surface_is_pinned():
    # the benchmark imports BranchSpec, parse_bivariate, ClosureConfig,
    # build_dfao, minimize and dfao_to_json from the package; adding or
    # removing any public name is a deliberate change to this list
    assert sorted(christol.__all__) == [
        "AmbiguousBranch",
        "BivariatePolynomial",
        "BranchSpec",
        "ChristolError",
        "ClosureConfig",
        "DegreeOutOfRange",
        "DegreeOverflow",
        "Dfao",
        "DimensionMismatch",
        "KernelRepresentation",
        "MalformedNumber",
        "ModulusMismatch",
        "NoBranch",
        "NoRelationFound",
        "PathExpander",
        "PolynomialSyntaxError",
        "SchemaError",
        "StateCapExceeded",
        "TruncatedSeries",
        "alpha_output",
        "alpha_step",
        "automatic_to_series",
        "build_dfao",
        "dfao_from_json",
        "dfao_from_linear",
        "dfao_to_json",
        "ensure_prime",
        "exact_representation",
        "expand_branch",
        "export_dot",
        "guess_polynomial",
        "minimize",
        "orbit_closure",
        "parse_bivariate",
        "parse_series",
        "query",
        "recheck",
        "section",
        "to_digits_lsd",
        "verify_annihilation",
        "weed",
        "weed_via_derivative",
    ]
    for name in christol.__all__:
        assert getattr(christol, name) is not None, name
