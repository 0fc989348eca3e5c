import pytest

from christol import MalformedNumber, ensure_prime
from christol.finite_field import parse_natural


def test_modulus_validation():
    ensure_prime(2)
    ensure_prime(65521)  # largest prime below 2**16
    for bad in (0, 1, 4, 6, 9, 10, 65536, 65537, -3):
        with pytest.raises(ValueError):
            ensure_prime(bad)
    with pytest.raises(ValueError):
        ensure_prime(True)


def test_unhashable_modulus_is_a_value_error():
    # the type is checked before the cache, which cannot hash a list
    for bad in ([2], {}, "2", 2.0, None):
        with pytest.raises(ValueError, match="modulus must be an int"):
            ensure_prime(bad)


def test_parse_natural():
    assert parse_natural("0") == 0
    assert parse_natural("007") == 7
    assert parse_natural("1" * 5000) == (10**5000 - 1) // 9
    for bad in ("", "-5", "12a", " 7", "7 ", "+7", "1_000", "١٢", "1.5", "0x10", "²", 7, None):
        with pytest.raises(MalformedNumber):
            parse_natural(bad)
    assert issubclass(MalformedNumber, ValueError)
