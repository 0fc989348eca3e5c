import pytest

from christol import ensure_prime


def test_modulus_validation():
    ensure_prime(2)
    ensure_prime(65521)  # largest prime below 2**16
    for bad in (0, 1, 4, 6, 9, 10, 65536, 65537, -3):
        with pytest.raises(ValueError):
            ensure_prime(bad)
    with pytest.raises(ValueError):
        ensure_prime(True)
