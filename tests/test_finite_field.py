import reprlib

import pytest

from christol import Dfao, MalformedNumber, ensure_prime
from christol.finite_field import brief, parse_natural


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


@pytest.mark.parametrize("limit", ["default", "lowest"])
def test_messages_show_ints_too_long_to_write_by_their_bits(request, limit):
    # 10**5000 has more digits than the interpreter writes by default,
    # so reprlib.repr() would raise in place of the message
    if limit == "lowest":
        request.getfixturevalue("low_int_limit")
    with pytest.raises(ValueError) as info:
        ensure_prime([10**5000])
    assert str(info.value) == "modulus must be an int, got [<int of 16610 bits>]"
    with pytest.raises(ValueError) as info:
        Dfao(2, [10**5000], ((0, 0),), (1,))
    assert str(info.value) == "start state [<int of 16610 bits>] is not an int in [0, 1)"
    assert brief(-(10**600)) == "<int of 1994 bits>"


@pytest.mark.parametrize("limit", ["default", "lowest"])
def test_messages_show_ints_of_up_to_600_digits_as_reprlib_does(request, limit):
    if limit == "lowest":
        request.getfixturevalue("low_int_limit")
    for value in (0, -7, 10**40, 10**600 - 1, -(10**600) + 1, [2, 10**599], "2" * 50, (True, 2.0, None)):
        assert brief(value) == reprlib.repr(value), value
    with pytest.raises(ValueError) as info:
        ensure_prime([10**599])
    assert str(info.value) == f"modulus must be an int, got {reprlib.repr([10**599])}"


def test_parse_natural():
    assert parse_natural("0") == 0
    assert parse_natural("007") == 7
    assert parse_natural("1" * 5000) == (10**5000 - 1) // 9
    for bad in ("", "-5", "12a", " 7", "7 ", "+7", "1_000", "١٢", "1.5", "0x10", "²", 7, None):
        with pytest.raises(MalformedNumber):
            parse_natural(bad)
    assert issubclass(MalformedNumber, ValueError)
