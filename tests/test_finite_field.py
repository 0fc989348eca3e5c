import reprlib

import pytest

from christol import (
    Dfao,
    MalformedNumber,
    StateCapExceeded,
    TruncatedSeries,
    automatic_to_series,
    dfao_from_linear,
    ensure_prime,
    exact_representation,
    expand_branch,
    section,
)
from christol.examples import thue_morse_spec
from christol.finite_field import brief, parse_natural
from christol.kernel import ClosureConfig, alpha_step


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


def _range_checks():
    """name -> (call, sign, exception type, message template) for each
    library check that shows a caller's int: call(value) raises, where
    value has the given sign, and the message shows the value at {}."""
    spec = thue_morse_spec()
    rep = exact_representation(spec)
    series = TruncatedSeries(2, (1,))
    return {
        "expand_branch": (lambda v: expand_branch(spec, v), -1, ValueError, "term count must be nonnegative, got {}"),
        "automatic_to_series": (
            lambda v: automatic_to_series(rep, v),
            -1,
            ValueError,
            "term count must be nonnegative, got {}",
        ),
        "n_eq": (lambda v: ClosureConfig(n_eq=v), -1, ValueError, "n_eq must be at least 8, got {}"),
        "max_states": (lambda v: ClosureConfig(max_states=v), -1, ValueError, "max_states must be positive, got {}"),
        "alpha_step": (lambda v: alpha_step(rep, rep.alpha0, v), 1, ValueError, "digit {} outside [0, 2)"),
        "truncate": (series.truncate, 1, ValueError, "cannot truncate precision 1 to {}"),
        "section": (lambda v: section(series, v), 1, ValueError, "residue {} outside [0, 2)"),
        "section closure cap": (
            lambda v: exact_representation(spec, v),
            -1,
            StateCapExceeded,
            "section closure exceeds {} basis elements",
        ),
        "walk cap": (lambda v: dfao_from_linear(rep, v), -1, StateCapExceeded, "reachable vectors exceed {}"),
    }


@pytest.mark.parametrize("limit", ["default", "lowest"])
@pytest.mark.parametrize("name", list(_range_checks()))
def test_range_messages_show_the_callers_int_through_brief(request, limit, name):
    # each message is its function's own at every size of int: a short
    # one as a bare f-string writes it, one of up to 600 digits as
    # reprlib.repr() does, and 10**5000 by its bit length, where a bare
    # f-string would raise the interpreter's int(str) error instead
    if limit == "lowest":
        request.getfixturevalue("low_int_limit")
    call, sign, error, template = _range_checks()[name]
    for value, shown in (
        (sign * 7, str(sign * 7)),
        (sign * 10**599, reprlib.repr(sign * 10**599)),
        (sign * 10**5000, "<int of 16610 bits>"),
    ):
        with pytest.raises(Exception) as info:
            call(value)
        assert type(info.value) is error
        assert str(info.value) == template.format(shown)


def test_parse_natural():
    assert parse_natural("0") == 0
    assert parse_natural("007") == 7
    assert parse_natural("1" * 5000) == (10**5000 - 1) // 9
    for bad in ("", "-5", "12a", " 7", "7 ", "+7", "1_000", "١٢", "1.5", "0x10", "²", 7, None):
        with pytest.raises(MalformedNumber):
            parse_natural(bad)
    assert issubclass(MalformedNumber, ValueError)
