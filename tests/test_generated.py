"""Property tests on generated machines: the tabulated series against
per-index queries, the relation search against the full-matrix
reference, and the dfao-v1 round trip and the constructor's checks."""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from christol import (  # noqa: E402
    Dfao,
    NoRelationFound,
    SchemaError,
    automatic_to_series,
    dfao_from_json,
    dfao_to_json,
    guess_polynomial,
    query,
)
from support import full_matrix_guess  # noqa: E402


@st.composite
def machines(draw):
    """A Dfao over p in {2, 3, 5, 7} with 1 to 8 states, arbitrary
    transitions, outputs and start state."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    n = draw(st.integers(1, 8))
    state = st.integers(0, n - 1)
    delta = draw(st.lists(st.tuples(*[state] * p), min_size=n, max_size=n))
    tau = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    return Dfao(p, draw(state), tuple(delta), tuple(tau))


def outcome(guess, f, dx, dy):
    """The Q a guess returns, or NoRelationFound."""
    try:
        return guess(f, dx, dy)
    except NoRelationFound:
        return NoRelationFound


@settings(max_examples=60, deadline=None)
@given(machines(), st.integers(0, 200), st.integers(0, 3), st.integers(1, 2))
def test_generated_machines_tabulate_and_guess_like_the_references(machine, n, dx, dy):
    f = automatic_to_series(machine, n)
    assert f.coeffs == tuple(query(machine, str(j)) for j in range(n))
    if n < (dx + 1) * (dy + 1) + dx + dy:
        with pytest.raises(ValueError):
            guess_polynomial(f, dx, dy)
    else:
        assert outcome(guess_polynomial, f, dx, dy) == outcome(full_matrix_guess, f, dx, dy)


@settings(max_examples=60, deadline=None)
@given(machines())
def test_generated_machines_survive_the_json_round_trip(machine):
    assert dfao_from_json(dfao_to_json(machine)) == machine


@settings(max_examples=60, deadline=None)
@given(machines(), st.sampled_from((True, 1.0, "0")), st.data())
def test_a_non_int_slot_is_refused_by_the_constructor_and_the_reader(machine, bad, data):
    # one slot -- the start, a target or an output -- holds a value that
    # equals or spells a valid int but is not one
    start, delta, tau = machine.start, [list(row) for row in machine.delta], list(machine.tau)
    s = data.draw(st.integers(0, machine.n_states - 1))
    slot = data.draw(st.sampled_from(("start", "target", "output")))
    if slot == "start":
        start = bad
    elif slot == "target":
        delta[s][data.draw(st.integers(0, machine.p - 1))] = bad
    else:
        tau[s] = bad
    with pytest.raises(ValueError):
        Dfao(machine.p, start, tuple(map(tuple, delta)), tuple(tau))
    doc = {
        "format": "dfao-v1",
        "p": machine.p,
        "digit_order": "lsd",
        "start": start,
        "states": [{"output": out, "next": row} for out, row in zip(tau, delta)],
    }
    with pytest.raises(SchemaError):
        dfao_from_json(json.dumps(doc))
