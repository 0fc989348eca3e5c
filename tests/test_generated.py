"""Property tests on generated machines: the tabulated series against
per-index queries, and the relation search against the full-matrix
reference."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from christol import Dfao, NoRelationFound, automatic_to_series, guess_polynomial, query  # noqa: E402
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
