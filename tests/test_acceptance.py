"""Acceptance suite: the package's behavioral contract, end to end.

Each test covers one numbered criterion and prints a [PASS]/[FAIL] line
(visible under pytest -s); every check is exact, no tolerances, and all
ground truth comes from independent oracles in support.py or from direct
integer arithmetic.
"""

import json
import random

from christol import (
    NoRelationFound,
    build_dfao,
    dfao_from_json,
    dfao_from_linear,
    dfao_to_json,
    expand_branch,
    guess_polynomial,
    minimize,
    orbit_closure,
    query,
    recheck,
    section,
    verify_annihilation,
    weed,
    weed_via_derivative,
)
from christol.examples import central_binomial_spec, shipped_specs, thue_morse_spec
from support import (
    lucas_central_binomial_mod3,
    parity,
    random_decimal,
    random_series,
)


def _report(num, description, failures):
    status = "FAIL" if failures else "PASS"
    print(f"[{status}] criterion {num}: {description}")
    assert not failures, f"criterion {num}: {description}: " + "; ".join(failures[:5])


def test_criterion_1_weeding_identity():
    rng = random.Random(101)
    failures = []
    for p in (2, 3, 5, 7):
        for _ in range(1000):
            f = random_series(rng, p, max_len=48)
            k = rng.randrange(p)
            if weed_via_derivative(f, k) != section(f, p - 1 - k):
                failures.append(f"p={p} k={k} N={f.precision}")
    _report(1, "derivative-route weeding equals the section of residue p-1-k", failures)


def test_criterion_2_reconstruction_identity():
    rng = random.Random(202)
    failures = []
    for p in (2, 3, 5):
        for _ in range(500):
            f = random_series(rng, p, max_len=48)
            total = [None] * f.precision
            for r in range(p):
                total[r::p] = section(f, r).coeffs
            if tuple(total) != f.coeffs:
                failures.append(f"p={p} N={f.precision}")
    _report(2, "interleaving the p sections reassembles the series exactly", failures)


def test_criterion_3_digit_parity_end_to_end():
    failures = []
    machine = minimize(build_dfao(thue_morse_spec()))
    if machine.n_states != 2:
        failures.append(f"expected 2 states, got {machine.n_states}")
    for n in range(2**14):
        if query(machine, str(n)) != parity(n):
            failures.append(f"n={n}")
            break
    rng = random.Random(303)
    for _ in range(20):
        s = random_decimal(rng, 40)
        if query(machine, s) != parity(int(s)):
            failures.append(f"n={s}")
    _report(3, "binary digit-parity machine: 2 states, exact on n < 2^14 "
               "and on 40-digit indices", failures)


def test_criterion_4_central_binomial_end_to_end():
    failures = []
    machine = minimize(build_dfao(central_binomial_spec()))
    if machine.n_states != 3:
        failures.append(f"expected 3 states, got {machine.n_states}")
    for n in range(3**9):
        if query(machine, str(n)) != lucas_central_binomial_mod3(n):
            failures.append(f"n={n}")
            break
    rng = random.Random(404)
    for _ in range(20):
        s = random_decimal(rng, 50)
        if query(machine, s) != lucas_central_binomial_mod3(int(s)):
            failures.append(f"n={s}")
    _report(4, "central-binomial-mod-3 machine: 3 states, exact on n < 3^9 "
               "and on 50-digit indices", failures)


def _outputs_agree_on_all_strings(a, b, depth):
    """Exhaustive walk of every digit string of length <= depth through
    both machines in lockstep, trailing zeros included."""
    stack = [(a.start, b.start, depth)]
    while stack:
        sa, sb, budget = stack.pop()
        if a.tau[sa] != b.tau[sb]:
            return False
        if budget:
            for d in range(a.p):
                stack.append((a.delta[sa][d], b.delta[sb][d], budget - 1))
    return True


def test_criterion_5_both_constructions_agree():
    failures = []
    for name, spec in shipped_specs():
        direct = minimize(build_dfao(spec))
        linear = minimize(dfao_from_linear(orbit_closure(spec)))
        if direct != linear:
            failures.append(f"{name}: minimized machines differ")
            continue
        if not _outputs_agree_on_all_strings(
            build_dfao(spec), dfao_from_linear(orbit_closure(spec)), 12
        ):
            failures.append(f"{name}: outputs diverge on some string of length <= 12")
    _report(5, "orbit machine and linear-representation machine are the same "
               "machine after minimization, and agree on all digit strings of "
               "length <= 12", failures)


def test_criterion_6_weeding_linearity():
    rng = random.Random(606)
    failures = []
    for p in (2, 3, 5):
        for _ in range(1000):
            f = random_series(rng, p, max_len=40)
            g = random_series(rng, p, max_len=40)
            alpha = rng.randrange(p)
            k = rng.randrange(p)
            lhs = weed(f.scale(alpha) + g, k)
            rhs = weed(f, k).scale(alpha) + weed(g, k)
            if lhs != rhs:
                failures.append(f"p={p} k={k} alpha={alpha}")
    _report(6, "weeding is linear over F_p", failures)


def test_criterion_7_closure_soundness():
    failures = []
    for name, spec in shipped_specs():
        rep = orbit_closure(spec)
        if not recheck(rep, spec):
            failures.append(f"{name}: recheck at doubled precision failed")
        for flavor, machine in (
            ("orbit", build_dfao(spec)),
            ("linear", dfao_from_linear(rep)),
        ):
            if not machine.is_trailing_zero_stable():
                failures.append(f"{name}/{flavor}: a zero digit changes some output")
    _report(7, "every stored closure relation survives recheck at doubled "
               "precision; reading extra zero digits never changes an output",
            failures)


def test_criterion_8_polynomial_recovery_round_trip():
    failures = []
    prefix = expand_branch(thue_morse_spec(), 32)
    q = guess_polynomial(prefix, 3, 2)
    longer = expand_branch(thue_morse_spec(), 64)
    if not verify_annihilation(q, longer):
        failures.append("recovered polynomial does not annihilate the 64-term prefix")
    try:
        guess_polynomial(expand_branch(thue_morse_spec(), 64), 1, 1)
        failures.append("degree bounds (1,1) produced a relation; none exists")
    except NoRelationFound:
        pass
    _report(8, "a polynomial fitted to 32 digit-parity terms annihilates 64, "
               "and too-small degree bounds are refused", failures)


def test_criterion_9_serialization():
    failures = []
    for name, spec in shipped_specs():
        for flavor, machine in (
            ("orbit", build_dfao(spec)),
            ("linear", dfao_from_linear(orbit_closure(spec))),
            ("minimized", minimize(build_dfao(spec))),
        ):
            if dfao_from_json(dfao_to_json(machine)) != machine:
                failures.append(f"{name}/{flavor}: round trip changed the machine")
    doc = json.loads(dfao_to_json(minimize(build_dfao(thue_morse_spec()))))
    if len(doc["states"]) != 2:
        failures.append(f"digit-parity JSON has {len(doc['states'])} state entries")
    _report(9, "JSON round trip is the identity for every shipped machine; "
               "the digit-parity document has exactly 2 state entries", failures)
