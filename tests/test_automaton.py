import json
import random

import pytest

from christol import automaton
from christol import (
    BranchSpec,
    ClosureConfig,
    Dfao,
    MalformedNumber,
    SchemaError,
    StateCapExceeded,
    build_dfao,
    dfao_from_json,
    dfao_from_linear,
    dfao_to_json,
    exact_representation,
    expand_branch,
    export_dot,
    minimize,
    orbit_closure,
    parse_bivariate,
    query,
    recheck,
    to_digits_lsd,
)
from christol.examples import all_ones_spec, central_binomial_spec, shipped_specs, thue_morse_spec
from christol.finite_field import ensure_prime
from support import (
    base_digits,
    byte_identity_cases,
    central_binomial_lucas,
    decimal_str,
    lucas_central_binomial_mod3,
    parity,
    random_decimal,
)

TM_JSON = (
    '{"format":"dfao-v1","p":2,"digit_order":"lsd","start":0,'
    '"states":[{"output":0,"next":[0,1]},{"output":1,"next":[1,0]}]}'
)


def test_build_dfao_parity():
    a = build_dfao(thue_morse_spec())
    assert a.n_states == 2
    assert a.start == 0
    assert a.delta == ((0, 1), (1, 0))
    assert a.tau == (0, 1)


def test_build_dfao_central_binomial():
    a = build_dfao(central_binomial_spec())
    assert a.n_states == 3
    assert a.delta == ((0, 1, 2), (1, 0, 2), (2, 2, 2))
    assert a.tau == (1, 2, 0)


def test_build_dfao_all_ones():
    a = build_dfao(all_ones_spec())
    assert a.n_states == 1
    assert a.delta == ((0, 0),)
    assert a.tau == (1,)


def test_dfao_from_linear_matches_orbit_machine():
    for _, spec in shipped_specs():
        direct = build_dfao(spec)
        linear = dfao_from_linear(orbit_closure(spec))
        assert minimize(direct) == minimize(linear)


def test_machines_for_roots_with_singular_slope():
    # dQ/dy(0, 0) = 0 for y^2 + x*y + x^3 over F_3; each seed picks a
    # simple root, which the closure takes from the shifted expansion
    q = parse_bivariate("y^2 + x*y + x^3", 3)
    for seed in ((0, 0), (0, 2)):
        spec = BranchSpec(q, seed)
        rep = orbit_closure(spec)
        assert recheck(rep, spec)
        machine = dfao_from_linear(rep)
        assert machine.n_states == 6
        assert machine == minimize(build_dfao(spec))
        f = expand_branch(spec, 3**7)
        for n in range(3**7):
            assert query(machine, str(n)) == f.coeffs[n], (seed, n)


def test_dfao_from_linear_is_already_minimal():
    # the CLI writes this machine without minimize(); the automaton module
    # docstring says why that is sound, also for closures failing recheck
    rng = random.Random(20261019)
    for n_eq in (8, 16, 64):
        cases = byte_identity_cases(rng) + [(2, "(1+x^11)*y + 1", "")]
        for p, poly, seed in cases:
            spec = BranchSpec(parse_bivariate(poly, p), tuple(int(s) for s in seed.split(",") if s))
            machine = dfao_from_linear(orbit_closure(spec, ClosureConfig(n_eq=n_eq)))
            assert minimize(machine) == machine, (p, poly, n_eq)


def test_state_caps_apply():
    with pytest.raises(StateCapExceeded):
        build_dfao(thue_morse_spec(), ClosureConfig(max_states=1))
    with pytest.raises(StateCapExceeded):
        dfao_from_linear(orbit_closure(thue_morse_spec()), max_states=1)


def test_minimize_is_idempotent_and_output_preserving():
    for _, spec in shipped_specs():
        a = build_dfao(spec)
        b = minimize(a)
        assert b.n_states <= a.n_states
        assert minimize(b) == b
        for n in range(200):
            assert query(a, str(n)) == query(b, str(n))


def test_minimize_merges_equivalent_states():
    # states 1 and 2 are distinguishable from 0 by output only; 3 is
    # unreachable; 1 and 2 are equivalent to each other
    a = Dfao(
        p=2,
        start=0,
        delta=((1, 2), (0, 1), (0, 2), (3, 3)),
        tau=(0, 1, 1, 0),
    )
    b = minimize(a)
    assert b.n_states == 2
    assert b.tau == (0, 1)
    assert b.delta == ((1, 1), (0, 1))


def test_minimize_prunes_unreachable_states():
    a = Dfao(p=2, start=0, delta=((0, 0), (1, 0)), tau=(1, 0))
    b = minimize(a)
    assert b.n_states == 1
    assert b.delta == ((0, 0),)
    assert b.tau == (1,)


def test_minimize_canonical_numbering():
    # the same machine with states permuted minimizes to the same thing
    a = Dfao(p=2, start=0, delta=((0, 1), (1, 0)), tau=(0, 1))
    permuted = Dfao(p=2, start=1, delta=((0, 1), (1, 0)), tau=(1, 0))
    assert minimize(a) == minimize(permuted)


def _outputs(a, s, depth):
    """Outputs of state s on every digit string of length <= depth,
    shortest first, in a fixed order of the strings."""
    out, layer = [], [s]
    for _ in range(depth + 1):
        out.extend(a.tau[t] for t in layer)
        layer = [t for u in layer for t in a.delta[u]]
    return tuple(out)


def test_minimize_ignores_unreachable_padding_and_numbering():
    rng = random.Random(8128)
    for _ in range(60):
        p, n, extra = rng.choice((2, 3)), rng.randrange(1, 7), rng.randrange(5)
        a = Dfao(
            p=p,
            start=rng.randrange(n),
            delta=tuple(tuple(rng.randrange(n) for _ in range(p)) for _ in range(n)),
            tau=tuple(rng.randrange(p) for _ in range(n)),
        )
        # padding states may point anywhere; nothing in a points to them
        total = n + extra
        rows = a.delta + tuple(tuple(rng.randrange(total) for _ in range(p)) for _ in range(extra))
        taus = a.tau + tuple(rng.randrange(p) for _ in range(extra))
        new = list(range(total))
        rng.shuffle(new)
        old = sorted(range(total), key=new.__getitem__)
        padded = Dfao(
            p=p,
            start=new[a.start],
            delta=tuple(tuple(new[t] for t in rows[s]) for s in old),
            tau=tuple(taus[s] for s in old),
        )
        b = minimize(padded)
        assert b == minimize(a)
        # no two equivalent states: n states differ on a string of length < n
        assert len({_outputs(b, s, b.n_states) for s in range(b.n_states)}) == b.n_states
        assert _outputs(b, b.start, 8) == _outputs(padded, padded.start, 8)


def test_to_digits_lsd():
    assert to_digits_lsd("6", 2) == [0, 1, 1]
    assert to_digits_lsd("7", 2) == [1, 1, 1]
    assert to_digits_lsd("0", 2) == []
    assert to_digits_lsd("0", 7) == []
    assert to_digits_lsd("13", 3) == [1, 1, 1]
    assert to_digits_lsd("007", 2) == [1, 1, 1]
    assert to_digits_lsd("00", 5) == []
    big = "1" + "0" * 100
    digits = to_digits_lsd(big, 2)
    assert len(digits) == 333  # 10^100 needs 333 bits
    assert digits[-1] == 1


def test_to_digits_matches_int_arithmetic():
    rng = random.Random(606)
    for p in (2, 3, 5, 13):
        for _ in range(200):
            n = rng.randrange(10**9)
            got = to_digits_lsd(str(n), p)
            want = []
            m = n
            while m:
                want.append(m % p)
                m //= p
            assert got == want


def short_division_lsd(n: str, p: int) -> list:
    """Reference for to_digits_lsd: repeated short division, quadratic
    but obviously correct.  The decimal string is cut into base-10^9
    limbs, and each pass divides them by q = p^k, the largest power of p
    below 10^9, which leaves k base-p digits in the remainder."""
    ensure_prime(p)
    if not isinstance(n, str) or not n or not all(c in "0123456789" for c in n):
        raise MalformedNumber(f"expected a decimal natural number, got {n!r}")
    q, k = p, 1
    while q * p < 10**9:
        q, k = q * p, k + 1
    head = len(n) % 9
    current = [int(n[:head])] if head else []
    current += [int(n[i : i + 9]) for i in range(head, len(n), 9)]
    first = next((i for i, limb in enumerate(current) if limb), len(current))
    current = current[first:]
    digits = []
    while current:
        rem = 0
        quotient = []
        for limb in current:
            quot, rem = divmod(rem * 10**9 + limb, q)
            quotient.append(quot)
        for _ in range(k):
            rem, d = divmod(rem, p)
            digits.append(d)
        first = next((i for i, limb in enumerate(quotient) if limb), len(quotient))
        current = quotient[first:]
    # the last pass pads the top digits with zeros
    while digits and not digits[-1]:
        digits.pop()
    return digits


def test_to_digits_matches_short_division_on_random_lengths():
    # one length per decade, the last one (up to 10^4 digits) only at
    # p = 13
    rng = random.Random(4417)
    for p in (2, 3, 5, 7, 13):
        for decade in range(4 if p == 13 else 3):
            length = rng.randrange(10**decade, 10 ** (decade + 1))
            n = "0" * rng.choice((0, 1, 37)) + random_decimal(rng, length)
            assert to_digits_lsd(n, p) == short_division_lsd(n, p), (p, len(n))


def test_to_digits_matches_short_division_at_chunk_boundaries():
    # 600 is the parse leaf size, 640 the lowest int(str) limit an
    # interpreter accepts, 4300 the default limit
    rng = random.Random(5003)
    for length in (599, 600, 601, 639, 640, 641):
        for p in (2, 13):
            n = random_decimal(rng, length)
            assert to_digits_lsd(n, p) == short_division_lsd(n, p), (p, length)
    for length in (4299, 4300, 4301):
        n = random_decimal(rng, length)
        assert to_digits_lsd(n, 13) == short_division_lsd(n, 13), length


def test_to_digits_matches_short_division_at_split_powers():
    # q = p^(2^k) is a split divisor: q - 1, q and q + 1 put all-(p-1),
    # all-zero and mostly-zero low halves under a nonzero high half,
    # where missing padding would show
    for p in (2, 3, 5, 7, 13):
        for k in range(11):
            q = p ** (2**k)
            for v in (q - 1, q, q + 1):
                n = decimal_str(v)
                assert to_digits_lsd(n, p) == short_division_lsd(n, p), (p, k, v - q)


# both sides of the table cutoff: p < 32 has k >= 2 digits per word
WORD_PRIMES = (2, 3, 5, 7, 31, 37, 65521)


def word_base(p: int) -> tuple:
    """(P, k): P = p^k, the largest power of p at most 1024."""
    P, k = p, 1
    while P * p <= 1024:
        P, k = P * p, k + 1
    return P, k


def word_boundary_values(p: int) -> set:
    """Values of 1, k-1, k and k+1 base-p digits, P^(2^i) - 1, P^(2^i)
    and P^(2^i) + 1 for i < 7, and 2^1024 - 1, 2^1024 and 2^1024 + 1."""
    P, k = word_base(p)
    values = {2**1024 + e for e in (-1, 0, 1)}
    for i in range(7):
        q = P ** (2**i)
        values |= {q - 1, q, q + 1}
    for j in (1, k - 1, k, k + 1):
        if j:
            values |= {p ** (j - 1), p ** (j - 1) + 1, p**j - 1}
    return values


def every_small_value(p: int) -> set:
    """Every value below 2 P + 2 (at most 4096 of them), then every value
    within 32 of P^2: one and two words, and the carry into a third."""
    P, _ = word_base(p)
    values = set(range(min(2 * P + 2, 4096)))
    values |= set(range(P * P - 32, P * P + 33))
    return values


@pytest.mark.parametrize(
    "values", [word_boundary_values, every_small_value], ids=["default", "split-every-value"]
)
def test_to_digits_matches_short_division_at_word_boundaries(values):
    # q = P^(2^i) is a split divisor of the word split; every value,
    # however short, goes through the level split, so the second case
    # runs it on every value of one and two words
    for p in WORD_PRIMES:
        for v in sorted(values(p)):
            n = decimal_str(v)
            want = short_division_lsd(n, p)
            assert to_digits_lsd(n, p) == want, (p, v)
            assert to_digits_lsd("000" + n, p) == want, (p, v)
        for zero in ("0", "000"):
            assert to_digits_lsd(zero, p) == []


def test_word_tables_stay_small():
    for p in WORD_PRIMES:
        assert to_digits_lsd(str(p**3 + 1), p) == [1, 0, 0, 1]
    for p, (P, table) in automaton._WORD_BASES.items():
        want, k = word_base(p)
        assert P == want and (table is None) == (p > 32), p
        if table is not None:
            assert len(table) == P <= 1024, p
            for w in range(P):
                digits = base_digits(w, p)
                assert list(table[w]) == digits + [0] * (k - len(digits)), (p, w)
    assert automaton._WORD_BASES[65521] == (65521, None)


def test_to_digits_rejects_malformed():
    for bad in ("", "-5", "12a", " 7", "7 ", "١٢", "1.5", "0x10", "+7", "1_000", "²"):
        with pytest.raises(MalformedNumber):
            to_digits_lsd(bad, 2)
    with pytest.raises(MalformedNumber):
        to_digits_lsd(7, 2)  # digits come in as strings, not ints


def test_query_parity():
    a = build_dfao(thue_morse_spec())
    assert int(query(a, "0")) == 0
    assert int(query(a, "6")) == 0
    assert int(query(a, "7")) == 1
    for n in range(512):
        assert int(query(a, str(n))) == parity(n)


def test_query_huge_index():
    a = build_dfao(thue_morse_spec())
    rep = orbit_closure(thue_morse_spec())
    rng = random.Random(909)
    for _ in range(20):
        digits = random_decimal(rng, 50)
        want = parity(int(digits))
        assert int(query(a, digits)) == want
        assert int(query(rep, digits)) == want


def test_query_dispatches_on_machine_kind():
    for _, spec in shipped_specs():
        a = build_dfao(spec)
        rep = orbit_closure(spec)
        assert all(type(t) is int for t in dfao_from_linear(rep).tau)
        for n in range(512):
            got, want = query(a, str(n)), query(rep, str(n))
            assert type(got) is type(want) is int and got == want


def test_long_queries_agree_between_representation_and_machine():
    # indices of 1000 to 5000 digits; both sides convert through
    # to_digits_lsd, and the oracle reads the index as an int
    cases = (
        (thue_morse_spec(), parity),
        (central_binomial_spec(), lambda v: central_binomial_lucas(v, 3)),
        (BranchSpec(parse_bivariate("(1+1*x)*y^2 + 4", 5), seed=(1,)), lambda v: central_binomial_lucas(v, 5)),
    )
    rng = random.Random(7301)
    for spec, oracle in cases:
        rep = exact_representation(spec)
        machine = dfao_from_linear(rep)
        for length in (1000, rng.randrange(1001, 5000), 5000):
            v = rng.randrange(10 ** (length - 1), 10**length)
            n = decimal_str(v)
            assert query(rep, n) == query(machine, n), (spec.p, length)
            assert int(query(machine, n)) == oracle(v), (spec.p, length)


def test_query_zero_is_constant_term():
    for _, spec in shipped_specs():
        a = build_dfao(spec)
        f = expand_branch(spec, 1)
        assert int(query(a, "0")) == f.coeffs[0]


def test_trailing_zero_stability():
    for _, spec in shipped_specs():
        a = build_dfao(spec)
        assert a.is_trailing_zero_stable()
    unstable = Dfao(p=2, start=0, delta=((1, 1), (0, 0)), tau=(0, 1))
    assert not unstable.is_trailing_zero_stable()


def test_export_dot():
    a = build_dfao(thue_morse_spec())
    dot = export_dot(a)
    assert dot.startswith("digraph dfao {")
    assert dot.endswith("}\n")
    assert "rankdir=LR;" in dot
    assert "__start [shape=point];" in dot
    assert "__start -> q0;" in dot
    assert 'q0 [shape=circle, label="q0/0"];' in dot
    assert 'q1 [shape=circle, label="q1/1"];' in dot
    assert 'q0 -> q0 [label="0"];' in dot
    assert 'q0 -> q1 [label="1"];' in dot


def test_export_dot_merges_parallel_edges():
    ones = build_dfao(all_ones_spec())
    dot = export_dot(ones)
    assert 'q0 -> q0 [label="0,1"];' in dot


def test_json_serialization_is_byte_exact():
    a = build_dfao(thue_morse_spec())
    assert dfao_to_json(a) == TM_JSON


def test_json_round_trip():
    for _, spec in shipped_specs():
        a = build_dfao(spec)
        assert dfao_from_json(dfao_to_json(a)) == a
    # and the document itself survives a second trip unchanged
    text = dfao_to_json(build_dfao(central_binomial_spec()))
    assert dfao_to_json(dfao_from_json(text)) == text


def test_json_parses_whitespace_variants():
    doc = json.loads(TM_JSON)
    pretty = json.dumps(doc, indent=2)
    assert dfao_from_json(pretty) == dfao_from_json(TM_JSON)


def _mutate(key, value):
    doc = json.loads(TM_JSON)
    doc[key] = value
    return json.dumps(doc)


def test_json_schema_violations():
    bad_docs = [
        "not json at all {",
        '"just a string"',
        "[1,2,3]",
        _mutate("format", "dfao-v2"),
        _mutate("format", None),
        _mutate("digit_order", "msd"),
        _mutate("p", 4),
        _mutate("p", 0),
        _mutate("p", "2"),
        _mutate("p", True),
        _mutate("p", [2]),  # unhashable, so checked before ensure_prime
        _mutate("p", {}),
        TM_JSON.replace('"start":0', '"start":' + "1" * 5000),  # past int(str)
        "[" * 100_000 + "]" * 100_000,  # past the recursion limit
        _mutate("start", 2),
        _mutate("start", -1),
        _mutate("start", True),
        _mutate("start", "0"),
        _mutate("states", []),
        _mutate("states", "nope"),
        _mutate("states", [{"output": 0, "next": [0]}]),  # row too short
        _mutate("states", [{"output": 0, "next": [0, 2]}]),  # target range
        _mutate("states", [{"output": 3, "next": [0, 0]}]),  # output range
        _mutate("states", [{"output": True, "next": [0, 0]}]),
        _mutate("states", [{"output": 0, "next": [0, False]}]),
        _mutate("states", [{"next": [0, 0]}]),  # output missing
        _mutate("states", [{"output": 0}]),  # next missing
        _mutate("states", [[0, 0, 0]]),  # state not an object
        _mutate("states", [{"output": 1.0, "next": [0, 0]}]),
        _mutate("states", [{"output": 0, "next": [0.0, 0]}]),
        _mutate("states", [{"output": 0, "next": "00"}]),
        _mutate("states", [{"output": 0, "next": [0, 0]}, None]),
    ]
    for text in bad_docs:
        with pytest.raises(SchemaError):
            dfao_from_json(text)


def test_json_missing_keys():
    doc = json.loads(TM_JSON)
    for key in ("format", "p", "digit_order", "start", "states"):
        broken = {k: v for k, v in doc.items() if k != key}
        with pytest.raises(SchemaError):
            dfao_from_json(json.dumps(broken))


def test_dfao_constructor_validation():
    with pytest.raises(ValueError):
        Dfao(p=2, start=0, delta=(), tau=())
    with pytest.raises(ValueError):
        Dfao(p=2, start=1, delta=((0, 0),), tau=(0,))
    with pytest.raises(ValueError):
        Dfao(p=2, start=0, delta=((0,),), tau=(0,))  # row too short
    with pytest.raises(ValueError):
        Dfao(p=2, start=0, delta=((0, 1),), tau=(0,))  # target out of range
    with pytest.raises(ValueError):
        Dfao(p=2, start=0, delta=((0, 0),), tau=(2,))  # output not a residue
    with pytest.raises(ValueError):
        Dfao(p=6, start=0, delta=((0,) * 6,), tau=(0,))
    # values that equal or spell an int in range are not ints
    with pytest.raises(ValueError, match="state 0 output True"):
        Dfao(3, 0, ((1, 2, 0), (1, 1, 2), (0, 2, 1)), (True, 2.0, 0))
    with pytest.raises(ValueError, match="state 1 output 2.0"):
        Dfao(3, 0, ((1, 2, 0), (1, 1, 2), (0, 2, 1)), (1, 2.0, 0))
    with pytest.raises(ValueError, match="state 0 target 0.0"):
        Dfao(2, 0, ((0.0, 0),), (1,))
    with pytest.raises(ValueError, match="start state '0'"):
        Dfao(2, "0", ((0, 0),), (1,))
    with pytest.raises(ValueError, match="modulus must be an int"):
        Dfao([2], 0, ((0, 0),), (1,))
    # a value too long to print is cut short
    with pytest.raises(ValueError) as info:
        Dfao(2, 0, ((0, 0),), (10**100,))
    assert len(str(info.value)) < 100


def test_build_dfao_central_binomial_f5():
    # (1+x)*y^2 + 4 is (1-4x)*y^2 - 1 over F_5, so the root through 1 is
    # sum C(2n, n) x^n.  At the default n_eq the orbit walk reaches
    # paths of depth 4, which take 64 * 5**4 root coefficients.
    spec = BranchSpec(parse_bivariate("(1+1*x)*y^2 + 4", 5), seed=(1,))
    a = minimize(build_dfao(spec))
    assert a.n_states == 5
    for n in range(5**5):
        state = a.start
        for d in base_digits(n, 5):
            state = a.delta[state][d]
        assert a.tau[state] == central_binomial_lucas(n, 5), n


def test_central_binomial_machine_against_oracle():
    a = build_dfao(central_binomial_spec())
    for n in range(3**7):
        assert int(query(a, str(n))) == lucas_central_binomial_mod3(n)
    assert int(query(a, "13")) == 2  # C(26,13) = 10400600 = 2 mod 3
