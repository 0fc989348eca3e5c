"""The exact construction against the independent oracles: the orbit
walk build_dfao(), the truncated closure orbit_closure() and the root
expansion expand_branch(), on seeded generated families."""

import random
import time

import pytest

from christol import (
    AmbiguousBranch,
    BranchSpec,
    ChristolError,
    KernelRepresentation,
    NoBranch,
    StateCapExceeded,
    build_dfao,
    dfao_from_linear,
    dfao_to_json,
    exact_representation,
    expand_branch,
    minimize,
    orbit_closure,
    parse_bivariate,
    query,
)
from christol import algebraic_series, automaton, cli, kernel
from christol.cli import cli_main
from christol.examples import central_binomial_spec, thue_morse_spec
from support import (
    rank,
    close_roots_case,
    random_separable_spec,
    random_singular_spec,
    root_prefixes,
)

# (p, max_dx, max_dy, count) for random_separable_spec.  The orbit walk
# expands the root to 64 * p^depth coefficients, so the degrees shrink
# as p grows.
SEPARABLE_FAMILIES = ((2, 2, 2, 10), (3, 2, 2, 10), (5, 2, 1, 6), (7, 2, 1, 6), (5, 1, 2, 4))


def spec_argv(q, seed):
    return ["--p", str(q.p), "--poly", q.to_text(), "--seed", ",".join(map(str, seed))]


def run_automaton(capsys, tmp_path, q, seed=(), *options):
    """(exit code, stdout, stderr, dfao-v1 text or None) of the CLI on
    the branch of q that seed picks."""
    out_path = tmp_path / "m.json"
    if out_path.exists():
        out_path.unlink()
    code = cli_main(["automaton", *spec_argv(q, seed), "--out", str(out_path), *options])
    captured = capsys.readouterr()
    text = out_path.read_text() if out_path.exists() else None
    return code, captured.out, captured.err, text


def run_expand(capsys, q, seed, terms):
    """(exit code, stdout, stderr) of christol expand."""
    code = cli_main(["expand", *spec_argv(q, seed), "--terms", str(terms)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_writes_the_oracle(capsys, tmp_path, spec):
    code, out, err, text = run_automaton(capsys, tmp_path, spec.q, spec.seed)
    assert (code, err) == (0, ""), (spec, err)
    oracle = minimize(build_dfao(spec))
    assert text == dfao_to_json(oracle) + "\n", spec
    assert out == f"{oracle.n_states}\n"
    assert exact_representation(spec).m == orbit_closure(spec).m, spec


def separable_specs(rng):
    return [random_separable_spec(rng, p, dx, dy)
            for p, dx, dy, count in SEPARABLE_FAMILIES for _ in range(count)]


def test_cli_writes_the_orbit_oracle_on_separable_families(capsys, tmp_path):
    for spec in separable_specs(random.Random(20261020)):
        assert_writes_the_oracle(capsys, tmp_path, spec)


def test_cli_writes_the_orbit_oracle_on_close_roots(capsys, tmp_path):
    # dQ/dy has valuation v along the seeded root: the shifted route
    rng = random.Random(20261021)
    for p in (2, 3, 5, 7):
        for v in (1, 2, 3):
            text, _r, seed = close_roots_case(rng, p, v)
            assert_writes_the_oracle(capsys, tmp_path, BranchSpec(parse_bivariate(text, p), seed))


def spec_error(q, seed):
    """The error the BranchSpec constructor raises on q and seed, or None."""
    try:
        BranchSpec(q, seed)
    except ChristolError as exc:
        return exc
    return None


def assert_same_outcome_as_expansion(capsys, tmp_path, q, seed):
    """A seed the BranchSpec constructor refuses is refused by automaton,
    and by expand at every term count, with the same message; any other
    is built and equals the orbit oracle.  Returns the error, or None."""
    want = spec_error(q, seed)
    if want is None:
        assert_writes_the_oracle(capsys, tmp_path, BranchSpec(q, seed))
        return None
    failure = (1, "", f"error: {want}\n")
    assert run_automaton(capsys, tmp_path, q, seed) == (*failure, None), (q, seed)
    for terms in (0, 1, len(seed), len(seed) + 1):
        assert run_expand(capsys, q, seed, terms) == failure, (q, seed, terms)
    return want


def test_singular_seeds_give_the_expansion_outcome(capsys, tmp_path):
    # every root prefix of 1 to 4 coefficients through a0 with
    # dQ/dy(0, a0) = 0, and each with its last coefficient changed
    rng = random.Random(20261022)
    outcomes = {}
    for p in (2, 3):
        for _ in range(8):
            q, a0 = random_singular_spec(rng, p, 2, 2)
            seeds = {prefix for depth in (1, 2, 3, 4) for prefix in root_prefixes(q, (a0,), depth)}
            seeds |= {s[:-1] + ((s[-1] + 1) % p,) for s in seeds if len(s) > 1}
            for seed in sorted(seeds):
                error = assert_same_outcome_as_expansion(capsys, tmp_path, q, seed)
                kind = type(error).__name__ if error else "built"
                outcomes[kind] = outcomes.get(kind, 0) + 1
    # the families reach every outcome
    assert set(outcomes) == {"built", "NoBranch", "AmbiguousBranch"}, outcomes


def test_wrong_and_short_seeds_give_the_expansion_error(capsys, tmp_path):
    rng = random.Random(20261023)
    for spec in separable_specs(rng)[::3]:
        f = expand_branch(spec, 8).coeffs
        for k in (1, 2, 5):
            seed = f[:k] + ((f[k] + rng.randrange(1, spec.p)) % spec.p,)
            error = assert_same_outcome_as_expansion(capsys, tmp_path, spec.q, seed)
            assert isinstance(error, NoBranch) and error.index == k
        # a seed that agrees with the root changes nothing
        assert run_automaton(capsys, tmp_path, spec.q, f) == run_automaton(capsys, tmp_path, spec.q, spec.seed)
    # no seed: zero or several roots of Q(0, y)
    for text, p, kind in (("(1+x)^3*y^2 + (1+x)^2*y + x", 2, AmbiguousBranch), ("y^2 + x*y + 1", 3, NoBranch)):
        error = assert_same_outcome_as_expansion(capsys, tmp_path, parse_bivariate(text, p), ())
        assert isinstance(error, kind) and error.index == 0


def test_long_seeds_are_checked_at_every_digit_level(capsys, tmp_path):
    # seeds of 100 to 300 coefficients, each compared with the root to its
    # full length; on the close roots the changed entry lies past the
    # prefix that picks the root, where the root is unique
    rng = random.Random(20261027)
    specs = [random_separable_spec(rng, p, dx, dy) for p, dx, dy, _count in SEPARABLE_FAMILIES[:4]]
    for p in (2, 3, 5, 7):
        text, _r, seed = close_roots_case(rng, p, rng.randint(1, 3))
        specs.append(BranchSpec(parse_bivariate(text, p), seed))
    for spec in specs:
        f = expand_branch(spec, rng.randint(100, 300)).coeffs
        assert run_automaton(capsys, tmp_path, spec.q, f) == run_automaton(capsys, tmp_path, spec.q, spec.seed)
        for _ in range(3):
            k = rng.randrange(max(1, len(spec.seed)), len(f))
            seed = f[:k] + ((f[k] + rng.randrange(1, spec.p)) % spec.p,) + f[k + 1 :]
            with pytest.raises(ChristolError) as want:
                BranchSpec(spec.q, seed)
            # automaton and expand refuse it alike, whatever --terms
            failure = (1, "", f"error: {want.value}\n")
            assert run_automaton(capsys, tmp_path, spec.q, seed) == (*failure, None), (spec, k)
            for n in (0, 1, k, k + 1):
                assert run_expand(capsys, spec.q, seed, n) == failure, (spec, k, n)
            # where Newton applies from a0, the changed entry itself is refused
            if spec.q.dy_at_origin(spec.seed[0]):
                assert type(want.value) is NoBranch and want.value.index == k, (spec, k)


def test_automaton_needs_no_expansion_closure_or_recheck(capsys, tmp_path, monkeypatch):
    rng = random.Random(20261024)
    text, _r, seed = close_roots_case(rng, 3, 2)
    specs = separable_specs(rng)[:6] + [
        thue_morse_spec(),
        central_binomial_spec(),
        BranchSpec(parse_bivariate(text, 3), seed),
        BranchSpec(parse_bivariate("y + x^64", 2)),
    ]
    before = [run_automaton(capsys, tmp_path, spec.q, spec.seed) for spec in specs]

    def oracle_only(*_args, **_kwargs):
        raise AssertionError("a test oracle ran in christol automaton")

    for module, name in ((algebraic_series, "expand_branch"), (kernel, "expand_branch"),
                         (kernel, "orbit_closure"), (cli, "orbit_closure"),
                         (kernel, "recheck"), (cli, "recheck"),
                         (automaton, "build_dfao"), (cli, "build_dfao"),
                         (automaton, "minimize"), (cli, "minimize")):
        monkeypatch.setattr(module, name, oracle_only)
    monkeypatch.setattr(kernel.PathExpander, "series", oracle_only)
    after = [run_automaton(capsys, tmp_path, spec.q, spec.seed) for spec in specs]
    assert after == before
    assert all(code == 0 for code, *_ in after)


def test_large_p_fails_fast(capsys, tmp_path):
    # Q^(p-1) of (1+x)*y + 65520 would have 65521^2 coefficients
    spec = BranchSpec(parse_bivariate("(1+x)*y + 65520", 65521))
    started = time.perf_counter()
    code, out, err, text = run_automaton(capsys, tmp_path, spec.q, spec.seed)
    assert time.perf_counter() - started < 0.5
    assert (code, out, text) == (1, "", None)
    assert err == f"error: Q^(p-1) has {65521 ** 2} coefficients, more than {kernel.MAX_POWER_CELLS}\n"


def test_p_101_matches_the_orbit_oracle(capsys, tmp_path):
    # f = 6 + x: the sections are f, 6, 1 and 0
    spec = BranchSpec(parse_bivariate("y + 100*x + 95", 101))
    assert_writes_the_oracle(capsys, tmp_path, spec)
    _code, out, _err, _text = run_automaton(capsys, tmp_path, spec.q, spec.seed)
    assert out == "4\n"


def test_exact_representation_of_thue_morse():
    rep = exact_representation(thue_morse_spec())
    # the bare machine; coordinates: the outputs after reading "" and "1"
    assert type(rep) is KernelRepresentation
    assert rep.m == 2
    assert (rep.alpha0, rep.b0) == ((0, 1), (1, 0))
    assert rep.matrices == (((1, 0), (0, 1)), ((0, 1), (1, 0)))


def test_exact_representation_reproduces_the_expansion():
    rng = random.Random(20261025)
    specs = separable_specs(rng)[::2]
    text, _r, seed = close_roots_case(rng, 5, 3)
    specs.append(BranchSpec(parse_bivariate(text, 5), seed))
    for spec in specs:
        rep = exact_representation(spec)
        f = expand_branch(spec, 600).coeffs
        for n in range(600):
            assert query(rep, str(n)) == f[n], (spec, n)
        # coordinate 0 is the output after the empty string
        assert rep.alpha0[:1] == f[:1] if rep.m else not any(f), spec


def test_exact_representation_is_minimal():
    # m is the rank of the outputs over (state word, test word) pairs: the
    # coefficients of f at the indices of reachable word + test word
    rng = random.Random(20261026)
    for spec in separable_specs(rng)[::4]:
        rep = exact_representation(spec)
        p, m = spec.p, rep.m
        words = [()]
        for w in words:
            if len(w) < 3:
                words.extend(w + (d,) for d in range(p))
        f = expand_branch(spec, p ** 6).coeffs
        rows = [[f[sum(d * p**i for i, d in enumerate(u + v))] for v in words] for u in words]
        assert rank(rows, p, len(words)) == m, spec


def test_zero_root_has_dimension_zero():
    for text, p in (("y", 3), ("(1+x)*y", 2), ("y + x*y^2", 5)):
        rep = exact_representation(BranchSpec(parse_bivariate(text, p)))
        assert (rep.m, rep.alpha0, rep.b0, rep.matrices) == (0, (), (), ((),) * p)
        machine = dfao_from_linear(rep)
        assert (machine.delta, machine.tau) == (((0,) * p,), (0,))


def test_state_cap_counts_the_minimal_dimension():
    spec = thue_morse_spec()
    with pytest.raises(StateCapExceeded, match="exceeds 1 basis elements"):
        exact_representation(spec, 1)
    assert exact_representation(spec, 2).m == 2
    with pytest.raises(StateCapExceeded, match="reachable vectors exceed 1"):
        dfao_from_linear(exact_representation(spec, 2), 1)


def test_seed_is_checked_before_the_state_cap(capsys, tmp_path):
    # the BranchSpec constructor checks the seed, so its errors come
    # before the state cap and the Q^(p-1) cell cap
    q = thue_morse_spec().q
    with pytest.raises(NoBranch) as got:
        BranchSpec(q, (0, 1, 1, 1))
    assert got.value.index == 3
    failure = (1, "", "error: no coefficient 3 extends the partial solution\n", None)
    assert run_automaton(capsys, tmp_path, q, (0, 1, 1, 1), "--max-states", "1") == failure
    # the root of (1+x)*y + 256 over F_257 is 1 - x + ..., so a_1 = 256
    q = parse_bivariate("(1+x)*y + 256", 257)
    failure = (1, "", "error: no coefficient 1 extends the partial solution\n", None)
    assert run_automaton(capsys, tmp_path, q, (1, 0)) == failure

