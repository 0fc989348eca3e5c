import dataclasses
import random

import pytest

from christol import (
    BranchSpec,
    ClosureConfig,
    DimensionMismatch,
    KernelRepresentation,
    PathExpander,
    StateCapExceeded,
    alpha_output,
    alpha_step,
    dfao_from_linear,
    exact_representation,
    expand_branch,
    orbit_closure,
    parse_bivariate,
    recheck,
    section,
)
from christol import kernel
from christol.examples import all_ones_spec, central_binomial_spec, shipped_specs, thue_morse_spec
from support import base_digits, random_separable_spec, rank, replay_relations


def test_parity_closure_is_two_dimensional():
    rep = orbit_closure(thue_morse_spec())
    assert rep.m == 2
    assert rep.paths == ((), (1,))
    assert rep.matrices[0] == ((1, 0), (0, 1))
    assert rep.matrices[1] == ((0, 1), (1, 0))
    assert rep.b0 == (0, 1)
    assert rep.alpha0 == (1, 0)
    assert rep.n_eq == 64


def test_central_binomial_closure_is_one_dimensional():
    rep = orbit_closure(central_binomial_spec())
    assert rep.m == 1
    assert rep.matrices == (((1,),), ((2,),), ((0,),))
    assert rep.b0 == (1,)


def test_all_ones_closure():
    rep = orbit_closure(all_ones_spec())
    assert rep.m == 1
    assert rep.matrices == (((1,),), ((1,),))
    assert rep.b0 == (1,)


def test_the_machine_record_holds_the_machine_alone():
    # the oracle's basis paths and n_eq live on its subclass only
    names = [f.name for f in dataclasses.fields(KernelRepresentation)]
    assert names == ["p", "matrices", "b0", "alpha0"]
    extra = [f.name for f in dataclasses.fields(kernel.OrbitClosure)]
    assert extra == names + ["paths", "n_eq"]


def test_closure_is_deterministic():
    a = orbit_closure(thue_morse_spec())
    b = orbit_closure(thue_morse_spec())
    assert a == b


def test_basis_is_independent():
    for _, spec in shipped_specs():
        rep = orbit_closure(spec)
        expander = PathExpander(spec)
        vectors = [expander.series(path, rep.n_eq).coeffs for path in rep.paths]
        assert rank(vectors, rep.p, rep.n_eq) == rep.m


def _coefficient_via_rep(rep, n):
    alpha = rep.alpha0
    for d in base_digits(n, rep.p):
        alpha = alpha_step(rep, alpha, d)
    return int(alpha_output(rep, alpha))


def test_linear_machine_reproduces_coefficients():
    for _, spec in shipped_specs():
        rep = orbit_closure(spec)
        want = expand_branch(spec, 4096)
        for n in range(4096):
            assert _coefficient_via_rep(rep, n) == want.coeffs[n], n


def test_alpha_step_worked_example():
    rep = orbit_closure(thue_morse_spec())
    # 6 = 110_2, digits lsd-first 0,1,1
    alpha = rep.alpha0
    assert alpha_step(rep, alpha, 0) == (1, 0)
    alpha = alpha_step(rep, alpha_step(rep, alpha_step(rep, alpha, 0), 1), 1)
    assert alpha == (1, 0)
    out = alpha_output(rep, alpha)
    assert type(out) is int and out == 0  # 6 has two set bits
    assert alpha_output(rep, (0, 1)) == 1


def test_alpha_step_validation():
    rep = orbit_closure(thue_morse_spec())
    with pytest.raises(DimensionMismatch):
        alpha_step(rep, (1, 0, 0), 0)
    with pytest.raises(DimensionMismatch):
        alpha_output(rep, (1,))
    for bad in (-1, 2, 7):
        with pytest.raises(ValueError):
            alpha_step(rep, rep.alpha0, bad)


def test_recheck_passes_for_honest_representations():
    for _, spec in shipped_specs():
        rep = orbit_closure(spec)
        assert recheck(rep, spec)


def test_recheck_rejects_tampering():
    spec = thue_morse_spec()
    rep = orbit_closure(spec)

    bad_mat = list(map(list, rep.matrices[1]))
    bad_mat[0][1] = 0  # section(z_1, 1) is z_2, not 0
    broken = dataclasses.replace(
        rep, matrices=(rep.matrices[0], tuple(tuple(r) for r in bad_mat))
    )
    assert not recheck(broken, spec)

    assert not recheck(dataclasses.replace(rep, b0=(1, 1)), spec)
    assert not recheck(dataclasses.replace(rep, alpha0=(0, 1)), spec)
    # a basis shorter than m, the one shape the constructor leaves open
    assert not recheck(dataclasses.replace(rep, paths=rep.paths[:1]), spec)


def test_malformed_closures_fail_at_construction():
    # the KernelRepresentation constructor refuses them before recheck
    # runs, and the OrbitClosure constructor checks n_eq as ClosureConfig
    rep = orbit_closure(thue_morse_spec())
    for malformed in (
        dict(alpha0=(1, 0, 0)),
        dict(alpha0=(1,)),
        dict(b0=(0, 1, 1)),
        dict(matrices=rep.matrices[:1]),
        dict(n_eq=3),
        dict(n_eq=7),
        dict(n_eq=64.0),
        dict(n_eq=True),
    ):
        with pytest.raises(ValueError):
            dataclasses.replace(rep, **malformed)


def test_recheck_rejects_a_path_digit_outside_the_field():
    # a basis path with digit 2 over F_2 is tampering, not a crash
    spec = thue_morse_spec()
    rep = orbit_closure(spec)
    bad = dataclasses.replace(rep, paths=((), (2,)))
    assert not recheck(bad, spec)
    assert not replay_relations(bad, spec)


def test_recheck_grows_the_root_by_doubling(monkeypatch):
    # the rebuilt closure at 2 * n_eq asks for the sections of its
    # deepest basis path, so the largest expansion is 2*n_eq * p^(depth+1)
    spec = thue_morse_spec()
    rep = orbit_closure(spec)
    depth = max(map(len, rep.paths))
    assert depth >= 1
    calls = []

    def counting(spec, n):
        calls.append(n)
        return expand_branch(spec, n)

    monkeypatch.setattr(kernel, "expand_branch", counting)
    assert recheck(rep, spec)
    assert max(calls) == 2 * 2 * rep.n_eq * 2**depth
    assert all(2 * a <= b for a, b in zip(calls, calls[1:]))


def test_recheck_agrees_with_the_replay_of_every_relation():
    # the rebuilt closure at 2 * n_eq against the dot-product replay of
    # tests/support.py, at a precision where truncation accidents happen
    # and at the default
    rng = random.Random(28)
    specs = [spec for _, spec in shipped_specs()]
    for p, dx, dy, count in ((2, 4, 3, 12), (3, 4, 3, 12), (5, 3, 2, 6), (7, 2, 2, 6)):
        specs += [random_separable_spec(rng, p, dx, dy) for _ in range(count)]
    verdicts = set()
    for n_eq in (8, 64):
        for spec in specs:
            rep = orbit_closure(spec, ClosureConfig(n_eq))
            verdict = recheck(rep, spec)
            assert verdict == replay_relations(rep, spec), (n_eq, spec)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_linear_machine_constructor_checks_every_field():
    rep = exact_representation(thue_morse_spec())
    assert (rep.p, rep.m) == (2, 2)
    one, two = rep.matrices
    for bad in (
        dict(matrices=(((1.0, 0), (0, 1)), two)),  # a float entry
        dict(matrices=(((True, 0), (0, 1)), two)),  # a bool entry
        dict(matrices=(one, ((0, 1), (1, -1)))),  # a negative entry
        dict(alpha0=(7, 0)),  # outside [0, p)
        dict(b0=(1, 2)),
        dict(matrices=(one,)),  # one matrix
        dict(matrices=(one, two, one)),  # three matrices
        dict(matrices=(one, two + ((0, 1),))),  # an extra row
        dict(matrices=(one, ((0, 1), (1, 0, 0)))),  # a long row
        dict(p=3),  # F_2 matrices, two of them, over F_3
        dict(p=4),
        dict(p=True),
    ):
        with pytest.raises(ValueError) as info:
            dataclasses.replace(rep, **bad)
        assert "\n" not in str(info.value) and len(str(info.value)) <= 200, bad
    # a huge entry shows cut short
    with pytest.raises(ValueError, match="<int of "):
        dataclasses.replace(rep, alpha0=(10**700, 0))
    # the zero series, m = 0, stays a machine
    for p in (2, 3):
        zero = KernelRepresentation(p, ((),) * p, (), ())
        assert zero.m == 0
        assert dfao_from_linear(zero).tau == (0,)


def test_recheck_catches_wrong_spec():
    # a representation certified for one series fails against another
    rep = orbit_closure(thue_morse_spec())
    assert not recheck(rep, all_ones_spec())


def test_recheck_needs_a_truncated_closure():
    # the exact representation has no n_eq and no basis series to replay
    spec = thue_morse_spec()
    with pytest.raises(ValueError, match="recheck needs a representation from orbit_closure"):
        recheck(exact_representation(spec), spec)


def test_zero_root_has_an_empty_basis():
    # the root is adopted only if independent, like every section: a zero
    # root gives m = 0, alpha0 = () and a one-state machine that outputs 0
    for text, p in (("y", 3), ("(1+x)*y", 2)):
        spec = BranchSpec(parse_bivariate(text, p))
        rep = orbit_closure(spec)
        assert (rep.m, rep.alpha0, rep.b0, rep.matrices) == (0, (), (), ((),) * p)
        assert recheck(rep, spec)
        machine = dfao_from_linear(rep)
        assert (machine.delta, machine.tau) == (((0,) * p,), (0,))
    # y + x^64 is zero only below x^64, which recheck sees at n_eq 64
    spec = BranchSpec(parse_bivariate("y + x^64", 2))
    rep = orbit_closure(spec)
    assert rep.m == 0 and not recheck(rep, spec)
    rep = orbit_closure(spec, ClosureConfig(n_eq=128))
    assert rep.alpha0 == (1,) + (0,) * (rep.m - 1)
    assert recheck(rep, spec)


def test_state_cap():
    with pytest.raises(StateCapExceeded):
        orbit_closure(thue_morse_spec(), ClosureConfig(max_states=1))
    # exactly at the cap is fine
    rep = orbit_closure(thue_morse_spec(), ClosureConfig(max_states=2))
    assert rep.m == 2


def test_config_validation():
    assert ClosureConfig().n_eq == 64
    with pytest.raises(ValueError):
        ClosureConfig(n_eq=7)
    with pytest.raises(ValueError):
        ClosureConfig(max_states=0)
    # ints only: a float n_eq is no slice index, and True is no cap
    for bad in (dict(n_eq=64.0), dict(n_eq=True), dict(max_states=2.5), dict(max_states=True)):
        with pytest.raises(ValueError, match="must be an int, got "):
            ClosureConfig(**bad)
    cfg = ClosureConfig(n_eq=8, max_states=1)
    assert (cfg.n_eq, cfg.max_states) == (8, 1)


def test_custom_n_eq_still_correct():
    rep = orbit_closure(thue_morse_spec(), ClosureConfig(n_eq=8))
    assert rep.n_eq == 8
    assert rep.m == 2
    for n in range(64):
        assert _coefficient_via_rep(rep, n) == bin(n).count("1") % 2


def test_path_expander_growth():
    spec = thue_morse_spec()
    expander = PathExpander(spec)
    want = expand_branch(spec, 3000)
    s = expander.series((1, 0), 16)
    # path (1, 0): first take residue 1, then residue 0 of the result
    direct = section(section(want, 1), 0)
    assert s == direct.truncate(16)
    # asking for more precision later re-expands instead of failing
    t = expander.series((1, 0), 300)
    assert t.precision == 300
    assert t.truncate(16) == s


def test_path_expander_matches_one_expansion_and_sections():
    # a walk that keeps outgrowing the root, as the orbit search does
    rng = random.Random(8)
    for spec in (thue_morse_spec(), central_binomial_spec(), random_separable_spec(rng, 5)):
        p = spec.p
        paths = [(), (1,), (1, 0), (1, 0, p - 1), (0, 1, 1, 0)]
        expander = PathExpander(spec)
        got = [expander.series(path, 12) for path in paths]
        root = expand_branch(spec, 12 * p ** max(len(path) for path in paths))
        for path, s in zip(paths, got):
            want = root
            for r in path:
                want = section(want, r)
            assert s == want.truncate(12), (spec, path)


def test_path_expander_gives_exactly_the_coefficients_asked(monkeypatch):
    # every series the orbit search asks for, against one expansion to
    # n * p^len(path) coefficients followed by sections
    asked = []
    series = PathExpander.series

    def recording(self, path, n):
        s = series(self, path, n)
        asked.append((self.spec, path, n, s))
        return s

    monkeypatch.setattr(PathExpander, "series", recording)
    rng = random.Random(27)
    specs = [spec for _, spec in shipped_specs()]
    specs += [random_separable_spec(rng, p, 2, 2) for p in (2, 3, 5) for _ in range(4)]
    for spec in specs:
        orbit_closure(spec)
    assert {spec for spec, *_ in asked} == set(specs)
    for spec, path, n, s in asked:
        want = expand_branch(spec, n * spec.p ** len(path))
        for r in path:
            want = section(want, r)
        assert s.precision == n and s == want, (spec, path)


def test_representation_shape_invariants():
    rng = random.Random(11)
    for _, spec in shipped_specs():
        rep = orbit_closure(spec)
        assert type(rep) is kernel.OrbitClosure and isinstance(rep, KernelRepresentation)
        assert type(rep.n_eq) is int
        assert len(rep.matrices) == rep.p
        for mat in rep.matrices:
            assert len(mat) == rep.m
            assert all(len(row) == rep.m for row in mat)
        assert len(rep.b0) == rep.m
        assert rep.alpha0 == (1,) + (0,) * (rep.m - 1)
        # spot-check the defining relation on random digits at n_eq
        expander = PathExpander(spec)
        zs = [expander.series(path, rep.n_eq).coeffs for path in rep.paths]
        for _ in range(10):
            d = rng.randrange(rep.p)
            i = rng.randrange(rep.m)
            lhs = section(
                expand_branch_path(spec, rep.paths[i], rep.p * rep.n_eq), d
            ).truncate(rep.n_eq)
            acc = [0] * rep.n_eq
            for j in range(rep.m):
                w = rep.matrices[d][i][j]
                for idx in range(rep.n_eq):
                    acc[idx] = (acc[idx] + w * zs[j][idx]) % rep.p
            assert tuple(acc) == lhs.coeffs


def expand_branch_path(spec, path, precision):
    s = expand_branch(spec, precision * spec.p ** len(path))
    for r in path:
        s = section(s, r)
    return s


def test_larger_orbit_than_shipped():
    # product-ish polynomial over F_2 whose closure needs more than two
    # basis elements: x + y + x*y^2 has a unique branch at the origin
    spec = BranchSpec(parse_bivariate("x + y + x*y^2", 2))
    rep = orbit_closure(spec)
    assert rep.m >= 2
    assert recheck(rep, spec)
    want = expand_branch(spec, 2048)
    for n in range(2048):
        assert _coefficient_via_rep(rep, n) == want.coeffs[n]
