import math
import random

import pytest

from christol import (
    AmbiguousBranch,
    BivariatePolynomial,
    BranchSpec,
    ChristolError,
    DegreeOverflow,
    ModulusMismatch,
    NoBranch,
    PolynomialSyntaxError,
    TruncatedSeries,
    exact_representation,
    expand_branch,
    parse_bivariate,
    verify_annihilation,
)
from christol import algebraic_series
from christol.examples import central_binomial_spec, shipped_specs, thue_morse_spec
from support import (
    close_roots_case,
    expand_baseline,
    lucas_central_binomial_mod3,
    naive_compose,
    parity,
    random_separable_spec,
    random_singular_spec,
    root_prefixes,
)


# -- parsing ----------------------------------------------------------


def test_parse_worked_example():
    q = parse_bivariate("(1+x)^3*y^2 + (1+x)^2*y + x", 2)
    assert q.coeffs == ((0, 1, 1), (1, 0, 1), (0, 1, 1), (0, 0, 1))
    assert (q.dx, q.dy) == (3, 2)


def test_parse_reduces_mod_p():
    q = parse_bivariate("(1+2*x)*y^2 + 2", 3)
    assert q.coeffs == ((2, 0, 1), (0, 0, 2))
    assert parse_bivariate("5*y", 3) == parse_bivariate("2*y", 3)
    assert parse_bivariate("y + 3*x*y", 3) == parse_bivariate("y", 3)


def test_parse_precedence_and_whitespace():
    assert parse_bivariate("x*y^2", 5) == parse_bivariate("x*(y^2)", 5)
    assert parse_bivariate("x*y^2", 5) != parse_bivariate("(x*y)^2", 5)
    assert parse_bivariate("  ( 1 + x ) * y  ", 2) == parse_bivariate("(1+x)*y", 2)
    assert parse_bivariate("y-y+y", 5) == parse_bivariate("y", 5)
    assert parse_bivariate("y^1", 7) == parse_bivariate("y", 7)
    assert parse_bivariate("y + 0*x^60", 2) == parse_bivariate("y", 2)


def test_parse_syntax_errors_carry_position():
    cases = [
        ("y++x", 2),
        ("(x*y", 4),
        ("", 0),
        ("y^", 2),
        ("x*y)", 3),
    ]
    for text, pos in cases:
        with pytest.raises(PolynomialSyntaxError) as info:
            parse_bivariate(text, 2)
        assert info.value.pos == pos
        assert f"position {pos}" in str(info.value)


def test_parse_caps_the_nesting_depth():
    # 100 levels parse; one more is a syntax error at the 101st '(',
    # however deep the text goes, and never a RecursionError
    assert parse_bivariate("(" * 100 + "y+1" + ")" * 100, 2) == parse_bivariate("y+1", 2)
    for depth in (101, 3000):
        with pytest.raises(PolynomialSyntaxError) as info:
            parse_bivariate("(" * depth + "y" + ")" * depth, 2)
        assert info.value.pos == 100
        assert str(info.value) == "parentheses nested deeper than 100 (at position 100)"


def test_parse_numbers_of_any_length():
    # 5000 ones is 2 mod 3, and 2^(5000 ones) is 2^odd = 2 mod 3
    ones = "1" * 5000
    want = parse_bivariate("2*y + 1", 3)
    assert parse_bivariate(ones + "*y + 1", 3) == want
    assert parse_bivariate("2^" + ones + "*y + 1", 3) == want
    assert parse_bivariate("y^" + "0" * 4999 + "1 + 2", 3) == parse_bivariate("y + 2", 3)


def test_parse_rejects_implicit_multiplication():
    with pytest.raises(PolynomialSyntaxError):
        parse_bivariate("2x + y", 5)
    with pytest.raises(PolynomialSyntaxError):
        parse_bivariate("x y", 5)


def test_parse_requires_y():
    for text in ("x+1", "x^3", "0*y", "y-y", "7*y"):
        with pytest.raises(ValueError):
            parse_bivariate(text, 7)


def test_degree_caps():
    with pytest.raises(DegreeOverflow):
        parse_bivariate("x^100*y", 2)
    with pytest.raises(DegreeOverflow):
        parse_bivariate("y^65", 2)
    # cap applies to intermediates too: (x^60)^2 overflows even though
    # the final polynomial would, hypothetically, simplify
    with pytest.raises(DegreeOverflow):
        parse_bivariate("x^60*x^60*y", 2)


# Each text forms, at the latest, a product or power of these degrees;
# the last raises 1+x to a 5000-digit exponent, 10^4999.
OVER_CAP = [
    ("((1+x)^64*(1+y)^64)^2", "(128, 128)"),
    ("((1+x)^64*(1+y)^64)*((1+x)^64*(1+y)^64)", "(128, 128)"),
    ("(1+x+y)^64*(1+x+y)^64", "(128, 128)"),
    ("x^60*x^60*y", "(120, 0)"),
    ("y^65", "(0, 65)"),
    ("(1+x)^1" + "0" * 4999, "(<int of 16607 bits>, 0)"),
]


@pytest.mark.parametrize("limit", ["default", "lowest"])
def test_over_cap_products_are_refused_before_they_are_formed(monkeypatch, request, limit):
    if limit == "lowest":
        request.getfixturevalue("low_int_limit")
    grid_mul, formed = algebraic_series._grid_mul, []

    def capped_mul(a, b, p):
        if a and b:
            degrees = (len(a) + len(b) - 2, len(a[0]) + len(b[0]) - 2)
            assert max(degrees) <= 64, f"a product of degrees {degrees} was formed"
            formed.append(degrees)
        return grid_mul(a, b, p)

    monkeypatch.setattr(algebraic_series, "_grid_mul", capped_mul)
    for text, degrees in OVER_CAP:
        with pytest.raises(DegreeOverflow) as info:
            parse_bivariate(text, 65521)
        assert str(info.value) == f"degrees {degrees} exceed the caps (64, 64)"
    assert (64, 64) in formed  # the in-cap products went through the wrapper


class _OverCap(Exception):
    pass


def _schoolbook_times(a, b, p):
    out = {}
    for (i, j), c in a.items():
        for (k, m), d in b.items():
            out[i + k, j + m] = out.get((i + k, j + m), 0) + c * d
    out = {key: c % p for key, c in out.items() if c % p}
    if any(max(key) > 64 for key in out):
        raise _OverCap
    return out


def _schoolbook(tree, p):
    """The polynomial of an expression tree as {(i, j): residue}: sums
    and schoolbook products over Python ints, reduced mod p, and a power
    as repeated products; _OverCap where a product passes the caps."""
    kind = tree[0]
    if kind in ("x", "y"):
        return {(1, 0) if kind == "x" else (0, 1): 1}
    if kind == "n":
        return {(0, 0): tree[1] % p} if tree[1] % p else {}
    a = _schoolbook(tree[1], p)
    if kind == "^":
        out = {(0, 0): 1}
        for _ in range(tree[2]):
            out = _schoolbook_times(out, a, p)
        return out
    b = _schoolbook(tree[2], p)
    if kind == "*":
        return _schoolbook_times(a, b, p)
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0) + (c if kind == "+" else -c)
    return {key: c % p for key, c in out.items() if c % p}


def _render(tree) -> str:
    """tree as text, with the parentheses the grammar needs and no more."""
    kind = tree[0]
    if kind in ("x", "y"):
        return kind
    if kind == "n":
        return str(tree[1])
    left = _render(tree[1])
    if kind == "^":
        base = left if tree[1][0] in ("x", "y", "n") else f"({left})"
        return f"{base}^{tree[2]}"
    # a sum binds loosest, and both operators are left-associative
    right = _render(tree[2])
    if kind == "*" and tree[1][0] in ("+", "-"):
        left = f"({left})"
    if tree[2][0] in ("+", "-") or kind == tree[2][0] == "*":
        right = f"({right})"
    return f"{left} {kind} {right}"


def _random_tree(rng, depth, p):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([("x",), ("y",), ("y",), ("n", rng.randrange(p)), ("n", rng.randrange(10**30))])
    kind = rng.choice("+-**^^c")
    if kind == "^":
        if rng.random() < 0.4:  # a small base to a power near the caps
            return ("^", _random_tree(rng, 1, p), rng.randrange(20, 70))
        return ("^", _random_tree(rng, depth - 1, p), rng.choice([0, 1, 2, 3, rng.randrange(12)]))
    if kind == "c":  # a sum whose leading terms cancel: (t + u) - t
        t, u = _random_tree(rng, depth - 1, p), _random_tree(rng, depth - 1, p)
        return ("-", ("+", t, u), t)
    return (kind, _random_tree(rng, depth - 1, p), _random_tree(rng, depth - 1, p))


def test_parse_matches_a_schoolbook_oracle():
    rng = random.Random(20261020)
    # (1+2x+3y+5xy)^64 is dense over F_65521, and ((1+x)(1+y))^(p^k-1)
    # over F_p, for exponents 63, 26 and 24 at p = 2, 3 and 5
    xy = ("+", ("+", ("n", 1), ("x",)), ("+", ("y",), ("*", ("x",), ("y",))))
    dense = [("^", xy, e) for e in (63, 26, 24)]
    dense.append(("^", ("+", ("+", ("n", 1), ("*", ("n", 2), ("x",))),
                        ("+", ("*", ("n", 3), ("y",)), ("*", ("n", 5), ("*", ("x",), ("y",))))), 64))
    outcomes = {}
    for p in (2, 3, 5, 65521):
        for tree in dense + [_random_tree(rng, rng.randrange(1, 6), p) for _ in range(300)]:
            text = _render(tree)
            try:
                want = _schoolbook(tree, p)
            except _OverCap:
                with pytest.raises(DegreeOverflow):
                    parse_bivariate(text, p)
                outcome = "over the caps"
            else:
                if not any(j for _, j in want):
                    with pytest.raises(ValueError, match="must involve y"):
                        parse_bivariate(text, p)
                    outcome = "no y"
                else:
                    dx, dy = max(i for i, _ in want), max(j for _, j in want)
                    grid = tuple(tuple(want.get((i, j), 0) for j in range(dy + 1)) for i in range(dx + 1))
                    assert parse_bivariate(text, p).coeffs == grid, (text, p)
                    outcome = "dense" if len(want) == len(grid) * len(grid[0]) > 100 else "parsed"
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
    assert outcomes["dense"] >= 7 and outcomes["parsed"] > 400
    assert outcomes["over the caps"] > 40 and outcomes["no y"] > 100


def test_to_text_round_trip():
    texts = [
        "(1+x)^3*y^2 + (1+x)^2*y + x",
        "(1+2*x)*y^2 + 2",
        "(1+x)*y + 1",
        "y^4 + x^2*y + x",
    ]
    for text in texts:
        for p in (2, 3, 5):
            q = parse_bivariate(text, p)
            assert parse_bivariate(q.to_text(), p) == q
    assert parse_bivariate("y+x*y+1", 2).to_text() == "1 + y + x*y"


def test_polynomials_and_specs_compare_hash_and_print_by_value():
    q = parse_bivariate("y^2 + x*y + x^3", 3)
    same = BivariatePolynomial(3, [[0, 0, 1], [0, 1, 0], [0, 0, 0], [4, 0, 0]])
    assert same == q and hash(same) == hash(q) and len({q, same}) == 1
    assert repr(q) == "BivariatePolynomial(p=3, 'x^3 + x*y + y^2')"
    # a spec keeps where its root starts, the seed up to the shift and
    # a_2 = 2 of the root, but compares, hashes and prints by q and the
    # seed reduced mod p alone
    spec = BranchSpec(q, (0, 0))
    assert (spec.head, spec.a0) == ((0, 0), 2) and spec.qt != q
    assert BranchSpec(same, (3, 6)) == spec and len({spec, BranchSpec(same, (3, 6))}) == 1
    assert BranchSpec(q, (0, 2)) != spec
    assert repr(spec) == "BranchSpec(q=BivariatePolynomial(p=3, 'x^3 + x*y + y^2'), seed=(0, 0))"


def test_grid_constructor_normalizes():
    q = BivariatePolynomial(2, [[0, 1], [1, 0], [0, 0]])  # trailing zero row
    assert q.coeffs == ((0, 1), (1, 0))
    with pytest.raises(ValueError):
        BivariatePolynomial(2, [[1], [1]])  # no y anywhere
    with pytest.raises(ValueError):
        BivariatePolynomial(2, [])


# -- branch expansion -------------------------------------------------


def test_expand_parity_series():
    f = expand_branch(thue_morse_spec(), 8)
    assert f.coeffs == (0, 1, 1, 0, 1, 0, 0, 1)


def test_expand_central_binomial_series():
    f = expand_branch(central_binomial_spec(), 6)
    assert f.coeffs == (1, 2, 0, 2, 1, 0)
    direct = tuple(math.comb(2 * j, j) % 3 for j in range(6))
    assert f.coeffs == direct


def test_expand_against_oracles():
    f = expand_branch(thue_morse_spec(), 256)
    assert f.coeffs == tuple(parity(j) for j in range(256))
    g = expand_branch(central_binomial_spec(), 243)
    assert g.coeffs == tuple(lucas_central_binomial_mod3(j) for j in range(243))
    assert g.coeffs[:32] == tuple(math.comb(2 * j, j) % 3 for j in range(32))


def test_expand_unique_root_needs_no_seed():
    spec = BranchSpec(parse_bivariate("(1+x)*y + 1", 2))
    f = expand_branch(spec, 16)
    assert f.coeffs == (1,) * 16


def test_unseeded_expansion_scans_the_residues_once(monkeypatch):
    # the root search at the origin runs once per unseeded spec, in its
    # constructor; expansions and representations read the start it keeps
    scans = []
    root_product_at_origin = algebraic_series._root_product_at_origin

    def counting(q):
        scans.append(q.p)
        return root_product_at_origin(q)

    monkeypatch.setattr(algebraic_series, "_root_product_at_origin", counting)
    for p, text in ((2, "(1+x)*y + 1"), (7, "(1+x)*y^3 + y + 3"), (65521, "(1+x)*y + 65520")):
        scans.clear()
        spec = BranchSpec(parse_bivariate(text, p))
        f = expand_branch(spec, 64)
        assert verify_annihilation(spec.q, f)
        assert expand_branch(spec, 128).coeffs[:64] == f.coeffs
        if p < 100:
            assert exact_representation(spec).m
        assert scans == [p]
    # a root of singular slope the empty seed cannot pin down
    scans.clear()
    with pytest.raises(AmbiguousBranch):
        BranchSpec(parse_bivariate("y^2 + x*y + x^3", 3))
    assert scans == [3]


def test_roots_at_origin_match_a_residue_scan():
    rng = random.Random(20)
    cases = 0
    for p in (2, 3, 5, 7, 11):
        for _ in range(150):
            dy = rng.randint(1, 5)
            row = [rng.randrange(p) if rng.random() < 0.6 else 0 for _ in range(dy + 1)]
            if rng.random() < 0.2:  # a product of linear factors, often repeated
                row = [1]
                for _ in range(dy):
                    c = rng.randrange(p)
                    row = [(u - c * v) % p for u, v in zip([0] + row, row + [0])]
            q = BivariatePolynomial(p, [row, [0] * dy + [1]])
            roots = [c for c in range(p) if sum(a * c**j for j, a in enumerate(row)) % p == 0]
            h = algebraic_series._root_product_at_origin(q)
            if not any(row):
                assert h is None
                assert len(roots) == p
            else:
                assert len(h) - 1 == len(roots)
                assert h[-1] == 1
            if len(roots) == 1:
                assert -h[0] % p == roots[0]
                assert algebraic_series._start_coefficient(q, ()) == roots[0]
            else:
                with pytest.raises(NoBranch if not roots else AmbiguousBranch) as info:
                    algebraic_series._start_coefficient(q, ())
                assert info.value.index == 0
            cases += 1
    assert cases == 750


def test_roots_at_origin_evaluate_no_residue(monkeypatch):
    # Q(0, c) is Q evaluated at the one-coefficient series c
    evaluations = []
    evaluate = BivariatePolynomial.evaluate

    def counting(q, f):
        if f.precision == 1:
            evaluations.append(f.coeffs[0])
        return evaluate(q, f)

    monkeypatch.setattr(BivariatePolynomial, "evaluate", counting)
    q = parse_bivariate("(1+x)*y + 65520", 65521)
    f = expand_branch(BranchSpec(q), 64)
    assert f.coeffs[0] == 1
    assert verify_annihilation(q, f)
    # the root comes from gcd(Q(0, y), y^p - y) and is not evaluated
    # again; a residue scan would make 65521 evaluations
    assert evaluations == []
    # a seed is checked by one evaluation at its first entry
    BranchSpec(q, seed=(1,))
    assert evaluations == [1]


def test_seed_disambiguation_errors():
    q2 = thue_morse_spec().q
    # Q(0, y) = y^2 + y has both roots at the origin
    with pytest.raises(AmbiguousBranch) as info:
        expand_branch(BranchSpec(q2), 4)
    assert info.value.index == 0
    # seed value that is not a root at all
    with pytest.raises(NoBranch) as info:
        expand_branch(BranchSpec(central_binomial_spec().q, (0,)), 4)
    assert info.value.index == 0
    # a0 = 0 is a root, but no branch through it has a_1 = 0
    with pytest.raises(NoBranch) as info:
        expand_branch(BranchSpec(q2, (0, 0)), 4)
    assert info.value.index == 1


def test_over_long_consistent_seed_is_accepted():
    f = expand_branch(thue_morse_spec(), 8)
    spec = BranchSpec(thue_morse_spec().q, f.coeffs)
    assert expand_branch(spec, 8) == f
    assert expand_branch(spec, 4).coeffs == f.coeffs[:4]


def test_seed_entries_at_or_past_n_are_checked():
    # the last seed entry has no branch: the BranchSpec constructor
    # refuses it, so neither exact_representation() nor expand_branch()
    # runs, however few terms it would be asked for
    cases = [
        (thue_morse_spec().q, (0, 1, 1, 1), 3),
        # singular slope: 0,0,1 passes Q up to x^2, but the one root
        # through 0,0 has a_2 = 2
        (parse_bivariate("y^2 + x*y + x^3", 3), (0, 0, 1), 2),
    ]
    for q, seed, index in cases:
        with pytest.raises(NoBranch) as info:
            BranchSpec(q, seed)
        assert info.value.index == index
        good = expand_branch(BranchSpec(q, seed[:-1]), len(seed)).coeffs
        assert expand_branch(BranchSpec(q, good), 2).coeffs == good[:2]
    # y^2 + x over F_3 has no series root: Q(x, y) has x^1 coefficient 1
    # whatever y with y(0) = 0, so even the first coefficient is refused
    with pytest.raises(NoBranch) as info:
        BranchSpec(parse_bivariate("y^2 + x", 3))
    assert info.value.index == 1


def test_engines_agree_on_shipped_specs():
    for _, spec in shipped_specs():
        assert expand_branch(spec, 512) == expand_baseline(spec.q, spec.seed, 512)


def test_newton_matches_baseline_on_random_separable_specs():
    # term counts on both sides of the doublings, where Newton's final
    # round is cut short and the carried inverse is refined or not
    rng = random.Random(3)
    for p in (2, 3, 5, 7):
        for _ in range(4):
            spec = random_separable_spec(rng, p)
            for n in (1, 2, 3, 127, 128, 129, 1000):
                newton = expand_branch(spec, n)
                assert newton == expand_baseline(spec.q, spec.seed, n), (spec, n)
                assert newton.precision == n


def test_baseline_handles_degenerate_slope():
    # y^2 + x^3 over F_2: the slope dQ/dy vanishes identically, so every
    # residue c extends the zero prefix at index 1 (Q(x, c*x) has nothing
    # below x^2)
    q = parse_bivariate("y^2 + x^3", 2)
    with pytest.raises(AmbiguousBranch) as info:
        BranchSpec(q, (0,))
    assert info.value.index == 1
    # same at index 2 once a_1 is pinned
    with pytest.raises(AmbiguousBranch) as info:
        BranchSpec(q, (0, 0))
    assert info.value.index == 2
    # with three coefficients pinned the x^3 term stands alone and no
    # residue works: y^2 is stuck on even powers
    with pytest.raises(NoBranch) as info:
        BranchSpec(q, (0, 0, 0))
    assert info.value.index == 3


def test_shift_expands_a_root_with_singular_slope():
    # y^2 + x*y + x^3 over F_3: Q(0, y) = y^2 has the double root 0, and
    # dQ/dy = 2*y + x has valuation 1 along both roots, told apart by a_1
    q = parse_bivariate("y^2 + x*y + x^3", 3)
    roots = []
    for seed in ((0, 0), (0, 2)):
        f = expand_branch(BranchSpec(q, seed), 3**7)
        assert f.coeffs[:2] == seed and f.precision == 3**7
        assert verify_annihilation(q, f)
        roots.append(f)
    assert roots[0] != roots[1]
    assert expand_branch(BranchSpec(q, (0, 0)), 12).coeffs == roots[0].coeffs[:12]
    assert expand_branch(BranchSpec(q, (0, 2)), 1).coeffs == (0,)
    # the seed 0 stops at index v = 1, and both branches extend it; so
    # does the empty seed, though the one root 0 of Q(0, y) = y^2 gives a_0
    for seed in ((0,), ()):
        with pytest.raises(AmbiguousBranch) as info:
            BranchSpec(q, seed)
        assert info.value.index == 1
    # a_1 = 1 fails Q at x^2, which no later coefficient can repair
    with pytest.raises(NoBranch) as info:
        BranchSpec(q, (0, 1))
    assert info.value.index == 2
    # a seed that runs past the valuation is checked against the root:
    # 0,0,1 passes Q up to x^2, but the root through 0,0 has a_2 = 2
    assert roots[0].coeffs[2] == 2
    with pytest.raises(NoBranch) as info:
        BranchSpec(q, (0, 0, 1))
    assert info.value.index == 2


def test_shift_rejects_a_seed_that_fails_below_twice_the_valuation():
    # x^3 + y^3 over F_2 with seed 0,1,1: dQ/dy = y^2 has valuation 2,
    # and Q(x, x + x^2) = x^4 + ... fails below x^5, so no root extends
    # the seed; candidate testing could only call coefficient 3 ambiguous
    q = parse_bivariate("x^3 + y^3", 2)
    with pytest.raises(AmbiguousBranch) as info:
        expand_baseline(q, (0, 1, 1), 6)
    assert info.value.index == 3
    with pytest.raises(NoBranch) as info:
        expand_branch(BranchSpec(q, (0, 1, 1)), 6)
    assert info.value.index == 4
    assert root_prefixes(q, (0, 1, 1), 5) == []


def test_shift_expands_close_roots():
    # (y - r)(y - r - u*x^v)(...): Newton cannot start at r(0), the seed
    # r mod x^(v+1) picks r, and the expansion is r padded with zeros
    rng = random.Random(20261018)
    for p in (2, 3, 5, 7):
        for v in (1, 2, 3, 4):
            for _ in range(3):
                text, r, seed = close_roots_case(rng, p, v)
                q = parse_bivariate(text, p)
                assert q.dy_at_origin(seed[0]) == 0, text
                for n in (v + 2, 2 * v + 3, 64):
                    f = expand_branch(BranchSpec(q, seed), n)
                    assert f.coeffs == tuple(r[:n]) + (0,) * (n - len(r)), (text, n)


def test_shift_is_the_substitution_it_claims():
    # x^(2v+1) * qt(x, z) = Q(x, s + x^(v+1)*z) for the head s of length
    # v+1, at random polynomials z, to a precision past both x-degrees
    rng = random.Random(24)
    shifted = 0
    for case in range(600):
        p = (2, 3, 5, 7)[case % 4]
        if case % 2:
            q, a0 = random_singular_spec(rng, p)
            seed = (a0,) + tuple(rng.randrange(p) for _ in range(rng.randrange(1, 5)))
        else:
            text, _, seed = close_roots_case(rng, p, rng.randint(1, 4))
            q = parse_bivariate(text, p)
        try:
            spec = BranchSpec(q, seed)
        except (AmbiguousBranch, NoBranch):
            continue
        v = len(spec.head) - 1
        if v < 1:
            continue
        shifted += 1
        for _ in range(3):
            z = [rng.randrange(p) for _ in range(rng.randrange(1, 5))]
            n = q.dx + q.dy * (v + len(z)) + 2 * v + 2
            lhs = naive_compose(spec.qt.coeffs, p, z, n - 2 * v - 1)
            assert [0] * (2 * v + 1) + lhs == naive_compose(q.coeffs, p, list(spec.head) + z, n), (q, seed, z)
    assert shifted > 150


def test_shift_against_the_baseline_on_singular_specs():
    # The baseline returns at most the seed when dQ/dy(0, a0) = 0, and it
    # checks the seed only below the term count, so it runs to the end of
    # the seed at least.  The shift must keep every NoBranch, and turn a
    # series only into the same series and an AmbiguousBranch only into
    # the same error or a root extending the seed, or else into a
    # NoBranch that a candidate search confirms.  The BranchSpec
    # constructor refuses a seed that stops before the root is
    # determined, whatever n; one more baseline coefficient shows that.
    rng = random.Random(6)
    outcomes = {}
    for case in range(6000):
        p = (2, 3, 5)[case % 3]
        if case % 2:
            q, a0 = random_singular_spec(rng, p)
            seed = (a0,) + tuple(rng.randrange(p) for _ in range(rng.randrange(4)))
        else:
            text, r, seed = close_roots_case(rng, p, rng.randint(1, 3))
            q = parse_bivariate(text, p)
            seed = seed[: rng.randint(1, len(seed) + 1)]
            if rng.random() < 0.3:
                k = rng.randrange(1, len(seed) + 1)
                seed = seed[:k - 1] + (rng.randrange(p),) + seed[k:]
        n = rng.randint(1, 12)
        results = []
        for expand, terms in ((expand_baseline, max(n, len(seed))),
                              (lambda q, seed, n: expand_branch(BranchSpec(q, seed), n), n)):
            try:
                results.append(expand(q, seed, terms))
            except (AmbiguousBranch, NoBranch) as exc:
                results.append(exc)
        old, new = results
        if isinstance(old, TruncatedSeries):
            old = TruncatedSeries(p, old.coeffs[:n])
        kind = (type(old).__name__, type(new).__name__)
        outcomes[kind] = outcomes.get(kind, 0) + 1
        where = (q, seed, n)
        if isinstance(old, NoBranch):
            assert isinstance(new, NoBranch), where
        elif isinstance(new, AmbiguousBranch):
            if isinstance(old, TruncatedSeries):
                with pytest.raises(AmbiguousBranch) as info:
                    expand_baseline(q, seed, len(seed) + 1)
                old = info.value
            assert isinstance(old, AmbiguousBranch) and new.index == old.index, where
        elif isinstance(new, TruncatedSeries):
            if isinstance(old, TruncatedSeries):
                assert new == old, where
            assert new.precision == n and new.coeffs[: len(seed)] == seed[:n], where
            assert verify_annihilation(q, new), where
        else:
            # a root extending the seed agrees with the root of the shift
            # past index new.index + v, so candidates that deep must die
            # out; where the seed shows no valuation v, at once
            dq = [[j * c for j, c in enumerate(row)][1:] for row in q.coeffs]
            slope = naive_compose(dq, p, seed, len(seed))
            v = next((k for k, c in enumerate(slope) if c), 0)
            assert root_prefixes(q, seed, new.index + v + 1) == [], where
    assert outcomes[("TruncatedSeries", "TruncatedSeries")] > 300
    assert outcomes[("TruncatedSeries", "AmbiguousBranch")] > 100
    assert outcomes[("AmbiguousBranch", "TruncatedSeries")] > 500
    assert outcomes[("AmbiguousBranch", "NoBranch")] > 10
    assert outcomes[("NoBranch", "NoBranch")] > 500
    assert outcomes[("TruncatedSeries", "NoBranch")] > 50


def test_small_term_counts():
    spec = thue_morse_spec()
    assert expand_branch(spec, 0).precision == 0
    assert expand_branch(spec, 1).coeffs == (0,)
    with pytest.raises(ValueError):
        expand_branch(spec, -1)


def test_expansion_annihilates_random_polynomials():
    # whatever branch comes out must actually be a root of its polynomial
    rng = random.Random(20260819)
    successes = 0
    for _ in range(400):
        p = rng.choice((2, 3, 5))
        grid = [[0] * 3 for _ in range(4)]
        for _ in range(rng.randrange(2, 7)):
            grid[rng.randrange(4)][rng.randrange(3)] = rng.randrange(1, p)
        grid[0][rng.randrange(1, 3)] = rng.randrange(1, p)
        q = BivariatePolynomial(p, grid)
        try:
            f = expand_branch(BranchSpec(q), 128)
        except ChristolError:
            continue
        assert verify_annihilation(q, f)
        successes += 1
    assert successes >= 50


def test_verify_annihilation():
    spec = thue_morse_spec()
    f = expand_branch(spec, 64)
    assert verify_annihilation(spec.q, f)
    wrong = TruncatedSeries(2, (1,) + f.coeffs[1:])
    assert not verify_annihilation(spec.q, wrong)
    assert verify_annihilation(spec.q, TruncatedSeries(2))  # vacuous
    with pytest.raises(ModulusMismatch, match="mixed moduli 2 and 3"):
        verify_annihilation(spec.q, TruncatedSeries(3, f.coeffs))
