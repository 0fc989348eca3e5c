"""Command line front end.

Subcommands: expand, weed, automaton, query, algebraize, selftest.
Exit codes: 0 success, 1 a computation failed (one-line diagnostic on
stderr), 2 bad usage.  Stdout carries only the machine-readable result
and is byte-identical for identical argv.
"""

import argparse
import sys

from .algebraic_series import BranchSpec, expand_branch, parse_bivariate
from .algebraize import guess_polynomial
from .automaton import (
    build_dfao,
    dfao_from_json,
    dfao_from_linear,
    dfao_to_json,
    export_dot,
    minimize,
    query,
)
from .errors import ChristolError, MalformedNumber
from .examples import (
    all_ones_spec,
    central_binomial_mod3_oracle,
    central_binomial_spec,
    thue_morse_oracle,
    thue_morse_spec,
)
from .kernel import DEFAULT_MAX_STATES, DEFAULT_N_EQ, ClosureConfig, exact_representation
from .kernel import orbit_closure, recheck
from .power_series import parse_series
from .weeding import weed


class _UsageError(Exception):
    pass


def _parse_seed(text: str, p: int) -> tuple:
    if not text:
        return ()
    try:
        return parse_series(text, p).coeffs
    except ValueError as exc:
        raise _UsageError(f"bad seed: {exc}") from exc


def _branch_spec(args: argparse.Namespace) -> BranchSpec:
    q = parse_bivariate(args.poly, args.p)
    return BranchSpec(q, seed=_parse_seed(args.seed, args.p))


def _cmd_expand(args: argparse.Namespace) -> int:
    series = expand_branch(_branch_spec(args), args.terms)
    print(",".join(str(c) for c in series.coeffs))
    return 0


def _cmd_weed(args: argparse.Namespace) -> int:
    f = parse_series(args.series, args.p)
    print(",".join(str(c) for c in weed(f, args.degree).coeffs))
    return 0


def _cmd_automaton(args: argparse.Namespace) -> int:
    spec = _branch_spec(args)
    cfg = ClosureConfig(n_eq=args.n_eq, max_states=args.max_states)  # validates both flags
    machine = dfao_from_linear(exact_representation(spec, cfg.max_states), cfg.max_states)
    with open(args.out, "w") as fh:
        fh.write(dfao_to_json(machine) + "\n")
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(export_dot(machine))
    print(machine.n_states)
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    with open(args.automaton) as fh:
        machine = dfao_from_json(fh.read())
    try:
        print(query(machine, args.n))
    except MalformedNumber as exc:
        raise _UsageError(f"--n: {exc}") from exc
    return 0


def _cmd_algebraize(args: argparse.Namespace) -> int:
    with open(args.series_file) as fh:
        f = parse_series(fh.read().strip(), args.p)
    print(guess_polynomial(f, args.dx, args.dy).to_text())
    return 0


def _base_digits(n: int, p: int) -> list:
    """Base-p digits of n, least significant first, by divmod: the
    oracles read them, independently of to_digits_lsd()."""
    out = []
    while n:
        n, r = divmod(n, p)
        out.append(r)
    return out


def _selftest_suite(name, spec, oracle, limit, expect_states):
    """The production machine of spec against the orbit oracles."""
    lines = []
    rep = orbit_closure(spec)
    machine = dfao_from_linear(exact_representation(spec))
    ok = machine == minimize(build_dfao(spec)) and machine == dfao_from_linear(rep)
    lines.append(f"{name}: minimized flavors agree with {machine.n_states} states: "
                 f"{'ok' if ok else 'FAIL'}")
    if machine.n_states != expect_states:
        ok = False
        lines.append(f"{name}: expected {expect_states} states, got {machine.n_states}: FAIL")
    bad = 0
    for n in range(limit):
        if query(machine, str(n)) != oracle(_base_digits(n, spec.p)):
            bad += 1
    lines.append(f"{name}: outputs match the oracle for n < {limit}: "
                 f"{'ok' if bad == 0 else f'{bad} FAIL'}")
    if bad:
        ok = False
    if not recheck(rep, spec):
        ok = False
        lines.append(f"{name}: recheck at doubled precision: FAIL")
    else:
        lines.append(f"{name}: recheck at doubled precision: ok")
    round_trip = dfao_from_json(dfao_to_json(machine)) == machine
    if not round_trip:
        ok = False
    lines.append(f"{name}: serialization round trip: {'ok' if round_trip else 'FAIL'}")
    return ok, lines


def _cmd_selftest(_args: argparse.Namespace) -> int:
    ok1, lines1 = _selftest_suite("digit-parity", thue_morse_spec(), thue_morse_oracle, 2048, 2)
    ok2, lines2 = _selftest_suite(
        "lucas", central_binomial_spec(), central_binomial_mod3_oracle, 2187, 3
    )
    ok3, lines3 = _selftest_suite("all-ones", all_ones_spec(), lambda digits: 1, 512, 1)
    for line in lines1 + lines2 + lines3:
        print(line)
    if ok1 and ok2 and ok3:
        print("selftest: ok")
        return 0
    print("selftest: FAIL")
    return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="christol",
        description="Automata for coefficient sequences of algebraic power series over F_p.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_p(sp):
        sp.add_argument("--p", type=int, required=True, help="prime modulus")

    sp = sub.add_parser("expand", help="expand a polynomial branch to N terms")
    add_p(sp)
    sp.add_argument("--poly", required=True, help="bivariate polynomial text")
    sp.add_argument("--seed", default="", help="comma-separated low-order coefficients")
    sp.add_argument("--terms", type=int, required=True, help="number of coefficients")

    sp = sub.add_parser("weed", help="extract the subsequence a_{p*n+p-1-k}")
    add_p(sp)
    sp.add_argument("--series", required=True, help="comma-separated coefficients")
    sp.add_argument("--degree", type=int, required=True, help="weeding degree k")

    sp = sub.add_parser("automaton", help="build the coefficient automaton")
    add_p(sp)
    sp.add_argument("--poly", required=True)
    sp.add_argument("--seed", default="")
    sp.add_argument("--minimize", action="store_true",
                    help="accepted for compatibility; the machine written is minimal already")
    sp.add_argument("--out", required=True, help="output path for dfao-v1 JSON")
    sp.add_argument("--dot", default="", help="optional Graphviz output path")
    sp.add_argument("--n-eq", type=int, default=DEFAULT_N_EQ,
                    help="accepted; the construction is exact")
    sp.add_argument("--max-states", type=int, default=DEFAULT_MAX_STATES,
                    help="cap on the basis dimension and on the reachable vectors")

    sp = sub.add_parser("query", help="coefficient at index n from a saved automaton")
    sp.add_argument("--automaton", required=True, help="dfao-v1 JSON path")
    sp.add_argument("--n", required=True, help="decimal index, any length")

    sp = sub.add_parser("algebraize", help="guess a defining polynomial for a series")
    add_p(sp)
    sp.add_argument("--series-file", required=True, help="file of comma-separated coefficients")
    sp.add_argument("--dx", type=int, required=True, help="x-degree bound")
    sp.add_argument("--dy", type=int, required=True, help="y-degree bound")

    sub.add_parser("selftest", help="run the embedded oracle suites")
    return parser


def cli_main(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed its diagnostic
        return 0 if exc.code == 0 else 2
    handlers = {
        "expand": _cmd_expand,
        "weed": _cmd_weed,
        "automaton": _cmd_automaton,
        "query": _cmd_query,
        "algebraize": _cmd_algebraize,
        "selftest": _cmd_selftest,
    }
    try:
        return handlers[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ChristolError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
