"""Command line front end.

Subcommands: expand, weed, automaton, query, algebraize, selftest.
Exit codes: 0 success, 1 a computation failed (one-line diagnostic on
stderr), 2 bad usage (one "usage error:" line on stderr).  Stdout
carries only the machine-readable result and is byte-identical for
identical argv.
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
from .finite_field import parse_natural
from .kernel import DEFAULT_MAX_STATES, DEFAULT_N_EQ, ClosureConfig, exact_representation
from .kernel import orbit_closure, recheck
from .power_series import parse_series
from .weeding import weed


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one line of at most 200 bytes, as the handlers report bad usage;
        # argparse quotes whole values, so a long line loses its middle,
        # and joins raw argv words, so line breaks show escaped
        message = message.replace("\n", "\\n").replace("\r", "\\r")
        line = f"usage error: {message}".encode()
        if len(line) >= 200:
            line = line[:100] + b"..." + line[-96:]
        self.exit(2, line.decode(errors="ignore") + "\n")


def _natural(text: str) -> int:
    """The type of every integer option: parse_natural(), whose message
    shows the value cut short."""
    try:
        return parse_natural(text)
    except MalformedNumber as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _branch_spec(args: argparse.Namespace) -> BranchSpec:
    q = parse_bivariate(args.poly, args.p)
    try:
        seed = parse_series(args.seed, args.p).coeffs if args.seed else ()
    except ValueError as exc:
        raise _UsageError(f"bad seed: {exc}") from exc
    return BranchSpec(q, seed=seed)


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


def _selftest_suite(name, spec, oracle, limit, expect_states) -> list:
    """The production machine of spec against the orbit oracles: one
    report line per check, ending in ok or FAIL."""
    rep = orbit_closure(spec)
    machine = dfao_from_linear(exact_representation(spec))
    agree = machine == minimize(build_dfao(spec)) and machine == dfao_from_linear(rep)
    bad = sum(query(machine, str(n)) != oracle(_base_digits(n, spec.p)) for n in range(limit))
    checks = [
        (f"minimized flavors agree with {machine.n_states} states", "ok" if agree else "FAIL"),
        *([(f"expected {expect_states} states, got {machine.n_states}", "FAIL")]
          if machine.n_states != expect_states else []),
        (f"outputs match the oracle for n < {limit}", f"{bad} FAIL" if bad else "ok"),
        ("recheck at doubled precision", "ok" if recheck(rep, spec) else "FAIL"),
        ("serialization round trip",
         "ok" if dfao_from_json(dfao_to_json(machine)) == machine else "FAIL"),
    ]
    return [f"{name}: {label}: {verdict}" for label, verdict in checks]


def _cmd_selftest(_args: argparse.Namespace) -> int:
    lines = _selftest_suite("digit-parity", thue_morse_spec(), thue_morse_oracle, 2048, 2)
    lines += _selftest_suite("lucas", central_binomial_spec(), central_binomial_mod3_oracle, 2187, 3)
    lines += _selftest_suite("all-ones", all_ones_spec(), lambda digits: 1, 512, 1)
    ok = all(line.endswith(": ok") for line in lines)
    print("\n".join(lines + [f"selftest: {'ok' if ok else 'FAIL'}"]))
    return 0 if ok else 1


_MODULUS = {"--p": dict(type=_natural, required=True, help="prime modulus")}
# (name, handler, help line, {option string: add_argument keywords}),
# in the order --help lists them
_SUBCOMMANDS = (
    ("expand", _cmd_expand, "expand a polynomial branch to N terms", {
        **_MODULUS,
        "--poly": dict(required=True, help="bivariate polynomial text"),
        "--seed": dict(default="", help="comma-separated low-order coefficients"),
        "--terms": dict(type=_natural, required=True, help="number of coefficients"),
    }),
    ("weed", _cmd_weed, "extract the subsequence a_{p*n+p-1-k}", {
        **_MODULUS,
        "--series": dict(required=True, help="comma-separated coefficients"),
        "--degree": dict(type=_natural, required=True, help="weeding degree k"),
    }),
    ("automaton", _cmd_automaton, "build the coefficient automaton", {
        **_MODULUS,
        "--poly": dict(required=True),
        "--seed": dict(default=""),
        "--minimize": dict(action="store_true",
                           help="accepted for compatibility; the machine written is minimal already"),
        "--out": dict(required=True, help="output path for dfao-v1 JSON"),
        "--dot": dict(default="", help="optional Graphviz output path"),
        "--n-eq": dict(type=_natural, default=DEFAULT_N_EQ, help="accepted; the construction is exact"),
        "--max-states": dict(type=_natural, default=DEFAULT_MAX_STATES,
                             help="cap on the basis dimension and on the reachable vectors"),
    }),
    ("query", _cmd_query, "coefficient at index n from a saved automaton", {
        "--automaton": dict(required=True, help="dfao-v1 JSON path"),
        "--n": dict(required=True, help="decimal index, any length"),
    }),
    ("algebraize", _cmd_algebraize, "guess a defining polynomial for a series", {
        **_MODULUS,
        "--series-file": dict(required=True, help="file of comma-separated coefficients"),
        "--dx": dict(type=_natural, required=True, help="x-degree bound"),
        "--dy": dict(type=_natural, required=True, help="y-degree bound"),
    }),
    ("selftest", _cmd_selftest, "run the embedded oracle suites", {}),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="christol",
        description="Automata for coefficient sequences of algebraic power series over F_p.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, summary, options in _SUBCOMMANDS:
        sp = sub.add_parser(name, help=summary)
        for flag, keywords in options.items():
            sp.add_argument(flag, **keywords)
        sp.set_defaults(handler=handler)
    return parser


def cli_main(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed its diagnostic
        return 0 if exc.code == 0 else 2
    try:
        return args.handler(args)
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
