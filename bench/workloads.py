"""The benchmark's three workloads: inputs drawn from the seed, the
operations run against christol's public entry points, and the oracle
check of every output.

A workload is built once per set-up (Workload.__init__, timed as
setup_s) and then yields cycles of operations.  Every cycle has the same
shape -- the same families, degrees, index lengths and term counts in
the same order -- and the seed draws only what varies inside that shape
(denominator coefficients, index digits, degree slack).  The timed loop
runs whole cycles, and each slot of the cycle is one operation shape
whose executions in different cycles cost about the same, so that their
median is a steady figure.

A workload has an odd number of slots (SLOTS), so that the median over
its slots is one slot's figure and not the mean of two.
"""

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

from oracles import (
    Reciprocal,
    annihilates,
    base_digits,
    central_binomial_mod,
    decimal_to_int,
    digit_sum_parity,
    divides_indicator,
)

# Every output of construct is checked on all n below this bound.
CHECK_BOUND = 1024


@dataclass(frozen=True)
class Op:
    """One operation: run() is timed, check(output) is not.  check
    returns None for a correct output, else ("wrong" | "error", reason).
    slot is the operation's shape: its position in the workload's list
    of slots."""

    slot: int
    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple | None]


# -- families ----------------------------------------------------------


@dataclass(frozen=True)
class Family:
    """An algebraic series over F_p: its christol spec, the x- and
    y-degree of that defining polynomial, and an oracle for any
    coefficient."""

    name: str
    p: int
    poly: str
    seed: str
    dx: int
    dy: int
    coefficient: Callable[[int], int]
    prefix: Callable[[int], list] | None = None

    def first(self, count: int) -> list:
        if self.prefix is not None:
            return self.prefix(count)
        return [self.coefficient(n) for n in range(count)]


def thue_morse() -> Family:
    return Family("thue-morse", 2, "(1+x)^3*y^2 + (1+x)^2*y + x", "0", 3, 2, digit_sum_parity)


def all_ones() -> Family:
    return Family("all-ones", 2, "(1+x)*y + 1", "", 1, 1, lambda n: 1)


def central_binomial(p: int) -> Family:
    """sum C(2n, n) x^n = (1 - 4x)^(-1/2), the root with y(0) = 1 of
    (1 + (p-4)x) y^2 + (p-1)."""
    poly = f"(1+{(p - 4) % p}*x)*y^2 + {p - 1}"
    return Family(f"central-binomial-F{p}", p, poly, "1", 1, 2, lambda n: central_binomial_mod(n, p))


def reciprocal(denom, p: int) -> Family:
    """1/D(x), the root of D(x) y + (p-1)."""
    terms = [f"{c}*x^{i}" if i else str(c) for i, c in enumerate(denom) if c]
    r = Reciprocal(denom, p)
    name = f"1/D F{p} D={','.join(map(str, denom))}"
    return Family(name, p, f"({'+'.join(terms)})*y + {p - 1}", "", len(denom) - 1, 1, r.coefficient, r.prefix)


def x_power(k: int) -> Family:
    """1/(1 + x^k) over F_2."""
    return Family(f"1/(1+x^{k}) F2", 2, f"(1+x^{k})*y + 1", "", k, 1, lambda n: divides_indicator(k, n))


def random_denominator(rng: random.Random, p: int, degree: int) -> list:
    """D of exact degree >= 1 with D(0) != 0."""
    middle = [rng.randrange(p) for _ in range(degree - 1)]
    return [rng.randrange(1, p)] + middle + [rng.randrange(1, p)]


def x_order(denom, p: int) -> int:
    """Multiplicative order of x modulo D, for D(0) != 0."""
    d = len(denom) - 1
    lead_inv = pow(denom[-1], p - 2, p)
    one = [1] + [0] * (d - 1)
    r = one
    k = 0
    while True:
        k += 1
        top = r[-1]
        r = [0] + r[:-1]  # r <- x * r, then reduce the x^d term
        if top:
            c = top * lead_inv % p
            r = [(a - c * b) % p for a, b in zip(r, denom)]
        if r == one:
            return k


def random_primitive(rng: random.Random, p: int, degree: int) -> list:
    """A random D of the given degree whose reciprocal has the largest
    period, p^degree - 1.  Every such D gives a machine of the same size,
    so the seed changes what a slot computes but not how much work it
    takes."""
    while True:
        denom = random_denominator(rng, p, degree)
        if x_order(denom, p) == p**degree - 1:
            return denom


def recip(p: int, degree: int):
    return lambda rng: reciprocal(random_primitive(rng, p, degree), p)


def fixed(family: Family):
    return lambda rng: family


def random_index(rng: random.Random, length: int) -> str:
    head = str(rng.randrange(1, 10))
    return head + "".join(rng.choices("0123456789", k=length - 1))


def machine_value(doc: dict, digits) -> int:
    """Output of a dfao-v1 document after reading digits (LSD first)."""
    states = doc["states"]
    s = doc["start"]
    for d in digits:
        s = states[s]["next"][d]
    return states[s]["output"]


def check_dfao_doc(doc, p: int) -> str | None:
    """Structural check of a dfao-v1 document, independent of christol."""
    if not isinstance(doc, dict) or doc.get("format") != "dfao-v1" or doc.get("p") != p:
        return "not a dfao-v1 document over the expected field"
    if doc.get("digit_order") != "lsd":
        return "digit order is not lsd"
    states = doc.get("states")
    if not isinstance(states, list) or not states or not 0 <= doc.get("start", -1) < len(states):
        return "bad state list or start state"
    for st in states:
        nxt = st.get("next")
        if not (0 <= st.get("output", -1) < p and isinstance(nxt, list) and len(nxt) == p):
            return "bad state entry"
        if not all(isinstance(t, int) and 0 <= t < len(states) for t in nxt):
            return "transition out of range"
    return None


def check_machine(doc, family: Family, long_indices) -> tuple | None:
    """Compare a machine with the family's oracle on every n below
    CHECK_BOUND and on each long decimal index."""
    problem = check_dfao_doc(doc, family.p)
    if problem:
        return ("wrong", problem)
    ref = family.first(CHECK_BOUND)
    bad = [n for n in range(CHECK_BOUND) if machine_value(doc, base_digits(n, family.p)) != ref[n]]
    if bad:
        return ("wrong", f"oracle mismatch on {len(bad)} of n < {CHECK_BOUND}, first at n={bad[0]}")
    for text in long_indices:
        n = decimal_to_int(text)
        if machine_value(doc, base_digits(n, family.p)) != family.coefficient(n):
            return ("wrong", f"oracle mismatch at a {len(text)}-digit index")
    return None


def schedule(size, heavy, rounds):
    """The slots of one cycle, in order.  The cycle is `rounds` rounds:
    every round runs each light slot, and the heavy slots take turns, one
    round each.  A light slot is then measured several times per cycle,
    at moments spread over it; the host's speed swings from one second
    to the next, and a median over more moments is a steadier figure."""
    turn = {slot: i % rounds for i, slot in enumerate(heavy)}
    return [slot for r in range(rounds) for slot in range(size) if turn.get(slot, r) == r]


def run_cli(cli, argv):
    """cli.cli_main(argv) with its stdout and stderr captured.  The
    function is looked up at call time, so tracing wrappers take effect."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_failure(result) -> tuple | None:
    code, _out, err = result
    if code != 0:
        return ("error", f"exit {code}: {err.strip()[:200]}")
    return None


# -- construct -----------------------------------------------------------

# The slots: (family maker, --n-eq or None for the CLI default).  The
# first block runs at the default n_eq = 64; the slice passes user-chosen
# --n-eq values spread over [8, 64].  A maker draws a family from the rng.
CONSTRUCT_SLOTS = (
    (fixed(thue_morse()), None),
    (fixed(central_binomial(3)), None),
    (fixed(all_ones()), None),
    (recip(2, 3), None),
    (recip(2, 4), None),
    (recip(3, 1), None),
    (recip(3, 2), None),
    (recip(5, 1), None),
    (recip(5, 2), 16),
    (fixed(x_power(9)), None),
    (fixed(central_binomial(5)), 8),
    (recip(5, 2), 12),
    (recip(5, 2), 24),
    (recip(3, 3), 16),
    (recip(2, 5), 32),
    (fixed(x_power(7)), 8),
    (fixed(x_power(10)), 16),
    (fixed(thue_morse()), 48),
    (fixed(central_binomial(3)), 24),
    (recip(2, 4), 40),
    (recip(3, 2), 20),
)
# Slots that take 0.1 s or more at the seed; see schedule().
CONSTRUCT_HEAVY = (4, 10, 12)
CONSTRUCT_ROUNDS = 2

# Operations that fail at the seed.  They run after the timed phase on
# every construct run and are listed with their outcome, but stay out
# of attempted/failed: a fixed count of expected failures would be
# confused with the timed operations' failures.
KNOWN_DEFECTS = (
    # n_eq = 8 cannot separate the sections of 1/(1+x^11): the CLI
    # writes a 9-state machine; the right one has 11 states.
    (x_power(11), 8),
    # The orbit walk expands the root to n_eq * p^depth coefficients.
    (central_binomial(5), None),
    (central_binomial(7), None),
)


class Construct:
    """cli_main(["automaton", ..., "--minimize", "--out", path]) per
    operation; the written machine is checked on every n < CHECK_BOUND
    and on random 40- to 60-digit indices."""

    budget_s = 3.0
    tail_percentile = 90
    trace_cycles = 1

    def __init__(self, christol, setup_rng: random.Random, rng: random.Random, work_dir: str):
        self.christol = christol
        self.rng = rng
        self.out_path = os.path.join(work_dir, "machine.json")

    def verify_setup(self):
        return None

    def op(self, slot: int, family: Family, n_eq, long_indices) -> Op:
        argv = ["automaton", "--p", str(family.p), "--poly", family.poly, "--minimize", "--out", self.out_path]
        if family.seed:
            argv += ["--seed", family.seed]
        if n_eq is not None:
            argv += ["--n-eq", str(n_eq)]
        label = f"{family.name} [{family.poly}]" + (f" --n-eq {n_eq}" if n_eq else "")

        def check(result):
            failure = cli_failure(result)
            if failure:
                return failure
            with open(self.out_path) as fh:
                doc = json.load(fh)
            failure = check_machine(doc, family, long_indices)
            if failure:
                return failure
            if result[1].strip() != str(len(doc["states"])):
                return ("wrong", f"printed {result[1].strip()!r} for {len(doc['states'])} states")
            return None

        return Op(slot, label, lambda: run_cli(self.christol.cli, argv), check)

    def cycle(self):
        rng = self.rng
        ops = []
        for slot in schedule(len(CONSTRUCT_SLOTS), CONSTRUCT_HEAVY, CONSTRUCT_ROUNDS):
            make, n_eq = CONSTRUCT_SLOTS[slot]
            family = make(rng)
            longs = [random_index(rng, rng.randrange(40, 61)) for _ in range(4)]
            ops.append(self.op(slot, family, n_eq, longs))
        return ops

    def known_defects(self):
        return [self.op(-1, family, n_eq, []) for family, n_eq in KNOWN_DEFECTS]


# -- query ---------------------------------------------------------------

QUERY_MAX_DIGITS = 5000
QUERY_LENGTHS = 45  # index lengths, one slot each
# Lengths above QUERY_CHEAP_DIGITS are the heavy slots; see schedule().
QUERY_ROUNDS = 5
QUERY_CHEAP_DIGITS = 300


def query_families(rng: random.Random):
    """Machines for query and reverse: construct families over F_2, F_3
    and F_5, each with an n_eq at which its machine is correct.  Query
    gives the longest index of a cycle to the last machine, so that the
    costliest conversion is into base 5 rather than base 2 and a run
    holds more cycles."""
    return [
        (thue_morse(), 64),
        (recip(2, 4)(rng), 64),
        (x_power(6), 64),
        (central_binomial(3), 64),
        (recip(5, 2)(rng), 16),
    ]


def build_machines(c, families):
    """Minimized dfao-v1 text per family, built with the library."""
    texts = []
    for family, n_eq in families:
        seed = tuple(int(s) for s in family.seed.split(",") if s)
        spec = c.BranchSpec(c.parse_bivariate(family.poly, family.p), seed=seed)
        machine = c.minimize(c.build_dfao(spec, c.ClosureConfig(n_eq=n_eq)))
        texts.append(c.dfao_to_json(machine))
    return texts


def verify_machines(families, texts) -> str | None:
    """The first set-up machine its oracle rejects, with the reason."""
    for family, text in zip(families, texts):
        failure = check_machine(json.loads(text), family, [])
        if failure:
            return f"{family.name}: {failure[1]}"
    return None


def query_lengths():
    """Index lengths of one cycle, ascending: the midpoints of a
    log-uniform grid from 1 digit to QUERY_MAX_DIGITS.  The longest is
    above 4300 digits, the interpreter's limit for one int(str) call."""
    return [max(1, round(QUERY_MAX_DIGITS ** ((i + 0.5) / QUERY_LENGTHS))) for i in range(QUERY_LENGTHS)]


class Query:
    """cli_main(["query", "--automaton", path, "--n", index]) per
    operation, the index length log-uniform up to several thousand
    digits; the printed value is checked against the family oracle."""

    budget_s = 30.0
    tail_percentile = 90
    trace_cycles = 1

    def __init__(self, christol, setup_rng: random.Random, rng: random.Random, work_dir: str):
        self.christol = christol
        self.rng = rng
        chosen = query_families(setup_rng)
        self.families = [f for f, _ in chosen]
        self.texts = build_machines(christol, chosen)
        self.paths = []
        for i, text in enumerate(self.texts):
            path = os.path.join(work_dir, f"query-{i}.json")
            with open(path, "w") as fh:
                fh.write(text + "\n")
            self.paths.append(path)
        self.lengths = query_lengths()
        heavy = [slot for slot, length in enumerate(self.lengths) if length > QUERY_CHEAP_DIGITS]
        self.schedule = schedule(len(self.lengths), heavy, QUERY_ROUNDS)

    def verify_setup(self):
        return verify_machines(self.families, self.texts)

    def op(self, slot: int, family: Family, path: str, index: str) -> Op:
        argv = ["query", "--automaton", path, "--n", index]

        def check(result):
            failure = cli_failure(result)
            if failure:
                return failure
            expect = family.coefficient(decimal_to_int(index))
            if result[1].strip() != str(expect):
                return ("wrong", f"printed {result[1].strip()!r}, oracle says {expect}")
            return None

        label = f"{family.name} at a {len(index)}-digit index"
        return Op(slot, label, lambda: run_cli(self.christol.cli, argv), check)

    def cycle(self):
        # machines take turns along the ascending lengths, so each one
        # meets the whole range
        ops = []
        for slot in self.schedule:
            m = slot % len(self.families)
            ops.append(self.op(slot, self.families[m], self.paths[m], random_index(self.rng, self.lengths[slot])))
        return ops


# -- reverse -------------------------------------------------------------

REVERSE_TERMS = (256, 512, 1024, 1536, 2048)


class Reverse:
    """dfao_from_json, automatic_to_series(m, N) and guess_polynomial(f,
    dx, dy) per operation, with dx, dy the family's degrees plus seeded
    slack; the returned Q must annihilate an oracle prefix of 2N terms."""

    budget_s = 5.0
    tail_percentile = 90
    trace_cycles = 6

    def __init__(self, christol, setup_rng: random.Random, rng: random.Random, work_dir: str):
        self.christol = christol
        self.rng = rng
        chosen = query_families(setup_rng)
        self.families = [f for f, _ in chosen]
        self.texts = build_machines(christol, chosen)
        self.oracle_terms = {}  # family name -> oracle prefix, filled by checks

    def verify_setup(self):
        return verify_machines(self.families, self.texts)

    def op(self, slot: int, family: Family, text: str, terms: int, dx: int, dy: int) -> Op:
        c = self.christol

        # looked up through the modules at call time, so that tracing
        # wrappers take effect
        def run():
            machine = c.automaton.dfao_from_json(text)
            f = c.algebraize.automatic_to_series(machine, terms)
            return c.algebraize.guess_polynomial(f, dx, dy)

        def check(q):
            rows = [list(row) for row in q.coeffs]
            if len(rows) - 1 > dx or len(rows[0]) - 1 > dy:
                return ("wrong", f"Q exceeds the degree bounds ({dx}, {dy})")
            if not any(any(row[1:]) for row in rows):
                return ("wrong", "Q does not involve y")
            if family.name not in self.oracle_terms:
                self.oracle_terms[family.name] = family.first(2 * REVERSE_TERMS[-1])
            if not annihilates(rows, self.oracle_terms[family.name][: 2 * terms], family.p):
                return ("wrong", f"Q does not annihilate the first {2 * terms} oracle terms")
            return None

        label = f"{family.name} N={terms} bounds=({dx},{dy})"
        return Op(slot, label, run, check)

    def cycle(self):
        # the slack is drawn afresh in every cycle: a slot's latency, the
        # median of its executions, is then the median over the slacks,
        # and does not depend on which slack one draw gave the slot
        rng = self.rng
        ops = []
        for terms in REVERSE_TERMS:
            for family, text in zip(self.families, self.texts):
                dx = family.dx + rng.randrange(0, 3)
                dy = family.dy + rng.randrange(0, 2)
                ops.append(self.op(len(ops), family, text, terms, dx, dy))
        return ops


WORKLOADS = {"construct": Construct, "query": Query, "reverse": Reverse}

# slots per workload; each odd, see the docstring
SLOTS = {
    "construct": len(CONSTRUCT_SLOTS),
    "query": QUERY_LENGTHS,
    "reverse": len(REVERSE_TERMS) * len(query_families(random.Random(0))),
}
