"""Deterministic finite automata with output over the digit alphabet 0..p-1.

A Dfao reads the base-p digits of n least significant first and emits
the residue tau(final state); for the machines built here that residue
is the n-th coefficient of an algebraic series.  Two constructions are
provided:

  * dfao_from_linear() walks the reachable row vectors of a
    KernelRepresentation; the CLI builds every machine this way, from
    the exact representation of kernel.exact_representation();
  * build_dfao() walks the orbit of the series under sections, one state
    per distinct truncated series; it is kept only as an independent
    oracle for the tests, acceptance criterion 5 and the selftest.

Both run through _walk(), which numbers the states breadth-first with
digits ascending; minimize() renumbers its classes through it too.
Nothing else is shared: the states, steps and outputs are row vectors
under the digit matrices in the one, truncated series under sections in
the other.  So their agreement checks what they compute, not the
numbering, which the tests pin with recorded dfao-v1 text.

The linear machine of a minimal representation is minimal, so the CLI
never calls minimize(): the representation is observable, so distinct
row vectors differ in their output after some digit string, and all
states are reachable.  The same holds for a closure whose basis is
independent at n_eq: as section_d(z) = M[d] z mod x^n_eq for the basis
series z, state alpha outputs [x^n](alpha . z) on the digits of every
n < n_eq, so distinct states differ at some n.  So on a correct closure
the linear machine and the orbit machine agree state for state.

The Dfao constructor is the one check of a machine, built or read, so
dfao_to_json() writes only documents that dfao_from_json() reads back.

Least-significant-first digit order makes trailing zeros of the input
harmless by construction: delta(s, 0) fixes tau, so "6", "06" and "0006"
(as digit strings 011, 0110, ...) agree.  to_digits_lsd() never emits
the useless high zeros in the first place, and it converts an index of
any length without touching the interpreter's int(str) limit.
"""

import json
from dataclasses import dataclass

from .errors import SchemaError, StateCapExceeded
from .finite_field import brief, ensure_prime, parse_natural
from .kernel import (
    DEFAULT_MAX_STATES,
    ClosureConfig,
    KernelRepresentation,
    PathExpander,
    alpha_output,
    alpha_step,
)

FORMAT_TAG = "dfao-v1"


@dataclass(frozen=True)
class Dfao:
    """States 0..n-1 with transition table delta[state][digit], output
    table tau[state], and a start state; digits are read least
    significant first.  Instances are immutable.  ValueError unless p is
    prime, every state has p targets, and start, targets and outputs are
    in range and of type int (not True, not 2.0); messages name the
    state and show the value through brief()."""

    p: int
    start: int
    delta: tuple
    tau: tuple

    def __post_init__(self):
        p = ensure_prime(self.p)
        n = len(self.delta)
        if n == 0 or len(self.tau) != n:
            raise ValueError("delta and tau must cover the same nonempty state set")
        if type(self.start) is not int or not 0 <= self.start < n:
            raise ValueError(f"start state {brief(self.start)} is not an int in [0, {n})")
        for s, row in enumerate(self.delta):
            if len(row) != p:
                raise ValueError(f"state {s} has {len(row)} transitions, expected {p}")
            for t in row:
                if type(t) is not int or not 0 <= t < n:
                    raise ValueError(f"state {s} target {brief(t)} is not an int in [0, {n})")
            out = self.tau[s]
            if type(out) is not int or not 0 <= out < p:
                raise ValueError(f"state {s} output {brief(out)} is not an int in [0, {p})")

    @property
    def n_states(self) -> int:
        return len(self.delta)

    def is_trailing_zero_stable(self) -> bool:
        """tau(delta(s, 0)) == tau(s) for every state; holds for every
        machine built from sections, since the 0-section fixes the
        constant term."""
        return all(self.tau[row[0]] == self.tau[s] for s, row in enumerate(self.delta))


def _walk(p: int, first, step, output, max_states: int, what: str) -> Dfao:
    """The machine of the states reachable from first, where step(s, d)
    is the state after digit d and output(s) the output of s.  States
    are hashable keys, numbered breadth-first with digits ascending, so
    the numbering is canonical.  StateCapExceeded past max_states
    states."""
    ids = {first: 0}
    states = [first]
    delta = []
    for s in states:
        row = []
        for d in range(p):
            child = step(s, d)
            sid = ids.get(child)
            if sid is None:
                if len(states) >= max_states:
                    raise StateCapExceeded(f"{what} exceed {brief(max_states)}")
                sid = ids[child] = len(states)
                states.append(child)
            row.append(sid)
        delta.append(tuple(row))
    return Dfao(p=p, start=0, delta=tuple(delta), tau=tuple(map(output, states)))


def build_dfao(spec, cfg: ClosureConfig | None = None) -> Dfao:
    """Orbit automaton of the series defined by spec.

    States are the distinct iterated sections (compared at cfg.n_eq
    coefficients), the start state is the series itself, transitions are
    sections, outputs are constant terms.
    """
    cfg = cfg or ClosureConfig()
    expander = PathExpander(spec)
    first = expander.series((), cfg.n_eq).truncate(cfg.n_eq).coeffs
    paths = {first: ()}  # each state's coefficients -> the path that found it

    def step(coeffs, d):
        path = paths[coeffs] + (d,)
        child = expander.series(path, cfg.n_eq).truncate(cfg.n_eq).coeffs
        paths.setdefault(child, path)
        return child

    return _walk(spec.p, first, step, lambda coeffs: coeffs[0], cfg.max_states, "orbit states")


def dfao_from_linear(rep: KernelRepresentation, max_states: int = DEFAULT_MAX_STATES) -> Dfao:
    """Automaton over the reachable row vectors of the linear machine.

    States are the alpha vectors reachable from alpha0 under the digit
    matrices; the output of alpha is alpha . b0.
    """
    return _walk(
        rep.p,
        rep.alpha0,
        lambda alpha, d: alpha_step(rep, alpha, d),
        lambda alpha: alpha_output(rep, alpha),
        max_states,
        "reachable vectors",
    )


def minimize(a: Dfao) -> Dfao:
    """The minimum-state machine with the same outputs on every digit
    string: Moore partition refinement over every state, starting from
    the partition by tau, then the classes reachable from the start.  A
    state's class depends only on the states it reaches, so unreachable
    states split no reachable ones.  The result is numbered by _walk(),
    so isomorphic inputs minimize to equal machines.
    """
    cls = a.tau
    while True:
        # normalize class labels to 0..k-1 by first occurrence
        signatures = {}
        fresh = [
            signatures.setdefault((cls[s], tuple(cls[t] for t in a.delta[s])), len(signatures))
            for s in range(a.n_states)
        ]
        if len(signatures) == len(set(cls)):
            break
        cls = fresh

    # any state of a class stands for it: they agree on tau and on the
    # classes they reach
    member = {c: s for s, c in enumerate(cls)}
    return _walk(
        a.p,
        cls[a.start],
        lambda c, d: cls[a.delta[member[c]][d]],
        lambda c: a.tau[member[c]],
        len(member),
        "classes",
    )


# The split works in words below P = p^k, the largest power of p at most
# _WORD_MAX; each word becomes its k digits through a table of P bytes
# objects.  _WORD_BASES keeps (P, table) per p for the life of the
# process: at most eleven tables (the primes below 32, the only ones with
# k >= 2) of at most _WORD_MAX entries each; a larger p keeps (p, None).
_WORD_MAX = 1024
_WORD_BASES = {}


def _word_base(p: int) -> tuple:
    """Build and keep _WORD_BASES[p] = (P, table), where P = p^k is the
    largest power of p at most _WORD_MAX and table[w] holds the k base-p
    digits of w < P, least significant first, as bytes; the table is
    None where k = 1.  Callers look in _WORD_BASES first."""
    if p * p > _WORD_MAX:
        entry = (p, None)
    else:
        table = [b""]
        while len(table) * p <= _WORD_MAX:
            # the new digit d is the high one: entry d * len(table) + i
            table = [t + bytes((d,)) for d in range(p) for t in table]
        entry = (len(table), table)
    _WORD_BASES[p] = entry
    return entry


def to_digits_lsd(n: str, p: int) -> list:
    """Base-p digits of a decimal string, least significant first.

    The string is read by finite_field.parse_natural(), for any length.
    The value is then split, level by level, into words below P = p^k,
    the largest power of p at most 1024: every chunk is cut by P^(2^i)
    into a low and a high half, from the top power down to single words.
    Its top levels are a few big-int divisions, schoolbook in CPython
    3.11 and so quadratic in the length, while the lower levels cost a
    few list operations per chunk.  At 4549 digits and p = 5 the top
    four levels take about a third of the time, the decimal parse a
    sixth, the three lowest levels a fifth and the table lookups a
    tenth.  Each word but the top one becomes its k digits, high zeros
    included, through one lookup in a table of P bytes objects, built
    once per p (52 KiB for p = 2, the largest); a p above 32 has k = 1
    and no table.  The top word is cut digit by digit, so no trailing
    (high-order) zeros are produced.  "0" gives [], matching query(): no
    digits to read means the start state.  On a 2-vCPU VM an index of
    2133 digits converts in about 0.3-0.4 ms and one of 4549 digits in
    about 1 ms, 1.3 to 2.6 times faster than one divmod per base-p digit
    (the gain is largest for p = 2, which has the most digits per word).
    """
    ensure_prime(p)
    v = parse_natural(n)
    base, table = _WORD_BASES.get(p) or _word_base(p)
    # powers P^(2^i) up to the first that surely squares past v: one of
    # b bits squares to at least 2^(2b - 2)
    pows = [base]
    while 2 * pows[-1].bit_length() - 2 < v.bit_length():
        pows.append(pows[-1] * pows[-1])
    # words least significant first, no zero word on top
    words = [v]
    for q in reversed(pows):
        highs = [c // q for c in words]
        split = [0] * (2 * len(words))
        split[0::2] = [c - h * q for c, h in zip(words, highs)]
        split[1::2] = highs
        if not highs[-1]:
            split.pop()
        words = split
    v = words.pop()
    digits = list(b"".join(map(table.__getitem__, words))) if table else words
    # the top word goes digit by digit
    while v:
        v, d = divmod(v, p)
        digits.append(d)
    return digits


def query(machine, n: str) -> int:
    """The n-th output, a residue in [0, p): feed the base-p digits of n
    (LSD first) through machine, which may be a Dfao or a
    KernelRepresentation."""
    digits = to_digits_lsd(n, machine.p)
    if isinstance(machine, KernelRepresentation):
        alpha = machine.alpha0
        for d in digits:
            alpha = alpha_step(machine, alpha, d)
        return alpha_output(machine, alpha)
    state = machine.start
    for d in digits:
        state = machine.delta[state][d]
    return machine.tau[state]


def export_dot(a: Dfao) -> str:
    """Graphviz rendering: node q{id}/{output}, an arrow from an
    anonymous point into the start state, and parallel edges merged with
    comma-separated digit labels."""
    lines = [
        "digraph dfao {",
        "  rankdir=LR;",
        "  __start [shape=point];",
        f"  __start -> q{a.start};",
    ]
    for s in range(a.n_states):
        lines.append(f'  q{s} [shape=circle, label="q{s}/{a.tau[s]}"];')
    for s in range(a.n_states):
        by_target = {}
        for d in range(a.p):
            by_target.setdefault(a.delta[s][d], []).append(str(d))
        for target in sorted(by_target):
            label = ",".join(by_target[target])
            lines.append(f'  q{s} -> q{target} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def dfao_to_json(a: Dfao) -> str:
    """Serialize to the dfao-v1 schema (compact, key order fixed)."""
    doc = {
        "format": FORMAT_TAG,
        "p": a.p,
        "digit_order": "lsd",
        "start": a.start,
        "states": [
            {"output": a.tau[s], "next": list(a.delta[s])} for s in range(a.n_states)
        ],
    }
    return json.dumps(doc, separators=(",", ":"))


def dfao_from_json(text: str) -> Dfao:
    """Parse a dfao-v1 document; every violation is a SchemaError.  Only
    the JSON shape is checked here; the values go to the Dfao
    constructor as they are, and its ValueError becomes the SchemaError."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integer literals past the
        # int(str) limit; RecursionError covers nesting past the stack
        raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object")
    if doc.get("format") != FORMAT_TAG:
        raise SchemaError(f"unknown format tag {brief(doc.get('format'))}")
    if doc.get("digit_order") != "lsd":
        raise SchemaError(f"unsupported digit order {brief(doc.get('digit_order'))}")
    states = doc.get("states")
    if not isinstance(states, list):
        raise SchemaError("states must be a list")
    for s, entry in enumerate(states):
        if not isinstance(entry, dict) or not isinstance(entry.get("next"), list):
            raise SchemaError(f"state {s} must be an object with a next list")
    try:
        return Dfao(
            p=doc.get("p"),
            start=doc.get("start"),
            delta=tuple(tuple(entry["next"]) for entry in states),
            tau=tuple(entry.get("output") for entry in states),
        )
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
