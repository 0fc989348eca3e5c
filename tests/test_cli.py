import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import christol
from christol import (
    BranchSpec,
    ClosureConfig,
    build_dfao,
    dfao_from_json,
    dfao_to_json,
    minimize,
    orbit_closure,
    parse_bivariate,
    query,
    recheck,
)
from christol import cli
from christol.cli import cli_main
from christol.examples import thue_morse_spec
from support import byte_identity_cases, close_roots_case, parity

TM_ARGS = ["--p", "2", "--poly", "(1+x)^3*y^2 + (1+x)^2*y + x", "--seed", "0"]


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand(capsys):
    code, out, err = run(capsys, "expand", *TM_ARGS, "--terms", "8")
    assert code == 0
    assert out == "0,1,1,0,1,0,0,1\n"
    assert err == ""


def test_expand_without_seed_when_unique(capsys):
    code, out, _ = run(
        capsys, "expand", "--p", "2", "--poly", "(1+x)*y + 1", "--terms", "5"
    )
    assert code == 0
    assert out == "1,1,1,1,1\n"


def test_expand_ambiguous_branch_is_a_computation_error(capsys):
    code, out, err = run(
        capsys, "expand", "--p", "2", "--poly", "(1+x)^3*y^2 + (1+x)^2*y + x",
        "--terms", "4",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_expand_a_root_with_singular_slope(capsys):
    # dQ/dy vanishes at the start; a seed one coefficient past the
    # valuation of dQ/dy picks a simple root
    argv = ["expand", "--p", "3", "--poly", "y^2 + x*y + x^3", "--terms", "8"]
    for seed, head in (("0,0", "0,0,2,2,1,1,1,0"), ("0,2", "0,2,1,1,2,2,2,0")):
        assert run(capsys, *argv, "--seed", seed) == (0, head + "\n", "")
    code, out, err = run(capsys, *argv, "--seed", "0")
    assert (code, out) == (1, "")
    assert err == "error: coefficient 1 is not determined by the seed\n"


def test_expand_bad_polynomial_text(capsys):
    code, _, err = run(capsys, "expand", "--p", "2", "--poly", "y++", "--terms", "4")
    assert code == 1
    assert "position" in err


def test_expand_composite_modulus(capsys):
    code, _, err = run(capsys, "expand", "--p", "6", "--poly", "y+x", "--terms", "4")
    assert code == 1
    assert err.startswith("error:")


def test_weed(capsys):
    code, out, err = run(
        capsys, "weed", "--p", "2", "--series", "1,0,1,0,1,0", "--degree", "1"
    )
    assert code == 0
    assert out == "1,1,1\n"
    assert err == ""


def test_weed_degree_out_of_range(capsys):
    code, _, err = run(
        capsys, "weed", "--p", "2", "--series", "1,0,1", "--degree", "2"
    )
    assert code == 1
    assert "error:" in err


def test_weed_bad_series_literal(capsys):
    code, _, err = run(capsys, "weed", "--p", "2", "--series", "1,,0", "--degree", "0")
    assert code == 1
    assert err.startswith("error:")


def test_entries_of_5000_digits(capsys, low_int_limit):
    # 5000 ones is 2 mod 3: a series entry, a seed entry, a coefficient
    # and an exponent of that length are read like short ones
    ones = "1" * 5000
    assert run(capsys, "weed", "--p", "3", "--series", ones + ",1,2", "--degree", "1") == (
        0, "1\n", "",
    )
    assert run(capsys, "expand", "--p", "3", "--poly", "y+1", "--seed", ones, "--terms", "3") == (
        0, "2,0,0\n", "",
    )
    for poly in (ones + "*y+1", "2^" + ones + "*y+1", "y^" + "0" * 4999 + "1+2"):
        assert run(capsys, "expand", "--p", "3", "--poly", poly, "--terms", "3") == (
            0, "1,0,0\n", "",
        )


def test_bad_seed_is_a_usage_error(capsys):
    for seed in ("a", "1,,0", "-1", " ", "1_0", "١"):
        code, out, err = run(capsys, "expand", *TM_ARGS[:4], "--seed", seed, "--terms", "4")
        assert (code, out) == (2, "")
        assert err.startswith("usage error: bad seed:") and err.count("\n") == 1


def test_deep_parentheses_are_a_syntax_error(capsys, tmp_path):
    out_path = str(tmp_path / "deep.json")
    for depth in (101, 3000):
        poly = "(" * depth + "y+1" + ")" * depth
        code, out, err = run(capsys, "automaton", "--p", "2", "--poly", poly, "--out", out_path)
        assert (code, out) == (1, "")
        assert err == "error: parentheses nested deeper than 100 (at position 100)\n"
    poly = "(" * 100 + "y+1" + ")" * 100
    assert run(capsys, "automaton", "--p", "2", "--poly", poly, "--out", out_path) == (0, "2\n", "")


def test_python_dash_m_runs_the_cli():
    # the README's expand example, through the package's __main__
    src = str(Path(christol.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["expand", "--p", "2", "--poly", "(1+x)^3*y^2 + (1+x)^2*y + x", "--seed", "0", "--terms", "8"]
    done = subprocess.run(
        [sys.executable, "-m", "christol", *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "0,1,1,0,1,0,0,1\n", "")


def test_automaton_writes_json_and_dot(capsys, tmp_path):
    out_path = tmp_path / "tm.json"
    dot_path = tmp_path / "tm.dot"
    code, out, err = run(
        capsys, "automaton", *TM_ARGS,
        "--out", str(out_path), "--dot", str(dot_path),
    )
    assert code == 0
    assert out == "2\n"
    assert err == ""
    text = out_path.read_text()
    assert text.endswith("\n")
    machine = dfao_from_json(text)
    assert machine == build_dfao(thue_morse_spec())
    dot = dot_path.read_text()
    assert dot.startswith("digraph dfao {")
    assert "__start -> q0;" in dot


def test_automaton_minimize_flag(capsys, tmp_path):
    out_path = tmp_path / "m.json"
    code, out, _ = run(
        capsys, "automaton", *TM_ARGS, "--minimize", "--out", str(out_path)
    )
    assert code == 0
    assert out == "2\n"  # already minimal
    # the flag is accepted but changes nothing: the machine is minimal
    for p, poly, seed in byte_identity_cases(random.Random(7)):
        argv = ["automaton", "--p", str(p), "--poly", poly, "--seed", seed]
        written = []
        for flag in ([], ["--minimize"]):
            path = tmp_path / f"m{len(written)}.json"
            code, out, err = run(capsys, *argv, *flag, "--out", str(path))
            assert (code, err) == (0, ""), (p, poly, err)
            written.append((out, path.read_bytes()))
        assert written[0] == written[1], (p, poly)


def test_automaton_state_cap(capsys, tmp_path):
    code, _, err = run(
        capsys, "automaton", *TM_ARGS,
        "--out", str(tmp_path / "x.json"), "--max-states", "1",
    )
    assert code == 1
    assert "error:" in err


def test_automaton_unwritable_path(capsys, tmp_path):
    code, _, err = run(
        capsys, "automaton", *TM_ARGS, "--out", str(tmp_path / "no" / "dir.json")
    )
    assert code == 1
    assert err.startswith("error:")


def test_automaton_at_n_eq_8_writes_the_exact_machine(capsys, tmp_path):
    # n_eq = 8 cannot separate the sections of 1/(1+x^11): the closure at
    # that precision fails recheck at doubled precision.  The exact
    # construction compares no series, so --n-eq changes nothing
    out_path = tmp_path / "x11.json"
    dot_path = tmp_path / "x11.dot"
    poly = "(1+x^11)*y + 1"
    args = ["automaton", "--p", "2", "--poly", poly, "--out", str(out_path), "--dot", str(dot_path)]
    written = []
    for flags in (["--n-eq", "8"], []):
        assert run(capsys, *args, *flags) == (0, "11\n", "")
        written.append((out_path.read_bytes(), dot_path.read_bytes()))
    assert written[0] == written[1]
    machine = dfao_from_json(out_path.read_text())
    for n in range(1024):
        assert query(machine, str(n)) == int(n % 11 == 0), n
    spec = BranchSpec(parse_bivariate(poly, 2))
    assert machine == minimize(build_dfao(spec))
    assert not recheck(orbit_closure(spec, ClosureConfig(n_eq=8)), spec)


def test_automaton_does_not_walk_the_orbit(capsys, tmp_path, monkeypatch):
    def orbit_walk(*_args):
        raise AssertionError("build_dfao is a test oracle only")

    monkeypatch.setattr(cli, "build_dfao", orbit_walk)
    code, out, _ = run(capsys, "automaton", *TM_ARGS, "--out", str(tmp_path / "tm.json"))
    assert (code, out) == (0, "2\n")


def test_automaton_writes_the_orbit_machine_byte_for_byte(capsys, tmp_path):
    # the linear route, unminimized, numbers its states exactly as the
    # independent orbit walk does
    rng = random.Random(20261018)
    out_path = tmp_path / "m.json"
    for p, poly, seed in byte_identity_cases(rng):
        n_eq = rng.choice((None, 16, 32))
        argv = ["automaton", "--p", str(p), "--poly", poly, "--seed", seed]
        argv += ["--n-eq", str(n_eq)] if n_eq else []
        code, out, err = run(capsys, *argv, "--out", str(out_path))
        assert (code, err) == (0, ""), (p, poly, n_eq, err)
        spec = BranchSpec(parse_bivariate(poly, p), tuple(int(s) for s in seed.split(",") if s))
        orbit = build_dfao(spec, ClosureConfig(n_eq=n_eq or 64))
        assert out_path.read_text() == dfao_to_json(orbit) + "\n", (p, poly, n_eq)
        assert out == f"{orbit.n_states}\n"


def test_automaton_for_roots_with_singular_slope(capsys, tmp_path):
    out_path = tmp_path / "m.json"
    argv = ["automaton", "--p", "3", "--poly", "y^2 + x*y + x^3", "--out", str(out_path)]
    for seed in ("0,0", "0,2"):
        assert run(capsys, *argv, "--seed", seed) == (0, "6\n", "")
    # (y - r)(y - r - u*x^v)(...), seeded with r mod x^(v+1): the machine
    # is the orbit oracle's, and it spells out the polynomial r
    rng = random.Random(20261019)
    for p in (2, 3, 5, 7):
        for v in (1, 2, 3, 4):
            text, r, seed = close_roots_case(rng, p, v)
            argv = ["automaton", "--p", str(p), "--poly", text, "--seed", ",".join(map(str, seed))]
            code, out, err = run(capsys, *argv, "--out", str(out_path))
            assert (code, err) == (0, ""), (text, err)
            oracle = minimize(build_dfao(BranchSpec(parse_bivariate(text, p), seed)))
            assert out_path.read_text() == dfao_to_json(oracle) + "\n", text
            assert out == f"{oracle.n_states}\n"
            for n in range(4 * len(r)):
                assert query(oracle, str(n)) == (r[n] if n < len(r) else 0)


def test_automaton_for_zero_roots(capsys, tmp_path):
    out_path = tmp_path / "zero.json"
    code, out, err = run(capsys, "automaton", "--p", "3", "--poly", "y", "--out", str(out_path))
    assert (code, out, err) == (0, "1\n", "")
    machine = dfao_from_json(out_path.read_text())
    assert (machine.delta, machine.tau) == (((0, 0, 0),), (0,))
    # the root of y + x^64 vanishes below x^64: the closure at the default
    # n_eq sees zero and fails recheck, the exact construction does not
    out_path = tmp_path / "x64.json"
    args = ["automaton", "--p", "2", "--poly", "y + x^64", "--out", str(out_path)]
    assert run(capsys, *args) == (0, "9\n", "")
    written = out_path.read_bytes()
    machine = dfao_from_json(written.decode())
    for n in range(1024):
        assert query(machine, str(n)) == int(n == 64), n
    assert run(capsys, *args, "--n-eq", "128") == (0, "9\n", "")
    assert out_path.read_bytes() == written
    spec = BranchSpec(parse_bivariate("y + x^64", 2))
    assert machine == minimize(build_dfao(spec, ClosureConfig(n_eq=128)))
    assert not recheck(orbit_closure(spec), spec)


# The dfao-v1 text the CLI writes, numbered breadth-first with digits
# ascending.  The oracles number their states the same way, so comparing
# with them cannot catch a change of numbering; these literals can.
RECORDED_MACHINES = [
    (2, "(1+x)^3*y^2 + (1+x)^2*y + x", "0",
     '{"format":"dfao-v1","p":2,"digit_order":"lsd","start":0,"states":['
     '{"output":0,"next":[0,1]},{"output":1,"next":[1,0]}]}'),
    (3, "(1+2*x)*y^2 + 2", "1",
     '{"format":"dfao-v1","p":3,"digit_order":"lsd","start":0,"states":['
     '{"output":1,"next":[0,1,2]},{"output":2,"next":[1,0,2]},{"output":0,"next":[2,2,2]}]}'),
    (2, "(1+x)*y + 1", "",
     '{"format":"dfao-v1","p":2,"digit_order":"lsd","start":0,"states":['
     '{"output":1,"next":[0,0]}]}'),
    (2, "(1+x^11)*y + 1", "",
     '{"format":"dfao-v1","p":2,"digit_order":"lsd","start":0,"states":['
     '{"output":1,"next":[0,1]},{"output":0,"next":[2,3]},{"output":0,"next":[4,5]},'
     '{"output":0,"next":[6,7]},{"output":0,"next":[3,8]},{"output":0,"next":[9,4]},'
     '{"output":0,"next":[7,0]},{"output":0,"next":[10,2]},{"output":0,"next":[5,10]},'
     '{"output":0,"next":[1,9]},{"output":0,"next":[8,6]}]}'),
    (2, "y + x^64", "",
     '{"format":"dfao-v1","p":2,"digit_order":"lsd","start":0,"states":['
     '{"output":0,"next":[1,2]},{"output":0,"next":[3,2]},{"output":0,"next":[2,2]},'
     '{"output":0,"next":[4,2]},{"output":0,"next":[5,2]},{"output":0,"next":[6,2]},'
     '{"output":0,"next":[7,2]},{"output":0,"next":[2,8]},{"output":1,"next":[8,2]}]}'),
]


def test_automaton_writes_the_recorded_machines(capsys, tmp_path):
    out_path = tmp_path / "m.json"
    for p, poly, seed, text in RECORDED_MACHINES:
        argv = ["automaton", "--p", str(p), "--poly", poly, "--seed", seed, "--out", str(out_path)]
        states = len(json.loads(text)["states"])
        assert run(capsys, *argv) == (0, f"{states}\n", ""), poly
        assert out_path.read_text() == text + "\n", poly
    # 36 states over F_5, recorded by digest
    argv = ["automaton", "--p", "5", "--poly", "(2+x)*y^2 + (1+x^2)*y + x", "--seed", "0"]
    assert run(capsys, *argv, "--out", str(out_path)) == (0, "36\n", "")
    digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
    assert digest == "f81b7613369aacec291bd2b929cef25d0665528ac29559e58a7bef50b27d8d5b"


def test_query_round_trip(capsys, tmp_path):
    out_path = tmp_path / "tm.json"
    run(capsys, "automaton", *TM_ARGS, "--out", str(out_path))
    for n in (0, 1, 6, 7, 1000):
        code, out, _ = run(capsys, "query", "--automaton", str(out_path), "--n", str(n))
        assert code == 0
        assert out == f"{parity(n)}\n"


def test_query_huge_index(capsys, tmp_path):
    out_path = tmp_path / "tm.json"
    run(capsys, "automaton", *TM_ARGS, "--out", str(out_path))
    n = "123456789012345678901234567890123456789"
    code, out, _ = run(capsys, "query", "--automaton", str(out_path), "--n", n)
    assert code == 0
    assert out == f"{parity(int(n))}\n"


def decimal_by_chunks(v: int) -> str:
    """str(v) built from 500-digit chunks, so it works under any
    int(str) limit and shares no code with the library."""
    chunks = []
    while v:
        v, r = divmod(v, 10**500)
        chunks.append(f"{r:0500d}")
    return "".join(reversed(chunks)).lstrip("0") or "0"


def query_thue_morse_at_16000_digits(capsys, tmp_path):
    out_path = tmp_path / "tm.json"
    run(capsys, "automaton", *TM_ARGS, "--out", str(out_path))
    v = random.Random(1600).randrange(10**15999, 10**16000)
    n = decimal_by_chunks(v)
    assert len(n) == 16000
    started = time.perf_counter()
    code, out, err = run(capsys, "query", "--automaton", str(out_path), "--n", n)
    elapsed = time.perf_counter() - started
    assert (code, out, err) == (0, f"{parity(v)}\n", "")
    # short division took tens of seconds at this length
    assert elapsed < 5.0


def test_query_index_beyond_default_int_limit(capsys, tmp_path):
    query_thue_morse_at_16000_digits(capsys, tmp_path)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="interpreter has no int(str) limit"
)
def test_query_does_not_depend_on_int_limit(capsys, tmp_path, low_int_limit):
    query_thue_morse_at_16000_digits(capsys, tmp_path)


def test_query_rejects_negative_index(capsys, tmp_path):
    out_path = tmp_path / "tm.json"
    run(capsys, "automaton", *TM_ARGS, "--out", str(out_path))
    code, out, err = run(capsys, "query", "--automaton", str(out_path), "--n", "-5")
    assert code == 2
    assert out == ""
    assert "usage error:" in err


def test_query_rejects_junk_index(capsys, tmp_path):
    out_path = tmp_path / "tm.json"
    run(capsys, "automaton", *TM_ARGS, "--out", str(out_path))
    for bad in ("", "12a", "0x1f", "+7", "1_000", "²"):
        code, _, err = run(capsys, "query", "--automaton", str(out_path), "--n", bad)
        assert code == 2
        assert "usage error:" in err


def test_query_missing_file(capsys, tmp_path):
    code, _, err = run(
        capsys, "query", "--automaton", str(tmp_path / "absent.json"), "--n", "3"
    )
    assert code == 1
    assert err.startswith("error:")


def test_query_malformed_document(capsys, tmp_path):
    # besides a wrong tag: an unhashable modulus, an int past the
    # int(str) limit and nesting past the recursion limit; each ends in
    # one error line, no traceback
    good = '{"format":"dfao-v1","p":2,"digit_order":"lsd","start":0,"states":[{"output":1,"next":[0,0]}]}'
    bad = tmp_path / "bad.json"
    for text in (
        '{"format":"dfao-v9"}',
        good.replace('"p":2', '"p":[2]'),
        good.replace('"start":0', '"start":' + "1" * 5000),
        "[" * 100_000 + "]" * 100_000,
    ):
        bad.write_text(text)
        code, out, err = run(capsys, "query", "--automaton", str(bad), "--n", "3")
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1, err[:80]


def test_query_error_line_is_bounded(capsys, tmp_path):
    # the offending value is shown cut short: a modulus nested 990 lists
    # deep, a 4000-digit start state and a 4000-digit modulus
    good = '{"format":"dfao-v1","p":2,"digit_order":"lsd","start":0,"states":[{"output":1,"next":[0,0]}]}'
    bad = tmp_path / "bad.json"
    for text in (
        good.replace('"p":2', '"p":' + "[" * 990 + "2" + "]" * 990),
        good.replace('"start":0', '"start":' + "7" * 4000),
        good.replace('"p":2', '"p":' + "7" * 4000),
    ):
        bad.write_text(text)
        code, out, err = run(capsys, "query", "--automaton", str(bad), "--n", "3")
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1, err[:80]
        assert len(err) < 200, err[:80]


def test_algebraize(capsys, tmp_path):
    series_file = tmp_path / "ones.txt"
    series_file.write_text("1,1,1,1,1,1,1,1\n")
    code, out, err = run(
        capsys, "algebraize", "--p", "2",
        "--series-file", str(series_file), "--dx", "1", "--dy", "1",
    )
    assert code == 0
    assert out == "1 + y + x*y\n"
    assert err == ""


def test_algebraize_no_relation(capsys, tmp_path):
    series_file = tmp_path / "tm.txt"
    f = [str(parity(n)) for n in range(64)]
    series_file.write_text(",".join(f))
    code, _, err = run(
        capsys, "algebraize", "--p", "2",
        "--series-file", str(series_file), "--dx", "1", "--dy", "1",
    )
    assert code == 1
    assert "error:" in err


def test_algebraize_insufficient_precision(capsys, tmp_path):
    series_file = tmp_path / "short.txt"
    series_file.write_text("1,1,1")
    code, _, err = run(
        capsys, "algebraize", "--p", "2",
        "--series-file", str(series_file), "--dx", "1", "--dy", "1",
    )
    assert code == 1
    assert "error:" in err


def test_algebraize_refuses_bounds_past_the_degree_caps(capsys, tmp_path):
    # the relation 1 + y + x^70*y of 1/(1+x^70) is past the caps, so
    # automaton --poly would refuse its text: algebraize refuses the bound
    series_file = tmp_path / "long.txt"
    series_file.write_text(",".join("1" if n % 70 == 0 else "0" for n in range(400)))
    code, out, err = run(
        capsys, "algebraize", "--p", "2",
        "--series-file", str(series_file), "--dx", "70", "--dy", "1",
    )
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1 and "exceed the caps (64, 64)" in err


def test_usage_errors_from_argparse(capsys):
    assert run(capsys, "expand", "--p", "2")[0] == 2  # missing required
    assert run(capsys, "frobnicate")[0] == 2  # unknown subcommand
    assert run(capsys)[0] == 2  # no subcommand
    assert run(capsys, "expand", "--p", "two", "--poly", "y", "--terms", "4")[0] == 2
    # argparse quotes whole values: a long one is cut out of the middle of
    # the one line, which keeps the choices; a short line keeps every byte
    # but the line breaks in the raw words it joins, which show escaped
    for argv, word in ((["x" * 5000], "selftest"), (["selftest", "x" * 5000], "xxx"),
                       (["frobnicate"], "'frobnicate'"), (["selftest", "extra"], "extra"),
                       (["selftest", "a\nb"], "a\\nb"), (["selftest", "a\rb"], "a\\rb")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert "\r" not in err
        assert len(err.encode()) <= 200 and word in err, err[:200]
        assert ("..." in err) == (len(argv[-1]) == 5000)


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "expand", "--help")[0] == 0


def test_stdout_is_deterministic(capsys, tmp_path):
    a = run(capsys, "expand", *TM_ARGS, "--terms", "64")
    b = run(capsys, "expand", *TM_ARGS, "--terms", "64")
    assert a == b
    pa = tmp_path / "a.json"
    pb = tmp_path / "b.json"
    run(capsys, "automaton", *TM_ARGS, "--out", str(pa))
    run(capsys, "automaton", *TM_ARGS, "--out", str(pb))
    assert pa.read_bytes() == pb.read_bytes()


def test_selftest(capsys):
    code, out, err = run(capsys, "selftest")
    assert (code, err) == (0, "")
    assert out == (
        "digit-parity: minimized flavors agree with 2 states: ok\n"
        "digit-parity: outputs match the oracle for n < 2048: ok\n"
        "digit-parity: recheck at doubled precision: ok\n"
        "digit-parity: serialization round trip: ok\n"
        "lucas: minimized flavors agree with 3 states: ok\n"
        "lucas: outputs match the oracle for n < 2187: ok\n"
        "lucas: recheck at doubled precision: ok\n"
        "lucas: serialization round trip: ok\n"
        "all-ones: minimized flavors agree with 1 states: ok\n"
        "all-ones: outputs match the oracle for n < 512: ok\n"
        "all-ones: recheck at doubled precision: ok\n"
        "all-ones: serialization round trip: ok\n"
        "selftest: ok\n"
    )


def test_automaton_json_matches_library(capsys, tmp_path):
    out_path = tmp_path / "cb.json"
    code, out, _ = run(
        capsys, "automaton", "--p", "3", "--poly", "(1+2*x)*y^2 + 2",
        "--seed", "1", "--out", str(out_path),
    )
    assert code == 0
    assert out == "3\n"
    doc = json.loads(out_path.read_text())
    assert doc["format"] == "dfao-v1"
    assert doc["p"] == 3
    assert len(doc["states"]) == 3


# Every subcommand: its line in `christol --help`, then its options in
# usage order as (option string, metavar or None for a flag, default or
# REQUIRED, help phrase or None)
REQUIRED = object()
SUBCOMMANDS = {
    "expand": ("expand a polynomial branch to N terms", (
        ("--p", "P", REQUIRED, "prime modulus"),
        ("--poly", "POLY", REQUIRED, "bivariate polynomial text"),
        ("--seed", "SEED", "", "comma-separated low-order coefficients"),
        ("--terms", "TERMS", REQUIRED, "number of coefficients"),
    )),
    "weed": ("extract the subsequence a_{p*n+p-1-k}", (
        ("--p", "P", REQUIRED, "prime modulus"),
        ("--series", "SERIES", REQUIRED, "comma-separated coefficients"),
        ("--degree", "DEGREE", REQUIRED, "weeding degree k"),
    )),
    "automaton": ("build the coefficient automaton", (
        ("--p", "P", REQUIRED, "prime modulus"),
        ("--poly", "POLY", REQUIRED, None),
        ("--seed", "SEED", "", None),
        ("--minimize", None, False,
         "accepted for compatibility; the machine written is minimal already"),
        ("--out", "OUT", REQUIRED, "output path for dfao-v1 JSON"),
        ("--dot", "DOT", "", "optional Graphviz output path"),
        ("--n-eq", "N_EQ", 64, "accepted; the construction is exact"),
        ("--max-states", "MAX_STATES", 4096,
         "cap on the basis dimension and on the reachable vectors"),
    )),
    "query": ("coefficient at index n from a saved automaton", (
        ("--automaton", "AUTOMATON", REQUIRED, "dfao-v1 JSON path"),
        ("--n", "N", REQUIRED, "decimal index, any length"),
    )),
    "algebraize": ("guess a defining polynomial for a series", (
        ("--p", "P", REQUIRED, "prime modulus"),
        ("--series-file", "SERIES_FILE", REQUIRED, "file of comma-separated coefficients"),
        ("--dx", "DX", REQUIRED, "x-degree bound"),
        ("--dy", "DY", REQUIRED, "y-degree bound"),
    )),
    "selftest": ("run the embedded oracle suites", ()),
}


def help_page(capsys, *argv):
    """The --help text of argv, whitespace runs folded into one space
    and cut at the first blank line: usage first, the rest second.  The
    line breaks differ between Python versions; the words do not."""
    code, out, err = run(capsys, *argv, "--help")
    assert (code, err) == (0, "")
    usage, rest = out.split("\n\n", 1)
    return " ".join(usage.split()), " ".join(rest.split())


def test_top_level_help_lists_every_subcommand(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    usage, rest = help_page(capsys)
    names = ",".join(SUBCOMMANDS)
    assert usage == f"usage: christol [-h] {{{names}}} ..."
    assert rest.startswith(
        "Automata for coefficient sequences of algebraic power series over F_p."
    )
    listing = " ".join(f"{name} {summary}" for name, (summary, _) in SUBCOMMANDS.items())
    assert f"{{{names}}} {listing} " in rest
    assert rest.endswith("-h, --help show this help message and exit")


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_subcommand_help_names_every_option(capsys, monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")
    options = SUBCOMMANDS[name][1]
    usage, rest = help_page(capsys, name)
    parts = []
    for flag, metavar, default, _ in options:
        part = f"{flag} {metavar}" if metavar else flag
        parts.append(part if default is REQUIRED else f"[{part}]")
    assert usage == " ".join([f"usage: christol {name} [-h]", *parts])
    described = ["-h, --help show this help message and exit"]
    for flag, metavar, _, phrase in options:
        described += [f"{flag} {metavar}" if metavar else flag] + ([phrase] if phrase else [])
    assert rest.endswith(" ".join(described))
    # the defaults, as a command line naming only the required options reads them
    argv = [name]
    for flag, _, default, _ in options:
        if default is REQUIRED:
            argv += [flag, "2"]
    args = cli._build_parser().parse_args(argv)
    for flag, _, default, _ in options:
        if default is not REQUIRED:
            assert getattr(args, flag[2:].replace("-", "_")) == default, flag


# Every integer option, with the subcommand that reads it; a valid value
# of each option sits in INTEGER_ARGV
INTEGER_OPTIONS = {
    "--p": "expand", "--terms": "expand", "--degree": "weed",
    "--n-eq": "automaton", "--max-states": "automaton",
    "--dx": "algebraize", "--dy": "algebraize",
}


def integer_argv(tmp_path, option, value=None):
    """A command line of the subcommand that reads option, with its value
    replaced by value where one is given."""
    series = tmp_path / "ones.txt"
    series.write_text("1,1,1,1,1,1,1,1\n")
    argv = {
        "expand": ["--p", "2", "--poly", "(1+x)*y + 1", "--terms", "4"],
        "weed": ["--p", "3", "--series", "0,1,2", "--degree", "1"],
        "automaton": ["--p", "2", "--poly", "(1+x)*y + 1", "--out", str(tmp_path / "m.json"),
                      "--n-eq", "8", "--max-states", "16"],
        "algebraize": ["--p", "2", "--series-file", str(series), "--dx", "1", "--dy", "1"],
    }[INTEGER_OPTIONS[option]]
    if value is not None:
        argv[argv.index(option) + 1] = value
    return [INTEGER_OPTIONS[option], *argv]


@pytest.mark.parametrize("option", INTEGER_OPTIONS)
def test_integer_option_command_lines_run(capsys, tmp_path, option):
    code, out, err = run(capsys, *integer_argv(tmp_path, option))
    assert (code, err) == (0, "") and out


@pytest.mark.parametrize(
    "value", [" 2", "+2", "2_0", "٢", "-3", "9" * 2500 + "_" + "9" * 2500],
    ids=["space", "plus", "underscore", "arabic-indic", "minus", "5000-digits"],
)
@pytest.mark.parametrize("option", INTEGER_OPTIONS)
def test_integer_options_are_plain_decimal_naturals(capsys, tmp_path, option, value):
    # int() takes all but the minus sign; parse_natural, the one reader of
    # decimal naturals, takes none of them, and the value shows cut short
    code, out, err = run(capsys, *integer_argv(tmp_path, option, value))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.endswith("\n"), err[:200]
    assert len(err.encode()) <= 200, err[:200]
    assert option in err


# What an error names where the value is too long to show
TOO_LONG_TO_SHOW = {
    "--p": "outside the supported range [2, 65536]",
    "--degree": "outside [0, 3)",
    "--dx": "too small for bounds",
    "--dy": "too small for bounds",
}


@pytest.mark.parametrize("option, value", [
    ("--p", "4"), ("--n-eq", "7"), ("--max-states", "0"), ("--dy", "0"), ("--degree", "3"),
    *(pytest.param(option, "1" * 5000, id=f"{option}-5000-digits") for option in TOO_LONG_TO_SHOW),
    pytest.param("--p", "7" * 700, id="--p-700-digits"),
])
def test_integer_options_out_of_range_are_computation_errors(capsys, tmp_path, low_int_limit, option, value):
    # under the lowest int(str) limit: a value past it shows as its size
    code, out, err = run(capsys, *integer_argv(tmp_path, option, value))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert len(err.encode()) <= 200, err[:200]
    if len(value) > 600:
        assert TOO_LONG_TO_SHOW[option] in err and "<int of " in err, err


def test_expand_refuses_a_seed_past_the_term_count(capsys, tmp_path):
    # the seed's last entry has no branch; automaton refuses it, and so
    # must expand, however few terms it is asked for
    seed = ["--seed", "0,1,1,1"]
    failure = (1, "", "error: no coefficient 3 extends the partial solution\n")
    for terms in ("0", "2", "4", "8"):
        assert run(capsys, "expand", *TM_ARGS[:4], *seed, "--terms", terms) == failure
    assert run(capsys, "automaton", *TM_ARGS[:4], *seed, "--out", str(tmp_path / "m.json")) == failure
    assert run(capsys, "expand", *TM_ARGS[:4], "--seed", "0,1,1,0", "--terms", "2") == (0, "0,1\n", "")
    # a seed that stops before the root is determined, and a Q with no
    # root at the origin, are refused at every --terms too, 0 included
    for spec, message in (
        (["--p", "5", "--poly", "y^2+4*x^2+4*x^3", "--seed", "0"], "coefficient 1 is not determined by the seed"),
        (["--p", "3", "--poly", "y^2+1"], "no coefficient 0 extends the partial solution"),
    ):
        failure = (1, "", f"error: {message}\n")
        for terms in ("0", "1", "2"):
            assert run(capsys, "expand", *spec, "--terms", terms) == failure
        assert run(capsys, "automaton", *spec, "--out", str(tmp_path / "m.json")) == failure
