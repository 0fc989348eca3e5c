"""The README's examples, run as written: every `$ christol` block
through cli_main, and the library tour through exec."""

import ast
import re
import shlex
from pathlib import Path

from christol.cli import cli_main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```[a-z]*\n(.*?)^```$", README, re.M | re.S)


def cli_examples():
    """(argv, expected stdout) for every `$ christol` line, in README
    order, with backslash continuations joined."""
    out = []
    for block in BLOCKS:
        if not block.startswith("$ christol "):
            continue
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("$ "):
                out.append((shlex.split(line[2:])[1:], ""))
            else:
                argv, shown = out[-1]
                out[-1] = (argv, shown + line + "\n")
    return out


def test_cli_examples_print_what_the_readme_shows(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert "`ones.txt` holds 32 ones" in README
    (tmp_path / "ones.txt").write_text(",".join(["1"] * 32))
    examples = cli_examples()
    assert [argv[0] for argv, _ in examples] == [
        "expand", "weed", "automaton", "query", "query", "algebraize", "selftest", "expand",
    ]
    for argv, shown in examples:
        code = cli_main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (0, shown, ""), argv
    assert (tmp_path / "tm.json").exists() and (tmp_path / "tm.dot").exists()


def test_library_tour_gives_the_values_its_comments_state():
    (tour,) = [block for block in BLOCKS if block.startswith("from christol import")]
    namespace, values = {}, {}
    for stmt in ast.parse(tour).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "tour", "eval")
            values[ast.get_source_segment(tour, stmt)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([stmt], []), "tour", "exec"), namespace)
    assert values["recheck(oracle, spec)"] is True
    answer = values['query(a, "1000000000000")']
    assert (type(answer), answer) == (int, 1)
    assert values["guess_polynomial(f, 3, 2)"] == namespace["q"]
    assert len(namespace["a"].delta) == 2
