"""The README's `$ latsym ...` console examples, run against the current code.

Exact subcommands must print the README text byte for byte; `cert` up to its
elided `notes:` line.  `envelope` and `correlate` print floats from a
numerical search, which are compared to 1e-9 relative.  `intensities` reads
the measurement file shown in the README's `csv` block.  The `## Library`
Python block runs too, and its `# result` comments are checked.
"""

import ast
import math
import re
import shlex
import shutil
from pathlib import Path

import pytest

from latsym.cli import main

ROOT = Path(__file__).resolve().parents[1]
FLOAT_COMMANDS = ("envelope", "correlate")


def readme_examples():
    """(command line, expected stdout) for every `$ latsym` line in a console block."""
    text = (ROOT / "README.md").read_text()
    examples = []
    for block in re.findall(r"```console\n(.*?)```", text, re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, output = chunk.partition("\n")
            examples.append((command, output))
    return examples


EXAMPLES = readme_examples()
RUN_CSV = re.search(r"```csv\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)
LIBRARY = re.search(r"## Library\n\n```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)


def test_readme_has_examples_of_every_kind():
    kinds = {shlex.split(c)[1] for c, _ in EXAMPLES}
    assert {
        "cospectral", "reduce", "cert", "scan-boundary", "evolve", "intensities", *FLOAT_COMMANDS
    } <= kinds


def _same_floats(got: str, want: str) -> bool:
    got_tokens = re.split(r"([ =\n])", got)
    want_tokens = re.split(r"([ =\n])", want)
    if len(got_tokens) != len(want_tokens):
        return False
    for g, w in zip(got_tokens, want_tokens):
        try:
            g_val, w_val = float(g), float(w)
        except ValueError:
            if g != w:
                return False
            continue
        if not math.isclose(g_val, w_val, rel_tol=1e-9):
            return False
    return True


@pytest.mark.parametrize(
    "command, expected", EXAMPLES, ids=[shlex.split(c)[1] for c, _ in EXAMPLES]
)
def test_readme_example(command, expected, tmp_path, monkeypatch, capsys):
    (tmp_path / "networks").mkdir()
    shutil.copy(ROOT / "networks" / "ninesite.json", tmp_path / "networks")
    (tmp_path / "run.csv").write_text(RUN_CSV)
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(command)
    assert argv[0] == "latsym"
    assert main(argv[1:]) == 0
    got = capsys.readouterr().out
    if argv[1] in FLOAT_COMMANDS:
        assert _same_floats(got, expected), got
    elif argv[1] == "cert":
        head, _, _ = expected.partition("notes: ...\n")
        assert got.startswith(head + "notes: ")
    else:
        assert got == expected


def test_readme_library_block(capsys):
    """Each statement of the block runs in turn.  An expression statement with a
    trailing comment must equal the comment's literal, or print its text."""
    lines = LIBRARY.splitlines()
    namespace, checked = {}, []
    for stmt in ast.parse(LIBRARY).body:
        want = lines[stmt.end_lineno - 1].partition("# ")[2].strip()
        capsys.readouterr()
        if not (isinstance(stmt, ast.Expr) and want):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        call = stmt.value
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "print":
            assert capsys.readouterr().out == want + "\n"
        else:
            assert value == ast.literal_eval(want)
        checked.append(want)
    assert checked == ["True", "{4, 8, 9}", "LITERAL_CONDITION_FAILED", "True", "8"]
