"""Golden test: every `polyzeta` example in the README's CLI section, plus
the stuffle antipode of y1 y1, keeps its exit code and its exact stdout."""

import json
import shlex
from pathlib import Path

import pytest

from polyzeta.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

# (exit code, stdout) of each README example, in README order.
README_EXPECTED = [
    (0, "y₃² + y₅y₁ + y₂y₃y₁ + y₃y₁y₂ + y₃y₂y₁\n"),
    (0, '[{"axiom": "bialgebra", "status": "ok", "checked": 547}, '
        '{"axiom": "antipode", "status": "ok", "checked": 121}]\n'),
    (0, '[{"kind": "x0"}, {"kind": "xform", "color": "1/2", "tbar": "1/5"}, '
        '{"kind": "x0"}, {"kind": "x0"}, '
        '{"kind": "xform", "color": "1/6", "tbar": "0/1"}]\n'),
    (0, "Z(s=(3,3); xi=(2/3,-1/2); t=(0,0)) + Z(s=(5,1); xi=(1/3,-1); t=(0,0))"
        " + Z(s=(2,3,1); xi=(1/2,2/3,-1); t=(0,0,0))"
        " + Z(s=(3,1,2); xi=(2/3,-1,1/2); t=(0,0,0))"
        " + Z(s=(3,2,1); xi=(2/3,1/2,-1); t=(0,0,0))\n"),
    (0, '{"value": {"re": 0.5822405264650125, "im": 0.0}, '
        '"error": 4.301734440270864e-13, "n_used": 64, "converged": true}\n'),
    (0, '{"lhs": {"re": -0.35328547552361195, "im": 0.0}, '
        '"rhs": {"re": -0.353285475523612, "im": 0.0}, '
        '"residual": 5.551115123125783e-17, "tolerance": 1e-08, "ok": true, '
        '"n_used": 128, "converged": true}\n'),
]


def readme_examples() -> list:
    """argv lists of the `polyzeta ...` lines in the README's sh blocks,
    with backslash continuations joined."""
    commands, in_sh, pending = [], False, ""
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_sh = line.strip() == "```sh"
            continue
        if not in_sh:
            continue
        pending += line.rstrip("\\").strip() + " "
        if line.endswith("\\"):
            continue
        argv = shlex.split(pending, comments=True)
        pending = ""
        if argv and argv[0] == "polyzeta":
            commands.append(argv[1:])
    return commands


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_readme_lists_every_example_checked_here():
    assert len(readme_examples()) == len(README_EXPECTED)


@pytest.mark.parametrize("index", range(len(README_EXPECTED)))
def test_readme_example_output_is_unchanged(capsys, index):
    assert run(capsys, readme_examples()[index]) == README_EXPECTED[index]


def test_stuffle_antipode_pretty(capsys):
    y1 = {"kind": "indexed", "family": "y", "index": 1}
    argv = ["antipode", "--product", "stuffle", "--word", json.dumps([y1, y1]),
            "--format", "pretty"]
    assert run(capsys, argv) == (0, "y₂ + y₁²\n")
