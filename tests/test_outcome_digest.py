"""Smoke test of tools/outcome_digest.py, the outcome-identity recorder."""

import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "outcome_digest.py"


def _tool():
    spec = importlib.util.spec_from_file_location("outcome_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ladder_digest_is_repeatable(capsys):
    tool = _tool()
    argv = ["--workload", "ladder", "--seed", "1"]
    assert tool.main(argv) == 0
    first = capsys.readouterr().out
    assert re.fullmatch(r"ladder seed 1: [0-9a-f]{16}\n", first)
    assert tool.main(argv) == 0
    assert capsys.readouterr().out == first


def test_outcomes_are_pinned(capsys):
    # A change that moves an outcome updates these pins and lists the
    # moved inputs (--list) in CHANGES.md.
    tool = _tool()
    assert tool.main(["--workload", "ladder", "small", "mis", "--seed", "1"]) == 0
    assert capsys.readouterr().out == (
        "ladder seed 1: 69bbd75a937b674d\n"
        "small seed 1: 0b771dc0b78b03ac\n"
        "mis seed 1: 8fb79dcb0db32945\n"
    )


def test_list_prints_each_input(capsys):
    tool = _tool()
    assert tool.main(["--workload", "ladder", "--seed", "1", "--list"]) == 0
    *inputs, last = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in inputs] == [
        "ladder_3x3_s1",
        "ladder_5x8_s1",
        "ladder_8x12_s1",
        "ladder_10x16_s1",
        "ladder_15x24_s1",
    ]
    assert last.startswith("ladder seed 1: ")
