"""Smoke test of tools/ab_passes.py, the in-process A/B pass timer."""

import importlib.util
import re
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab_passes.py"


def _tool():
    spec = importlib.util.spec_from_file_location("ab_passes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _argv(parent, change, workload="ladder", passes=4):
    return [
        "--parent", str(parent), "--change", str(change),
        "--workload", workload, "--seed", "1", "--passes", str(passes),
    ]


def test_same_tree_on_both_sides(capsys):
    assert _tool().main(_argv(ROOT, ROOT)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "ladder seed 1: 5 inputs, same answers, 4 passes per side"
    assert re.fullmatch(r"parent median \d+\.\d{6} s \(IQR \d+\.\d{6} s\)", lines[1])
    assert re.fullmatch(r"change median \d+\.\d{6} s", lines[2])
    assert re.fullmatch(r"ratio \d+\.\d{3}", lines[3])
    assert re.fullmatch(r"change faster in [0-4] of 4 passes", lines[4])
    assert lines[5] in ("rule: met", "rule: not met")
    assert len(lines) == 6


PARENT_PASSES = [1.0, 1.2] * 5  # median 1.1 s, IQR 0.2 s


@pytest.mark.parametrize(
    "change, rule",
    [
        ([0.5] * 10, "met"),
        ([0.5] * 9 + [1.3], "met"),  # 9 of 10 won
        ([0.5] * 8 + [1.3] * 2, "not met"),  # 8 of 10 won
        ([t - 0.15 for t in PARENT_PASSES], "not met"),  # 10 won, within the IQR
        (PARENT_PASSES, "not met"),  # ties win nothing
    ],
)
def test_rule_line(capsys, monkeypatch, change, rule):
    # Pass times stand in for the timed passes, in the order each side runs.
    tool = _tool()
    times = {"ab_parent": iter(PARENT_PASSES), "ab_change": iter(change)}
    monkeypatch.setattr(
        tool, "timed_pass", lambda package, cases: next(times[package.__name__])
    )
    assert tool.main(_argv(ROOT, ROOT, passes=10)) == 0
    lines = capsys.readouterr().out.splitlines()
    wins = sum(c < p for p, c in zip(PARENT_PASSES, change))
    assert lines[4] == f"change faster in {wins} of 10 passes"
    assert lines[5] == f"rule: {rule}"


def test_mis_certifies_each_graph(capsys):
    # One input per graph: five cycles, G(12, 0.3) and G(20, 0.3).
    assert _tool().main(_argv(ROOT, ROOT, "mis", 2)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "mis seed 1: 7 inputs, same answers, 2 passes per side"
    assert re.fullmatch(r"change faster in [0-2] of 2 passes", lines[4])
    assert lines[5] in ("rule: met", "rule: not met")
    assert len(lines) == 6


def test_different_answers_stop_the_run(capsys, tmp_path):
    # A tree whose recovery is all zeros answers differently on every
    # ladder input, so no pass is timed.
    shutil.copytree(
        ROOT / "src" / "wlpcert",
        tmp_path / "src" / "wlpcert",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    (tmp_path / "perfbench").mkdir()
    shutil.copy(ROOT / "perfbench" / "workloads.py", tmp_path / "perfbench")
    # certify looks ceil_recover up when it runs, so a later definition
    # replaces the imported one.
    with open(tmp_path / "src" / "wlpcert" / "certify.py", "a", encoding="utf-8") as fh:
        fh.write("\nceil_recover = lambda x: np.zeros(np.size(x), dtype=int)\n")
    assert _tool().main(_argv(ROOT, tmp_path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the answers differ on ladder_3x3_s1, ")
