"""Smoke test of tools/outcome_digest.py, the outcome-identity recorder."""

import importlib
import importlib.util
import json
import re
from pathlib import Path

import numpy as np

from wlpcert import Status, certify

from conftest import workload_cases

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


def test_solves_digest_is_repeatable(capsys):
    tool = _tool()
    argv = ["--workload", "ladder", "--seed", "1", "--solves"]
    assert tool.main(argv) == 0
    first = capsys.readouterr().out
    assert re.fullmatch(r"ladder seed 1: [0-9a-f]{16} over 18 solves\n", first)
    assert tool.main(argv) == 0
    assert capsys.readouterr().out == first
    # The wrappers are gone once the digest is taken.
    lp = importlib.import_module("wlpcert.lp")
    for name in tool.SOLVE_MODULES:
        assert importlib.import_module(name).solve is lp.solve


def test_certify_solves_take_no_phase1_pivot(monkeypatch):
    # Every LP that certify solves on the seed-1 ladder and small inputs
    # starts from a feasible basis, or from one whose negative rows prove
    # the LP infeasible before phase 1 pivots. A start that needs a phase-1
    # pivot fails here.
    lp = importlib.import_module("wlpcert.lp")
    original, phase1 = lp._phase1, []

    def recording(T, basis, max_iters):
        negative = bool(np.any(T[:, -1] < -lp.PIVOT_TOL))
        result = original(T, basis, max_iters)
        phase1.append((negative, result[0], result[1]))
        return result

    monkeypatch.setattr(lp, "_phase1", recording)
    infeasible = []
    with _tool().recorded_solves() as solves:
        for workload in ("ladder", "small"):
            for case in workload_cases(workload, 1, monkeypatch):
                before = len(solves)
                certify(case.instance, case.config, weights=case.weights)
                infeasible += [
                    case.name
                    for sol in solves[before:]
                    if sol.status is Status.INFEASIBLE
                ]
    assert len(solves) == len(phase1) == 18 + 423
    # One branch-and-bound node of the exact check that refutes
    # random_2x2_s35's certificate: x = 1 leaves one of its rows uncovered,
    # and phase 1 ends INFEASIBLE without a pivot.
    assert infeasible == ["random_2x2_s35"]
    assert [p for p in phase1 if p[0]] == [(True, Status.INFEASIBLE, 0)]


def test_outcomes_are_pinned(capsys):
    # A change that moves an outcome updates these pins and lists the
    # moved inputs (--list) in CHANGES.md.
    tool = _tool()
    assert tool.main(["--workload", "ladder", "small", "mis", "--seed", "1"]) == 0
    assert capsys.readouterr().out == (
        "ladder seed 1: 2497cbf021a76e58\n"
        "small seed 1: 0f90f30f7a07642a\n"
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


def test_compare_prints_only_moved_inputs(capsys, tmp_path):
    tool = _tool()
    assert tool.main(["--workload", "ladder", "--seed", "1", "--list"]) == 0
    saved = capsys.readouterr().out
    path = tmp_path / "before.txt"
    path.write_text(saved, encoding="utf-8")
    argv = ["--workload", "ladder", "--seed", "1", "--compare", str(path)]
    assert tool.main(argv) == 0
    assert capsys.readouterr().out == "0 of 5 outcomes differ\n"

    # Edit one saved outcome: only that input is printed, with the saved
    # outcome as before and the run's as after.
    lines = saved.splitlines(keepends=True)
    name, outcome = lines[1].split(maxsplit=1)
    edited = json.loads(outcome)
    edited["passes"] = 0
    lines[1] = f"  {name} {json.dumps(edited, sort_keys=True)}\n"
    path.write_text("".join(lines), encoding="utf-8")
    assert tool.main(argv) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"ladder seed 1 {name}",
        f"  before {json.dumps(edited, sort_keys=True)}",
        f"  after  {outcome.strip()}",
        "1 of 5 outcomes differ",
    ]


def test_solves_compare_prints_only_moved_solves(capsys, tmp_path):
    tool = _tool()
    argv = ["--workload", "ladder", "--seed", "1", "--solves"]
    assert tool.main(argv + ["--list"]) == 0
    saved = capsys.readouterr().out
    *records, last = saved.splitlines(keepends=True)
    assert len(records) == 18
    assert last.startswith("ladder seed 1: ") and last.endswith(" over 18 solves\n")
    name, record = records[0].split(maxsplit=1)
    assert name == "0"
    assert sorted(json.loads(record)) == ["basis", "iterations", "status", "value", "x"]
    path = tmp_path / "before.txt"
    path.write_text(saved, encoding="utf-8")
    compare = argv + ["--compare", str(path)]
    assert tool.main(compare) == 0
    assert capsys.readouterr().out == "0 of 18 solves differ\n"

    # Move one saved record's iterations and add a solve the run lacks:
    # each is printed with the fields that moved.
    edited = json.loads(record)
    edited["iterations"] += 1
    extra = dict(edited, status="infeasible")
    lines = [f"  0 {json.dumps(edited, sort_keys=True)}\n", *records[1:]]
    lines += [f"  18 {json.dumps(extra, sort_keys=True)}\n", last]
    path.write_text("".join(lines), encoding="utf-8")
    assert tool.main(compare) == 0
    assert capsys.readouterr().out.splitlines() == [
        "ladder seed 1 solve 0: iterations",
        f"  before {json.dumps(edited, sort_keys=True)}",
        f"  after  {record.strip()}",
        "ladder seed 1 solve 18: basis iterations status value x",
        f"  before {json.dumps(extra, sort_keys=True)}",
        "  after  null",
        "2 of 19 solves differ",
    ]
