"""Smoke test of tools/outcome_digest.py, the outcome-identity recorder."""

import importlib
import importlib.util
import json
import re
from pathlib import Path

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
    assert re.fullmatch(
        r"ladder seed 1: [0-9a-f]{16} over 35 solves and 11 face ranges\n", first
    )
    assert tool.main(argv) == 0
    assert capsys.readouterr().out == first
    # The wrappers are gone once the digest is taken.
    lp = importlib.import_module("wlpcert.lp")
    for name in tool.SOLVE_MODULES:
        assert importlib.import_module(name).solve is lp.solve
    certify_module = importlib.import_module("wlpcert.certify")
    assert certify_module.optimal_face_range is lp.optimal_face_range


def test_certify_solves_take_no_phase1_pivot(monkeypatch):
    # Every LP that certify solves on the seed-1 ladder and small inputs,
    # face probes included, starts from a feasible basis and ends OPTIMAL,
    # or from one that leaves a row negative and ends INFEASIBLE with no
    # pivot. No solve needs a phase 1.
    certify_module = importlib.import_module("wlpcert.certify")
    exact_check = certify_module.branch_and_bound_ip
    infeasible, checked = [], set()
    with _tool().recorded_solves() as solves:

        def recorded_check(inst):
            before = len(solves)
            result = exact_check(inst)
            checked.update(range(before, len(solves)))
            return result

        monkeypatch.setattr(certify_module, "branch_and_bound_ip", recorded_check)
        for workload in ("ladder", "small"):
            for case in workload_cases(workload, 1, monkeypatch):
                before = len(solves)
                certify(case.instance, case.config, weights=case.weights)
                infeasible += [
                    (case.name, i in checked, sol.iterations)
                    for i, sol in enumerate(solves[before:], before)
                    if sol.status is Status.INFEASIBLE
                ]
    assert len(solves) == 35 + 584
    assert all(sol.status in (Status.OPTIMAL, Status.INFEASIBLE) for sol in solves)
    # One branch-and-bound node of the exact check that refutes
    # random_2x2_s35's certificate: x = 1 leaves one of its rows uncovered.
    assert infeasible == [("random_2x2_s35", True, 0)]


def test_outcomes_match_record(capsys):
    # Every benchmark input's outcome at seeds 1 2 101 303 equals the one
    # recorded in tests/data/outcomes.txt (a --list run). A change that
    # moves an outcome regenerates the file with --list and lists the moved
    # inputs in CHANGES.md; on failure the message shows them.
    tool = _tool()
    record = Path(__file__).resolve().parent / "data" / "outcomes.txt"
    argv = ["--workload", "ladder", "small", "mis", "--seed", "1", "2", "101", "303"]
    assert tool.main(argv + ["--compare", str(record)]) == 0
    out = capsys.readouterr().out
    assert out == "0 of 496 outcomes differ\n", out


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
    assert len(records) == 35 + 11
    assert last.startswith("ladder seed 1: ")
    assert last.endswith(" over 35 solves and 11 face ranges\n")
    solves, faces = records[:35], records[35:]
    name, record = solves[0].split(maxsplit=1)
    assert name == "0"
    assert sorted(json.loads(record)) == ["basis", "iterations", "status", "value", "x"]
    # Each face range certify computes, in call order, as the repr of its
    # ranges: one per weighted LP that reached an optimum.
    face_name, face = faces[0].split(maxsplit=1)
    assert [line.split()[0] for line in faces] == [f"face{i}" for i in range(11)]
    assert json.loads(face)["ranges"].startswith("[(")
    path = tmp_path / "before.txt"
    path.write_text(saved, encoding="utf-8")
    compare = argv + ["--compare", str(path)]
    assert tool.main(compare) == 0
    assert capsys.readouterr().out == "0 of 46 solves and face ranges differ\n"

    # Move one saved record's iterations, move the first face range and
    # add a solve the run lacks: each is printed with the fields that
    # moved.
    edited = json.loads(record)
    edited["iterations"] += 1
    extra = dict(edited, status="infeasible")
    moved_face = {"ranges": "[]"}
    lines = [f"  0 {json.dumps(edited, sort_keys=True)}\n", *solves[1:]]
    lines += [f"  face0 {json.dumps(moved_face)}\n", *faces[1:]]
    lines += [f"  35 {json.dumps(extra, sort_keys=True)}\n", last]
    path.write_text("".join(lines), encoding="utf-8")
    assert tool.main(compare) == 0
    assert capsys.readouterr().out.splitlines() == [
        "ladder seed 1 solve 0: iterations",
        f"  before {json.dumps(edited, sort_keys=True)}",
        f"  after  {record.strip()}",
        "ladder seed 1 face0: ranges",
        f"  before {json.dumps(moved_face)}",
        f"  after  {face.strip()}",
        "ladder seed 1 solve 35: basis iterations status value x",
        f"  before {json.dumps(extra, sort_keys=True)}",
        "  after  null",
        "3 of 47 solves and face ranges differ",
    ]


def test_traced_counts_match_recorded_solves(monkeypatch):
    # The benchmark's tracer and recorded_solves both hook the `solve`
    # globals. Their eta, face and weighted solve and pivot counts must
    # agree on a traced ladder pass, and be above 0: a program LP or face
    # probe that stopped calling `solve` by name would read 0 in both.
    monkeypatch.syspath_prepend(TOOL.parent.parent / "perfbench")
    run = importlib.import_module("run")
    spans = importlib.import_module("spans")
    cases = workload_cases("ladder", 1, monkeypatch)
    _, attempts, trace_spans, root = run.traced_pass(run.LibraryRunner(cases))
    assert [a.error for a in attempts] == [None] * len(cases)
    layer = spans.pass_metrics(trace_spans, root)

    recorded = {}
    goodness = importlib.import_module("wlpcert.goodness")
    module = importlib.import_module("wlpcert.certify")
    with _tool().recorded_solves() as solves:

        def counted(category, fn):
            def call(*args, **kwargs):
                before = len(solves)
                result = fn(*args, **kwargs)
                for sol in solves[before:]:
                    for kind, value in (("solves", 1), ("pivots", sol.iterations)):
                        key = f"lp.{kind}.{category}"
                        recorded[key] = recorded.get(key, 0) + value
                return result

            return call

        monkeypatch.setattr(goodness, "eta_j", counted("eta", goodness.eta_j))
        monkeypatch.setattr(
            module, "solve_weighted_lp", counted("weighted", module.solve_weighted_lp)
        )
        monkeypatch.setattr(
            module, "optimal_face_range", counted("face", module.optimal_face_range)
        )
        for case in cases:
            certify(case.instance, case.config, weights=case.weights)
    assert sorted(recorded) == [
        "lp.pivots.eta", "lp.pivots.face", "lp.pivots.weighted",
        "lp.solves.eta", "lp.solves.face", "lp.solves.weighted",
    ]
    assert {name: layer[name] for name in recorded} == recorded
    assert all(value > 0 for value in recorded.values())
