"""tools/records.py, the records of outcomes, solves and command output."""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from wlpcert import Status, certify

from conftest import workload_cases

TOOL = Path(__file__).resolve().parent.parent / "tools" / "records.py"
DATA = Path(__file__).resolve().parent / "data"


def _tool():
    spec = importlib.util.spec_from_file_location("records", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outcomes_match_record(capsys):
    # Every benchmark input's outcome at seeds 1 2 101 303 equals the one
    # recorded in tests/data/outcomes.txt. A change that moves an outcome
    # regenerates the file and lists the moved inputs in CHANGES.md; on
    # failure the message shows them.
    argv = ["outcomes", "--workload", "ladder", "small", "mis"]
    argv += ["--seed", "1", "2", "101", "303", "--compare", str(DATA / "outcomes.txt")]
    code = _tool().main(argv)
    out = capsys.readouterr().out
    assert (code, out) == (0, "0 of 496 outcomes records differ\n"), out


def test_outputs_match_record(capsys):
    # Every command of the tool's RUNS prints what tests/data/cli_outputs.txt
    # records, exit code and stderr included, timings masked. A change that
    # moves a report regenerates the file and lists the moved commands in
    # CHANGES.md; on failure the message shows them.
    code = _tool().main(["cli", "--compare", str(DATA / "cli_outputs.txt")])
    out = capsys.readouterr().out
    assert (code, out) == (0, "0 of 14 cli records differ\n"), out


def test_compare_counts_only_the_run_subset(capsys):
    # The saved record's other workloads and seeds are not counted as
    # missing from a run over one workload at one seed.
    argv = ["outcomes", "--workload", "ladder", "--seed", "1"]
    assert _tool().main(argv + ["--compare", str(DATA / "outcomes.txt")]) == 0
    assert capsys.readouterr().out == "0 of 5 outcomes records differ\n"


def test_compare_prints_only_moved_inputs(capsys, tmp_path):
    tool = _tool()
    argv = ["outcomes", "--workload", "ladder", "--seed", "1"]
    assert tool.main(argv) == 0
    saved = capsys.readouterr().out
    lines = saved.splitlines(keepends=True)
    assert lines[::2] == [
        f"$ ladder 1 ladder_{size}_s1\n"
        for size in ("3x3", "5x8", "8x12", "10x16", "15x24")
    ]
    path = tmp_path / "before.txt"
    path.write_text(saved, encoding="utf-8")
    compare = argv + ["--compare", str(path)]
    assert tool.main(compare) == 0
    assert capsys.readouterr().out == "0 of 5 outcomes records differ\n"

    # Edit one saved outcome: only that input is printed, as a diff from
    # the saved outcome to the run's, and the compare fails.
    edited = json.loads(lines[1])
    edited["passes"] = 0
    lines[1] = json.dumps(edited, sort_keys=True) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    assert tool.main(compare) == 1
    assert capsys.readouterr().out.splitlines() == [
        lines[0].strip(),
        "  @@ -1 +1 @@",
        f"  -{lines[1].strip()}",
        f"  +{saved.splitlines()[1]}",
        "1 of 5 outcomes records differ",
    ]


def test_solves_compare_prints_only_moved_solves(capsys, tmp_path):
    tool = _tool()
    argv = ["solves", "--workload", "ladder", "--seed", "1"]
    assert tool.main(argv) == 0
    saved = capsys.readouterr().out
    # The wrappers are gone once the record is taken.
    lp = importlib.import_module("wlpcert.lp")
    for name in tool.SOLVE_MODULES:
        assert importlib.import_module(name).solve is lp.solve
    certify_module = importlib.import_module("wlpcert.certify")
    assert certify_module.optimal_face_range is lp.optimal_face_range

    lines = saved.splitlines(keepends=True)
    keys = [line.strip() for line in lines[::2]]
    assert keys == [f"$ ladder 1 solve {i}" for i in range(35)] + [
        f"$ ladder 1 face {i}" for i in range(11)
    ]
    record = json.loads(lines[1])
    assert sorted(record) == ["basis", "iterations", "status", "value", "x"]
    # Each face range certify computes, in call order, as the repr of its
    # ranges: one per weighted LP that reached an optimum.
    assert json.loads(lines[71])["ranges"].startswith("[(")
    path = tmp_path / "before.txt"
    path.write_text(saved, encoding="utf-8")
    compare = argv + ["--compare", str(path)]
    assert tool.main(compare) == 0
    assert capsys.readouterr().out == "0 of 46 solves records differ\n"

    # Move one saved solve's iterations, move the first face range and add
    # a solve the run lacks: each is printed as a diff.
    edited = dict(record, iterations=record["iterations"] + 1)
    extra = json.dumps(dict(record, status="infeasible"), sort_keys=True)
    lines[1] = json.dumps(edited, sort_keys=True) + "\n"
    lines[71] = '{"ranges": "[]"}\n'
    lines += ["$ ladder 1 solve 35\n", extra + "\n"]
    path.write_text("".join(lines), encoding="utf-8")
    assert tool.main(compare) == 1
    assert capsys.readouterr().out.splitlines() == [
        "$ ladder 1 solve 0",
        "  @@ -1 +1 @@",
        f"  -{lines[1].strip()}",
        f"  +{saved.splitlines()[1]}",
        "$ ladder 1 face 0",
        "  @@ -1 +1 @@",
        '  -{"ranges": "[]"}',
        f"  +{saved.splitlines()[71]}",
        "$ ladder 1 solve 35",
        "  @@ -1 +0,0 @@",
        f"  -{extra}",
        "3 of 47 solves records differ",
    ]


def test_compare_prints_only_moved_commands(capsys, tmp_path):
    tool = _tool()
    assert tool.main(["cli"]) == 0
    saved = capsys.readouterr().out

    # Edit one saved line and drop the last command: each is printed, the
    # edited line as a diff, the missing command with every line added.
    lines = saved.splitlines(keepends=True)
    edited = lines.index("  out| value: 2  optima: 3\n")
    lines[edited] = "  out| value: 3  optima: 3\n"
    gen = lines.index("$ wlpcert gen --m 3 --n 4 --seed 7\n")
    path = tmp_path / "before.txt"
    path.write_text("".join(lines[:gen]), encoding="utf-8")
    assert tool.main(["cli", "--compare", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:5] == [
        "$ wlpcert brute-force --input ex1.txt",
        "  @@ -1,2 +1,2 @@",
        "   exit 0",
        "  -  out| value: 3  optima: 3",
        "  +  out| value: 2  optima: 3",
    ]
    assert out[5] == "$ wlpcert gen --m 3 --n 4 --seed 7"
    assert out[6:8] == ["  @@ -0,0 +1,6 @@", "  +exit 0"]
    assert out[-1] == "2 of 14 cli records differ"


def test_read_record_names_a_line_before_the_first_header(tmp_path):
    path = tmp_path / "record.txt"
    path.write_text("exit 0\n$ wlpcert gen --m 3 --n 4 --seed 7\nexit 0\n")
    with pytest.raises(ValueError, match=r"record.txt:1: .*'exit 0'"):
        _tool().read_record(path)


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
