import gc
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from wlpcert import (
    LpError,
    branch_and_bound_ip,
    cli,
    format_instance,
    random_instance,
)
from wlpcert.cli import main

CERTIFY_MODULE = importlib.import_module("wlpcert.certify")

from _oracles import full_loop_certify
from conftest import EX1_TEXT, REFUTED_INSTANCES

EX2_TEXT = """\
3 3
1 0 0
1 1 0
0 1 1
0 1.5 0.5
"""

P3_GRAPH = """\
p 3
e 1 2
e 2 3
"""

K3_GRAPH = """\
p 3
e 1 2
e 1 3
e 2 3
"""


@pytest.fixture
def ex1_file(tmp_path):
    path = tmp_path / "ex1.txt"
    path.write_text(EX1_TEXT)
    return str(path)


@pytest.fixture
def ex2_file(tmp_path):
    path = tmp_path / "ex2.txt"
    path.write_text(EX2_TEXT)
    return str(path)


class TestCertifyCommand:
    def test_certified_exit_zero(self, ex1_file, capsys):
        code = main(["certify", "--input", ex1_file, "--beta", "0.5625"])
        out = capsys.readouterr().out
        assert code == 0
        assert "certified: True" in out
        assert "recovered: [0, 1, 1]" in out

    def test_not_certified_exit_one(self, ex2_file, capsys):
        code = main(
            ["certify", "--input", ex2_file, "--max-iters", "1"]
        )
        assert code == 1
        assert "certified: False" in capsys.readouterr().out

    def test_uncovered_instance_exit_one(self, tmp_path, capsys):
        # x = 1 leaves the row x0 + x1 >= 3 uncovered, so the weighted LP's
        # start proves it infeasible and the one pass ends on lp_status.
        path = tmp_path / "uncovered.txt"
        path.write_text("1 2\n1 1\n3\n")
        assert main(["certify", "--input", str(path), "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["certified"] is False
        assert [p["reason"] for p in doc["iterations"]] == ["lp_status"]
        assert doc["discrepancies"] == [
            "weighted relaxation ended with status infeasible"
        ]

    def test_json_non_unique_final_pass(self, ex2_file, capsys):
        code = main(
            ["certify", "--input", ex2_file, "--max-iters", "1", "--json"]
        )
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        for key in (
            "beta_bar",
            "beta_used",
            "eta_per_column",
            "eta1",
            "s_star",
            "eta_s_bound",
            "gamma_hat",
            "threshold",
        ):
            assert doc[key] is None, key
        assert doc["certified"] is False
        [entry] = doc["iterations"]
        assert entry["reason"] == "non_unique"
        assert entry["case"] == "multiple_same_sparsity"
        for key in ("eta1", "s_star", "eta_s_bound", "threshold", "certified"):
            assert entry[key] is None, key

    def test_json_reports_weight_fixed_point(self, ex2, ex2_file, capsys):
        # Pass 2's adjusted weights are its own, so the loop stops there
        # and a larger --max-iters cannot help: passes 3-10 of the full
        # loop repeat pass 2.
        assert main(["certify", "--input", ex2_file, "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["discrepancies"] == ["weights repeat from pass 2"]
        passes = doc["iterations"]
        assert len(passes) == 2
        full = cli._report_doc(ex2, full_loop_certify(ex2), {})["iterations"]
        assert len(full) == 10
        assert full[:2] == passes
        assert all(entry == passes[1] for entry in full[2:])

    @pytest.mark.parametrize("command", ["certify", "mis"])
    def test_zero_max_iters_exit_two(self, command, ex1_file, tmp_path, capsys):
        graph = tmp_path / "p3.txt"
        graph.write_text(P3_GRAPH)
        source = ["--input", ex1_file] if command == "certify" else ["--graph", str(graph)]
        with pytest.raises(SystemExit) as exc:
            main([command, *source, "--max-iters", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --max-iters: must be an integer >= 1, not '0'" in err
        assert "max_weight_iterations" not in err

    def test_weights_flag_certifies_example2(self, ex2_file):
        code = main(
            [
                "certify",
                "--input",
                ex2_file,
                "--beta",
                "0.7",
                "--weights",
                "0.5,0.7,0.8",
            ]
        )
        assert code == 0

    def test_missing_file_exit_two(self, tmp_path, capsys):
        code = main(["certify", "--input", str(tmp_path / "nope.txt")])
        assert code == 2
        assert "error: cannot read" in capsys.readouterr().err

    def test_malformed_file_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1 oops\n1 1\n1 1\n")
        code = main(["certify", "--input", str(path)])
        assert code == 2
        assert "line" in capsys.readouterr().err

    def test_tol_rejected(self, ex1_file):
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--input", ex1_file, "--tol", "0"])
        assert exc.value.code == 2

    def test_lp_failure_exit_three(self, ex1_file, capsys, monkeypatch):
        def failing_certify(*args, **kwargs):
            raise LpError("face probe ended with status iteration_limit")

        monkeypatch.setattr(cli, "certify", failing_certify)
        code = main(["certify", "--input", ex1_file])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("beta", ["-1", "0", "nan", "inf"])
    def test_bad_beta_exit_two(self, beta, ex2_file, capsys):
        # One non-unique pass on example 2 runs no verdict, so only the
        # config check can reject the override.
        code = main(
            ["certify", "--input", ex2_file, "--beta", beta, "--max-iters", "1"]
        )
        assert code == 2
        assert "beta override must be positive" in capsys.readouterr().err

    def test_bad_weights_list_exit_two(self, ex1_file):
        assert main(["certify", "--input", ex1_file, "--weights", "0.5"]) == 2
        assert (
            main(["certify", "--input", ex1_file, "--weights", "a,b,c"]) == 2
        )

    def test_json_schema(self, ex1, ex1_file, capsys):
        main(["certify", "--input", ex1_file, "--beta", "0.5625", "--json"])
        doc = json.loads(capsys.readouterr().out)
        for key in (
            "schema_version",
            "instance",
            "beta_bar",
            "beta_used",
            "eta_per_column",
            "eta1",
            "s_star",
            "eta_s_bound",
            "gamma_hat",
            "threshold",
            "certified",
            "case",
            "weights",
            "lp",
            "recovered",
            "brute_force",
            "iterations",
            "discrepancies",
            "timings_ms",
        ):
            assert key in doc
        assert doc["schema_version"] == "3"
        assert doc["instance"] == {"m": 3, "n": 3, "digest": ex1.digest()}
        assert doc["certified"] is True
        assert doc["recovered"] == [0, 1, 1]
        assert doc["s_star"] == 2
        assert doc["eta1"] == pytest.approx(0.21875, abs=1e-9)
        assert set(doc["lp"]) == {"x", "value"}
        np.testing.assert_allclose(doc["lp"]["x"], [0, 0.5, 0.5], atol=1e-8)
        assert doc["brute_force"]["value"] == 2
        assert doc["brute_force"]["verified"] is True

    @pytest.mark.parametrize("shape", REFUTED_INSTANCES)
    def test_refuted_certificate_exit_one(self, shape, tmp_path, capsys):
        path = tmp_path / "inst.txt"
        path.write_text(format_instance(random_instance(*shape)))
        assert main(["certify", "--input", str(path), "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["certified"] is False
        assert doc["brute_force"]["verified"] is False

    def test_json_and_text_agree(self, ex1_file, capsys):
        main(["certify", "--input", ex1_file, "--beta", "0.5625", "--json"])
        doc = json.loads(capsys.readouterr().out)
        main(["certify", "--input", ex1_file, "--beta", "0.5625"])
        text = capsys.readouterr().out
        assert f"eta1: {doc['eta1']}" in text
        assert f"s_star: {doc['s_star']}" in text


class TestProcessEntry:
    """run, the process entry, freezes the objects made at import before
    main; main, which also runs in-process, freezes nothing."""

    @pytest.fixture
    def args(self, ex1_file):
        return ["certify", "--input", ex1_file, "--beta", "0.5625", "--json"]

    def test_main_freezes_nothing(self, args, capsys):
        before = gc.get_freeze_count()
        assert main(args) == 0
        assert gc.get_freeze_count() == before

    def test_run_freezes_then_runs_main(self, args, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["wlpcert", *args])
        try:
            assert cli.run() == 0
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()
        assert json.loads(capsys.readouterr().out)["certified"] is True

    def test_process_prints_main_document(self, args, capsys):
        assert main(args) == 0
        doc = json.loads(capsys.readouterr().out)
        src = str(Path(cli.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "wlpcert.cli", *args],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            check=False,
        )
        assert proc.returncode == 0, proc.stderr
        child = json.loads(proc.stdout)
        del child["timings_ms"], doc["timings_ms"]
        assert child == doc


class TestEtaCommand:
    def test_values(self, ex1_file, capsys):
        code = main(["eta", "--input", ex1_file, "--beta", "0.5625", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["eta1"] == pytest.approx(0.21875, abs=1e-9)
        assert doc["s_star"] == 2
        assert doc["beta_used"] == pytest.approx(0.5625)

    def test_default_beta_is_beta_bar(self, ex2_file, capsys):
        main(["eta", "--input", ex2_file, "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["beta_used"] == doc["beta_bar"] == pytest.approx(0.5)
        assert doc["eta1"] == pytest.approx(0.5, abs=1e-9)

    def test_nan_beta_exit_two(self, ex1_file, capsys):
        assert main(["eta", "--input", ex1_file, "--beta", "nan"]) == 2
        assert "box bound must be positive" in capsys.readouterr().err

    def test_infinite_beta_exit_two(self, ex1_file, capsys):
        assert main(["eta", "--input", ex1_file, "--beta", "inf"]) == 2
        assert "box bound must be positive and finite" in capsys.readouterr().err

    def test_gamma_hat(self, ex1_file, capsys):
        # max(0, max_j c_j - beta ||A1 e_j||_1) = max(0, 1 - 0.25 * 3)
        main(["eta", "--input", ex1_file, "--beta", "0.25", "--json"])
        assert json.loads(capsys.readouterr().out)["gamma_hat"] == pytest.approx(
            0.25
        )
        main(["eta", "--input", ex1_file, "--beta", "0.25"])
        assert "gamma_hat: 0.25" in capsys.readouterr().out


class TestGammaHatCommand:
    def test_command_removed(self, ex1_file):
        with pytest.raises(SystemExit) as exc:
            main(["gamma-hat", "--input", ex1_file])
        assert exc.value.code == 2


class TestBruteForceCommand:
    def test_example1(self, ex1_file, capsys):
        code = main(["brute-force", "--input", ex1_file, "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["brute_force"]["value"] == 2
        assert doc["brute_force"]["optima_count"] == 3

    def test_weight_flags_rejected(self, ex1_file):
        with pytest.raises(SystemExit) as exc:
            main(["brute-force", "--input", ex1_file, "--beta", "1"])
        assert exc.value.code == 2


class TestGenCommand:
    def test_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "inst.txt"
        code = main(
            ["gen", "--m", "3", "--n", "4", "--seed", "7", "--output", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        code = main(["brute-force", "--input", str(out), "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["instance"] == {
            "m": 3,
            "n": 4,
            "digest": random_instance(3, 4, 7).digest(),
        }

    def test_stdout(self, capsys):
        code = main(["gen", "--m", "2", "--n", "2", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "2 2"
        assert len(out.splitlines()) == 4

    def test_unwritable_output_exit_two(self, tmp_path, capsys):
        out = tmp_path / "missing" / "inst.txt"
        code = main(["gen", "--m", "2", "--n", "2", "--output", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: cannot write {out}: No such file or directory\n"
        )


class TestMisCommand:
    def test_path_graph(self, tmp_path, capsys):
        path = tmp_path / "p3.txt"
        path.write_text(P3_GRAPH)
        code = main(["mis", "--graph", str(path), "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["size"] == 2
        assert doc["independent_set"] == [1, 3]

    def test_triangle(self, tmp_path, capsys, monkeypatch):
        # K3 is not certified; the answer comes from branch-and-bound,
        # never from enumeration.
        def no_enumeration(inst):
            raise AssertionError("brute_force_ip called")

        monkeypatch.setattr(cli, "brute_force_ip", no_enumeration)
        monkeypatch.setattr(CERTIFY_MODULE, "brute_force_ip", no_enumeration)
        path = tmp_path / "k3.txt"
        path.write_text(K3_GRAPH)
        code = main(["mis", "--graph", str(path), "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["size"] == 1
        assert doc["source"] == "branch_and_bound"

    def test_odd_cycle_above_guard(self, tmp_path, capsys, monkeypatch):
        # C21's certificate is refuted by branch-and-bound, whose optimum
        # then gives the answer, a maximum independent set of 10, without
        # a second search.
        calls = []

        def counted(inst):
            calls.append(inst.n)
            return branch_and_bound_ip(inst)

        monkeypatch.setattr(cli, "branch_and_bound_ip", counted)
        monkeypatch.setattr(CERTIFY_MODULE, "branch_and_bound_ip", counted)
        path = tmp_path / "c21.txt"
        edges = "".join(f"e {i} {i % 21 + 1}\n" for i in range(1, 22))
        path.write_text("p 21\n" + edges)
        assert main(["mis", "--graph", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["certified"] is False
        assert doc["source"] == "branch_and_bound"
        assert doc["size"] == 10
        assert calls == [21]

    def test_infinite_beta_exit_two(self, tmp_path, capsys):
        path = tmp_path / "p3.txt"
        path.write_text(P3_GRAPH)
        assert main(["mis", "--graph", str(path), "--beta", "inf"]) == 2
        assert "positive and finite" in capsys.readouterr().err

    def test_missing_graph_exit_two(self, tmp_path, capsys):
        assert main(["mis", "--graph", str(tmp_path / "nope.txt")]) == 2
        assert "error: cannot read" in capsys.readouterr().err

    def test_no_verify_rejected(self, tmp_path, ex1_file):
        # Neither command skips the exact check of a certificate.
        path = tmp_path / "p3.txt"
        path.write_text(P3_GRAPH)
        for argv in (
            ["mis", "--graph", str(path), "--no-verify"],
            ["certify", "--input", ex1_file, "--no-verify"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_fallback_above_guard_uses_branch_and_bound(
        self, tmp_path, capsys, monkeypatch
    ):
        # An uncertified run carries no check's optimum, so the answer
        # comes from branch-and-bound: the path on 21 vertices has a
        # maximum independent set of 11.
        uncertified = SimpleNamespace(
            certified=False, brute_force_verified=None, brute_force_optimum=None
        )
        monkeypatch.setattr(cli, "certify", lambda *args, **kwargs: uncertified)
        path = tmp_path / "p21.txt"
        path.write_text("p 21\n" + "".join(f"e {i} {i + 1}\n" for i in range(1, 21)))
        assert main(["mis", "--graph", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["source"] == "branch_and_bound"
        assert doc["independent_set"] == list(range(1, 22, 2))
