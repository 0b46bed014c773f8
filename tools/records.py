"""Record wlpcert's outcomes, LP solves or command output, to check changes against.

    python3 tools/records.py outcomes --workload ladder small mis --seed 1 2 101 303
    python3 tools/records.py solves --workload ladder --seed 1 > before.txt
    python3 tools/records.py cli --compare tests/data/cli_outputs.txt

Run from anywhere inside a source checkout: the package is imported from
its `src/` and the inputs are built by its `perfbench/workloads.py`. A
record is a list of blocks, each a `$ KEY` line and then its lines:

  outcomes  `WORKLOAD SEED NAME` per input, in input order, and the
            input's outcome as sorted-key JSON: for ladder and small,
            library `certify`'s (certified, passes, recovered, case and
            reason per pass, brute_force_value); for mis, `wlpcert mis
            --json`'s (exit code, size, source).
  solves    `WORKLOAD SEED solve I` per `lp.solve` result of those runs,
            face probes included, in call order: status, iterations, the
            sorted basis it ended on (empty unless optimal), repr(value)
            and a sha256 prefix of the bytes of x + 0.0; then `WORKLOAD
            SEED face I` per `optimal_face_range` result of `certify`:
            the repr of its ranges. Equal records mean that every LP took
            the same pivots to the same point and read the same faces.
  cli       `wlpcert COMMAND` per command of RUNS, run in this process on
            the input_texts() files: exit code, then stdout and stderr
            lines, with the values of `timings_ms` read `<ms>`.

--compare RECORD_FILE prints, in place of the record, each block that
differs from the saved one as its `$ KEY` line and a unified diff, then
`N of M KIND records differ`, and exits 1 when N > 0. A block missing
from either side differs; saved blocks of workloads or seeds the run
does not cover are not counted.

A change that adds or removes solves (routing the face probes through
`solve` added one per probe) shifts every later index. To compare it
list for list, record the program LPs (the `solve` globals of
`wlpcert.goodness` and `wlpcert.certify`) apart from the probes (that of
`wlpcert.lp`) with `recorded`, and compare each list, and the face
ranges, on its own.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import importlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_workloads():
    for path in (ROOT / "perfbench", ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    return importlib.import_module("workloads")


def input_texts() -> dict:
    """Input files by name: the paper's examples 1 and 2, example 2 with
    the weights c = (0.5, 0.7, 0.8) on its c line, a 1x2 instance that no
    0-1 point covers (x0 + x1 >= 3), random_instance(2, 2, 35), whose
    certificate the exact check refutes, and the 9-cycle."""
    from wlpcert import format_instance, random_instance

    ex2 = "3 3\n1 0 0\n1 1 0\n0 1 1\n0 1.5 0.5\n"
    return {
        "ex1.txt": "# example instance 1\n3 3\n1 2 0\n0 1 1\n1 0 2\n1 1 1\n",
        "ex2.txt": ex2,
        "ex2_weighted.txt": ex2 + "c 0.5 0.7 0.8\n",
        "uncovered.txt": "1 2\n1 1\n3\n",
        "random_2x2_s35.txt": format_instance(random_instance(2, 2, 35)),
        "c9.txt": "p 9\n" + "".join(f"e {i} {i % 9 + 1}\n" for i in range(1, 10)),
    }


RUNS = (
    "certify --input ex1.txt --beta 0.5625",
    "certify --input ex1.txt --beta 0.5625 --json",
    "certify --input ex2_weighted.txt --beta 0.7 --json",
    "certify --input uncovered.txt",
    "certify --input uncovered.txt --json",
    "certify --input random_2x2_s35.txt --json",
    "eta --input ex1.txt",
    "eta --input ex1.txt --json",
    "brute-force --input ex1.txt",
    "brute-force --input ex1.txt --json",
    "brute-force --input uncovered.txt --json",
    "mis --graph c9.txt",
    "mis --graph c9.txt --json",
    "gen --m 3 --n 4 --seed 7",
)

def run_command(command: str, workdir: Path) -> tuple:
    """(exit code, stdout, stderr) of `wlpcert COMMAND`, run in this
    process through `cli.main` with its .txt arguments read from workdir."""
    from wlpcert.cli import main

    argv = [
        str(workdir / token) if token.endswith(".txt") else token
        for token in command.split()
    ]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_block(command: str, workdir: Path) -> list:
    """`exit CODE`, then the command's stdout and stderr lines, with each
    value in `timings_ms` read `<ms>`."""
    code, out, err = run_command(command, workdir)
    timings = re.compile(r'"timings_ms": \{.*?\}', re.S)
    out = timings.sub(lambda m: re.sub(r": [^,\n{]+", ': "<ms>"', m[0]), out)
    lines = [f"exit {code}"]
    lines += [f"  out| {line}" for line in out.splitlines()]
    lines += [f"  err| {line}" for line in err.splitlines()]
    return lines


def certify_outcome(case) -> dict:
    from wlpcert import LpError, certify

    try:
        cert = certify(case.instance, case.config, weights=case.weights)
    except LpError as exc:
        return {"error": f"LpError: {exc}"}
    return {
        "certified": cert.certified,
        "passes": len(cert.iterations),
        "recovered": None if cert.recovered is None else cert.recovered.tolist(),
        "cases": [None if p.case is None else p.case.value for p in cert.iterations],
        "reasons": [p.reason.value for p in cert.iterations],
        "brute_force_value": cert.brute_force_value,
    }


def mis_outcome(case, workdir: Path) -> dict:
    (workdir / f"{case.name}.txt").write_text(case.text(), encoding="utf-8")
    code, out, _ = run_command(f"mis --graph {case.name}.txt --json", workdir)
    doc = json.loads(out) if code == 0 else {}
    return {"exit": code, "size": doc.get("size"), "source": doc.get("source")}


def outcomes(workloads, workload: str, seed: int) -> list:
    """(input name, outcome) for every input of the workload at the seed."""
    cases = workloads.build(workload, seed)
    if workload != "mis":
        return [(case.name, certify_outcome(case)) for case in cases]
    with tempfile.TemporaryDirectory() as tmp:
        return [(case.name, mis_outcome(case, Path(tmp))) for case in cases]


# The modules whose `solve` global the program calls, each rebound by
# recorded_solves (the names perfbench/spans.py traces).
SOLVE_MODULES = ("wlpcert.lp", "wlpcert.goodness", "wlpcert.certify")


@contextlib.contextmanager
def recorded(targets):
    """Rebind each (module name, attribute) in targets to a wrapper that
    appends each result to the yielded list; the originals are restored
    on exit."""
    results, saved = [], []

    def wrap(original):
        def recording(*args, **kwargs):
            result = original(*args, **kwargs)
            results.append(result)
            return result

        return recording

    for name, attr in targets:
        module = importlib.import_module(name)
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrap(getattr(module, attr)))
    try:
        yield results
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


def recorded_solves():
    """Every LpSolution that `solve` returns, through SOLVE_MODULES."""
    return recorded([(name, "solve") for name in SOLVE_MODULES])


def recorded_face_ranges():
    """Every list of ranges that certify's `optimal_face_range` returns."""
    return recorded([("wlpcert.certify", "optimal_face_range")])


def solve_record(sol) -> dict:
    x = b"" if sol.x is None else (sol.x + 0.0).tobytes()
    return {
        "status": sol.status.value,
        "iterations": sol.iterations,
        "basis": [] if sol._optimum is None else sorted(sol._optimum[1].tolist()),
        "value": repr(sol.value),
        "x": hashlib.sha256(x).hexdigest()[:16],
    }


def solves(workloads, workload: str, seed: int) -> list:
    """(`solve I` or `face I`, record) for every solve and face range that
    the inputs' runs produce."""
    with recorded_solves() as sols, recorded_face_ranges() as faces:
        outcomes(workloads, workload, seed)
    return [(f"solve {i}", solve_record(sol)) for i, sol in enumerate(sols)] + [
        (f"face {i}", {"ranges": repr(ranges)}) for i, ranges in enumerate(faces)
    ]


def record(kind: str, workloads, names, seeds) -> dict:
    """{key: block lines} of the kind's records, in order."""
    if kind == "cli":
        with tempfile.TemporaryDirectory() as tmp:
            workdir = Path(tmp)
            for name, text in input_texts().items():
                (workdir / name).write_text(text, encoding="utf-8")
            return {f"wlpcert {cmd}": cli_block(cmd, workdir) for cmd in RUNS}
    run = outcomes if kind == "outcomes" else solves
    return {
        f"{workload} {seed} {key}": [json.dumps(value, sort_keys=True)]
        for workload in names
        for seed in seeds
        for key, value in run(workloads, workload, seed)
    }


def read_record(path) -> dict:
    """{key: block lines} from an earlier record. A line before the first
    `$ ` header raises ValueError."""
    saved, lines = {}, None
    text = Path(path).read_text(encoding="utf-8")
    for number, line in enumerate(text.splitlines(), 1):
        if line.startswith("$ "):
            lines = saved[line[2:]] = []
        elif lines is None:
            raise ValueError(f"{path}:{number}: line before the first '$ ': {line!r}")
        else:
            lines.append(line)
    return saved


def main(argv=None) -> int:
    workloads = _load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("kind", choices=("outcomes", "solves", "cli"))
    parser.add_argument("--workload", nargs="+", choices=sorted(workloads.WHY))
    parser.add_argument("--seed", nargs="+", type=int)
    parser.add_argument("--compare", metavar="RECORD_FILE", help="print what moved")
    args = parser.parse_args(argv)
    cli = args.kind == "cli"
    if {args.workload is None, args.seed is None} != {cli}:
        parser.error("outcomes and solves take --workload and --seed, cli neither")
    blocks = record(args.kind, workloads, args.workload, args.seed)
    if args.compare is None:
        for key, lines in blocks.items():
            print(f"$ {key}")
            for line in lines:
                print(line)
        return 0
    saved = read_record(args.compare)
    # A run over some workloads and seeds counts only their saved blocks.
    scope = ("wlpcert ",) if cli else tuple(
        f"{w} {s} " for w in args.workload for s in args.seed
    )
    keys = list(blocks) + [k for k in saved if k.startswith(scope) and k not in blocks]
    moved = 0
    for key in keys:
        before, after = saved.get(key, []), blocks.get(key, [])
        if before == after:
            continue
        moved += 1
        print(f"$ {key}")
        for line in list(difflib.unified_diff(before, after, lineterm="", n=1))[2:]:
            print(f"  {line}")
    print(f"{moved} of {len(keys)} {args.kind} records differ")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
