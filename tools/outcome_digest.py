"""Hash wlpcert's outcomes on the benchmark's workload inputs.

    python3 tools/outcome_digest.py --workload ladder small --seed 1 2 [--list]
    python3 tools/outcome_digest.py --workload ladder --seed 1 --compare before.txt
    python3 tools/outcome_digest.py --workload ladder small --seed 1 --solves
    python3 tools/outcome_digest.py --workload ladder --seed 1 --solves --list
    python3 tools/outcome_digest.py --workload ladder --seed 1 --solves --compare before.txt

Run from anywhere inside a source checkout: the package is imported from
its `src/` and the inputs are built by its `perfbench/workloads.py`. For
each (workload, seed) the script prints one line with a sha256 prefix of
the outcomes of every input, in input order:

  ladder, small  library `certify` at the input's config: (certified,
                 passes, recovered, case per pass, reason per pass,
                 brute_force_value)
  mis            `wlpcert mis --json`, run in this process through
                 `cli.main`: (exit code, size, source)

Two commits with equal digests gave the same outcome on every input.
--list also prints each input's outcome, so that a change can be
reported input by input. --compare LIST_FILE reads the output of an
earlier --list run and prints, in place of the digests, only the inputs
whose outcome differs from it (workload, seed, name, before, after), then
their count; an input missing from either side counts as differing.
--solves puts solves in place of inputs: one record per `lp.solve`
result that the inputs' runs produce, face probes included, named by its
place in call order, with its status, iterations, the sorted basis it
ended on (empty unless it is optimal), repr(value) and a sha256 prefix
of the bytes of x + 0.0, then one record per `optimal_face_range` result
that `certify` computes, named face0, face1, .. in call order, with the
repr of its ranges. It prints a digest of the records and their counts;
equal solve digests mean that every LP, each face probe too, took the
same pivots to the same point and read the same optimal faces. --list
also prints each record, and --compare each record that moved, with the
fields that moved. A change that adds or removes solves (routing the
face probes through `solve` added one record per probe) shifts every
later index; to compare such a change list for list, record the program
LPs (the `solve` globals of `wlpcert.goodness` and `wlpcert.certify`)
apart from the probes (that of `wlpcert.lp`) with `recorded`, and
compare each list, and the face ranges, on its own.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_workloads():
    for path in (ROOT / "perfbench", ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    return importlib.import_module("workloads")


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
    from wlpcert.cli import main

    path = workdir / f"{case.name}.txt"
    path.write_text(case.text(), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["mis", "--graph", str(path), "--json"])
    doc = json.loads(out.getvalue()) if code == 0 else {}
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


def read_list(path) -> dict:
    """{(workload, seed, name): outcome} from the output of a --list run:
    each input's line comes before its workload's digest line."""
    saved, pending = {}, []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("  "):
            name, outcome = line.strip().split(" ", 1)
            pending.append((name, json.loads(outcome)))
        elif line.strip():
            workload, _, seed = line.split(":")[0].split()
            for name, outcome in pending:
                saved[workload, int(seed), name] = outcome
            pending = []
    return saved


def digest(results: list) -> str:
    text = json.dumps(results, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def main(argv=None) -> int:
    workloads = _load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", nargs="+", choices=sorted(workloads.WHY), required=True
    )
    parser.add_argument("--seed", nargs="+", type=int, required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--list", action="store_true", help="also print each input's outcome"
    )
    mode.add_argument(
        "--compare",
        metavar="LIST_FILE",
        help="print only the inputs whose outcome differs from a saved --list run",
    )
    parser.add_argument(
        "--solves",
        action="store_true",
        help="digest, list or compare every lp.solve result instead of the outcomes",
    )
    args = parser.parse_args(argv)
    saved = None if args.compare is None else read_list(args.compare)
    moved = total = 0
    for workload in args.workload:
        for seed in args.seed:
            if args.solves:
                with recorded_solves() as solves, recorded_face_ranges() as faces:
                    outcomes(workloads, workload, seed)
                results = [(str(i), solve_record(sol)) for i, sol in enumerate(solves)]
                results += [
                    (f"face{i}", {"ranges": repr(ranges)})
                    for i, ranges in enumerate(faces)
                ]
                digest_line = (
                    f"{digest(results)} over {len(solves)} solves "
                    f"and {len(faces)} face ranges"
                )
            else:
                results = outcomes(workloads, workload, seed)
                digest_line = digest(results)
            if saved is None:
                if args.list:
                    for name, outcome in results:
                        print(f"  {name} {json.dumps(outcome, sort_keys=True)}")
                print(f"{workload} seed {seed}: {digest_line}")
                continue
            names = [name for name, _ in results]
            gone = [
                key[2]
                for key in saved
                if key[:2] == (workload, seed) and key[2] not in names
            ]
            after = dict(results)
            total += len(names) + len(gone)
            for name in names + gone:
                before = saved.get((workload, seed, name))
                outcome = after.get(name)
                if before == outcome:
                    continue
                moved += 1
                if args.solves:
                    was, now = before or {}, outcome or {}
                    fields = sorted(
                        key for key in was.keys() | now.keys() if was.get(key) != now.get(key)
                    )
                    kind = "" if name.startswith("face") else "solve "
                    print(f"{workload} seed {seed} {kind}{name}: {' '.join(fields)}")
                else:
                    print(f"{workload} seed {seed} {name}")
                print(f"  before {json.dumps(before, sort_keys=True)}")
                print(f"  after  {json.dumps(outcome, sort_keys=True)}")
    if saved is not None:
        kind = "solves and face ranges" if args.solves else "outcomes"
        print(f"{moved} of {total} {kind} differ")
    return 0


if __name__ == "__main__":
    sys.exit(main())
