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
result that the inputs' runs produce, named by its place in call order,
with its status, iterations, basis, repr(value) and a sha256 prefix of
the bytes of x + 0.0. It prints a digest of the records and their count;
equal solve digests mean that every LP took the same pivots to the same
point. --list also prints each record, and --compare each solve whose
record moved, with the fields that moved.
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
def recorded_solves():
    """Rebind `solve` in SOLVE_MODULES to a wrapper that appends each
    result, an LpSolution, to the yielded list; the originals are restored
    on exit."""
    solves, saved = [], []

    def wrap(original):
        def recording(*args, **kwargs):
            sol = original(*args, **kwargs)
            solves.append(sol)
            return sol

        return recording

    for name in SOLVE_MODULES:
        module = importlib.import_module(name)
        saved.append((module, module.solve))
        module.solve = wrap(module.solve)
    try:
        yield solves
    finally:
        for module, original in saved:
            module.solve = original


def solve_record(sol) -> dict:
    x = b"" if sol.x is None else (sol.x + 0.0).tobytes()
    return {
        "status": sol.status.value,
        "iterations": sol.iterations,
        "basis": list(sol.basis),
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
                with recorded_solves() as solves:
                    outcomes(workloads, workload, seed)
                results = [(str(i), solve_record(sol)) for i, sol in enumerate(solves)]
                digest_line = f"{digest(results)} over {len(results)} solves"
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
                    print(f"{workload} seed {seed} solve {name}: {' '.join(fields)}")
                else:
                    print(f"{workload} seed {seed} {name}")
                print(f"  before {json.dumps(before, sort_keys=True)}")
                print(f"  after  {json.dumps(outcome, sort_keys=True)}")
    if saved is not None:
        print(f"{moved} of {total} {'solves' if args.solves else 'outcomes'} differ")
    return 0


if __name__ == "__main__":
    sys.exit(main())
