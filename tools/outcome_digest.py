"""Hash wlpcert's outcomes on the benchmark's workload inputs.

    python3 tools/outcome_digest.py --workload ladder small --seed 1 2 [--list]
    python3 tools/outcome_digest.py --workload ladder --seed 1 --compare before.txt
    python3 tools/outcome_digest.py --workload ladder small --seed 1 --solves

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
their count; an input missing from the file counts as differing.
--solves prints, in place of the outcome digest, a digest of every
`lp.solve` result that the inputs' runs produce, in call order: its
status, iterations, basis, repr(value) and the bytes of x + 0.0. Equal
solve digests mean that every LP took the same pivots to the same point.
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


def solves_digest(workloads, workload: str, seed: int) -> str:
    with recorded_solves() as solves:
        outcomes(workloads, workload, seed)
    h = hashlib.sha256()
    for sol in solves:
        head = (sol.status.value, sol.iterations, sol.basis, repr(sol.value))
        x = b"" if sol.x is None else (sol.x + 0.0).tobytes()
        record = repr(head).encode() + x
        h.update(len(record).to_bytes(8, "little") + record)
    return f"{h.hexdigest()[:16]} over {len(solves)} solves"


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
    mode.add_argument(
        "--solves",
        action="store_true",
        help="digest every lp.solve result instead of the outcomes",
    )
    args = parser.parse_args(argv)
    saved = None if args.compare is None else read_list(args.compare)
    moved = total = 0
    for workload in args.workload:
        for seed in args.seed:
            if args.solves:
                digest_line = solves_digest(workloads, workload, seed)
                print(f"{workload} seed {seed}: {digest_line}")
                continue
            results = outcomes(workloads, workload, seed)
            if saved is None:
                if args.list:
                    for name, outcome in results:
                        print(f"  {name} {json.dumps(outcome, sort_keys=True)}")
                print(f"{workload} seed {seed}: {digest(results)}")
                continue
            total += len(results)
            for name, outcome in results:
                before = saved.get((workload, seed, name))
                if before != outcome:
                    moved += 1
                    print(f"{workload} seed {seed} {name}")
                    print(f"  before {json.dumps(before, sort_keys=True)}")
                    print(f"  after  {json.dumps(outcome, sort_keys=True)}")
    if saved is not None:
        print(f"{moved} of {total} outcomes differ")
    return 0


if __name__ == "__main__":
    sys.exit(main())
