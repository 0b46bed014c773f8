"""In-process A/B timing of two source trees on a library workload.

    python3 tools/ab_passes.py --parent DIR --change DIR \
        --workload {ladder,small,mis} --seed S --passes N

Each DIR is the root of a source checkout. Its `src/wlpcert` is imported
under a package name of its own (ab_parent, ab_change), and its
`perfbench/workloads.py` builds its inputs at the seed with that package.
Each mis graph becomes the covering instance that `from_independent_set`
builds from it, certified at the default config: what `wlpcert mis`
certifies before any branch-and-bound.
The script first checks that both sides give the same (certified,
recovered) answer on every input, or raise the same error. It then runs
N whole passes of library `certify` over the inputs per side, one side
after the other, and swaps which side goes first on every pass, so that
both sides see the same drift of the machine. It prints each side's
median pass time, the change / parent ratio of the medians, the
interquartile range of the parent's passes, and the number of passes in
which the change was faster than the parent pass run beside it. A last
line reads `rule: met` when the change was faster in at least nine
tenths of the passes and its median is below the parent's by more than
that interquartile range, the rule a claimed gain must meet; otherwise
`rule: not met`.

On small it is noisy: at `--seed 5` the same two trees read 1.073×,
1.027× and 1.001× in three runs, so it cannot size an effect on small
below about 5%.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")


def load_package(root: Path, name: str):
    """root's src/wlpcert, imported as the package `name`, in place of any
    earlier package of that name and its submodules."""
    init = root / "src" / "wlpcert" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no wlpcert package under {root / 'src'}")
    for loaded in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[loaded]
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def build_cases(root: Path, package, workload: str, seed: int) -> list:
    """root's perfbench/workloads.py inputs, built with package standing in
    for `wlpcert`, which workloads.py imports by that name."""
    spec = importlib.util.spec_from_file_location(
        f"{package.__name__}_workloads", root / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    saved = sys.modules.get("wlpcert")
    sys.modules["wlpcert"] = package
    try:
        cases = workloads.build(workload, seed)
    finally:
        if saved is None:
            del sys.modules["wlpcert"]
        else:
            sys.modules["wlpcert"] = saved
    if workload != "mis":
        return cases
    config = package.CertifyConfig()
    return [
        workloads.LibraryCase(
            case.name, package.from_independent_set(case.vertex_count, case.edges), config
        )
        for case in cases
    ]


def answer(package, case):
    """(certified, recovered) of one certify call, or the error it raised."""
    try:
        cert = package.certify(case.instance, case.config, weights=case.weights)
    except package.LpError as exc:
        return f"LpError: {exc}"
    recovered = None if cert.recovered is None else tuple(cert.recovered.tolist())
    return bool(cert.certified), recovered


def timed_pass(package, cases) -> float:
    start = time.perf_counter()
    for case in cases:
        answer(package, case)
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", choices=("ladder", "small", "mis"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, required=True)
    args = parser.parse_args(argv)
    if args.passes < 2:
        parser.error("--passes must be at least 2, for the quartiles")
    sides = {}
    for side in SIDES:
        root = getattr(args, side).resolve()
        package = load_package(root, f"ab_{side}")
        sides[side] = package, build_cases(root, package, args.workload, args.seed)
    answers = {
        side: [answer(package, case) for case in cases]
        for side, (package, cases) in sides.items()
    }
    if len(answers["parent"]) != len(answers["change"]):
        print("error: the two sides build different numbers of inputs", file=sys.stderr)
        return 1
    differ = [
        case.name
        for case, a, b in zip(sides["parent"][1], answers["parent"], answers["change"])
        if a != b
    ]
    if differ:
        print(f"error: the answers differ on {', '.join(differ)}", file=sys.stderr)
        return 1
    times = {side: [] for side in SIDES}
    for i in range(args.passes):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            times[side].append(timed_pass(*sides[side]))
    parent, change = (statistics.median(times[side]) for side in SIDES)
    quartiles = statistics.quantiles(times["parent"], n=4)
    iqr = quartiles[2] - quartiles[0]
    wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
    met = 10 * wins >= 9 * args.passes and parent - change > iqr
    print(
        f"{args.workload} seed {args.seed}: {len(answers['parent'])} inputs, "
        f"same answers, {args.passes} passes per side"
    )
    print(f"parent median {parent:.6f} s (IQR {iqr:.6f} s)")
    print(f"change median {change:.6f} s")
    print(f"ratio {change / parent:.3f}")
    print(f"change faster in {wins} of {args.passes} passes")
    print(f"rule: {'met' if met else 'not met'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
