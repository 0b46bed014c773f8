"""wlpcert benchmark.

    python3 perfbench/run.py --workload {ladder,mis,small} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
`src/`. The run builds the workload's inputs from the seed, then runs
whole passes over them, one call at a time in this process (`ladder`,
`small`: library `certify`) or one child at a time (`mis`: a
`python3 -m wlpcert.cli mis --json` process per graph), until --seconds
have elapsed (at least one pass).

Every call is classified against `oracle.py`, which never calls wlpcert:
  sound          certified, and the oracle confirms the answer
  wrong          presented as correct, and the oracle refutes it
  not_certified  no certificate (for `mis`: a correct brute-force answer)
  failed         raised, printed a traceback, or exited non-zero
`failed` in the result counts both failed and wrong calls; `correct` is
false only when an answer could not be checked.

--trace 0 reports the end-to-end metrics of BENCHMARK.json from untraced
passes. --trace 1 alternates untraced and traced passes and reports the
per-layer metrics from the traced ones (see spans.py). Both print a
readable report first; the last line is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ladder", "mis", "small")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150
FEAS_TOL = 1e-9


def use_checkout_source() -> Path:
    """Put the checkout's src/ first on sys.path; exit if it is missing."""
    src = ROOT / "src"
    if not (src / "wlpcert" / "__init__.py").is_file():
        raise SystemExit(f"error: no wlpcert package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    return src


@dataclass
class Attempt:
    case: int
    seconds: float
    answer: tuple | None = None
    error: str | None = None
    rss_kb: int = 0
    outcome: str | None = None


class LibraryRunner:
    """Calls certify in this process, through the module attribute so
    that the span collector's rebinding takes effect."""

    in_process = True

    def __init__(self, cases):
        self.cases = cases
        self.certify_module = importlib.import_module("wlpcert.certify")

    def call(self, index: int, tracer=None) -> Attempt:
        case = self.cases[index]
        start = time.monotonic_ns()
        try:
            cert = self.certify_module.certify(
                case.instance, case.config, weights=case.weights
            )
        except Exception as exc:  # the run goes on; the call counts as failed
            return Attempt(index, _since(start), error=f"{type(exc).__name__}: {exc}")
        seconds = _since(start)
        recovered = (
            None if cert.recovered is None else tuple(int(v) for v in cert.recovered)
        )
        return Attempt(index, seconds, answer=(bool(cert.certified), recovered))


class CliRunner:
    """Runs `wlpcert mis --json` in a child process per graph."""

    in_process = False

    def __init__(self, cases, workdir: Path, src: Path):
        self.cases = cases
        self.workdir = workdir
        self.env = _child_env(src)
        self.paths = []
        for case in cases:
            path = workdir / f"{case.name}.txt"
            path.write_text(case.text(), encoding="utf-8")
            self.paths.append(path)

    def call(self, index: int, tracer=None) -> Attempt:
        case = self.cases[index]
        args = ["mis", "--graph", str(self.paths[index]), "--json"]
        seconds, code, out, err, rss_kb = run_cli(
            args, self.env, self.workdir, case.name, tracer
        )
        attempt = Attempt(index, seconds, rss_kb=rss_kb)
        if code != 0 or "Traceback (most recent call last)" in err:
            last = err.strip().splitlines()[-1:] or [""]
            attempt.error = f"exit {code}: {last[0]}"
            return attempt
        try:
            doc = json.loads(out)
            attempt.answer = (tuple(doc["independent_set"]), doc["source"])
        except (ValueError, KeyError, TypeError):
            attempt.error = "unparsable --json output"
        return attempt


def _child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH", "")) if p
    )
    return env


def _since(start_ns: int) -> float:
    return (time.monotonic_ns() - start_ns) / 1e9


def run_cli(args, env, workdir: Path, name: str, tracer=None):
    """Run one wlpcert CLI process and wait for it.

    Untraced: `python3 -m wlpcert.cli ARGS`. Traced: the same through
    traced_cli.py, whose spans are merged under the tracer's open span
    together with the process start and exit intervals.
    Returns (seconds, exit code, stdout, stderr, peak RSS in KiB).
    """
    out_path = workdir / f"{name}.out"
    err_path = workdir / f"{name}.err"
    spans_path = workdir / f"{name}.spans.json"
    if tracer is None:
        argv = [sys.executable, "-m", "wlpcert.cli", *args]
    else:
        spans_path.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), *args]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic_ns()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if tracer is not None and spans_path.exists():
        child = json.loads(spans_path.read_text(encoding="utf-8"))
        main = next(s for s in child if s[0] == "cli.main")
        tracer.add("cli.process_start", start, main[1])
        tracer.adopt(child)
        tracer.add("cli.process_exit", main[2], end)
    return (
        (end - start) / 1e9,
        proc.returncode,
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
        usage.ru_maxrss,
    )


def run_pass(runner, tracer=None, limit=None):
    """One pass over the inputs; returns (seconds, attempts, root span)."""
    count = len(runner.cases) if limit is None else min(limit, len(runner.cases))
    root = tracer.open("bench.pass") if tracer else None
    start = time.monotonic_ns()
    attempts = []
    for i in range(count):
        call = tracer.open("bench.call") if tracer else None
        attempts.append(runner.call(i, tracer))
        if tracer:
            tracer.close(call)
    seconds = _since(start)
    if tracer:
        tracer.close(root)
    return seconds, attempts, root


def traced_pass(runner, limit=None):
    """A traced pass; returns (seconds, attempts, spans, root)."""
    import spans

    tracer = spans.Tracer()
    saved = spans.install(tracer) if runner.in_process else []
    try:
        seconds, attempts, root = run_pass(runner, tracer, limit)
    finally:
        spans.restore(saved)
    return seconds, attempts, tracer.spans, root


def classify(workload: str, cases, attempts) -> bool:
    """Set each attempt's outcome from the oracle; False if any answer
    could not be checked or the oracle failed its own cross-check."""
    import numpy as np

    import oracle

    checked = True
    reference = {}

    def optimum(i):
        if i not in reference:
            case = cases[i]
            if workload == "mis":
                reference[i] = oracle.max_independent_set(
                    case.vertex_count, case.edges, case.is_cycle
                )
            else:
                reference[i] = oracle.min_cover(case.instance.A, case.instance.b)
        return reference[i]

    if workload == "mis":
        # The cycle closed form must agree with enumeration where both run.
        for case in cases:
            if case.is_cycle and case.vertex_count <= oracle.ENUM_LIMIT:
                enumerated = oracle.max_independent_set(case.vertex_count, case.edges)
                checked &= enumerated == case.vertex_count // 2

    for a in attempts:
        if a.error is not None:
            a.outcome = "failed"
            continue
        try:
            if workload == "mis":
                members, source = a.answer
                case = cases[a.case]
                ok = (
                    all(1 <= v <= case.vertex_count for v in members)
                    and oracle.is_independent(members, case.edges)
                    and len(members) == optimum(a.case)
                )
                if not ok:
                    a.outcome = "wrong"
                else:
                    a.outcome = "sound" if source == "certificate" else "not_certified"
            else:
                certified, recovered = a.answer
                if not certified:
                    a.outcome = "not_certified"
                    continue
                inst = cases[a.case].instance
                x = None if recovered is None else np.array(recovered, dtype=float)
                ok = (
                    x is not None
                    and bool(np.all(inst.A @ x >= inst.b - FEAS_TOL))
                    and int(x.sum()) == optimum(a.case)
                )
                a.outcome = "sound" if ok else "wrong"
        except (ImportError, RuntimeError) as exc:
            print(f"oracle could not check {cases[a.case].name}: {exc}", file=sys.stderr)
            a.outcome = "unchecked"
            checked = False
    return checked


def _setup_seconds(args) -> list:
    """Import-and-build time, measured in fresh interpreters after one
    untimed probe has warmed the file cache."""
    times = []
    for _ in range(SETUP_REPEATS + 1):
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
        if probe.returncode != 0:
            raise SystemExit(f"error: setup probe failed: {probe.stderr.strip()}")
        times.append(float(probe.stdout.strip().splitlines()[-1]))
    return times[1:]


def _setup_probe(args) -> int:
    start = time.perf_counter()
    import wlpcert  # noqa: F401  (the import is what is timed)
    import workloads

    workloads.build(args.workload, args.seed)
    print(f"{time.perf_counter() - start!r}")
    return 0


def _metadata(args) -> dict:
    import numpy

    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            commit = ref
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _declared(kind: str) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec[kind]


def _result(declared, values, attempts, checked) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    failed = sum(a.outcome in ("failed", "wrong") for a in attempts)
    return {
        "correct": checked,
        "attempted": len(attempts),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
        },
    }


def _print_report(meta, values, declared, extra_lines):
    print("# " + json.dumps(meta))
    for m in declared:
        print(f"{m['name']:<36} {values[m['name']]!r:>24} {m['unit']}")
    for line in extra_lines:
        print(line)


def _outcome_lines(cases, attempts) -> list:
    """Call latency, outcome rates and the slowest inputs, as text."""
    n = len(attempts)
    ms = [a.seconds * 1e3 for a in attempts]
    lines = [f"call_ms_p50 {statistics.median(ms)!r} ms (n={n})"]
    p90 = statistics.quantiles(ms, n=10)[8] if n >= 10 else None
    # A p90 is reported only with at least ten samples above it.
    if p90 is not None and sum(v > p90 for v in ms) >= 10:
        lines.append(f"call_ms_p90 {p90!r} ms (n={n})")
    else:
        lines.append(f"call_ms_p90 not reported: fewer than 10 of {n} calls above it")
    counts = {k: 0 for k in ("sound", "wrong", "not_certified", "failed", "unchecked")}
    for a in attempts:
        counts[a.outcome] += 1
    for rate, key in (("sound_cert_rate", "sound"), ("wrong_rate", "wrong"), ("fail_rate", "failed")):
        lines.append(f"{rate} {counts[key] / n!r} ({counts[key]}/{n})")
    lines.append(f"not_certified {counts['not_certified']}/{n}")
    seen = set()
    for a in attempts:
        if a.outcome in ("wrong", "failed", "unchecked") and a.case not in seen:
            seen.add(a.case)
            lines.append(f"{a.outcome}: {cases[a.case].name}: {a.error or a.answer}")
    per_case = {}
    for a in attempts:
        per_case.setdefault(a.case, []).append(a.seconds)
    slowest = sorted(per_case, key=lambda i: -statistics.median(per_case[i]))[:5]
    lines.append(
        "slowest inputs (median s): "
        + ", ".join(f"{cases[i].name} {statistics.median(per_case[i]):.3f}" for i in slowest)
    )
    return lines


def make_runner(workload, cases, workdir, src):
    if workload == "mis":
        return CliRunner(cases, workdir, src)
    return LibraryRunner(cases)


def measure(args, src: Path, workdir: Path) -> dict:
    import workloads

    setup = _setup_seconds(args)
    cases = workloads.build(args.workload, args.seed)
    runner = make_runner(args.workload, cases, workdir, src)
    attempts = []
    start = time.monotonic_ns()

    if not args.trace:
        walls = []
        while True:
            seconds, done, _ = run_pass(runner)
            walls.append(seconds)
            attempts += done
            if _since(start) + statistics.median(walls) > args.seconds:
                break
        if runner.in_process:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            peak_kb = max(a.rss_kb for a in attempts)
        checked = classify(args.workload, cases, attempts)
        values = {
            "wall_s": statistics.median(walls),
            "peak_rss_mb": peak_kb / 1024,
            "setup_s": statistics.median(setup),
        }
        declared = _declared("end_to_end")
        extra = [f"passes {len(walls)}", f"setup_s samples {setup!r}"]
        extra += _outcome_lines(cases, attempts)
        _print_report(_metadata(args), values, declared, extra)
        return _result(declared, values, attempts, checked)

    import spans

    per_pass, all_spans = [], []
    while True:
        plain, done, _ = run_pass(runner)
        attempts += done
        traced, done, trace_spans, root = traced_pass(runner)
        attempts += done
        layer = spans.pass_metrics(trace_spans, root)
        layer["trace.overhead_ratio"] = traced / plain
        per_pass.append(layer)
        all_spans.append(trace_spans)
        if _since(start) + (plain + traced) > args.seconds:
            break
    values = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    if runner.in_process:
        all_spans = [_cli_probe(cases[0], workdir, src)]
    cli = spans.cli_metrics(all_spans)
    values.update(cli)
    checked = classify(args.workload, cases, attempts)
    declared = _declared("per_layer")
    extra = [f"traced passes {len(per_pass)}", f"cli processes {cli['cli.processes']}"]
    wall = values["trace.wall_s"]
    extra += [
        f"self time {name:<28} {values[f'self.{name}_s']:10.4f} s "
        f"{values[f'self.{name}_s'] / wall:7.2%}"
        for name in spans.PROGRAM_SPANS
    ]
    extra.append(f"self time uncovered (harness)      {values['trace.uncovered_share']:7.2%}")
    _print_report(_metadata(args), values, declared, extra)
    return _result(declared, values, attempts, checked)


def _cli_probe(case, workdir: Path, src: Path) -> list:
    """Trace one `wlpcert certify --json` process on a library case, so
    the CLI layer is measured on every workload."""
    import spans
    from wlpcert import format_instance

    path = workdir / f"{case.name}.inst"
    path.write_text(format_instance(case.instance, case.weights), encoding="utf-8")
    args = ["certify", "--input", str(path), "--json"]
    if case.config.beta_override is not None:
        args += ["--beta", repr(case.config.beta_override)]
    tracer = spans.Tracer()
    root = tracer.open("bench.call")
    run_cli(args, _child_env(src), workdir, case.name, tracer)
    tracer.close(root)
    return tracer.spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    src = use_checkout_source()
    if args.setup_probe:
        return _setup_probe(args)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args, src, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
