"""Command-line surface.

Subcommands: certify, eta, brute-force, gen, mis. Every
command prints a human-readable summary and, with --json, a machine-
readable report document. Exit codes: 0 success (certify: certified and
verified), 1 not certified, 2 input error, 3 internal LP failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from .certify import (
    CertifyConfig,
    branch_and_bound_ip,
    brute_force_ip,
    certify,
)
from .goodness import beta_bar, sufficient_verdict
from .instance import (
    InstanceError,
    ParseError,
    Weights,
    ZeroOneInstance,
    format_instance,
    from_independent_set,
    mis_recover,
    parse_graph,
    parse_instance,
    random_instance,
    to_standard_form,
)
from .lp import LpError

SCHEMA_VERSION = "2"


def _sig(x):
    """Round floats to 12 significant digits for JSON output."""
    if x is None:
        return None
    if isinstance(x, float):
        if math.isinf(x):
            return "inf"
        return float(f"{x:.12g}")
    return x


def _emit(doc: dict, as_json: bool, text_lines):
    if as_json:
        print(json.dumps(doc, indent=2))
    else:
        for line in text_lines:
            print(line)


def _load_instance(args):
    try:
        with open(args.input, encoding="utf-8") as fh:
            inst, file_weights = parse_instance(fh.read())
    except OSError as exc:
        raise SystemExit2(f"cannot read {args.input}: {exc.strerror}")
    weights = file_weights
    if getattr(args, "weights", None):
        try:
            vals = [float(t) for t in args.weights.split(",")]
        except ValueError:
            raise SystemExit2(f"bad --weights list {args.weights!r}")
        if len(vals) != inst.n:
            raise SystemExit2(f"--weights needs {inst.n} entries")
        weights = Weights(c=np.array(vals))
    return inst, weights


class SystemExit2(Exception):
    """Input error; mapped to exit code 2."""


def _instance_doc(inst: ZeroOneInstance) -> dict:
    return {"m": inst.m, "n": inst.n, "digest": inst.digest()}


def _verdict_doc(report, names) -> dict:
    """The named fields of a pass's GoodnessReport; all None when the
    pass ran no verdict."""
    if report is None:
        return dict.fromkeys(names)
    doc = {name: _sig(getattr(report, name)) for name in names}
    if "eta_per_column" in doc:
        doc["eta_per_column"] = [_sig(v) for v in report.eta_per_column]
    return doc


def _report_doc(inst, cert, timings) -> dict:
    sol = cert.lp_solution
    doc = {
        "schema_version": SCHEMA_VERSION,
        "instance": _instance_doc(inst),
        **_verdict_doc(
            cert.final_report,
            (
                "beta_bar",
                "beta_used",
                "eta_per_column",
                "eta1",
                "s_star",
                "eta_s_bound",
                "gamma_hat",
                "threshold",
            ),
        ),
        "certified": cert.certified,
        "case": cert.final_case.value if cert.final_case else None,
        "weights": [_sig(float(v)) for v in cert.final_weights.c],
        "lp": {
            "x": [_sig(float(v)) for v in sol.x],
            "value": _sig(sol.value),
        }
        if sol is not None and sol.x is not None
        else None,
        "recovered": [int(v) for v in cert.recovered]
        if cert.recovered is not None
        else None,
        "brute_force": {
            "value": _sig(
                float(cert.brute_force_value)
                if cert.brute_force_value is not None
                else None
            ),
            "verified": cert.brute_force_verified,
        },
        "iterations": [
            {
                "weights": [_sig(float(v)) for v in p.weights.c],
                **_verdict_doc(
                    p.report,
                    ("eta1", "s_star", "eta_s_bound", "threshold", "certified"),
                ),
                "case": p.case.value if p.case else None,
                "reason": p.reason.value,
            }
            for p in cert.iterations
        ],
        "discrepancies": list(cert.discrepancies),
        "timings_ms": {k: _sig(v) for k, v in timings.items()},
    }
    return doc


def _config_from(args) -> CertifyConfig:
    return CertifyConfig(
        beta_override=args.beta,
        max_weight_iterations=args.max_iters,
    )


def cmd_certify(args) -> int:
    inst, weights = _load_instance(args)
    t0 = time.perf_counter()
    cert = certify(inst, _config_from(args), weights=weights)
    timings = {"certify": (time.perf_counter() - t0) * 1000.0}
    doc = _report_doc(inst, cert, timings)
    lines = [
        f"instance: m={inst.m} n={inst.n}",
        f"certified: {cert.certified}",
        f"case: {doc['case']}  reason: {doc['iterations'][-1]['reason']}",
        f"eta1: {doc['eta1']}  s_star: {doc['s_star']}  "
        f"bound: {doc['eta_s_bound']}  threshold: {doc['threshold']}",
        f"weights: {doc['weights']}",
        f"lp x: {doc['lp']['x'] if doc['lp'] else None}",
        f"recovered: {doc['recovered']}",
        f"brute_force: {doc['brute_force']}",
    ]
    for note in cert.discrepancies:
        lines.append(f"note: {note}")
    _emit(doc, args.json, lines)
    return 0 if cert.certified else 1


def cmd_eta(args) -> int:
    inst, weights = _load_instance(args)
    sf = to_standard_form(inst)
    c = weights if weights is not None else Weights(c=np.ones(inst.n))
    bb = beta_bar(sf, c)
    beta = args.beta if args.beta is not None else bb
    t0 = time.perf_counter()
    _, report = sufficient_verdict(sf, c, beta)
    timings = {"eta": (time.perf_counter() - t0) * 1000.0}
    etas = [_sig(v) for v in report.eta_per_column]
    eta1 = _sig(report.eta1)
    gamma_hat = _sig(report.gamma_hat)
    threshold = _sig(report.threshold)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "instance": _instance_doc(inst),
        "beta_bar": _sig(bb),
        "beta_used": _sig(beta),
        "eta_per_column": etas,
        "eta1": eta1,
        "s_star": report.s_star,
        "gamma_hat": gamma_hat,
        "threshold": threshold,
        "timings_ms": {k: _sig(v) for k, v in timings.items()},
    }
    lines = [
        f"beta_bar: {_sig(bb)}  beta_used: {_sig(beta)}",
        f"eta_per_column: {etas}",
        f"eta1: {eta1}  s_star: {report.s_star}  threshold: {threshold}",
        f"gamma_hat: {gamma_hat}",
    ]
    _emit(doc, args.json, lines)
    return 0


def cmd_brute_force(args) -> int:
    inst, _ = _load_instance(args)
    t0 = time.perf_counter()
    value, optima = brute_force_ip(inst)
    timings = {"brute_force": (time.perf_counter() - t0) * 1000.0}
    doc = {
        "schema_version": SCHEMA_VERSION,
        "instance": _instance_doc(inst),
        "brute_force": {
            "value": _sig(float(value)),
            "optima_count": len(optima),
        },
        "timings_ms": {k: _sig(v) for k, v in timings.items()},
    }
    _emit(doc, args.json, [f"value: {value}  optima: {len(optima)}"])
    return 0


def cmd_gen(args) -> int:
    inst = random_instance(args.m, args.n, args.seed, args.max_entry)
    text = format_instance(inst)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_mis(args) -> int:
    try:
        with open(args.graph, encoding="utf-8") as fh:
            vertex_count, edges = parse_graph(fh.read())
    except OSError as exc:
        raise SystemExit2(f"cannot read {args.graph}: {exc.strerror}")
    inst, ctx = from_independent_set(vertex_count, edges)
    t0 = time.perf_counter()
    cert = certify(inst, _config_from(args))
    if cert.certified:
        x_tilde, source = cert.recovered, "certificate"
    else:
        # Certification is sufficient-only; the answer then comes from
        # branch-and-bound, run by certify's check when it refuted the
        # certificate. The all-ones cover is feasible, so an optimum exists.
        x_tilde = cert.brute_force_optimum
        if x_tilde is None:
            _, x_tilde = branch_and_bound_ip(inst)
        source = "branch_and_bound"
    timings = {"mis": (time.perf_counter() - t0) * 1000.0}
    indicator = mis_recover(x_tilde, ctx)
    members = [i + 1 for i, v in enumerate(indicator) if v]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "instance": _instance_doc(inst),
        "certified": cert.certified,
        "source": source,
        "independent_set": members,
        "size": len(members),
        "timings_ms": {k: _sig(v) for k, v in timings.items()},
    }
    _emit(
        doc,
        args.json,
        [
            f"independent set (size {len(members)}): {members}",
            f"source: {source} (certified={cert.certified})",
        ],
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wlpcert",
        description=(
            "Certify exact solvability of a nonnegative 0-1 covering "
            "program by a weighted LP relaxation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, weighted=True):
        p.add_argument("--input", required=True, help="instance file")
        if weighted:
            p.add_argument("--beta", type=float, default=None,
                           help="override the dual-radius beta_bar")
            p.add_argument("--weights", default=None,
                           help="comma-separated weights, overrides the file's c line")
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("certify", help="run the full adjust-and-certify loop")
    common(p)
    p.add_argument("--max-iters", type=int, default=10)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("eta", help="per-column residual bounds and s_star")
    common(p)
    p.set_defaults(func=cmd_eta)

    p = sub.add_parser("brute-force", help="exhaustive 0-1 optimum")
    common(p, weighted=False)
    p.set_defaults(func=cmd_brute_force)

    p = sub.add_parser("gen", help="write a seeded random instance file")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-entry", type=int, default=2)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("mis", help="maximum independent set via the certifier")
    p.add_argument("--graph", required=True, help="graph file (p/e lines)")
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--max-iters", type=int, default=10)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_mis)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SystemExit2, ParseError, InstanceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LpError as exc:
        print(f"error: internal LP failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
