"""Command-line surface.

Subcommands: certify, eta, brute-force, gen, mis. Every
command prints a human-readable summary and, with --json, a machine-
readable report document. Exit codes: 0 success (certify: certified and
verified), 1 not certified, 2 input error, 3 internal LP failure.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
import time
from enum import Enum

import numpy as np

from .certify import (
    CertifyConfig,
    branch_and_bound_ip,
    brute_force_ip,
    certify,
)
from .goodness import sufficient_verdict
from .instance import (
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

SCHEMA_VERSION = "3"

# The GoodnessReport fields of certify's and eta's reports, in document order.
VERDICT_FIELDS = (
    "beta_bar", "beta_used", "eta_per_column", "eta1", "s_star", "eta_s_bound",
    "gamma_hat", "threshold",
)


def _sig(x):
    """The JSON form of a report value: dicts, lists, tuples and arrays
    entry by entry, an enum as its value, a float rounded to 12
    significant digits ("inf" when infinite), anything else as it is."""
    if isinstance(x, float):
        return "inf" if math.isinf(x) else float(f"{x:.12g}")
    if isinstance(x, dict):
        return {k: _sig(v) for k, v in x.items()}
    if isinstance(x, np.ndarray):
        x = x.tolist()
    if isinstance(x, (list, tuple)):
        return [_sig(v) for v in x]
    if isinstance(x, Enum):
        return x.value
    return x


def _emit(doc: dict, as_json: bool, text_lines):
    if as_json:
        print(json.dumps(doc, indent=2))
    else:
        for line in text_lines:
            print(line)


def _read(path) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}")


def _load_instance(args):
    """The instance and its weights: --weights, else the file's, else all 1."""
    inst, weights = parse_instance(_read(args.input))
    if getattr(args, "weights", None) is not None:
        try:
            vals = [float(t) for t in args.weights.split(",")]
        except ValueError:
            raise ValueError(f"bad --weights list {args.weights!r}")
        if len(vals) != inst.n:
            raise ValueError(f"--weights needs {inst.n} entries")
        weights = Weights(c=np.array(vals))
    return inst, weights if weights is not None else Weights(c=np.ones(inst.n))


def _document(inst: ZeroOneInstance, fields: dict, timings: dict) -> dict:
    """A command's --json document, rendered by _sig from the raw values
    it is given: the schema version, the instance, the command's fields,
    then its timings in milliseconds."""
    return _sig(
        {
            "schema_version": SCHEMA_VERSION,
            "instance": {"m": inst.m, "n": inst.n, "digest": inst.digest()},
            **fields,
            "timings_ms": timings,
        }
    )


def _verdict_doc(report, names) -> dict:
    """The named fields of a pass's GoodnessReport; all None when the
    pass ran no verdict."""
    if report is None:
        return dict.fromkeys(names)
    return {name: getattr(report, name) for name in names}


def _report_doc(inst, cert, timings) -> dict:
    sol = cert.lp_solution
    bf_value = cert.brute_force_value
    fields = {
        **_verdict_doc(cert.final_report, VERDICT_FIELDS),
        "certified": cert.certified,
        "case": cert.final_case,
        "weights": cert.final_weights.c,
        "lp": None if sol.x is None else {"x": sol.x, "value": sol.value},
        "recovered": cert.recovered,
        # branch_and_bound_ip's value is an int; the report writes 2.0.
        "brute_force": {
            "value": None if bf_value is None else float(bf_value),
            "verified": cert.brute_force_verified,
        },
        "iterations": [
            {
                "weights": p.weights.c,
                **_verdict_doc(
                    p.report,
                    ("eta1", "s_star", "eta_s_bound", "threshold", "certified"),
                ),
                "case": p.case,
                "reason": p.reason,
            }
            for p in cert.iterations
        ],
        "discrepancies": cert.discrepancies,
    }
    return _document(inst, fields, timings)


def _config_from(args) -> CertifyConfig:
    return CertifyConfig(beta_override=args.beta, max_weight_iterations=args.max_iters)


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
    A1 = to_standard_form(inst)
    t0 = time.perf_counter()
    _, report = sufficient_verdict(A1, weights, args.beta)
    timings = {"eta": (time.perf_counter() - t0) * 1000.0}
    doc = _document(inst, _verdict_doc(report, VERDICT_FIELDS), timings)
    lines = [
        f"beta_bar: {doc['beta_bar']}  beta_used: {doc['beta_used']}",
        f"eta_per_column: {doc['eta_per_column']}",
        f"eta1: {doc['eta1']}  s_star: {doc['s_star']}  threshold: {doc['threshold']}",
        f"gamma_hat: {doc['gamma_hat']}",
    ]
    _emit(doc, args.json, lines)
    return 0


def cmd_brute_force(args) -> int:
    inst, _ = _load_instance(args)
    t0 = time.perf_counter()
    value, optima = brute_force_ip(inst)
    timings = {"brute_force": (time.perf_counter() - t0) * 1000.0}
    fields = {"brute_force": {"value": float(value), "optima_count": len(optima)}}
    doc = _document(inst, fields, timings)
    _emit(doc, args.json, [f"value: {value}  optima: {len(optima)}"])
    return 0


def cmd_gen(args) -> int:
    inst = random_instance(args.m, args.n, args.seed, args.max_entry)
    text = format_instance(inst)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {args.output}: {exc.strerror}")
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_mis(args) -> int:
    inst = from_independent_set(*parse_graph(_read(args.graph)))
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
    indicator = mis_recover(x_tilde, inst)
    members = [i + 1 for i, v in enumerate(indicator) if v]
    fields = {
        "certified": cert.certified,
        "source": source,
        "independent_set": members,
        "size": len(members),
    }
    doc = _document(inst, fields, timings)
    _emit(
        doc,
        args.json,
        [
            f"independent set (size {len(members)}): {members}",
            f"source: {source} (certified={cert.certified})",
        ],
    )
    return 0


def _pass_budget(text: str) -> int:
    """The --max-iters value: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, not {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wlpcert",
        description=(
            "Certify exact solvability of a nonnegative 0-1 covering "
            "program by a weighted LP relaxation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    default_passes = CertifyConfig.max_weight_iterations

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
    p.add_argument("--max-iters", type=_pass_budget, default=default_passes)
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
    p.add_argument("--max-iters", type=_pass_budget, default=default_passes)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_mis)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # input errors, ParseError and InstanceError too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LpError as exc:
        print(f"error: internal LP failure: {exc}", file=sys.stderr)
        return 3


def run() -> int:
    """Process entry point: main on sys.argv after gc.freeze(), so that
    neither later collections nor the one at interpreter shutdown walk the
    objects that importing the package made. Not called by main, which
    also runs in-process."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
