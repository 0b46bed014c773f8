"""Span collector for the traced benchmark run.

`install` rebinds the public names through which wlpcert calls its own
layers so that each call records a span; `restore` puts the originals
back. Spans are kept in memory as [name, start_ns, end_ns, parent, attrs]
lists (parent is an index into the same list, or -1) and use
CLOCK_MONOTONIC, which is shared across processes, so spans from a CLI
child can be merged under the parent's span for that process.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

NAME, START, END, PARENT, ATTRS = range(5)

# The enclosing span that names an LP solve's category.
LP_CATEGORIES = (
    ("goodness.eta", "eta"),
    ("lp.face_range", "face"),
    ("certify.weighted_lp", "weighted"),
)
# The program's layers; everything else is benchmark harness.
PROGRAM_SPANS = (
    "cli.process_start",
    "cli.main",
    "cli.process_exit",
    "certify.certify",
    "instance.to_standard_form",
    "goodness.verdict",
    "goodness.eta",
    "certify.weighted_lp",
    "certify.classify",
    "lp.face_range",
    "certify.adjust",
    "certify.brute_force",
    "lp.solve",
)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.monotonic_ns(), None, parent, {}])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int, attrs: dict | None = None):
        span = self.spans[index]
        span[END] = time.monotonic_ns()
        if attrs:
            span[ATTRS].update(attrs)
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span[NAME]} closed out of order")

    def add(self, name: str, start_ns: int, end_ns: int):
        """Record a finished span under the open one."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start_ns, end_ns, parent, {}])

    def adopt(self, child_spans: list):
        """Append spans recorded by another process under the open span."""
        parent = self._stack[-1] if self._stack else -1
        offset = len(self.spans)
        for name, start, end, p, attrs in child_spans:
            self.spans.append(
                [name, start, end, parent if p < 0 else p + offset, attrs]
            )

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(index, {"error": type(exc).__name__})
                raise
            self.close(index, attrs(args, result) if attrs else None)
            return result

        return traced


def _lp_attrs(args, sol):
    return {"pivots": int(sol.iterations), "status": sol.status.value}


def _case_attrs(args, case):
    return {"case": case.value}


def _brute_force_attrs(args, result):
    inst = args[0]
    return {"n": int(inst.n), "m": int(inst.m)}


# (module, attribute, span name, attrs hook). Each entry is a name that
# the program looks up at call time.
TARGETS = (
    ("wlpcert.certify", "certify", "certify.certify", None),
    ("wlpcert.cli", "certify", "certify.certify", None),
    ("wlpcert.certify", "to_standard_form", "instance.to_standard_form", None),
    ("wlpcert.certify", "sufficient_verdict", "goodness.verdict", None),
    ("wlpcert.goodness", "eta_j", "goodness.eta", None),
    ("wlpcert.certify", "solve_weighted_lp", "certify.weighted_lp", None),
    ("wlpcert.certify", "classify_case", "certify.classify", _case_attrs),
    ("wlpcert.certify", "optimal_face_range", "lp.face_range", None),
    ("wlpcert.certify", "adjust_weights", "certify.adjust", None),
    ("wlpcert.certify", "brute_force_ip", "certify.brute_force", _brute_force_attrs),
    ("wlpcert.cli", "brute_force_ip", "certify.brute_force", _brute_force_attrs),
    ("wlpcert.lp", "solve", "lp.solve", _lp_attrs),
    ("wlpcert.goodness", "solve", "lp.solve", _lp_attrs),
    ("wlpcert.certify", "solve", "lp.solve", _lp_attrs),
)


def install(tracer: Tracer) -> list:
    """Rebind every target to a traced wrapper; returns the undo list."""
    saved = []
    for module_name, attr, span_name, attrs in TARGETS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap(span_name, original, attrs))
    return saved


def restore(saved: list):
    for module, attr, original in reversed(saved):
        setattr(module, attr, original)
    for module, attr, original in saved:
        if getattr(module, attr) is not original:
            raise RuntimeError(f"{module.__name__}.{attr} was not restored")


def _children(spans: list) -> list:
    kids = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            kids[span[PARENT]].append(i)
    for k in kids:
        k.sort(key=lambda i: spans[i][START])
    return kids


def _duration(span) -> float:
    return (span[END] - span[START]) / 1e9


def _lp_category(spans: list, index: int) -> str:
    p = spans[index][PARENT]
    while p >= 0:
        for name, category in LP_CATEGORIES:
            if spans[p][NAME] == name:
                return category
        p = spans[p][PARENT]
    return "other"


def _eta_waste(spans: list, kids: list) -> tuple:
    """(wasted, total) eta_j solves; wasted ones were made on passes whose
    optimal face was not unique, or that ended before classification."""
    wasted = total = 0
    for i, span in enumerate(spans):
        if span[NAME] != "certify.certify":
            continue
        pending = 0
        for k in kids[i]:
            name = spans[k][NAME]
            if name == "goodness.verdict":
                wasted += pending
                pending = sum(spans[e][NAME] == "goodness.eta" for e in kids[k])
                total += pending
            elif name == "certify.classify":
                if spans[k][ATTRS].get("case") != "unique_optimum":
                    wasted += pending
                pending = 0
        wasted += pending
    return wasted, total


def pass_metrics(spans: list, root: int) -> dict:
    """Per-layer metrics of one traced pass rooted at spans[root]."""
    kids = _children(spans)
    inside = []
    stack = [root]
    while stack:
        i = stack.pop()
        inside.append(i)
        stack.extend(kids[i])
    by_name = {}
    for i in inside:
        by_name.setdefault(spans[i][NAME], []).append(i)

    def total_s(name):
        return sum(_duration(spans[i]) for i in by_name.get(name, ()))

    def count(name):
        return len(by_name.get(name, ()))

    m = {}
    pivots_all = 0
    for category in ("eta", "face", "weighted"):
        m[f"lp.solves.{category}"] = 0
        m[f"lp.pivots.{category}"] = 0
    for i in by_name.get("lp.solve", ()):
        category = _lp_category(spans, i)
        pivots = spans[i][ATTRS].get("pivots", 0)
        pivots_all += pivots
        if category != "other":
            m[f"lp.solves.{category}"] += 1
            m[f"lp.pivots.{category}"] += pivots
    lp_s = total_s("lp.solve")
    m["lp.solve_s"] = lp_s
    m["lp.us_per_pivot"] = lp_s * 1e6 / pivots_all if pivots_all else 0.0
    m["lp.iter_limit"] = sum(
        spans[i][ATTRS].get("status") == "iteration_limit"
        for i in by_name.get("lp.solve", ())
    )
    m["goodness.verdict_s"] = total_s("goodness.verdict")
    m["goodness.eta_calls"] = count("goodness.eta")
    m["goodness.eta_s"] = total_s("goodness.eta")
    wasted, total = _eta_waste(spans, kids)
    m["goodness.eta_wasted_ratio"] = wasted / total if total else 0.0
    m["certify.passes"] = count("goodness.verdict")
    m["certify.weighted_lp_s"] = total_s("certify.weighted_lp")
    m["certify.classify_s"] = total_s("certify.classify")
    m["certify.adjust_s"] = total_s("certify.adjust")
    m["certify.brute_force_s"] = total_s("certify.brute_force")
    m["certify.brute_force_calls"] = count("certify.brute_force")
    # Computed, not measured: the peak of brute_force_ip's arrays is the
    # 2^n x n int8 bit matrix, its float64 copy made by the product, and
    # the 2^n x m float64 product, so 2^n (9n + 8m) bytes.
    shapes = [
        spans[i][ATTRS]
        for i in by_name.get("certify.brute_force", ())
        if "n" in spans[i][ATTRS]
    ]
    m["certify.brute_force_mb_computed"] = max(
        (2 ** a["n"] * (9 * a["n"] + 8 * a["m"]) / 2**20 for a in shapes), default=0.0
    )
    m["instance.to_standard_form_ms"] = total_s("instance.to_standard_form") * 1e3

    # Self time: a span's duration minus its children's. Summed over the
    # program's spans it leaves the harness's share of the pass uncovered.
    for name in PROGRAM_SPANS:
        m[f"self.{name}_s"] = 0.0
    for i in inside:
        name = spans[i][NAME]
        if name in PROGRAM_SPANS:
            m[f"self.{name}_s"] += _duration(spans[i]) - sum(
                _duration(spans[k]) for k in kids[i]
            )
    covered = sum(m[f"self.{name}_s"] for name in PROGRAM_SPANS)
    wall = _duration(spans[root])
    m["trace.wall_s"] = wall
    m["trace.uncovered_share"] = (wall - covered) / wall if wall > 0 else 0.0
    return m


def cli_metrics(groups: list) -> dict:
    """Medians over the CLI processes found in each list of spans."""
    starts, overheads = [], []
    for spans in groups:
        kids = _children(spans)
        for i, span in enumerate(spans):
            if span[NAME] == "cli.process_start":
                starts.append(_duration(span) * 1e3)
            elif span[NAME] == "cli.main":
                inner = sum(
                    _duration(spans[k])
                    for k in kids[i]
                    if spans[k][NAME] in ("certify.certify", "certify.brute_force")
                )
                overheads.append((_duration(span) - inner) * 1e3)
    return {
        "cli.process_start_ms": statistics.median(starts) if starts else 0.0,
        "cli.overhead_ms": statistics.median(overheads) if overheads else 0.0,
        "cli.processes": len(starts),
    }
