"""Data model for nonnegative 0-1 covering instances.

Holds the dense (A, b) instance, the stacked matrix A1 = [A; I] of the
goodness quantities, the independent-set front end, file parsing, a
seeded generator, and ceiling recovery.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .lp import PIVOT_TOL

# Absolute zero-tolerance for support counting and ceiling, covering
# feasibility of 0-1 points, and the s_star floor. It is the simplex's
# own, so a value the simplex treats as zero is counted as zero.
ZERO_TOL = PIVOT_TOL
BOUND_TOL = 1e-6


class InstanceError(ValueError):
    """Invalid instance data."""


class ParseError(InstanceError):
    """Malformed instance or graph file; names the offending line."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


@dataclass(frozen=True, eq=False)
class ZeroOneInstance:
    """min sum(x) s.t. Ax >= b, x binary, with A >= 0 entrywise."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.array(self.A, dtype=float)
        b = np.array(self.b, dtype=float).reshape(-1)
        if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
            raise InstanceError("A must be a nonempty 2-d matrix")
        if not np.all(np.isfinite(A)):
            raise InstanceError("A contains a non-finite entry")
        if np.any(A < 0):
            raise InstanceError("negative entry in A")
        if b.shape != (A.shape[0],):
            raise InstanceError(
                f"b has length {b.size}, expected {A.shape[0]}"
            )
        if not np.all(np.isfinite(b)):
            raise InstanceError("b contains a non-finite entry")
        A.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(repr((self.A.tolist(), self.b.tolist())).encode())
        return h.hexdigest()[:12]


@dataclass(frozen=True, eq=False)
class Weights:
    """Objective weights for the relaxation, each entry in (0, 1]."""

    c: np.ndarray

    def __post_init__(self):
        c = np.array(self.c, dtype=float).reshape(-1)
        if c.size < 1 or not np.all(np.isfinite(c)):
            raise InstanceError("weights must be a nonempty finite vector")
        if np.any(c <= 0) or np.any(c > 1):
            raise InstanceError("weight entry outside (0, 1]")
        c.setflags(write=False)
        object.__setattr__(self, "c", c)

    @property
    def n(self) -> int:
        return self.c.size


def to_standard_form(inst: ZeroOneInstance) -> np.ndarray:
    """The read-only stacked matrix A1 = [A; I_n] that beta_bar, eta_j and
    gamma_hat read."""
    A1 = np.vstack([inst.A, np.eye(inst.n)])
    A1.setflags(write=False)
    return A1


def from_independent_set(vertex_count: int, edges) -> ZeroOneInstance:
    """Complemented covering instance of a maximum-independent-set query.

    Each edge (u, v) becomes the constraint x~_u + x~_v >= 1 on the
    complement variables x~ = 1 - x, so A is the |E| x n edge-vertex
    incidence matrix and b is all ones.
    """
    if vertex_count < 1:
        raise InstanceError("vertex_count must be >= 1")
    seen = set()
    rows = []
    for u, v in edges:
        if u == v:
            raise InstanceError(f"self-loop at vertex {u}")
        if not (1 <= u <= vertex_count and 1 <= v <= vertex_count):
            raise InstanceError(f"vertex index out of range in edge ({u}, {v})")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise InstanceError(f"duplicate edge ({u}, {v})")
        seen.add(key)
        row = np.zeros(vertex_count)
        row[u - 1] = 1.0
        row[v - 1] = 1.0
        rows.append(row)
    if not rows:
        raise InstanceError("graph has no edges; covering instance is empty")
    return ZeroOneInstance(A=np.array(rows), b=np.ones(len(rows)))


def mis_recover(x_tilde, inst: ZeroOneInstance) -> np.ndarray:
    """Map a complement-variable vector of inst, an instance made by
    from_independent_set, back to an independent-set indicator."""
    x = np.asarray(x_tilde, dtype=float).reshape(-1)
    if x.size != inst.n:
        raise InstanceError(f"expected {inst.n} entries, got {x.size}")
    rounded = np.rint(x)
    if np.any(np.abs(x - rounded) > BOUND_TOL) or np.any(
        (rounded != 0) & (rounded != 1)
    ):
        raise InstanceError("non-binary input")
    return (1 - rounded).astype(int)


def random_instance(
    m: int, n: int, seed: int, max_entry: int = 2
) -> ZeroOneInstance:
    """Seeded random instance, feasible for x = all-ones by construction."""
    if m < 1 or n < 1:
        raise InstanceError("m and n must be >= 1")
    if max_entry < 1:
        raise InstanceError("max_entry must be >= 1")
    rng = np.random.default_rng(seed)
    A = rng.integers(0, max_entry + 1, size=(m, n)).astype(float)
    for j in range(n):
        if not A[:, j].any():
            A[rng.integers(0, m), j] = float(rng.integers(1, max_entry + 1))
    row_sums = A.sum(axis=1)
    # b_i in (0, row_sum_i]; zero rows get b_i = 0.
    b = row_sums * (1.0 - rng.random(m))
    return ZeroOneInstance(A=A, b=b)


def ceil_recover(x) -> np.ndarray:
    """Round an LP point in [0, 1]^n up to its support indicator."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if np.any(x < -BOUND_TOL) or np.any(x > 1 + BOUND_TOL):
        raise InstanceError("entry outside [0, 1]")
    return (x > ZERO_TOL).astype(int)


def _effective_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _floats(tokens, lineno):
    out = []
    for tok in tokens:
        try:
            out.append(float(tok))
        except ValueError:
            raise ParseError(lineno, f"non-numeric token {tok!r}") from None
    return out


def parse_instance(text: str) -> tuple:
    """Parse the line-oriented instance format.

    Line 1: "m n"; then m rows of A, one line each; then b; then an
    optional line "c w1 ... wn". Returns (instance, weights-or-None).
    """
    lines = list(_effective_lines(text))
    if not lines:
        raise ParseError(1, "empty input")
    pos = 0
    lineno, tokens = lines[pos]
    if len(tokens) != 2:
        raise ParseError(lineno, "expected header 'm n'")
    try:
        m, n = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise ParseError(lineno, "non-numeric dimension") from None
    if m < 1 or n < 1:
        raise ParseError(lineno, "dimensions must be positive")
    pos += 1

    rows = []
    for i in range(m):
        if pos >= len(lines):
            raise ParseError(lines[-1][0], f"missing row {i + 1} of A")
        lineno, tokens = lines[pos]
        if len(tokens) != n:
            raise ParseError(lineno, f"expected {n} entries, got {len(tokens)}")
        vals = _floats(tokens, lineno)
        if any(v < 0 for v in vals):
            raise ParseError(lineno, "negative entry")
        rows.append(vals)
        pos += 1

    if pos >= len(lines):
        raise ParseError(lines[-1][0], "missing b line")
    lineno, tokens = lines[pos]
    if len(tokens) != m:
        raise ParseError(lineno, f"expected {m} entries for b, got {len(tokens)}")
    b = _floats(tokens, lineno)
    pos += 1

    weights = None
    if pos < len(lines):
        lineno, tokens = lines[pos]
        if tokens[0] != "c":
            raise ParseError(lineno, "unexpected trailing line (expected 'c ...')")
        if len(tokens) != n + 1:
            raise ParseError(lineno, f"expected {n} weights, got {len(tokens) - 1}")
        vals = _floats(tokens[1:], lineno)
        if any(v <= 0 or v > 1 for v in vals):
            raise ParseError(lineno, "c entry outside (0, 1]")
        weights = Weights(c=np.array(vals))
        pos += 1

    if pos < len(lines):
        raise ParseError(lines[pos][0], "unexpected trailing line")
    return ZeroOneInstance(A=np.array(rows), b=np.array(b)), weights


def format_instance(inst: ZeroOneInstance, weights: Weights | None = None) -> str:
    """Render an instance in the parse_instance file format; parsing the
    text gives back the same floats."""
    lines = [f"{inst.m} {inst.n}"]
    for row in inst.A:
        lines.append(_format_floats(row))
    lines.append(_format_floats(inst.b))
    if weights is not None:
        lines.append("c " + _format_floats(weights.c))
    return "\n".join(lines) + "\n"


def _format_floats(values) -> str:
    """Each value as the shortest text that parses back to the same float;
    an integral value prints without a decimal point."""
    return " ".join(np.format_float_positional(v, trim="-") for v in values)


def parse_graph(text: str) -> tuple:
    """Parse the graph format: "p <vertex_count>" then "e u v" lines."""
    vertex_count = None
    edges = []
    for lineno, tokens in _effective_lines(text):
        if tokens[0] == "p":
            if vertex_count is not None:
                raise ParseError(lineno, "duplicate 'p' line")
            if len(tokens) != 2:
                raise ParseError(lineno, "expected 'p <vertex_count>'")
            try:
                vertex_count = int(tokens[1])
            except ValueError:
                raise ParseError(lineno, "non-numeric vertex count") from None
        elif tokens[0] == "e":
            if vertex_count is None:
                raise ParseError(lineno, "'e' line before 'p' line")
            if len(tokens) != 3:
                raise ParseError(lineno, "expected 'e u v'")
            try:
                u, v = int(tokens[1]), int(tokens[2])
            except ValueError:
                raise ParseError(lineno, "non-numeric vertex index") from None
            edges.append((u, v))
        else:
            raise ParseError(lineno, f"unknown record {tokens[0]!r}")
    if vertex_count is None:
        raise ParseError(1, "missing 'p' line")
    return vertex_count, edges
