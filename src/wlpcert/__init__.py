"""Weighted-LP exactness certificates for nonnegative 0-1 covering programs."""

from .instance import (
    InstanceError,
    ParseError,
    Weights,
    ZeroOneInstance,
    ceil_recover,
    format_instance,
    from_independent_set,
    mis_recover,
    parse_graph,
    parse_instance,
    random_instance,
    to_standard_form,
)
from .lp import (
    LpError,
    LpSolution,
    Status,
    optimal_face_range,
    solve,
)
from .goodness import (
    GoodnessReport,
    beta_bar,
    eta_j,
    gamma_hat_closed_form,
    sufficient_verdict,
)
from .certify import (
    CaseKind,
    Certificate,
    CertifyConfig,
    Pass,
    PassReason,
    adjust_weights,
    branch_and_bound_ip,
    brute_force_ip,
    certify,
    classify_case,
    solve_weighted_lp,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
