import importlib
from pathlib import Path

import numpy as np
import pytest

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # Property tests draw the same examples on every run, so Tier-1 stays
    # deterministic.
    settings.register_profile("tier1", derandomize=True, deadline=None)
    settings.load_profile("tier1")

from wlpcert import Weights, ZeroOneInstance, from_independent_set, to_standard_form

EX1_TEXT = """\
# example instance 1
3 3
1 2 0
0 1 1
1 0 2
1 1 1
"""

# random_instance(m, n, seed) arguments of instances whose first pass
# passes the eta test with the recovery [1, 1]; the 0-1 optimum is 1.
REFUTED_INSTANCES = (
    (2, 2, 35),
    (3, 2, 742944872),
    (2, 2, 840156141),
    (3, 2, 600752579),
)


def cycle_instance(n):
    """Covering instance of maximum independent set on the n-cycle."""
    return from_independent_set(n, [(i, i % n + 1) for i in range(1, n + 1)])


def workload_cases(workload, seed, monkeypatch):
    """The inputs of one of perfbench's library workloads at the seed."""
    monkeypatch.syspath_prepend(Path(__file__).resolve().parent.parent / "perfbench")
    return importlib.import_module("workloads").build(workload, seed)


@pytest.fixture
def ex1():
    return ZeroOneInstance(
        A=np.array([[1, 2, 0], [0, 1, 1], [1, 0, 2]], dtype=float),
        b=np.array([1.0, 1.0, 1.0]),
    )


@pytest.fixture
def ex2():
    return ZeroOneInstance(
        A=np.array([[1, 0, 0], [1, 1, 0], [0, 1, 1]], dtype=float),
        b=np.array([0.0, 1.5, 0.5]),
    )


@pytest.fixture
def ex3():
    return ZeroOneInstance(
        A=np.array([[1, 2, 0], [0, 1, 1], [2, 0, 1]], dtype=float),
        b=np.array([0.0, 0.5, 1.0 / 3.0]),
    )


@pytest.fixture
def ones3():
    return Weights(c=np.ones(3))


@pytest.fixture
def sf1(ex1):
    return to_standard_form(ex1)


@pytest.fixture
def sf2(ex2):
    return to_standard_form(ex2)


@pytest.fixture
def sf3(ex3):
    return to_standard_form(ex3)
