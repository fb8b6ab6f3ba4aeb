import ctypes
from pathlib import Path

import numpy as np
import pytest
import scipy

from psrlab import pomdp as pmd
from psrlab.pomdp import default_psr, random_revealing
from psrlab.errors import StructuralError
from psrlab.psr import PsrStack, make_core_test_set
from psrlab.spaces import Future


@pytest.fixture(scope="session")
def reference_env():
    return random_revealing(seed=1, n_states=2, n_obs=3, n_actions=2, horizon=2)


@pytest.fixture(scope="session")
def reference_model(reference_env):
    model, _ = default_psr(reference_env)
    return model


@pytest.fixture(scope="session")
def reference_g(reference_env):
    return default_psr(reference_env)[1]


@pytest.fixture(scope="session")
def small_env():
    """2-obs / 2-action / 2-state documented seed instance."""
    return random_revealing(seed=7, n_states=2, n_obs=2, n_actions=2, horizon=3)


@pytest.fixture(scope="session")
def small_model(small_env):
    return default_psr(small_env)[0]


def model_from_arrays(space, core, psi0, M, phi):
    """A model built from arrays: member 0 of a stack of one over fresh copies of them.

    The stack's one :meth:`PsrStack.faults` entry, if any, is raised as a
    ``StructuralError`` with its message.
    """
    stack = PsrStack(space, core, np.array(psi0)[None], tuple(np.array(ops)[None] for ops in M),
                     tuple(np.array(vec)[None] for vec in phi))
    (fault,) = stack.faults()
    if fault is not None:
        raise StructuralError(fault)
    return stack.members()[0]


def growing_model():
    """An H=3 PSR, two observations, one action, built by hand: observation 1 first has
    probability 1e-13, below the degenerate guard, and every step-2 operator scales by 1e3,
    so that history's descendants rise above the guard."""
    space = pmd.ObsActSpace(2, 1, 3)
    core = make_core_test_set(space, [(Future(h, (0,), ()),) for h in range(3)])
    first = np.array([1.0 - 1e-13, 1e-13]).reshape(2, 1, 1, 1)
    M = (first, np.full((2, 1, 1, 1), 1e3), np.full((2, 1, 1, 1), 0.5))
    return model_from_arrays(space, core, np.ones(1), M, (np.ones(1),) * 4)


def make_single_state_env(horizon=2, n_obs=2, n_actions=2, emission_row=None):
    """One hidden state: trajectory probabilities factor over emissions."""
    space = pmd.ObsActSpace(n_obs, n_actions, horizon)
    if emission_row is None:
        emission_row = np.full(n_obs, 1.0 / n_obs)
    emission = np.stack([np.array([emission_row], dtype=float) for _ in range(horizon)])
    transition = np.ones((horizon - 1, n_actions, 1, 1))
    reward = pmd.RewardTable(np.zeros((horizon, n_obs, n_actions)))
    return pmd.TabularPomdp(1, space, transition, emission, 0, reward)


def assert_same_model(got, want, where=""):
    """Two PSRs are the same to the bit: core tests, ``psi0``, every ``M`` and ``phi``, shapes included."""
    assert got.core_tests == want.core_tests, where
    assert got.psi0.shape == want.psi0.shape and got.psi0.tobytes() == want.psi0.tobytes(), where
    for name in ("M", "phi"):
        for step, (g, w) in enumerate(zip(getattr(got, name), getattr(want, name), strict=True)):
            assert g.shape == w.shape and g.tobytes() == w.tobytes(), (where, name, step)


def assert_same_columns(got, want):
    """Two datasets hold the same entries: every column to the bit, and the same running prefix counts."""
    for h, (got_cols, want_cols) in enumerate(zip(got.columns, want.columns, strict=True)):
        for g, w in zip(got_cols, want_cols, strict=True):
            assert g.typecode == w.typecode and g.tobytes() == w.tobytes()
        assert got.prefix_counts(h).tolist() == want.prefix_counts(h).tolist()


def _openblas_core(package, symbol):
    """The core OpenBLAS chose at run time in ``package``'s bundled library, or "unknown"."""
    root = Path(package.__file__).parent
    for lib in sorted([*root.parent.glob(f"{package.__name__}.libs/libscipy_openblas*"),
                       *root.glob(".dylibs/libscipy_openblas*")]):
        try:
            corename = getattr(ctypes.CDLL(str(lib)), symbol)
        except (OSError, AttributeError):  # not loadable, or no such symbol
            continue
        corename.argtypes = []
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def cpu_kernels():
    """The CPU kernels the last bits of a float result depend on, for a golden digest's failure message.

    OpenBLAS and numpy both pick their SIMD kernels at run time, so a digest
    recorded on one CPU can differ in a last bit on another.
    """
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        dispatch = [t for t in __cpu_dispatch__ if __cpu_features__[t]]
    except ImportError:
        dispatch = "unknown"
    return (
        f"OpenBLAS core numpy={_openblas_core(np, 'scipy_openblas_get_corename64_')} "
        f"scipy={_openblas_core(scipy, 'scipy_openblas_get_corename')}; numpy dispatch {dispatch}"
    )
