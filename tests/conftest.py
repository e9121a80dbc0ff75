import numpy as np
import pytest

from gausslink import DeviceCaps
from gausslink.optimize import _check_box, _golden
from gausslink.sampling import generator


@pytest.fixture
def rng():
    return generator(20260808, stream=0)


@pytest.fixture
def simple_caps():
    return DeviceCaps(d_a=100.0, d_b=10.0, tau_a=0.9, tau_b=0.8, n_th=0.0)


def random_covmat_channel(rng: np.random.Generator, dim: int = 4):
    """Random (T, N) pair with symmetric positive semidefinite N."""
    T = rng.normal(size=(dim, dim))
    G = rng.normal(size=(dim, dim))
    return T, G @ G.T


def golden_max_1d(f, lo: float, hi: float, *, iters: int = 60) -> tuple[float, float]:
    """Golden-section maximization of f on [lo, hi]; ValueError for a bad bracket."""
    _check_box((lo,), (hi,))
    return _golden(f, lo, hi, iters)
