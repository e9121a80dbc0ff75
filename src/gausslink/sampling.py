"""Seeded random draws for validation sweeps.

All randomness flows through numpy's Philox4x64-10 counter-based bit
generator, keyed by a user seed plus a fixed per-check stream offset.
Given the same seed, every sweep therefore reproduces the identical
draw sequence on any platform, which makes validation failures
replayable from the reported seed alone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .sources import MoKind
from .transducer import DeviceCaps, DptParams

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "generator",
    "random_balanced_states",
    "random_caps",
    "random_red_params",
    "random_source_params",
]


def generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox-backed generator for one named stream of a seeded run."""
    import numpy as np

    return np.random.Generator(np.random.Philox(key=np.uint64(seed), counter=[0, 0, 0, np.uint64(stream)]))


def random_balanced_states(rng: np.random.Generator, n: int) -> np.ndarray:
    """n physical balanced-correlated states as an (n, 3) array of (a, b, c).

    Rejection-samples against the exact physicality condition (positive
    definiteness and minimum symplectic eigenvalue >= 1/2), with both
    entangled and separable states well represented: a and b are 1/2
    plus an exponential draw of mean 2.
    """
    import numpy as np

    out = np.empty((0, 3))
    while out.shape[0] < n:
        m = max(2 * (n - out.shape[0]), 128)
        a = 0.5 + rng.exponential(2.0, m)
        b = 0.5 + rng.exponential(2.0, m)
        c = rng.uniform(-1.0, 1.0, m) * np.sqrt(a * b)
        x = a * b - c * c
        delta = a * a + b * b - 2.0 * c * c
        ok = (x > 0.0) & (delta >= 0.5) & (4.0 * x * x + 0.25 >= delta)
        out = np.vstack([out, np.column_stack([a, b, c])[ok]])
    return out[:n]


def random_caps(rng: np.random.Generator, rates=None) -> DeviceCaps:
    """Caps drawn from the standard validation ranges."""
    kwargs = {} if rates is None else {"rates": rates}
    return DeviceCaps(
        d_a=10.0 ** rng.uniform(-2.0, 4.0),
        d_b=10.0 ** rng.uniform(-2.0, 3.0),
        tau_a=rng.uniform(0.5, 1.0),
        tau_b=rng.uniform(0.5, 1.0),
        n_th=0.0,
        **kwargs,
    )


#: Upper end of the drawn thermal occupation n_th.
_N_TH_MAX = 3.0
#: Distance a blue-detuned draw keeps to its first stability boundary.
_BLUE_MARGIN = 0.05


def random_red_params(rng: np.random.Generator) -> DptParams:
    """Red-red operating point with moderate cooperativities."""
    return DptParams(
        c_a=10.0 ** rng.uniform(-2.0, 2.0),
        c_b=10.0 ** rng.uniform(-2.0, 2.0),
        tau_a=rng.uniform(0.05, 1.0),
        tau_b=rng.uniform(0.05, 1.0),
        n_th=rng.uniform(0.0, _N_TH_MAX),
    )


def random_source_params(rng: np.random.Generator, kind: MoKind) -> DptParams:
    """Valid operating point for an MO source of the given kind.

    Blue-detuned draws keep _BLUE_MARGIN to the first stability boundary
    so the resulting states stay in a numerically comfortable range.
    """
    p = random_red_params(rng)
    if kind is MoKind.IO:
        c_a = rng.uniform(0.0, 1.0) * min(p.c_b + 1.0 - _BLUE_MARGIN, 100.0)
        return DptParams(c_a, p.c_b, p.tau_a, p.tau_b, p.n_th, sigma_a=1)
    if kind is MoKind.IM:
        c_b = rng.uniform(0.0, 1.0) * min(p.c_a + 1.0 - _BLUE_MARGIN, 100.0)
        return DptParams(p.c_a, c_b, p.tau_a, p.tau_b, p.n_th, sigma_b=1)
    return p
