"""Doubly-parametric transducer (DPT) as a two-mode Gaussian channel.

The device couples an optical mode (subscript a) and a microwave mode
(subscript b) through a pumped mediating mode.  Its action on itinerant
modes is fully described by five dimensionless numbers: the two
cooperativities C_a and C_b, the two port transmissivities tau_a and
tau_b (coupling losses already folded in), and the thermal occupancy
n_th of the mediating mode's bath.  Pump detunings enter as signs:
-1 for red (beamsplitter-type interaction), +1 for blue (two-mode
squeezing interaction).

Red-red operation is unconditionally stable; with one blue pump the
linearized dynamics are stable only below two thresholds that involve
the physical linewidths, see stability_ok.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Literal, Sequence

from .core import _FINITE, OneModeChannel, TwoModeChannel, _is_array

__all__ = [
    "C_MAX",
    "DptParams",
    "PhysicalRates",
    "DeviceCaps",
    "DEFAULT_RATES",
    "SingularOperatingPointError",
    "InvalidOperatingModeError",
    "UnstableOperatingPointError",
    "dpt_two_mode_channel",
    "conversion_channel",
    "stability_ok",
    "fold_external_loss",
]

#: Margin used when enforcing strict inequalities (stability, denominators)
#: so optimizers stay off singular boundaries.
STRICT_MARGIN = 1e-9

#: Largest cooperativity, of an operating point or a cap: far above any
#: device, and far enough below overflow that the channel and threshold
#: forms, which square and multiply cooperativities, stay finite.
C_MAX = 1e12


class SingularOperatingPointError(ValueError):
    """The channel denominator 1 - sigma_a C_a - sigma_b C_b vanishes."""


class InvalidOperatingModeError(ValueError):
    """The requested operation is incompatible with the pump detunings."""


class UnstableOperatingPointError(ValueError):
    """Blue-detuned operation outside the stability region."""


def _check_fields(n_th, tau_a=1.0, tau_b=1.0, c_a=0.0, c_b=0.0, what="cooperativities"):
    """The field rule of DptParams and DeviceCaps; also checks a lone n_th."""
    if not (0.0 <= c_a <= C_MAX and 0.0 <= c_b <= C_MAX):
        raise ValueError(f"{what} must be finite and >= 0, at most {C_MAX:g}, got ({c_a}, {c_b})")
    if not (0.0 <= tau_a <= 1.0 and 0.0 <= tau_b <= 1.0):
        raise ValueError(f"transmissivities must lie in [0, 1], got ({tau_a}, {tau_b})")
    if not (0.0 <= n_th <= _FINITE):
        raise ValueError(f"thermal occupancy must be finite and >= 0, got {n_th}")


def _check_cap(name: str, value, cap: float) -> None:
    """The cap rule 0 <= value <= cap, with a slack of 1e-12 relative and 1e-15 absolute."""
    if not (0.0 <= value <= cap * (1.0 + 1e-12) + 1e-15):
        raise ValueError(f"{name} = {value} violates 0 <= {name} <= {cap}")


@dataclass(frozen=True)
class DptParams:
    """Dimensionless operating point of one transducer.

    sigma_a / sigma_b are the optical / microwave pump signs (-1 red
    detuned, +1 blue detuned).  At most one pump may be blue detuned.
    """

    c_a: float
    c_b: float
    tau_a: float
    tau_b: float
    n_th: float
    sigma_a: int = -1
    sigma_b: int = -1

    def __post_init__(self):
        _check_fields(self.n_th, self.tau_a, self.tau_b, self.c_a, self.c_b)
        if self.sigma_a not in (-1, 1) or self.sigma_b not in (-1, 1):
            raise ValueError("pump signs must be -1 (red) or +1 (blue)")
        if self.sigma_a == 1 and self.sigma_b == 1:
            raise ValueError("at most one pump may be blue detuned")


@dataclass(frozen=True)
class PhysicalRates:
    """Resonator linewidths needed by the second stability criterion.

    Only the ratios to gamma_m matter; the cooperativity-coupling bridge
    is C_i = 4 G_i**2 / (kappa_i gamma_m).  With either side blue-pumped
    (+, the other -), kappa_+ gamma_m and the stability bound's scale
    (kappa_- + gamma_m) / (kappa_+ gamma_m) must be finite and > 0 as
    doubles, so that _blue_bound never divides by 0 or reads NaN.
    """

    kappa_a: float
    kappa_b: float
    gamma_m: float

    def __post_init__(self):
        if not all(0.0 < x <= _FINITE for x in (self.kappa_a, self.kappa_b, self.gamma_m)):
            raise ValueError(f"all rates must be finite and > 0, got {self}")
        for plus, minus in ((self.kappa_a, self.kappa_b), (self.kappa_b, self.kappa_a)):
            product = plus * self.gamma_m
            if not (0.0 < product <= _FINITE and 0.0 < (minus + self.gamma_m) / product <= _FINITE):
                raise ValueError(
                    "kappa_+ gamma_m and (kappa_- + gamma_m) / (kappa_+ gamma_m) must be finite"
                    f" and > 0 for both pump sides, got {self}"
                )


DEFAULT_RATES = PhysicalRates(kappa_a=100.0, kappa_b=100.0, gamma_m=1.0)


@dataclass(frozen=True)
class DeviceCaps:
    """Achievable envelope of a transducer pair.

    d_a and d_b are the maximum optical and microwave cooperativities;
    tau_a, tau_b the maximal transmissivities (with fixed coupling losses
    pre-folded); n_th the minimal thermal occupancy.  Both transducers of
    a network share tau_a, tau_b, n_th and the physical rates, but their
    cooperativities may be tuned independently below the caps.  Each
    object keeps the IO and IM nodes built from it (_nodes), which are
    not fields: ==, hash, repr and pickle ignore them.
    """

    d_a: float
    d_b: float
    tau_a: float
    tau_b: float
    n_th: float
    rates: PhysicalRates = DEFAULT_RATES

    def __post_init__(self):
        _check_fields(self.n_th, self.tau_a, self.tau_b, self.d_a, self.d_b, "maximum cooperativities")

    def params(self, c_a: float, c_b: float, sigma_a: int = -1, sigma_b: int = -1) -> DptParams:
        """Operating point at the cap transmissivities and noise floor."""
        return DptParams(
            c_a=c_a,
            c_b=c_b,
            tau_a=self.tau_a,
            tau_b=self.tau_b,
            n_th=self.n_th,
            sigma_a=sigma_a,
            sigma_b=sigma_b,
        )

    @cached_property
    def _nodes(self) -> dict:
        """The blue node of each kind built from these caps (thresholds._blue_node)."""
        return {}

    def __getstate__(self) -> dict:
        """The fields alone: a copy, such as a pool worker's, builds its own nodes."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def dpt_two_mode_channel(p: DptParams) -> TwoModeChannel:
    """Full two-mode Gaussian channel (T, N) of the transducer.

    Raises SingularOperatingPointError when the denominator
    1 - sigma_a C_a - sigma_b C_b is within 1e-12 of zero.
    """
    sa, sb = p.sigma_a, p.sigma_b
    den = 1.0 - sa * p.c_a - sb * p.c_b
    if abs(den) <= 1e-12:
        raise SingularOperatingPointError(
            f"1 - sigma_a C_a - sigma_b C_b = {den} is (numerically) zero"
        )
    import numpy as np

    g = math.sqrt(p.tau_a * p.tau_b * p.c_a * p.c_b)

    T = np.zeros((4, 4))
    T[0, 0] = T[1, 1] = p.tau_a * (1.0 - sb * p.c_b)
    T[2, 2] = T[3, 3] = p.tau_b * (1.0 - sa * p.c_a)
    T[0, 2], T[1, 3] = g * sa, g * sb
    T[2, 0], T[3, 1] = g * sb, g * sa
    T = (2.0 / den) * T - np.eye(4)

    alpha = p.tau_a * (
        (1.0 - p.tau_a) * (1.0 - sb * p.c_b) ** 2
        + p.c_a * (1.0 + 2.0 * p.n_th + p.c_b * (1.0 - p.tau_b))
    )
    beta = p.tau_b * (
        (1.0 - p.tau_b) * (1.0 - sa * p.c_a) ** 2
        + p.c_b * (1.0 + 2.0 * p.n_th + p.c_a * (1.0 - p.tau_a))
    )
    gamma = g * (
        2.0 * p.n_th
        - sa * sb * (1.0 + sb * p.tau_a + sa * p.tau_b
                     + p.c_a * (1.0 - p.tau_b) + p.c_b * (1.0 - p.tau_a))
    )
    N = np.zeros((4, 4))
    N[0, 0] = N[1, 1] = alpha
    N[2, 2] = N[3, 3] = beta
    N[0, 2] = N[2, 0] = gamma * sa * sb
    N[1, 3] = N[3, 1] = gamma
    N *= 2.0 / den**2
    return TwoModeChannel(T, N)


def _conversion_t_mu(c_a, c_b, tau_a, tau_b, n_th) -> tuple[float, float]:
    """Scalar form of the down-conversion channel, T = t I and N = n I: (t, mu).

    mu = t**2/2 + n - 1/2 is the above-vacuum output on vacuum input.
    It collapses to 4 tau_b C_b n_th / s**2, the cancellation-free form
    needed when tracking states as excesses over vacuum;
    conversion_channel recovers n = 1/2 - t**2/2 + mu, and gets
    up-conversion by exchanging the a and b roles.  Elementwise on
    arrays.
    """
    s = 1.0 + c_a + c_b
    g = tau_a * tau_b * c_a * c_b
    # math.sqrt, as in sources._mo_excess, to match numpy's sqrt bit for bit
    if type(g) is float:
        g = math.sqrt(g)
    else:
        import numpy as np

        g = np.sqrt(g)
    return -2.0 * g / s, 4.0 * tau_b * c_b * n_th / (s * s)


def conversion_channel(direction: Literal["up", "down"], p: DptParams) -> OneModeChannel:
    """One-mode up- or down-conversion channel of a red-red transducer.

    Down-conversion maps an optical input to the microwave output (the
    unused optical output is traced out); up-conversion is the reverse,
    the same channel with the optical and microwave roles exchanged.
    The transmission amplitude carries a global sign flip that is
    irrelevant for any entanglement quantity.
    """
    if direction not in ("up", "down"):
        raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
    if p.sigma_a != -1 or p.sigma_b != -1:
        raise InvalidOperatingModeError(
            "conversion channels require both pumps red detuned"
        )
    if direction == "down":
        t, mu = _conversion_t_mu(p.c_a, p.c_b, p.tau_a, p.tau_b, p.n_th)
    else:
        t, mu = _conversion_t_mu(p.c_b, p.c_a, p.tau_b, p.tau_a, p.n_th)
    n = 0.5 - t * t / 2.0 + mu
    import numpy as np

    return OneModeChannel(t * np.eye(2), n * np.eye(2))


def _blue_rates(rates: PhysicalRates, optical_blue: bool) -> tuple[float, float, float]:
    """(kappa_+, kappa_-, gamma_m); kappa_+ is kappa_a if optical_blue (IO), else kappa_b (IM)."""
    if optical_blue:
        return rates.kappa_a, rates.kappa_b, rates.gamma_m
    return rates.kappa_b, rates.kappa_a, rates.gamma_m


def _blue_bound(c_red, rates: PhysicalRates, optical_blue: bool):
    """The strict stability bound on C_+ at C_- = c_red, one blue pump's only rule.

    The blue-pumped side (+) is the optical one (sigma_a = +1, IO source)
    if optical_blue, else the microwave one; c_red is the other side's C_-,
    a float or, elementwise, a numpy array.  A point is stable iff
    C_+ < _blue_bound(C_-): the lesser of the two criteria's largest C_+,
    less STRICT_MARGIN.  A plain function, so that a check builds
    nothing.
    """
    kappa_plus, kappa_minus, gamma_m = _blue_rates(rates, optical_blue)
    first = c_red + 1.0
    # second criterion, linear in C_+ once the coupling bridge is applied
    rhs = c_red * kappa_minus * gamma_m / (kappa_plus + gamma_m) + kappa_plus + kappa_minus
    second = rhs * (kappa_minus + gamma_m) / (kappa_plus * gamma_m)
    if _is_array(first):
        import numpy as np

        least = np.minimum(first, second)
    else:
        least = first if first <= second else second
    return least - STRICT_MARGIN


def _blue_bound_lines(rates: PhysicalRates, optical_blue: bool):
    """The two criteria of _blue_bound as lines (slope, intercept) in C_-, before STRICT_MARGIN.

    The bound is the lesser line less STRICT_MARGIN.  These coefficients
    may differ from the bound's own arithmetic in the last bit, so they
    locate its pieces; the bound itself stays _blue_bound's.
    """
    kappa_plus, kappa_minus, gamma_m = _blue_rates(rates, optical_blue)
    scale = (kappa_minus + gamma_m) / (kappa_plus * gamma_m)
    second = (kappa_minus * gamma_m / (kappa_plus + gamma_m) * scale, (kappa_plus + kappa_minus) * scale)
    return (1.0, 1.0), second


def stability_ok(p: DptParams, rates: PhysicalRates) -> bool:
    """Stability of the linearized dynamics at this operating point.

    Red-red operation is always stable.  With one blue pump, both
    criteria must hold with a strict margin: C_+ < C_- + 1 and
    4 G_+^2/(kappa_- + gamma_m) < 4 G_-^2/(kappa_+ + gamma_m)
    + kappa_+ + kappa_-, where + labels the blue-pumped side and the
    couplings follow from C_i = 4 G_i^2/(kappa_i gamma_m).  The test is
    C_+ < _blue_bound(C_-).
    """
    if p.sigma_a == -1 and p.sigma_b == -1:
        return True
    if p.sigma_a == 1:
        return p.c_a < _blue_bound(p.c_b, rates, True)
    return p.c_b < _blue_bound(p.c_a, rates, False)


def _check_loss_split(tau_e: float, split: Sequence[float] | None = None):
    """Check tau_e in (0, 1] and any split (see fold_external_loss); return it as floats."""
    if not (0.0 < tau_e <= 1.0):
        raise ValueError(f"external transmissivity must be in (0, 1], got {tau_e}")
    if split is None:
        return None
    split = tuple(map(float, split))
    prod = math.prod(split)
    if not abs(prod - tau_e) <= 1e-12 * max(1.0, tau_e):
        raise ValueError(f"loss split {split} multiplies to {prod}, expected tau_e={tau_e}")
    for f in split:
        if not (tau_e - 1e-12 <= f <= 1.0 + 1e-12):
            raise ValueError(f"loss share {f} outside [tau_e={tau_e}, 1]")
    return split


def fold_external_loss(
    caps: DeviceCaps, tau_e: float, split: Sequence[float]
) -> tuple[float, ...]:
    """Distribute external optical transmissivity over optical-mode shares.

    Returns the effective tau_a for each optical mode after multiplying
    in its assigned share of tau_e.  The shares must multiply to tau_e
    (within 1e-12) and each lie in [tau_e, 1]; the microwave tau_b is
    never touched by external optical loss.
    """
    return tuple(caps.tau_a * f for f in _check_loss_split(tau_e, split))
