"""The four microwave-optical entangled resource states.

Two extrinsic constructions feed an externally squeezed two-mode vacuum
through a red-red transducer (EO downconverts one half of an optical
pair, EM upconverts one half of a microwave pair).  Two intrinsic
constructions drive the transducer itself as a two-mode squeezer on
vacuum inputs, with either the optical (IO) or the microwave (IM) pump
blue detuned.  EM and IM are the optical<->microwave mirrors of EO and
IO: exchanging the roles of the two sides, (C_a, tau_a) <-> (C_b,
tau_b), maps one onto the other with the output modes exchanged, so
only EO and IO need closed forms.

Every resulting state is balanced-correlated; mode 1 is always the
optical mode and mode 2 the microwave mode.  mo_state evaluates the
closed forms directly, while mo_state_via_composition rebuilds the same
state by explicit channel composition and is kept permanently as an
independent numerical oracle.

Sign convention: the cross-correlation c is reported as produced by the
channel composition, which is negative for all four constructions (the
intrinsic states come out with c < 0 even though |c| matches the usual
closed-form magnitude).  All entanglement quantities are invariant
under c -> -c.
"""

from __future__ import annotations

import enum
import math

from .core import BalancedForm, SqueezeParam, _as_r, apply_one_mode, apply_two_mode, make_tms
from .transducer import (
    DEFAULT_RATES,
    DptParams,
    InvalidOperatingModeError,
    PhysicalRates,
    UnstableOperatingPointError,
    _blue_bound,
    conversion_channel,
    dpt_two_mode_channel,
)

__all__ = ["MoKind", "mo_state", "mo_state_via_composition"]


class MoKind(enum.Enum):
    """The four ways of generating microwave-optical entanglement."""

    EO = "extrinsic-optical"
    EM = "extrinsic-microwave"
    IO = "intrinsic-optical"
    IM = "intrinsic-microwave"


#: (sigma_a, sigma_b) required of the source transducer for each kind.
REQUIRED_SIGMAS = {
    MoKind.EO: (-1, -1),
    MoKind.EM: (-1, -1),
    MoKind.IO: (1, -1),
    MoKind.IM: (-1, 1),
}
#: Bound once for the hot paths: a global loads faster than MoKind.X.
_EO, _EM, _IO, _IM = MoKind


def _mo_excess(kind: MoKind, c_a, c_b, tau_a, tau_b, n_th, r):
    """Closed-form state above vacuum, (A, B, c, P); no validation, hot path.

    A = a - 1/2 and B = b - 1/2 are the mode variances in excess of
    vacuum, and P = A*B - c*c is carried in a cancellation-free closed
    form because its sign decides entanglement (entangled iff P < 0)
    and the naive product loses all precision near the squeezing
    instability, where A, B, |c| diverge like 1/(1 + C_- - C_+)**2.

    EM and IM are evaluated as the mirrors of EO and IO (see the module
    docstring): the roles swap on the way in and (A, B) on the way out.

    c_a and c_b may be floats or numpy arrays of one shape; the result
    is then elementwise, bit for bit equal to the float evaluation.
    That is why a float's square root is math.sqrt and not ** 0.5:
    libm's pow is not correctly rounded, numpy's sqrt and math.sqrt are.
    """
    mirror = kind is _EM or kind is _IM
    if mirror:
        c_a, c_b, tau_a, tau_b = c_b, c_a, tau_b, tau_a
    g = tau_a * tau_b * c_a * c_b
    if type(g) is float:
        g = math.sqrt(g)
    else:
        import numpy as np

        g = np.sqrt(g)
    if kind is _EO or kind is _EM:
        # the squeezed pair's second (b-side) mode passes the red-red converter
        sh2 = math.sinh(r) ** 2
        s = 1.0 + c_a + c_b
        s2 = s * s
        k = 4.0 * tau_b * c_b
        A = sh2
        B = k * (n_th + tau_a * c_a * sh2) / s2
        c = -g * math.sinh(2.0 * r) / s
        P = k * sh2 * (n_th - tau_a * c_a) / s2
    else:
        # the a side is pumped blue; d > 0 is the stability margin
        d = 1.0 - c_a + c_b
        d2 = d * d
        A = 4.0 * tau_a * c_a * (c_b + n_th + 1.0) / d2
        B = 4.0 * tau_b * c_b * (c_a + n_th) / d2
        c = -2.0 * (c_a + c_b + 2.0 * n_th + 1.0) * g / d2
        P = -4.0 * tau_a * tau_b * c_a * c_b / d2
    return (B, A, c, P) if mirror else (A, B, c, P)


def _check_stable(kind: MoKind, c_a: float, c_b: float, rates: PhysicalRates) -> None:
    """Raise UnstableOperatingPointError, naming the enforced bound, for an unstable source.

    Only the intrinsic kinds have a blue pump; EO and EM are always stable.
    """
    if kind is _EO or kind is _EM:
        return
    optical = kind is _IO
    name, value, c_red = ("C_a", c_a, c_b) if optical else ("C_b", c_b, c_a)
    bound = _blue_bound(c_red, rates, optical)
    if not value < bound:
        raise UnstableOperatingPointError(
            f"{kind.name} source unstable: {name} = {value} violates {name} < {bound}"
        )


def _check_source(kind: MoKind, p: DptParams, rates: PhysicalRates) -> None:
    want = REQUIRED_SIGMAS[kind]
    if (p.sigma_a, p.sigma_b) != want:
        raise InvalidOperatingModeError(
            f"{kind.name} source requires pump signs {want}, "
            f"got ({p.sigma_a}, {p.sigma_b})"
        )
    _check_stable(kind, p.c_a, p.c_b, rates)


def mo_state(
    kind: MoKind,
    p: DptParams,
    r: SqueezeParam | float = 0.0,
    rates: PhysicalRates = DEFAULT_RATES,
) -> BalancedForm:
    """Balanced form of a microwave-optical entangled resource state.

    For the intrinsic kinds the squeezing argument is ignored (they use
    no external squeezer) but the operating point must be stable against
    the given rates.  Extrinsic kinds require both pumps red detuned.
    """
    rv = _as_r(r)
    _check_source(kind, p, rates)
    A, B, c, _ = _mo_excess(kind, p.c_a, p.c_b, p.tau_a, p.tau_b, p.n_th, rv)
    return BalancedForm(0.5 + A, 0.5 + B, c)


def mo_state_via_composition(
    kind: MoKind,
    p: DptParams,
    r: SqueezeParam | float = 0.0,
    rates: PhysicalRates = DEFAULT_RATES,
) -> BalancedForm:
    """Same state built by explicit channel composition.

    EO: downconvert mode 2 of an optical two-mode squeezed vacuum.
    EM: upconvert mode 1 of a microwave two-mode squeezed vacuum.
    IO/IM: apply the full two-mode squeezing channel to vacuum.
    Retained as the independent oracle for mo_state.
    """
    rv = _as_r(r)
    _check_source(kind, p, rates)
    if kind is MoKind.EO:
        v = apply_one_mode(conversion_channel("down", p), make_tms(rv), mode=2)
    elif kind is MoKind.EM:
        v = apply_one_mode(conversion_channel("up", p), make_tms(rv), mode=1)
    else:
        v = apply_two_mode(dpt_two_mode_channel(p), make_tms(0.0))
    return BalancedForm.from_cov(v)
