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

import numpy as np

from .core import BalancedForm, SqueezeParam, _as_r, apply_one_mode, apply_two_mode, make_tms
from .transducer import (
    DEFAULT_RATES,
    STRICT_MARGIN,
    DptParams,
    InvalidOperatingModeError,
    PhysicalRates,
    UnstableOperatingPointError,
    _blue_cap,
    _blue_cap_fn,
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


def _mo_excess_fn(kind: MoKind, tau_a, tau_b, n_th, r):
    """Closed-form state above vacuum, f(c_a, c_b) = (A, B, c, P); no validation, hot path.

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
    The factors fixed by (tau_a, tau_b, n_th, r) are bound once; each
    is a leading prefix of a left-to-right product or a whole call, so
    binding it changes no bit of the result.
    """
    mirror = kind is _EM or kind is _IM
    if mirror:
        tau_a, tau_b = tau_b, tau_a
    tau_ab = tau_a * tau_b
    four_tau_b = 4.0 * tau_b
    if kind is _EO or kind is _EM:
        # the squeezed pair's second (b-side) mode passes the red-red converter
        sh2 = math.sinh(r) ** 2
        sh_2r = math.sinh(2.0 * r)

        def eo(c_a, c_b):
            if mirror:
                c_a, c_b = c_b, c_a
            g = tau_ab * c_a * c_b
            g = math.sqrt(g) if type(g) is float else np.sqrt(g)
            s = 1.0 + c_a + c_b
            s2 = s * s
            k = four_tau_b * c_b
            A = sh2
            B = k * (n_th + tau_a * c_a * sh2) / s2
            c = -g * sh_2r / s
            P = k * sh2 * (n_th - tau_a * c_a) / s2
            return (B, A, c, P) if mirror else (A, B, c, P)

        return eo
    # the a side is pumped blue; d > 0 is the stability margin
    four_tau_a = 4.0 * tau_a
    two_n_th = 2.0 * n_th
    minus_four_tau_ab = -4.0 * tau_a * tau_b

    def io(c_a, c_b):
        if mirror:
            c_a, c_b = c_b, c_a
        g = tau_ab * c_a * c_b
        g = math.sqrt(g) if type(g) is float else np.sqrt(g)
        d = 1.0 - c_a + c_b
        d2 = d * d
        A = four_tau_a * c_a * (c_b + n_th + 1.0) / d2
        B = four_tau_b * c_b * (c_a + n_th) / d2
        c = -2.0 * (c_a + c_b + two_n_th + 1.0) * g / d2
        P = minus_four_tau_ab * c_a * c_b / d2
        return (B, A, c, P) if mirror else (A, B, c, P)

    return io


def _mo_excess(kind: MoKind, c_a, c_b, tau_a, tau_b, n_th, r):
    """_mo_excess_fn evaluated once."""
    return _mo_excess_fn(kind, tau_a, tau_b, n_th, r)(c_a, c_b)


def _stable_intrinsic_fn(kind: MoKind, rates: PhysicalRates):
    """f(c_a, c_b): whether a source is stable, elementwise on numpy arrays.

    Only the intrinsic kinds have a blue pump; EO and EM, always stable, give None.
    """
    if kind is _IO:
        cap = _blue_cap_fn(rates, True)
        return lambda c_a, c_b: c_a < cap(c_b) - STRICT_MARGIN
    if kind is _IM:
        cap = _blue_cap_fn(rates, False)
        return lambda c_a, c_b: c_b < cap(c_a) - STRICT_MARGIN
    return None


def _check_stable(kind: MoKind, c_a: float, c_b: float, rates: PhysicalRates) -> None:
    """Raise UnstableOperatingPointError, naming the bound, for an unstable source."""
    stable = _stable_intrinsic_fn(kind, rates)
    if stable is not None and not stable(c_a, c_b):
        optical = kind is _IO
        name, value, c_red = ("C_a", c_a, c_b) if optical else ("C_b", c_b, c_a)
        raise UnstableOperatingPointError(
            f"{kind.name} source unstable: {name} = {value} violates "
            f"{name} < {_blue_cap(c_red, rates, optical)}"
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
