"""Microwave-microwave entanglement distribution networks.

A network uses two transducers to entangle two remote microwave modes
over an optical link, either by downconverting the optical side(s) of a
microwave-optical resource state or by an EPR measurement (balanced
beamsplitter plus opposite-quadrature homodynes) on two optical modes.
The measurement is modeled purely as the Gaussian conditional update of
the covariance matrix; measurement outcomes and the conditional
displacements they steer only shift first moments, which never enter
covariance matrices.

Topology count: 4 downconversion + 4 symmetric swapping + 6 asymmetric
swapping = 14.  External optical loss tau_e can be distributed over a
topology's optical modes; the available slots are

* down(EO): the two arms feeding the downconverters,
* other downconversion: the single flying optical mode,
* swapping: the two measured optical modes, plus, for asymmetric
  swapping involving an EO state, that state's pre-downconversion mode.

Slot shares multiply to tau_e.  Defaults put the loss where it hurts
least: split equally for down(EO), all on one measured arm for
swapping, and all on the EO pre-downconversion mode when that slot
exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BalancedForm, OneModeChannel, SqueezeParam, _as_r
from .sources import _EO, MoKind, _check_stable, _mo_excess_fn, _stable_intrinsic_fn
# the benchmark's tracer (perfbench/tracer.py) patches network._mo_excess by name
from .sources import _mo_excess  # noqa: F401
from .transducer import DeviceCaps, _check_cap, _check_loss_split, _conversion_t_mu_fn

__all__ = [
    "Topology",
    "NetworkConfig",
    "DOWN_TOPOLOGIES",
    "SYMMETRIC_SWAP_TOPOLOGIES",
    "ASYMMETRIC_SWAP_TOPOLOGIES",
    "SYMMETRIC_TOPOLOGIES",
    "ALL_TOPOLOGIES",
    "downconvert_mm",
    "swap",
    "mm_state",
    "mm_log_negativity",
    "loss_slot_count",
    "default_loss_split",
]

_KIND_ORDER = {MoKind.EO: 0, MoKind.EM: 1, MoKind.IO: 2, MoKind.IM: 3}


@dataclass(frozen=True)
class Topology:
    """A network topology: scheme plus the MO resource kind(s).

    Downconversion topologies carry one kind; swapping topologies carry
    the (unordered) pair of kinds feeding the measurement.
    """

    scheme: str
    kinds: tuple[MoKind, ...]

    def __post_init__(self):
        if self.scheme not in ("down", "swap"):
            raise ValueError(f"scheme must be 'down' or 'swap', got {self.scheme!r}")
        bad = [kind for kind in self.kinds if not isinstance(kind, MoKind)]
        if bad:
            raise ValueError(f"topology kinds must be MoKind members, got {bad!r}")
        n = len(self.kinds)
        if self.scheme == "down" and n != 1:
            raise ValueError("downconversion topologies take exactly one kind")
        if self.scheme == "swap":
            if n != 2:
                raise ValueError("swapping topologies take exactly two kinds")
            ordered = tuple(sorted(self.kinds, key=_KIND_ORDER.get))
            object.__setattr__(self, "kinds", ordered)

    @classmethod
    def down(cls, kind: MoKind) -> "Topology":
        return cls("down", (kind,))

    @classmethod
    def swap_sym(cls, kind: MoKind) -> "Topology":
        return cls("swap", (kind, kind))

    @classmethod
    def swap_asym(cls, kind1: MoKind, kind2: MoKind) -> "Topology":
        if kind1 == kind2:
            raise ValueError("asymmetric swapping needs two distinct kinds")
        return cls("swap", (kind1, kind2))

    @property
    def is_symmetric(self) -> bool:
        return self.scheme == "down" or self.kinds[0] == self.kinds[1]

    @property
    def label(self) -> str:
        if self.scheme == "down":
            return f"{self.kinds[0].name}-down"
        if self.is_symmetric:
            return f"{self.kinds[0].name}-swap"
        return f"{self.kinds[0].name}+{self.kinds[1].name}-swap"


DOWN_TOPOLOGIES = tuple(Topology.down(k) for k in MoKind)
SYMMETRIC_SWAP_TOPOLOGIES = tuple(Topology.swap_sym(k) for k in MoKind)
ASYMMETRIC_SWAP_TOPOLOGIES = tuple(
    Topology.swap_asym(k1, k2)
    for i, k1 in enumerate(MoKind)
    for k2 in list(MoKind)[i + 1 :]
)
SYMMETRIC_TOPOLOGIES = DOWN_TOPOLOGIES + SYMMETRIC_SWAP_TOPOLOGIES
ALL_TOPOLOGIES = SYMMETRIC_TOPOLOGIES + ASYMMETRIC_SWAP_TOPOLOGIES


def loss_slot_count(t: Topology) -> int:
    """Number of optical modes over which tau_e may be distributed."""
    if t.scheme == "down":
        return 2 if t.kinds[0] is MoKind.EO else 1
    return 2 + sum(1 for k in t.kinds if k is MoKind.EO and not t.is_symmetric)


def default_loss_split(t: Topology, tau_e: float) -> tuple[float, ...]:
    """Loss placement used when a config does not specify one."""
    _check_loss_split(tau_e)
    # Python floats, as _check_loss_split makes of a given split: numpy
    # scalars (a sweep's tau_e) would slow every _mm_excess call
    tau_e = float(tau_e)
    n = loss_slot_count(t)
    if t.scheme == "down":
        if n == 2:
            s = math.sqrt(tau_e)
            return (s, s)
        return (tau_e,)
    if n == 3:
        return (1.0, 1.0, tau_e)
    return (tau_e, 1.0)


@dataclass(frozen=True)
class NetworkConfig:
    """Operating point of a two-transducer network.

    Cooperativities are per transducer, and transducer i sits at node i:
    transducer 1 makes the (first) MO state, for down(EO) an EO state,
    and transducer 2 the second MO state or the downconverter.
    loss_split is one share per optical slot of the topology (see
    default_loss_split); None picks the default placement.
    """

    caps: DeviceCaps
    c_a1: float
    c_b1: float
    c_a2: float
    c_b2: float
    r: SqueezeParam | float = 0.0
    tau_e: float = 1.0
    loss_split: tuple[float, ...] | None = None


def downconvert_mm(mo: BalancedForm, conv: OneModeChannel) -> BalancedForm:
    """Downconvert the optical mode (mode 1) of an MO state.

    The channel must be isotropic (T = t I, N = n I), which holds for
    every conversion and loss channel in this package.
    """
    T, N = conv.T, conv.N
    t, n = T[0, 0], N[0, 0]
    if (
        abs(T[0, 1]) > 1e-14
        or abs(T[1, 0]) > 1e-14
        or abs(T[1, 1] - t) > 1e-14
        or abs(N[0, 1]) > 1e-14
        or abs(N[1, 1] - n) > 1e-14
    ):
        raise ValueError("downconvert_mm requires an isotropic one-mode channel")
    return BalancedForm(t * t * mo.a + n, mo.b, t * mo.c)


def swap(mo1: BalancedForm, mo2: BalancedForm) -> BalancedForm:
    """EPR measurement on the optical modes (mode 1) of two MO states.

    Returns the conditional microwave-microwave state; for identical
    inputs this reduces to (b - c^2/2a, b - c^2/2a, -c^2/2a).
    """
    asum = mo1.a + mo2.a
    return BalancedForm(
        mo1.b - mo1.c * mo1.c / asum,
        mo2.b - mo2.c * mo2.c / asum,
        -mo1.c * mo2.c / asum,
    )


def _mm_excess_fn(t: Topology, caps: DeviceCaps, n_th: float, r: float, split: tuple[float, ...]):
    """f(c_a1, c_b1, c_a2, c_b2): final MM state as (A, B, c, P), or None for an unstable source.

    A and B are variances in excess of vacuum and P = A*B - c*c is
    tracked through every stage in a cancellation-free form (its sign
    decides entanglement).  No cap validation: this is the hot path
    shared by the public API and the optimizers.  The branch, the node
    functions and every factor fixed by (t, caps, n_th, r, split) are
    bound once, so that each evaluation is straight-line arithmetic;
    no bound factor regroups a sum, so binding changes no bit.

    The cooperativities may also be numpy arrays of one shape.  The
    result is then four arrays, bit for bit equal to the float
    evaluation, and all four are NaN where a source is unstable.

    One branch per scheme, both in node order (A is node 1's microwave
    mode).  A downconversion sends the optical mode of transducer 1's
    source, after loss split[-1], through transducer 2's converter;
    down(EO)'s source is an EO state whose converted arm carries
    split[0].  A swap measures the optical modes of two sources.  Exact
    update rules: loss tau on the measured mode scales (A, c**2, P)
    by tau; an isotropic conversion (t, mu) on mode 1 maps A -> t**2 A + mu
    and P -> t**2 P + mu B; the EPR measurement maps B1 to
    (B1 (1 + A2) + P1) / (1 + A1 + A2), B2 likewise, and P1, P2 to
    (B1 B2 + P1 B2 + P2 B1) / (1 + A1 + A2).
    """
    tau_a, tau_b = caps.tau_a, caps.tau_b
    k1 = t.kinds[0]
    down = t.scheme == "down"
    # red-red transducers (a downconverter, an EO or EM source) are always stable
    stable1 = _stable_intrinsic_fn(k1, caps.rates)
    if down:
        stable2 = None
        node1 = _mo_excess_fn(k1, tau_a * split[0] if k1 is _EO else tau_a, tau_b, n_th, r)
        node2 = _conversion_t_mu_fn(tau_a * split[-1], tau_b, n_th)
    else:
        k2 = t.kinds[1]
        stable2 = _stable_intrinsic_fn(k2, caps.rates)
        # a third slot is the EO state's pre-downconversion mode
        ta_eo = tau_a * split[2] if len(split) == 3 else tau_a
        node1 = _mo_excess_fn(k1, ta_eo if k1 is _EO else tau_a, tau_b, n_th, r)
        node2 = _mo_excess_fn(k2, ta_eo if k2 is _EO else tau_a, tau_b, n_th, r)
        tau1, tau2 = split[0], split[1]
        root1, root2 = math.sqrt(tau1), math.sqrt(tau2)

    def excess(c_a1, c_b1, c_a2, c_b2):
        stable = True if stable1 is None else stable1(c_a1, c_b1)
        if stable2 is not None:
            stable = stable & stable2(c_a2, c_b2)
        # `is True` first, so that a stable float point needs no type check
        if stable is not True and not isinstance(stable, np.ndarray) and not stable:
            return None

        if down:
            A0, B0, c0, P0 = node1(c_a1, c_b1)
            td, md = node2(c_a2, c_b2)
            out = (B0, td * td * A0 + md, td * c0, td * td * P0 + md * B0)
        else:
            A1, B1, c1, P1 = node1(c_a1, c_b1)
            A1, c1, P1 = tau1 * A1, root1 * c1, tau1 * P1
            A2, B2, c2, P2 = node2(c_a2, c_b2)
            A2, c2, P2 = tau2 * A2, root2 * c2, tau2 * P2
            den = 1.0 + A1 + A2
            # B1 - c1**2 / den, rewritten with P1 = A1 B1 - c1**2 so that nothing
            # cancels when a source sits next to its instability (A1, c1 huge)
            out = (
                (B1 * (1.0 + A2) + P1) / den,
                (B2 * (1.0 + A1) + P2) / den,
                -c1 * c2 / den,
                (B1 * B2 + P1 * B2 + P2 * B1) / den,
            )
        if stable is True or not isinstance(stable, np.ndarray):
            return out
        return tuple(np.where(stable, v, np.nan) for v in out)

    return excess


def _mm_excess(t: Topology, caps: DeviceCaps, n_th: float, r: float, cs, split):
    """_mm_excess_fn evaluated once, at the cooperativities cs = (c_a1, c_b1, c_a2, c_b2)."""
    return _mm_excess_fn(t, caps, n_th, r, split)(*cs)


def _margin_of_excess(out) -> float:
    """Entanglement margin 1/2 - nu from the excess representation.

    Uses the identity 1/2 - nu = -2P / (A + B + sqrt((A+B)^2 - 4P)),
    which is free of the catastrophic cancellation that the direct
    symplectic-eigenvalue formula suffers for amplified states; in
    particular the sign is exactly the sign of -P.  On the arrays of an
    array evaluation of _mm_excess it works elementwise (NaN stays NaN).
    """
    if out is None:
        return -math.inf
    A, B, c, P = out
    s = A + B
    d = s * s - 4.0 * P
    d = d * (d > 0.0)  # d >= 0 up to rounding; clip it to 0
    # math.sqrt, as in sources._mo_excess, to match numpy's sqrt bit for bit
    q = s + (math.sqrt(d) if type(d) is float else np.sqrt(d))
    # q is 0 only at vacuum (A = B = P = 0), whose margin is 0; dividing by
    # q + 1 there gives it without a branch, so arrays take the same line
    return -2.0 * P / (q + (q <= 0.0))


def _log2_negativity(m: float) -> float:
    """Logarithmic negativity in log2 units (e-bits) from the margin 1/2 - nu."""
    return -math.log1p(-2.0 * m) / math.log(2.0) if (m > 0.0 and math.isfinite(m)) else 0.0


def _resolve_split(t: Topology, tau_e: float, split) -> tuple[float, ...]:
    if split is None:
        return default_loss_split(t, tau_e)
    n = loss_slot_count(t)
    if len(split) != n:
        raise ValueError(f"{t.label} has {n} loss slot(s), got split of length {len(split)}")
    return _check_loss_split(tau_e, split)


def _validate_cooperativities(t: Topology, cfg: NetworkConfig) -> None:
    caps = cfg.caps
    pairs = ((cfg.c_a1, cfg.c_b1), (cfg.c_a2, cfg.c_b2))
    for i, (c_a, c_b) in enumerate(pairs, 1):
        _check_cap(f"C_a,{i}", c_a, caps.d_a)
        _check_cap(f"C_b,{i}", c_b, caps.d_b)
    # a downconversion topology has one source kind, on transducer 1
    for kind, (c_a, c_b) in zip(t.kinds, pairs):
        _check_stable(kind, c_a, c_b, caps.rates)


def _checked_excess(t: Topology, cfg: NetworkConfig):
    """_mm_excess at a validated configuration (split, caps and stability)."""
    split = _resolve_split(t, cfg.tau_e, cfg.loss_split)
    _validate_cooperativities(t, cfg)
    cs = (cfg.c_a1, cfg.c_b1, cfg.c_a2, cfg.c_b2)
    return _mm_excess(t, cfg.caps, cfg.caps.n_th, _as_r(cfg.r), cs, split)


def mm_state(t: Topology, cfg: NetworkConfig) -> BalancedForm:
    """Final microwave-microwave state of a topology at a configuration.

    Builds the MO resource state(s), applies the external-loss split,
    and performs the downconversion or the swapping measurement.  Both
    output modes are microwave; mode i belongs to node i, so for a
    downconversion mode 1 is the source's and mode 2 the converted one.
    """
    A, B, c, _ = _checked_excess(t, cfg)
    return BalancedForm(0.5 + A, 0.5 + B, c)


def mm_log_negativity(t: Topology, cfg: NetworkConfig) -> float:
    """Logarithmic negativity of the final MM state, in log2 units (e-bits).

    Read from the margin 1/2 - nu of the excess form, whose sign is the
    exact sign of the product defect P, so the value stays accurate
    next to the blue-pump instability, where the full variances of
    mm_state grow like 1e16 and their symplectic eigenvalue cancels.
    Returns 0.0 for a separable state.  Raises ValueError for a loss
    split that does not fit the topology or tau_e and for a
    cooperativity outside [0, its cap] (NaN included), and
    UnstableOperatingPointError (a ValueError) for a blue-pumped source
    beyond its stability bound, with the message of mo_state.
    """
    return _log2_negativity(_margin_of_excess(_checked_excess(t, cfg)))
