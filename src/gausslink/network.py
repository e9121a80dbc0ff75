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

from .core import BalancedForm, OneModeChannel, SqueezeParam, _as_r
from .sources import _EO, MoKind, _check_stable, _mo_excess
from .transducer import DeviceCaps, _check_cap, _check_loss_split, _conversion_t_mu

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

@dataclass(frozen=True)
class Topology:
    """A network topology: scheme plus the MO resource kind(s).

    Downconversion topologies carry one kind; swapping topologies carry
    the (unordered) pair of kinds feeding the measurement.  down,
    swap_sym and swap_asym return the instances of ALL_TOPOLOGIES, built
    and checked once; the constructor builds and checks a new one.
    """

    scheme: str
    kinds: tuple[MoKind, ...]

    def __post_init__(self):
        if self.scheme not in ("down", "swap"):
            raise ValueError(f"scheme must be 'down' or 'swap', got {self.scheme!r}")
        # a tuple for both schemes, so that equality and hashing do not
        # depend on the sequence given, and a generator is read only once
        object.__setattr__(self, "kinds", tuple(self.kinds))
        bad = [kind for kind in self.kinds if not isinstance(kind, MoKind)]
        if bad:
            raise ValueError(f"topology kinds must be MoKind members, got {bad!r}")
        n = len(self.kinds)
        if self.scheme == "down" and n != 1:
            raise ValueError("downconversion topologies take exactly one kind")
        if self.scheme == "swap":
            if n != 2:
                raise ValueError("swapping topologies take exactly two kinds")
            ordered = tuple(sorted(self.kinds, key=tuple(MoKind).index))
            object.__setattr__(self, "kinds", ordered)

    @classmethod
    def down(cls, kind: MoKind) -> "Topology":
        return cls._canonical("down", (kind,))

    @classmethod
    def swap_sym(cls, kind: MoKind) -> "Topology":
        return cls._canonical("swap", (kind, kind))

    @classmethod
    def swap_asym(cls, kind1: MoKind, kind2: MoKind) -> "Topology":
        if kind1 == kind2:
            raise ValueError("asymmetric swapping needs two distinct kinds")
        return cls._canonical("swap", (kind1, kind2))

    @classmethod
    def _canonical(cls, scheme: str, kinds: tuple) -> "Topology":
        """The instance of ALL_TOPOLOGIES with this scheme and kinds, else cls(scheme, kinds).

        A miss, a kind that is no MoKind member or is unhashable included,
        builds and checks a new topology, which raises the constructor's
        ValueError.
        """
        try:
            return _CANONICAL[scheme, kinds]
        except (KeyError, TypeError):
            return cls(scheme, kinds)

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


DOWN_TOPOLOGIES = tuple(Topology("down", (k,)) for k in MoKind)
SYMMETRIC_SWAP_TOPOLOGIES = tuple(Topology("swap", (k, k)) for k in MoKind)
ASYMMETRIC_SWAP_TOPOLOGIES = tuple(
    Topology("swap", (k1, k2))
    for i, k1 in enumerate(MoKind)
    for k2 in list(MoKind)[i + 1 :]
)
SYMMETRIC_TOPOLOGIES = DOWN_TOPOLOGIES + SYMMETRIC_SWAP_TOPOLOGIES
ALL_TOPOLOGIES = SYMMETRIC_TOPOLOGIES + ASYMMETRIC_SWAP_TOPOLOGIES
#: Each topology of ALL_TOPOLOGIES under (scheme, kinds), its kinds in
#: either order (Topology._canonical)
_CANONICAL = {(t.scheme, k): t for t in ALL_TOPOLOGIES for k in (t.kinds, t.kinds[::-1])}


def loss_slot_count(t: Topology) -> int:
    """Number of optical modes over which tau_e may be distributed."""
    if t.scheme == "down":
        return 2 if t.kinds[0] is _EO else 1
    # an asymmetric swap with an EO source adds that source's pre-downconversion mode
    return 3 if _EO in t.kinds and not t.is_symmetric else 2


def default_loss_split(t: Topology, tau_e: float) -> tuple[float, ...]:
    """Loss placement used when a config does not specify one.

    All on one measured arm, (tau_e, 1), is optimal for a symmetric
    swap: its best margin depends on the shares (t_1, t_2) only through
    t_1 + t_2 and never falls as that grows, and at t_1 t_2 = tau_e the
    sum is largest at an end (the diagonal proof of
    thresholds.optimize_cooperativities).
    """
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


def _slot_taus(t: Topology, tau_a: float, split) -> tuple[float, float, float, float]:
    """(ta_1, ta_2, t_1, t_2) of a split, node by node, for _mm_excess.

    ta_i is tau_a times the share in front of node i's converter (tau_a
    where there is none), t_i node i's measured share (1.0 for a
    downconversion).  The slots are in the module docstring's order; a
    swap's third slot is in front of node 1's converter, as EO sorts first.
    """
    if t.scheme == "down":
        return tau_a * split[0] if t.kinds[0] is _EO else tau_a, tau_a * split[-1], 1.0, 1.0
    return tau_a * split[2] if len(split) == 3 else tau_a, tau_a, split[0], split[1]


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


def _mm_excess(t: Topology, caps: DeviceCaps, n_th: float, r: float, cs, taus):
    """Final MM state as (A, B, c, P) at the cooperativities cs = (c_a1, c_b1, c_a2, c_b2).

    A and B are variances in excess of vacuum and P = A*B - c*c is
    tracked through every stage in a form of its own (its sign decides
    entanglement), so that nothing cancels next to a source's
    instability, where A, B and c are huge.  Not every form is free of
    cancellation: the swap's output defect (B1 B2 + P1 B2 + P2 B1) / den
    adds terms of opposite sign, so next to the separable boundary it
    loses digits (8.3e-13 relative at a margin of 4.5e-12 has been
    seen).  No validation, of caps or of stability: this is the hot path
    shared by the public API, which validates each point
    (_checked_excess), and the margin closures, which mask the points
    of their free intrinsic nodes (thresholds._margin_closure).  At an
    unstable source the result is meaningless.  _mo_excess is looked up
    in this module at each call, where the benchmark's tracer
    (perfbench/tracer.py) counts it.

    The cooperativities may also be numpy arrays of one shape.  The
    result is then four arrays, bit for bit equal to the float
    evaluation.

    taus is the split node by node (_slot_taus).  Both branches are in
    node order (A is node 1's microwave mode).  Where node 2 has node
    1's kind and very cooperativity objects (a symmetric swap's x1 + x1
    of thresholds._NodeRoot), node 1's source state serves both, bit for
    bit node 2's own, before each arm's own loss share.  Exact update
    rules: loss tau on the measured mode scales (A, c**2, P) by tau; an
    isotropic conversion (t, mu) on mode 1 maps A -> t**2 A + mu and P
    -> t**2 P + mu B; the EPR measurement maps B1 to (B1 (1 + A2) + P1)
    / (1 + A1 + A2), B2 likewise, and P1, P2 to (B1 B2 + P1 B2 + P2 B1)
    / (1 + A1 + A2).
    """
    tau_b = caps.tau_b
    c_a1, c_b1, c_a2, c_b2 = cs
    ta1, ta2, tau1, tau2 = taus
    k1 = t.kinds[0]
    if t.scheme == "down":
        A0, B0, c0, P0 = _mo_excess(k1, c_a1, c_b1, ta1, tau_b, n_th, r)
        td, md = _conversion_t_mu(c_a2, c_b2, ta2, tau_b, n_th)
        return B0, td * td * A0 + md, td * c0, td * td * P0 + md * B0
    k2 = t.kinds[1]
    source = _mo_excess(k1, c_a1, c_b1, ta1, tau_b, n_th, r)
    A1, B1, c1, P1 = source
    # node 2 at node 1's kind and very cooperativity objects has node 1's
    # source state; == would not do, as -0.0 == 0.0 and sqrt keeps the sign
    if not (k2 is k1 and c_a2 is c_a1 and c_b2 is c_b1):
        source = _mo_excess(k2, c_a2, c_b2, ta2, tau_b, n_th, r)
    A2, B2, c2, P2 = source
    A1, c1, P1 = tau1 * A1, math.sqrt(tau1) * c1, tau1 * P1
    A2, c2, P2 = tau2 * A2, math.sqrt(tau2) * c2, tau2 * P2
    den = 1.0 + A1 + A2
    # B1 - c1**2 / den, rewritten with P1 = A1 B1 - c1**2 so that nothing
    # cancels when a source sits next to its instability (A1, c1 huge)
    return (
        (B1 * (1.0 + A2) + P1) / den,
        (B2 * (1.0 + A1) + P2) / den,
        -c1 * c2 / den,
        (B1 * B2 + P1 * B2 + P2 * B1) / den,
    )


def _margin_of_excess(out) -> float:
    """Entanglement margin 1/2 - nu from the excess representation.

    Uses the identity 1/2 - nu = -2P / (A + B + sqrt((A+B)^2 - 4P)),
    which is free of the catastrophic cancellation that the direct
    symplectic-eigenvalue formula suffers for amplified states; in
    particular the sign is exactly the sign of -P.  On the arrays of an
    array evaluation of _mm_excess it works elementwise.
    """
    A, B, c, P = out
    s = A + B
    d = s * s - 4.0 * P
    d = d * (d > 0.0)  # d >= 0 up to rounding; clip it to 0
    # math.sqrt, as in sources._mo_excess, to match numpy's sqrt bit for bit
    if type(d) is float:
        q = s + math.sqrt(d)
    else:
        import numpy as np

        q = s + np.sqrt(d)
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
    _check_cap("C_a,1", cfg.c_a1, caps.d_a)
    _check_cap("C_b,1", cfg.c_b1, caps.d_b)
    _check_cap("C_a,2", cfg.c_a2, caps.d_a)
    _check_cap("C_b,2", cfg.c_b2, caps.d_b)
    _check_stable(t.kinds[0], cfg.c_a1, cfg.c_b1, caps.rates)
    # a downconversion topology has one source kind, on transducer 1
    if t.scheme == "swap":
        _check_stable(t.kinds[1], cfg.c_a2, cfg.c_b2, caps.rates)


def _checked_excess(t: Topology, cfg: NetworkConfig):
    """_mm_excess at a validated configuration (split, caps and stability)."""
    split = _resolve_split(t, cfg.tau_e, cfg.loss_split)
    _validate_cooperativities(t, cfg)
    cs = (cfg.c_a1, cfg.c_b1, cfg.c_a2, cfg.c_b2)
    taus = _slot_taus(t, cfg.caps.tau_a, split)
    return _mm_excess(t, cfg.caps, cfg.caps.n_th, _as_r(cfg.r), cs, taus)


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
