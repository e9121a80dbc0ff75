"""50-digit mpmath oracle for the excess closed forms at the numeric edges.

``_mo_excess`` and ``_mm_excess`` carry states as (A, B, c, P): variances
in excess of vacuum, the cross-correlation and the product defect
P = A*B - c**2, in double precision and in closed forms meant to be free
of cancellation.  The oracle here rebuilds each state in 50-digit
arithmetic from first principles: the transducer's two-mode channel
applied to vacuum or to a squeezed pair, pure-loss channels, conversion
channels read off that two-mode channel's marginals, and the EPR-swap
update, all on full variances.  P is then the plain product A*B - c**2,
which 50 digits make exact enough.  No closed form of the package is
reused.

Three edges are checked, on the float path and on the array path (which
must equal the float path bit for bit):

* next to the blue-pump instability, within 1e-8 (1 + C_-) of it and
  at 2 STRICT_MARGIN from it, the closest that a search may go, where
  A, B and c grow like 1e16 while P stays moderate;
* at cooperativities up to 1e4;
* at tau -> 0.

At the same points the public ``mm_log_negativity`` is checked against
the 50-digit log negativity of the oracle's full variances.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from gausslink import (
    ALL_TOPOLOGIES,
    DeviceCaps,
    NetworkConfig,
    Topology,
    loss_slot_count,
    mm_log_negativity,
)
from gausslink.network import _mm_excess
from gausslink.sources import MoKind, _mo_excess
from gausslink.transducer import STRICT_MARGIN

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

#: Relative error allowed against the oracle.  The closed forms take a
#: dozen roundings, and at these edges a few ulp is what they miss by.  Not
#: every form is free of cancellation: the swap's output defect
#: (B1 B2 + P1 B2 + P2 B1) / den adds terms of opposite sign, so next to the
#: separable boundary it loses digits (8.3e-13 relative at a margin of
#: 4.5e-12 has been seen).  The edges checked here do not sit at that boundary.
REL_TOL = 1e-13
#: Absolute floor for quantities that are exactly 0 (a vacuum EO source at
#: r = 0 and n_th = 0), where 50 digits leave the oracle at about 1e-50.
ABS_FLOOR = 1e-30


def _mp_dpt_channel(c_a, c_b, tau_a, tau_b, n_th, sa, sb):
    """The transducer's two-mode channel (T, N) in mpmath, from its definition."""
    c_a, c_b, tau_a, tau_b, n_th = map(mp.mpf, (c_a, c_b, tau_a, tau_b, n_th))
    den = 1 - sa * c_a - sb * c_b
    g = mp.sqrt(tau_a * tau_b * c_a * c_b)
    T = mp.zeros(4, 4)
    T[0, 0] = T[1, 1] = tau_a * (1 - sb * c_b)
    T[2, 2] = T[3, 3] = tau_b * (1 - sa * c_a)
    T[0, 2], T[1, 3] = g * sa, g * sb
    T[2, 0], T[3, 1] = g * sb, g * sa
    T = (2 / den) * T - mp.eye(4)
    alpha = tau_a * ((1 - tau_a) * (1 - sb * c_b) ** 2
                     + c_a * (1 + 2 * n_th + c_b * (1 - tau_b)))
    beta = tau_b * ((1 - tau_b) * (1 - sa * c_a) ** 2
                    + c_b * (1 + 2 * n_th + c_a * (1 - tau_a)))
    gamma = g * (2 * n_th - sa * sb * (1 + sb * tau_a + sa * tau_b
                                       + c_a * (1 - tau_b) + c_b * (1 - tau_a)))
    N = mp.zeros(4, 4)
    N[0, 0] = N[1, 1] = alpha
    N[2, 2] = N[3, 3] = beta
    N[0, 2] = N[2, 0] = gamma * sa * sb
    N[1, 3] = N[3, 1] = gamma
    return T, N * (2 / den**2)


def _mp_conversion(direction, c_a, c_b, tau_a, tau_b, n_th):
    """(t, n) of the red-red conversion channel, traced from the two-mode channel."""
    T, N = _mp_dpt_channel(c_a, c_b, tau_a, tau_b, n_th, -1, -1)
    out, inp = (2, 0) if direction == "down" else (0, 2)
    return T[out, inp], T[out, out] ** 2 / 2 + N[out, out]


def _on_mode(state, mode, t, n):
    a, b, c = state
    return (t * t * a + n, b, t * c) if mode == 1 else (a, t * t * b + n, t * c)


def _loss(state, mode, tau):
    tau = mp.mpf(tau)
    return _on_mode(state, mode, mp.sqrt(tau), (1 - tau) / 2)


def _tms(r):
    r = mp.mpf(r)
    return (mp.cosh(2 * r) / 2, mp.cosh(2 * r) / 2, mp.sinh(2 * r) / 2)


def _mp_mo_state(kind, c_a, c_b, tau_a, tau_b, n_th, r, eo_share=1.0):
    """Full variances (a, b, c) of an MO state; eo_share is loss before EO's converter."""
    if kind is MoKind.EO:
        conv = _mp_conversion("down", c_a, c_b, tau_a, tau_b, n_th)
        return _on_mode(_loss(_tms(r), 2, eo_share), 2, *conv)
    if kind is MoKind.EM:
        return _on_mode(_tms(r), 1, *_mp_conversion("up", c_a, c_b, tau_a, tau_b, n_th))
    sa, sb = (1, -1) if kind is MoKind.IO else (-1, 1)
    T, N = _mp_dpt_channel(c_a, c_b, tau_a, tau_b, n_th, sa, sb)
    V = T * (mp.eye(4) / 2) * T.T + N
    return V[0, 0], V[2, 2], V[0, 2]


def _mp_mm_state(t, caps, n_th, r, cs, split):
    """Full variances of the final MM state, by explicit composition."""
    c_a1, c_b1, c_a2, c_b2 = cs
    ta, tb = caps.tau_a, caps.tau_b
    if t.scheme == "down" and t.kinds[0] is MoKind.EO:
        state = _loss(_tms(r), 1, split[0])
        state = _on_mode(state, 1, *_mp_conversion("down", c_a1, c_b1, ta, tb, n_th))
        state = _loss(state, 2, split[1])
        return _on_mode(state, 2, *_mp_conversion("down", c_a2, c_b2, ta, tb, n_th))
    if t.scheme == "down":
        state = _mp_mo_state(t.kinds[0], c_a1, c_b1, ta, tb, n_th, r)
        state = _loss(state, 1, split[0])
        a, b, c = _on_mode(state, 1, *_mp_conversion("down", c_a2, c_b2, ta, tb, n_th))
        return b, a, c  # node order: the source's microwave mode (node 1) first
    eo_share = split[2] if len(split) == 3 else 1.0
    (a1, b1, c1), (a2, b2, c2) = (
        _loss(_mp_mo_state(kind, c_a, c_b, ta, tb, n_th, r, eo_share), 1, tau_m)
        for kind, c_a, c_b, tau_m in ((t.kinds[0], c_a1, c_b1, split[0]),
                                      (t.kinds[1], c_a2, c_b2, split[1]))
    )
    s = a1 + a2
    return b1 - c1 * c1 / s, b2 - c2 * c2 / s, -c1 * c2 / s


def _excess(state):
    a, b, c = state
    A, B = a - mp.mpf(1) / 2, b - mp.mpf(1) / 2
    return A, B, c, A * B - c * c


def _assert_close(got, want, label):
    for name, g, w in zip("ABcP", got, want):
        err = abs(mp.mpf(float(g)) - w)
        assert err <= REL_TOL * abs(w) + ABS_FLOOR, (label, name, float(g), mpmath.nstr(w, 20))


def _gap_pair(kind, c_red, gap):
    """(c_a, c_b) with C_+ = 1 + C_- - gap, gap below the first stability criterion."""
    c_plus = 1.0 + c_red - gap
    return (c_plus, c_red) if kind is MoKind.IO else (c_red, c_plus)


def _oriented(kind, points):
    """IO-oriented points (C_a the blue side) as points of kind: IM swaps C_a, C_b."""
    return [(p[1], p[0], *p[2:]) for p in points] if kind is MoKind.IM else points


# (c_a, c_b, tau_a, tau_b, n_th, r) per edge and kind, all stable; the gap
# row takes fractions of 1e-8 (1 + C_-), then 2 STRICT_MARGIN at each C_-
_GAP = [(*_gap_pair(MoKind.IO, c_red, gap), 0.9, 0.8, n_th, 0.0)
        for c_red, f, n_th in ((0.5, 0.5, 0.0), (3.0, 1.0, 0.2), (50.0, 0.7, 5.0), (1e4, 0.9, 1e3))
        for gap in (f * 1e-8 * (1.0 + c_red), 2.0 * STRICT_MARGIN)]
_CAPS = [(1e4, 1e4, 0.9, 0.8, 0.3, 0.7), (2.5e3, 1e4, 0.6, 0.95, 1e3, 1.2),
         (9999.5, 1e4, 0.99, 0.5, 0.0, 0.3)]
_TAU = [(20.0, 19.5, 1e-12, 0.8, 0.3, 0.5), (19.5, 20.0, 0.8, 1e-12, 0.3, 0.5),
        (7.0, 7.0, 1e-9, 1e-11, 2.0, 1.0)]
EDGE_POINTS = {
    # the extrinsic kinds have no instability: their gap row repeats the caps row
    "numeric gap": {kind: _oriented(kind, _GAP if kind in (MoKind.IO, MoKind.IM) else _CAPS)
                    for kind in MoKind},
    "caps to 1e4": {kind: _oriented(kind, _CAPS) for kind in MoKind},
    "tau to 0": {kind: _oriented(kind, _TAU) for kind in MoKind},
}


@pytest.fixture(autouse=True)
def fifty_digits():
    with mp.workdps(50):
        yield


@pytest.mark.parametrize("edge", sorted(EDGE_POINTS))
@pytest.mark.parametrize("kind", list(MoKind), ids=lambda k: k.name)
def test_mo_excess_matches_50_digit_oracle(edge, kind):
    points = EDGE_POINTS[edge][kind]
    for p in points:
        want = _excess(_mp_mo_state(kind, *p))
        _assert_close(_mo_excess(kind, *p), want, (edge, p))
    # array path: every point's cooperativities at once, each entry equal to
    # the float path bit for bit
    c_a, c_b = (np.array(col) for col in zip(*(p[:2] for p in points)))
    for i, p in enumerate(points):
        arrays = _mo_excess(kind, c_a, c_b, *p[2:])
        floats = _mo_excess(kind, *p)
        assert [float(np.broadcast_to(v, c_a.shape)[i]) for v in arrays] == list(floats)


#: A stable source or converter well inside every stability region.
_MODERATE = (4.0, 3.5)


def _mm_edge_cases(t, edge):
    """(caps, r, cs, split) with one transducer at the edge, the other moderate.

    Each transducer is put at the edge in turn: a source next to its
    instability cancels only against a partner that is not.  A
    downconversion's second transducer is red-red.  n_th is caps.n_th.
    """
    kinds = t.kinds if t.scheme == "swap" else (t.kinds[0], MoKind.EO)
    split = (0.7, 1.0, 0.8)[: loss_slot_count(t)]
    for at_edge in (0, 1):
        for p in EDGE_POINTS[edge][kinds[at_edge]]:
            pair = [_MODERATE, _MODERATE]
            pair[at_edge] = p[:2]
            yield DeviceCaps(1e4, 1e4, p[2], p[3], p[4]), p[5], (*pair[0], *pair[1]), split


@pytest.mark.parametrize("edge", sorted(EDGE_POINTS))
@pytest.mark.parametrize("t", ALL_TOPOLOGIES, ids=lambda t: t.label)
def test_mm_excess_matches_50_digit_oracle(t, edge):
    for caps, r, cs, split in _mm_edge_cases(t, edge):
        got = _mm_excess(t, caps, caps.n_th, r, cs, split)
        _assert_close(got, _excess(_mp_mm_state(t, caps, caps.n_th, r, cs, split)), (cs, r))
        # array path: the point between two neighbours (which may be unstable)
        arrays = _mm_excess(
            t, caps, caps.n_th, r, tuple(np.array([0.999, 1.0, 1.001]) * c for c in cs), split
        )
        assert [float(np.broadcast_to(v, (3,))[1]) for v in arrays] == list(got)


def _mp_log2_negativity(state):
    """max(0, -log2(2 nu)) from the partial-transpose symplectic eigenvalue nu."""
    a, b, c = state
    nu = (a + b - mp.sqrt((a - b) ** 2 + 4 * c * c)) / 2
    return max(mp.mpf(0), -mp.log(2 * nu, 2))


@pytest.mark.parametrize("edge", sorted(EDGE_POINTS))
@pytest.mark.parametrize("t", ALL_TOPOLOGIES, ids=lambda t: t.label)
def test_public_log_negativity_matches_50_digit_oracle(t, edge):
    # mm_log_negativity validates its cooperativities against the caps, and
    # an edge point may sit past 1e4 (1 + C_- at C_- = 1e4); the caps do not
    # enter the state otherwise
    for caps, r, cs, split in _mm_edge_cases(t, edge):
        want = _mp_log2_negativity(_mp_mm_state(t, caps, caps.n_th, r, cs, split))
        cfg = NetworkConfig(
            replace(caps, d_a=2e4, d_b=2e4), *cs, r=r, tau_e=math.prod(split), loss_split=split
        )
        got = mm_log_negativity(t, cfg)
        err = abs(mp.mpf(got) - want)
        assert err <= 1e-12 * want + ABS_FLOOR, (cs, r, got, mpmath.nstr(want, 20))


def test_swap_output_excess_does_not_cancel_at_numeric_gap():
    # an IO source 4.15e-8 inside its instability, where
    # B1 - c1**2 / (1 + A1 + A2) used to cancel to A = 0.0
    caps = DeviceCaps(25.0, 6.0, 0.9, 0.85, 0.2)
    t = Topology.swap_asym(MoKind.IM, MoKind.IO)
    cs, split = (3.99999995801, 2.9999999995, 20.0, 5.0), (0.6, 1.0)
    got = _mm_excess(t, caps, 0.2, 0.8, cs, split)
    want = _excess(_mp_mm_state(t, caps, 0.2, 0.8, cs, split))
    assert float(want[0]) == pytest.approx(2.29997519976, rel=1e-11)
    _assert_close(got, want, cs)
    assert math.isfinite(got[0]) and got[0] > 0.0


def test_public_log_negativity_next_to_the_instability():
    # the all-maximal ebit-rate corner with its IM source clamped 6e-8 inside
    # the instability: the full variances reach 3.4e16, and their symplectic
    # eigenvalue cancels to 0
    caps, tau_e = DeviceCaps(5.0, 40.0, 0.9, 0.85, 0.0), 10**-0.036
    t, cs = Topology.down(MoKind.IM), (5.0, 5.99999994, 5.0, 40.0)
    got = mm_log_negativity(t, NetworkConfig(caps, *cs, tau_e=tau_e))
    want = _mp_log2_negativity(_mp_mm_state(t, caps, 0.0, 0.0, cs, (tau_e,)))
    assert float(want) == pytest.approx(0.56355529366734, rel=1e-13)
    assert abs(mp.mpf(got) - want) <= 1e-12 * want
