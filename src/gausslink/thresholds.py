"""Entanglement thresholds and constrained maximization.

Each symmetric topology admits a sharp upper bound on the mediating
mode's thermal occupancy n_th below which (and only below which) the
final microwave-microwave state is entangled, assuming cooperativities
are tuned optimally within their caps and stability limits.

analytic_threshold evaluates the closed-form bounds; numeric_threshold
recovers the same boundary independently by bisecting n_th on the sign
of the cooperativity-maximized entanglement, which is the cross-check
used throughout the test suite.  Every bound is at most tau_a * d_a, so
n_th < tau_a * d_a is a global necessary condition and a valid
bisection bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import SqueezeParam, _as_r
from .network import (
    Topology,
    _log2_negativity,
    _margin_of_excess,
    _mm_excess,
    _resolve_split,
    default_loss_split,
    loss_slot_count,
)
from .optimize import golden_max_1d, maximize_box
from .sources import _EM, _EO, _IM, _IO, MoKind
from .transducer import (
    STRICT_MARGIN,
    DeviceCaps,
    _blue_cap,
    _check_cap,
    _check_fields,
    _check_loss_split,
    stability_ok,
)

__all__ = [
    "ThresholdResult",
    "analytic_threshold",
    "numeric_threshold",
    "optimize_cooperativities",
    "optimize_loss_split",
    "max_stable_ca",
]


@dataclass(frozen=True)
class ThresholdResult:
    """Upper bound on n_th for entanglement, with the achieving settings.

    can_entangle is False when the topology cannot entangle at these
    caps for any n_th >= 0 (the bound is then reported as 0).
    """

    n_th_max: float
    method: str
    argmax: tuple[float, float, float, float]
    can_entangle: bool = True


#: Ranked starts of each threshold search (an extrinsic-microwave cell of
#: analytic_threshold, or numeric_threshold's witness search), and the
#: Nelder-Mead iterations of the witness search.
_SEARCH_STARTS, _SEARCH_ITERS = 3, 80

#: Most halvings numeric_threshold makes of its bracket [0, tau_a d_a].
_BISECT_STEPS = 200

#: Points per axis of the grid that ranks the starts of every search over
#: cooperativities, by search dimension; about 4k points per array
#: evaluation keeps its memory small.  The grid runs from _SEED_FLOOR of
#: each cap to the cap.
_SEED_GRID = {2: 40, 4: 8}
_SEED_FLOOR = 1e-4


def max_stable_ca(caps: DeviceCaps, c_b: float) -> float:
    """Largest stable optical cooperativity for a blue optical pump.

    Bisects the (monotone) stability predicate at fixed c_b down to an
    absolute tolerance of 1e-10; the cap d_a binds when stability does
    not.
    """
    _check_cap("c_b", c_b, caps.d_b)

    def stable(c_a: float) -> bool:
        return stability_ok(caps.params(c_a, c_b, sigma_a=1), caps.rates)

    if stable(caps.d_a):
        return caps.d_a
    lo, hi = 0.0, caps.d_a
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if stable(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _numeric_gap(c_minus: float) -> float:
    """Minimum distance to the squeezing-interaction singularity.

    State components grow like 1/(1 + C_- - C_+)**2, so points closer to
    the boundary than this lose the entanglement margin to float
    cancellation.  Keeping the search this far out shifts optimized
    quantities by at most ~1e-8 relative, well inside every tolerance
    used here.
    """
    return 1e-8 * (1.0 + c_minus)


def _stable_bound(caps: DeviceCaps, c_red: float, optical_blue: bool) -> float:
    """Largest numerically safe cooperativity of the blue-pumped side.

    The side is picked as in _blue_cap.  The result is the largest float
    that is stable (below _blue_cap by more than STRICT_MARGIN) and
    passes _numeric_ok, clipped to the side's cap: the supremum of the
    region that the guarded searches explore.  The numeric gap applies
    to the first stability criterion only, the one whose singularity
    it keeps away from.
    """
    stable = math.nextafter(_blue_cap(c_red, caps.rates, optical_blue) - STRICT_MARGIN, -math.inf)
    cap = min(stable, 1.0 + c_red - _numeric_gap(c_red))
    return min(caps.d_a if optical_blue else caps.d_b, max(cap, 0.0))


def _numeric_ok(kind: MoKind, c_a, c_b) -> bool:
    """Whether (c_a, c_b) keeps the numeric gap; elementwise on numpy arrays.

    The bound is rounded as in _stable_bound, so that a point clamped
    there (a corner of _corner_candidates) passes.
    """
    if kind is _IO:
        return c_a <= 1.0 + c_b - _numeric_gap(c_b)
    if kind is _IM:
        return c_b <= 1.0 + c_a - _numeric_gap(c_a)
    return True


def _em_down_cell(c_a, c_b, tau_a, tau_b, d_a):
    """EM-down bound at (c_a, c_b); floats or numpy arrays, elementwise."""
    s2 = (1.0 + c_a + c_b) ** 2
    return 4.0 * tau_a**2 * tau_b * c_a * c_b * d_a / (s2 + 4.0 * tau_a**2 * c_a * d_a)


def _em_swap_cell(c_a, c_b, tau_a, tau_b):
    """EM-swap bound at (c_a, c_b), -inf where c_a <= 0; floats or arrays, elementwise."""
    array = isinstance(c_a, np.ndarray)
    if array:
        ok = c_a > 0.0
        c_a = np.where(ok, c_a, 1.0)
    elif c_a <= 0.0:
        return -math.inf
    value = tau_b * c_b - (1.0 + c_a + c_b) ** 2 / (8.0 * tau_a * c_a)
    return np.where(ok, value, -np.inf) if array else value


def _maximize_em_cell(t: Topology, caps: DeviceCaps) -> tuple[float, float, float]:
    """Maximize the extrinsic-microwave bound over both cooperativities."""
    if t.scheme == "down":
        cell = lambda x: _em_down_cell(x[0], x[1], caps.tau_a, caps.tau_b, caps.d_a)
    else:
        cell = lambda x: _em_swap_cell(x[0], x[1], caps.tau_a, caps.tau_b)
    # the optimum in c_a sits near 1 + c_b; the ridge leads the ranked pool
    ridge = [
        [min(caps.d_a, 1.0 + caps.d_b), caps.d_b],
        [caps.d_a, caps.d_b],
        [min(caps.d_a, 1.0), min(caps.d_b, 1.0)],
    ]
    hi = [caps.d_a, caps.d_b]
    starts = _ranked_starts(cell, hi, ridge, _SEARCH_STARTS)
    x, val = maximize_box(cell, [0.0, 0.0], hi, starts, nm_max_iter=200)
    return x[0], x[1], val


def analytic_threshold(
    t: Topology,
    caps: DeviceCaps,
    r: SqueezeParam | float = 0.0,
    c_a: float | None = None,
    c_b: float | None = None,
) -> ThresholdResult:
    """Closed-form n_th bound for one of the eight symmetric topologies.

    Extrinsic-microwave rows only have a closed form at given source
    cooperativities; pass c_a and c_b to evaluate there, or leave both
    None to maximize the bound over the caps numerically, by Nelder-Mead
    from the _SEARCH_STARTS best points of the ranked log grid.
    Intrinsic-optical rows use the largest stable optical cooperativity at
    c_b = d_b.  Raises ValueError for an asymmetric swapping topology
    (it has no closed form), for c_a or c_b on any other row than an
    extrinsic-microwave one, for only one of the two, and for a point
    outside 0 <= c_a <= d_a, 0 <= c_b <= d_b.
    """
    if not t.is_symmetric:
        raise ValueError("no closed-form threshold for asymmetric swapping topologies")
    rv = _as_r(r)
    kind = t.kinds[0]
    down = t.scheme == "down"
    da, db, ta, tb = caps.d_a, caps.d_b, caps.tau_a, caps.tau_b
    if kind is not _EM and (c_a is not None or c_b is not None):
        raise ValueError(f"c_a and c_b apply only to extrinsic-microwave rows, not {t.label}")

    if kind is _EO:
        value = (
            ta * da * (1.0 - math.exp(-2.0 * rv)) / 2.0
            if down
            else ta * da * math.sinh(rv) ** 2 / math.cosh(2.0 * rv)
        )
        arg = (da, db, da, db)
    elif kind is _EM:
        if (c_a is None) != (c_b is None):
            raise ValueError("supply both c_a and c_b for extrinsic-microwave rows")
        if c_a is None:
            c_a, c_b, value = _maximize_em_cell(t, caps)
        else:
            _check_cap("c_a", c_a, da)
            _check_cap("c_b", c_b, db)
            value = (
                _em_down_cell(c_a, c_b, ta, tb, da)
                if down
                else _em_swap_cell(c_a, c_b, ta, tb)
            )
        arg = (c_a, c_b, da if down else c_a, db if down else c_b)
    elif kind is _IO:
        ca_bar = max_stable_ca(caps, db)
        value = (
            (math.sqrt(ca_bar * (ca_bar + 4.0 * ta**2 * da)) - ca_bar) / 2.0
            if down
            else (2.0 * ta - 1.0) * ca_bar
        )
        arg = (ca_bar, db, da if down else ca_bar, db)
    else:
        value = (
            (math.sqrt((1.0 + da) ** 2 + 4.0 * ta**2 * da**2) - da - 1.0) / 2.0
            if down
            else (2.0 * ta - 1.0) * da - 1.0
        )
        cb_star = _stable_bound(caps, da, False)
        arg = (da, cb_star, da, db if down else cb_star)

    if value <= 0.0 or not math.isfinite(value):
        return ThresholdResult(0.0, "analytic", arg, can_entangle=False)
    return ThresholdResult(value, "analytic", arg, can_entangle=True)


def _margin_at(t, caps, n_th, r, cs, split, ok):
    """Margin at cooperativities cs; -inf where ok fails or a source is unstable.

    A float point that fails ok is not evaluated.  Arrays of points (cs[0]
    is one then) are evaluated everywhere and masked, with the NaN entries
    of unstable sources set to -inf as well.
    """
    if isinstance(cs[0], np.ndarray):
        with np.errstate(all="ignore"):  # unstable entries may overflow or divide by 0
            m = _margin_of_excess(_mm_excess(t, caps, n_th, r, cs, split))
        return np.where(ok & ~np.isnan(m), m, -np.inf)
    if not ok:
        return -math.inf
    return _margin_of_excess(_mm_excess(t, caps, n_th, r, cs, split))


def _margin_fn(t, caps, n_th, r, split, guard: bool = False):
    """Entanglement margin (1/2 - nu) over mirrored (c_a, c_b).

    Like the two closures below, it takes one point or, to evaluate many
    points at once, x = (c_a array, c_b array).
    """
    kind = t.kinds[0]

    def margin(x):
        ok = not guard or _numeric_ok(kind, x[0], x[1])
        return _margin_at(t, caps, n_th, r, (x[0], x[1], x[0], x[1]), split, ok)

    return margin


def _margin_fn_down(t, caps, n_th, r, split, guard: bool = False):
    """Margin over the source (c_a, c_b) with the downconverter pinned.

    For downconversion of an EM/IO/IM resource the sign of the margin
    depends on the second transducer only through n_th / (tau_a C_a2),
    which is minimized at C_a2 = d_a for any C_b2 > 0, so pinning the
    downconverter at its caps is sign-dominant.
    """
    kind = t.kinds[0]
    pin = (caps.d_a, caps.d_b)

    def margin(x):
        ok = not guard or _numeric_ok(kind, x[0], x[1])
        return _margin_at(t, caps, n_th, r, (x[0], x[1], pin[0], pin[1]), split, ok)

    return margin


def _margin_fn4(t, caps, n_th, r, split, guard: bool = False):
    k1 = t.kinds[0]
    k2 = t.kinds[1] if t.scheme == "swap" else None

    def margin(x):
        ok = not guard or (
            _numeric_ok(k1, x[0], x[1]) & (k2 is None or _numeric_ok(k2, x[2], x[3]))
        )
        return _margin_at(t, caps, n_th, r, tuple(x), split, ok)

    return margin


def _clamp_pair(kind: MoKind, caps: DeviceCaps, c_a: float, c_b: float):
    if kind is _IO:
        c_a = min(c_a, _stable_bound(caps, c_b, True))
    elif kind is _IM:
        c_b = min(c_b, _stable_bound(caps, c_a, False))
    return c_a, c_b


def _corner_candidates(kind: MoKind, caps: DeviceCaps) -> list[tuple[float, float]]:
    da, db = caps.d_a, caps.d_b
    raw = [
        (da, db),
        (min(da, 1.0 + db), db),
        (da, 0.5 * db),
        (0.5 * da, db),
        (min(da, 0.5 * (1.0 + db)), 0.5 * db),
    ]
    out: list[tuple[float, float]] = []
    for ca, cb in raw:
        pt = _clamp_pair(kind, caps, ca, cb)
        if pt not in out:
            out.append(pt)
    return out


def _entangled_at(t, caps, n_th, r, split, candidates):
    """Positivity witness for max-over-cooperativities entanglement.

    Returns the witnessing source (c_a, c_b) pair or None.  Corner
    candidates decide quickly on the entangled side.  Otherwise one
    array evaluation of the margin ranks the candidates and a log grid
    of the box (_ranked_starts), and Nelder-Mead without polish from
    the _SEARCH_STARTS best of them settles the separable side.  The
    entanglement sign is exact here (it is the sign of the tracked
    product defect), so any returned witness is a true positive.
    """
    if t.scheme == "down" and t.kinds[0] is not _EO:
        margin = _margin_fn_down(t, caps, n_th, r, split)
    else:
        margin = _margin_fn(t, caps, n_th, r, split)
    for cand in candidates:
        if margin(cand) > 0.0:
            return cand
    hi = [caps.d_a, caps.d_b]
    starts = _ranked_starts(margin, hi, candidates, _SEARCH_STARTS)
    x, best = maximize_box(margin, [0.0, 0.0], hi, starts, nm_max_iter=_SEARCH_ITERS, polish=False)
    if best > 0.0:
        return (x[0], x[1])
    return None


def numeric_threshold(
    t: Topology,
    caps: DeviceCaps,
    r: SqueezeParam | float = 0.0,
) -> ThresholdResult:
    """Threshold by bisecting n_th on the optimized entanglement sign.

    The bracket is [0, tau_a * d_a]; cooperativities are re-maximized at
    every n_th evaluation: corner candidates first, then a search from
    the ranked log grid (_entangled_at).  The interval is narrowed to a
    width of 1e-7 relative to its lower end, tighter than the 1e-6
    agreement required of the analytic forms, however small the
    threshold.  At most
    _BISECT_STEPS halvings bound the loop, which binds only for
    thresholds below about 2**-176 of the bracket.  If the topology
    cannot entangle even at n_th = 0 the result carries
    can_entangle=False and a bound of 0.
    """
    if not t.is_symmetric:
        raise ValueError("numeric thresholds are defined for the symmetric topologies")
    rv = _as_r(r)
    split = (1.0,) * loss_slot_count(t)
    hi0 = caps.tau_a * caps.d_a
    kind = t.kinds[0]
    candidates = _corner_candidates(kind, caps)

    def full(pair):
        if t.scheme == "down" and kind is not _EO:
            return (pair[0], pair[1], caps.d_a, caps.d_b)
        return (pair[0], pair[1], pair[0], pair[1])

    witness = _entangled_at(t, caps, 0.0, rv, split, candidates)
    if hi0 <= 0.0 or witness is None:
        return ThresholdResult(0.0, "bisection", full(candidates[0]), False)

    lo, hi = 0.0, hi0
    for _ in range(_BISECT_STEPS):
        if hi - lo <= 1e-7 * lo:
            break
        mid = 0.5 * (lo + hi)
        w = _entangled_at(t, caps, mid, rv, split, candidates)
        if w is not None:
            lo, witness = mid, w
        else:
            hi = mid
    n_star = 0.5 * (lo + hi)
    return ThresholdResult(n_star, "bisection", full(witness), True)


def _ranked_starts(margin, hi, corners, n):
    """The n best distinct points of the seed pool, best first.

    The pool is the corners followed by a log grid of the box [0, hi]
    (_SEED_GRID points per axis, from _SEED_FLOOR of each cap up to the
    cap); one array evaluation of margin ranks all of it.  Ties keep
    pool order, so the choice is deterministic.
    """
    axes = [h * np.geomspace(_SEED_FLOOR, 1.0, _SEED_GRID[len(hi)]) for h in hi]
    grid = np.stack(np.meshgrid(*axes, indexing="ij")).reshape(len(hi), -1)
    pool = np.concatenate([np.array(corners, dtype=float).T, grid], axis=1)
    starts: list[list[float]] = []
    for i in np.argsort(-margin(pool), kind="stable"):
        if len(starts) == n:
            break
        point = pool[:, i].tolist()
        if point not in starts:
            starts.append(point)
    return starts


@dataclass(frozen=True)
class _CooperativityBox:
    """The search problem of optimize_cooperativities, inputs checked.

    margin is the guarded margin over the box [0, hi]: over one
    transducer's (c_a, c_b) when mirrored, else over all four
    cooperativities.  corners seed the ranked pool; corners[0] is the
    clamped all-max corner.  corner_decides is False where that corner
    does not bound the margin from above (an EM source at r > 0).
    """

    margin: Callable
    hi: list[float]
    corners: list
    mirrored: bool
    corner_decides: bool

    @classmethod
    def of(cls, t, caps, n_th, r, tau_e=1.0, loss_split=None) -> "_CooperativityBox":
        """Check the inputs as optimize_cooperativities does and build its box."""
        _check_fields(n_th)
        rv = _as_r(r)
        split = _resolve_split(t, tau_e, loss_split)
        uniform_split = all(f == split[0] for f in split)
        mirrored = uniform_split and (
            (t.scheme == "swap" and t.is_symmetric)
            or (t.scheme == "down" and t.kinds[0] is _EO)
        )
        if mirrored:
            margin = _margin_fn(t, caps, n_th, rv, split, guard=True)
            hi = [caps.d_a, caps.d_b]
            corners = _corner_candidates(t.kinds[0], caps)
        else:
            margin = _margin_fn4(t, caps, n_th, rv, split, guard=True)
            hi = [caps.d_a, caps.d_b, caps.d_a, caps.d_b]
            k1 = t.kinds[0]
            k2 = t.kinds[1] if t.scheme == "swap" else None
            cands1 = _corner_candidates(k1, caps)[:3]
            cands2 = _corner_candidates(k2, caps)[:3] if k2 else [(caps.d_a, caps.d_b)]
            corners = [list(p1) + list(p2) for p1 in cands1 for p2 in cands2]
        return cls(margin, hi, corners, mirrored, not (rv > 0.0 and _EM in t.kinds))

    def full(self, x) -> tuple[float, float, float, float]:
        """The cooperativity 4-tuple of a point of the box."""
        return (x[0], x[1], x[0], x[1]) if self.mirrored else tuple(x)

    def corner_separable(self) -> bool:
        """Whether the clamped all-max corner proves that no point entangles.

        True where corner_decides holds and the margin there is finite and
        <= 0; see optimize_cooperativities for the proof.
        """
        return self.corner_decides and -math.inf < self.margin(self.corners[0]) <= 0.0

    def search(self, n_starts: int, nm_max_iter: int) -> tuple[list[float], float]:
        """Nelder-Mead from the n_starts best of the ranked pool, then a polish.

        Runs nm_max_iter iterations per start in 2-D, twice that in 4-D.
        Returns the best point of the box and its margin.
        """
        starts = _ranked_starts(self.margin, self.hi, self.corners, n_starts)
        return maximize_box(
            self.margin, [0.0] * len(self.hi), self.hi, starts,
            nm_max_iter=nm_max_iter * len(self.hi) // 2,
        )


def optimize_cooperativities(
    t: Topology,
    caps: DeviceCaps,
    n_th: float,
    r: SqueezeParam | float = 0.0,
    *,
    tau_e: float = 1.0,
    loss_split: tuple[float, ...] | None = None,
    n_starts: int = 16,
    nm_max_iter: int = 250,
) -> tuple[tuple[float, float, float, float], float]:
    """Maximize the MM logarithmic negativity over the cooperativities.

    Symmetric topologies are searched over one transducer's (c_a, c_b)
    and mirrored; asymmetric swapping searches all four.  The starts
    are chosen by one array evaluation of the margin over a fixed log
    grid of the box plus the box corners (clamped into the stability
    region): Nelder-Mead (nm_max_iter iterations, twice that in 4-D)
    runs from the n_starts best of them, then one golden-section polish
    round along each axis, within 2% of the axis's cap of the best point.
    Every corner is in the ranked pool, so the result never falls
    below the best corner.  loss_split is checked as in NetworkConfig
    (one share per slot, multiplying to tau_e, each in [tau_e, 1]);
    ValueError otherwise, and n_th as in DeviceCaps (finite and >= 0).
    Returns the full cooperativity 4-tuple and the achieved logarithmic
    negativity.

    Before any search the guarded margin is evaluated once at the
    clamped all-max corner: every node at _corner_candidates(kind,
    caps)[0], a downconverter at (d_a, d_b).  If it is finite and <= 0
    there, that corner is returned with exactly 0.0 and nothing is
    searched.  This is exact: the sign of the output defect P factorises
    over the nodes through each source's ratio rho = P/B, taken after
    its loss share.  A swap entangles iff 1 + rho_1 + rho_2 < 0, a
    downconversion iff rho_0 + n_th / (tau_a split[-1] C_a2) < 0, and a
    node with B = 0 also has c = 0, so it cannot entangle.  Each rho is
    smallest at that corner: EO has rho = sh^2 (n - tau' C_a) / (n +
    tau' C_a sh^2), IO rho = -tau_a C_a / (C_a + n) at the largest
    stable C_a, which is at C_b = d_b, and IM rho = -tau_a C_a / (C_a +
    n + 1); all three fall as C_a grows and do not depend on C_b, and EM
    at r = 0 has B = 0.  The clamp (_stable_bound) is the largest C_a
    that the guard and the stability check admit, so no point of the
    search beats the corner.  EM at r > 0, whose rho has an interior
    minimum, and a corner that the guard rejects (-inf) are searched as
    before.
    """
    box = _CooperativityBox.of(t, caps, n_th, r, tau_e, loss_split)
    if box.corner_separable():
        return box.full(box.corners[0]), 0.0
    x, m = box.search(n_starts, nm_max_iter)
    return box.full(x), _log2_negativity(m)


def optimize_loss_split(
    t: Topology,
    caps: DeviceCaps,
    n_th: float,
    r: SqueezeParam | float = 0.0,
    tau_e: float = 1.0,
    *,
    budget: tuple[int, int] = (8, 120),
) -> tuple[tuple[float, ...], float]:
    """Best distribution of external optical loss over a topology's slots.

    Closed-form placements are used where the optimum is known (equal
    shares for EO downconversion, everything on one measured arm for
    symmetric swapping); asymmetric swapping is searched numerically
    over the slot simplex, since its optimum may be interior.
    Cooperativities are re-optimized at every candidate split.
    """
    _check_loss_split(tau_e)

    def e_at(split) -> float:
        return optimize_cooperativities(
            t, caps, n_th, r, tau_e=tau_e, loss_split=split,
            n_starts=budget[0], nm_max_iter=budget[1],
        )[1]

    n = loss_slot_count(t)
    if t.scheme == "down" or t.is_symmetric:
        split = default_loss_split(t, tau_e)
        return split, e_at(split)

    if n == 2:
        # one free share t1 in [tau_e, 1]; endpoints are the known extremes,
        # and max keeps the first-listed one on ties
        ends = [(tau_e, 1.0), (1.0, tau_e)]
        best_split, best_e = max(((s, e_at(s)) for s in ends), key=lambda se: se[1])
        t1, e1 = golden_max_1d(lambda t1: e_at((t1, tau_e / t1)), tau_e, 1.0, iters=24)
        if e1 > best_e:
            best_split, best_e = (t1, tau_e / t1), e1
        return best_split, best_e

    # three slots: shares (t1, t2) free with t3 = tau_e / (t1 t2)
    def e_of_pair(x) -> float:
        t1, t2 = x
        t3 = tau_e / (t1 * t2)
        if t3 < tau_e - 1e-12 or t3 > 1.0 + 1e-12:
            return -math.inf
        return e_at((t1, t2, min(t3, 1.0)))

    extremes = [
        [1.0, 1.0],
        [tau_e, 1.0],
        [1.0, tau_e],
        [tau_e ** (1.0 / 3.0), tau_e ** (1.0 / 3.0)],
    ]
    # each evaluation is a whole optimisation, so the known extremes are the
    # starts rather than the best of a ranked grid
    x, e = maximize_box(
        e_of_pair, [tau_e, tau_e], [1.0, 1.0], extremes, nm_max_iter=40, polish=False
    )
    t1, t2 = x
    t3 = min(max(tau_e / (t1 * t2), tau_e), 1.0)
    return (t1, t2, t3), e
