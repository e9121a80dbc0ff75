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

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import SqueezeParam, _as_r
from .network import (
    Topology,
    _log2_negativity,
    _margin_of_excess,
    _mm_excess_fn,
    _resolve_split,
    default_loss_split,
    loss_slot_count,
)
# the benchmark's tracer (perfbench/tracer.py) patches thresholds._mm_excess by name
from .network import _mm_excess  # noqa: F401
from .optimize import golden_max_1d, maximize_box
from .sources import _EM, _EO, _IM, _IO, MoKind
from .transducer import (
    DeviceCaps,
    _blue_bound,
    _check_cap,
    _check_fields,
    _check_loss_split,
)
# the benchmark's tracer (perfbench/tracer.py) patches thresholds.stability_ok by name
from .transducer import stability_ok  # noqa: F401

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


#: Ranked starts of each threshold search (the EM-swap cell of
#: analytic_threshold, or numeric_threshold's witness search), and the
#: Nelder-Mead iterations of the witness search.
_SEARCH_STARTS, _SEARCH_ITERS = 3, 80

#: Most halvings numeric_threshold makes of its bracket [0, tau_a d_a].
_BISECT_STEPS = 200

#: Points per axis of the grid that ranks the starts of every search over
#: cooperativities, by search dimension; at most about 4k points per
#: array evaluation keeps its memory small.  The grid runs from
#: _SEED_FLOOR of each cap to the cap.
_SEED_GRID = {1: 40, 2: 40, 3: 16, 4: 8}
_SEED_FLOOR = 1e-4


def max_stable_ca(caps: DeviceCaps, c_b: float) -> float:
    """Largest stable optical cooperativity for a blue optical pump.

    Bisects the (monotone) stability predicate at fixed c_b down to an
    absolute tolerance of 1e-10, or until no float lies strictly between
    the ends (above a bound of about 5e5 their spacing exceeds 1e-10);
    the cap d_a binds when stability does not.  The predicate is
    stability_ok's, c_a < _blue_bound(c_b), with the bound computed once
    per call.
    """
    _check_cap("c_b", c_b, caps.d_b)
    bound = _blue_bound(c_b, caps.rates, True)
    if caps.d_a < bound:
        return caps.d_a
    lo, hi = 0.0, caps.d_a
    while hi - lo > 1e-10 and math.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        if mid < bound:
            lo = mid
        else:
            hi = mid
    return lo


def _stable_bound(caps: DeviceCaps, c_red: float, optical_blue: bool) -> float:
    """Largest stable cooperativity of the blue-pumped side, within its cap.

    The side is picked as in _blue_bound.  The result is the largest
    float below _blue_bound (the largest that stability_ok admits),
    clipped to [0, the side's cap]: the supremum of the region that a
    search over cooperativities visits, since its margin is -inf
    wherever a source is unstable.
    """
    stable = math.nextafter(_blue_bound(c_red, caps.rates, optical_blue), -math.inf)
    return min(caps.d_a if optical_blue else caps.d_b, max(stable, 0.0))


def _em_down_cell(c_a, c_b, tau_a, tau_b, d_a):
    """EM-down bound at (c_a, c_b); floats or numpy arrays, elementwise."""
    s2 = (1.0 + c_a + c_b) ** 2
    return 4.0 * tau_a**2 * tau_b * c_a * c_b * d_a / (s2 + 4.0 * tau_a**2 * c_a * d_a)


def _em_swap_cell(c_a, c_b, tau_a, tau_b):
    """EM-swap bound at (c_a, c_b), -inf where tau_a c_a <= 0; floats or arrays, elementwise."""
    den = 8.0 * tau_a * c_a
    array = isinstance(den, np.ndarray)
    if array:
        ok = den > 0.0
        den = np.where(ok, den, 1.0)
    elif den <= 0.0:
        return -math.inf
    value = tau_b * c_b - (1.0 + c_a + c_b) ** 2 / den
    return np.where(ok, value, -np.inf) if array else value


def _em_down_max(caps: DeviceCaps) -> tuple[float, float, float]:
    """Maximum of the EM-down bound over the caps, in closed form.

    Write f = _em_down_cell and K = 4 tau_a^2 d_a, so f is proportional
    to c_a c_b / ((1 + c_a + c_b)^2 + K c_a).  Its partial derivatives
    have the signs of (1 + c_a + c_b)(1 + c_b - c_a) in c_a and of
    (1 + c_a)^2 + K c_a - c_b^2 in c_b.  The first vanishes in the box
    only on c_a = 1 + c_b, where the second is 4 + 4 c_b + K (1 + c_b)
    > 0, so f has no stationary point inside the box.  f is 0 on the
    edges c_a = 0 and c_b = 0, so its maximum lies on the edge c_b = d_b
    or the edge c_a = d_a.  Along each, f rises up to the zero of its
    partial derivative and falls beyond it: the candidates are (min(d_a,
    1 + d_b), d_b) and (d_a, min(d_b, sqrt((1 + d_a)^2 + K d_a))), and
    the first of the larger is returned as (c_a, c_b, value).
    """
    da, db, ta, tb = caps.d_a, caps.d_b, caps.tau_a, caps.tau_b
    edge_b = (min(da, 1.0 + db), db)
    edge_a = (da, min(db, math.sqrt((1.0 + da) ** 2 + 4.0 * ta**2 * da**2)))
    value_b, value_a = (_em_down_cell(*x, ta, tb, da) for x in (edge_b, edge_a))
    return (*edge_b, value_b) if value_b >= value_a else (*edge_a, value_a)


def _maximize_em_swap_cell(caps: DeviceCaps) -> tuple[float, float, float]:
    """Maximize the EM-swap bound over both cooperativities, by Nelder-Mead."""
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

    Extrinsic-microwave rows are closed forms at given source
    cooperativities; pass c_a and c_b to evaluate there, or leave both
    None to maximize the bound over the caps.  EM-down takes the better
    of two edge points, in closed form (_em_down_max); EM-swap is still
    searched, by Nelder-Mead from the _SEARCH_STARTS best points of the
    ranked log grid.
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
            c_a, c_b, value = _em_down_max(caps) if down else _maximize_em_swap_cell(caps)
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


def _converter_nodes(t: Topology) -> tuple[int, int]:
    """The layout (_layout_coords) of t's two nodes: 1 on a converter node, else 2.

    A converter node is a red-red converter whose output is a final
    microwave mode: an EO source (its converter turns the squeezed
    pair's second mode into a final microwave mode) and the
    downconverter, node 2 of every downconversion.  See
    optimize_cooperativities for why its best C_b is min(d_b, 1 + C_a).
    """
    second = t.scheme == "down" or t.kinds[1] is _EO
    return (1 if t.kinds[0] is _EO else 2), (1 if second else 2)


def _layout_coords(caps, axes: tuple[int, ...]):
    """f(x) = (c_a1, c_b1, c_a2, c_b2) at the point x of a cooperativity layout.

    A layout gives, in node order, the number of axes of x that each node
    searches: 2 its (C_a, C_b); 1 its C_a alone, a converter node whose
    C_b is min(d_b, 1 + C_a), the same bits on floats and arrays; 0 none,
    the node held at its caps (d_a, d_b).  A 1-tuple is
    mirrored: its node's setting serves both transducers.  x may hold
    floats or arrays.
    """
    d_a, d_b = caps.d_a, caps.d_b

    def node(k: int, i: int):
        if k == 2:
            return operator.itemgetter(i, i + 1)
        if k == 0:
            return lambda x: (d_a, d_b)

        def converter(x):
            c_a = x[i]
            if isinstance(c_a, np.ndarray):
                return c_a, np.minimum(d_b, 1.0 + c_a)
            c_b = 1.0 + c_a
            return c_a, (c_b if c_b < d_b else d_b)  # min(d_b, c_b), bit for bit

        return converter

    first = node(axes[0], 0)
    if len(axes) == 1:
        return lambda x: first(x) * 2
    second = node(axes[1], axes[0])
    return lambda x: first(x) + second(x)


def _margin_closure(t, caps, n_th, r, split, axes: tuple[int, ...]):
    """Entanglement margin (1/2 - nu) at the point x of the cooperativity layout axes.

    The layout is that of _layout_coords.  The margin is -inf where a
    source is unstable, and only there.  x may also hold arrays (x[0] an
    ndarray) to evaluate many points at once; they are evaluated
    everywhere and masked, bit for bit equal to the points one at a time.

    Everything fixed for one search (topology, caps, n_th, r, split and
    layout) is bound here once, by _mm_excess_fn, so one evaluation is
    a few calls of straight-line float arithmetic.
    """
    excess = _mm_excess_fn(t, caps, n_th, r, split)
    coords = _layout_coords(caps, axes)

    def margin(x):
        c_a1, c_b1, c_a2, c_b2 = coords(x)
        if isinstance(c_a1, np.ndarray):
            with np.errstate(all="ignore"):  # unstable entries may overflow or divide by 0
                m = _margin_of_excess(excess(c_a1, c_b1, c_a2, c_b2))
            return np.where(np.isnan(m), -np.inf, m)
        return _margin_of_excess(excess(c_a1, c_b1, c_a2, c_b2))

    return margin


def _margin_fn(t, caps, n_th, r, split, pin_cb: bool = False):
    """Margin over mirrored (c_a, c_b), less the C_b axis that pin_cb removes."""
    return _margin_closure(t, caps, n_th, r, split, _converter_nodes(t)[:1] if pin_cb else (2,))


def _margin_fn_down(t, caps, n_th, r, split):
    """Margin over the source (c_a, c_b) with the downconverter pinned.

    For downconversion of an EM/IO/IM resource the sign of the margin
    depends on the second transducer only through n_th / (tau_a C_a2),
    which is minimized at C_a2 = d_a for any C_b2 > 0, so pinning the
    downconverter at its caps is sign-dominant.
    """
    return _margin_closure(t, caps, n_th, r, split, (2, 0))


def _margin_fn4(t, caps, n_th, r, split, pin_cb: bool = False):
    """Margin over all four cooperativities, less the C_b axes that pin_cb removes."""
    return _margin_closure(t, caps, n_th, r, split, _converter_nodes(t) if pin_cb else (2, 2))


def _witness_axes(t: Topology) -> tuple[int, ...]:
    """numeric_threshold's layout: mirrored, or EM/IO/IM-down's downconverter at its caps."""
    return (2, 0) if t.scheme == "down" and t.kinds[0] is not _EO else (2,)


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
    factory = _margin_fn if len(_witness_axes(t)) == 1 else _margin_fn_down
    margin = factory(t, caps, n_th, r, split)
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
    candidates = _corner_candidates(t.kinds[0], caps)
    coords = _layout_coords(caps, _witness_axes(t))

    witness = _entangled_at(t, caps, 0.0, rv, split, candidates)
    if hi0 <= 0.0 or witness is None:
        return ThresholdResult(0.0, "bisection", coords(candidates[0]), False)

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
    return ThresholdResult(n_star, "bisection", coords(witness), True)


@functools.lru_cache(maxsize=len(_SEED_GRID))
def _unit_seed_grid(dim: int) -> np.ndarray:
    """The seed grid of the unit box in dim dimensions, one point per column; read-only."""
    axis = np.geomspace(_SEED_FLOOR, 1.0, _SEED_GRID[dim])
    grid = np.stack(np.meshgrid(*[axis] * dim, indexing="ij")).reshape(dim, -1)
    grid.flags.writeable = False
    return grid


def _ranked_starts(margin, hi, corners, n):
    """The n best distinct points of the seed pool, best first.

    The pool is the corners followed by a log grid of the box [0, hi]
    (_SEED_GRID points per axis, from _SEED_FLOOR of each cap up to the
    cap); one array evaluation of margin ranks all of it.  Ties keep
    pool order, so the choice is deterministic.
    """
    grid = np.array(hi, dtype=float)[:, None] * _unit_seed_grid(len(hi))
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

    margin is the margin over the box [0, hi], -inf where a source is
    unstable, in the layout (_layout_coords) of one transducer when
    mirrored, else of both; a converter node (_converter_nodes) has only
    its C_a axis.  full maps a point of the box to the cooperativity
    4-tuple.  corners seed the ranked pool, at most 3 per node when both
    nodes are searched; corners[0] is the clamped all-max corner.
    corner_decides is False where that corner does not bound the margin
    from above (an EM source at r > 0).
    """

    margin: Callable
    full: Callable
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
        axes = _converter_nodes(t)[: 1 if mirrored else 2]
        margin = (_margin_fn if mirrored else _margin_fn4)(t, caps, n_th, rv, split, pin_cb=True)
        # each node's distinct candidates, cut to its axes; the downconverter's one is its caps
        kinds = t.kinds if t.scheme == "swap" else (t.kinds[0], None)
        most = None if mirrored else 3
        per_node = []
        for kind, k in zip(kinds, axes):
            pairs = [(caps.d_a, caps.d_b)] if kind is None else _corner_candidates(kind, caps)
            per_node.append(list(dict.fromkeys(pair[:k] for pair in pairs))[:most])
        corners = [sum(point, ()) for point in itertools.product(*per_node)]
        hi = [c for k in axes for c in (caps.d_a, caps.d_b)[:k]]
        full = _layout_coords(caps, axes)
        return cls(margin, full, hi, corners, mirrored, not (rv > 0.0 and _EM in t.kinds))

    def corner_separable(self) -> bool:
        """Whether the clamped all-max corner proves that no point entangles.

        True where corner_decides holds and the margin there is finite and
        <= 0; see optimize_cooperativities for the proof.
        """
        return self.corner_decides and -math.inf < self.margin(self.corners[0]) <= 0.0

    def search(self, n_starts: int, nm_max_iter: int) -> tuple[list[float], float]:
        """Nelder-Mead from the n_starts best of the ranked pool, then a polish.

        Runs nm_max_iter * dim // 2 iterations per start in dim
        dimensions (nm_max_iter in 2-D).  Returns the best point of the
        box and its margin.
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

    Symmetric topologies with a uniform loss split, and down(EO), are
    searched over one transducer's cooperativities and mirrored; the
    others over both transducers'.  _converter_nodes gives each node its
    axes: a converter node, a red-red converter whose output is a final
    microwave mode (the converter inside an EO source, and the
    downconverter of a downconversion), has C_a as its only axis, its C_b
    being min(d_b, 1 + C_a), exactly, as shown below; every other node
    has both.  A search thus runs in 1 to 4 dimensions.
    The starts are chosen by one array evaluation of the margin over a
    fixed log grid of the box plus the box corners (clamped into the
    stability region): Nelder-Mead (nm_max_iter * dim // 2 iterations
    in dim dimensions) runs from the n_starts best of them, then one
    golden-section polish round along each axis, within 2% of the
    axis's cap of the best point.  Every corner is in the ranked pool,
    so the result never falls below the best corner.  loss_split is
    checked as in NetworkConfig (one share per slot, multiplying to
    tau_e, each in [tau_e, 1]); ValueError otherwise, for n_th outside
    DeviceCaps's domain (finite and >= 0), and unless n_starts is an
    integer >= 1 and nm_max_iter an integer >= 0.  Returns the full
    cooperativity 4-tuple and the achieved logarithmic negativity.

    The converter pin is exact.  In the excess form of
    network._mm_excess_fn a converter maps the mode it converts as A ->
    t^2 (A + nu), c -> t c and P -> t^2 (P + nu B), B being the other
    mode's excess, with nu = n_th / (tau' C_a) and t^2 = 4 tau' tau_b
    C_a C_b / (1 + C_a + C_b)^2, where tau' is tau_a times the loss
    share in front of the converter.  nu does not depend on C_b, and at
    fixed C_a, t^2 rises with C_b up to C_b = 1 + C_a and falls beyond,
    so on [0, d_b] it peaks at C_b* = min(d_b, 1 + C_a).  Pure loss eta
    maps (A, c, P) to (eta A, sqrt(eta) c, eta P), so the channel at any
    other C_b is the channel at C_b* followed by pure loss t^2 / t*^2 on
    its output.  That output is a final microwave mode, so the loss is
    a local channel, which cannot raise the logarithmic negativity: the
    maximum over the box is reached with every converter node at C_b*.
    (At C_a = 0 or tau' = 0, t = 0 and the output is uncorrelated for
    every C_b.)  A separable margin is not ordered so; loss moves it up
    toward 0, which changes no returned value.  The argument needs a
    final output: the converter of an EM source outputs the optical mode
    that is measured or downconverted, and IO and IM sources are
    two-mode squeezers, so their C_b stays a search axis.

    Before any search the margin is evaluated once at the
    clamped all-max corner: every node at _corner_candidates(kind,
    caps)[0], a converter node at (d_a, min(d_b, 1 + d_a)).  If it is
    finite and <= 0 there, that corner is returned with exactly 0.0 and
    nothing is searched.  This is exact: the sign of the output defect P
    factorises over the nodes through each source's ratio rho = P/B,
    taken after its loss share.  A swap entangles iff 1 + rho_1 + rho_2
    < 0, a downconversion iff rho_0 + n_th / (tau_a split[-1] C_a2) < 0,
    and a node with B = 0 also has c = 0, so it cannot entangle.  Each
    rho is smallest at that corner: EO has rho = sh^2 (n - tau' C_a) /
    (n + tau' C_a sh^2), IO rho = -tau_a C_a / (C_a + n) at the largest
    stable C_a, which is at C_b = d_b, and IM rho = -tau_a C_a / (C_a +
    n + 1); all three fall as C_a grows and do not depend on C_b, and EM
    at r = 0 has B = 0.  The clamp (_stable_bound) is the largest C_a
    that the stability check admits, and the margin is -inf at every
    unstable point, so no point of the search beats the corner.  EM at
    r > 0, whose rho has an interior minimum, is searched as before.
    """
    for name, value, least in (("n_starts", n_starts, 1), ("nm_max_iter", nm_max_iter, 0)):
        if type(value) is not int or value < least:
            raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
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
