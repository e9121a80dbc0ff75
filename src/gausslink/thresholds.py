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
from typing import TYPE_CHECKING, Callable

from .core import SqueezeParam, _as_r, _is_array
from .network import (
    Topology,
    _log2_negativity,
    _margin_of_excess,
    _mm_excess,
    _resolve_split,
    default_loss_split,
    loss_slot_count,
)
from .optimize import maximize_box
from .sources import _EM, _EO, _IM, _IO, MoKind
from .transducer import (
    STRICT_MARGIN,
    DeviceCaps,
    _blue_bound,
    _blue_bound_lines,
    _check_cap,
    _check_fields,
    _check_loss_split,
)
# the benchmark's tracer (perfbench/tracer.py) patches thresholds.stability_ok by name
from .transducer import stability_ok  # noqa: F401

if TYPE_CHECKING:
    import numpy as np

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
_SEED_GRID = {1: 40, 2: 40, 3: 16}
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


def _stable_bound(caps: DeviceCaps, c_red, optical_blue: bool):
    """The largest stable cooperativity of the blue-pumped side at C_- = c_red, within its cap.

    The side is picked as in _blue_bound.  The result is the largest
    float below that bound (the largest that stability_ok admits),
    clipped to [0, the side's cap]: the supremum of the region that a
    search over cooperativities visits, since its margin is -inf
    wherever a source is unstable.  c_red may be a float or a numpy
    array, with the same bits elementwise.
    """
    cap = caps.d_a if optical_blue else caps.d_b
    b = _blue_bound(c_red, caps.rates, optical_blue)
    if _is_array(b):
        import numpy as np

        return np.minimum(cap, np.maximum(np.nextafter(b, -np.inf), 0.0))
    b = math.nextafter(b, -math.inf)
    b = b if b > 0.0 else 0.0
    return b if b < cap else cap  # min(cap, max(b, 0.0)), bit for bit


def _em_down_cell(c_a, c_b, tau_a, tau_b, d_a):
    """EM-down bound at (c_a, c_b); floats or numpy arrays, elementwise."""
    s2 = (1.0 + c_a + c_b) ** 2
    return 4.0 * tau_a**2 * tau_b * c_a * c_b * d_a / (s2 + 4.0 * tau_a**2 * c_a * d_a)


def _em_swap_cell(c_a, c_b, tau_a, tau_b):
    """EM-swap bound at (c_a, c_b), -inf where tau_a c_a <= 0; floats or arrays, elementwise."""
    den = 8.0 * tau_a * c_a
    if not _is_array(den):
        return -math.inf if den <= 0.0 else tau_b * c_b - (1.0 + c_a + c_b) ** 2 / den
    import numpy as np

    ok = den > 0.0
    value = tau_b * c_b - (1.0 + c_a + c_b) ** 2 / np.where(ok, den, 1.0)
    return np.where(ok, value, -np.inf)


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
    """Maximum of the EM-swap bound over the caps, as (c_a, c_b, value).

    Where 2 tau_a tau_b <= 1, or 4 tau_a tau_b d_a <= 1 + d_a, the
    maximiser is c_b = 0, c_a = min(d_a, 1), in closed form.  Write g =
    tau_b c_b - (1 + c_a + c_b)^2 / (8 tau_a c_a).  At fixed c_b, g is
    unimodal in c_a with its peak at 1 + c_b, so the best c_a is min(d_a,
    1 + c_b).  Where 2 tau_a tau_b <= 1: on c_a = 1 + c_b, g = c_b (tau_b
    - 1/(2 tau_a)) - 1/(2 tau_a), which does not rise in c_b; on c_a =
    d_a (where c_b >= d_a - 1), dg/dc_b = tau_b - (1 + d_a + c_b) / (4
    tau_a d_a) <= tau_b - 1/(2 tau_a) <= 0.  Where 2 tau_a tau_b > 1 and
    4 tau_a tau_b d_a <= 1 + d_a: d_a (4 tau_a tau_b - 1) <= 1 with 4
    tau_a tau_b - 1 > 1, so d_a < 1 <= 1 + c_b and the best c_a is d_a =
    min(d_a, 1) at every c_b; on c_a = d_a, g is concave in c_b with
    slope tau_b - (1 + d_a) / (4 tau_a d_a) <= 0 at c_b = 0.  Either way
    c_b = 0 is a maximiser (at 2 tau_a tau_b = 1, one of a flat set with
    the same value), and the value there, -(1 + c_a)^2 / (8 tau_a c_a),
    is < 0, or -inf at tau_a c_a = 0: the row cannot entangle.  Should
    rounding move a cell across the second condition's tie, P = 4 tau_a
    tau_b d_a - 1 - d_a is within a few ulps of 0, and the maximum moves
    by O(P^2), still < 0.  Elsewhere (P > 0, where c_b* = min(d_b, P))
    the bound is searched, by Nelder-Mead from the _SEARCH_STARTS best
    points of the ranked log grid.
    """
    da, db, ta, tb = caps.d_a, caps.d_b, caps.tau_a, caps.tau_b
    if not (2.0 * ta * tb > 1.0 and 4.0 * ta * tb * da > 1.0 + da):
        c_a = min(da, 1.0)
        return c_a, 0.0, _em_swap_cell(c_a, 0.0, ta, tb)
    cell = lambda x: _em_swap_cell(x[0], x[1], ta, tb)
    # the optimum in c_a sits near 1 + c_b; the ridge leads the ranked pool
    ridge = [[min(da, 1.0 + db), db], [da, db], [min(da, 1.0), min(db, 1.0)]]
    hi = [da, db]
    starts = _ranked_starts(cell, hi, ridge, _SEARCH_STARTS)
    x, val = maximize_box(cell, [0.0, 0.0], hi, starts, nm_max_iter=200)
    return x[0], x[1], val


def analytic_threshold(
    t: Topology, caps: DeviceCaps, r: SqueezeParam | float = 0.0
) -> ThresholdResult:
    """Closed-form n_th bound for one of the eight symmetric topologies.

    Each row is the bound at its optimum cooperativities within the caps.
    Extrinsic-microwave rows maximize a closed form in the source
    cooperativities (_em_down_cell, _em_swap_cell) over the caps.
    EM-down takes the better of two edge points, in closed form
    (_em_down_max).  EM-swap is a closed form where 2 tau_a tau_b <= 1
    or 4 tau_a tau_b d_a <= 1 + d_a (c_b = 0, c_a = min(d_a, 1): it
    cannot entangle) and is searched elsewhere, where c_b* = min(d_b, 4
    tau_a tau_b d_a - 1 - d_a), by Nelder-Mead from the _SEARCH_STARTS
    best points of the ranked log grid (_maximize_em_swap_cell).
    Intrinsic-optical rows use the largest stable optical cooperativity at
    c_b = d_b.  No row entangles at d_b = 0 or tau_b = 0 (can_entangle
    False, a bound of 0).  Raises ValueError for an asymmetric swapping
    topology (it has no closed form).
    """
    if not t.is_symmetric:
        raise ValueError("no closed-form threshold for asymmetric swapping topologies")
    rv = _as_r(r)
    kind = t.kinds[0]
    down = t.scheme == "down"
    da, db, ta, tb = caps.d_a, caps.d_b, caps.tau_a, caps.tau_b
    if kind is _EO:
        value = (
            ta * da * (1.0 - math.exp(-2.0 * rv)) / 2.0
            if down
            else ta * da * math.sinh(rv) ** 2 / math.cosh(2.0 * rv)
        )
        arg = (da, db, da, db)
    elif kind is _EM:
        c_a, c_b, value = _em_down_max(caps) if down else _maximize_em_swap_cell(caps)
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

    # the closed forms are suprema over C_b > 0: at C_b = 0 or tau_b = 0 no
    # converter transmits and no intrinsic source correlates, as their
    # c is proportional to sqrt(tau_a tau_b C_a C_b)
    if value <= 0.0 or not math.isfinite(value) or db == 0.0 or tb == 0.0:
        return ThresholdResult(0.0, arg, can_entangle=False)
    return ThresholdResult(value, arg, can_entangle=True)


#: The entries of a node's (C_a, C_b) that each node code of a layout
#: (_layout_coords) keeps as axes, in order.
_NODE_AXES = {2: (0, 1), 1: (0,), 0: (), _IM: (0,), _IO: (1,)}

#: The layout code of each kind of source (_converter_nodes).
_SOURCE_CODES = {_EO: 1, _EM: 2, _IO: _IO, _IM: _IM}


def _converter_nodes(t: Topology) -> tuple:
    """The layout (_layout_coords) of t's two nodes: one axis on all but an EM source.

    A converter node, code 1, is a red-red converter whose output is a
    final microwave mode: an EO source (its converter turns the squeezed
    pair's second mode into a final microwave mode) and the
    downconverter, node 2 of every downconversion; its best C_b is
    min(d_b, 1 + C_a).  An IO or IM source, code _IO or _IM, is best
    with its blue-pumped side at its stable bound.  An EM source, code
    2, keeps both axes.  See optimize_cooperativities for both proofs.
    """
    return _SOURCE_CODES[t.kinds[0]], (1 if t.scheme == "down" else _SOURCE_CODES[t.kinds[1]])


def _layout_coords(caps, axes: tuple):
    """f(x) = (c_a1, c_b1, c_a2, c_b2) at the point x of a cooperativity layout.

    A layout gives, in node order, a code for each node; the node
    takes the axes of x that _NODE_AXES gives its code.  2 takes its
    (C_a, C_b); 1 its C_a alone, a converter node whose C_b is
    min(d_b, 1 + C_a); _IM its C_a and _IO its C_b, the red-pumped side
    of an intrinsic source, whose blue-pumped side sits at its stable
    bound (_stable_bound); 0 none, the node held at its caps (d_a,
    d_b).  The pinned side has the same bits on floats and arrays.  A
    1-tuple is mirrored: its node's setting serves both transducers.  x
    may hold floats or arrays.  Built from caps at each call, for the
    margin closures, the witness points of numeric_threshold and the
    oracle _CooperativityBox; the node-local root pins its points
    itself, with the same bits.
    """
    d_a, d_b = caps.d_a, caps.d_b

    def node(k, i: int):
        if k == 2:
            return operator.itemgetter(i, i + 1)
        if k == 0:
            return lambda x: (d_a, d_b)
        if k is _IO:
            return lambda x: (_stable_bound(caps, x[i], True), x[i])
        if k is _IM:
            return lambda x: (x[i], _stable_bound(caps, x[i], False))

        def converter(x):
            c_a = x[i]
            if _is_array(c_a):
                import numpy as np

                return c_a, np.minimum(d_b, 1.0 + c_a)
            c_b = 1.0 + c_a
            return c_a, (c_b if c_b < d_b else d_b)  # min(d_b, c_b), bit for bit

        return converter

    first = node(axes[0], 0)
    if len(axes) == 1:
        return lambda x: first(x) * 2
    second = node(axes[1], len(_NODE_AXES[axes[0]]))
    return lambda x: first(x) + second(x)


def _margin_closure(t, caps, n_th, r, split, axes: tuple):
    """Entanglement margin (1/2 - nu) at the point x of the cooperativity layout axes.

    The layout is that of _layout_coords.  The margin is -inf where a
    source is unstable, and only there.  x may also hold arrays (x[0] an
    ndarray) to evaluate many points at once; they are evaluated
    everywhere and masked, bit for bit equal to the points one at a time.

    Only a free node (code 2) of an IO or IM source is checked; a
    mirrored 1-tuple layout gives its code to both nodes, so to both
    kinds of an asymmetric swap.  The other codes go only to red-red
    nodes, always stable, and to pinned IO/IM nodes, which need no
    check.  A pinned node's blue-pumped side is the face
    nextafter(bound) clipped to [0, cap] (_stable_bound), and the
    bound, min(C_- + 1, second) - STRICT_MARGIN, is at least
    1 - STRICT_MARGIN > 0 for any rates and any C_- >= 0: second =
    (C_- kappa_- gamma_m / (kappa_+ + gamma_m) + kappa_+ + kappa_-)
    (kappa_- + gamma_m) / (kappa_+ gamma_m) >= 1, also as computed,
    since each rounded step is monotone.  So every face point lies
    strictly below its bound.

    A closure, because its callers (numeric_threshold's witness search
    and the oracle search of _CooperativityBox) take the margin as a
    function of x alone.  It binds the layout map and the checks; each
    evaluation calls _mm_excess, looked up in this module at each call,
    where the benchmark's tracer (perfbench/tracer.py) counts it.  The
    node-local root needs neither: its nodes return the 4-tuple, and
    _NodeRoot.margin evaluates _mm_excess there.
    """
    coords = _layout_coords(caps, axes)
    rates = caps.rates
    # (index of C_+, index of C_-, optical_blue) in coords(x) of each free IO/IM node
    checks = []
    if 2 in axes:
        for i, (kind, code) in enumerate(zip(t.kinds, axes * 2 if len(axes) == 1 else axes)):
            if code == 2 and (kind is _IO or kind is _IM):
                plus = 2 * i + (kind is _IM)
                checks.append((plus, plus ^ 1, kind is _IO))

    def margin(x):
        cs = coords(x)
        if _is_array(cs[0]):
            import numpy as np

            with np.errstate(all="ignore"):  # unstable entries may overflow or divide by 0
                m = _margin_of_excess(_mm_excess(t, caps, n_th, r, cs, split))
            for plus, minus, optical in checks:
                m = np.where(cs[plus] < _blue_bound(cs[minus], rates, optical), m, -np.inf)
            return m
        for plus, minus, optical in checks:
            if not cs[plus] < _blue_bound(cs[minus], rates, optical):
                return -math.inf
        return _margin_of_excess(_mm_excess(t, caps, n_th, r, cs, split))

    return margin


def _margin_fn(t, caps, n_th, r, split, pin_cb: bool = False):
    """Margin over mirrored (c_a, c_b), less the axis that pin_cb pins (_converter_nodes)."""
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
    """Margin over all four cooperativities, less the axes that pin_cb pins (_converter_nodes)."""
    return _margin_closure(t, caps, n_th, r, split, _converter_nodes(t) if pin_cb else (2, 2))


def _witness_axes(t: Topology) -> tuple[int, ...]:
    """numeric_threshold's layout: mirrored, or EM/IO/IM-down's downconverter at its caps."""
    return (2, 0) if t.scheme == "down" and t.kinds[0] is not _EO else (2,)


def _corner_candidates(kind: MoKind, caps: DeviceCaps) -> list[tuple[float, float]]:
    """Distinct corners of a source's box, an IO or IM source's blue side clamped to its bound."""
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
        if kind is _IO:
            ca = min(ca, _stable_bound(caps, cb, True))
        elif kind is _IM:
            cb = min(cb, _stable_bound(caps, ca, False))
        if (ca, cb) not in out:
            out.append((ca, cb))
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
        return ThresholdResult(0.0, coords(candidates[0]), False)

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
    return ThresholdResult(n_star, coords(witness), True)


@functools.lru_cache(maxsize=len(_SEED_GRID))
def _unit_seed_grid(dim: int) -> np.ndarray:
    """The seed grid of the unit box in dim dimensions, one point per column; read-only."""
    import numpy as np

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
    import numpy as np

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


#: Most steps of an ascent (_ascend); each step raises the margin, and
#: rounding ends the ascent after a few.
_ROOT_STEPS = 64


def _ascend(x, margin: Callable, best_at: Callable):
    """(x, margin(x)) after the ascent in mu from x: Dinkelbach's steps.

    Each step moves to best_at(m), the best point at the margin m of
    the last, while the margin is positive and that raises it; at most
    _ROOT_STEPS steps.  A step reads the point and its margin alone, so
    best_at computes no value at its point (_NodeRoot.point).  A step
    that returns the point it started from ends the ascent without
    evaluating the margin there again, which could not rise.  A point
    is any value that compares with ==: the cooperativity 4-tuple of
    _NodeRoot.solve, or (t_3, 4-tuple) in the split ascent of
    optimize_loss_split.
    """
    m = margin(x)
    for _ in range(_ROOT_STEPS):
        if not m > 0.0:
            break
        y = best_at(m)
        if y == x:
            break
        m_y = margin(y)
        if not m_y > m:
            break
        x, m = y, m_y
    return x, m


def _ratio(num: float, den: float) -> float:
    """num / den, -inf where den <= 0 (a node that cannot entangle)."""
    return num / den if den > 0.0 else -math.inf


def _falling_root(a: float, b: float, c: float) -> float | None:
    """The root where a x^2 + b x + c falls through 0, or None.

    Its slope at a root is +-sqrt(b^2 - 4ac), so the falling one is (-b
    - sqrt(b^2 - 4ac)) / 2a, taken in the form without cancellation; a
    line falls where b < 0, and a double root only touches 0.
    """
    if a == 0.0:
        return -c / b if b < 0.0 else None
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        return None
    root = math.sqrt(disc)
    return -(b + root) / (2.0 * a) if b >= 0.0 else 2.0 * c / (root - b)


def _times(p, q) -> tuple[float, float, float]:
    """The product of two polynomials of degree <= 1, as coefficients (c0, c1, c2)."""
    return p[0] * q[0], p[0] * q[1] + p[1] * q[0], p[1] * q[1]


class _ConverterNode:
    """A converter node in the node-local condition.

    With sh2 = sinh(r)^2 it is an EO source, whose value is its h; with
    sh2 None the downconverter, whose value is -g.  tau is tau_a times
    the loss share in front of the converter.  Both are best at the one
    C_a that minimises g, whatever tau and sh2
    (optimize_cooperativities).  Its point is (C_a, C_b), with C_b at
    the pin min(d_b, 1 + C_a), bit for bit as in the oracle's
    _layout_coords; zero is the point at C_a = 0.
    """

    def __init__(self, caps: DeviceCaps, tau: float, n_th: float, sh2: float | None = None):
        self.d_a, self.d_b, self.tau, self.n_th, self.sh2 = caps.d_a, caps.d_b, tau, n_th, sh2
        self.four_tau_b = 4.0 * caps.tau_b
        self.x_sq, self.x_sq_mu = (1.0 + caps.d_b) ** 2, self.four_tau_b * caps.d_b * n_th

    @property
    def zero(self) -> tuple[float, float]:
        return 0.0, (1.0 if 1.0 < self.d_b else self.d_b)

    def point(self, mu: float) -> tuple[float, float]:
        """(x*, min(d_b, 1 + x*)), argmax's point without its value.

        x* = min(d_a, sqrt((1 + d_b)^2 + 4 tau_b d_b n_th / mu)), d_a at mu = 0.
        """
        x = self.d_a
        if mu > 0.0:
            x = min(x, math.sqrt(self.x_sq + self.x_sq_mu / mu))
        c_b = 1.0 + x
        return x, (c_b if c_b < self.d_b else self.d_b)  # min(d_b, 1 + x), bit for bit

    def argmax(self, mu: float) -> tuple[tuple[float, float], float]:
        """(point(mu), value there)."""
        point = self.point(mu)
        return point, self.value(*point, mu)

    def value(self, c_a: float, c_b: float, mu: float) -> float:
        s = 1.0 + c_a + c_b
        q = s * s
        # t^2 and the added noise, times s^2
        tq = self.four_tau_b * c_b * self.tau * c_a
        nq = self.four_tau_b * c_b * self.n_th
        if self.sh2 is None:
            return -_ratio(mu * q + nq, tq)
        return _ratio(self.sh2 * (tq - nq - mu * q), tq * self.sh2 + nq + mu * q)


class _BlueNode:
    """An IO or IM source on its stability face, in the node-local condition.

    Its axis is its red-pumped side v, and its blue-pumped side u sits
    at the face (_stable_bound); its point is the face point as (C_a,
    C_b), and zero is the one at v = 0.  Times d^2, d = 1 + v - u, its
    h is (4 tau_a tau_b u v - mu a~) / (b~ + mu d^2), with a~ = 4 tau_a
    u (v + n + 1) and b~ = 4 tau_b v (u + n) for IO, and a~ = 4 tau_a v
    (u + n) and b~ = 4 tau_b u (v + n + 1) for IM.  The face is the least of
    the two stability lines, less STRICT_MARGIN, and the cap, so on each
    piece between their crossings u is linear in v, and h is a ratio of
    polynomials of degree <= 2.

    A node depends on its kind, the caps and n_th alone, not on a
    cell's tau_e, r or split, so _NodeRoot takes it from _blue_node,
    which keeps it on the caps object.  Nothing changes it after
    __init__.
    """

    def __init__(self, kind: MoKind, caps: DeviceCaps, n_th: float):
        self.io, self.caps = kind is _IO, caps
        self.n_th = n_th
        self.ta, self.tb, self.tab = 4.0 * caps.tau_a, 4.0 * caps.tau_b, 4.0 * caps.tau_a * caps.tau_b
        d_red, d_blue = (caps.d_b, caps.d_a) if self.io else (caps.d_a, caps.d_b)
        lines = [(s, c - STRICT_MARGIN) for s, c in _blue_bound_lines(caps.rates, self.io)]
        lines.append((0.0, d_blue))
        cuts = {0.0, d_red}
        for (s1, c1), (s2, c2) in itertools.combinations(lines, 2):
            if s1 != s2 and 0.0 < (c2 - c1) / (s1 - s2) < d_red:
                cuts.add((c2 - c1) / (s1 - s2))
        cuts = sorted(cuts)
        self.ends = tuple(self.state(v) for v in cuts)
        self.zero = self.ends[0][0]
        pieces = []
        for lo, hi in zip(cuts, cuts[1:]):
            s, c = min(lines, key=lambda line: line[0] * 0.5 * (lo + hi) + line[1])
            pieces.append((lo, hi, *self._coefficients(s, c)))
        self.pieces = tuple(pieces)

    def _factors(self, v, u):
        """The factors (v u, a~ / 4 tau_a, b~ / 4 tau_b), of numbers or of polynomials in v."""
        n = self.n_th
        if isinstance(v, tuple):
            vu, shift = _times(v, u), lambda p, k: (p[0] + k, p[1])
            u_vn1, v_un = _times(u, shift(v, n + 1.0)), _times(v, shift(u, n))
        else:
            vu, u_vn1, v_un = v * u, u * (v + n + 1.0), v * (u + n)
        return (vu, u_vn1, v_un) if self.io else (vu, v_un, u_vn1)

    def _coefficients(self, s: float, c: float):
        """h's numerator and denominator on the piece u = s v + c: (N0, N1, D0, D1), N = N0 + mu N1."""
        vu, xa, xb = self._factors((0.0, 1.0), (c, s))
        return (
            tuple(self.tab * k for k in vu),
            tuple(-self.ta * k for k in xa),
            tuple(self.tb * k for k in xb),
            _times((1.0 - c, 1.0 - s), (1.0 - c, 1.0 - s)),
        )

    def state(self, v: float):
        """(point, 4 tau_a tau_b u v, a~, b~, d^2) at the face point of red side v.

        point is that face point as (C_a, C_b): (u, v) for IO, (v, u) for
        IM, u bit for bit as in _layout_coords.
        """
        u = _stable_bound(self.caps, v, self.io)
        d = 1.0 + v - u
        vu, xa, xb = self._factors(v, u)
        return (u, v) if self.io else (v, u), self.tab * vu, self.ta * xa, self.tb * xb, d * d

    @staticmethod
    def h(state, mu: float) -> float:
        _, p, a, b, w = state
        return _ratio(p - mu * a, b + mu * w)

    def argmax(self, mu: float) -> tuple[tuple[float, float], float]:
        """(face point, h) at the best of the piece ends and the local maxima inside the pieces.

        On a piece h = N / D with D > 0, so h' has the sign of N'D - ND',
        a polynomial of degree <= 2, and h has a local maximum inside the
        piece only where that polynomial falls through 0 (_falling_root).
        Ties keep the first maximum, ends before roots.
        """
        best = value = None
        for st in self.ends:
            h = self.h(st, mu)
            if best is None or h > value:
                best, value = st, h
        for lo, hi, (n00, n01, n02), (n10, n11, n12), (d00, d01, d02), (d10, d11, d12) in self.pieces:
            n0, n1, n2 = n00 + mu * n10, n01 + mu * n11, n02 + mu * n12
            d0, d1, d2 = d00 + mu * d10, d01 + mu * d11, d02 + mu * d12
            v = _falling_root(n2 * d1 - n1 * d2, 2.0 * (n2 * d0 - n0 * d2), n1 * d0 - n0 * d1)
            if v is not None and lo < v < hi:
                st = self.state(v)
                h = self.h(st, mu)
                if h > value:
                    best, value = st, h
        return best[0], value

    def point(self, mu: float) -> tuple[float, float]:
        """argmax's face point alone."""
        return self.argmax(mu)[0]


def _blue_node(kind: MoKind, caps: DeviceCaps, n_th: float) -> _BlueNode:
    """_BlueNode(kind, caps, n_th), kept on caps for kind until a call with another n_th object.

    The memo (caps._nodes) is keyed on the objects themselves, so a hit
    is the node a miss would build, whatever the numbers' types or the
    signs of their zeros.
    """
    node = caps._nodes.get(kind)
    if node is None or node.n_th is not n_th:
        node = caps._nodes[kind] = _BlueNode(kind, caps, n_th)
    return node


class _EmNode:
    """An EM source in the node-local condition; both of its axes stay open.

    Its h is 4 tau_a C_a (kappa C_b - n_th) / (1 + C_a + C_b)^2, with
    kappa = tau_b sh^2 (1 - mu) / (sh^2 + mu), sh = sinh r, and it is best
    at one of three points (optimize_cooperativities).  At r = 0 kappa is
    0, and (0, 0) is best at every mu.  Its point is (C_a, C_b).
    """

    zero = (0.0, 0.0)

    def __init__(self, caps: DeviceCaps, n_th: float, sh2: float):
        self.d_a, self.d_b, self.n_th, self.sh2 = caps.d_a, caps.d_b, n_th, sh2
        self.four_tau_a, self.tau_b_sh2 = 4.0 * caps.tau_a, caps.tau_b * sh2

    def kappa(self, mu: float) -> float:
        return self.tau_b_sh2 * (1.0 - mu) / (self.sh2 + mu) if self.sh2 > 0.0 else 0.0

    def h(self, c_a: float, c_b: float, kappa: float) -> float:
        s = 1.0 + c_a + c_b
        return self.four_tau_a * c_a * (kappa * c_b - self.n_th) / (s * s)

    def argmax(self, mu: float) -> tuple[tuple[float, float], float]:
        """((C_a, C_b), h) at the first best of (0, 0), (min(d_a, 1 + d_b), d_b)
        and (d_a, min(d_b, 1 + d_a + 2 n_th / kappa))."""
        kappa = self.kappa(mu)
        best, value = (0.0, 0.0), 0.0
        if kappa > 0.0:
            d_a, d_b = self.d_a, self.d_b
            for point in ((min(d_a, 1.0 + d_b), d_b),
                          (d_a, min(d_b, 1.0 + d_a + 2.0 * self.n_th / kappa))):
                h = self.h(*point, kappa)
                if h > value:
                    best, value = point, h
        return best, value

    def point(self, mu: float) -> tuple[float, float]:
        """argmax's point alone."""
        return self.argmax(mu)[0]


def _source_node(kind: MoKind, caps: DeviceCaps, n_th: float, sh2: float, tau: float):
    """The node of a source: a converter node for EO (tau in front of its
    converter), an _EmNode for EM, the kept _blue_node for IO and IM."""
    if kind is _EO:
        return _ConverterNode(caps, tau, n_th, sh2)
    return _EmNode(caps, n_th, sh2) if kind is _EM else _blue_node(kind, caps, n_th)


class _NodeRoot:
    """The best point of a cell, by the node-local condition.

    The margin exceeds mu > 0 iff w_1 v_1 + w_2 v_2 > offset, where v_i
    is node i's value at mu: a swap has w = (t_1, t_2), offset 1 and v =
    h; a downconversion w = (1, 1), offset 0, v_1 = h of the source and
    v_2 = -g of the downconverter (optimize_cooperativities).  Each node
    maximises its value alone (argmax, which returns the node's (C_a,
    C_b), pins applied), so a point is the cooperativity 4-tuple.  A
    symmetric swap holds one node (second is first), whose best point
    and value serve both.  Only the test at mu = 0 reads the values;
    an ascent step reads the 4-tuple alone (point), which a converter
    node computes without its value.  A symmetric swap's 4-tuple holds
    node 1's point twice, the same objects, so its margin evaluates
    one source state (network._mm_excess).

    of builds one per cell: its converter and EM nodes and its weights
    depend on the cell's r and split, while its IO and IM nodes come
    from _blue_node, kept on the caps object for each kind.
    The root keeps the cell, so its margin evaluates _mm_excess at a
    4-tuple directly, with no layout map.
    """

    __slots__ = ("t", "caps", "n_th", "r", "split", "first", "second", "w1", "w2", "offset")

    def __init__(self, t, caps, n_th, r, split, first, second, w1, w2, offset):
        self.t, self.caps, self.n_th, self.r, self.split = t, caps, n_th, r, split
        self.first, self.second, self.w1, self.w2, self.offset = first, second, w1, w2, offset

    @classmethod
    def of(cls, t, caps: DeviceCaps, n_th: float, r: float, split) -> "_NodeRoot":
        sh2 = math.sinh(r) ** 2
        cell = (t, caps, n_th, r, split)
        if t.scheme == "down":
            first = _source_node(t.kinds[0], caps, n_th, sh2, caps.tau_a * split[0])
            second = _ConverterNode(caps, caps.tau_a * split[-1], n_th)
            return cls(*cell, first, second, 1.0, 1.0, 0.0)
        # a third slot is the EO state's pre-downconversion mode
        tau = caps.tau_a * split[2] if len(split) == 3 else caps.tau_a
        first = _source_node(t.kinds[0], caps, n_th, sh2, tau)
        second = first if t.is_symmetric else _source_node(t.kinds[1], caps, n_th, sh2, tau)
        return cls(*cell, first, second, split[0], split[1], 1.0)

    def argmax(self, mu: float) -> tuple[tuple[float, float, float, float], float]:
        """The best 4-tuple at mu, and w_1 v_1 + w_2 v_2 - offset there."""
        first, second = self.first, self.second
        x1, v1 = first.argmax(mu)
        x2, v2 = (x1, v1) if second is first else second.argmax(mu)
        return x1 + x2, self.w1 * v1 + self.w2 * v2 - self.offset

    def point(self, mu: float) -> tuple[float, float, float, float]:
        """argmax's 4-tuple alone, from each node's point: all that a step reads."""
        x1 = self.first.point(mu)
        return x1 + (x1 if self.second is self.first else self.second.point(mu))

    def margin(self, cs) -> float:
        """The margin (1/2 - nu) at the cooperativity 4-tuple cs."""
        return _margin_of_excess(_mm_excess(self.t, self.caps, self.n_th, self.r, cs, self.split))

    def solve(self) -> tuple[tuple[float, float, float, float], float]:
        """The best 4-tuple of the cell and its margin (see optimize_cooperativities).

        Where the condition fails at mu = 0 no point entangles, and the
        point with every axis at 0 (each node's zero), where no node
        correlates, is returned with a margin of 0, no margin evaluated.
        Otherwise each step moves to the best point at the margin of the
        last, while that raises the margin (_ascend).
        """
        cs, excess = self.argmax(0.0)
        if not excess > 0.0:
            return self.first.zero + self.second.zero, 0.0
        return _ascend(cs, self.margin, self.point)


@dataclass(frozen=True)
class _CooperativityBox:
    """The problem of optimize_cooperativities, inputs checked.

    margin is the margin over the box [0, hi], -inf where a source is
    unstable, in the layout (_layout_coords) of one transducer when
    mirrored, else of both: a converter node (_converter_nodes) has only
    its C_a axis, an IO or IM source only its red-pumped side, and an EM
    source both.  A symmetric swap at any split and down(EO) at a
    uniform one are mirrored (the diagonal of optimize_cooperativities).
    nodes pairs each node's kind (None for a downconverter) with its
    layout code.  full maps a point of the box to the cooperativity
    4-tuple; hi is the clamped all-max corner.  The layout is the box's
    alone: optimize_cooperativities builds no box and no layout.
    root() builds the cell's _NodeRoot: root().solve() is the 4-tuple
    and margin that optimize_cooperativities returns.  The box is
    the oracle of the root: full is the oracle of its pins (the 4-tuple
    is full at that point's axes, and margin there is the root's, bit
    for bit), and search, which production code does not call, of its
    value; the validate checks and the tests compare them.
    """

    caps: DeviceCaps
    nodes: tuple
    margin: Callable
    full: Callable
    hi: list[float]
    mirrored: bool
    root: Callable[[], _NodeRoot]

    @classmethod
    def of(cls, t, caps, n_th, r, tau_e=1.0, loss_split=None) -> "_CooperativityBox":
        """Check the inputs as optimize_cooperativities does and build its box."""
        rv, split = _checked_cell(t, n_th, r, tau_e, loss_split)
        mirrored = t.is_symmetric and (t.scheme == "swap" or (t.kinds[0] is _EO and split[0] == split[1]))
        axes = _converter_nodes(t)[: 1 if mirrored else 2]
        margin = (_margin_fn if mirrored else _margin_fn4)(t, caps, n_th, rv, split, pin_cb=True)
        hi = [(caps.d_a, caps.d_b)[j] for k in axes for j in _NODE_AXES[k]]
        full = _layout_coords(caps, axes)
        nodes = tuple(zip(t.kinds if t.scheme == "swap" else (t.kinds[0], None), axes))
        root = functools.partial(_NodeRoot.of, t, caps, n_th, rv, split)
        return cls(caps, nodes, margin, full, hi, mirrored, root)

    def search(self, n_starts: int, nm_max_iter: int) -> tuple[list[float], float]:
        """Nelder-Mead from the n_starts best of the ranked pool, then a polish.

        The pool's corners are each node's corner candidates cut to its
        axes, at most 3 per node when both nodes are searched.  Runs
        nm_max_iter * dim // 2 iterations per start in dim dimensions
        (nm_max_iter in 2-D).  Returns the best point of the box and its
        margin.
        """
        caps, most = self.caps, (None if self.mirrored else 3)
        per_node = []
        # each node's distinct candidates, cut to its axes; the downconverter's one is its caps
        for kind, k in self.nodes:
            pairs = [(caps.d_a, caps.d_b)] if kind is None else _corner_candidates(kind, caps)
            cut = (tuple(pair[j] for j in _NODE_AXES[k]) for pair in pairs)
            per_node.append(list(dict.fromkeys(cut))[:most])
        corners = [sum(point, ()) for point in itertools.product(*per_node)]
        starts = _ranked_starts(self.margin, self.hi, corners, n_starts)
        return maximize_box(
            self.margin, [0.0] * len(self.hi), self.hi, starts,
            nm_max_iter=nm_max_iter * len(self.hi) // 2,
        )


def _checked_cell(t: Topology, n_th: float, r, tau_e: float, loss_split):
    """(r, split) of a cell, n_th, r and the split checked in that order.

    optimize_cooperativities and the oracle _CooperativityBox.of both
    check a cell here, so they raise the same errors.
    """
    _check_fields(n_th)
    return _as_r(r), _resolve_split(t, tau_e, loss_split)


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

    Nothing is searched: the cell is solved node by node (_NodeRoot), as
    proven below.  A node is one transducer's source or the
    downconverter of a downconversion, and it finds its best point
    alone.  A converter node, a red-red converter whose output is a
    final microwave mode (the converter inside an EO source, and the
    downconverter), moves only C_a, its C_b pinned at min(d_b, 1 +
    C_a); an IO or IM source moves only its red-pumped side, its
    blue-pumped side pinned at its stable bound (_stable_bound); both
    pins are exact, as shown below.  Only an EM source moves both.  A
    symmetric swap's two transducers share one node, at any split (the
    diagonal, below).  A call builds only what its solve reads: it
    checks its inputs (_checked_cell), builds the cell's _NodeRoot and
    tests the condition at mu = 0 first; where that fails it returns
    0.0 at once, and only a cell that then ascends evaluates its margin,
    _mm_excess at the 4-tuple that the nodes return (_NodeRoot.margin).
    A step asks the nodes for their points alone (_NodeRoot.point), and
    a symmetric swap's margin evaluates its one source state once.
    The IO and IM nodes are kept on the caps object (_blue_node).
    n_starts and nm_max_iter are inert: they were the budget of the
    search that the node-local root replaced, and they are still
    checked and accepted only because callers pass them (the
    benchmark's warm-up,
    perfbench/workloads.py:DeviceSweep.warm_up); they select nothing.
    loss_split is checked as in NetworkConfig (one share per slot,
    multiplying to tau_e, each in [tau_e, 1]); ValueError otherwise, for
    n_th outside DeviceCaps's domain (finite and >= 0), and unless
    n_starts is an integer >= 1 and nm_max_iter an integer >= 0.
    Returns the full cooperativity 4-tuple and the achieved logarithmic
    negativity.

    The converter pin is exact.  In the excess form of
    network._mm_excess a converter maps the mode it converts as A ->
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
    that is measured or downconverted, so its C_b stays an axis.

    The blue pin is exact too.  Call C_+ the blue-pumped side of an IO
    or IM source (IO's C_a, IM's C_b) and C_- the other.  The margin m
    is the larger root of m^2 + S m + P = 0 (_margin_of_excess), S = A
    + B and P being the final state's; for a swap, multiply through by
    den = 1 + A1 + A2 first, which leaves a quadratic in m with a
    positive leading coefficient.  After its loss share, the source's
    (A, B, P) are w (a, b, p), where w = 1/d^2, d = 1 + C_- - C_+ > 0
    on the stable side, rises with C_+, and a, b and p are affine in
    C_+, with nonnegative intercepts: only 4 tau_b C_b n_th (in b) for
    IO and only 4 tau_a C_a n_th (in a) for IM.  At fixed other nodes
    the equation reads Q = C0(m) + w F(m, C_+) = 0, F affine in C_+.  A
    downconversion has C0 = m^2 + M m, M >= 0 the downconverter's
    added noise; a swap has C0 = m (m (1 + A_o) + B_o + P_o), o the
    other node; C0 >= 0 for m >= 0, since every physical balanced
    state has P >= -min(A, B).  At C_+ = 0, p and one of a and b vanish,
    and F(m, 0) >= 0 for m >= 0 in all four cases.  So at a root m >
    0, F = -C0 / w <= 0, hence dF/dC_+ = (F - F(m, 0)) / C_+ <= 0, and
    dm/dC_+ = -(w' F + w dF/dC_+) / (dQ/dm) >= 0, dQ/dm being >= 0 at
    the larger root.  The margin thus never falls along the blue axis
    where it is positive, and the best point of the stable interval [0,
    bound) within the cap is its largest float: _stable_bound at C_-.
    Pinning one node and then the other gives the same for two sources.
    A separable margin may fall instead, which changes no returned value.

    The diagonal is exact: a symmetric swap at any split (t_1, t_2) is
    best with both nodes at the same cooperativities.  Write a node's
    state before its share as (a, b, g, p), p = a b - g^2, so that after
    it A_i = t_i a_i, c_i = sqrt(t_i) g_i and P_i = t_i p_i.  The margin
    of a final state (A, B, c) is the larger eigenvalue of [[-A, c], [c,
    -B]], which the EPR update makes -diag(B_1, B_2) + w w^T / den, with
    w = (c_1, -c_2) and den = 1 + A_1 + A_2 > 0.  So the margin exceeds
    mu > 0 iff (|c_1| z_1 + |c_2| z_2)^2 / den > (B_1 + mu) z_1^2 + (B_2
    + mu) z_2^2 for some z != 0.  Write u^2 / den as the maximum over l
    of 2 l u - l^2 den and maximize each z_i alone (at z_i = l |c_i| /
    (B_i + mu)): the condition becomes t_1 h_1 + t_2 h_2 > 1, where h_i
    = -(p_i + mu a_i) / (b_i + mu) depends on node i's cooperativities
    alone.  The two nodes of a symmetric swap range over the same set
    with the same h, so the sum is at most S sup h, S = t_1 + t_2, and
    diagonal points come arbitrarily close: wherever some point has a
    margin above mu, so does a diagonal one.  The pins act node by node,
    so the same holds on the pinned layouts.  Only S enters, and a
    larger S can only raise the best margin (the condition needs sup h
    > 0), so at t_1 t_2 = tau_e the best split maximizes S = t_1 + tau_e
    / t_1, convex on [tau_e, 1]: an end, all the loss on one measured
    arm, as network.default_loss_split places it.

    The node-local root.  Every cell is solved node by node.  A swap's
    margin exceeds mu > 0 iff t_1 h_1 + t_2 h_2 > 1 (the diagonal,
    above).  A downconversion's final state is (B0, t^2
    A0 + m, t c0, .), where (A0, B0, c0, P0) is the source's state and
    (t, m) the downconverter's transmission and added noise, so its
    margin, the larger eigenvalue of [[-B0, t c0], [t c0, -(t^2 A0 +
    m)]], whose diagonal is < 0, exceeds mu iff (B0 + mu)(t^2 A0 + m +
    mu) < t^2 c0^2, that is iff g < h_0.  Here h_0 = -(P0 + mu A0) / (B0
    + mu) is the source's h, and g = (mu + m) / t^2 = n_th / (tau' C_a2)
    + mu s^2 / (4 tau' tau_b C_a2 C_b2), s = 1 + C_a2 + C_b2, is the
    downconverter's alone.  Each node thus enters through one value, so
    the best point at mu is each node's own best: the largest h of a
    source, the least g of the downconverter.  h falls as mu grows
    (dh/dmu = -g_i^2 / (b_i + mu)^2) and g rises, so the condition holds
    on an interval (0, m*), and m* is the best margin.
    Each node's best point at mu has a closed form or a short list of
    candidates.  The least g of a converter: on C_b = d_b, 4 tau' tau_b
    d_b g = 4 tau_b d_b n_th / x + mu (1 + d_b + x)^2 / x with x = C_a,
    whose derivative has the sign of mu (x^2 - (1 + d_b)^2) - 4 tau_b d_b
    n_th; on C_b = 1 + x (x <= d_b - 1), g = (n_th + mu / tau_b) / (tau'
    x) + mu / (tau' tau_b), which falls.  So g is least at x* = min(d_a,
    sqrt((1 + d_b)^2 + 4 tau_b d_b n_th / mu)), d_a at mu = 0, and it does
    not depend on tau'.  An EO source has h = 1 - X ch^2 / (T sh^2 + X),
    X = T nu + mu (optimize_loss_split), which rises as X / T falls, and
    X / T is g with its own tau': its best point is the same x*, so
    down(EO)'s two nodes reach the same point at any split.  An IO
    or IM source sits on its face, the least of the two stability lines
    (less STRICT_MARGIN) and its cap, so on each piece between their
    crossings its blue side is linear in its red side v.  Times d^2, h
    is a ratio N / D of polynomials of degree <= 2 in v with D > 0
    (_BlueNode), so h' has the sign of N'D - ND', of degree <= 2, and h
    has a local maximum inside a piece only where that falls through 0.
    The largest h is thus at a piece end or at one such root per piece
    (_falling_root); a root need not be exact, since h is flat there.
    An EM source, the mirror of EO (sources), has a = T (nu + sh^2), b =
    sh^2 and p = T sh^2 (nu - 1), with T = 4 tau_a tau_b C_a C_b / s^2, s
    = 1 + C_a + C_b and nu = n_th / (tau_b C_b), so h = 4 tau_a C_a (kappa
    C_b - n_th) / s^2 with kappa = tau_b sh^2 (1 - mu) / (sh^2 + mu) > 0
    (mu < 1; every margin is below 1/2).  Where h > 0 its partial
    derivatives have the signs of 1 + C_b - C_a in C_a and of kappa (1 +
    C_a - C_b) + 2 n_th in C_b.  The first vanishes only on C_a = 1 +
    C_b, where the second is 2 kappa + 2 n_th > 0, so h has no stationary
    point inside the box where it is positive.  h is 0 on C_a = 0 and <=
    0 on C_b = 0, so a positive maximum lies on the edge C_b = d_b or C_a
    = d_a; along each, h rises up to the zero of its partial derivative
    and falls beyond.  The best point is thus the first best of (0, 0),
    where h = 0, (min(d_a, 1 + d_b), d_b) and (d_a, min(d_b, 1 + d_a + 2
    n_th / kappa)) (_EmNode).  At r = 0, sh = 0: the source has B = c =
    0 and correlates nothing, h = -4 tau_a C_a n_th / s^2 <= 0, and (0, 0)
    is best at every mu.
    The condition at mu = 0 decides whether any point entangles.  A
    point of margin m > 0 meets it at every mu in (0, m), hence at mu =
    0, where each h is no lower and g no higher; where the best point
    at mu = 0 meets it, so does that point at some small mu > 0.  At mu
    = 0 it is the sign of the output defect P, which factorises over
    the nodes through each source's ratio rho = P/B after its loss
    share, rho_i = -t_i h_i: a swap entangles iff 1 + rho_1 + rho_2 <
    0, a downconversion iff rho_0 + n_th / (tau' C_a2) < 0, and a node
    with B = 0 also has c = 0, so it cannot entangle.  An EM source's
    best point at mu = 0 is its own, above, with kappa = tau_b.  Every
    other rho is smallest at the clamped all-max corner: EO has rho =
    sh^2 (n - tau' C_a) / (n + tau' C_a sh^2), IO rho = -tau_a C_a /
    (C_a + n) at the largest stable C_a, which is at C_b = d_b, and IM
    rho = -tau_a C_a / (C_a + n + 1); all three fall as C_a grows and do not depend on
    C_b, so each node's best point at mu = 0 is that corner.  Where the
    condition fails there, the point with every axis at 0 is returned
    with 0.0: no node correlates there, so its margin is <= 0 (without
    rounding for an EO node, whose converter then transmits nothing),
    even where the corner's margin rounds above 0 (an EO swap at share
    1/2, where it is 0).  A cell with an EM source at r = 0 fails the
    condition at mu = 0 and returns that point too: its EM node's best
    h is 0, at (0, 0), and the other node alone cannot entangle.
    Otherwise each step takes the best point at mu_k, the margin of the
    last point: its margin is above mu_k unless mu_k >= m*, so the
    margins rise to m*, superlinearly as in Dinkelbach's method for
    fractional programs, and reach it in one step where the best point
    is a piece end.  The steps stop once the margin no longer rises, or
    once a step returns the point it started from, whose margin is
    known, after 1 to 10 on default device-run (5 to 7 on most cells),
    and the returned value is the margin at the returned point.
    """
    if type(n_starts) is not int or n_starts < 1:
        raise ValueError(f"n_starts must be an integer >= 1, got {n_starts!r}")
    if type(nm_max_iter) is not int or nm_max_iter < 0:
        raise ValueError(f"nm_max_iter must be an integer >= 0, got {nm_max_iter!r}")
    rv, split = _checked_cell(t, n_th, r, tau_e, loss_split)
    cs, m = _NodeRoot.of(t, caps, n_th, rv, split).solve()
    return cs, _log2_negativity(m)


def optimize_loss_split(
    t: Topology,
    caps: DeviceCaps,
    n_th: float,
    r: SqueezeParam | float = 0.0,
    tau_e: float = 1.0,
) -> tuple[tuple[float, ...], float]:
    """Best distribution of external optical loss over a topology's slots.

    Returns the split, as Python floats, and the logarithmic negativity
    there, which is optimize_cooperativities's at that split, bit for
    bit.  A downconversion or a symmetric swap takes
    network.default_loss_split: equal shares for down(EO), everything on
    one measured arm for a symmetric swap (the diagonal in
    optimize_cooperativities proves it).  A 2-slot asymmetric swap takes
    the better of its two ends, (tau_e, 1) and (1, tau_e), the first on
    a tie.  A 3-slot one, an asymmetric swap whose EO node (node 1) has
    a third share t_3 in front of its converter, is best on the edge
    (tau_e / t_3, 1, t_3), t_3 in [tau_e, 1], at the t_3 that the ascent
    below reaches; where no split of the edge entangles it returns (1,
    1, tau_e), all the loss in front of the converter, with 0.0.
    Nothing is searched.

    The proof.  The diagonal proof in optimize_cooperativities holds for
    any swap: the margin exceeds mu > 0 iff t_1 h_1 + t_2 h_2 > 1, where
    h_i depends only on node i's state before its measured share t_i.
    Fix both nodes' cooperativities and mu, and let t_1 t_2 = q.  On t_1
    in [q, 1], f = t_1 h_1 + (q / t_1) h_2 is convex where h_2 >= 0,
    rises where h_2 < 0 <= h_1, and stays below 0 < 1 where both are
    negative, so wherever f exceeds 1 it does so at t_1 = q or t_1 = 1.
    Any margin above mu at some split is thus reached at an end with the
    same cooperativities, and the best margin over all splits, and with
    it the negativity, is the better end's.  A 2-slot swap has q =
    tau_e.  In a 3-slot swap t_3 enters only the EO node's state before
    its measured share, so at a fixed t_3 the same holds with q = tau_e
    / t_3: the optimum lies on the edge above or on (1, u, t_3), u =
    tau_e / t_3.  That second edge never beats its end (1, 1, tau_e).
    Write T = 4 tau_a tau_b C_a C_b / (1 + C_a + C_b)^2, nu = n_th /
    (tau_a C_a) and sh = sinh r, ch = cosh r.  The loss t_3 scales the
    converter's input, so before its measured share the EO node has a =
    sh^2, b = T (t_3 sh^2 + nu) and p = T sh^2 (nu - t_3), and with X =
    T nu + mu > 0, h_1 = 1 - X ch^2 / (T t_3 sh^2 + X) < 1.  So h_1 + u
    h_2 > 1 needs h_2 > X ch^2 / (T tau_e sh^2 + u X), no less than the
    X ch^2 / (T tau_e sh^2 + X) that (1, 1, tau_e) needs, since u <= 1.

    The edge kept.  On it the condition reads F(t_3) + h_2 > 1, where F
    = (tau_e / t_3) h_1 = tau_e sh^2 (T t_3 - X) / (t_3 (T sh^2 t_3 +
    X)), since ch^2 - 1 = sh^2.  F' has the sign of X^2 + 2 T X sh^2 t_3
    - T^2 sh^2 t_3^2, which is positive at t_3 = 0 and has one positive
    root, T t_3 = X (1 + coth r) (as sqrt(sh^2 (sh^2 + 1)) = sh ch).  So
    F rises up to t_3* = (X / T)(1 + coth r) = (n_th / (tau_a C_a) + mu
    / T)(1 + coth r) and falls beyond: its one peak on the edge is t_3*
    clipped to [tau_e, 1], and it may be interior (IM+EO).  h_2 does not
    depend on t_3, and at every t_3 h_1 rises as X / T falls, so the EO
    node's best C_a at mu is the x* of optimize_cooperativities whatever
    t_3, and X / T there is the least g of a converter with tau' =
    tau_a.  The best point at mu of the split and the cooperativities
    together is thus t_3*(mu) at x*(mu), with each node at its own
    best.  The ascent is that of _NodeRoot.solve, on the split too, and
    there is one: a point is (t_3, the cooperativity 4-tuple).  At mu =
    0 the condition at t_3*(0) decides whether any split of the edge
    entangles; then each step moves to t_3*(mu_k) and the nodes' best
    4-tuple at that split and mu_k, mu_k the margin of the last point,
    which is one _mm_excess evaluation (_NodeRoot.margin), and the steps
    stop once it no longer rises (_ascend).  One _NodeRoot.solve at the
    split reached then gives the returned value, so that it is
    optimize_cooperativities's there.  At r = 0, F = 0 and no split
    entangles.
    """
    _check_loss_split(tau_e)
    # Python floats, as default_loss_split returns: a numpy tau_e would
    # make numpy shares
    tau_e = float(tau_e)

    def e_at(split) -> float:
        return optimize_cooperativities(t, caps, n_th, r, tau_e=tau_e, loss_split=split)[1]

    if t.is_symmetric:
        split = default_loss_split(t, tau_e)
        return split, e_at(split)
    if loss_slot_count(t) == 2:
        return max(((s, e_at(s)) for s in ((tau_e, 1.0), (1.0, tau_e))), key=operator.itemgetter(1))
    rv = _as_r(r)
    _check_fields(n_th)
    converter = _ConverterNode(caps, caps.tau_a, n_th)
    lead = 1.0 + 1.0 / math.tanh(rv) if rv > 0.0 else 0.0

    @functools.cache
    def root(t3: float) -> _NodeRoot:
        """The root at the split (tau_e / t3, 1, t3), built once per t3: best_at's
        serves the margin of its point and, at the split reached, the solve."""
        return _NodeRoot.of(t, caps, n_th, rv, (tau_e / t3, 1.0, t3))

    def best_at(mu: float):
        """(t_3*(mu) at x*(mu), clipped to [tau_e, 1], and the best 4-tuple at
        that split and mu); t_3 is tau_e at r = 0 (0 times g, or NaN)."""
        t3 = float(-converter.argmax(mu)[1] * lead)
        t3 = min(1.0, t3) if t3 > tau_e else tau_e
        return t3, root(t3).point(mu)

    t3, cs = best_at(0.0)
    m = root(t3).argmax(0.0)[1]
    if m > 0.0:  # the condition at mu = 0: some split of the edge entangles
        (t3, _), m = _ascend((t3, cs), lambda point: root(point[0]).margin(point[1]), best_at)
    if not m > 0.0:
        t3 = tau_e
    return (tau_e / t3, 1.0, t3), _log2_negativity(root(t3).solve()[1])
