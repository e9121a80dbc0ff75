import math
import random

import pytest

from gausslink.optimize import _F_TOL, _POLISH_WIDTH, _nelder_mead, maximize_box

from conftest import golden_max_1d


def _bumpy(x):
    """Several local maxima over the box, none at a corner."""
    return sum(math.sin(3.0 * v + i) * math.cos(2.0 * v * v) for i, v in enumerate(x))


BOXES = [
    ([0.0, 0.0], [1.0, 1.0]),
    ([0.0, 2.0], [1.0, 2.0]),
    ([-3.0, 0.5], [-1.0, 0.5000001]),
    ([-2.0, -1e-3, 1e-3], [5.0, 1e-3, 2.0]),
    ([0.0, 0.0, 0.0, 0.0], [26000.0, 124.0, 26000.0, 124.0]),
]


@pytest.mark.parametrize("lo, hi", BOXES)
@pytest.mark.parametrize("polish", [True, False])
def test_every_probe_lies_in_the_box(lo, hi, polish):
    seen = []

    def f(x):
        seen.append(list(x))
        return _bumpy(x)

    # starts outside the box are projected before their first evaluation
    outside = [[l - 1.0 for l in lo], [h + 1.0 for h in hi]]
    interior = [[l + u * (h - l) for l, h in zip(lo, hi)] for u in (0.2, 0.4, 0.6, 0.8)]
    x, v = maximize_box(f, lo, hi, outside + interior, nm_max_iter=60, polish=polish)
    assert len(seen) > 50
    for probe in seen + [x]:
        assert all(l <= p <= h for p, l, h in zip(probe, lo, hi)), probe
    assert v == _bumpy(x)


@pytest.mark.parametrize("lo, hi", BOXES)
@pytest.mark.parametrize("polish", [True, False])
def test_never_below_the_best_start(lo, hi, polish):
    dim = len(lo)
    starts = [
        [l + (h - l) * ((0.37 * (k + 1) + 0.21 * i) % 1.0) for i, (l, h) in enumerate(zip(lo, hi))]
        for k in range(5)
    ]
    best_start = max(_bumpy(s) for s in starts)
    # two iterations leave the simplex far from converged, so the floor binds
    x, v = maximize_box(_bumpy, lo, hi, starts, nm_max_iter=2, polish=polish)
    assert v >= best_start
    assert v == _bumpy(x) and len(x) == dim


@pytest.mark.parametrize("lo, hi", BOXES)
def test_evaluates_only_what_its_starts_imply(lo, hi):
    # each start costs an initial simplex of dim + 1 points, the start being
    # its first vertex and evaluated once; without iterations or polish
    # nothing else is evaluated
    seen = []

    def f(x):
        seen.append(list(x))
        return _bumpy(x)

    starts = [list(lo), list(hi), [0.5 * (l + h) for l, h in zip(lo, hi)]]
    maximize_box(f, lo, hi, starts, nm_max_iter=0, polish=False)
    assert len(seen) == len(starts) * (len(lo) + 1)


def test_peak_on_a_cliff_inside_the_polish_bracket():
    # the peak (0.7, 0.4) is the last feasible point along x: every probe
    # past it is rejected, and Nelder-Mead alone stops about 1e-11 short
    cliff, peak_y = 0.7, 0.4

    def f(x):
        if x[0] > cliff:
            return -math.inf
        return 1.0 - (x[0] - cliff) ** 2 - (x[1] - peak_y) ** 2

    for starts in ([[0.1, 0.9]], [[0.2, 0.2]], [[0.69, 0.41]]):
        x, v = maximize_box(f, [0.0, 0.0], [1.0, 1.0], starts)
        assert v == pytest.approx(1.0, rel=1e-12)
        assert cliff - _POLISH_WIDTH < x[0] <= cliff
        assert abs(x[1] - peak_y) < _POLISH_WIDTH


BAD_BOUNDS = [
    (math.nan, 1.0),
    (0.0, math.nan),
    (1.0, 0.0),
    (-math.inf, 1.0),
    (0.0, math.inf),
]


@pytest.mark.parametrize("lo, hi", BAD_BOUNDS)
def test_golden_rejects_a_bad_bracket(lo, hi):
    with pytest.raises(ValueError, match="box bounds must be finite with lo <= hi"):
        golden_max_1d(lambda v: -v * v, lo, hi)


@pytest.mark.parametrize("lo, hi", BAD_BOUNDS)
def test_maximize_box_rejects_a_bad_box(lo, hi):
    # the bad bound sits on the second axis; the first is fine
    with pytest.raises(ValueError, match="box bounds must be finite with lo <= hi"):
        maximize_box(_bumpy, [0.0, lo], [1.0, hi], [[0.5, 0.5]])


def test_a_degenerate_box_is_accepted():
    x, v = golden_max_1d(lambda v: -v * v, 0.25, 0.25)
    assert (x, v) == (0.25, -0.0625)
    x, v = maximize_box(_bumpy, [0.25, 0.0], [0.25, 1.0], [[0.5, 0.5]])
    assert x[0] == 0.25 and v == _bumpy(x)


def _sorting_nelder_mead(f, x0, f0, lo, hi, max_iter):
    """_nelder_mead as it was before it kept its simplex ordered: the
    reference of the ordered one, frozen.  It sorts the simplex at the
    top of every iteration and returns the first maximum."""
    dim = len(x0)
    bounds = list(zip(lo, hi))

    def clip(x):
        return [l if v < l else (h if v > h else v) for v, (l, h) in zip(x, bounds)]

    simplex = [x0]
    for i in range(dim):
        step = 0.05 * (hi[i] - lo[i])
        x = list(x0)
        x[i] = x[i] + step if x[i] + step <= hi[i] else x[i] - step
        simplex.append(clip(x))
    values = [f0] + [f(x) for x in simplex[1:]]

    for _ in range(max_iter):
        order = sorted(range(dim + 1), key=values.__getitem__, reverse=True)
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        best, worst = values[0], values[-1]
        if math.isfinite(best) and math.isfinite(worst):
            if best - worst <= _F_TOL * max(1.0, abs(best)):
                break
        centroid = [sum(col) / dim for col in zip(*simplex[:-1])]
        pairs = list(zip(centroid, simplex[-1]))
        refl = clip([2.0 * c - w for c, w in pairs])
        f_refl = f(refl)
        if f_refl > best:
            exp = clip([3.0 * c - 2.0 * w for c, w in pairs])
            f_exp = f(exp)
            if f_exp > f_refl:
                simplex[-1], values[-1] = exp, f_exp
            else:
                simplex[-1], values[-1] = refl, f_refl
        elif f_refl > values[-2]:
            simplex[-1], values[-1] = refl, f_refl
        else:
            contr = clip([0.5 * (c + w) for c, w in pairs])
            f_contr = f(contr)
            if f_contr > worst:
                simplex[-1], values[-1] = contr, f_contr
            else:
                for i in range(1, dim + 1):
                    simplex[i] = [0.5 * (b + v) for b, v in zip(simplex[0], simplex[i])]
                    values[i] = f(simplex[i])
    i_best = max(range(dim + 1), key=values.__getitem__)
    return simplex[i_best], values[i_best]


def _draw_search(rng):
    """A seeded search problem: (objective, x0, lo, hi, max_iter, kinds).

    The objective is a smooth bump, a piecewise-constant staircase (exact
    ties among vertices) or either with -inf on half of the box; an axis
    may be degenerate (lo == hi) and a start may sit on the box's faces.
    """
    dim = rng.randint(1, 4)
    lo = [rng.uniform(-3.0, 1.0) for _ in range(dim)]
    hi = [l + rng.choice((0.0, 1e-3, 0.5, 2.0, 40.0)) for l in lo]
    centre = [l + rng.random() * (h - l) for l, h in zip(lo, hi)]
    kinds = {rng.choice(("bump", "stairs")), rng.choice(("open", "half", "half"))}
    steps = rng.choice((0.05, 0.3, 1.0))
    axis, cut = rng.randrange(dim), rng.random()

    def f(x):
        if "half" in kinds and x[axis] > lo[axis] + cut * (hi[axis] - lo[axis]):
            return -math.inf
        if "stairs" in kinds:
            return -float(sum(math.floor(abs(v - c) / steps) for v, c in zip(x, centre)))
        return -sum((v - c) ** 2 * (i + 1) for i, (v, c) in enumerate(zip(x, centre)))

    x0 = []
    for l, h in zip(lo, hi):
        face = rng.random()
        x0.append(l if face < 0.3 else (h if face < 0.6 else l + rng.random() * (h - l)))
    kinds.add("face" if any(v in (l, h) for v, l, h in zip(x0, lo, hi)) else "inside")
    kinds.add("flat" if any(l == h for l, h in zip(lo, hi)) else "full")
    return f, x0, lo, hi, rng.choice((0, 1, 2, 50, 200)), kinds


def _traced(search, f, x0, lo, hi, max_iter):
    """search run from x0, as (repr of each probe and its value, in order; repr of the result)."""
    probes = []

    def probe(x):
        v = f(x)
        probes.append((repr(x), repr(v)))
        return v

    return probes, repr(search(probe, list(x0), f(x0), lo, hi, max_iter))


def test_ordered_simplex_takes_the_sorting_trajectory():
    # the ordered simplex probes the same points in the same order as the
    # sorting reference, and returns the same point and value, in repr
    rng = random.Random(20261021)
    seen, tied = set(), 0
    for i in range(600):
        f, x0, lo, hi, max_iter, kinds = _draw_search(rng)
        got = _traced(_nelder_mead, f, x0, lo, hi, max_iter)
        assert got == _traced(_sorting_nelder_mead, f, x0, lo, hi, max_iter), (i, x0, lo, hi, max_iter, kinds)
        values = [f(x0)] + [float(v) for _, v in got[0]]
        tied += len(values) > len(set(values))
        seen |= kinds | {f"dim {len(x0)}", f"max_iter {max_iter}"}
    want = {"bump", "stairs", "open", "half", "face", "inside", "flat", "full"}
    want |= {f"dim {d}" for d in range(1, 5)} | {f"max_iter {m}" for m in (0, 1, 2, 50, 200)}
    assert seen >= want and tied >= 100, (want - seen, tied)


def test_nan_is_read_as_minus_inf():
    # NaN on part of the box gives the probes and the result of -inf
    # there; the best value is never NaN, and maximize_box never returns
    # less than a start that scored a number
    rng = random.Random(20261022)
    for i in range(200):
        f, x0, lo, hi, max_iter, kinds = _draw_search(rng)
        axis, cut = i % len(x0), rng.random()
        starts = [x0, [0.5 * (l + h) for l, h in zip(lo, hi)]]
        runs = []
        for fill in (math.nan, -math.inf):
            def g(x, fill=fill):
                return fill if x[axis] < lo[axis] + cut * (hi[axis] - lo[axis]) else f(x)

            probes, result = _traced(_nelder_mead, g, x0, lo, hi, max_iter)
            assert "nan" not in result, (i, result)
            runs.append((probes, result, maximize_box(g, lo, hi, starts, nm_max_iter=max_iter, polish=False)))
            floor = max((v for v in map(g, starts) if not math.isnan(v)), default=-math.inf)
            for polish in (False, True):
                v = maximize_box(g, lo, hi, starts, nm_max_iter=max_iter, polish=polish)[1]
                assert v >= floor, (i, fill, polish, v, floor)
        assert repr(runs[0]).replace("nan", "-inf") == repr(runs[1]), (i, x0, lo, hi, max_iter, kinds)
