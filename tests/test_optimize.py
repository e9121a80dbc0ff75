import math

import pytest

from gausslink.optimize import _POLISH_WIDTH, golden_max_1d, maximize_box


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
