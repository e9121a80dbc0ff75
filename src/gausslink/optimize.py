"""Deterministic derivative-free maximization over a box.

Nelder-Mead with projection onto the box from each of the caller's
starts, followed by one coordinate-wise golden-section polish round,
each axis bracketed to _POLISH_WIDTH of its span on either side of the
best point (clipped to the box): the simplex has already found the
basin, so the polish only refines it, and a full-width bracket would
spend most of its evaluations far from the optimum.  The caller
chooses the starts; the searches over cooperativities rank theirs with
one array evaluation over a log grid (thresholds._ranked_starts).
Nothing is random, so results are reproducible.  Objectives signal
infeasible points (e.g. unstable operating points) by returning -inf,
which the simplex treats as a rejection.

The simplex is kept ordered best first, ties in the order they arrived:
it is sorted (stably) once when built and again after a shrink, and a
reflected, expanded or contracted vertex replaces the worst and is
inserted after every value >= its own, where a stable descending sort
would put it.  A NaN value is read as -inf where it enters the simplex
(the initial vertices and a shrink's; a trial vertex enters only by
comparing greater), so the order is total and the best vertex,
simplex[0], never scores NaN.  Every comparison that steers the simplex
is false for NaN and -inf alike, so it makes the same probes for both;
maximize_box keeps a polish value only where it beats the best, which
NaN never does.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

__all__ = ["maximize_box"]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: Relative spread of the simplex values at which Nelder-Mead stops.
_F_TOL = 1e-10

#: Half-width of the polish bracket about the best point, as a fraction of
#: each axis's span, and the golden-section iterations spent in it.
_POLISH_WIDTH, _POLISH_ITERS = 0.02, 40


def _check_box(lo: Sequence[float], hi: Sequence[float]) -> None:
    """Raise ValueError unless every bound is finite and lo <= hi, axis by axis."""
    for l, h in zip(lo, hi):
        if not (-math.inf < l <= h < math.inf):
            raise ValueError(f"box bounds must be finite with lo <= hi, got [{l}, {h}]")


def _golden(f, a, b, iters):
    """Golden-section maximization of f on a checked bracket [a, b], as (x, f(x))."""
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if b - a <= 1e-14 * max(1.0, abs(a), abs(b)):
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
    return (x1, f1) if f1 >= f2 else (x2, f2)


def _nelder_mead(f, x0, f0, lo, hi, max_iter):
    """Projected Nelder-Mead maximization from x0 in the box, where f(x0) = f0.

    Returns (x_best, f_best).  The simplex stays ordered best first (see
    the module docstring), so the best vertex is simplex[0].
    """
    dim = len(x0)
    bounds = tuple(zip(lo, hi))

    # initial simplex: x0 plus 5% of the box span along each axis
    simplex = [x0]
    for i in range(dim):
        step = 0.05 * (hi[i] - lo[i])
        x = list(x0)
        x[i] = x[i] + step if x[i] + step <= hi[i] else x[i] - step
        simplex.append([l if v < l else (h if v > h else v) for v, (l, h) in zip(x, bounds)])
    values = [f0] + [f(x) for x in simplex[1:]]
    simplex, values = _ordered(simplex, values)

    for _ in range(max_iter):
        best = values[0]
        # ordered, so a finite best over a -inf worst already fails the spread test
        if math.isfinite(best) and best - values[-1] <= _F_TOL * max(1.0, abs(best)):
            break
        centroid = [sum(col) / dim for col in zip(*simplex[:-1])]
        worst = simplex[-1]
        # each trial vertex is clipped to the box as it is built
        x = [l if (v := 2.0 * c - w) < l else (h if v > h else v)
             for c, w, (l, h) in zip(centroid, worst, bounds)]
        fx = f(x)
        if fx > best:
            exp = [l if (v := 3.0 * c - 2.0 * w) < l else (h if v > h else v)
                   for c, w, (l, h) in zip(centroid, worst, bounds)]
            f_exp = f(exp)
            if f_exp > fx:
                x, fx = exp, f_exp
        elif not fx > values[-2]:
            x = [l if (v := 0.5 * (c + w)) < l else (h if v > h else v)
                 for c, w, (l, h) in zip(centroid, worst, bounds)]
            fx = f(x)
            if not fx > values[-1]:
                for i in range(1, dim + 1):
                    simplex[i] = [0.5 * (b + v) for b, v in zip(simplex[0], simplex[i])]
                    values[i] = f(simplex[i])
                simplex, values = _ordered(simplex, values)
                continue
        # the trial replaces the worst vertex, after every value >= its own
        simplex.pop()
        values.pop()
        i = dim
        while i and values[i - 1] < fx:
            i -= 1
        simplex.insert(i, x)
        values.insert(i, fx)
    return simplex[0], values[0]


def _ordered(simplex, values):
    """The simplex and its values sorted best first, NaN read as -inf; ties keep their order."""
    values = [-math.inf if v != v else v for v in values]
    order = sorted(range(len(values)), key=values.__getitem__, reverse=True)
    return [simplex[i] for i in order], [values[i] for i in order]


def maximize_box(
    f: Callable[[Sequence[float]], float],
    lo: Sequence[float],
    hi: Sequence[float],
    starts: Sequence[Sequence[float]],
    *,
    nm_max_iter: int = 200,
    polish: bool = True,
) -> tuple[list[float], float]:
    """Maximize f over the box [lo, hi], running Nelder-Mead from each start.

    Starts are projected onto the box and evaluated once, as the first
    vertex of their simplex, so the returned value is never below the
    best start: corner candidates passed here give a hard floor.  ValueError unless every
    bound is finite and lo <= hi.
    """
    lo = [float(v) for v in lo]
    hi = [float(v) for v in hi]
    _check_box(lo, hi)
    dim = len(lo)

    best_x, best_f = None, -math.inf
    for s in starts:
        x = [min(max(s[i], lo[i]), hi[i]) for i in range(dim)]
        fx = f(x)
        if fx > best_f:
            best_x, best_f = x, fx
        xo, fo = _nelder_mead(f, x, fx, lo, hi, nm_max_iter)
        if fo > best_f:
            best_x, best_f = xo, fo
    if best_x is None:
        best_x = [0.5 * (lo[i] + hi[i]) for i in range(dim)]

    if polish and math.isfinite(best_f):
        for i in range(dim):
            w = _POLISH_WIDTH * (hi[i] - lo[i])
            if w <= 0.0:
                continue
            base = list(best_x)

            def fi(v):
                probe = list(base)
                probe[i] = v
                return f(probe)

            a, b = max(lo[i], base[i] - w), min(hi[i], base[i] + w)
            xi, fxi = _golden(fi, a, b, _POLISH_ITERS)
            if fxi > best_f:
                best_x = list(base)
                best_x[i] = xi
                best_f = fxi
    return best_x, best_f
