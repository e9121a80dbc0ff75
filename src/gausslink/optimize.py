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
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

__all__ = ["maximize_box", "golden_max_1d"]

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


def golden_max_1d(
    f: Callable[[float], float], lo: float, hi: float, *, iters: int = 60
) -> tuple[float, float]:
    """Golden-section maximization of f on [lo, hi]; ValueError for a bad bracket."""
    _check_box((lo,), (hi,))
    return _golden(f, lo, hi, iters)


def _golden(f, a, b, iters):
    """golden_max_1d on a checked bracket [a, b]."""
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

    Returns (x_best, f_best).
    """
    dim = len(x0)
    bounds = list(zip(lo, hi))

    def clip(x):
        return [l if v < l else (h if v > h else v) for v, (l, h) in zip(x, bounds)]

    # initial simplex: x0 plus 5% of the box span along each axis
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
