"""Lock-step Nelder-Mead: many starts of scipy's Nelder-Mead at once.

_nelder_mead moves every start of a run together, each exactly as
scipy.optimize.minimize(method="Nelder-Mead") moves it alone, and
evaluates the trial points of all live starts in one call of the
objective per phase of a step.  Starts may differ in dimension and may
join while the run goes on; _Layout says where each keeps its simplex.

A step of a start is a function of its own sorted simplex and values
alone, as long as the value the objective gives a point does not depend
on the other points of its call.  So a start whose step leaves both bit
for bit as they were, which only a shrink that rounds back onto its own
vertices can do, would repeat that step until maxiter; it ends at once,
as scipy's run ends at maxiter.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np
from scipy import optimize

# scipy's default Nelder-Mead: reflection, expansion, contraction and
# shrink coefficients, the relative and zero-coordinate steps of the
# initial simplex, and the simplex-size tolerance of every fit
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
_NONZDELT, _ZDELT = 0.05, 0.00025
_XATOL = 1e-8
# the second trial point c0 * xbar - c1 * worst of an expansion, an outside
# and an inside contraction; x - (-c) y is exactly x + c y, so the inside
# contraction (1 - psi) xbar + psi worst fits the same form
_SECOND_POINT = np.array(
    [[1 + _RHO * _CHI, _RHO * _CHI], [1 + _PSI * _RHO, _PSI * _RHO], [1 - _PSI, -_PSI]]
)


def _pad(points: Sequence[np.ndarray], width: Optional[int] = None) -> np.ndarray:
    """The 1-D points as the rows of an (m, width) array, zero-padded on
    the right; width defaults to the longest point."""
    if width is None:
        width = max(len(point) for point in points)
    out = np.zeros((len(points), width))
    for row, point in zip(out, points):
        row[: len(point)] = point
    return out


class _Layout:
    """Where the live starts of a _nelder_mead run keep their vertices.

    The rows of the (S, w+1, w) simplices go in ascending order of
    dimension d.  A start keeps its d+1 vertices, sorted by value, in
    the last d+1 slots, from slot first = w - d on, and zeros in the
    slots before them and in its padding coordinates, so the centroid of
    the first w slots is its own.
    """

    def __init__(self, dims: np.ndarray, width: int):
        self.first = width - dims
        self.rows = np.arange(len(dims))[:, None]
        self.per_dim = dims[:, None].astype(np.float64)
        slot = np.arange(width + 1)
        self.padding = slot < self.first[:, None]
        self.after_best = slot > self.first[:, None]
        cuts = [0, *(np.flatnonzero(np.diff(dims)) + 1).tolist(), len(dims)]
        self.runs = [(lo, hi, width - int(dims[lo])) for lo, hi in zip(cuts, cuts[1:]) if hi > lo]
        self.identity = np.broadcast_to(slot, self.padding.shape)

    def sort(self, sim: np.ndarray, fsim: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every simplex with its vertices in ascending order of value.

        argsort is not stable, so it sees exactly the d+1 values of a
        start, as scipy's argsort of that start's simplex does."""
        order = self.identity.copy()
        for lo, hi, first in self.runs:
            order[lo:hi, first:] = np.argsort(fsim[lo:hi, first:], axis=1) + first
        return sim[self.rows, order], fsim[self.rows, order]


def _first_simplices(f, points: Sequence[np.ndarray], ids: np.ndarray, width: int):
    """(sim, fsim, ids, dims) of new starts at points, in ascending order
    of dimension: scipy's first simplex of each, evaluated in one call of
    f and sorted twice, as scipy sorts it."""
    dims = np.array([len(point) for point in points], dtype=np.intp)
    by_dim = np.argsort(dims, kind="stable")
    dims, ids = dims[by_dim], ids[by_dim]
    layout = _Layout(dims, width)
    first = layout.first
    x = _pad([points[i] for i in by_dim], width)
    sim = np.where(layout.padding[:, :, None], 0.0, x[:, None, :])
    for j in range(width):
        has = np.flatnonzero(dims > j)
        vertex = first[has] + 1 + j
        coord = sim[has, vertex, j]
        sim[has, vertex, j] = np.where(coord != 0, (1 + _NONZDELT) * coord, _ZDELT)
    fsim = np.full(layout.padding.shape, math.inf)
    fsim[~layout.padding] = f(sim[~layout.padding], np.repeat(ids, dims + 1))
    for _ in range(2):
        sim, fsim = layout.sort(sim, fsim)
    return sim, fsim, ids, dims


def _nelder_mead(
    f, x0: Sequence[np.ndarray], maxiter: int, fatol: float, join=None
) -> list[Optional[optimize.OptimizeResult]]:
    """Nelder-Mead from every start point in x0 in lock-step, with starts
    joining while the run goes on.

    f(points, starts) maps an (m, w) array of points to their (m,)
    values, where starts[r] is the start that point r belongs to, so one
    run can hold starts of different objectives.  f(points, starts)[r]
    must depend only on row r of points and on starts[r], whatever else
    the call holds.  Starts are numbered in the order they join, the
    points of x0 first, and may differ in dimension: w is the largest so
    far, and narrower points are zero-padded on the right.  join(done),
    if given, is called with the (start, OptimizeResult) pairs of the
    starts that have just finished and returns (points, ended): the
    points of the starts that join now, and the starts that end now.  An
    ended start leaves the arrays at once and gets no result; ending a
    start that has already finished or ended changes nothing.

    Every start takes exactly the steps of
    scipy.optimize.minimize(method="Nelder-Mead") with options maxiter,
    fatol and xatol=1e-8, and counts its own iterations against maxiter.
    Each step evaluates the reflections of all live starts in one call of
    f, then the expansion or contraction points of the starts that need
    one, then the shrunken vertices; the first simplices of the starts
    that join together take one call.  All live starts share one array of
    simplices (see _Layout).  A start leaves when it converges, reaches
    maxiter, or stops at a fixed point: a step after which its sorted
    simplex and values are bit for bit those before it.  Every later step
    would repeat that one, so such a start ends with nit = maxiter and
    success False, as scipy's run does.  Returns one OptimizeResult (x,
    fun, nit, success) per start, in start order, and None for a start
    that join ended; success means it converged before maxiter, as in
    scipy.
    """
    results: list = []
    width = 0
    sim, fsim = np.empty((0, 1, 0)), np.empty((0, 1))
    ids = nit = dims = np.empty(0, dtype=np.intp)
    layout = _Layout(dims, width)
    points = list(x0)
    with np.errstate(invalid="ignore"):  # inf - inf while a simplex is all +inf
        while True:
            if points:
                width = max(width, *map(len, points))
                if width > sim.shape[2]:  # the new padding goes first in every row
                    grow = width - sim.shape[2]
                    wide = np.zeros((len(sim), width + 1, width))
                    wide[:, grow:, : sim.shape[2]] = sim
                    sim = wide
                    fsim = np.pad(fsim, ((0, 0), (grow, 0)), constant_values=math.inf)
                start_ids = np.arange(len(results), len(results) + len(points))
                results += [None] * len(points)
                new = _first_simplices(f, points, start_ids, width)
                by_dim = np.argsort(np.concatenate([dims, new[3]]), kind="stable")
                sim, fsim, ids, dims = (
                    np.concatenate([old, added])[by_dim]
                    for old, added in zip((sim, fsim, ids, dims), new)
                )
                nit = np.concatenate([nit, np.ones(len(points), dtype=np.intp)])[by_dim]
                layout = _Layout(dims, width)
                points = []
            first = layout.first
            f_best = fsim[layout.rows[:, 0], first]
            over = nit >= maxiter
            # each simplex is sorted, so scipy's max |f0 - fj| is fN - f0
            converged = (fsim[:, -1] - f_best <= fatol) & ~over
            if converged.any():
                near = np.flatnonzero(converged)
                block = sim[near]
                spread = np.abs(block - block[layout.rows[: len(near), 0], first[near]][:, None, :])
                spread[layout.padding[near]] = 0.0
                converged[near] = spread.reshape(len(near), -1).max(axis=1) <= _XATOL
            leave = over | converged
            if leave.any():
                done = []
                for i in np.flatnonzero(leave).tolist():
                    run = optimize.OptimizeResult(
                        x=sim[i, first[i], : dims[i]].copy(),
                        fun=np.min(fsim[i, first[i] :]),
                        nit=int(nit[i]),
                        success=bool(converged[i]),
                    )
                    results[ids[i]] = run
                    done.append((int(ids[i]), run))
                if join is not None:
                    points, ended = join(done)
                    leave |= np.isin(ids, ended)
                keep = ~leave
                sim, fsim, ids, nit, dims = sim[keep], fsim[keep], ids[keep], nit[keep], dims[keep]
                layout = _Layout(dims, width)
                continue  # a joining start is tested before its first step, the rest again
            if not len(ids):
                break
            # scipy's centroid np.add.reduce(sim[:-1], 0) / d, added in the
            # same order; the padding slots add zeros first
            xbar = np.add.reduce(sim[:, :-1], axis=1)
            xbar /= layout.per_dim
            worst = sim[:, -1]
            xr = (1 + _RHO) * xbar - _RHO * worst
            fxr = f(xr, ids)
            expand = fxr < f_best
            second = expand | ~(fxr < fsim[:, -2])
            outside = fxr < fsim[:, -1]
            coef = _SECOND_POINT[np.where(expand, 0, np.where(outside, 1, 2))]
            x2 = coef[:, :1] * xbar - coef[:, 1:] * worst
            f2 = np.full(len(ids), math.inf)
            if second.any():
                f2[second] = f(x2[second], ids[second])
            take2 = second & np.where(expand, f2 < fxr, np.where(outside, f2 <= fxr, f2 < fsim[:, -1]))
            shrink = second & ~(expand | take2)
            shrinking = shrink.any()
            if shrinking:
                # every vertex after the best moves halfway to it, the
                # worst from where it was before this step
                near = np.flatnonzero(shrink)
                block, f_before = sim[near], fsim[near]
                best = block[layout.rows[: len(near)], first[near, None]]
                moved = layout.after_best[near]
                shrunk = np.where(moved[:, :, None], best + _SIGMA * (block - best), block)
            sim[:, -1] = np.where(take2[:, None], x2, xr)
            fsim[:, -1] = np.where(take2, f2, fxr)
            if shrinking:
                sim[near] = shrunk
                f_block = fsim[near]
                f_block[moved] = f(shrunk[moved], np.repeat(ids[near], dims[near]))
                fsim[near] = f_block
            nit += 1
            sim, fsim = layout.sort(sim, fsim)
            if shrinking:
                # a shrink that rounds back onto its own sorted simplex and
                # values, bit for bit, repeats the same step until maxiter
                same = (sim[near].view(np.int64) == block.view(np.int64)).all(axis=(1, 2))
                same &= (fsim[near].view(np.int64) == f_before.view(np.int64)).all(axis=1)
                nit[near[same]] = maxiter
    return results
