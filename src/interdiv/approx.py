"""Curve simplification for faster loss evaluation.

The normalized error curve of each group is resampled on a uniform cutoff
grid, blurred with a truncated Gaussian kernel, and reduced to the grid
points where the first or second derivative of the blurred curve changes
sign, plus both endpoints. The piecewise-linear curve through those points
(using the original, unblurred values) approximates the step curve, and the
union of retained points across groups is the reduced cutoff grid the
divergence objective sweeps during training instead of every breakpoint.
Reported metrics are never computed from simplified curves.

Like the curves themselves, simplification splits into a part fixed per
curve layout and parameters and a part that changes with the predictions.
:class:`SimplifyGrid` holds the fixed part: the grid, the kernel, the
breakpoint interval of each grid point and the count integrals the
simplified sweep reads at grid points and sample relevances, which it
sums one group's count row at a time. Its
:meth:`~SimplifyGrid.marks` reads the curves at the grid points, whose
suffix positions it finds once from the layout's counts there, and marks
the retained points of all groups at once in a boolean (groups, grid)
array, and its simplified sweep
:meth:`~SimplifyGrid.sample_weights` runs over their union, with each
segment's best group read from the curves' envelope. The divergence
objective builds one grid per fit. Training never calls :func:`simplify`,
the one-shot form for a single curve set; the benchmark's tracer times it.
"""
from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from . import curves as curves_mod
from .curves import CurveLayout, SerCurveSet
from .errors import ParameterError
from .relevance import RelevanceFunction


@dataclass(frozen=True)
class ApproxParams:
    """Kernel width and grid step; every curve keeps both grid ends."""

    sigma: float = 1e-2        # Gaussian bandwidth, in relevance units
    grid_step: float = 1e-3    # resampling step for derivative estimation

    def __post_init__(self):
        if not 0.0 < self.sigma < np.inf:  # NaN fails this comparison too
            raise ParameterError(f"sigma must be positive and finite, got {self.sigma!r}")
        # smoothing costs about quadratically more as the step shrinks
        if not 1e-4 <= self.grid_step < 1.0:
            raise ParameterError(f"grid_step must be in [1e-4, 1), got {self.grid_step!r}")


@dataclass(frozen=True)
class SimplifiedCurve:
    """Retained (t, value) points of one group's normalized curve."""

    t: np.ndarray
    value: np.ndarray

    def __post_init__(self):
        self.t.setflags(write=False)
        self.value.setflags(write=False)


@dataclass(frozen=True)
class SimplifiedCurveSet:
    curves: tuple
    grid_size: int


def _grid_intervals(breakpoints: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Index of the breakpoint interval each cutoff in ``ts`` falls in."""
    return np.clip(
        np.searchsorted(breakpoints, ts, side="right") - 1, 0, len(breakpoints) - 2
    )


def _sign_changes(d: np.ndarray, noise_floor) -> np.ndarray:
    """Mask of the points ``i`` where the sign of ``d`` differs at ``i + 1``.

    Works along the last axis; ``noise_floor`` broadcasts against ``d``.
    """
    # derivative magnitudes at roundoff scale are flattened to exactly zero,
    # so flat stretches cannot flicker sign; this floors numerical noise
    # only, it is not a significance threshold
    d = np.where(np.abs(d) <= noise_floor, 0.0, d)
    s = np.sign(d)
    return s[..., :-1] != s[..., 1:]


class SimplifyGrid:
    """The part of curve simplification fixed per curve layout and parameters.

    Holds the uniform grid, the Gaussian kernel and its edge normalizer, the
    breakpoint interval of every grid point and each group's suffix position
    there (from :meth:`CurveLayout.count_at`), and, for the simplified sweep of
    the divergence objective, each sample's grid cell and the count integral
    F_g at every grid point and at each sample's own relevance. F_g is
    computed here from each group's counts, one group at a time, and is
    not kept: it is exact at breakpoints and linear between them.
    Per prediction, :meth:`marks` and :meth:`sample_weights` then cost one
    convolution per group and array operations over all groups at once.
    """

    def __init__(self, layout: CurveLayout, params: ApproxParams):
        n_grid = int(round(1.0 / params.grid_step)) + 1
        if n_grid < 3:
            raise ParameterError(
                f"grid_step={params.grid_step} is coarser than the curve support"
            )
        sigma_cells = params.sigma / params.grid_step
        if not 4.0 * sigma_cells < np.inf:  # an infinite radius, which int() cannot take
            raise ParameterError(
                f"sigma={params.sigma} needs a kernel wider than the {n_grid}-point "
                f"grid of grid_step={params.grid_step}"
            )
        radius = max(1, int(round(4.0 * sigma_cells)))
        if 2 * radius + 1 > n_grid:
            raise ParameterError(
                f"sigma={params.sigma} needs a kernel of {2 * radius + 1} points, "
                f"wider than the {n_grid}-point grid of grid_step={params.grid_step}"
            )
        x = np.arange(-radius, radius + 1, dtype=float)
        self.grid = np.linspace(0.0, 1.0, n_grid)
        # under about 1e-154 grid cells the square overflows and the kernel
        # is [0, 1, 0]: no blur, the limit of a vanishing sigma
        with np.errstate(over="ignore"):
            self.kernel = np.exp(-0.5 * (x / sigma_cells) ** 2)
        self.edge = np.convolve(np.ones(n_grid), self.kernel, mode="same")
        bp = layout.breakpoints
        self.interval = _grid_intervals(bp, self.grid)
        # F_g(bp[k]): the integral of dt / |D^t_g| from 0, zero on empty
        # stretches, so F_g is piecewise linear between breakpoints; one
        # group's row at a time
        dt = np.diff(bp)
        self.count_at_grid = np.empty((len(layout.orders), n_grid))
        self.count_at_sample = np.empty(len(layout.relevance))
        for g, order in enumerate(layout.orders):
            # value on (bp[k], bp[k+1]) is the inclusive value at bp[k+1]
            count = len(order) - np.searchsorted(layout.relevance[order], bp[1:], side="left")
            f = np.pad(np.cumsum(np.where(count > 0, dt / np.maximum(count, 1), 0.0)), (1, 0))
            self.count_at_grid[g] = np.interp(self.grid, bp, f)
            self.count_at_sample[order] = f[layout.sample_interval[order]]
        self.sample_cell = np.clip(
            np.searchsorted(self.grid, layout.relevance, side="right") - 1, 0, n_grid - 2
        )
        # each group's suffix position at every grid point, where marks reads the curves
        self.grid_pos = layout.ends[:, None] - layout.count_at(self.interval)

    def marks(self, curves: SerCurveSet):
        """Resampled curves and the (groups, grid) mask of their retained points.

        Each group's normalized curve is taken at the grid, one row per
        group. A point is retained where the first or second derivative of
        the blurred curve changes sign, and at both ends, so every curve
        keeps at least two points of a grid of at least three.
        """
        vals = curves_mod.normalize(curves.suffix[self.grid_pos],
                                    curves.layout.ends[:, None] - self.grid_pos)
        smooth = np.stack([np.convolve(v, self.kernel, mode="same") for v in vals]) / self.edge
        h = self.grid[1] - self.grid[0]
        eps = np.finfo(float).eps
        scale = np.maximum(1.0, np.max(np.abs(smooth), axis=1, keepdims=True))
        d1 = np.gradient(smooth, self.grid, axis=1)
        d2 = np.gradient(d1, self.grid, axis=1)
        keep = np.zeros(vals.shape, dtype=bool)
        keep[:, [0, -1]] = True
        keep[:, :-1] |= _sign_changes(d1, 64.0 * eps * scale / h)
        keep[:, :-1] |= _sign_changes(d2, 64.0 * eps * scale / h**2)
        return vals, keep

    def sample_weights(self, curves: SerCurveSet):
        """Per-sample weights W_j swept over the union of the retained points.

        Returns W, the best group of each union segment and the number of
        segments. Within a segment the best group is held constant, resolved
        from the true curve values at the segment midpoint; the count
        integrals are exact. The only approximation left is the coarse
        pattern: it can change at segment boundaries, not inside.
        """
        _, keep = self.marks(curves)
        union = keep.any(axis=0)
        grid = self.grid[union]
        idx = _grid_intervals(curves.breakpoints, 0.5 * (grid[:-1] + grid[1:]))
        pattern = curves.envelope.best[idx]
        mask = curves_mod.exposed(pattern, curves.layout.count_at(idx))

        f_at_grid = self.count_at_grid[:, union]
        df = np.diff(f_at_grid, axis=1)
        cum = np.pad(np.cumsum(np.where(mask, df, 0.0), axis=1), ((0, 0), (1, 0)))
        # the union keeps grid point 0, so a sample's segment is the number
        # of union points at or below its cell, less one
        g = curves.layout.ds.group_of
        s = np.cumsum(union)[self.sample_cell] - 1
        W = cum[g, s] + np.where(mask[g, s], self.count_at_sample - f_at_grid[g, s], 0.0)
        return W, pattern, len(grid) - 1


def simplify(curves: SerCurveSet, params: ApproxParams) -> SimplifiedCurveSet:
    """Reduce each group's normalized curve to its significant points."""
    sgrid = SimplifyGrid(curves.layout, params)
    vals, keep = sgrid.marks(curves)
    return SimplifiedCurveSet(
        curves=tuple(
            SimplifiedCurve(t=sgrid.grid[k], value=v[k]) for v, k in zip(vals, keep)
        ),
        grid_size=len(sgrid.grid),
    )


@dataclass
class BenchReport:
    """Timing and accuracy comparison of exact vs simplified training."""

    n_train: int
    n_test: int
    rounds: int
    time_exact: float
    time_fast: float
    time_pct: float
    sera_exact: float
    sera_fast: float
    sera_delta_pct: float
    id_exact: float
    id_fast: float
    id_delta_pct: float
    eval_points_exact: int
    eval_points_fast: int
    eval_points_reduction_pct: float

    def to_dict(self) -> dict:
        return asdict(self)


def _pct(new: float, old: float) -> float:
    return (new - old) / old * 100.0 if old != 0 else 0.0


def bench_approx(
    ds,
    phi: RelevanceFunction,
    params: ApproxParams,
    rounds: int,
    w: float = 0.5,
    seed: int = 0,
) -> BenchReport:
    """Train the dual-ensemble model with and without curve simplification.

    Both arms fit on the same 80% of ``ds``. Wall times cover fit plus test
    prediction for each arm; the error and divergence deltas are computed
    with exact metrics on the held-out predictions of both arms.
    """
    from . import dataset as dataset_mod
    from . import gbt, idboost, metrics

    boost_params = gbt.BoostParams(n_rounds=rounds, max_depth=3, l2_lambda=1e-6, seed=seed)
    train, test = dataset_mod.split(ds, 0.8, seed)

    t0 = time.perf_counter()
    exact_model = idboost.fit(train, phi, boost_params, w)
    preds_exact = exact_model.predict(test.features)
    t_exact = time.perf_counter() - t0

    t0 = time.perf_counter()
    fast_model = idboost.fit(train, phi, boost_params, w, approx_params=params)
    preds_fast = fast_model.predict(test.features)
    t_fast = time.perf_counter() - t0

    layout = curves_mod.CurveLayout(test, phi)
    sera_exact = layout.sera(preds_exact)
    sera_fast = layout.sera(preds_fast)
    id_exact = metrics.intersectional_divergence(layout.curves(preds_exact))
    id_fast = metrics.intersectional_divergence(layout.curves(preds_fast))
    pe = exact_model.id_ensemble.eval_points or 0
    pf = fast_model.id_ensemble.eval_points or 0
    return BenchReport(
        n_train=train.n,
        n_test=test.n,
        rounds=rounds,
        time_exact=t_exact,
        time_fast=t_fast,
        time_pct=_pct(t_fast, t_exact),
        sera_exact=sera_exact,
        sera_fast=sera_fast,
        sera_delta_pct=_pct(sera_fast, sera_exact),
        id_exact=id_exact,
        id_fast=id_fast,
        id_delta_pct=_pct(id_fast, id_exact),
        eval_points_exact=pe,
        eval_points_fast=pf,
        eval_points_reduction_pct=_pct(pf, pe),
    )
