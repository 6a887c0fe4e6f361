"""Second-order objectives for the boosting engine.

Every objective produces a per-sample gradient and Hessian of its loss with
respect to the predictions, together with the loss value there, so a
boosting round evaluates the loss once. Each returns its own second
derivative, zero where the loss is flat or linear; ``gbt.fit`` alone floors
the Hessians, at ``BoostParams.hess_floor``.

The divergence loss integrates, over relevance cutoffs, the normalized
squared error of every populated group except the best one at that cutoff;
its derivative concentrates into a per-sample weight

    W_j = integral over t in [0, phi(y_j)] of
          [group(j) != best_group(t)] / |D^t_{group(j)}| dt

so that grad_j = 2 (yhat_j - y_j) W_j and hess_j = 2 W_j. The best-group
identity per cutoff interval is held fixed at its value for the current
predictions, i.e. the gradient is that of the analytic piece the predictions
currently sit on; argmin ties break toward the lowest group id. The loss is
non-convex because the best-group identity can switch between pieces.

The loss value, the best group and both sweeps of W (exact and simplified)
read the curves' envelope (:class:`interdiv.curves.Envelope`), so a boosting
round reduces over the groups once. The envelope and the exact W sweep run
over blocks of intervals, so an evaluation needs O(n + |A| * block)
memory, not O(|A| * n), and gives the bits of one unblocked sweep.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import curves as curves_mod
from .approx import SimplifyGrid
from .curves import SerCurveSet, argmin_pattern, check_preds
from .dataset import GroupedDataset
from .errors import InputError, ValidationError
from .relevance import RelevanceFunction

DEFAULT_HUBER_DELTA = 1.0


@dataclass(frozen=True)
class GradHess:
    """Per-sample gradient and (nonnegative) Hessian of a loss, and its value."""

    grad: np.ndarray
    hess: np.ndarray
    value: float

    def __post_init__(self):
        if self.grad.shape != self.hess.shape:
            raise InputError("grad and hess must have equal length")
        if not np.all(np.isfinite(self.grad)) or not np.all(np.isfinite(self.hess)):
            raise InputError("grad/hess entries must be finite")
        if np.any(self.hess < 0):
            raise InputError("hess entries must be nonnegative")
        self.grad.setflags(write=False)
        self.hess.setflags(write=False)


def idloss_from_curves(curves: SerCurveSet) -> float:
    """Exact sweep evaluation of the divergence loss from built curves."""
    curves_mod.require_two_groups(curves.layout.ds, "divergence loss")
    env = curves.envelope
    return float(np.sum((env.total - env.low) * curves.interval_widths))


def idloss_value(ds: GroupedDataset, preds, phi: RelevanceFunction) -> float:
    """Divergence loss of the predictions, integrated exactly over cutoffs."""
    return idloss_from_curves(curves_mod.build(ds, preds, phi))


def idloss_sample_weights(curves: SerCurveSet) -> np.ndarray:
    """The per-sample weights W_j gathering each sample's loss exposure.

    Computed with one sweep over breakpoint intervals: a group's per-interval
    contribution is dt / count whenever the group is populated and not the
    best one, and each sample accumulates the contributions of the intervals
    its relevance reaches. The sweep runs in blocks of intervals
    (:meth:`~interdiv.curves.SerCurveSet.sweep`, which takes the envelope on
    the way), each group's running sum carried into the next block as its
    leading column, so the sums add in the order of one sweep. Cost
    O(n + |A| * intervals), memory O(n + |A| * block).
    """
    layout = curves.layout
    dt = curves.interval_widths
    w = np.empty(layout.ds.n)
    run = np.zeros((curves.n_groups, 1))
    for cols, rows, count, best in curves.sweep():
        cum = np.zeros((curves.n_groups, 1 + count.shape[1]))
        cum[:, :1] = run
        np.divide(dt[cols], count, out=cum[:, 1:], where=curves_mod.exposed(best, count))
        np.cumsum(cum, axis=1, out=cum)
        run = cum[:, -1:].copy()
        # the last block's last column holds the samples at relevance 1.0
        if cols.stop == len(dt):
            rows = slice(rows.start, None)
        col = layout.sorted_interval[rows]  # a view: the first block needs no copy
        w[layout.by_interval[rows]] = cum[layout.sorted_group[rows],
                                          col - cols.start if cols.start else col]
    return w


def idloss_gradhess(ds: GroupedDataset, preds, phi: RelevanceFunction) -> GradHess:
    """Gradient and Hessian of the divergence loss at the current piece."""
    return IdLossObjective(ds, phi).grad_hess(preds)


def sera_value(ds: GroupedDataset, preds, phi: RelevanceFunction) -> float:
    return curves_mod.sera(ds, preds, phi)


def sera_gradhess(ds: GroupedDataset, preds, phi: RelevanceFunction) -> GradHess:
    """Closed-form derivative of the relevance-weighted squared error."""
    return SeraObjective(ds, phi).grad_hess(preds)


class MseObjective:
    name = "mse"

    def __init__(self, ds: GroupedDataset):
        self._ds = ds

    @staticmethod
    def _loss(r) -> float:
        return 0.5 * float(np.sum(r * r))

    def value(self, preds) -> float:
        return self._loss(check_preds(self._ds, preds) - self._ds.targets)

    def grad_hess(self, preds) -> GradHess:
        r = check_preds(self._ds, preds) - self._ds.targets
        return GradHess(grad=r, hess=np.ones(self._ds.n), value=self._loss(r))


class HuberObjective:
    name = "huber"

    def __init__(self, ds: GroupedDataset, delta: float = DEFAULT_HUBER_DELTA):
        if not 0.0 < delta < np.inf:  # NaN fails this comparison too
            raise ValidationError(f"huber delta must be positive and finite, got {delta!r}")
        self._ds = ds
        self.delta = delta

    def _loss(self, r) -> float:
        # each branch only where it holds: the other can overflow
        a = np.abs(r)
        quad = a <= self.delta
        out = np.empty_like(r)
        out[quad] = 0.5 * r[quad] * r[quad]
        out[~quad] = self.delta * (a[~quad] - 0.5 * self.delta)
        return float(np.sum(out))

    def value(self, preds) -> float:
        return self._loss(check_preds(self._ds, preds) - self._ds.targets)

    def grad_hess(self, preds) -> GradHess:
        r = check_preds(self._ds, preds) - self._ds.targets
        quad = np.abs(r) <= self.delta
        grad = np.where(quad, r, self.delta * np.sign(r))
        return GradHess(grad=grad, hess=quad.astype(float), value=self._loss(r))


class SeraObjective:
    name = "sera"

    def __init__(self, ds: GroupedDataset, phi: RelevanceFunction):
        self._ds = ds
        self._rel = np.asarray(phi(ds.targets), dtype=float)

    def _loss(self, r) -> float:
        return float(np.sum(self._rel * r * r))

    def value(self, preds) -> float:
        return self._loss(check_preds(self._ds, preds) - self._ds.targets)

    def grad_hess(self, preds) -> GradHess:
        r = check_preds(self._ds, preds) - self._ds.targets
        return GradHess(grad=2.0 * self._rel * r, hess=2.0 * self._rel, value=self._loss(r))


class IdLossObjective:
    """Divergence-loss objective with optional simplified-curve gradients.

    The curve layout is built once, so each evaluation costs one O(n) curve
    build. With ``approx_params`` the simplification grid is built once too,
    so bad parameters fail here rather than at the first round. Tracks two
    counters across gradient calls: ``eval_points`` accumulates the number
    of cutoff intervals swept per gradient evaluation (the quantity the
    curve-simplification mode reduces) and ``region_switches`` counts how
    often the best-group pattern changed between consecutive evaluations.
    """

    name = "idloss"

    def __init__(self, ds: GroupedDataset, phi: RelevanceFunction, approx_params=None):
        self._ds = ds
        self._layout = curves_mod.CurveLayout(ds, phi)
        self._sgrid = (
            SimplifyGrid(self._layout, approx_params) if approx_params is not None else None
        )
        self.eval_points = 0
        self.region_switches = 0
        self._last_pattern = None

    def value(self, preds) -> float:
        return idloss_from_curves(self._layout.curves(preds))

    def _note_pattern(self, pattern: np.ndarray) -> None:
        if self._last_pattern is not None and not np.array_equal(self._last_pattern, pattern):
            self.region_switches += 1
        self._last_pattern = pattern

    def grad_hess(self, preds) -> GradHess:
        cs = self._layout.curves(preds)
        # the weights first: the exact sweep takes the envelope the value reads
        if self._sgrid is None:
            w, points = idloss_sample_weights(cs), len(cs.breakpoints) - 1
            pattern = argmin_pattern(cs)
        else:
            w, pattern, points = self._sgrid.sample_weights(cs)
        value = idloss_from_curves(cs)
        self.eval_points += points
        self._note_pattern(pattern)
        grad = 2.0 * (np.asarray(preds, dtype=float) - self._ds.targets) * w
        return GradHess(grad=grad, hess=2.0 * w, value=value)


OBJECTIVE_NAMES = ("mse", "huber", "sera", "idloss")


def make_objective(
    name: str,
    ds: GroupedDataset,
    phi: RelevanceFunction,
    huber_delta: float = DEFAULT_HUBER_DELTA,
    approx_params=None,
):
    """Objective factory keyed by the config/CLI name string."""
    if name == "mse":
        return MseObjective(ds)
    if name == "huber":
        return HuberObjective(ds, delta=huber_delta)
    if name == "sera":
        return SeraObjective(ds, phi)
    if name == "idloss":
        return IdLossObjective(ds, phi, approx_params=approx_params)
    raise ValidationError(f"unknown objective {name!r}; expected one of {OBJECTIVE_NAMES}")
