"""Per-group squared-error curves over relevance cutoffs, integrated exactly.

For a cutoff ``t`` in [0, 1], a sample contributes its squared error to every
group curve value at cutoffs up to and including its own relevance. Each
curve is therefore a non-increasing step function of ``t`` that only changes
at observed sample relevances, so every integral over ``t`` of a functional
of these curves can be computed exactly by sweeping the breakpoints: no
quadrature grid, no discretization error.

The step functions are stored as interval values: ``ser[g, k]`` and
``count[g, k]`` hold the group-g curve value on the open interval between
``breakpoints[k]`` and ``breakpoints[k + 1]``. Pointwise evaluation at a
cutoff ``t`` (inclusive, samples with relevance >= t) is provided separately
for oracle-style comparisons and curve export.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import GroupedDataset
from .errors import InputError, InternalError
from .relevance import RelevanceFunction, evaluate


@dataclass(frozen=True)
class SerCurveSet:
    """Step curves of cumulative squared error and sample count per group."""

    breakpoints: np.ndarray        # ascending, first 0.0, last 1.0
    ser: np.ndarray                # (n_groups, n_intervals)
    count: np.ndarray              # (n_groups, n_intervals) integer-valued
    sample_group: np.ndarray
    sample_relevance: np.ndarray
    sample_sq_error: np.ndarray

    def __post_init__(self):
        for arr in (
            self.breakpoints,
            self.ser,
            self.count,
            self.sample_group,
            self.sample_relevance,
            self.sample_sq_error,
        ):
            arr.setflags(write=False)

    @property
    def n_groups(self) -> int:
        return self.ser.shape[0]

    @property
    def interval_widths(self) -> np.ndarray:
        return np.diff(self.breakpoints)

    def group_sizes(self) -> np.ndarray:
        """Total samples per group (|D_alpha|, the t = 0 count)."""
        return np.bincount(self.sample_group, minlength=self.n_groups)

    def values_at(self, ts, group: int):
        """Curve values (ser, count) at cutoffs ``ts``, inclusive semantics."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        mask = self.sample_group == group
        rel_g = self.sample_relevance[mask]
        order = np.argsort(rel_g, kind="stable")
        rel = rel_g[order]
        err = self.sample_sq_error[mask][order]
        suffix = np.concatenate([np.cumsum(err[::-1])[::-1], [0.0]])
        pos = np.searchsorted(rel, ts, side="left")
        return suffix[pos], (len(rel) - pos).astype(np.int64)

    def normalized(self):
        """Per-interval normalized curves ser/count, 0 where a group is empty."""
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(self.count > 0, self.ser / np.maximum(self.count, 1), 0.0)
        return out


def build(ds: GroupedDataset, preds, phi: RelevanceFunction) -> SerCurveSet:
    """Event-sweep construction of all group curves in O(n log n + |A| n)."""
    preds = np.asarray(preds, dtype=float)
    if preds.shape != ds.targets.shape:
        raise InputError(
            f"predictions have length {preds.shape}, expected {ds.targets.shape}"
        )
    bad = np.nonzero(~np.isfinite(preds))[0]
    if bad.size:
        raise InputError(f"non-finite prediction at sample index {int(bad[0])}")
    rel = np.asarray(evaluate(phi, ds.targets), dtype=float)
    err = (preds - ds.targets) ** 2
    grp = ds.group_of
    n_groups = ds.n_groups
    bp = np.unique(np.concatenate([rel, [0.0, 1.0]]))
    n_int = len(bp) - 1
    ser = np.zeros((n_groups, n_int))
    cnt = np.zeros((n_groups, n_int), dtype=np.int64)
    for g in range(n_groups):
        mask = grp == g
        order = np.argsort(rel[mask], kind="stable")
        rel_g = rel[mask][order]
        err_g = err[mask][order]
        suffix = np.concatenate([np.cumsum(err_g[::-1])[::-1], [0.0]])
        # value on (bp[k], bp[k+1]) is the inclusive value at bp[k+1]
        pos = np.searchsorted(rel_g, bp[1:], side="left")
        ser[g] = suffix[pos]
        cnt[g] = len(rel_g) - pos
    return SerCurveSet(
        breakpoints=bp,
        ser=ser,
        count=cnt,
        sample_group=grp.copy(),
        sample_relevance=rel,
        sample_sq_error=err,
    )


def argmin_pattern(curves: SerCurveSet) -> np.ndarray:
    """Best-group id per breakpoint interval; -1 where no group is populated.

    Ties go to the lowest group id. The pattern identifies the analytic
    piece of the divergence loss the current predictions sit on, so two
    prediction vectors with equal patterns share one smooth loss piece.
    """
    norm = curves.normalized()
    cand = curves.count > 0
    masked = np.where(cand, norm, np.inf)
    pattern = np.argmin(masked, axis=0)
    pattern[~cand.any(axis=0)] = -1
    return pattern.astype(np.int64)


def integrate_step(values, breakpoints) -> float:
    """Exact integral of a step function over its breakpoint span.

    ``values[k]`` holds on [breakpoints[k], breakpoints[k+1]); a trailing
    value aligned with the last breakpoint is accepted and ignored.
    """
    v = np.asarray(values, dtype=float)
    bp = np.asarray(breakpoints, dtype=float)
    if np.any(np.diff(bp) < 0):
        raise InternalError("breakpoints must be sorted ascending")
    widths = np.diff(bp)
    if v.shape[0] == bp.shape[0]:
        v = v[:-1]
    if v.shape[0] != widths.shape[0]:
        raise InternalError(
            f"step values ({v.shape[0]}) do not align with breakpoints ({bp.shape[0]})"
        )
    return float(np.sum(v * widths))


def sera(ds: GroupedDataset, preds, phi: RelevanceFunction) -> float:
    """Relevance-weighted squared error via the closed form sum(phi * err^2).

    Swapping the sum and the cutoff integral collapses the curve integral to
    a single weighted sum, which is exact and O(n).
    """
    preds = np.asarray(preds, dtype=float)
    if preds.shape != ds.targets.shape:
        raise InputError(
            f"predictions have length {preds.shape}, expected {ds.targets.shape}"
        )
    bad = np.nonzero(~np.isfinite(preds))[0]
    if bad.size:
        raise InputError(f"non-finite prediction at sample index {int(bad[0])}")
    rel = np.asarray(evaluate(phi, ds.targets), dtype=float)
    return float(np.sum(rel * (preds - ds.targets) ** 2))


def sera_from_curves(curves: SerCurveSet) -> float:
    """The same quantity via the pooled-curve integral; dual-method oracle."""
    pooled = curves.ser.sum(axis=0)
    return integrate_step(pooled, curves.breakpoints)


def export_curves(curves: SerCurveSet, path) -> None:
    """Write ``t,group,ser,count,normalized_ser`` rows at every breakpoint.

    Each group's block is formatted with one join and written in one call.
    Writing per group rather than per file keeps the formatted text of the
    other groups out of the command's peak memory.
    """
    t = curves.breakpoints.tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("t,group,ser,count,normalized_ser\n")
        for g in range(curves.n_groups):
            ser_v, cnt_v = curves.values_at(curves.breakpoints, g)
            norm = np.divide(ser_v, cnt_v, out=np.zeros(len(t)), where=cnt_v > 0)
            row = f"%.17g,{g},%.17g,%d,%.17g\n"
            fh.write("".join(row % r for r in zip(t, ser_v.tolist(), cnt_v.tolist(), norm.tolist())))
