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

Everything except the squared errors depends on the targets alone. A
:class:`CurveLayout` holds that fixed part for one dataset and relevance
function: relevances, breakpoints, each group's relevance sort order and
the count step functions. ``layout.curves(preds)`` adds the per-prediction
part, one suffix sum of squared errors per group, so a training loop builds
the layout once and pays O(n) per round. The
divergence objective does so, and its ``grad_hess`` returns the loss value
from the same curves, so a boosting round builds them once.

Every reduction over groups goes through one :func:`envelope` per curve
set: per interval, the number of populated groups, the best one, and their
lowest, highest and summed normalized value. ID integrates highest minus
lowest, the divergence loss sums minus lowest, and its gradient holds the
best group fixed; the curve set keeps the envelope, so they all share it.
"""
from __future__ import annotations

import operator
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import dataset
from .dataset import GroupedDataset
from .errors import InputError, InternalError, UndefinedMetricError
from .relevance import RelevanceFunction, evaluate


def check_preds(ds: GroupedDataset, preds) -> np.ndarray:
    """Predictions as a float array, one finite value per sample of ``ds``."""
    preds = np.asarray(preds, dtype=float)
    if preds.shape != ds.targets.shape:
        raise InputError(
            f"predictions have length {preds.shape}, expected {ds.targets.shape}"
        )
    bad = np.nonzero(~np.isfinite(preds))[0]
    if bad.size:
        raise InputError(f"non-finite prediction at sample index {int(bad[0])}")
    return preds


def require_two_groups(ds: GroupedDataset, subject: str) -> None:
    """Raise ``UndefinedMetricError`` unless two groups of ``ds`` have samples."""
    if np.count_nonzero(ds.group_counts()) < 2:
        raise UndefinedMetricError(f"{subject} needs at least 2 populated groups")


def normalize(ser, count) -> np.ndarray:
    """Normalized curve values ser / count, 0 where a group is empty."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(count > 0, ser / np.maximum(count, 1), 0.0)


class Envelope(NamedTuple):
    """Per breakpoint interval, a reduction over the groups with samples there."""

    populated: np.ndarray  # how many groups have samples
    best: np.ndarray       # the group of lowest value, ties to the lowest id; -1 if none
    low: np.ndarray        # the lowest, highest and summed value; 0 if none
    high: np.ndarray
    total: np.ndarray


def envelope(ser, count) -> Envelope:
    """The read-only :class:`Envelope` of the normalized curves ``ser / count``."""
    # one buffer of ser / count; each reduction refills only the empty cells,
    # with a value it skips, so no masked copy of the curves is made
    empty = count == 0
    populated = len(count) - empty.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        buf = ser / count
    np.copyto(buf, -np.inf, where=empty)
    high = buf.max(axis=0)
    np.copyto(buf, np.inf, where=empty)
    low = buf.min(axis=0)
    # the first group at the minimum: argmin along axis 0 would copy the buffer
    best = (buf == low).argmax(axis=0)
    np.copyto(buf, 0.0, where=empty)
    env = Envelope(populated, best, low, high, buf.sum(axis=0))
    none = populated == 0
    best[none], low[none], high[none] = -1, 0.0, 0.0
    for a in env:
        a.setflags(write=False)
    return env


@dataclass(frozen=True)
class CurveLayout:
    """The prediction-independent part of the curves of one dataset.

    ``orders[g]`` lists group g's sample indices in stable relevance order;
    ``sample_interval[j]`` is the index of sample j's relevance among the
    breakpoints. The steps of the counts' integrals over cutoffs are not
    held here: kept, they raised a fit's peak memory, so
    :meth:`weight_steps` computes them on each call.
    """

    ds: GroupedDataset
    phi: InitVar[RelevanceFunction]
    relevance: np.ndarray = field(init=False)
    breakpoints: np.ndarray = field(init=False)      # ascending, first 0.0, last 1.0
    orders: tuple = field(init=False)
    count: np.ndarray = field(init=False)            # (n_groups, n_intervals)
    sample_interval: np.ndarray = field(init=False)

    def __post_init__(self, phi: RelevanceFunction):
        rel = np.asarray(evaluate(phi, self.ds.targets), dtype=float)
        bp, where = np.unique(np.concatenate([rel, [0.0, 1.0]]), return_inverse=True)
        n_groups = self.ds.n_groups
        count = np.zeros((n_groups, len(bp) - 1), dtype=np.int64)
        orders = []
        for g in range(n_groups):
            members = np.nonzero(self.ds.group_of == g)[0]
            order = members[np.argsort(rel[members], kind="stable")]
            # value on (bp[k], bp[k+1]) is the inclusive value at bp[k+1]
            count[g] = len(order) - np.searchsorted(rel[order], bp[1:], side="left")
            order.setflags(write=False)
            orders.append(order)
        fixed = {
            "relevance": rel,
            "breakpoints": bp,
            "count": count,
            "sample_interval": where[: len(rel)],
        }
        for name, arr in fixed.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "orders", tuple(orders))

    def weight_steps(self) -> np.ndarray:
        """dt / count per group and interval, 0 where empty; both W_j sweeps sum these."""
        return np.where(self.count > 0, np.diff(self.breakpoints) / np.maximum(self.count, 1), 0.0)

    def curves(self, preds) -> "SerCurveSet":
        """The curves of one prediction vector: a suffix sum per group, O(n)."""
        err = (check_preds(self.ds, preds) - self.ds.targets) ** 2
        ser = np.zeros(self.count.shape)
        for g, order in enumerate(self.orders):
            suffix = np.concatenate([np.cumsum(err[order][::-1])[::-1], [0.0]])
            # the samples at or above a cutoff are the last ``count`` of the order
            ser[g] = suffix[len(order) - self.count[g]]
        return SerCurveSet(layout=self, ser=ser, sample_sq_error=err)

    def sera(self, preds) -> float:
        """Relevance-weighted squared error via the closed form sum(phi * err^2).

        Swapping the sum and the cutoff integral collapses the curve integral
        to a single weighted sum, which is exact and O(n).
        """
        preds = check_preds(self.ds, preds)
        return float(np.sum(self.relevance * (preds - self.ds.targets) ** 2))


@dataclass(frozen=True)
class SerCurveSet:
    """Step curves of cumulative squared error and sample count per group."""

    layout: CurveLayout
    ser: np.ndarray                # (n_groups, n_intervals)
    sample_sq_error: np.ndarray

    def __post_init__(self):
        self.ser.setflags(write=False)
        self.sample_sq_error.setflags(write=False)

    @property
    def breakpoints(self) -> np.ndarray:
        return self.layout.breakpoints

    @property
    def count(self) -> np.ndarray:
        return self.layout.count

    @property
    def sample_group(self) -> np.ndarray:
        return self.layout.ds.group_of

    @property
    def sample_relevance(self) -> np.ndarray:
        return self.layout.relevance

    @property
    def n_groups(self) -> int:
        return self.ser.shape[0]

    @property
    def interval_widths(self) -> np.ndarray:
        return np.diff(self.breakpoints)

    def values_at(self, ts, group: int):
        """Curve values (ser, count) at cutoffs ``ts``, inclusive semantics."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        order = self.layout.orders[group]
        rel = self.sample_relevance[order]
        err = self.sample_sq_error[order]
        suffix = np.concatenate([np.cumsum(err[::-1])[::-1], [0.0]])
        pos = np.searchsorted(rel, ts, side="left")
        return suffix[pos], (len(rel) - pos).astype(np.int64)

    @cached_property
    def envelope(self) -> Envelope:
        """The curves' :func:`envelope`, kept: ID, IDLoss, the pattern and W_j all read it."""
        return envelope(self.ser, self.count)

    def exposed(self, at=slice(None)) -> np.ndarray:
        """Per group and interval ``at``: populated and not best, where W_j grows."""
        gids = np.arange(self.n_groups)[:, None]
        return (self.count[:, at] > 0) & (self.envelope.best[at] != gids)


def build(ds: GroupedDataset, preds, phi: RelevanceFunction) -> SerCurveSet:
    """One-shot curves of one prediction vector, in O(n log n + |A| n)."""
    return CurveLayout(ds, phi).curves(preds)


def argmin_pattern(curves: SerCurveSet) -> np.ndarray:
    """Best-group id per breakpoint interval; -1 where no group is populated.

    Ties go to the lowest group id. The pattern identifies the analytic
    piece of the divergence loss the current predictions sit on, so two
    prediction vectors with equal patterns share one smooth loss piece.
    """
    return curves.envelope.best


def integrate_step(values, breakpoints) -> float:
    """Exact integral of a step function over its breakpoint span.

    ``values[k]`` holds on [breakpoints[k], breakpoints[k+1]).
    """
    v = np.asarray(values, dtype=float)
    bp = np.asarray(breakpoints, dtype=float)
    if np.any(np.diff(bp) < 0):
        raise InternalError("breakpoints must be sorted ascending")
    widths = np.diff(bp)
    if v.shape[0] != widths.shape[0]:
        raise InternalError(
            f"step values ({v.shape[0]}) do not align with breakpoints ({bp.shape[0]})"
        )
    return float(np.sum(v * widths))


def sera(ds: GroupedDataset, preds, phi: RelevanceFunction) -> float:
    """Relevance-weighted squared error of one prediction vector; see CurveLayout.sera."""
    return CurveLayout(ds, phi).sera(preds)


def sera_from_curves(curves: SerCurveSet) -> float:
    """The same quantity via the pooled-curve integral; dual-method oracle."""
    pooled = curves.ser.sum(axis=0)
    return integrate_step(pooled, curves.breakpoints)


def write_curve_rows(path, header: str, t, fmt: str, groups) -> None:
    """Write ``header`` and, per group g, one row ``t,g,<fmt % values>`` per ``t``.

    ``groups`` yields each group's float64 or int64 value columns. ``t`` is
    formatted once, and a row equal in every bit to the row before reuses its
    formatted values. ``dataset.BLOCK_ROWS`` rows are written at a time.
    """
    n, block = len(t), dataset.BLOCK_ROWS
    t_text = [np.array([b"%.17g" % v for v in t[s:s + block].tolist()]) for s in range(0, n, block)]
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for g, columns in enumerate(groups):
            # changed[i]: row i + 1 differs from row i in some bit
            changed = np.any([c.view(np.uint64)[1:] != c.view(np.uint64)[:-1] for c in columns], 0)
            row = b",%d," % g + fmt.encode() + b"\n"
            for s, t_block in zip(range(0, n, block), t_text):
                head = np.concatenate([[True], changed[s:s + block - 1]])
                tails = [row % r for r in zip(*(c[s:s + block][head].tolist() for c in columns))]
                tails = map(tails.__getitem__, (np.cumsum(head) - 1).tolist())
                fh.write(b"".join(map(operator.add, t_block.tolist(), tails)))


def export_curves(curves: SerCurveSet, path) -> None:
    """Write the curves' ``t,group,ser,count,normalized_ser`` rows with :func:`write_curve_rows`."""
    at = (curves.values_at(curves.breakpoints, g) for g in range(curves.n_groups))
    write_curve_rows(path, "t,group,ser,count,normalized_ser", curves.breakpoints,
                     "%.17g,%d,%.17g", ((s, c, normalize(s, c)) for s, c in at))
