"""Per-group squared-error curves over relevance cutoffs, integrated exactly.

For a cutoff ``t`` in [0, 1], a sample contributes its squared error to every
group curve value at cutoffs up to and including its own relevance. Each
curve is therefore a non-increasing step function of ``t`` that only changes
at observed sample relevances, so every integral over ``t`` of a functional
of these curves can be computed exactly by sweeping the breakpoints: no
quadrature grid, no discretization error.

The step functions take interval values: ``ser[g, k]`` and ``count[g, k]``
are the group-g curve value on the open interval between ``breakpoints[k]``
and ``breakpoints[k + 1]``. Pointwise evaluation at a cutoff ``t``
(inclusive, samples with relevance >= t) is provided separately for
oracle-style comparisons and curve export.

Everything except the squared errors depends on the targets alone. A
:class:`CurveLayout` holds that fixed part for one dataset and relevance
function: relevances, breakpoints, each group's relevance sort order and
the samples in interval order. ``layout.curves(preds)`` adds the
per-prediction part, one suffix sum of squared errors per group, so a
training loop builds the layout once and pays O(n) per round. The
divergence objective does so, and its ``grad_hess`` returns the loss value
from the same curves, so a boosting round builds them once.

Neither keeps a (groups, intervals) table. :meth:`CurveLayout.sweep` runs
over all intervals in blocks of at most :data:`SWEEP_CELLS` group-interval
cells: a block's counts come from one ``bincount`` of the samples whose
intervals it spans plus each group's count carried from the blocks before,
and its curve values from a gather from the suffix sums. So a call needs
O(rows + groups x block) memory. :meth:`CurveLayout.count_at` looks up the
counts on a few intervals from each group's sorted relevances instead.
Every reduction over groups goes through one :class:`Envelope`, filled
block by block: per interval, the number of populated groups, the best
one, and their lowest, highest and summed normalized value. ID integrates
highest minus lowest, the divergence loss sums minus lowest, and its
gradient holds the best group fixed; the curve set keeps the envelope's
per-interval vectors, so they all share them.
"""
from __future__ import annotations

import operator
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import dataset
from .dataset import GroupedDataset
from .errors import InputError, UndefinedMetricError
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


def check_error_sum(ds: GroupedDataset, preds, undefined: str) -> None:
    """Raise ``InputError`` unless the running sum of the squared errors of
    the finite ``preds`` on ``ds``, in row order, stays finite.

    The error names the measures that would be ``undefined`` and the first
    sample index at which the sum overflows. Below that bound each squared
    error is finite, and so are the error measures and curves that sum them.
    """
    with np.errstate(over="ignore"):
        running = preds - ds.targets
        np.cumsum(np.square(running, out=running), out=running)
    at = int(np.searchsorted(running, np.inf))  # the sum never falls
    if at < len(running):
        raise InputError(f"{undefined} are undefined: the sum of squared errors "
                         f"overflows at sample index {at}")


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


def _new_envelope(n: int) -> Envelope:
    return Envelope(*(np.empty(n, t) for t in (np.int64, np.intp, float, float, float)))


def _fill_envelope(buf, count, out: Envelope) -> None:
    """Write into ``out`` the envelope of the curve values ``buf``, which it
    divides by ``count`` in place."""
    # one buffer of ser / count; each reduction refills only the empty cells,
    # with a value it skips, so no masked copy of the curves is made
    empty = count == 0
    np.subtract(len(count), empty.sum(axis=0, out=out.populated), out=out.populated)
    with np.errstate(invalid="ignore", divide="ignore"):
        np.divide(buf, count, out=buf)
    np.copyto(buf, -np.inf, where=empty)
    buf.max(axis=0, out=out.high)
    np.copyto(buf, np.inf, where=empty)
    buf.min(axis=0, out=out.low)
    # the first group at the minimum: argmin along axis 0 would copy the buffer
    np.argmax(buf == out.low, axis=0, out=out.best)
    np.copyto(buf, 0.0, where=empty)
    buf.sum(axis=0, out=out.total)
    none = out.populated == 0
    out.best[none], out.low[none], out.high[none] = -1, 0.0, 0.0


# The most group-interval cells a block of a sweep holds: 512 KB of float64.
# On 20k rows, exact grad_hess ran as fast at 2**16 as at 2**17 and 2**18
# for 4, 64 and 256 groups, and its traced peak was 0.15 MB lower at 4
# groups and 6.5 MB lower at 256 than at 2**18. A block is at least two
# intervals wide, whatever the group count: numpy sums the groups of a
# one-interval block pairwise from 8 groups on, and those of a wider block
# in sequence, as it does for the whole table, so every block's envelope
# keeps the bits of the whole table's.
SWEEP_CELLS = 2**16


def exposed(best, count) -> np.ndarray:
    """Per group and interval, where the groups have ``count`` samples and
    ``best`` is the best group: populated and not best, where W_j grows."""
    out = count > 0
    out &= best != np.arange(len(count))[:, None]
    return out


@dataclass(frozen=True)
class CurveLayout:
    """The prediction-independent part of the curves of one dataset.

    ``orders[g]`` lists group g's sample indices in stable relevance order;
    ``sample_interval[j]`` is the index of sample j's relevance among the
    breakpoints; ``by_interval`` lists every sample in stable interval
    order, and ``sorted_interval`` and ``sorted_group`` their intervals and
    groups. A curve set's suffix sums of group g sit at positions
    ``starts[g]`` to ``ends[g]``, one per sample in ``orders[g]`` and a
    closing 0.0. Each group's count on an interval is ``ends[g]`` less its
    position past the samples at or below the interval, so :meth:`sweep`
    derives the counts of a block of intervals from the samples in it, and
    no count table is kept.
    """

    ds: GroupedDataset
    phi: InitVar[RelevanceFunction]
    relevance: np.ndarray = field(init=False)
    breakpoints: np.ndarray = field(init=False)      # ascending, first 0.0, last 1.0
    orders: tuple = field(init=False)
    sample_interval: np.ndarray = field(init=False)
    by_interval: np.ndarray = field(init=False)
    sorted_interval: np.ndarray = field(init=False)
    sorted_group: np.ndarray = field(init=False)
    starts: np.ndarray = field(init=False)
    ends: np.ndarray = field(init=False)

    def __post_init__(self, phi: RelevanceFunction):
        rel = np.asarray(evaluate(phi, self.ds.targets), dtype=float)
        bp, where = np.unique(np.concatenate([rel, [0.0, 1.0]]), return_inverse=True)
        where = where[: len(rel)]
        orders = []
        for g in range(self.ds.n_groups):
            members = np.nonzero(self.ds.group_of == g)[0]
            order = members[np.argsort(rel[members], kind="stable")]
            order.setflags(write=False)
            orders.append(order)
        by_interval = np.argsort(where, kind="stable")
        ends = np.cumsum(self.ds.group_counts() + 1) - 1
        fixed = {
            "relevance": rel,
            "breakpoints": bp,
            "sample_interval": where,
            "by_interval": by_interval,
            "sorted_interval": where[by_interval],
            "sorted_group": self.ds.group_of[by_interval],
            "starts": ends - self.ds.group_counts(),
            "ends": ends,
        }
        for name, arr in fixed.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "orders", tuple(orders))

    def sweep(self):
        """Per block of the intervals, each group's suffix position past its
        samples at or below each of them.

        Yields ``(cols, rows, pos)``: ``cols`` slices the intervals, ``rows``
        slices :attr:`by_interval` to the samples whose intervals the block
        is the first to reach, and ``pos[g, i]`` is ``starts[g]`` plus the
        number of group g's samples whose interval is at most
        ``cols.start + i``: the group's count on that interval is
        ``ends[g] - pos[g, i]``, and its curve value the suffix sum at
        ``pos[g, i]``. A block holds at most :data:`SWEEP_CELLS` cells or two
        intervals, and the last block one interval more; its positions come
        from one ``bincount`` of its samples and the positions carried from
        the block before.
        """
        n_groups = self.ds.n_groups
        n_cols = len(self.breakpoints) - 1
        width = max(2, SWEEP_CELLS // max(n_groups, 1))
        firsts = range(0, max(n_cols - 1, 1), width)
        carry = self.starts
        lo = 0
        for c0, c1 in zip(firsts, [*firsts[1:], n_cols]):
            hi = int(np.searchsorted(self.sorted_interval, c1 - 1, side="right"))
            rows = slice(lo, hi)
            col = self.sorted_interval[rows] - c0
            col += self.sorted_group[rows] * (c1 - c0)
            pos = np.bincount(col, minlength=n_groups * (c1 - c0)).reshape(n_groups, -1)
            del col
            np.cumsum(pos, axis=1, out=pos)
            pos += carry[:, None]
            carry = pos[:, -1].copy()
            yield slice(c0, c1), rows, pos
            lo = hi

    def count_at(self, ks) -> np.ndarray:
        """Each group's count on the intervals ``ks``, (groups, len(ks))."""
        # value on (bp[k], bp[k+1]) is the inclusive value at bp[k+1]
        cuts = self.breakpoints[np.asarray(ks) + 1]
        return np.stack([len(order) - np.searchsorted(self.relevance[order], cuts, side="left")
                         for order in self.orders])

    def curves(self, preds) -> "SerCurveSet":
        """The curves of one prediction vector: a suffix sum per group, O(n)."""
        err = check_preds(self.ds, preds) - self.ds.targets
        np.square(err, out=err)
        suffix = np.zeros(len(err) + len(self.orders))
        for start, order in zip(self.starts.tolist(), self.orders):
            # the samples at or above a cutoff are the last ``count`` of the order
            suffix[start:start + len(order)] = np.cumsum(err[order][::-1])[::-1]
        return SerCurveSet(layout=self, suffix=suffix)

    def sera(self, preds) -> float:
        """Relevance-weighted squared error via the closed form sum(phi * err^2).

        Swapping the sum and the cutoff integral collapses the curve integral
        to a single weighted sum, which is exact and O(n).
        """
        preds = check_preds(self.ds, preds)
        return float(np.sum(self.relevance * (preds - self.ds.targets) ** 2))


@dataclass(frozen=True)
class SerCurveSet:
    """Step curves of cumulative squared error and sample count per group.

    ``suffix`` holds each group's suffix sums of squared error in relevance
    order, at the positions ``layout.starts[g]`` to ``layout.ends[g]``.
    """

    layout: CurveLayout
    suffix: np.ndarray

    def __post_init__(self):
        self.suffix.setflags(write=False)

    @property
    def breakpoints(self) -> np.ndarray:
        return self.layout.breakpoints

    @property
    def ser(self) -> np.ndarray:
        """The dense (groups, intervals) curve table, for the pooled-curve oracle."""
        return self.suffix[np.hstack([pos for _, _, pos in self.layout.sweep()])]

    @property
    def n_groups(self) -> int:
        return self.layout.ds.n_groups

    @property
    def interval_widths(self) -> np.ndarray:
        return np.diff(self.breakpoints)

    def values_at(self, ts, group: int):
        """Curve values (ser, count) at cutoffs ``ts``, inclusive semantics."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        order = self.layout.orders[group]
        pos = np.searchsorted(self.layout.relevance[order], ts, side="left")
        return self.suffix[self.layout.starts[group] + pos], (len(order) - pos).astype(np.int64)

    def sweep(self):
        """Per block of all intervals, ``(cols, rows, count, best)``: ``cols``
        and ``rows`` as in :meth:`CurveLayout.sweep`, each group's count on
        the block's intervals and the best group on each.

        The block's envelope is taken on the way, and the first sweep to end
        keeps the whole envelope, so it is computed once per curve set
        whichever of ID, IDLoss and W_j reads it first.
        """
        env = _new_envelope(len(self.breakpoints) - 1)
        ends = self.layout.ends[:, None]
        for cols, rows, pos in self.layout.sweep():
            # the positions become the counts, in place, once the values are read
            _fill_envelope(self.suffix[pos], np.subtract(ends, pos, out=pos),
                           Envelope(*(a[cols] for a in env)))
            yield cols, rows, pos, env.best[cols]
        for a in env:
            a.setflags(write=False)
        self.__dict__.setdefault("envelope", env)

    @cached_property
    def envelope(self) -> Envelope:
        """The curves' :class:`Envelope`, swept block by block and kept: ID,
        IDLoss, the pattern and W_j all read it."""
        for _ in self.sweep():
            pass
        return self.__dict__["envelope"]


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


def sera(ds: GroupedDataset, preds, phi: RelevanceFunction) -> float:
    """Relevance-weighted squared error of one prediction vector; see CurveLayout.sera."""
    return CurveLayout(ds, phi).sera(preds)


def sera_from_curves(curves: SerCurveSet) -> float:
    """The same quantity via the pooled-curve integral; dual-method oracle."""
    return float(np.sum(curves.ser.sum(axis=0) * curves.interval_widths))


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
