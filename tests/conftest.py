"""Shared instance builders and independent oracles for the test suite.

The oracles here deliberately avoid the library's sweep machinery: curve
values come from per-cutoff brute force over the sample list, integrals from
dense midpoint grids, interpolation from a scalar Hermite formula, and CSV
loading from the row-at-a-time loader that the column-wise one replaced,
curves and divergence-loss gradients from the per-call curve build that the
curve layout replaced, curve simplification from the per-group loop that the
per-layout grid replaced, trees from the per-node sorting growth that the
presorted one replaced, and experiment outputs from the per-model fits and
curve builds that the shared ensembles and layouts replaced.
"""
import csv
import logging
import os
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import strategies as st

from interdiv import curves as curves_mod
from interdiv import dataset, harness, metrics, relevance
from interdiv.approx import ApproxParams, SimplifiedCurve, SimplifiedCurveSet
from interdiv.curves import argmin_pattern
from interdiv.dataset import DatasetSchema, GroupedDataset, from_arrays
from interdiv.errors import (
    DegenerateAttributeError,
    EmptyDataError,
    InputError,
    InterdivError,
    ParameterError,
    SchemaError,
    UndefinedMetricError,
)
from interdiv.gbt import BoostParams, Tree
from interdiv.losses import DEFAULT_HESS_FLOOR
from interdiv.relevance import RelevanceFunction, evaluate

log = logging.getLogger(__name__)


def make_instance(rng, n=40, n_attrs=2, noise=1.0, uniform_noise=False):
    """Random grouped instance with every attribute two-sided."""
    y = rng.normal(0.0, 2.0, n)
    prot = rng.integers(0, 2, size=(n, n_attrs))
    combos = np.array(np.meshgrid(*[[0, 1]] * n_attrs)).T.reshape(-1, n_attrs)
    prot[: len(combos)] = combos
    ds = dataset.from_arrays(rng.normal(size=(n, 3)), y, prot)
    phi = relevance.from_boxplot(y)
    if uniform_noise:
        preds = y + rng.uniform(-1.5 * noise, 1.5 * noise, n)
    else:
        preds = y + rng.normal(0.0, noise, n)
    return ds, phi, preds


def make_instance_combos(rng, n, combos, noise=1.0, uniform_noise=True):
    """Instance drawing group labels from an explicit combo list."""
    y = rng.normal(0.0, 2.0, n)
    combos = np.asarray(combos)
    prot = combos[rng.integers(0, len(combos), size=n)]
    prot[: len(combos)] = combos
    ds = dataset.from_arrays(rng.normal(size=(n, 2)), y, prot)
    phi = relevance.from_boxplot(y)
    if uniform_noise:
        preds = y + rng.uniform(-1.5 * noise, 1.5 * noise, n)
    else:
        preds = y + rng.normal(0.0, noise, n)
    return ds, phi, preds


def hermite_scalar(x, x0, x1, v0, v1, m0, m1):
    """Direct cubic Hermite formula on one segment; the interpolation oracle."""
    h = x1 - x0
    s = (x - x0) / h
    h00 = 2 * s**3 - 3 * s**2 + 1
    h10 = s**3 - 2 * s**2 + s
    h01 = -2 * s**3 + 3 * s**2
    h11 = s**3 - s**2
    return h00 * v0 + h10 * h * m0 + h01 * v1 + h11 * h * m1


def brute_ser(ds, preds, phi, t, group):
    """Per-cutoff recomputation of the group curve from the raw definition."""
    rel = np.asarray(phi(ds.targets))
    err = (np.asarray(preds) - ds.targets) ** 2
    mask = (ds.group_of == group) & (rel >= t)
    return float(err[mask].sum()), int(mask.sum())


def grid_normalized_curves(ds, preds, phi, step=1e-4):
    """Normalized curve values at midpoint-grid cutoffs, brute force."""
    rel = np.asarray(phi(ds.targets))
    err = (np.asarray(preds) - ds.targets) ** 2
    mids = np.arange(step / 2, 1.0, step)
    G = ds.n_groups
    vals = np.zeros((G, len(mids)))
    counts = np.zeros((G, len(mids)))
    for g in range(G):
        m = ds.group_of == g
        inc = rel[m][:, None] >= mids[None, :]
        counts[g] = inc.sum(axis=0)
        vals[g] = err[m] @ inc
    norm = np.where(counts > 0, vals / np.maximum(counts, 1), 0.0)
    return mids, norm, counts


def grid_id(ds, preds, phi, step=1e-4):
    """Midpoint-rule integration of the max-min normalized gap."""
    _, norm, counts = grid_normalized_curves(ds, preds, phi, step)
    cand = counts > 0
    nc = cand.sum(axis=0)
    vmax = np.max(np.where(cand, norm, -np.inf), axis=0)
    vmin = np.min(np.where(cand, norm, np.inf), axis=0)
    gap = np.where(nc >= 2, vmax - vmin, 0.0)
    return float(gap.sum() * step)


def grid_idloss(ds, preds, phi, step=1e-4):
    """Midpoint-rule integration of the sum-minus-min normalized curves."""
    _, norm, counts = grid_normalized_curves(ds, preds, phi, step)
    cand = counts > 0
    any_cand = cand.any(axis=0)
    total = np.where(cand, norm, 0.0).sum(axis=0)
    vmin = np.min(np.where(cand, norm, np.inf), axis=0)
    integrand = np.where(any_cand, total - np.where(any_cand, vmin, 0.0), 0.0)
    return float(integrand.sum() * step)


@st.composite
def layout_cases(draw):
    """A dataset with tied targets and possibly empty groups, a relevance
    function with possibly flat stretches, and a sequence of predictions."""
    n_attrs = draw(st.integers(1, 3))
    n = draw(st.integers(2, 40))
    levels = draw(st.lists(st.integers(-20, 20), min_size=1, max_size=n))
    y = np.array(draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))) / 4.0
    bits = st.lists(st.integers(0, 1), min_size=n_attrs, max_size=n_attrs)
    prot = np.array(draw(st.lists(bits, min_size=n, max_size=n)))
    full = dataset.from_arrays(np.zeros((n, 1)), y, prot)
    # a row subset keeps the full catalog, so groups can be empty
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    ds = full.subset(np.nonzero(keep)[0]) if any(keep) else full
    k = draw(st.integers(2, 4))
    knots = sorted(draw(st.lists(st.integers(-24, 24), min_size=k, max_size=k, unique=True)))
    rel = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
                        min_size=k, max_size=k))
    phi = relevance.from_points([(t / 4.0, r) for t, r in zip(knots, rel)])
    noise = st.lists(st.sampled_from([0.0, 0.5, -1.0]) | st.floats(-3.0, 3.0),
                     min_size=ds.n, max_size=ds.n)
    preds = [ds.targets + np.array(draw(noise)) for _ in range(draw(st.integers(1, 4)))]
    return ds, phi, preds


@pytest.fixture
def rng():
    return np.random.default_rng(1729)


def appendix_instance():
    """Four samples, two groups, flat relevance: the non-convexity witness."""
    ds = dataset.from_arrays(
        features=np.zeros((4, 1)),
        targets=[1.0, 2.0, 3.0, 4.0],
        protected=[[1], [1], [0], [0]],
    )
    phi = relevance.from_points([(0.0, 1.0), (5.0, 1.0)])
    return ds, phi


# The row-at-a-time CSV loader as it stood before ``dataset.load_csv`` parsed
# whole columns, kept verbatim as the reference for the differential test.
# Nothing under src/ imports it.
_MISSING_TOKENS = frozenset({"", "na", "n/a", "nan", "null", "none", "?"})


def _is_missing(token: str) -> bool:
    return token.lower() in _MISSING_TOKENS


def _parse_float(token: str):
    try:
        v = float(token)
    except ValueError:
        return None
    return v if np.isfinite(v) else None


def rowwise_load_csv(path, schema: DatasetSchema) -> GroupedDataset:
    """Load an RFC-4180 CSV and index rows by intersectional group.

    Rows whose target or protected value is missing/unparseable are dropped
    (the count is kept on ``n_dropped`` and logged). Feature columns that
    fail to parse as numbers are treated as categorical and one-hot encoded
    in lexicographic category order; unparseable values in numeric feature
    columns are imputed with the column median.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise EmptyDataError(f"no header row in {path}")
        header = [h.strip() for h in header]
        rows = [r for r in reader if r]

    col_index = {name: i for i, name in enumerate(header)}
    for col in (schema.target_column, *schema.protected_columns, *schema.feature_columns):
        if col not in col_index:
            raise SchemaError(f"column {col!r} not found in {path}")

    excluded = {schema.target_column, *schema.protected_columns, *schema.drop_columns}
    if schema.feature_columns:
        feature_cols = list(schema.feature_columns)
    else:
        feature_cols = [c for c in header if c not in excluded]

    t_idx = col_index[schema.target_column]
    p_idx = [col_index[c] for c in schema.protected_columns]
    f_idx = [col_index[c] for c in feature_cols]

    targets = []
    prot_raw = []
    feat_raw = []
    n_dropped = 0
    width = len(header)
    for row in rows:
        if len(row) != width:
            n_dropped += 1
            continue
        y = _parse_float(row[t_idx].strip())
        pvals = [row[i].strip() for i in p_idx]
        if y is None or any(_is_missing(v) for v in pvals):
            n_dropped += 1
            continue
        targets.append(y)
        prot_raw.append(pvals)
        feat_raw.append([row[i].strip() for i in f_idx])

    if not targets:
        raise EmptyDataError(f"zero usable rows in {path}")
    if n_dropped:
        log.info("dropped %d unusable rows while loading %s", n_dropped, path)

    n = len(targets)
    protected = np.zeros((n, len(p_idx)), dtype=np.uint8)
    for j, priv in enumerate(schema.privileged_values):
        col = np.array([prot_raw[i][j] for i in range(n)])
        protected[:, j] = (col == priv).astype(np.uint8)
        observed = np.unique(protected[:, j])
        if observed.size < 2:
            raise DegenerateAttributeError(
                f"protected column {schema.protected_columns[j]!r} has a single "
                "observed value after binarization; group structure collapses"
            )

    blocks = []
    names = []
    for j, cname in enumerate(feature_cols):
        col = [feat_raw[i][j] for i in range(n)]
        parsed = [None if _is_missing(v) else _parse_float(v) for v in col]
        numeric = all(p is not None for p, v in zip(parsed, col) if not _is_missing(v))
        if numeric:
            vals = np.array([p if p is not None else np.nan for p in parsed], dtype=float)
            if np.all(np.isnan(vals)):
                vals = np.zeros(n)
            elif np.any(np.isnan(vals)):
                vals = np.where(np.isnan(vals), np.nanmedian(vals), vals)
            blocks.append(vals.reshape(-1, 1))
            names.append(cname)
        else:
            # categorical: one-hot in lexicographic order; missing rows encode
            # as all-zero (no category matched)
            cats = sorted({v for v in col if not _is_missing(v)})
            onehot = np.zeros((n, len(cats)), dtype=float)
            for k, cat in enumerate(cats):
                onehot[:, k] = [1.0 if v == cat else 0.0 for v in col]
            blocks.append(onehot)
            names.extend(f"{cname}={cat}" for cat in cats)

    X = np.hstack(blocks) if blocks else np.zeros((n, 0))
    return from_arrays(
        X,
        np.array(targets),
        protected,
        feature_names=names,
        protected_names=schema.protected_columns,
        target_name=schema.target_column,
        n_dropped=n_dropped,
    )


# The curve build, count integrals and divergence-loss objective as they
# stood before ``curves.CurveLayout`` split the fixed part of the curves from
# the per-prediction part, kept verbatim (renamed, and returning (grad, hess)
# instead of a GradHess) as the reference for the differential test. Nothing
# under src/ imports them.
@dataclass(frozen=True)
class ParentSerCurveSet:
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


def parent_build(ds: GroupedDataset, preds, phi: RelevanceFunction) -> ParentSerCurveSet:
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
    return ParentSerCurveSet(
        breakpoints=bp,
        ser=ser,
        count=cnt,
        sample_group=grp.copy(),
        sample_relevance=rel,
        sample_sq_error=err,
    )


def _check_preds(ds: GroupedDataset, preds) -> np.ndarray:
    preds = np.asarray(preds, dtype=float)
    if preds.shape != ds.targets.shape:
        raise InputError(
            f"predictions have length {preds.shape}, expected {ds.targets.shape}"
        )
    bad = np.nonzero(~np.isfinite(preds))[0]
    if bad.size:
        raise InputError(f"non-finite prediction at sample index {int(bad[0])}")
    return preds


def _require_two_groups(curves: ParentSerCurveSet) -> None:
    if np.count_nonzero(curves.group_sizes()) < 2:
        raise UndefinedMetricError(
            "divergence loss needs at least 2 populated groups"
        )


def parent_idloss_from_curves(curves: ParentSerCurveSet) -> float:
    """Exact sweep evaluation of the divergence loss from built curves."""
    _require_two_groups(curves)
    norm = curves.normalized()
    cand = curves.count > 0
    any_cand = cand.any(axis=0)
    total = np.where(cand, norm, 0.0).sum(axis=0)
    vmin = np.min(np.where(cand, norm, np.inf), axis=0)
    vmin_safe = np.where(any_cand, vmin, 0.0)
    integrand = np.where(any_cand, total - vmin_safe, 0.0)
    return float(np.sum(integrand * curves.interval_widths))


def parent_idloss_sample_weights(curves: ParentSerCurveSet) -> np.ndarray:
    """The per-sample weights W_j gathering each sample's loss exposure.

    Computed with one sweep over breakpoint intervals: a group's per-interval
    contribution is dt / count whenever the group is populated and not the
    best one, and each sample accumulates the contributions of the intervals
    its relevance reaches. Cost O(n + |A| * intervals).
    """
    pattern = argmin_pattern(curves)
    dt = curves.interval_widths
    cand = curves.count > 0
    gids = np.arange(curves.n_groups)[:, None]
    w = np.where(
        cand & (pattern[None, :] != gids),
        dt[None, :] / np.maximum(curves.count, 1),
        0.0,
    )
    cum = np.concatenate([np.zeros((curves.n_groups, 1)), np.cumsum(w, axis=1)], axis=1)
    pos = np.searchsorted(curves.breakpoints, curves.sample_relevance, side="left")
    return cum[curves.sample_group, pos]


class _CountIntegrals:
    """Prediction-independent pieces of the divergence loss.

    Breakpoints and per-cutoff group counts depend only on the relevances,
    so the cumulative integral F_g(t) = int_0^t dt / |D^s_g| (zero-guarded
    on empty stretches) is computed once per training and evaluated exactly
    later: F_g is piecewise linear between breakpoints.
    """

    def __init__(self, ds: GroupedDataset, phi: RelevanceFunction):
        rel = np.asarray(phi(ds.targets), dtype=float)
        bp = np.unique(np.concatenate([rel, [0.0, 1.0]]))
        n_groups = ds.n_groups
        n_int = len(bp) - 1
        counts = np.zeros((n_groups, n_int), dtype=np.int64)
        for g in range(n_groups):
            rel_g = np.sort(rel[ds.group_of == g])
            pos = np.searchsorted(rel_g, bp[1:], side="left")
            counts[g] = len(rel_g) - pos
        dt = np.diff(bp)
        integrand = np.where(counts > 0, dt / np.maximum(counts, 1), 0.0)
        self.breakpoints = bp
        self.counts = counts
        self.cum = np.concatenate(
            [np.zeros((n_groups, 1)), np.cumsum(integrand, axis=1)], axis=1
        )


class ParentIdLossObjective:
    """Divergence-loss objective with optional simplified-curve gradients.

    Tracks two counters across calls: ``eval_points`` accumulates the number
    of cutoff intervals swept per gradient evaluation (the quantity the
    curve-simplification mode reduces) and ``region_switches`` counts how
    often the best-group pattern changed between consecutive evaluations.
    """

    name = "idloss"

    def __init__(
        self,
        ds: GroupedDataset,
        phi: RelevanceFunction,
        hess_floor: float = DEFAULT_HESS_FLOOR,
        approx_params=None,
    ):
        self._ds = ds
        self._phi = phi
        self.hess_floor = hess_floor
        self.approx_params = approx_params
        self._count_cache = (
            _CountIntegrals(ds, phi) if approx_params is not None else None
        )
        self.eval_points = 0
        self.region_switches = 0
        self._last_pattern = None

    def value(self, preds) -> float:
        return parent_idloss_from_curves(parent_build(self._ds, preds, self._phi))

    def _note_pattern(self, pattern: np.ndarray) -> None:
        prev = self._last_pattern
        if prev is not None and (
            prev.shape != pattern.shape or np.any(prev != pattern)
        ):
            self.region_switches += 1
        self._last_pattern = pattern

    def grad_hess(self, preds):
        preds = _check_preds(self._ds, preds)
        cs = parent_build(self._ds, preds, self._phi)
        _require_two_groups(cs)
        if self.approx_params is None:
            self.eval_points += len(cs.breakpoints) - 1
            self._note_pattern(argmin_pattern(cs))
            w = parent_idloss_sample_weights(cs)
        else:
            w, pattern, n_segments = _simplified_sample_weights(
                cs, self.approx_params, self._count_cache
            )
            self.eval_points += n_segments
            self._note_pattern(pattern)
        grad = 2.0 * (preds - self._ds.targets) * w
        hess = np.maximum(2.0 * w, self.hess_floor)
        return grad, hess


def _simplified_sample_weights(curves: ParentSerCurveSet, params, cache: "_CountIntegrals"):
    """W_j swept over the simplified curves' union grid only.

    Curve simplification picks the significant cutoffs; the sweep then runs
    on that coarse grid instead of every breakpoint. Within a segment the
    best-group identity is held constant, resolved from the true curve
    values at the segment midpoint, and the count integrals come exactly
    from the cached piecewise-linear F_g. The only approximation left is
    the coarse pattern: it can change at segment boundaries, not inside.
    """
    simp = parent_simplify(curves, params)
    grid = np.unique(np.concatenate([c.t for c in simp.curves]))
    n_seg = len(grid) - 1
    mid = 0.5 * (grid[:-1] + grid[1:])
    idx = np.clip(
        np.searchsorted(cache.breakpoints, mid, side="right") - 1,
        0,
        cache.counts.shape[1] - 1,
    )
    cand = cache.counts[:, idx] > 0
    norm = curves.normalized()
    masked = np.where(cand, norm[:, idx], np.inf)
    pattern = np.argmin(masked, axis=0)
    pattern[~cand.any(axis=0)] = -1
    gids = np.arange(curves.n_groups)[:, None]
    mask = cand & (pattern[None, :] != gids)

    f_at_grid = np.stack(
        [np.interp(grid, cache.breakpoints, cache.cum[g]) for g in range(curves.n_groups)]
    )
    df = np.diff(f_at_grid, axis=1)
    cum = np.concatenate(
        [np.zeros((curves.n_groups, 1)), np.cumsum(np.where(mask, df, 0.0), axis=1)],
        axis=1,
    )
    rel = curves.sample_relevance
    seg = np.clip(np.searchsorted(grid, rel, side="right") - 1, 0, n_seg - 1)
    W = np.empty(len(rel))
    for g in range(curves.n_groups):
        members = curves.sample_group == g
        if not members.any():
            continue
        s = seg[members]
        f_r = np.interp(rel[members], cache.breakpoints, cache.cum[g])
        partial = np.where(mask[g, s], f_r - f_at_grid[g, s], 0.0)
        W[members] = cum[g, s] + partial
    return W, pattern.astype(np.int64), n_seg


# Curve simplification as it stood before ``approx.SimplifyGrid`` split the
# part fixed per layout from the per-prediction part, kept verbatim (renamed)
# as the reference for the differential test and for the simplified sweep of
# ``ParentIdLossObjective``. Nothing under src/ imports it.
def parent_resample_step(curves, grid: np.ndarray) -> np.ndarray:
    """Normalized curve values (all groups) on the interval each grid point falls in."""
    norm = curves.normalized()
    idx = np.clip(
        np.searchsorted(curves.breakpoints, grid, side="right") - 1,
        0,
        norm.shape[1] - 1,
    )
    return norm[:, idx]


def parent_gaussian_smooth(values: np.ndarray, sigma_cells: float) -> np.ndarray:
    """Convolve with a +/-4 sigma truncated kernel, renormalized at edges."""
    radius = max(1, int(round(4.0 * sigma_cells)))
    x = np.arange(-radius, radius + 1, dtype=float)
    kernel = np.exp(-0.5 * (x / sigma_cells) ** 2)
    num = np.convolve(values, kernel, mode="same")
    den = np.convolve(np.ones_like(values), kernel, mode="same")
    return num / den


def parent_sign_changes(d: np.ndarray, noise_floor: float) -> np.ndarray:
    # derivative magnitudes at roundoff scale are flattened to exactly zero,
    # so flat stretches cannot flicker sign; this floors numerical noise
    # only, it is not a significance threshold
    d = np.where(np.abs(d) <= noise_floor, 0.0, d)
    s = np.sign(d)
    return np.nonzero(s[:-1] != s[1:])[0]


def parent_simplify(curves, params: ApproxParams) -> SimplifiedCurveSet:
    """Reduce each group's normalized curve to its significant points."""
    n_grid = int(round(1.0 / params.grid_step)) + 1
    if n_grid < 3:
        raise ParameterError(
            f"grid_step={params.grid_step} is coarser than the curve support"
        )
    grid = np.linspace(0.0, 1.0, n_grid)
    h = grid[1] - grid[0]
    sigma_cells = params.sigma / params.grid_step
    resampled = parent_resample_step(curves, grid)
    eps = np.finfo(float).eps
    out = []
    for g in range(curves.n_groups):
        vals = resampled[g]
        smooth = parent_gaussian_smooth(vals, sigma_cells)
        scale = max(1.0, float(np.max(np.abs(smooth))))
        d1 = np.gradient(smooth, grid)
        d2 = np.gradient(d1, grid)
        keep = {0, n_grid - 1}
        keep.update(int(i) for i in parent_sign_changes(d1, 64.0 * eps * scale / h))
        keep.update(int(i) for i in parent_sign_changes(d2, 64.0 * eps * scale / h**2))
        if len(keep) < params.min_points:
            extra = np.linspace(0, n_grid - 1, params.min_points).round().astype(int)
            keep.update(int(i) for i in extra)
        idx = np.array(sorted(keep), dtype=int)
        out.append(SimplifiedCurve(t=grid[idx], value=vals[idx]))
    return SimplifiedCurveSet(curves=tuple(out), grid_size=n_grid)


# Tree growth as it stood before ``gbt.fit`` presorted each feature once and
# partitioned the sorted rows down the tree: every node argsorts every
# feature. Kept verbatim (renamed) as the reference for the differential
# test. Nothing under src/ imports it.
def parent_safe_score(G, H, lam):
    denom = H + lam
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(denom > 0, (G * G) / np.where(denom > 0, denom, 1.0), 0.0)
    return s


def parent_best_split(X, g, h, idx, params: BoostParams):
    """Highest-gain (feature, threshold) for one node; None if no valid split."""
    Gp = float(g[idx].sum())
    Hp = float(h[idx].sum())
    parent = float(parent_safe_score(np.array(Gp), np.array(Hp), params.l2_lambda))
    best_gain = 0.0
    best = None
    for f in range(X.shape[1]):
        xv = X[idx, f]
        order = np.argsort(xv, kind="stable")
        xs = xv[order]
        if xs[0] == xs[-1]:
            continue
        gl = np.cumsum(g[idx][order])[:-1]
        hl = np.cumsum(h[idx][order])[:-1]
        gr = Gp - gl
        hr = Hp - hl
        ok = (xs[1:] > xs[:-1]) & (hl >= params.min_child_hessian) & (
            hr >= params.min_child_hessian
        )
        if not ok.any():
            continue
        gain = parent_safe_score(gl, hl, params.l2_lambda) + parent_safe_score(
            gr, hr, params.l2_lambda
        ) - parent
        gain = np.where(ok, gain, -np.inf)
        i = int(np.argmax(gain))
        if gain[i] > best_gain:
            best_gain = float(gain[i])
            best = (f, 0.5 * (xs[i] + xs[i + 1]))
    return best


def parent_grow_tree(X, g, h, params: BoostParams) -> Tree:
    feature, threshold, left, right, value = [], [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    root = new_node()
    stack = [(root, np.arange(X.shape[0]), 0)]
    while stack:
        nid, idx, depth = stack.pop()
        split = None
        if depth < params.max_depth and len(idx) >= 2:
            split = parent_best_split(X, g, h, idx, params)
        if split is None:
            G = float(g[idx].sum())
            H = float(h[idx].sum())
            denom = H + params.l2_lambda
            value[nid] = -G / denom if denom > 0 else 0.0
            continue
        f, thr = split
        go_left = X[idx, f] <= thr
        feature[nid] = f
        threshold[nid] = thr
        lid = new_node()
        rid = new_node()
        left[nid] = lid
        right[nid] = rid
        stack.append((rid, idx[~go_left], depth + 1))
        stack.append((lid, idx[go_left], depth + 1))
    return Tree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=float),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=np.asarray(value, dtype=float),
    )


# Tree traversal as it stood before ``Tree.predict`` walked every row a fixed
# number of levels: each level finds the rows not yet at a leaf and moves only
# those. Kept verbatim (as a function of the tree) as the reference for the
# differential test. Nothing under src/ imports it.
def parent_tree_predict(tree: Tree, X: np.ndarray) -> np.ndarray:
    node = np.zeros(X.shape[0], dtype=np.int64)
    while True:
        feat = tree.feature[node]
        active = feat >= 0
        if not active.any():
            break
        rows = np.nonzero(active)[0]
        cur = node[rows]
        go_left = X[rows, tree.feature[cur]] <= tree.threshold[cur]
        node[rows] = np.where(go_left, tree.left[cur], tree.right[cur])
    return tree.value[node]


# The experiment runner and the averaged-curve export as they stood before
# ``harness.run`` fitted each distinct ensemble once per run and
# ``harness.export_id_curves`` built each run's test layout once: every model
# is fitted on its own (a dual ensemble through ``idboost.fit``) and every
# model x run splits the data and builds its curves again. Kept verbatim
# (renamed, with the harness helpers they call qualified) as the reference
# for the differential test. Nothing under src/ imports them.
def parent_run(cfg):
    """Execute the experiment; returns (RankTable, raw metric rows)."""
    ds = dataset.load_csv(cfg.data, cfg.schema)
    os.makedirs(cfg.out_dir, exist_ok=True)
    n_models = len(cfg.models)
    n_metrics = len(cfg.metric_names)
    raw_rows = []
    values = np.full((cfg.n_runs, n_models, n_metrics), np.inf)
    for r in range(cfg.n_runs):
        train, test, phi = harness._split(ds, cfg, r)
        run_dir = os.path.join(cfg.out_dir, f"run_{r}")
        os.makedirs(run_dir, exist_ok=True)
        for m, name in enumerate(cfg.models):
            status = "ok"
            try:
                _, objective, w = harness._parse_model_name(name)
                model = harness.fit_model(train, phi, cfg.boost, objective, w,
                                          cfg.huber_delta, cfg.fast)
                preds = model.predict(test.features)
                report = metrics.full_report(test, preds, phi)
                for k, metric in enumerate(cfg.metric_names):
                    values[r, m, k] = harness._report_metric(report, metric)
                np.savetxt(
                    os.path.join(run_dir, f"preds_{name}.csv"),
                    preds,
                    fmt="%.17g",
                    header="pred",
                    comments="",
                )
                model.to_json(os.path.join(run_dir, f"model_{name}.json"))
            except InterdivError as exc:
                status = f"failed: {exc}"
            raw_rows.append(
                {
                    "run": r,
                    "seed": cfg.base_seed + r,
                    "model": name,
                    "status": status,
                    **{
                        metric: values[r, m, k]
                        for k, metric in enumerate(cfg.metric_names)
                    },
                }
            )
    ranks = np.empty_like(values)
    for r in range(cfg.n_runs):
        for k in range(n_metrics):
            ranks[r, :, k] = harness.rank_with_ties(values[r, :, k])
    table = harness.RankTable(
        models=cfg.models,
        metric_names=cfg.metric_names,
        mean=ranks.mean(axis=0),
        std=ranks.std(axis=0, ddof=1) if cfg.n_runs > 1 else np.zeros((n_models, n_metrics)),
        ranks=ranks,
    )
    harness._write_raw_csv(os.path.join(cfg.out_dir, "raw_metrics.csv"), cfg, raw_rows)
    table.to_csv(os.path.join(cfg.out_dir, "ranks.csv"))
    return table, raw_rows


def parent_export_id_curves(cfg) -> dict:
    """Average each model's normalized group curves across completed runs."""
    ds = dataset.load_csv(cfg.data, cfg.schema)
    missing = []
    for r in range(cfg.n_runs):
        for name in cfg.models:
            p = os.path.join(cfg.out_dir, f"run_{r}", f"preds_{name}.csv")
            if not os.path.exists(p):
                missing.append(f"run_{r}/{name}")
    if missing:
        raise InputError(
            "missing saved predictions for: " + ", ".join(missing)
        )
    curve_dir = os.path.join(cfg.out_dir, "curves")
    os.makedirs(curve_dir, exist_ok=True)
    out = {}
    for name in cfg.models:
        per_run = []
        for r in range(cfg.n_runs):
            _, test, phi = harness._split(ds, cfg, r)
            preds = np.atleast_1d(
                np.loadtxt(
                    os.path.join(cfg.out_dir, f"run_{r}", f"preds_{name}.csv"),
                    skiprows=1,
                )
            )
            per_run.append(curves_mod.build(test, preds, phi))
        grid = np.unique(np.concatenate([c.breakpoints for c in per_run]))
        ts = grid.tolist()
        path = os.path.join(curve_dir, f"{name}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,group,normalized_ser\n")
            for g in range(ds.n_groups):
                acc = np.zeros(len(grid))
                for cs in per_run:
                    ser_v, cnt_v = cs.values_at(grid, g)
                    acc += np.where(cnt_v > 0, ser_v / np.maximum(cnt_v, 1), 0.0)
                acc /= len(per_run)
                # one formatted block and one write per group, as in export_curves
                fh.write("".join(f"{t:.17g},{g},{v:.17g}\n" for t, v in zip(ts, acc.tolist())))
        out[name] = path
    return out
