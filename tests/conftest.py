"""Shared instance builders and independent oracles for the test suite.

The oracles here deliberately avoid the library's sweep machinery: curve
values come from per-cutoff brute force over the sample list, integrals from
dense midpoint grids, interpolation from a scalar Hermite formula, and CSV
loading from the row-at-a-time loader that the column-wise one replaced.
"""
import csv
import logging

import numpy as np
import pytest

from interdiv import dataset, relevance
from interdiv.dataset import DatasetSchema, GroupedDataset, from_arrays
from interdiv.errors import DegenerateAttributeError, EmptyDataError, SchemaError

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
