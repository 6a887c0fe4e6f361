"""Independent reference computations for the benchmark's output checks.

Written from the definitions in the paper and ``docs/formats.md``, with
numpy only; nothing here imports ``interdiv``. Used outside the timed
commands to check what the commands wrote.
"""
from __future__ import annotations

import numpy as np


def leaf_of(tree: dict, X: np.ndarray) -> np.ndarray:
    """Node each row of ``X`` ends in; ``feature`` is -1 at leaves."""
    feature = np.asarray(tree["feature"], dtype=np.int64)
    threshold = np.asarray(tree["threshold"], dtype=float)
    left = np.asarray(tree["left"], dtype=np.int64)
    right = np.asarray(tree["right"], dtype=np.int64)
    rows = np.arange(X.shape[0])
    node = np.zeros(X.shape[0], dtype=np.int64)
    for _ in range(len(feature)):  # a valid tree is never deeper than its size
        f = feature[node]
        if np.all(f < 0):
            break
        step = np.where(X[rows, f.clip(0)] <= threshold[node], left[node], right[node])
        node = np.where(f >= 0, step, node)
    return node


def predict_ensemble(doc: dict, X: np.ndarray) -> np.ndarray:
    """Sum the leaf values of every tree of an ``interdiv-ensemble`` document."""
    out = np.full(X.shape[0], float(doc["base_score"]))
    rate = float(doc["params"]["learning_rate"])
    for tree in doc["trees"]:
        out += rate * np.asarray(tree["value"], dtype=float)[leaf_of(tree, X)]
    return out


def predict_model(doc: dict, X: np.ndarray) -> np.ndarray:
    """Predictions of an ensemble or dual-ensemble (``idboost``) document."""
    if doc["format"] == "interdiv-ensemble":
        return predict_ensemble(doc, X)
    w = float(doc["w"])
    return w * predict_ensemble(doc["id_ensemble"], X) + (1.0 - w) * predict_ensemble(
        doc["sera_ensemble"], X
    )


def boxplot_relevance(targets: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Boxplot relevance: 1 at the clamped whiskers, 0 at the median.

    Between control points the map is the cubic Hermite segment with zero
    end slopes: ``2 s^3 - 3 s^2 + 1`` falling to the median and
    ``3 s^2 - 2 s^3`` rising from it. It is constant outside the whiskers.
    The basis polynomials are evaluated term by term so that equal targets
    give equal relevance, and the breakpoint count can be compared exactly.
    """
    q1, med, q3 = np.quantile(targets, [0.25, 0.5, 0.75])
    lo = max(q1 - 1.5 * (q3 - q1), float(targets.min()))
    hi = min(q3 + 1.5 * (q3 - q1), float(targets.max()))
    v = np.asarray(values, dtype=float)
    upper = v >= med
    a = np.where(upper, med, lo)
    b = np.where(upper, hi, med)
    s = np.clip((v - a) / (b - a), 0.0, 1.0)
    s2 = s * s
    s3 = s2 * s
    return np.where(upper, -2.0 * s3 + 3.0 * s2, 2.0 * s3 - 3.0 * s2 + 1.0)


def group_ids(A: np.ndarray) -> np.ndarray:
    """One id per observed combination of protected values (any order)."""
    return np.unique(A, axis=0, return_inverse=True)[1].ravel()


def curve_table(rel: np.ndarray, sq_err: np.ndarray, group: np.ndarray):
    """Breakpoints plus per-group suffix sums of squared error and counts.

    Interval k, between breakpoints k and k+1, holds the samples whose
    relevance reaches breakpoint k+1: the sorted suffix from that point on.
    """
    bp = np.unique(np.concatenate([rel, [0.0, 1.0]]))
    n_groups = int(group.max()) + 1
    ser = np.zeros((n_groups, len(bp) - 1))
    cnt = np.zeros((n_groups, len(bp) - 1))
    for g in range(n_groups):
        order = np.argsort(rel[group == g])
        rel_g = rel[group == g][order]
        suffix = np.append(np.cumsum(sq_err[group == g][order][::-1])[::-1], 0.0)
        first = np.searchsorted(rel_g, bp[1:], side="left")
        ser[g] = suffix[first]
        cnt[g] = len(rel_g) - first
    return bp, ser, cnt


def divergence(bp, ser, cnt) -> float:
    """Area between the worst and best populated normalized group curves."""
    live = cnt > 0
    norm = np.where(live, ser / np.maximum(cnt, 1), 0.0)
    gap = np.max(np.where(live, norm, -np.inf), axis=0) - np.min(
        np.where(live, norm, np.inf), axis=0
    )
    gap = np.where(live.sum(axis=0) >= 2, gap, 0.0)
    return float(np.sum(gap * np.diff(bp)))


def report(y, A, preds, relevance_targets=None) -> dict:
    """``mse``, ``sera``, ``id`` and the breakpoint count of one prediction vector.

    Relevance comes from the boxplot of ``relevance_targets`` (default: the
    scored targets themselves, as ``interdiv audit`` does).
    """
    ref = y if relevance_targets is None else relevance_targets
    rel = boxplot_relevance(ref, y)
    sq_err = (preds - y) ** 2
    group = group_ids(A)
    bp, ser, cnt = curve_table(rel, sq_err, group)
    return {
        "mse": float(np.mean(sq_err)),
        "sera": float(np.sum(rel * sq_err)),
        "id": divergence(bp, ser, cnt),
        "breakpoints": bp,
        "n_groups": int(group.max()) + 1,
    }


def split(n: int, train_ratio: float, seed: int):
    """Train and test row ids of the documented plain shuffled split."""
    perm = np.random.default_rng(seed).permutation(n)
    k = int(train_ratio * n)
    return np.sort(perm[:k]), np.sort(perm[k:])


def close(a, b, rel_tol: float) -> bool:
    """True when every ``|a - b|`` is within ``rel_tol`` times the largest ``|b|``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or not np.all(np.isfinite(a)):
        return False
    scale = max(float(np.max(np.abs(b))), np.finfo(float).tiny) if b.size else 1.0
    return bool(np.all(np.abs(a - b) <= rel_tol * scale))
