"""Relevance maps from target values to [0, 1].

A relevance function expresses which parts of the target domain matter most:
1 marks the values a user most needs predicted accurately, 0 the values that
barely matter. The map is defined by control points ``(y, relevance)`` and
interpolated by cubic Hermite segments with zero slope at every control
point, so each segment runs monotonically from one control point's
relevance to the next, passes through both and never leaves [0, 1].
Outside the outermost control points the value is held constant.

Control points can be supplied directly (domain knowledge) or inferred from
boxplot statistics of an observed target sample, in which case the median
gets relevance 0 and the whisker endpoints relevance 1.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ValidationError, read_errors_as


@dataclass(frozen=True)
class RelevanceFunction:
    """Piecewise zero-slope cubic map from target values to [0, 1].

    ``y`` holds the strictly increasing control abscissae and ``rel`` the
    relevance at each control point. Instances are immutable and evaluation
    is pure, so they are safe to share across threads.
    """

    y: np.ndarray
    rel: np.ndarray

    def __call__(self, values):
        return evaluate(self, values)


def from_points(points) -> RelevanceFunction:
    """Build a relevance function from explicit ``(y, relevance)`` pairs.

    The gap between neighbouring control points must be a finite number.
    """
    pts = sorted((float(p[0]), float(p[1])) for p in points)
    if len(pts) < 2:
        raise ValidationError("need at least 2 control points")
    y = np.array([p[0] for p in pts], dtype=float)
    rel = np.array([p[1] for p in pts], dtype=float)
    if not np.all(np.isfinite(y)) or not np.all(np.isfinite(rel)):
        raise ValidationError("control points must be finite")
    with np.errstate(over="ignore"):
        gaps = np.diff(y)
    if not np.all(np.isfinite(gaps)):
        raise ValidationError("gaps between control-point target values must be finite")
    if np.any(gaps <= 0):
        raise ValidationError("control-point target values must be strictly increasing")
    if np.any(rel < 0.0) or np.any(rel > 1.0):
        raise ValidationError("relevance values must lie in [0, 1]")
    return RelevanceFunction(y=y, rel=rel)


def from_boxplot(targets) -> RelevanceFunction:
    """Infer a relevance function from boxplot statistics of a target sample.

    Control points: relevance 1 at both whisker endpoints (Q1 - 1.5 IQR and
    Q3 + 1.5 IQR, clamped to the observed min/max so relevance 1 is
    attainable by real samples) and relevance 0 at the median. Quantiles use
    the linear-interpolation (type-7) definition.
    """
    t = np.asarray(targets, dtype=float)
    if t.ndim != 1 or t.size == 0 or not np.all(np.isfinite(t)):
        raise InputError("targets must be a finite 1-d array")
    if np.unique(t).size < 5:
        raise ValidationError("need at least 5 distinct target values for boxplot inference")
    q1, med, q3 = np.quantile(t, [0.25, 0.5, 0.75])
    # a whisker past the float range is inf, which the clamp takes
    with np.errstate(over="ignore"):
        iqr = q3 - q1
        lo = max(q1 - 1.5 * iqr, float(t.min()))
        hi = min(q3 + 1.5 * iqr, float(t.max()))
        gaps = np.array([med - lo, hi - med])
    if not (lo < med < hi):
        raise ValidationError(
            "degenerate target distribution: boxplot control points collapse "
            f"(lo={lo!r}, median={med!r}, hi={hi!r})"
        )
    if not np.all(np.isfinite(gaps)):
        raise ValidationError(
            f"the targets span {float(t.min())!r} to {float(t.max())!r}: the gap from their "
            "median to a boxplot whisker leaves the float range; rescale the target column"
        )
    return from_points([(lo, 1.0), (med, 0.0), (hi, 1.0)])


def evaluate(phi: RelevanceFunction, values):
    """Evaluate the relevance function; constant outside the control span.

    On the segment ``[y[k], y[k+1]]`` with ``s = (v - y[k]) / (y[k+1] - y[k])``
    the value is ``(2s³ - 3s² + 1)·rel[k] + (-2s³ + 3s²)·rel[k+1]``: the
    cubic Hermite segment with zero slope at both ends. ``s`` is clipped to
    [0, 1], which holds the end relevances outside the span. Accepts a
    scalar or array; non-finite inputs raise. The result is clipped to
    [0, 1] as a numerical backstop against rounding of the two weights.
    """
    v = np.asarray(values, dtype=float)
    scalar = v.ndim == 0
    v = np.atleast_1d(v)
    if not np.all(np.isfinite(v)):
        raise InputError("relevance evaluation requires finite target values")
    y, rel = phi.y, phi.rel
    k = np.clip(np.searchsorted(y, v, side="right") - 1, 0, len(y) - 2)
    # far outside a narrow segment the ratio overflows to ±inf, which the clip takes
    with np.errstate(over="ignore"):
        s = np.clip((v - y[k]) / (y[k + 1] - y[k]), 0.0, 1.0)
    s2 = s * s
    s3 = s2 * s
    out = (2.0 * s3 - 3.0 * s2 + 1.0) * rel[k] + (-2.0 * s3 + 3.0 * s2) * rel[k + 1]
    out = np.clip(out, 0.0, 1.0)
    return float(out[0]) if scalar else out


def from_file_or_boxplot(path, targets) -> RelevanceFunction:
    """The control points in ``path`` when one is given, else the boxplot rule."""
    return load_points(path) if path else from_boxplot(targets)


def is_number(cell) -> bool:
    """Whether ``float`` reads ``cell`` as a number."""
    try:
        float(cell)
    except ValueError:
        return False
    return True


def load_points(path) -> RelevanceFunction:
    """Read control points from a CSV: a two-name header, then ``y,relevance`` rows."""
    pts = []
    with open(path, newline="", encoding="utf-8-sig") as fh, read_errors_as(InputError, path):
        lines = fh.readlines()
    with read_errors_as(ValidationError, path) as watch:
        reader = watch(csv.reader(lines))
        header = next(reader, None)
        if header is None:
            raise ValidationError(f"empty relevance file: {path}")
        if len(header) != 2 or all(map(is_number, header)):
            raise ValidationError(
                f"bad relevance header {header!r} in {path}: "
                "expected two column names, such as y,relevance"
            )
        for row in reader:
            if not row:
                continue
            try:
                y, rel = row
                pts.append((float(y), float(rel)))
            except ValueError as exc:
                raise ValidationError(f"bad relevance row {row!r} in {path}") from exc
    return from_points(pts)
