"""Relevance maps from target values to [0, 1].

A relevance function expresses which parts of the target domain matter most:
1 marks the values a user most needs predicted accurately, 0 the values that
barely matter. The map is defined by control points ``(y, relevance, slope)``
and interpolated with a monotone piecewise-cubic Hermite scheme
(Fritsch-Carlson slope limiting), so the interpolant passes through every
control point, never overshoots between neighbouring points, and therefore
never leaves [0, 1]. Outside the outermost control points the value is held
constant.

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
    """Piecewise monotone-cubic map from target values to [0, 1].

    ``y`` holds the strictly increasing control abscissae, ``rel`` the
    relevance at each control point, and ``slope`` the (limited) slopes the
    interpolant actually uses. Instances are immutable and evaluation is
    pure, so they are safe to share across threads.
    """

    y: np.ndarray
    rel: np.ndarray
    slope: np.ndarray

    def __call__(self, values):
        return evaluate(self, values)


def _limit_slopes(y: np.ndarray, rel: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """Fritsch-Carlson limiting: clamp slopes so each segment is monotone.

    Segments with equal endpoint relevance are forced flat; elsewhere slopes
    whose ratio to the secant falls outside the monotone region are scaled
    back onto the circle of radius 3.
    """
    m = slope.astype(float).copy()
    h = np.diff(y)
    delta = np.diff(rel) / h
    for k in range(len(delta)):
        if delta[k] == 0.0:
            m[k] = 0.0
            m[k + 1] = 0.0
            continue
        a = m[k] / delta[k]
        b = m[k + 1] / delta[k]
        if a < 0.0:
            m[k] = 0.0
            a = 0.0
        if b < 0.0:
            m[k + 1] = 0.0
            b = 0.0
        r2 = a * a + b * b
        if r2 > 9.0:
            tau = 3.0 / np.sqrt(r2)
            m[k] = tau * a * delta[k]
            m[k + 1] = tau * b * delta[k]
    return m


def from_points(points, slopes=None) -> RelevanceFunction:
    """Build a relevance function from explicit ``(y, relevance)`` pairs.

    ``slopes`` optionally overrides the per-point slope (default 0 at every
    control point, which already yields a monotone segment). Slopes are run
    through the monotone limiter regardless, so the [0, 1] range invariant
    cannot be broken by an aggressive override.
    """
    pts = sorted((float(p[0]), float(p[1])) for p in points)
    if len(pts) < 2:
        raise ValidationError("need at least 2 control points")
    y = np.array([p[0] for p in pts], dtype=float)
    rel = np.array([p[1] for p in pts], dtype=float)
    if not np.all(np.isfinite(y)) or not np.all(np.isfinite(rel)):
        raise ValidationError("control points must be finite")
    if np.any(np.diff(y) <= 0):
        raise ValidationError("control-point target values must be strictly increasing")
    if np.any(rel < 0.0) or np.any(rel > 1.0):
        raise ValidationError("relevance values must lie in [0, 1]")
    if slopes is None:
        slope = np.zeros_like(y)
    else:
        slope = np.asarray(slopes, dtype=float)
        if slope.shape != y.shape:
            raise ValidationError("slopes must match the number of control points")
    slope = _limit_slopes(y, rel, slope)
    return RelevanceFunction(y=y, rel=rel, slope=slope)


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
    iqr = q3 - q1
    lo = max(q1 - 1.5 * iqr, float(t.min()))
    hi = min(q3 + 1.5 * iqr, float(t.max()))
    if not (lo < med < hi):
        raise ValidationError(
            "degenerate target distribution: boxplot control points collapse "
            f"(lo={lo!r}, median={med!r}, hi={hi!r})"
        )
    return from_points([(lo, 1.0), (med, 0.0), (hi, 1.0)])


def evaluate(phi: RelevanceFunction, values):
    """Evaluate the relevance function; constant outside the control span.

    Accepts a scalar or array; non-finite inputs raise. The result is
    clipped to [0, 1] as a numerical backstop (the limiter already keeps the
    interpolant inside the band).
    """
    v = np.asarray(values, dtype=float)
    scalar = v.ndim == 0
    v = np.atleast_1d(v)
    if not np.all(np.isfinite(v)):
        raise InputError("relevance evaluation requires finite target values")
    y, rel, m = phi.y, phi.rel, phi.slope
    k = np.clip(np.searchsorted(y, v, side="right") - 1, 0, len(y) - 2)
    h = y[k + 1] - y[k]
    s = np.clip((v - y[k]) / h, 0.0, 1.0)
    s2 = s * s
    s3 = s2 * s
    h00 = 2.0 * s3 - 3.0 * s2 + 1.0
    h10 = s3 - 2.0 * s2 + s
    h01 = -2.0 * s3 + 3.0 * s2
    h11 = s3 - s2
    out = h00 * rel[k] + h10 * h * m[k] + h01 * rel[k + 1] + h11 * h * m[k + 1]
    out = np.clip(out, 0.0, 1.0)
    out[v <= y[0]] = rel[0]
    out[v >= y[-1]] = rel[-1]
    return float(out[0]) if scalar else out


def from_file_or_boxplot(path, targets) -> RelevanceFunction:
    """The control points in ``path`` when one is given, else the boxplot rule."""
    return load_points(path) if path else from_boxplot(targets)


def load_points(path) -> RelevanceFunction:
    """Read control points from a CSV whose rows are ``y,relevance`` pairs."""
    pts = []
    with open(path, newline="", encoding="utf-8-sig") as fh, read_errors_as(InputError, path):
        lines = fh.readlines()
    with read_errors_as(ValidationError, path) as watch:
        reader = watch(csv.reader(lines))
        header = next(reader, None)
        if header is None:
            raise ValidationError(f"empty relevance file: {path}")
        for row in reader:
            if not row:
                continue
            try:
                y, rel = row
                pts.append((float(y), float(rel)))
            except ValueError as exc:
                raise ValidationError(f"bad relevance row {row!r} in {path}") from exc
    return from_points(pts)
