"""Fairness and performance measures for grouped regression predictions.

The headline measure is the intersectional divergence: the exact integral
over relevance cutoffs of the gap between the worst- and best-served group's
normalized squared error. It is complemented by the classic single-attribute
measures (mean-absolute-error gap and Kolmogorov-Smirnov statistical parity),
plain MSE/MAE, the relevance-weighted error, and a conditioned MAE-delta
table that shows how single-attribute unfairness shifts across the other
attribute's groups.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import curves as curves_mod
from .curves import SerCurveSet
from .dataset import GroupedDataset
from .errors import InputError, InterdivError, UndefinedMetricError
from .relevance import RelevanceFunction


def intersectional_divergence(curves: SerCurveSet) -> float:
    """Exact area between the max and min normalized group curves.

    At each cutoff only groups that still have samples are candidates; on
    stretches where fewer than two groups remain the integrand is zero. The
    result is nonnegative and zero exactly when all populated groups share
    one normalized curve.
    """
    curves_mod.require_two_groups(curves.layout.ds, "intersectional divergence")
    env = curves.envelope
    gap = np.where(env.populated >= 2, env.high - env.low, 0.0)
    return float(np.sum(gap * curves.interval_widths))


def mse(ds: GroupedDataset, preds) -> float:
    return float(np.mean((np.asarray(preds, dtype=float) - ds.targets) ** 2))


def mae(ds: GroupedDataset, preds) -> float:
    return float(np.mean(np.abs(np.asarray(preds, dtype=float) - ds.targets)))


def _attribute_masks(ds: GroupedDataset, attribute_index: int):
    if not 0 <= attribute_index < ds.protected.shape[1]:
        raise InputError(f"no protected attribute at index {attribute_index}")
    bits = ds.protected[:, attribute_index]
    priv = bits == 1
    unpriv = bits == 0
    if not priv.any() or not unpriv.any():
        raise UndefinedMetricError(
            f"attribute {attribute_index} is one-sided; measure undefined"
        )
    return priv, unpriv


def delta_bgl(ds: GroupedDataset, preds, attribute_index: int) -> float:
    """Absolute MAE gap between one attribute's privileged/unprivileged sides."""
    preds = np.asarray(preds, dtype=float)
    priv, unpriv = _attribute_masks(ds, attribute_index)
    abs_err = np.abs(preds - ds.targets)
    return float(abs(abs_err[priv].mean() - abs_err[unpriv].mean()))


def ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup_x |F_a(x) - F_b(x)|."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise InputError("KS statistic needs two non-empty samples")
    xs = np.concatenate([a, b])
    fa = np.searchsorted(a, xs, side="right") / a.size
    fb = np.searchsorted(b, xs, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def statistical_parity(ds: GroupedDataset, preds, attribute_index: int) -> float:
    """KS distance between predicted-value distributions of one attribute."""
    preds = np.asarray(preds, dtype=float)
    priv, unpriv = _attribute_masks(ds, attribute_index)
    return ks_statistic(preds[priv], preds[unpriv])


def group_mae_delta_pct(
    ds: GroupedDataset, preds, measure_attr: int, condition_attr: int
):
    """MAE gap of ``measure_attr``, overall and within each side of ``condition_attr``.

    Each row reports the privileged/unprivileged MAE for the measured
    attribute and the percentage gap (MAE_priv - MAE_unpriv) / MAE_unpriv,
    so positive values mean the unprivileged side has lower error. Rows for
    an empty conditioned subgroup are flagged rather than raised, and so is
    a percentage past the float range (``overflow``, with no value). Each
    conditioned row with a value is flagged by whether its absolute gap grew
    or shrank relative to the overall row, if that row has a value too.
    """
    preds = np.asarray(preds, dtype=float)
    _attribute_masks(ds, measure_attr)
    abs_err = np.abs(preds - ds.targets)
    m_bits = ds.protected[:, measure_attr]
    c_bits = ds.protected[:, condition_attr]
    cond_name = ds.protected_names[condition_attr]

    def one_row(label, mask):
        p = mask & (m_bits == 1)
        u = mask & (m_bits == 0)
        mp = mu = delta = None
        flag = "empty-subgroup"
        if p.any() and u.any():
            mp = float(abs_err[p].mean())
            mu = float(abs_err[u].mean())
            if mu == 0.0:
                flag = "zero-baseline"
            elif math.isfinite(pct := (mp - mu) / mu * 100.0):
                flag, delta = "", pct
            else:  # a baseline so small that the ratio leaves the float range
                flag = "overflow"
        return {"label": label, "mae_privileged": mp, "mae_unprivileged": mu,
                "delta_pct": delta, "flag": flag}

    rows = [
        one_row("all", np.ones(ds.n, dtype=bool)),
        one_row(f"{cond_name}=privileged", c_bits == 1),
        one_row(f"{cond_name}=unprivileged", c_bits == 0),
    ]
    base = rows[0]["delta_pct"]
    for row in rows[1:]:
        if row["delta_pct"] is not None and base is not None:
            row["flag"] = "increase" if abs(row["delta_pct"]) > abs(base) else "decrease"
    return {
        "measure_attribute": ds.protected_names[measure_attr],
        "condition_attribute": cond_name,
        "rows": rows,
    }


@dataclass
class FairnessReport:
    """All measures for one prediction vector, with flagged failures."""

    n: int
    n_groups: int
    mse: float
    mae: float
    sera: float | None
    id: float | None
    delta_bgl: float | None
    sp: float | None
    per_attribute: list = field(default_factory=list)
    group_mae: list = field(default_factory=list)
    mae_delta_tables: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, allow_nan=True)


def full_report(ds: GroupedDataset, preds, phi: RelevanceFunction) -> FairnessReport:
    """:func:`layout_report` of ``preds`` on the curve layout of ``ds`` and ``phi``."""
    return layout_report(curves_mod.CurveLayout(ds, phi), preds)


def layout_report(layout: curves_mod.CurveLayout, preds) -> FairnessReport:
    """Assemble every measure of finite predictions on the rows of ``layout``,
    which every prediction vector on them shares; failures become flagged fields.

    Predictions whose squared errors sum past the float range are refused
    first, with :func:`curves.check_error_sum`."""
    ds = layout.ds
    preds = curves_mod.check_preds(ds, preds)
    curves_mod.check_error_sum(ds, preds, "mse, sera and id")
    notes = []
    report_mse = mse(ds, preds)
    report_mae = mae(ds, preds)

    sera_val = layout.sera(preds)
    id_val = None
    try:
        id_val = intersectional_divergence(layout.curves(preds))
    except InterdivError as exc:
        notes.append(f"id: {exc}")

    per_attribute = []
    dbgl_vals = []
    sp_vals = []
    for j, name in enumerate(ds.protected_names):
        entry = {"attribute": name, "delta_bgl": None, "sp": None}
        try:
            entry["delta_bgl"] = delta_bgl(ds, preds, j)
            dbgl_vals.append(entry["delta_bgl"])
        except InterdivError as exc:
            notes.append(f"delta_bgl[{name}]: {exc}")
        try:
            entry["sp"] = statistical_parity(ds, preds, j)
            sp_vals.append(entry["sp"])
        except InterdivError as exc:
            notes.append(f"sp[{name}]: {exc}")
        per_attribute.append(entry)

    abs_err = np.abs(preds - ds.targets)
    group_mae = []
    for gid, info in enumerate(ds.group_catalog):
        mask = ds.group_of == gid
        group_mae.append(
            {
                "group": gid,
                "combo": list(info.combo),
                "count": int(mask.sum()),
                "mae": float(abs_err[mask].mean()) if mask.any() else None,
            }
        )

    tables = []
    n_attrs = ds.protected.shape[1]
    if n_attrs >= 2:
        for m in range(n_attrs):
            for c in range(n_attrs):
                if m == c:
                    continue
                try:
                    tables.append(group_mae_delta_pct(ds, preds, m, c))
                except InterdivError as exc:
                    notes.append(
                        f"mae_delta[{ds.protected_names[m]}|{ds.protected_names[c]}]: {exc}"
                    )

    return FairnessReport(
        n=ds.n,
        n_groups=ds.n_groups,
        mse=report_mse,
        mae=report_mae,
        sera=sera_val,
        id=id_val,
        delta_bgl=float(np.mean(dbgl_vals)) if dbgl_vals else None,
        sp=float(np.mean(sp_vals)) if sp_vals else None,
        per_attribute=per_attribute,
        group_mae=group_mae,
        mae_delta_tables=tables,
        notes=notes,
    )
