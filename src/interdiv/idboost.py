"""Dual-ensemble model mixing divergence-optimized and error-optimized trees.

Two ensembles are trained independently on the same data with shared
hyperparameters: one against the divergence loss, one against the
relevance-weighted squared error. Predictions are the convex combination
``w * fairness_ensemble + (1 - w) * error_ensemble``, so ``w`` trades
fairness pressure against predictive accuracy; ``w = 1`` and ``w = 0``
recover the standalone ensembles exactly.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import gbt
from .dataset import GroupedDataset
from .errors import InputError, UndefinedMetricError, ValidationError
from .losses import IdLossObjective, SeraObjective
from .relevance import RelevanceFunction

FORMAT_NAME = "interdiv-idboost"
FORMAT_VERSION = 1


@dataclass
class IdBoostModel:
    id_ensemble: gbt.TreeEnsemble
    sera_ensemble: gbt.TreeEnsemble
    w: float

    def predict(self, X) -> np.ndarray:
        if self.w == 1.0:
            return self.id_ensemble.predict(X)
        if self.w == 0.0:
            return self.sera_ensemble.predict(X)
        return self.w * self.id_ensemble.predict(X) + (1.0 - self.w) * (
            self.sera_ensemble.predict(X)
        )

    def to_dict(self) -> dict:
        return {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "w": self.w,
            "id_ensemble": self.id_ensemble.to_dict(),
            "sera_ensemble": self.sera_ensemble.to_dict(),
        }

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True)

    @staticmethod
    def from_dict(d: dict) -> "IdBoostModel":
        """Load a model; a malformed document raises ``InputError``."""
        if not isinstance(d, dict):
            raise InputError(f"an idboost model must be a JSON object, not {type(d).__name__}")
        if d.get("format") != FORMAT_NAME:
            raise InputError(f"not an idboost file (format={d.get('format')!r})")
        if d.get("version") != FORMAT_VERSION:
            raise InputError(f"unsupported idboost version {d.get('version')!r}")
        try:
            model = IdBoostModel(
                id_ensemble=gbt.TreeEnsemble.from_dict(d["id_ensemble"]),
                sera_ensemble=gbt.TreeEnsemble.from_dict(d["sera_ensemble"]),
                w=float(d["w"]),
            )
        except KeyError as exc:
            raise InputError(f"idboost file lacks the key {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise InputError(f"malformed idboost file: {exc}") from None
        # NaN fails this comparison too
        if not 0.0 <= model.w <= 1.0:
            raise InputError(f"idboost weight w must be in [0, 1], got {model.w!r}")
        return model

    @staticmethod
    def from_json(path) -> "IdBoostModel":
        with open(path, encoding="utf-8") as fh:
            return IdBoostModel.from_dict(json.load(fh))


def check_fit(ds: GroupedDataset, w: float) -> None:
    """The checks a fit makes before training either ensemble.

    Anything that assembles a model from separately fitted component
    ensembles makes them first too, so it fails as ``fit`` would.
    """
    if not 0.0 <= w <= 1.0:
        raise ValidationError(f"fairness weight w must be in [0, 1], got {w!r}")
    if np.count_nonzero(ds.group_counts()) < 2:
        raise UndefinedMetricError(
            "the divergence loss needs at least 2 populated groups"
        )


def fit(
    ds: GroupedDataset,
    phi: RelevanceFunction,
    params: gbt.BoostParams,
    w: float,
    approx_params=None,
) -> IdBoostModel:
    """Train both component ensembles with shared params and seed."""
    check_fit(ds, w)
    id_obj = IdLossObjective(ds, phi, hess_floor=params.hess_floor, approx_params=approx_params)
    sera_obj = SeraObjective(ds, phi)
    id_ens = gbt.fit(ds, id_obj, params)
    sera_ens = gbt.fit(ds, sera_obj, params)
    return IdBoostModel(id_ensemble=id_ens, sera_ensemble=sera_ens, w=float(w))
