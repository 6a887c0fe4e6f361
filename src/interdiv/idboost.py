"""Dual-ensemble model mixing divergence-optimized and error-optimized trees.

Two ensembles are trained independently on the same data with shared
hyperparameters: one against the divergence loss, one against the
relevance-weighted squared error. Predictions are the convex combination
``w * fairness_ensemble + (1 - w) * error_ensemble``, so ``w`` trades
fairness pressure against predictive accuracy; ``w = 1`` and ``w = 0``
recover the standalone ensembles exactly. :func:`fit` trains the two
ensembles in two processes when the affinity mask holds two CPUs or more
(``taskset -c 0`` trains them in one); the model is byte-identical either
way, and each process's memory is its own.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import gbt, parallel
from .dataset import GroupedDataset
from .curves import require_two_groups
from .errors import InputError, ValidationError, read_errors_as
from .losses import make_objective
from .relevance import RelevanceFunction

FORMAT_NAME = "interdiv-idboost"
FORMAT_VERSION = 1


@dataclass
class IdBoostModel:
    id_ensemble: gbt.TreeEnsemble
    sera_ensemble: gbt.TreeEnsemble
    w: float

    def predict(self, X) -> np.ndarray:
        return self.mix(
            None if self.w == 0.0 else self.id_ensemble.predict(X),
            None if self.w == 1.0 else self.sera_ensemble.predict(X),
        )

    def mix(self, p_id, p_sera) -> np.ndarray:
        """Mix the ensembles' predictions; at ``w`` 1 or 0 only one is read."""
        if self.w == 1.0:
            return p_id
        if self.w == 0.0:
            return p_sera
        return self.w * p_id + (1.0 - self.w) * p_sera

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
        version = d.get("version")
        if type(version) is not int or version != FORMAT_VERSION:
            raise InputError(f"unsupported idboost version {version!r}")
        try:
            model = IdBoostModel(
                id_ensemble=gbt.TreeEnsemble.from_dict(d["id_ensemble"]),
                sera_ensemble=gbt.TreeEnsemble.from_dict(d["sera_ensemble"]),
                w=gbt.json_float(d["w"], "idboost weight w"),
            )
        except KeyError as exc:
            raise InputError(f"idboost file lacks the key {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise InputError(f"malformed idboost file: {exc}") from None
        # NaN fails this comparison too
        if not 0.0 <= model.w <= 1.0:
            raise InputError(f"idboost weight w must be in [0, 1], got {model.w!r}")
        return model


def load(path):
    """Read a model file: a ``TreeEnsemble`` or an ``IdBoostModel``, by its ``format``.

    A file that is not UTF-8 JSON, not a JSON object, of an unknown format,
    nested too deeply to parse or holding a number too large to convert
    raises ``InputError`` naming ``path``.
    """
    try:
        with open(path, encoding="utf-8") as fh, read_errors_as(InputError, path):
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise InputError(f"model file {path} must hold a JSON object")
        fmt = doc.get("format")
        if fmt == gbt.FORMAT_NAME:
            return gbt.TreeEnsemble.from_dict(doc)
        if fmt == FORMAT_NAME:
            return IdBoostModel.from_dict(doc)
    except json.JSONDecodeError as exc:
        raise InputError(f"model file {path} is not JSON: {exc}") from None
    except (RecursionError, OverflowError) as exc:
        raise InputError(f"model file {path} cannot be read: {exc}") from None
    raise InputError(f"unrecognized model format {fmt!r} in {path}")


def assemble(ds: GroupedDataset, w: float, ensemble) -> IdBoostModel:
    """The dual model of weight ``w`` from ``ensemble(objective)``, the
    ``TreeEnsemble`` fitted on ``ds`` for ``"idloss"`` or ``"sera"``.

    ``w`` and the groups are checked before either ensemble is asked for,
    ``idloss`` first, so every caller fails in the same order.
    """
    if not 0.0 <= w <= 1.0:
        raise ValidationError(f"fairness weight w must be in [0, 1], got {w!r}")
    require_two_groups(ds, "the divergence loss")
    return IdBoostModel(
        id_ensemble=ensemble("idloss"), sera_ensemble=ensemble("sera"), w=float(w)
    )


def fit(
    ds: GroupedDataset,
    phi: RelevanceFunction,
    params: gbt.BoostParams,
    w: float,
    approx_params=None,
) -> IdBoostModel:
    """Train both component ensembles with shared params and seed, side by
    side in two processes where :func:`parallel.cpus` allows two."""
    def ensemble(objective):
        obj = make_objective(
            objective, ds, phi=phi, hess_floor=params.hess_floor, approx_params=approx_params
        )
        return gbt.fit(ds, obj, params)

    fitted = {}

    def fitted_ensemble(objective):
        if not fitted:  # assemble asks only once its checks pass: fit both then
            objectives = ("idloss", "sera")
            fitted.update(zip(objectives, parallel.fork_map(ensemble, objectives)))
        return fitted[objective]

    return assemble(ds, w, fitted_ensemble)
