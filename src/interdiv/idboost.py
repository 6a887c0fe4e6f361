"""Dual-ensemble model mixing divergence-optimized and error-optimized trees.

Two ensembles are trained independently on the same data with shared
hyperparameters: one against the divergence loss, one against the
relevance-weighted squared error. Predictions are the convex combination
``w * fairness_ensemble + (1 - w) * error_ensemble``, so ``w`` trades
fairness pressure against predictive accuracy; ``w = 1`` and ``w = 0``
recover the standalone ensembles exactly. :func:`fit_ensemble` fits every
ensemble, here and in the experiment runner, after :func:`check` has passed
for a dual model. :func:`fit` trains the two ensembles in two processes
when the affinity mask holds two CPUs or more (``taskset -c 0`` trains them
in one); the model is byte-identical either way, and each process's memory
is its own.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from . import gbt, parallel
from .dataset import GroupedDataset
from .curves import require_two_groups
from .errors import InputError, ValidationError, read_errors_as
from .losses import DEFAULT_HUBER_DELTA, make_objective
from .relevance import RelevanceFunction

FORMAT_NAME = "interdiv-idboost"
FORMAT_VERSION = 1
# the objectives of the divergence and the error ensemble, in that order
OBJECTIVES = ("idloss", "sera")


@dataclass
class IdBoostModel:
    id_ensemble: gbt.TreeEnsemble
    sera_ensemble: gbt.TreeEnsemble
    w: float

    def check(self, X) -> np.ndarray:
        """``X`` checked as :meth:`predict` checks it, by each ensemble it reads."""
        if self.w != 0.0:
            X = self.id_ensemble.check(X)
        if self.w != 1.0:
            X = self.sera_ensemble.check(X)
        return X

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
        # TreeEnsemble.from_dict and json_float check each value they read
        try:
            model = IdBoostModel(
                id_ensemble=gbt.TreeEnsemble.from_dict(d["id_ensemble"]),
                sera_ensemble=gbt.TreeEnsemble.from_dict(d["sera_ensemble"]),
                w=gbt.json_float(d["w"], "idboost weight w"),
            )
        except KeyError as exc:
            raise InputError(f"idboost file lacks the key {exc.args[0]!r}") from None
        # NaN fails this comparison too
        if not 0.0 <= model.w <= 1.0:
            raise InputError(f"idboost weight w must be in [0, 1], got {model.w!r}")
        return model


def load(path):
    """Read a model file: a ``TreeEnsemble`` or an ``IdBoostModel``, by its ``format``.

    A file that is not UTF-8 JSON, not a JSON object, of an unknown format,
    nested too deeply to parse or holding a malformed model raises
    ``InputError`` naming ``path``.
    """
    try:
        with open(path, encoding="utf-8") as fh, read_errors_as(InputError, path):
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"model file {path} is not JSON: {exc}") from None
    except RecursionError as exc:
        raise InputError(f"model file {path} cannot be read: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError(f"model file {path} must hold a JSON object")
    fmt = doc.get("format")
    from_dict = {gbt.FORMAT_NAME: gbt.TreeEnsemble.from_dict,
                 FORMAT_NAME: IdBoostModel.from_dict}.get(fmt)
    if from_dict is None:
        raise InputError(f"unrecognized model format {fmt!r} in {path}")
    try:
        return from_dict(doc)
    except InputError as exc:
        raise InputError(f"model file {path} is malformed: {exc}") from None


def check(ds: GroupedDataset, w: float) -> float:
    """``w`` as a float, once it lies in [0, 1] and ``ds`` has two populated
    groups; every caller checks before it fits, so all fail the same way."""
    if not 0.0 <= w <= 1.0:
        raise ValidationError(f"fairness weight w must be in [0, 1], got {w!r}")
    require_two_groups(ds, "the divergence loss")
    return float(w)


def fit_ensemble(ds: GroupedDataset, phi: RelevanceFunction, params: gbt.BoostParams,
                 objective: str, huber_delta: float = DEFAULT_HUBER_DELTA,
                 approx_params=None) -> gbt.TreeEnsemble:
    """The ensemble fitted on ``ds`` against the objective named ``objective``."""
    obj = make_objective(objective, ds, phi, huber_delta, approx_params)
    return gbt.fit(ds, obj, params)


def fit(
    ds: GroupedDataset,
    phi: RelevanceFunction,
    params: gbt.BoostParams,
    w: float,
    approx_params=None,
) -> IdBoostModel:
    """Train both component ensembles with shared params and seed, side by
    side in two processes where :func:`parallel.cpus` allows two."""
    w = check(ds, w)
    fit_one = functools.partial(fit_ensemble, ds, phi, params, approx_params=approx_params)
    return IdBoostModel(*parallel.fork_map(fit_one, OBJECTIVES), w=w)
