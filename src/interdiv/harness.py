"""Repeated-split experiment runner and rank aggregation.

An experiment fits every configured model on ``runs`` independent
train/test splits (seeded ``base_seed + run``), scores each test prediction
with the full fairness report, and aggregates per-metric ranks across runs.
A model is the objectives it fits and its weight: ``mse`` fits ``("mse",)``
with no weight, and ``idboost_<w>`` fits ``idboost.OBJECTIVES`` and mixes
their test predictions with weight ``w``. The model names are parsed once
per experiment. Within a run each objective's ensemble is fitted and
predicted once, where it is fitted, and every model is scored on one curve
layout of the run's test rows. So a run fits ``idloss`` and ``sera`` for an
``idboost_<w>`` model even where ``idboost.check`` then fails that model on
the run's training rows.
The run's fits are independent, so :func:`parallel.fork_map` runs them in up
to N processes, N being the CPUs in the affinity mask (``taskset -c 0``
runs them in one). Workers fit and predict, each in its own copy of memory;
the calling process still scores every model and writes every output file,
and the outputs are byte-identical for every N.
A model that raises an ``InterdivError`` during a run is recorded as failed
and ranked last for every metric of that run rather than aborting the
experiment. Any other exception is a fault of the program, not of the
model: it propagates, and no ``ranks.csv`` is written. Per-run
predictions and models are persisted under ``<out>/run_<r>/`` so curve
export and benchmarking can reuse them without refitting; that directory
is made once the run's split and relevance function are built, so an
experiment whose first split fails leaves no ``<out>`` behind.
"""
from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field

import numpy as np

from . import config as config_mod
from . import curves as curves_mod
from . import dataset as dataset_mod
from . import gbt, idboost, metrics, parallel, relevance
from .approx import ApproxParams
from .errors import InputError, InterdivError, ValidationError, read_utf8
from .losses import DEFAULT_HUBER_DELTA, OBJECTIVE_NAMES

DEFAULT_METRICS = ("mse", "sera", "delta_bgl", "sp", "id")
# the numeric measures of a metrics.FairnessReport
METRIC_NAMES = ("mse", "mae", "sera", "id", "delta_bgl", "sp")


@dataclass(frozen=True)
class ExperimentConfig:
    data: str
    schema: dataset_mod.DatasetSchema
    models: tuple[str, ...]
    out_dir: str
    n_runs: int = 20
    train_ratio: float = 0.8
    base_seed: int = 0
    metric_names: tuple[str, ...] = DEFAULT_METRICS
    boost: gbt.BoostParams = field(default_factory=gbt.BoostParams)
    huber_delta: float = DEFAULT_HUBER_DELTA
    relevance_file: str | None = None
    fast: bool = False
    stratify_groups: bool = False

    def __post_init__(self):
        if self.n_runs < 1:
            raise ValidationError("n_runs must be >= 1")
        for what, names in (("model", self.models), ("metric", self.metric_names)):
            if not names:
                raise ValidationError(f"at least one {what} is required")
            if len(set(names)) != len(names):
                raise ValidationError(f"{what} names must be unique")
        for name in self.models:
            _parse_model_name(name)  # typos abort here, not mid-experiment
        for name in self.metric_names:
            if name not in METRIC_NAMES:
                raise ValidationError(
                    f"unknown metric name {name!r}; expected one of {METRIC_NAMES}"
                )


def config_from_file(path) -> ExperimentConfig:
    """Read an experiment config; relative paths resolve against its directory."""
    found = config_mod.read(path, config_mod.EXPERIMENT_KEYS, config_mod.EXPERIMENT_REQUIRED)
    top = found.setdefault("", {})
    top.setdefault("out_dir", "out")
    base_dir = os.path.dirname(os.path.abspath(path))
    for name in ("data", "out_dir", "relevance_file"):
        if name in top:  # join keeps an absolute path as it is
            top[name] = os.path.join(base_dir, top[name])
    return ExperimentConfig(
        **top,
        schema=dataset_mod.DatasetSchema(**found["schema"]),
        boost=gbt.BoostParams(**found.get("boost", {})),
    )


def _parse_model_name(name: str):
    """``(objectives, w)``: ``((objective,), None)`` for an objective name, or
    ``(idboost.OBJECTIVES, w)`` for ``idboost_<w>`` with w in [0, 1]."""
    low = name.lower()
    if low.startswith("xgb_"):
        low = low[4:]
    if low in OBJECTIVE_NAMES:
        return (low,), None
    if low.startswith("idboost"):
        tail = low[len("idboost"):].lstrip("_")
        try:
            w = float(tail) if tail else 0.5
        except ValueError:
            raise ValidationError(f"unknown model name {name!r}") from None
        if not 0.0 <= w <= 1.0:
            raise ValidationError(f"idboost weight out of range in {name!r}")
        return idboost.OBJECTIVES, w
    raise ValidationError(f"unknown model name {name!r}")


def _fit(split, cfg: ExperimentConfig, objective: str):
    """The run's ensemble for ``objective`` and its predictions on the test
    rows, or the ``InterdivError`` that its fit or predict raised.

    ``split`` is the run's ``(train, test, phi)``."""
    train, test, phi = split
    try:
        ensemble = idboost.fit_ensemble(train, phi, cfg.boost, objective, cfg.huber_delta,
                                        ApproxParams() if cfg.fast else None)
        return ensemble, ensemble.predict(test.features)
    except InterdivError as exc:
        return exc


def _split(ds, cfg: ExperimentConfig, r: int):
    """Run ``r``'s train/test split and the relevance function for it."""
    train, test = dataset_mod.split(
        ds, cfg.train_ratio, cfg.base_seed + r, stratify_groups=cfg.stratify_groups
    )
    return train, test, relevance.from_file_or_boxplot(cfg.relevance_file, train.targets)


def rank_with_ties(values) -> np.ndarray:
    """1-based ranks, ascending; tied values share the average rank."""
    v = np.asarray(values, dtype=float)
    order = np.argsort(v, kind="stable")
    ranks = np.empty(len(v))
    i = 0
    while i < len(v):
        j = i
        while j + 1 < len(v) and v[order[j + 1]] == v[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


@dataclass
class RankTable:
    models: tuple
    metric_names: tuple
    mean: np.ndarray   # (n_models, n_metrics)
    std: np.ndarray
    ranks: np.ndarray  # (n_runs, n_models, n_metrics)

    def to_csv(self, path) -> None:
        header = ["model", *(f"{m}_{s}_rank" for m in self.metric_names for s in ("mean", "std"))]
        # each model's row: the mean and std rank of each metric in turn
        cells = np.stack([self.mean, self.std], axis=2).reshape(len(self.models), -1)
        dataset_mod.write_rows(path, header, ([model, *row]
                                              for model, row in zip(self.models, cells.tolist())))


def _report_metric(report: metrics.FairnessReport, name: str) -> float:
    value = getattr(report, name)
    return float(value) if value is not None else float("inf")


def run(cfg: ExperimentConfig):
    """Execute the experiment; returns (RankTable, raw metric rows, the
    dataset it loaded)."""
    ds = dataset_mod.load_csv(cfg.data, cfg.schema)
    models = [_parse_model_name(name) for name in cfg.models]
    # each objective the models fit, once, in the order first named
    objectives = list(dict.fromkeys(o for needs, _ in models for o in needs))
    n_models = len(cfg.models)
    n_metrics = len(cfg.metric_names)
    raw_rows = []
    values = np.full((cfg.n_runs, n_models, n_metrics), np.inf)
    for r in range(cfg.n_runs):
        train, test, phi = split = _split(ds, cfg, r)
        layout = curves_mod.CurveLayout(test, phi)
        run_dir = os.path.join(cfg.out_dir, f"run_{r}")
        os.makedirs(run_dir, exist_ok=True)
        fits = parallel.fork_map(functools.partial(_fit, split, cfg), objectives)
        fitted = dict(zip(objectives, fits))
        for m, (name, (needs, w)) in enumerate(zip(cfg.models, models)):
            status = "ok"
            try:
                if w is not None:
                    w = idboost.check(train, w)
                found = [fitted[o] for o in needs]
                for f in found:  # the first failed fit, in the order of needs
                    if isinstance(f, InterdivError):
                        raise f
                if w is None:
                    model, preds = found[0]
                else:
                    ensembles, preds = zip(*found)
                    model = idboost.IdBoostModel(*ensembles, w)
                    preds = model.mix(*preds)
                report = metrics.layout_report(layout, preds)
                for k, metric in enumerate(cfg.metric_names):
                    values[r, m, k] = _report_metric(report, metric)
                dataset_mod.write_preds(os.path.join(run_dir, f"preds_{name}.csv"), preds)
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
            ranks[r, :, k] = rank_with_ties(values[r, :, k])
    table = RankTable(
        models=cfg.models,
        metric_names=cfg.metric_names,
        mean=ranks.mean(axis=0),
        std=ranks.std(axis=0, ddof=1) if cfg.n_runs > 1 else np.zeros((n_models, n_metrics)),
        ranks=ranks,
    )
    _write_raw_csv(os.path.join(cfg.out_dir, "raw_metrics.csv"), cfg, raw_rows)
    table.to_csv(os.path.join(cfg.out_dir, "ranks.csv"))
    return table, raw_rows, ds


def _write_raw_csv(path, cfg: ExperimentConfig, rows) -> None:
    cols = ["run", "seed", "model", "status", *cfg.metric_names]
    # a comma in a cell that is not a number is written as ';', so that
    # failed_runs can split a row on commas
    dataset_mod.write_rows(path, cols, ([v if isinstance(v, float) else str(v).replace(",", ";")
                                         for v in map(row.get, cols)] for row in rows))


def failed_runs(cfg: ExperimentConfig) -> dict:
    """Each model that ``raw_metrics.csv`` records as failed in some run,
    mapped to those runs (``run_<r>``)."""
    path = os.path.join(cfg.out_dir, "raw_metrics.csv")
    try:
        rows = read_utf8(path).decode("utf-8-sig").splitlines()
    except FileNotFoundError:
        raise InputError(f"missing {path}; run the experiment first") from None
    failed = {}
    for lineno, row in enumerate(rows[1:], start=2):
        # status commas are written as ';', so the fourth cell is the status
        try:
            run, _, name, status = row.split(",")[:4]
        except ValueError:
            raise InputError(f"{path}, line {lineno}: fewer than 4 cells: {row!r}") from None
        if status != "ok":
            failed.setdefault(name, []).append(f"run_{run}")
    return failed


def export_id_curves(cfg: ExperimentConfig, ds=None, failed=None) -> dict:
    """Average each model's normalized group curves across completed runs.

    ``ds`` is the experiment's dataset, as :func:`run` returns it; without
    it, the dataset is loaded from ``cfg.data``, all but its features, which
    no curve reads. A model that ``failed`` (by default :func:`failed_runs`)
    names is skipped. The others require the per-run prediction files
    written by :func:`run`; a missing file is an explicit error naming the
    runs so a stale output directory is caught instead of silently averaging
    fewer runs. Returns each exported model's CSV path by name;
    :func:`curves.write_curve_rows` writes the files.
    """
    if ds is None:
        ds = dataset_mod.load_csv(cfg.data, cfg.schema, features=False)
    failed = failed_runs(cfg) if failed is None else failed
    models = [name for name in cfg.models if name not in failed]
    missing = []
    for r in range(cfg.n_runs):
        for name in models:
            p = os.path.join(cfg.out_dir, f"run_{r}", f"preds_{name}.csv")
            if not os.path.exists(p):
                missing.append(f"run_{r}/{name}")
    if missing:
        raise InputError(
            "missing saved predictions for: " + ", ".join(missing)
        )
    curve_dir = os.path.join(cfg.out_dir, "curves")
    os.makedirs(curve_dir, exist_ok=True)
    # a run's test rows and relevance, and so its layout, do not depend on
    # the model: neither does the union grid
    layouts = []
    for r in range(cfg.n_runs):
        _, test, phi = _split(ds, cfg, r)
        layouts.append(curves_mod.CurveLayout(test, phi))
    grid = np.unique(np.concatenate([layout.breakpoints for layout in layouts]))
    out = {}
    for name in models:
        per_run = [
            layout.curves(dataset_mod.read_preds(
                os.path.join(cfg.out_dir, f"run_{r}", f"preds_{name}.csv")
            ))
            for r, layout in enumerate(layouts)
        ]
        averaged = ((sum((curves_mod.normalize(*cs.values_at(grid, g)) for cs in per_run),
                         np.zeros(len(grid))) / len(per_run),) for g in range(ds.n_groups))
        out[name] = os.path.join(curve_dir, f"{name}.csv")
        curves_mod.write_curve_rows(out[name], "t,group,normalized_ser", grid, "%.17g", averaged)
    return out
