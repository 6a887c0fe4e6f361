"""Repeated-split experiment runner and rank aggregation.

An experiment fits every configured model on ``runs`` independent
train/test splits (seeded ``base_seed + run``), scores each test prediction
with the full fairness report, and aggregates per-metric ranks across runs.
Within a run each objective's ensemble is fitted and predicted once, an
``idboost_<w>`` model mixes the test predictions of ``idloss`` and ``sera``,
and every model is scored on one curve layout of the run's test rows.
The objectives to fit are read from the config once per experiment, so a
run fits ``idloss`` and ``sera`` for an ``idboost_<w>`` model even where
``idboost.check`` then fails that model on the run's training rows.
The run's fits are independent, so :func:`parallel.fork_map` runs them in up
to N processes, N being the CPUs in the affinity mask (``taskset -c 0``
runs them in one). Workers only fit, each in its own copy of memory; every
predict, score and output file is the calling process's, and the outputs
are byte-identical for every N.
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
from .errors import InputError, InterdivError, ValidationError
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
        if len(set(self.models)) != len(self.models):
            raise ValidationError("model names must be unique")
        if not self.models:
            raise ValidationError("at least one model is required")
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
    """Model spec: an objective name, or ``idboost_<w>`` with w in [0, 1]."""
    low = name.lower()
    if low.startswith("xgb_"):
        low = low[4:]
    if low in OBJECTIVE_NAMES:
        return ("ensemble", low, None)
    if low.startswith("idboost"):
        tail = low[len("idboost"):].lstrip("_")
        try:
            w = float(tail) if tail else 0.5
        except ValueError:
            raise ValidationError(f"unknown model name {name!r}") from None
        if not 0.0 <= w <= 1.0:
            raise ValidationError(f"idboost weight out of range in {name!r}")
        return ("idboost", "idloss+sera", w)
    raise ValidationError(f"unknown model name {name!r}")


def fit_model(ds, phi, params: gbt.BoostParams, objective: str, w,
              huber_delta: float, fast: bool):
    """Fit one model: the dual ensemble for a fairness weight ``w``, else a
    single ensemble on ``objective``.

    ``fast`` makes the divergence objective sweep simplified curves.
    """
    approx_params = ApproxParams() if fast else None
    if w is not None:
        return idboost.fit(ds, phi, params, w, approx_params=approx_params)
    return idboost.fit_ensemble(ds, phi, params, objective, huber_delta, approx_params)


def _objectives(cfg: ExperimentConfig) -> list:
    """Each objective the config's models name, once, in the order first
    named; an ``idboost_<w>`` model names ``idloss`` and ``sera``."""
    named = {}
    for name in cfg.models:  # split an idboost_<w> model's "idloss+sera"
        named.update(dict.fromkeys(_parse_model_name(name)[1].split("+")))
    return list(named)


def _fit(split, cfg: ExperimentConfig, objective: str):
    """The run's ensemble for ``objective``, or the ``InterdivError`` its fit raised.

    ``split`` is the run's ``(train, test, phi)``."""
    train, _, phi = split
    try:
        return fit_model(train, phi, cfg.boost, objective, None, cfg.huber_delta, cfg.fast)
    except InterdivError as exc:
        return exc


def _ensemble(fitted: dict, test, objective: str):
    """The pair of the run's ensemble for ``objective`` and its predictions on ``test``.

    ``fitted`` maps each objective of the run to what :func:`_fit` returned,
    then to that pair once predicted, or to the ``InterdivError`` its fit or
    predict raised, which is raised again for every model that needs it."""
    found = fitted[objective]
    if isinstance(found, gbt.TreeEnsemble):
        try:
            found = (found, found.predict(test.features))
        except InterdivError as exc:
            found = exc
        fitted[objective] = found
    if isinstance(found, InterdivError):
        raise found
    return found


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
        with open(path, "w", encoding="utf-8") as fh:
            cols = ["model"]
            for m in self.metric_names:
                cols += [f"{m}_mean_rank", f"{m}_std_rank"]
            fh.write(",".join(cols) + "\n")
            for i, model in enumerate(self.models):
                row = [model]
                for j in range(len(self.metric_names)):
                    row += [f"{self.mean[i, j]:.17g}", f"{self.std[i, j]:.17g}"]
                fh.write(",".join(row) + "\n")


def _report_metric(report: metrics.FairnessReport, name: str) -> float:
    value = getattr(report, name)
    return float(value) if value is not None else float("inf")


def run(cfg: ExperimentConfig):
    """Execute the experiment; returns (RankTable, raw metric rows)."""
    ds = dataset_mod.load_csv(cfg.data, cfg.schema)
    objectives = _objectives(cfg)
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
        ensemble = functools.partial(_ensemble, dict(zip(objectives, fits)), test)
        for m, name in enumerate(cfg.models):
            status = "ok"
            try:
                kind, objective, w = _parse_model_name(name)
                if kind == "idboost":
                    w = idboost.check(train, w)
                    model = idboost.IdBoostModel(ensemble("idloss")[0], ensemble("sera")[0], w)
                    preds = model.mix(ensemble("idloss")[1], ensemble("sera")[1])
                else:
                    model, preds = ensemble(objective)
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
    return table, raw_rows


def _write_raw_csv(path, cfg: ExperimentConfig, rows) -> None:
    cols = ["run", "seed", "model", "status", *cfg.metric_names]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            cells = []
            for c in cols:
                v = row[c]
                if isinstance(v, float):
                    cells.append(f"{v:.17g}")
                else:
                    cells.append(str(v).replace(",", ";"))
            fh.write(",".join(cells) + "\n")


def failed_runs(cfg: ExperimentConfig) -> dict:
    """Each model that ``raw_metrics.csv`` records as failed in some run,
    mapped to those runs (``run_<r>``)."""
    path = os.path.join(cfg.out_dir, "raw_metrics.csv")
    try:
        with open(path, encoding="utf-8") as fh:
            rows = fh.read().splitlines()[1:]
    except FileNotFoundError:
        raise InputError(f"missing {path}; run the experiment first") from None
    failed = {}
    for row in rows:
        # status commas are written as ';', so the fourth cell is the status
        run, _, name, status = row.split(",")[:4]
        if status != "ok":
            failed.setdefault(name, []).append(f"run_{run}")
    return failed


def export_id_curves(cfg: ExperimentConfig) -> dict:
    """Average each model's normalized group curves across completed runs.

    A model that :func:`failed_runs` names is skipped. The others require
    the per-run prediction files written by :func:`run`; a missing file is
    an explicit error naming the runs so a stale output directory is caught
    instead of silently averaging fewer runs. Returns each exported model's
    CSV path by name; :func:`curves.write_curve_rows` writes the files.
    """
    ds = dataset_mod.load_csv(cfg.data, cfg.schema)
    failed = failed_runs(cfg)
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
