"""Command-line entry point.

Subcommands: train, predict, audit, experiment, curves, synth, bench-approx.
Data goes to stdout or the requested files; diagnostics go to stderr. Exit
codes: 0 success, 1 operational failure, 2 usage error. Every command that
writes outputs also writes a manifest of its parsed arguments (``experiment``:
of its resolved config) so the outputs can be reproduced bit-identically.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from operator import attrgetter

import numpy as np

from . import __version__
from . import approx as approx_mod
from . import config as config_mod
from . import curves as curves_mod
from . import dataset as dataset_mod
from . import gbt, harness, idboost, losses, metrics, parallel, relevance
from .errors import InputError, InterdivError


def _write_manifest(target_path, command: str, params: dict) -> None:
    if os.path.isdir(target_path):
        path = os.path.join(target_path, "manifest.json")
    else:
        path = str(target_path) + ".manifest.json"
    doc = {
        "tool": "interdiv",
        "version": __version__,
        "command": command,
        "parameters": params,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _load_dataset(args) -> dataset_mod.GroupedDataset:
    schema = config_mod.load_schema(args.config)
    return dataset_mod.load_csv(args.data, schema)


def _load_scored(args):
    """The dataset, the predictions read from ``--preds`` and the relevance function."""
    ds = _load_dataset(args)
    preds = dataset_mod.read_preds(args.preds)
    if len(preds) != ds.n:
        raise InputError(
            f"prediction length {len(preds)} does not match dataset length {ds.n}"
        )
    return ds, preds, relevance.from_file_or_boxplot(args.relevance_file, ds.targets)


# train's boosting flags, one per ``boost.*`` experiment config key:
# flag -> (BoostParams field, converter); the manifest records each under
# its config key
BOOST_FLAGS = {
    f"--{key.replace('_', '-')}": (target[len("boost."):], convert)
    for key, (convert, *targets) in config_mod.EXPERIMENT_KEYS.items()
    for target in targets if target.startswith("boost.")
}
# parsed arguments that only pick which command runs or where its output
# goes; a manifest records every other one
UNRECORDED = ("command", "func", "out", "json", "from_experiment")


def _recorded(args) -> dict:
    """The parsed arguments a manifest records, boosting flags under their config key."""
    key_of = {name: flag[2:].replace("-", "_") for flag, (name, _) in BOOST_FLAGS.items()}
    return {key_of.get(dest, dest): value
            for dest, value in vars(args).items() if dest not in UNRECORDED}


def cmd_train(args) -> int:
    ds = _load_dataset(args)
    phi = relevance.from_file_or_boxplot(args.relevance_file, ds.targets)
    params = gbt.BoostParams(**{name: getattr(args, name) for name, _ in BOOST_FLAGS.values()})
    approx_params = approx_mod.ApproxParams() if args.fast else None
    if args.model == "idboost":
        model = idboost.fit(ds, phi, params, args.w, approx_params=approx_params)
    else:
        model = idboost.fit_ensemble(ds, phi, params, args.objective, args.huber_delta,
                                     approx_params)
    model.to_json(args.out)
    _write_manifest(args.out, args.command, _recorded(args))
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def cmd_predict(args) -> int:
    ds = _load_dataset(args)
    model = idboost.load(args.model)
    # checked whole, so that an error names the row of the file; each row is
    # predicted alone, so blocks of rows predict side by side to the same bits
    X = model.check(ds.features)
    n_blocks = max(1, min(parallel.cpus(), len(X) // dataset_mod.BLOCK_ROWS))
    preds = np.concatenate(parallel.fork_map(model.predict, np.array_split(X, n_blocks)))
    dataset_mod.write_preds(args.out, preds)
    _write_manifest(args.out, args.command, _recorded(args))
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def cmd_audit(args) -> int:
    ds, preds, phi = _load_scored(args)
    report = metrics.full_report(ds, preds, phi)
    payload = report.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
        _write_manifest(args.out, args.command, _recorded(args))
    if args.json or not args.out:
        print(payload)
    if not args.json:
        _print_human_report(report)
    return 0


def _fmt4(v) -> str:
    return "--" if v is None else f"{v:.4g}"


def _print_human_report(report: metrics.FairnessReport) -> None:
    err = sys.stderr
    print(f"n={report.n} groups={report.n_groups}", file=err)
    print(
        f"mse={_fmt4(report.mse)} mae={_fmt4(report.mae)} sera={_fmt4(report.sera)}",
        file=err,
    )
    print(
        f"id={_fmt4(report.id)} delta_bgl={_fmt4(report.delta_bgl)} sp={_fmt4(report.sp)}",
        file=err,
    )
    for table in report.mae_delta_tables:
        print(
            f"-- MAE delta for {table['measure_attribute']} conditioned on "
            f"{table['condition_attribute']}:",
            file=err,
        )
        for row in table["rows"]:
            delta = "--" if row["delta_pct"] is None else f"{row['delta_pct']:+.1f}%"
            flag = f" [{row['flag']}]" if row["flag"] else ""
            print(
                f"   {row['label']}: priv={_fmt4(row['mae_privileged'])} "
                f"unpriv={_fmt4(row['mae_unprivileged'])} delta={delta}{flag}",
                file=err,
            )
    for note in report.notes:
        print(f"note: {note}", file=err)


def cmd_experiment(args) -> int:
    cfg = harness.config_from_file(args.config)
    table, _ = harness.run(cfg)
    # the run plan under its config keys, the boost.* ones nested under boost
    params = {"config": os.path.abspath(args.config), "boost": {}}
    for key, (_, target, *_) in config_mod.EXPERIMENT_KEYS.items():
        if key not in config_mod.SCHEMA_KEYS and key != "out":
            place = params["boost"] if target.startswith("boost.") else params
            place[key] = attrgetter(target)(cfg)
    _write_manifest(cfg.out_dir, "experiment", params)
    for i, model in enumerate(table.models):
        cells = " ".join(
            f"{m}={table.mean[i, j]:.2f}±{table.std[i, j]:.2f}"
            for j, m in enumerate(table.metric_names)
        )
        print(f"{model}: {cells}")
    if args.curves:
        _export_id_curves(cfg)
    return 0


def _export_id_curves(cfg) -> None:
    for name, runs in harness.failed_runs(cfg).items():
        print(f"note: no curves for {name}, which failed in {', '.join(runs)}",
              file=sys.stderr)
    for name, path in harness.export_id_curves(cfg).items():
        print(f"curves[{name}] -> {path}")


def cmd_curves(args) -> int:
    if args.from_experiment:
        _export_id_curves(harness.config_from_file(args.from_experiment))
        return 0
    ds, preds, phi = _load_scored(args)
    cs = curves_mod.build(ds, preds, phi)
    curves_mod.export_curves(cs, args.out)
    _write_manifest(args.out, args.command, _recorded(args))
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def cmd_synth(args) -> int:
    if args.kind == "scenario":
        ds, preds = dataset_mod.synth_imbalanced_scenario(
            args.n, args.divergence, args.seed
        )
    else:
        ds = dataset_mod.synth_biased(args.n, args.seed, n_protected=args.attributes)
        preds = None
    # nothing is created until there is data to write
    os.makedirs(args.out, exist_ok=True)
    if preds is not None:
        dataset_mod.write_preds(os.path.join(args.out, "preds.csv"), preds)
    data_path = os.path.join(args.out, "data.csv")
    dataset_mod.write_csv(data_path, ds)
    config_mod.write_kv_file(os.path.join(args.out, "schema.cfg"), {
        "target": ds.target_name,
        "protected": list(ds.protected_names),
        "privileged": ["1"] * len(ds.protected_names),
    })
    _write_manifest(args.out, args.command, _recorded(args))
    print(f"wrote {data_path}", file=sys.stderr)
    return 0


# bench-approx CSV rows: (row name, report field stem, delta column suffix)
BENCH_ROWS = (
    ("time_s", "time", "pct"),
    ("sera", "sera", "delta_pct"),
    ("id", "id", "delta_pct"),
    ("eval_points", "eval_points", "reduction_pct"),
)


def cmd_bench_approx(args) -> int:
    ds = dataset_mod.synth_biased(args.n, args.seed, n_protected=args.attributes)
    phi = relevance.from_boxplot(ds.targets)
    params = approx_mod.ApproxParams(
        sigma=args.sigma, grid_step=args.grid_step
    )
    report = approx_mod.bench_approx(
        ds, phi, params, rounds=args.rounds, w=args.w, seed=args.seed
    )
    doc = report.to_dict()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("metric,exact,fast,delta_pct\n")
            for row, stem, delta in BENCH_ROWS:
                fh.write("%s,%.17g,%.17g,%.17g\n" % (
                    row, doc[f"{stem}_exact"], doc[f"{stem}_fast"], doc[f"{stem}_{delta}"]
                ))
        _write_manifest(args.out, args.command, _recorded(args))
    print(json.dumps(doc, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interdiv",
        description="Fairness-aware regression: divergence measurement and boosting.",
    )
    parser.add_argument("--version", action="version", version=f"interdiv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_args(p):
        p.add_argument("--data", required=True, help="input CSV")
        p.add_argument("--config", required=True, help="schema config file")
        p.add_argument("--relevance-file", dest="relevance_file", default=None,
                       help="control-point CSV overriding boxplot inference")

    p = sub.add_parser("train", help="fit a model")
    add_data_args(p)
    p.add_argument("--model", choices=("ensemble", "idboost"), default="ensemble")
    p.add_argument("--objective", choices=losses.OBJECTIVE_NAMES, default="mse")
    p.add_argument("--w", type=float, default=0.5, help="idboost fairness weight")
    boost = gbt.BoostParams()
    for flag, (name, kind) in BOOST_FLAGS.items():
        p.add_argument(flag, dest=name, type=kind, default=getattr(boost, name))
    p.add_argument("--huber-delta", dest="huber_delta", type=float,
                   default=losses.DEFAULT_HUBER_DELTA)
    p.add_argument("--fast", action="store_true",
                   help="use simplified curves inside the divergence objective")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="apply a saved model")
    p.add_argument("--data", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("audit", help="fairness report for saved predictions")
    add_data_args(p)
    p.add_argument("--preds", required=True, help="prediction CSV (one value per row)")
    p.add_argument("--json", action="store_true", help="print JSON to stdout only")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("experiment", help="repeated-split model comparison")
    p.add_argument("--config", required=True, help="experiment config file")
    p.add_argument("--curves", action="store_true",
                   help="also export averaged divergence curves")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("curves", help="export per-group error curves")
    p.add_argument("--data")
    p.add_argument("--config")
    p.add_argument("--preds")
    p.add_argument("--relevance-file", dest="relevance_file", default=None)
    p.add_argument("--out")
    p.add_argument("--from-experiment", dest="from_experiment", default=None,
                   help="experiment config; export run-averaged curves instead")
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("synth", help="generate synthetic data")
    p.add_argument("--kind", choices=("scenario", "biased"), default="scenario")
    p.add_argument("--n", type=int, default=500,
                   help="per-group size (scenario) or total size (biased)")
    p.add_argument("--divergence", type=float, default=1.0)
    p.add_argument("--attributes", type=int, default=2, choices=(1, 2))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("bench-approx", help="exact vs simplified training benchmark")
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--attributes", type=int, default=1, choices=(1, 2))
    p.add_argument("--rounds", type=int, default=20)
    p.add_argument("--w", type=float, default=0.5)
    approx = approx_mod.ApproxParams()
    p.add_argument("--sigma", type=float, default=approx.sigma)
    p.add_argument("--grid-step", dest="grid_step", type=float, default=approx.grid_step)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench_approx)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "curves" and not args.from_experiment:
        for required in ("data", "config", "preds", "out"):
            if getattr(args, required) is None:
                parser.error(f"curves requires --{required.replace('_', '-')}")
    try:
        return args.func(args)
    except (InterdivError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
