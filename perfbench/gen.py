"""Seeded input generator for the benchmark, numpy only.

Everything a workload feeds the ``interdiv`` CLI comes from here: dataset
CSVs, schema and experiment configs, held-out rows and the ``score-50k``
model file. Nothing is taken from the program under test (no ``interdiv
synth``, no ``dataset.synth_biased``), so a change to the program cannot
change the workload. The same seed always gives the same bytes.

Run alone to inspect a workload's inputs::

    python3 perfbench/gen.py --workload train-idboost --seed 1 --out /tmp/w
"""
from __future__ import annotations

import argparse
import json
import os

import numpy as np

import oracle

ATTR_SHARE = (0.6, 0.55, 0.5)   # share of rows holding the privileged value
# The score-50k model's split features and thresholds come from this fixed
# stream, so its shape is the same for every seed and only its leaves (fitted
# to seeded rows) change; with seeded shapes the audited divergence spread
# four times wider across seeds.
MODEL_SHAPE_SEED = 7

# Sizes per workload. ``why`` in BENCHMARK.json repeats them in short.
WORKLOADS = {
    # Exact divergence-loss training of the dual ensemble: curve sweeps on
    # every round plus exact tree growth, the paper's headline path.
    "train-idboost": {
        "n": 20_000, "attrs": 2, "heldout": 100_000,
        "train_args": ["--model", "idboost", "--w", "0.5", "--rounds", "20",
                       "--depth", "3", "--lambda", "1e-6"],
    },
    # Scoring a saved model: CSV load, ensemble predict, prediction-file
    # I/O, the fairness report and curve export; no training at all.
    "score-50k": {
        "n": 50_000, "attrs": 2, "trees": 50, "depth": 6,
    },
    # Repeated-split comparison in simplified-curve mode with 8 groups and
    # many small fits, plus the harness and averaged-curve export.
    "experiment-fast": {
        "n": 8_000, "attrs": 3, "heldout": 100_000,
        "experiment": {"models": "mse, idloss, idboost_0.5", "runs": 3, "seed": 0,
                       "train_ratio": 0.8, "rounds": 40, "depth": 1, "fast": "true"},
    },
}


def make_rows(rng: np.random.Generator, n: int, attrs: int):
    """Targets, 0/1 protected matrix and features of one synthetic table.

    The target is continuous (about n distinct values, so about n curve
    breakpoints) and has a high tail whose size depends on group
    membership; two features are noisy proxies of the attributes, so a
    model can learn group-specific errors without seeing the attributes.
    """
    A = np.column_stack(
        [(rng.random(n) < ATTR_SHARE[j]).astype(np.int64) for j in range(attrs)]
    )
    x = rng.normal(size=(n, 3))
    proxy0 = A[:, 0] + 0.4 * rng.normal(size=n)
    proxy1 = A[:, 1:].sum(axis=1) + 0.4 * rng.normal(size=n)
    X = np.column_stack([x, proxy0, proxy1])
    unpriv = (1 - A) * np.array([0.8, 0.4, 0.3][:attrs])
    tail = (x[:, 2] > 1.0) * 6.0 * (1.0 + unpriv.sum(axis=1))
    y = 3.0 * x[:, 0] + 2.0 * x[:, 1] + 1.5 * np.sin(2.0 * x[:, 2]) + tail
    y = y + 0.5 * rng.normal(size=n)
    return y, A, X


def write_csv(path, y, A, X) -> None:
    header = ["y"] + [f"a{j}" for j in range(A.shape[1])]
    header += [f"x{j}" for j in range(X.shape[1])]
    table = np.column_stack([y, A, X])
    fmt = ["%.17g"] + ["%d"] * A.shape[1] + ["%.17g"] * X.shape[1]
    np.savetxt(path, table, fmt=fmt, delimiter=",", header=",".join(header),
               comments="")


def write_kv(path, mapping: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in mapping.items():
            fh.write(f"{key} = {value}\n")


def _schema(attrs: int) -> dict:
    names = ", ".join(f"a{j}" for j in range(attrs))
    return {"target": "y", "protected": names,
            "privileged": ", ".join(["1"] * attrs)}


def random_ensemble(shape, X, y, n_trees: int, depth: int, objective: str,
                    learning_rate: float = 0.1) -> dict:
    """A format-v1 ensemble of full trees with random splits.

    Split features and threshold positions are drawn from ``shape``; each
    leaf then takes the mean residual of the rows reaching it, so
    predictions track the target the way a trained model's do.
    """
    n_internal = 2 ** depth - 1
    n_nodes = 2 ** (depth + 1) - 1
    base = float(np.mean(y))
    preds = np.full(len(y), base)
    q10, q90 = np.quantile(X, [0.1, 0.9], axis=0)
    trees = []
    for _ in range(n_trees):
        idx = np.arange(n_nodes)
        feature = np.where(idx < n_internal, shape.integers(0, X.shape[1], n_nodes), -1)
        lo = q10[feature.clip(0)]
        hi = q90[feature.clip(0)]
        threshold = np.where(feature >= 0, lo + (hi - lo) * shape.random(n_nodes), 0.0)
        left = np.where(feature >= 0, 2 * idx + 1, -1)
        right = np.where(feature >= 0, 2 * idx + 2, -1)
        tree = {"feature": feature.tolist(), "threshold": threshold.tolist(),
                "left": left.tolist(), "right": right.tolist(),
                "value": [0.0] * n_nodes}
        leaf = oracle.leaf_of(tree, X)
        resid = np.bincount(leaf, weights=y - preds, minlength=n_nodes)
        count = np.bincount(leaf, minlength=n_nodes)
        value = np.where(count > 0, resid / np.maximum(count, 1), 0.0)
        tree["value"] = value.tolist()
        preds = preds + learning_rate * value[leaf]
        trees.append(tree)
    return {
        "format": "interdiv-ensemble", "version": 1, "objective": objective,
        "base_score": base, "n_features": int(X.shape[1]),
        "params": {"n_rounds": n_trees, "learning_rate": learning_rate,
                   "max_depth": depth, "min_child_hessian": 0.0,
                   "l2_lambda": 1.0, "hess_floor": 1e-6, "seed": 0},
        "train_trace": [], "region_switches": None, "eval_points": None,
        "trees": trees,
    }


def generate(workload: str, seed: int, out: str):
    """Write every input of ``workload`` under ``out``.

    Returns the file paths and the in-memory inputs (``(y, A, X)`` tables
    and the model document) that the output checks compare against.
    """
    spec = WORKLOADS[workload]
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    os.makedirs(out, exist_ok=True)
    paths = {"data": os.path.join(out, "data.csv"),
             "schema": os.path.join(out, "schema.cfg")}
    inputs = {"data": make_rows(rng, spec["n"], spec["attrs"])}
    write_csv(paths["data"], *inputs["data"])
    write_kv(paths["schema"], _schema(spec["attrs"]))
    if "heldout" in spec:
        # held-out rows for the trained model's quality guard, never trained on
        inputs["heldout"] = make_rows(rng, spec["heldout"], spec["attrs"])
        paths["heldout"] = os.path.join(out, "heldout.csv")
        write_csv(paths["heldout"], *inputs["heldout"])
    if "trees" in spec:
        # the model is fitted on rows of the same distribution, not the scored ones
        fy, _, fX = make_rows(rng, 20_000, spec["attrs"])
        shape = np.random.default_rng(MODEL_SHAPE_SEED)
        doc = {
            "format": "interdiv-idboost", "version": 1, "w": 0.5,
            "id_ensemble": random_ensemble(shape, fX, fy, spec["trees"], spec["depth"], "idloss"),
            "sera_ensemble": random_ensemble(shape, fX, fy, spec["trees"], spec["depth"], "sera"),
        }
        inputs["model"] = doc
        paths["model"] = os.path.join(out, "model.json")
        with open(paths["model"], "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
    if "experiment" in spec:
        paths["experiment"] = os.path.join(out, "experiment.cfg")
        write_kv(paths["experiment"], {
            "data": "data.csv", **_schema(spec["attrs"]), "out": "exp_out",
            **spec["experiment"]})
        paths["experiment_out"] = os.path.join(out, "exp_out")
    return paths, inputs


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    for name, path in generate(args.workload, args.seed, args.out)[0].items():
        print(f"{name}: {path}")


if __name__ == "__main__":
    main()
