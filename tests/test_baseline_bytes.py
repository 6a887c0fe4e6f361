"""The benchmark's recorded output bytes, reproduced in process.

``perfbench/baseline.json`` records the sha256 of the ``train-idboost``
model file and the ``experiment-fast`` rank table for each benchmark seed.
Every change must keep them, so this runs the two workloads' commands on
the seed-101 inputs from ``perfbench/gen.py`` and compares the bytes. The
bits depend on numpy's floating-point kernels, so the test runs only under
the numpy version the baseline was recorded with.
"""
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from interdiv import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BASELINE = json.loads((PERFBENCH / "baseline.json").read_text())
SEED = "101"

pytestmark = pytest.mark.skipif(
    np.__version__ != BASELINE["host"]["numpy"],
    reason=f"baseline bytes were recorded with numpy {BASELINE['host']['numpy']}, "
           f"this is numpy {np.__version__}",
)


@pytest.fixture(scope="module")
def gen():
    sys.path.insert(0, str(PERFBENCH))  # gen.py imports its sibling oracle.py
    try:
        spec = importlib.util.spec_from_file_location("perfbench_gen", PERFBENCH / "gen.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def expected(workload: str) -> dict:
    return BASELINE["workloads"][workload]["sha256_by_seed"][SEED]


def test_train_idboost_model_bytes(gen, tmp_path):
    paths, _ = gen.generate("train-idboost", int(SEED), str(tmp_path))
    model = tmp_path / "model.json"
    assert cli.main(["train", "--data", paths["data"], "--config", paths["schema"],
                     *gen.WORKLOADS["train-idboost"]["train_args"], "--out", str(model)]) == 0
    assert sha256(model) == expected("train-idboost")["model.json"]


def test_experiment_fast_ranks_bytes(gen, tmp_path):
    paths, _ = gen.generate("experiment-fast", int(SEED), str(tmp_path))
    assert cli.main(["experiment", "--config", paths["experiment"], "--curves"]) == 0
    ranks = Path(paths["experiment_out"]) / "ranks.csv"
    assert sha256(ranks) == expected("experiment-fast")["ranks.csv"]
