import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interdiv import cli, config, dataset, gbt, metrics, parallel, relevance
from interdiv.errors import ConfigError, InputError, SchemaError, ValidationError
from interdiv.losses import DEFAULT_HUBER_DELTA

from conftest import (parent_fit_model, parent_read_preds, parent_write_csv, parent_write_preds,
                      utf8_error_message)
from test_parallel import buffered_env


def run_cli(*argv):
    return cli.main(list(argv))


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--bogus")
        assert exc.value.code == 2

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("frobnicate")
        assert exc.value.code == 2

    def test_operational_failure_is_one(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.csv")
        cfg = tmp_path / "schema.cfg"
        cfg.write_text("target = y\nprotected = a\nprivileged = 1\n")
        code = run_cli(
            "audit", "--data", missing, "--config", str(cfg), "--preds", missing
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_success_is_zero(self, tmp_path):
        assert run_cli(
            "synth", "--kind", "scenario", "--n", "50", "--seed", "1",
            "--out", str(tmp_path / "s"),
        ) == 0


@pytest.fixture
def scenario_dir(tmp_path):
    out = tmp_path / "scen"
    assert run_cli(
        "synth", "--kind", "scenario", "--n", "120", "--divergence", "0",
        "--seed", "1", "--out", str(out),
    ) == 0
    return out


@pytest.fixture
def biased_dir(tmp_path):
    out = tmp_path / "biased"
    assert run_cli(
        "synth", "--kind", "biased", "--n", "300", "--attributes", "1",
        "--seed", "2", "--out", str(out),
    ) == 0
    return out


class TestSynthAudit:
    def test_zero_divergence_audit_is_fair(self, scenario_dir, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = run_cli(
            "audit",
            "--data", str(scenario_dir / "data.csv"),
            "--config", str(scenario_dir / "schema.cfg"),
            "--preds", str(scenario_dir / "preds.csv"),
            "--out", str(report_path), "--json",
        )
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert abs(doc["id"]) <= 1e-9
        assert abs(doc["delta_bgl"]) <= 1e-9
        # stdout JSON parses and round-trips
        out = capsys.readouterr().out.strip()
        assert json.dumps(json.loads(out), sort_keys=True) == out

    def test_manifest_written(self, scenario_dir):
        doc = json.loads((scenario_dir / "manifest.json").read_text())
        assert doc["tool"] == "interdiv"
        assert doc["command"] == "synth"
        assert doc["parameters"]["divergence"] == 0.0


class TestTrainPredictAudit:
    def test_full_pipeline(self, biased_dir, tmp_path, capsys):
        model = tmp_path / "model.json"
        preds = tmp_path / "preds.csv"
        data = str(biased_dir / "data.csv")
        cfg = str(biased_dir / "schema.cfg")
        assert run_cli(
            "train", "--data", data, "--config", cfg,
            "--objective", "sera", "--rounds", "3", "--depth", "2",
            "--lambda", "1e-6", "--out", str(model),
        ) == 0
        assert run_cli(
            "predict", "--data", data, "--config", cfg,
            "--model", str(model), "--out", str(preds),
        ) == 0
        assert run_cli(
            "audit", "--data", data, "--config", cfg,
            "--preds", str(preds), "--json",
        ) == 0
        doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert doc["n"] == 300
        assert doc["mse"] >= 0
        # model manifest records the resolved parameters
        man = json.loads((tmp_path / "model.json.manifest.json").read_text())
        assert man["parameters"]["objective"] == "sera"
        assert man["parameters"]["rounds"] == 3

    def test_idboost_training_and_prediction(self, biased_dir, tmp_path):
        model = tmp_path / "idb.json"
        assert run_cli(
            "train", "--data", str(biased_dir / "data.csv"),
            "--config", str(biased_dir / "schema.cfg"),
            "--model", "idboost", "--w", "0.5", "--rounds", "2", "--depth", "2",
            "--lambda", "1e-6", "--out", str(model),
        ) == 0
        doc = json.loads(model.read_text())
        assert doc["format"] == "interdiv-idboost"
        assert doc["w"] == 0.5
        preds = tmp_path / "idb_preds.csv"
        assert run_cli(
            "predict", "--data", str(biased_dir / "data.csv"),
            "--config", str(biased_dir / "schema.cfg"),
            "--model", str(model), "--out", str(preds),
        ) == 0
        assert len(preds.read_text().splitlines()) == 301  # header + rows

    @pytest.mark.parametrize("fast", [[], ["--fast"]], ids=["exact", "fast"])
    def test_idboost_model_bytes_equal_in_one_and_two_processes(
        self, biased_dir, tmp_path, monkeypatch, fast
    ):
        written = []
        for cpus in (1, 2):
            monkeypatch.setattr(parallel, "cpus", lambda: cpus)
            model = tmp_path / f"idb_{cpus}.json"
            assert run_cli(
                "train", "--data", str(biased_dir / "data.csv"),
                "--config", str(biased_dir / "schema.cfg"),
                "--model", "idboost", "--w", "0.3", "--rounds", "3", "--depth", "2",
                "--lambda", "1e-6", *fast, "--out", str(model),
            ) == 0
            written.append(model.read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize("flags, objective, w, huber_delta, fast", [
        (["--objective", "huber", "--huber-delta", "0.7"], "huber", None, 0.7, False),
        (["--objective", "idloss", "--fast"], "idloss", None, DEFAULT_HUBER_DELTA, True),
        (["--model", "idboost", "--w", "0.3", "--fast"], "mse", 0.3, DEFAULT_HUBER_DELTA, True),
    ], ids=["huber", "idloss-fast", "idboost-fast"])
    def test_model_bytes_equal_parent_fit_model(
        self, biased_dir, tmp_path, flags, objective, w, huber_delta, fast
    ):
        data, schema = str(biased_dir / "data.csv"), str(biased_dir / "schema.cfg")
        model, want = tmp_path / "model.json", tmp_path / "want.json"
        assert run_cli("train", "--data", data, "--config", schema, "--rounds", "2",
                       "--depth", "2", *flags, "--out", str(model)) == 0
        ds = dataset.load_csv(data, config.load_schema(schema))
        parent_fit_model(ds, relevance.from_boxplot(ds.targets),
                         gbt.BoostParams(n_rounds=2, max_depth=2), objective, w,
                         huber_delta, fast).to_json(want)
        assert model.read_bytes() == want.read_bytes()

    def test_fast_training_flag(self, biased_dir, tmp_path):
        model = tmp_path / "fast.json"
        assert run_cli(
            "train", "--data", str(biased_dir / "data.csv"),
            "--config", str(biased_dir / "schema.cfg"),
            "--objective", "idloss", "--fast", "--rounds", "2", "--depth", "2",
            "--lambda", "1e-6", "--out", str(model),
        ) == 0
        doc = json.loads(model.read_text())
        # the fast sweep touches far fewer cutoffs than breakpoints x rounds
        assert doc["eval_points"] < 2 * 300

    @pytest.mark.parametrize("flag", ["--lambda", "--min-child-hessian", "--hess-floor"])
    def test_non_finite_boost_flag_fails(self, biased_dir, tmp_path, capsys, flag):
        model = tmp_path / "model.json"
        assert run_cli(
            "train", "--data", str(biased_dir / "data.csv"),
            "--config", str(biased_dir / "schema.cfg"),
            "--objective", "mse", "--rounds", "2", flag, "nan", "--out", str(model),
        ) == 1
        assert "finite" in capsys.readouterr().err
        assert not model.exists()

    def test_prediction_length_mismatch_fails(self, biased_dir, tmp_path, capsys):
        bad = tmp_path / "short.csv"
        bad.write_text("pred\n1.0\n2.0\n")
        code = run_cli(
            "audit", "--data", str(biased_dir / "data.csv"),
            "--config", str(biased_dir / "schema.cfg"), "--preds", str(bad),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "2" in err and "300" in err

    def test_non_finite_prediction_fails(self, biased_dir, tmp_path, capsys):
        preds = ["pred"] + ["1.0"] * 300
        preds[1 + 17] = "nan"
        bad = tmp_path / "nan.csv"
        bad.write_text("\n".join(preds) + "\n")
        code = run_cli(
            "audit", "--data", str(biased_dir / "data.csv"),
            "--config", str(biased_dir / "schema.cfg"), "--preds", str(bad),
        )
        assert code == 1
        assert "non-finite prediction at sample index 17" in capsys.readouterr().err


class TestPredictInBlocks:
    """``predict`` shares rows out over the CPUs in blocks of at least
    ``BLOCK_ROWS`` rows, here 100 of the 300."""

    @pytest.fixture
    def model(self, biased_dir, tmp_path, monkeypatch):
        monkeypatch.setattr(dataset, "BLOCK_ROWS", 100)
        model = tmp_path / "idb.json"
        assert run_cli(
            "train", "--data", str(biased_dir / "data.csv"),
            "--config", str(biased_dir / "schema.cfg"), "--model", "idboost", "--w", "0.3",
            "--rounds", "3", "--depth", "3", "--out", str(model),
        ) == 0
        return str(model)

    def test_same_bytes_on_one_two_and_three_cpus(self, biased_dir, tmp_path, monkeypatch,
                                                  model):
        written = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(parallel, "cpus", lambda: cpus)
            preds = tmp_path / f"preds_{cpus}.csv"
            assert run_cli(
                "predict", "--data", str(biased_dir / "data.csv"),
                "--config", str(biased_dir / "schema.cfg"), "--model", model,
                "--out", str(preds),
            ) == 0
            written.append(preds.read_bytes())
        assert written[0] == written[1] == written[2]

    def test_non_finite_feature_names_the_row_of_the_matrix(self, biased_dir, tmp_path,
                                                            monkeypatch, capsys, model):
        # a dataset file cannot hold one, so the loaded matrix is replaced
        ds = dataset.load_csv(biased_dir / "data.csv",
                              config.load_schema(biased_dir / "schema.cfg"))
        X = ds.features.copy()
        X[-1, 0] = np.inf
        monkeypatch.setattr(cli, "_load_dataset", lambda args: dataset.from_arrays(
            X, ds.targets, ds.protected))
        monkeypatch.setattr(parallel, "cpus", lambda: 3)
        capsys.readouterr()
        assert run_cli(
            "predict", "--data", "unread.csv", "--config", "unread.cfg", "--model", model,
            "--out", str(tmp_path / "preds.csv"),
        ) == 1
        assert capsys.readouterr().err == f"error: non-finite feature in row {ds.n - 1}\n"


class TestMalformedModelFile:
    """``predict`` on a broken model file exits 1 with ``error:``, not a traceback."""

    @pytest.fixture
    def doc(self, biased_dir, tmp_path):
        model = tmp_path / "idb.json"
        assert run_cli(
            "train", "--data", str(biased_dir / "data.csv"),
            "--config", str(biased_dir / "schema.cfg"),
            "--model", "idboost", "--w", "0.5", "--rounds", "1", "--depth", "1",
            "--out", str(model),
        ) == 0
        return json.loads(model.read_text())

    def predict_error(self, doc, biased_dir, tmp_path, capsys):
        model = tmp_path / "bad.json"
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run_cli(
            "predict", "--data", str(biased_dir / "data.csv"),
            "--config", str(biased_dir / "schema.cfg"),
            "--model", str(model), "--out", str(tmp_path / "preds.csv"),
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err
        return err

    @pytest.mark.parametrize(
        "content", [b"notes\n", b"\xff\xfe{}", b"[" * 100000 + b"]" * 100000],
        ids=["not-json", "not-utf8", "nested-too-deep"],
    )
    def test_unreadable_file_is_named(self, biased_dir, tmp_path, capsys, content):
        model = tmp_path / "notes.txt"
        model.write_bytes(content)
        code = run_cli(
            "predict", "--data", str(biased_dir / "data.csv"),
            "--config", str(biased_dir / "schema.cfg"),
            "--model", str(model), "--out", str(tmp_path / "preds.csv"),
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and str(model) in err

    def test_ensemble_without_trees(self, doc, biased_dir, tmp_path, capsys):
        del doc["id_ensemble"]["trees"]
        assert "'trees'" in self.predict_error(doc, biased_dir, tmp_path, capsys)

    def test_tree_that_is_an_int(self, doc, biased_dir, tmp_path, capsys):
        doc["sera_ensemble"]["trees"][0] = 7
        err = self.predict_error(doc, biased_dir, tmp_path, capsys)
        assert "tree must be a JSON object" in err

    def test_top_level_list(self, doc, biased_dir, tmp_path, capsys):
        err = self.predict_error([doc], biased_dir, tmp_path, capsys)
        assert "must hold a JSON object" in err

    def test_unknown_params_key(self, doc, biased_dir, tmp_path, capsys):
        doc["id_ensemble"]["params"]["bogus"] = 1
        assert "bogus" in self.predict_error(doc, biased_dir, tmp_path, capsys)

    def test_non_finite_w(self, doc, biased_dir, tmp_path, capsys):
        doc["w"] = float("nan")
        err = self.predict_error(doc, biased_dir, tmp_path, capsys)
        assert "w must be in [0, 1], got nan" in err

    def test_w_out_of_range(self, doc, biased_dir, tmp_path, capsys):
        doc["w"] = 1.5
        err = self.predict_error(doc, biased_dir, tmp_path, capsys)
        assert "w must be in [0, 1], got 1.5" in err

    @pytest.mark.parametrize("name, replace", [
        ("left", lambda old: 1e30),
        ("left", lambda old: old + 0.5),
        ("feature", lambda old: str(old)),
        ("feature", lambda old: True),
    ], ids=["child-1e30", "child-fraction", "feature-string", "feature-bool"])
    def test_tree_index_that_is_not_an_integer(
        self, doc, biased_dir, tmp_path, capsys, name, replace
    ):
        tree = doc["id_ensemble"]["trees"][0]
        assert tree["feature"][0] >= 0  # the root splits
        tree[name][0] = replace(tree[name][0])
        err = self.predict_error(doc, biased_dir, tmp_path, capsys)
        assert f"tree {name} must be a list of JSON integers" in err

    def test_child_index_too_large_for_int64(self, doc, biased_dir, tmp_path, capsys):
        doc["id_ensemble"]["trees"][0]["left"][0] = 10**30
        err = self.predict_error(doc, biased_dir, tmp_path, capsys)
        assert str(tmp_path / "bad.json") in err

    def test_fractional_n_features(self, doc, biased_dir, tmp_path, capsys):
        doc["sera_ensemble"]["n_features"] += 0.7
        err = self.predict_error(doc, biased_dir, tmp_path, capsys)
        assert "n_features must be a JSON integer" in err

    @pytest.mark.parametrize("mutate, message", [
        (lambda d: d["id_ensemble"]["trees"][0]["threshold"].__setitem__(0, "0.5"),
         "tree threshold must be a list of JSON numbers"),
        (lambda d: d["id_ensemble"]["trees"][0]["value"].__setitem__(-1, True),
         "tree value must be a list of JSON numbers"),
        (lambda d: d["sera_ensemble"]["params"].__setitem__("learning_rate", True),
         "ensemble params learning_rate must be a JSON number, got True"),
        (lambda d: d["sera_ensemble"]["params"].__setitem__("l2_lambda", "1"),
         "ensemble params l2_lambda must be a JSON number, got '1'"),
        (lambda d: d.__setitem__("w", True), "idboost weight w must be a JSON number, got True"),
        (lambda d: d["id_ensemble"].__setitem__("base_score", "3.5"),
         "ensemble base_score must be a JSON number, got '3.5'"),
    ], ids=["threshold-string", "value-bool", "learning-rate-bool", "l2-lambda-string",
            "w-bool", "base-score-string"])
    def test_float_field_that_is_not_a_number(
        self, doc, biased_dir, tmp_path, capsys, mutate, message
    ):
        mutate(doc)
        assert message in self.predict_error(doc, biased_dir, tmp_path, capsys)


class TestExtremeParameterValues:
    @pytest.mark.filterwarnings("error")
    def test_huge_hess_floor_is_an_error(self, biased_dir, tmp_path, capsys):
        model = tmp_path / "model.json"
        assert run_cli(
            "train", "--data", str(biased_dir / "data.csv"),
            "--config", str(biased_dir / "schema.cfg"),
            "--rounds", "2", "--hess-floor", "1e308", "--out", str(model),
        ) == 1
        err = capsys.readouterr().err
        assert "error: the Hessians floored at hess_floor=1e+308" in err
        assert not model.exists()

    @pytest.mark.filterwarnings("error")
    def test_huge_huber_delta_trains_without_warnings(self, biased_dir, tmp_path):
        assert run_cli(
            "train", "--data", str(biased_dir / "data.csv"),
            "--config", str(biased_dir / "schema.cfg"), "--objective", "huber",
            "--rounds", "2", "--huber-delta", "1e308", "--out", str(tmp_path / "m.json"),
        ) == 0

    @pytest.mark.parametrize("command", ["train", "synth", "bench-approx", "experiment"])
    def test_negative_seed_is_an_error(self, biased_dir, tmp_path, capsys, command):
        data = ["--data", str(biased_dir / "data.csv"), "--config", str(biased_dir / "schema.cfg")]
        argv = {
            "train": ["train", *data, "--rounds", "1", "--seed", "-1",
                      "--out", str(tmp_path / "m.json")],
            "synth": ["synth", "--seed", "-1", "--out", str(tmp_path / "s")],
            "bench-approx": ["bench-approx", "--n", "60", "--rounds", "1", "--seed", "-1"],
            "experiment": ["experiment", "--config", str(tmp_path / "exp.cfg")],
        }[command]
        (tmp_path / "exp.cfg").write_text(
            f"data = {biased_dir / 'data.csv'}\ntarget = y\nprotected = a0\n"
            "privileged = 1\nmodels = mse\nseed = -1\n"
        )
        assert run_cli(*argv) == 1
        assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()
        assert not (tmp_path / "s" / "data.csv").exists()


# the parsed arguments no manifest records: they pick the command and where
# its output goes (``help`` is argparse's own)
UNRECORDED = {"command", "func", "out", "json", "from_experiment", "help"}


@pytest.fixture(scope="module")
def manifests(tmp_path_factory):
    """Run every command whose manifest comes from its parsed arguments.

    Maps a case name to ``(manifest document, command, expected parameters)``.
    """
    d = tmp_path_factory.mktemp("manifests")
    scen, biased = d / "scen", d / "biased"
    data = ["--data", str(biased / "data.csv"), "--config", str(biased / "schema.cfg")]
    scored = {"data": str(biased / "data.csv"), "config": str(biased / "schema.cfg")}
    rel = d / "rel.csv"
    rel.write_text("y,relevance\n-2,0\n0,0.3\n6,1\n")
    train_flags = [
        "--rounds", "3", "--eta", "0.2", "--depth", "2", "--min-child-hessian", "0.5",
        "--lambda", "2", "--hess-floor", "1e-5", "--seed", "3",
    ]
    assert set(train_flags[::2]) == set(cli.BOOST_FLAGS)
    cases = {
        "synth-scenario": (
            ["synth", "--kind", "scenario", "--n", "60", "--divergence", "0.7",
             "--seed", "3", "--out", str(scen)],
            scen / "manifest.json",
            {"kind": "scenario", "n": 60, "divergence": 0.7, "attributes": 2, "seed": 3},
        ),
        "synth-biased": (
            ["synth", "--kind", "biased", "--n", "200", "--attributes", "1",
             "--seed", "4", "--out", str(biased)],
            biased / "manifest.json",
            {"kind": "biased", "n": 200, "divergence": 1.0, "attributes": 1, "seed": 4},
        ),
        "train": (
            ["train", *data, "--relevance-file", str(rel), "--model", "ensemble",
             "--objective", "huber", "--w", "0.25", *train_flags, "--huber-delta", "0.7",
             "--fast", "--out", str(d / "m.json")],
            d / "m.json.manifest.json",
            {**scored, "model": "ensemble", "objective": "huber", "w": 0.25,
             "rounds": 3, "eta": 0.2, "depth": 2, "min_child_hessian": 0.5,
             "lambda": 2.0, "hess_floor": 1e-5, "seed": 3, "huber_delta": 0.7,
             "fast": True, "relevance_file": str(rel)},
        ),
        "predict": (
            ["predict", *data, "--model", str(d / "m.json"), "--out", str(d / "p.csv")],
            d / "p.csv.manifest.json",
            {**scored, "model": str(d / "m.json")},
        ),
        "audit": (
            ["audit", *data, "--preds", str(d / "p.csv"), "--out", str(d / "a.json")],
            d / "a.json.manifest.json",
            {**scored, "preds": str(d / "p.csv"), "relevance_file": None},
        ),
        "audit-json": (
            ["audit", *data, "--preds", str(d / "p.csv"), "--relevance-file", str(rel),
             "--json", "--out", str(d / "aj.json")],
            d / "aj.json.manifest.json",
            {**scored, "preds": str(d / "p.csv"), "relevance_file": str(rel)},
        ),
        "curves": (
            ["curves", "--data", str(scen / "data.csv"), "--config", str(scen / "schema.cfg"),
             "--preds", str(scen / "preds.csv"), "--out", str(d / "c.csv")],
            d / "c.csv.manifest.json",
            {"data": str(scen / "data.csv"), "config": str(scen / "schema.cfg"),
             "preds": str(scen / "preds.csv"), "relevance_file": None},
        ),
        "bench-approx": (
            ["bench-approx", "--n", "120", "--rounds", "2", "--attributes", "2",
             "--seed", "2", "--sigma", "0.05", "--out", str(d / "b.csv")],
            d / "b.csv.manifest.json",
            {"n": 120, "attributes": 2, "rounds": 2, "w": 0.5, "sigma": 0.05,
             "grid_step": 0.001, "seed": 2},
        ),
    }
    found = {}
    for name, (argv, path, params) in cases.items():
        assert run_cli(*argv) == 0, name
        found[name] = (json.loads(path.read_text()), argv[0], params)
    return found


class TestManifests:
    @pytest.mark.parametrize("case", [
        "synth-scenario", "synth-biased", "train", "predict", "audit", "audit-json",
        "curves", "bench-approx",
    ])
    def test_parameters_recorded(self, manifests, case):
        doc, command, params = manifests[case]
        assert doc["command"] == command
        assert doc["parameters"] == params

    def test_every_parsed_flag_is_recorded(self, manifests):
        key_of = {name: flag[2:].replace("-", "_") for flag, (name, _) in cli.BOOST_FLAGS.items()}
        (commands,) = [a for a in cli.build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)]
        for case, (_, command, params) in manifests.items():
            dests = {key_of.get(a.dest, a.dest) for a in commands.choices[command]._actions}
            assert dests - UNRECORDED == set(params), case

    def test_bench_approx_rows_come_from_its_report(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        assert run_cli("bench-approx", "--n", "120", "--rounds", "2", "--out", str(out)) == 0
        r = json.loads(capsys.readouterr().out)
        assert out.read_text().splitlines() == [
            "metric,exact,fast,delta_pct",
            f"time_s,{r['time_exact']:.17g},{r['time_fast']:.17g},{r['time_pct']:.17g}",
            f"sera,{r['sera_exact']:.17g},{r['sera_fast']:.17g},{r['sera_delta_pct']:.17g}",
            f"id,{r['id_exact']:.17g},{r['id_fast']:.17g},{r['id_delta_pct']:.17g}",
            f"eval_points,{r['eval_points_exact']},{r['eval_points_fast']},"
            f"{r['eval_points_reduction_pct']:.17g}",
        ]


class TestSynthData:
    @pytest.mark.parametrize("kind, make", [
        ("scenario", lambda: dataset.synth_imbalanced_scenario(200, 1.0, 3)[0]),
        ("biased", lambda: dataset.synth_biased(200, 3, n_protected=2)),
    ])
    def test_data_keeps_the_parent_bytes(self, tmp_path, kind, make):
        out = tmp_path / "s"
        assert run_cli("synth", "--kind", kind, "--n", "200", "--seed", "3",
                       "--out", str(out)) == 0
        parent_write_csv(tmp_path / "want.csv", make())
        assert (out / "data.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


class TestRejectedSynth:
    @pytest.mark.parametrize("flags", [["--n", "5"], ["--seed", "-1"], ["--divergence", "inf"]])
    def test_leaves_no_directory(self, tmp_path, capsys, flags):
        out = tmp_path / "s"
        assert run_cli("synth", *flags, "--out", str(out)) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


# Traced peak of reading and of writing a 50k-row prediction file, per row.
# Block by block, reading measured 36.8 (the file's bytes, about 19 per row,
# the parsed blocks and their join) and writing 2.3; with one string per line
# of the whole file, 123 and 109.
READ_PREDS_PEAK_PER_ROW = 60
WRITE_PREDS_PEAK_PER_ROW = 10

# A prediction file's lines: a header, numbers, a second cell, padding, blank
# lines and rows that are not numbers, each ended by LF, CRLF or CR
_PRED_TOKEN = st.one_of(
    st.floats(width=64).map(lambda v: "%.17g" % v),
    st.sampled_from(["pred", "-0", "1_0", "inf", "-nan", "oops", "", " ", "\t", "1e999"]),
)
_PRED_LINE = st.tuples(st.sampled_from(["", " ", "\t"]), _PRED_TOKEN,
                       st.sampled_from(["", ",x", ", 2"]), st.sampled_from(["", " "]),
                       st.sampled_from(["\n", "\r\n", "\r"])).map("".join)


class TestReadPreds:
    # the files of the tests below, read with every block size
    HEADER_FILES = {"h.csv": "pred\n1.5\n-0\n\n 2e3 ,x\n", "b.csv": "1.5\n-0\n2e3\n"}
    LINES = ["pred", "1.5", "", " -2 ", "3e-1,x", "", ""]

    def test_header_is_optional(self, tmp_path):
        with_header = tmp_path / "h.csv"
        with_header.write_text(self.HEADER_FILES["h.csv"])
        bare = tmp_path / "b.csv"
        bare.write_text(self.HEADER_FILES["b.csv"])
        for path in (with_header, bare):
            vals = dataset.read_preds(str(path))
            assert vals.tolist() == [1.5, 0.0, 2000.0]
            assert np.signbit(vals[1])

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["plain", "bom"])
    def test_line_ends(self, tmp_path, end, bom):
        path = tmp_path / "p.csv"
        path.write_bytes((bom + end.join(self.LINES)).encode("utf-8"))
        assert dataset.read_preds(str(path)).tolist() == [1.5, -2.0, 0.3]

    def test_non_finite_values_are_read(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("pred\n1\ninf\nnan\n")
        vals = dataset.read_preds(str(path))
        assert vals[0] == 1.0 and np.isposinf(vals[1]) and np.isnan(vals[2])

    def test_first_bad_row_named(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("pred\n1\ninf\noops,1\nworse\n")
        with pytest.raises(InputError, match="'oops,1'"):
            dataset.read_preds(str(path))

    @pytest.mark.parametrize("block_rows", [1, 2, 3, dataset.BLOCK_ROWS])
    def test_every_block_size_reads_the_cases_above(self, tmp_path, monkeypatch, block_rows):
        monkeypatch.setattr(dataset, "BLOCK_ROWS", block_rows)
        files = {name: text.encode() for name, text in self.HEADER_FILES.items()}
        for bom in ("", "\ufeff"):
            for end in ("\n", "\r\n", "\r"):
                files[f"{len(bom)}{end!r}.csv"] = (bom + end.join(self.LINES)).encode("utf-8")
        files["inf.csv"] = b"pred\n1\ninf\nnan\n"
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
            vals, want = dataset.read_preds(tmp_path / name), parent_read_preds(tmp_path / name)
            assert (vals.dtype, vals.tobytes()) == (want.dtype, want.tobytes()), name
        (tmp_path / "bad.csv").write_text("pred\n1\ninf\noops,1\nworse\n")
        with pytest.raises(InputError, match="'oops,1'"):
            dataset.read_preds(tmp_path / "bad.csv")

    @settings(max_examples=200, deadline=None)
    @given(bom=st.booleans(), lines=st.lists(_PRED_LINE, max_size=12),
           block_rows=st.sampled_from([1, 2, 3, dataset.BLOCK_ROWS]))
    def test_reads_as_the_whole_file_reader(self, tmp_path_factory, bom, lines, block_rows):
        path = tmp_path_factory.mktemp("preds") / "p.csv"
        path.write_bytes(("\ufeff" * bom + "".join(lines)).encode("utf-8"))
        try:
            want = parent_read_preds(path)
        except InputError as exc:
            with mock.patch.object(dataset, "BLOCK_ROWS", block_rows), \
                    pytest.raises(InputError) as got:
                dataset.read_preds(path)
            assert str(got.value) == str(exc)
            return
        with mock.patch.object(dataset, "BLOCK_ROWS", block_rows):
            vals = dataset.read_preds(path)
        assert (vals.dtype, vals.tobytes()) == (want.dtype, want.tobytes())

    @pytest.mark.parametrize("block_rows", [1, 3, dataset.BLOCK_ROWS])
    @pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 3000])
    def test_writes_the_whole_file_bytes(self, tmp_path, monkeypatch, n, block_rows):
        monkeypatch.setattr(dataset, "BLOCK_ROWS", block_rows)
        preds = np.random.default_rng(n).normal(size=n) * 10.0 ** np.arange(-3, 4).repeat(
            n // 7 + 1)[:n]
        preds[::5] = -0.0
        dataset.write_preds(tmp_path / "new.csv", preds)
        parent_write_preds(tmp_path / "old.csv", preds)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert dataset.read_preds(tmp_path / "new.csv").tobytes() == preds.tobytes()

    N = 50_000

    @staticmethod
    def traced(fn, *args):
        tracemalloc.start()
        try:
            return fn(*args), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_write_traced_peak_per_row(self, tmp_path):
        preds = np.random.default_rng(0).normal(size=self.N) * 1e3
        _, peak = self.traced(dataset.write_preds, tmp_path / "p.csv", preds)
        assert dataset.read_preds(tmp_path / "p.csv").tobytes() == preds.tobytes()
        assert peak < WRITE_PREDS_PEAK_PER_ROW * self.N

    def test_read_traced_peak_per_row(self, tmp_path):
        preds = np.random.default_rng(0).normal(size=self.N) * 1e3
        dataset.write_preds(tmp_path / "p.csv", preds)
        vals, peak = self.traced(dataset.read_preds, tmp_path / "p.csv")
        assert vals.tobytes() == preds.tobytes()
        assert peak < READ_PREDS_PEAK_PER_ROW * self.N


class TestEndToEndFairnessGain:
    def test_divergence_objective_beats_mse_via_cli(self, tmp_path):
        # train -> predict -> audit for both objectives on the biased
        # generator; the divergence objective must win on id in a majority
        wins = 0
        seeds = (0, 1, 2)
        for seed in seeds:
            d = tmp_path / f"s{seed}"
            assert run_cli(
                "synth", "--kind", "biased", "--n", "800", "--attributes", "2",
                "--seed", str(seed), "--out", str(d),
            ) == 0
            ids = {}
            for obj in ("idloss", "mse"):
                assert run_cli(
                    "train", "--data", str(d / "data.csv"),
                    "--config", str(d / "schema.cfg"),
                    "--objective", obj, "--rounds", "25", "--depth", "3",
                    "--lambda", "1e-6", "--seed", str(seed),
                    "--out", str(d / f"{obj}.json"),
                ) == 0
                assert run_cli(
                    "predict", "--data", str(d / "data.csv"),
                    "--config", str(d / "schema.cfg"),
                    "--model", str(d / f"{obj}.json"),
                    "--out", str(d / f"{obj}_preds.csv"),
                ) == 0
                assert run_cli(
                    "audit", "--data", str(d / "data.csv"),
                    "--config", str(d / "schema.cfg"),
                    "--preds", str(d / f"{obj}_preds.csv"),
                    "--json", "--out", str(d / f"{obj}_report.json"),
                ) == 0
                ids[obj] = json.loads((d / f"{obj}_report.json").read_text())["id"]
            wins += ids["idloss"] < ids["mse"]
        assert wins >= 2, f"divergence objective won only {wins}/{len(seeds)}"


class TestAuditDeltaTable:
    @staticmethod
    def audit_args(tmp_path):
        """``audit`` on a weighted-cell fixture whose All-row MAEs are exactly
        0.275/0.320, so the conditioned delta column reads -14.1/-16.3/-12.8."""
        rows = ["race,sex,y,x0"]
        cells = {
            ("W", "M"): (17, 0.287), ("W", "F"): (12, 0.258),
            ("B", "M"): (24, 0.343), ("B", "F"): (23, 0.296),
        }
        preds = ["pred"]
        for (race, sex), (cnt, err) in cells.items():
            for _ in range(cnt):
                rows.append(f"{race},{sex},0.0,1.0")
                preds.append(repr(err))
        data = tmp_path / "fixture.csv"
        data.write_text("\n".join(rows) + "\n")
        pred_path = tmp_path / "preds.csv"
        pred_path.write_text("\n".join(preds) + "\n")
        cfg = tmp_path / "schema.cfg"
        cfg.write_text("target = y\nprotected = race, sex\nprivileged = W, M\n")
        rel = tmp_path / "rel.csv"
        rel.write_text("y,relevance\n-1,1\n1,1\n")
        return ["audit", "--data", str(data), "--config", str(cfg),
                "--preds", str(pred_path), "--relevance-file", str(rel)]

    def test_fixture_reproduces_known_delta_column(self, tmp_path, capsys):
        assert run_cli(*self.audit_args(tmp_path), "--json") == 0
        doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        table = next(
            t for t in doc["mae_delta_tables"]
            if t["measure_attribute"] == "race" and t["condition_attribute"] == "sex"
        )
        deltas = [round(r["delta_pct"], 1) for r in table["rows"]]
        assert deltas == [-14.1, -16.3, -12.8]

    def test_human_report_prints_both_tables(self, tmp_path, capsys):
        assert run_cli(*self.audit_args(tmp_path)) == 0
        err = capsys.readouterr().err.splitlines()
        assert err[3:] == [
            "-- MAE delta for race conditioned on sex:",
            "   all: priv=0.275 unpriv=0.32 delta=-14.1%",
            "   sex=privileged: priv=0.287 unpriv=0.343 delta=-16.3% [increase]",
            "   sex=unprivileged: priv=0.258 unpriv=0.296 delta=-12.8% [decrease]",
            "-- MAE delta for sex conditioned on race:",
            "   all: priv=0.3198 unpriv=0.283 delta=+13.0%",
            "   race=privileged: priv=0.287 unpriv=0.258 delta=+11.2% [decrease]",
            "   race=unprivileged: priv=0.343 unpriv=0.296 delta=+15.9% [increase]",
        ]


class TestCurvesCommand:
    def test_export(self, scenario_dir, tmp_path):
        out = tmp_path / "curves.csv"
        assert run_cli(
            "curves", "--data", str(scenario_dir / "data.csv"),
            "--config", str(scenario_dir / "schema.cfg"),
            "--preds", str(scenario_dir / "preds.csv"), "--out", str(out),
        ) == 0
        header = out.read_text().splitlines()[0]
        assert header == "t,group,ser,count,normalized_ser"

    def test_missing_args_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("curves", "--data", "x.csv")
        assert exc.value.code == 2


class TestExperimentCommand:
    def test_experiment_and_curve_export(self, biased_dir, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"""
data = {biased_dir / 'data.csv'}
target = y
protected = a0
privileged = 1
models = mse, idboost_1.0
runs = 2
rounds = 2
depth = 2
lambda = 1e-6
seed = 0
out = {tmp_path / 'expout'}
"""
        )
        assert run_cli("experiment", "--config", str(cfg), "--curves") == 0
        out_dir = tmp_path / "expout"
        ranks = (out_dir / "ranks.csv").read_text().splitlines()
        assert ranks[0].startswith("model,")
        assert len(ranks) == 3
        assert (out_dir / "raw_metrics.csv").exists()
        assert (out_dir / "curves" / "mse.csv").exists()
        assert (out_dir / "manifest.json").exists()


    def test_failed_model_has_no_curves(self, biased_dir, tmp_path, capsys):
        def experiment(name, models, extra=""):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(
                f"data = {biased_dir / 'data.csv'}\ntarget = y\nprotected = a0\n"
                f"privileged = 1\nmodels = {models}\nruns = 2\nrounds = 2\n"
                f"seed = 0\nout = {tmp_path / name}\n{extra}"
            )
            return str(cfg)

        both = experiment("both", "mse, huber", "huber_delta = -1\n")
        alone = experiment("alone", "mse")
        capsys.readouterr()
        note = "note: no curves for huber, which failed in run_0, run_1\n"
        assert run_cli("experiment", "--config", both, "--curves") == 0
        assert capsys.readouterr().err == note
        assert not (tmp_path / "both" / "curves" / "huber.csv").exists()
        assert run_cli("experiment", "--config", alone, "--curves") == 0
        mse = (tmp_path / "alone" / "curves" / "mse.csv").read_bytes()
        assert (tmp_path / "both" / "curves" / "mse.csv").read_bytes() == mse
        os.remove(tmp_path / "both" / "curves" / "mse.csv")
        capsys.readouterr()
        assert run_cli("curves", "--from-experiment", both) == 0
        out = capsys.readouterr()
        assert out.err == note
        assert out.out == f"curves[mse] -> {tmp_path / 'both' / 'curves' / 'mse.csv'}\n"
        assert (tmp_path / "both" / "curves" / "mse.csv").read_bytes() == mse
        assert not (tmp_path / "both" / "curves" / "huber.csv").exists()

    @pytest.mark.parametrize("extra, message", [
        ("train_ratio = 1.5", "train_ratio must be in (0, 1)"),
        ("relevance_file = missing.csv", "missing.csv"),
        ("metrics = mse, mse, id", "metric names must be unique"),
        ("metrics =", "at least one metric is required"),
    ], ids=["train-ratio", "missing-relevance-file", "repeated-metric", "no-metric"])
    def test_bad_input_leaves_no_output_directory(
        self, biased_dir, tmp_path, capsys, extra, message
    ):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"data = {biased_dir / 'data.csv'}\ntarget = y\nprotected = a0\n"
            f"privileged = 1\nmodels = mse\nruns = 1\nrounds = 1\nout = out\n{extra}\n"
        )
        capsys.readouterr()
        assert run_cli("experiment", "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not (tmp_path / "out").exists()


class TestRelevanceFileFlag:
    def test_override_is_used(self, scenario_dir, tmp_path, capsys):
        # flat relevance makes the divergence integrand the plain per-group
        # mean squared error gap, nonzero for the zero-divergence scenario
        rel = tmp_path / "rel.csv"
        rel.write_text("y,relevance\n-100,1.0\n100,1.0\n")
        code = run_cli(
            "audit", "--data", str(scenario_dir / "data.csv"),
            "--config", str(scenario_dir / "schema.cfg"),
            "--preds", str(scenario_dir / "preds.csv"),
            "--relevance-file", str(rel), "--json",
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert doc["sera"] == pytest.approx(doc["mse"] * doc["n"], rel=1e-9)

    def audit_error(self, scenario_dir, rel, capsys):
        capsys.readouterr()
        code = run_cli(
            "audit", "--data", str(scenario_dir / "data.csv"),
            "--config", str(scenario_dir / "schema.cfg"),
            "--preds", str(scenario_dir / "preds.csv"), "--relevance-file", str(rel),
        )
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        return captured.err

    def test_extra_cell_is_an_error(self, scenario_dir, tmp_path, capsys):
        rel = tmp_path / "rel.csv"
        rel.write_text("y,relevance\n-100,1.0\n0,1,9\n100,1.0\n")
        err = self.audit_error(scenario_dir, rel, capsys)
        assert err == f"error: bad relevance row ['0', '1', '9'] in {rel}\n"

    @pytest.mark.parametrize("header", ["-100,1", "y,relevance,slope", "y", ""],
                             ids=["headerless", "three-names", "one-name", "blank"])
    def test_header_must_be_two_names(self, scenario_dir, tmp_path, capsys, header):
        # a first row of two numbers is a control point, not a header to skip
        rel = tmp_path / "rel.csv"
        rel.write_text(f"{header}\n0,0\n100,1\n")
        err = self.audit_error(scenario_dir, rel, capsys)
        cells = header.split(",") if header else []
        assert err.startswith(f"error: bad relevance header {cells!r} in {rel}: ")

    def test_overflowing_gap_is_an_error(self, scenario_dir, tmp_path, capsys):
        # the gap 2e308 is inf, which evaluated every target to NaN
        rel = tmp_path / "rel.csv"
        rel.write_text("y,relevance\n-1e308,1\n1e308,0\n")
        err = self.audit_error(scenario_dir, rel, capsys)
        assert err == "error: gaps between control-point target values must be finite\n"


# a note in each of the character widths 2, 3 and 4 bytes: "é", "✓" and "𝄞"
WIDE_NOTES = ("café", "ok ✓", "clef 𝄞")


@pytest.fixture(scope="module")
def reader_inputs(tmp_path_factory):
    """A valid file of each kind the six readers take, by name, with the
    command line that reads it: the dataset, schema, predictions and
    relevance file through ``audit``, the model through ``predict``, and the
    experiment config and its ``raw_metrics.csv`` through ``curves
    --from-experiment``. Every file but the model and ``raw_metrics.csv``
    holds multi-byte characters, and the dataset and relevance file are over
    8 KB."""
    root = tmp_path_factory.mktemp("readers")
    assert run_cli("synth", "--kind", "biased", "--n", "200", "--attributes", "1",
                   "--seed", "2", "--out", str(root)) == 0
    data, schema = root / "data.csv", root / "schema.cfg"
    lines = data.read_text().splitlines()
    data.write_text("".join(f"{line},{WIDE_NOTES[i % 3] if i else 'note'}\n"
                            for i, line in enumerate(lines)))
    schema_text = f"# {' / '.join(WIDE_NOTES)}\n{schema.read_text()}drop = note\n"
    schema.write_text(schema_text)
    (root / "exp.cfg").write_text(schema_text + "data = data.csv\nmodels = mse\nruns = 1\n"
                                  "rounds = 2\ndepth = 2\nout = exp\n")
    (root / "rel.csv").write_text("y,relevance 𝄞\n" + "".join(
        f"{i / 10 - 50:.1f},{i % 3 / 2}\n" for i in range(1000)))
    read_data = ["--data", str(data), "--config", str(schema)]
    assert run_cli("train", *read_data, "--rounds", "2", "--out", str(root / "model.json")) == 0
    assert run_cli("predict", *read_data, "--model", str(root / "model.json"),
                   "--out", str(root / "preds.csv")) == 0
    preds = (root / "preds.csv").read_text()
    (root / "preds.csv").write_text(preds.replace("pred", "prédiction ✓", 1))
    assert run_cli("experiment", "--config", str(root / "exp.cfg")) == 0
    audit = ["audit", *read_data, "--preds", str(root / "preds.csv"),
             "--relevance-file", str(root / "rel.csv")]
    predict = ["predict", *read_data, "--model", str(root / "model.json"),
               "--out", str(root / "again.csv")]
    curves = ["curves", "--from-experiment", str(root / "exp.cfg")]
    inputs = {"data.csv": audit, "schema.cfg": audit, "preds.csv": audit, "rel.csv": audit,
              "model.json": predict, "exp.cfg": curves, "exp/raw_metrics.csv": curves}
    for name, argv in inputs.items():
        assert run_mutated(root / name, (root / name).read_bytes(), argv)[0] == 0, name
    return {name: (root / name, argv) for name, argv in inputs.items()}


def run_mutated(path, data, argv):
    """Exit code and stderr of the command ``argv`` with ``path`` holding
    ``data``; the file's own bytes are put back after."""
    valid = path.read_bytes()
    path.write_bytes(data)
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run_cli(*argv)
    finally:
        path.write_bytes(valid)
    return code, err.getvalue()


class TestUndecodableInput:
    """A file that is not UTF-8 is named in the error, with its reader's error type."""

    @pytest.mark.parametrize("name, error, read", [
        ("data.csv", InputError,
         lambda p: dataset.load_csv(p, config.load_schema(p.parent / "schema.cfg"))),
        ("schema.cfg", ConfigError, config.load_schema),
        ("preds.csv", InputError, dataset.read_preds),
        ("rel.csv", InputError, relevance.load_points),
    ], ids=["dataset", "config", "preds", "relevance"])
    def test_reader_names_the_file(self, scenario_dir, capsys, name, error, read):
        (scenario_dir / "rel.csv").write_text("y,relevance\n-100,1.0\n100,1.0\n")
        bad = scenario_dir / name
        bad.write_bytes(bad.read_bytes() + "# café\n".encode("latin-1"))
        capsys.readouterr()
        code = run_cli(
            "audit", "--data", str(scenario_dir / "data.csv"),
            "--config", str(scenario_dir / "schema.cfg"),
            "--preds", str(scenario_dir / "preds.csv"),
            "--relevance-file", str(scenario_dir / "rel.csv"),
        )
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {bad} is not UTF-8 text: ")
        with pytest.raises(error, match="is not UTF-8 text"):
            read(bad)

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    def test_prediction_byte_named_at_its_file_offset(self, tmp_path, capsys, bom):
        out = tmp_path / "s"
        assert run_cli("synth", "--kind", "scenario", "--n", "3000", "--out", str(out)) == 0
        preds = out / "preds.csv"
        data = bytearray(bom + preds.read_bytes())
        at = data.rindex(b"\n", 0, len(data) - 1) + 2  # inside the last line
        assert at > 8192
        data[at] = 0xFF
        preds.write_bytes(data)
        line = data.count(b"\n", 0, at) + 1
        assert line == 6001  # the header and 6000 rows
        message = f"{preds} is not UTF-8 text: byte 0xff at offset {at} (line {line}): "
        capsys.readouterr()
        assert run_cli("audit", "--data", str(out / "data.csv"), "--config",
                       str(out / "schema.cfg"), "--preds", str(preds)) == 1
        assert capsys.readouterr().err == f"error: {message}invalid start byte\n"
        with pytest.raises(InputError) as exc:
            dataset.read_preds(preds)
        assert str(exc.value) == message + "invalid start byte"


    @pytest.mark.parametrize("name", ["preds.csv", "data.csv"])
    def test_bare_cr_ends_a_line(self, tmp_path, name):
        path = tmp_path / name
        if name == "preds.csv":
            path.write_bytes(b"pred\r1\r2\r\xff\r4\r")
            read, at = dataset.read_preds, 9
        else:
            path.write_bytes(b"y,a\r1,M\r2,F\r\xff3,M\r4,F\r")
            schema = dataset.DatasetSchema("y", ("a",), ("M",))
            read, at = (lambda p: dataset.load_csv(p, schema)), 12
        with pytest.raises(InputError) as exc:
            read(path)
        assert str(exc.value) == (f"{path} is not UTF-8 text: byte 0xff at offset {at} "
                                  "(line 4): invalid start byte")

    # a config line of latin-1 text; a bad byte in the second 8 KB of a
    # relevance file; one inside a model file; one at the end of raw_metrics.csv
    @pytest.mark.parametrize("name, bad", [
        ("exp.cfg", lambda d: d + "# café\n".encode("latin-1")),
        ("rel.csv", lambda d: d[:9000] + b"\xff" + d[9001:]),
        ("model.json", lambda d: d[:len(d) // 2] + b"\xff" + d[len(d) // 2 + 1:]),
        ("exp/raw_metrics.csv", lambda d: d + b"\xff"),
    ], ids=["experiment-config", "relevance-past-8k", "model", "raw-metrics"])
    def test_reader_names_the_byte(self, reader_inputs, name, bad):
        path, argv = reader_inputs[name]
        data = bad(path.read_bytes())
        at = next(i for i, b in enumerate(data) if b in b"\xe9\xff")
        line = data.count(b"\n", 0, at) + 1
        reason = "invalid continuation byte" if data[at] == 0xE9 else "invalid start byte"
        assert name != "rel.csv" or at > 8192
        assert run_mutated(path, data, argv) == (1, (
            f"error: {path} is not UTF-8 text: byte {data[at]:#04x} at offset {at} "
            f"(line {line}): {reason}\n"))

    def test_bom_model_predicts_the_plain_bytes(self, reader_inputs, tmp_path):
        model, argv = reader_inputs["model.json"]
        bom = tmp_path / "bom.json"
        bom.write_bytes(b"\xef\xbb\xbf" + model.read_bytes())
        read_data = argv[1:5]  # --data and --config
        for m in (model, bom):
            assert run_cli("predict", *read_data, "--model", str(m),
                           "--out", str(tmp_path / f"{m.stem}.csv")) == 0
        assert (tmp_path / "bom.csv").read_bytes() == (tmp_path / "model.csv").read_bytes()

    # each reader, with one byte set to 0xff or a multi-byte character cut short
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_fuzzed_byte_is_named(self, reader_inputs, data):
        name = data.draw(st.sampled_from(sorted(reader_inputs)), label="file")
        path, argv = reader_inputs[name]
        valid = bytearray(path.read_bytes())
        wide = [i for i, b in enumerate(valid) if b >= 0xC0]  # lead bytes
        if wide and data.draw(st.booleans(), label="cut"):
            at = data.draw(st.sampled_from(wide), label="character")
            width = 2 + (valid[at] >= 0xE0) + (valid[at] >= 0xF0)
            del valid[at + data.draw(st.integers(1, width - 1), label="continuation")]
        else:
            valid[data.draw(st.integers(0, len(valid) - 1), label="offset")] = 0xFF
        code, err = run_mutated(path, bytes(valid), argv)
        assert code == 1
        assert "Traceback" not in err
        assert err.splitlines()[-1] == f"error: {utf8_error_message(path, bytes(valid))}"


class TestRawMetricsFile:
    """``curves --from-experiment`` reads ``raw_metrics.csv`` once, and a row
    of it with fewer than four cells is an ``InputError`` naming its line."""

    def test_short_row_names_its_line(self, reader_inputs):
        path, argv = reader_inputs["exp/raw_metrics.csv"]
        data = path.read_bytes() + b"0,1\n"
        line = data.count(b"\n")
        assert run_mutated(path, data, argv) == (
            1, f"error: {path}, line {line}: fewer than 4 cells: '0,1'\n")

    def test_read_once(self, reader_inputs):
        _, argv = reader_inputs["exp/raw_metrics.csv"]
        with mock.patch("builtins.open", wraps=open) as opened:
            assert run_cli(*argv) == 0
        assert sum(os.path.basename(str(c.args[0])) == "raw_metrics.csv"
                   for c in opened.call_args_list if c.args) == 1


class TestFeaturesNearTheFloatRange:
    """Features near -1.8e308 train a model that ``predict`` reads back,
    without a numpy warning: no midpoint or median leaves the float range."""

    F0 = {
        # a split between two neighbours whose sum leaves the float range
        "six": ["-1.7976931348623157e+308", "", "-8.2135829049994676e+306", "0", "", "1"],
        # and a median fill that averages those two values
        "seven": ["-1.7976931348623157e+308", "", "-8.2135829049994676e+306", "", "", "", ""],
    }

    @pytest.mark.parametrize("rows", sorted(F0))
    def test_train_then_predict(self, tmp_path, capsys, rows):
        data, cfg, model = tmp_path / "d.csv", tmp_path / "schema.cfg", tmp_path / "m.json"
        lines = [f"{i + 1},{'MF'[i % 2]},{f}" for i, f in enumerate(self.F0[rows])]
        data.write_text("y,a,f0\n" + "\n".join(lines) + "\n")
        cfg.write_text("target = y\nprotected = a\nprivileged = M\n")
        args = ["--data", str(data), "--config", str(cfg)]
        assert run_cli("train", *args, "--out", str(model)) == 0
        assert "Infinity" not in model.read_text()
        assert run_cli("predict", *args, "--model", str(model),
                       "--out", str(tmp_path / "p.csv")) == 0
        assert "Warning" not in capsys.readouterr().err


class TestFeatureCellsNotScored:
    """``audit`` and ``curves`` parse no feature column, so a feature cell
    that ``predict`` refuses changes none of their bytes."""

    def test_non_finite_feature_cell(self, scenario_dir, tmp_path, capsys):
        lines = (scenario_dir / "data.csv").read_text().splitlines()
        assert lines[0].endswith(",x1")
        lines[3] = lines[3].rsplit(",", 1)[0] + ",inf"
        (scenario_dir / "inf.csv").write_text("\n".join(lines) + "\n")
        cfg = ["--config", str(scenario_dir / "schema.cfg")]
        preds = ["--preds", str(scenario_dir / "preds.csv")]
        for name in ("data", "inf"):
            data = ["--data", str(scenario_dir / f"{name}.csv"), *cfg]
            assert run_cli("audit", *data, *preds, "--out", str(tmp_path / f"{name}.json")) == 0
            assert run_cli("curves", *data, *preds, "--out", str(tmp_path / f"{name}.csv")) == 0
        for ext in ("json", "csv"):
            assert (tmp_path / f"inf.{ext}").read_bytes() == (tmp_path / f"data.{ext}").read_bytes()
        model = tmp_path / "m.json"
        assert run_cli("train", "--data", str(scenario_dir / "data.csv"), *cfg, "--rounds", "2",
                       "--out", str(model)) == 0
        capsys.readouterr()
        assert run_cli("predict", "--data", str(scenario_dir / "inf.csv"), *cfg, "--model",
                       str(model), "--out", str(tmp_path / "p.csv")) == 1
        assert capsys.readouterr().err == (
            f"error: non-finite value 'inf' in numeric feature column 'x1' at data row 3 of "
            f"{scenario_dir / 'inf.csv'}\n")


class TestSquaredErrorOverflow:
    """Predictions about 1e200 from their targets: ``audit`` and ``curves``
    refuse squared errors whose sum leaves the float range, naming the
    measures and the first sample at which it overflows, and never print
    NaN or Infinity for finite input."""

    def write(self, tmp_path, offset, small):
        rng = np.random.default_rng(0)
        y = rng.normal(size=40) * 1e200
        preds = y + offset
        preds[::3] = y[::3] - offset
        preds[:small] = y[:small] + 1.0
        data, cfg, pred_file = tmp_path / "d.csv", tmp_path / "s.cfg", tmp_path / "p.csv"
        data.write_text("y,a,f0\n" + "".join(f"{v!r},{'MF'[i % 2]},{i}\n"
                                             for i, v in enumerate(y.tolist())))
        cfg.write_text("target = y\nprotected = a\nprivileged = M\n")
        dataset.write_preds(pred_file, preds)
        return ["--data", str(data), "--config", str(cfg), "--preds", str(pred_file)]

    @pytest.mark.parametrize("small", [0, 5])
    @pytest.mark.parametrize("command, undefined", [
        (["audit", "--json"], "mse, sera and id"),
        (["curves", "--out", "c.csv"], "the curves"),
    ])
    def test_refused_at_the_first_overflow(self, tmp_path, capsys, monkeypatch, command,
                                           undefined, small):
        monkeypatch.chdir(tmp_path)
        args = self.write(tmp_path, 1e200, small)
        assert run_cli(*command, *args) == 1
        out, err = capsys.readouterr()
        assert out == "" and "Warning" not in err
        assert err.splitlines() == [f"error: {undefined} are undefined: the sum of squared "
                                    f"errors overflows at sample index {small}"]

    def test_finite_sum_gives_finite_measures(self, tmp_path, capsys):
        assert run_cli("audit", "--json", *self.write(tmp_path, 1e150, 0)) == 0
        out, err = capsys.readouterr()
        assert "NaN" not in out and "Infinity" not in out and "Warning" not in err
        report = json.loads(out)
        for key in ("mse", "mae", "sera", "id", "delta_bgl"):
            assert np.isfinite(report[key])


class TestOverlongCsvField:
    """A CSV cell longer than the ``csv`` module's field limit fails as the
    reader's error, naming the file and the line, with no traceback."""

    LONG = "x" * 200_000

    def assert_clean_failure(self, code, capsys, path, line):
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        assert err.strip().splitlines()[-1].startswith(
            f"error: {path}, line {line}: field larger than field limit"
        )

    def test_dataset(self, scenario_dir, capsys):
        data = scenario_dir / "data.csv"
        lines = data.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + "," + self.LONG
        data.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run_cli(
            "audit", "--data", str(data), "--config", str(scenario_dir / "schema.cfg"),
            "--preds", str(scenario_dir / "preds.csv"),
        )
        self.assert_clean_failure(code, capsys, data, 4)
        with pytest.raises(InputError, match="field larger"):
            dataset.load_csv(data, config.load_schema(scenario_dir / "schema.cfg"))

    def test_relevance_file(self, scenario_dir, tmp_path, capsys):
        rel = tmp_path / "rel.csv"
        rel.write_text(f"y,relevance\n-100,1.0\n{self.LONG},0.5\n100,1.0\n")
        capsys.readouterr()
        code = run_cli(
            "train", "--data", str(scenario_dir / "data.csv"),
            "--config", str(scenario_dir / "schema.cfg"), "--relevance-file", str(rel),
            "--rounds", "1", "--out", str(tmp_path / "m.json"),
        )
        self.assert_clean_failure(code, capsys, rel, 3)
        with pytest.raises(ValidationError, match="field larger"):
            relevance.load_points(rel)


def test_drop_column_missing_from_header_is_rejected(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("y,a,id,x\n" + "".join(
        f"{i * 0.5},{i % 2},{i},{(i * 7) % 5}\n" for i in range(12)))
    cfg = tmp_path / "schema.cfg"
    cfg.write_text("target = y\nprotected = a\nprivileged = 1\ndrop = idd\n")
    preds = tmp_path / "preds.csv"
    preds.write_text("pred\n" + "1.0\n" * 12)
    capsys.readouterr()
    code = run_cli("audit", "--data", str(data), "--config", str(cfg), "--preds", str(preds))
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1] == f"error: column 'idd' not found in {data}"
    with pytest.raises(SchemaError, match="'idd'"):
        dataset.load_csv(data, config.load_schema(cfg))


class TestBoxplotSpanPastTheFloatRange:
    """Targets uniform in ±1.5e308: the boxplot whiskers overflow to inf, which
    the clamp to the observed range takes without a numpy warning, and the gap
    from the median to the lowest target (about 1.8e308) is refused in the
    user's terms, not as a gap between control points."""

    @pytest.fixture
    def huge_dir(self, tmp_path):
        rng = np.random.default_rng(0)
        y = 1.5e308 * (2.0 * rng.random(40) - 1.0)
        (tmp_path / "d.csv").write_text("y,a,b,f0\n" + "".join(
            f"{v!r},{'MF'[i % 2]},{'XY'[i // 2 % 2]},{i}\n" for i, v in enumerate(y.tolist())))
        (tmp_path / "s.cfg").write_text("target = y\nprotected = a, b\nprivileged = M, X\n")
        dataset.write_preds(tmp_path / "p.csv", y)
        return tmp_path

    TRAIN = ["train", "--rounds", "2", "--out", "m.json"]

    @pytest.mark.parametrize("command", [
        [*TRAIN, "--objective", "mse"], [*TRAIN, "--objective", "idloss"],
        [*TRAIN, "--model", "idboost"], ["audit", "--preds", "p.csv"],
    ], ids=["mse", "idloss", "idboost", "audit"])
    def test_refused_naming_the_span(self, huge_dir, capsys, monkeypatch, command):
        monkeypatch.chdir(huge_dir)
        capsys.readouterr()
        assert run_cli(*command, "--data", "d.csv", "--config", "s.cfg") == 1
        out, err = capsys.readouterr()
        assert out == "" and "Warning" not in err
        assert err == ("error: the targets span -1.4917844994895557e+308 to "
                       "1.491629807367633e+308: the gap from their median to a boxplot "
                       "whisker leaves the float range; rescale the target column\n")


class TestTrainPastTheFloatRange:
    """Targets N(0, 1)·1e200: the squared residuals of mse, sera and idloss
    leave the float range, so ``train`` refuses in the user's terms and
    writes no model, where it wrote trees of one leaf with an ``Infinity``
    or ``NaN`` trace; huber's residuals stay in range, and it still fits."""

    @pytest.fixture
    def far_dir(self, tmp_path):
        rng = np.random.default_rng(0)
        y, x = rng.normal(size=40) * 1e200, rng.normal(size=40)
        (tmp_path / "d.csv").write_text("y,a,b,f0\n" + "".join(
            f"{v!r},{'MF'[i % 2]},{'XY'[i // 2 % 2]},{x[i]!r}\n"
            for i, v in enumerate(y.tolist())))
        (tmp_path / "s.cfg").write_text("target = y\nprotected = a, b\nprivileged = M, X\n")
        return tmp_path

    TRAIN = ["train", "--data", "d.csv", "--config", "s.cfg", "--rounds", "3", "--depth", "2",
             "--out", "m.json", "--objective"]

    @pytest.mark.parametrize("objective", ["mse", "sera", "idloss"])
    def test_refused_naming_the_objective(self, far_dir, capsys, monkeypatch, objective):
        monkeypatch.chdir(far_dir)
        capsys.readouterr()
        assert run_cli(*self.TRAIN, objective) == 1
        out, err = capsys.readouterr()
        assert out == "" and "Warning" not in err
        assert re.fullmatch(rf"error: training the {objective} objective leaves the float "
                            r"range: overflow encountered in \w+; rescale the target column\n",
                            err)
        assert not (far_dir / "m.json").exists()

    def test_huber_fits(self, far_dir, capsys, monkeypatch):
        monkeypatch.chdir(far_dir)
        assert run_cli(*self.TRAIN, "huber") == 0
        assert "Warning" not in capsys.readouterr().err
        model = gbt.TreeEnsemble.from_dict(json.loads((far_dir / "m.json").read_text()))
        assert all(np.isfinite(model.train_trace))
        assert all((tree.feature >= 0).any() for tree in model.trees)


class TestNoNumpyRandom:
    """Only ``synth`` and ``bench-approx``, which generate data, import
    ``numpy.random``: ``dataset.split`` draws its own stream, so no command
    that reads a user's files pays for numpy's generators and the OpenSSL
    library that their seeding imports."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("inputs")
        dataset.write_csv(root / "data.csv", dataset.synth_biased(400, seed=3))
        (root / "schema.cfg").write_text("target = y\nprotected = a0, a1\nprivileged = 1, 1\n")
        (root / "exp.cfg").write_text(
            "data = data.csv\ntarget = y\nprotected = a0, a1\nprivileged = 1, 1\n"
            "models = mse, idloss, idboost_0.5\nruns = 2\nrounds = 3\ndepth = 2\n"
            "out = exp\nfast = true\n")
        data = ["--data", str(root / "data.csv"), "--config", str(root / "schema.cfg")]
        assert run_cli("train", *data, "--model", "idboost", "--rounds", "3",
                       "--out", str(root / "m.json")) == 0
        assert run_cli("predict", *data, "--model", str(root / "m.json"),
                       "--out", str(root / "p.csv")) == 0
        return root

    @pytest.mark.parametrize("argv", [
        ["experiment", "--config", "exp.cfg", "--curves"],
        ["curves", "--from-experiment", "exp.cfg"],
        ["train", "--data", "data.csv", "--config", "schema.cfg", "--model", "idboost",
         "--rounds", "2", "--out", "m2.json"],
        ["predict", "--data", "data.csv", "--config", "schema.cfg", "--model", "m.json",
         "--out", "p2.csv"],
        ["audit", "--data", "data.csv", "--config", "schema.cfg", "--preds", "p.csv"],
        ["curves", "--data", "data.csv", "--config", "schema.cfg", "--preds", "p.csv",
         "--out", "c.csv"],
    ], ids=["experiment", "curves-from-experiment", "train", "predict", "audit", "curves"])
    def test_command_imports_no_numpy_random(self, inputs, argv):
        script = textwrap.dedent(f"""
            import sys
            from interdiv import cli
            assert cli.main({argv!r}) == 0
            sys.exit(", ".join(m for m in sorted(sys.modules)
                               if m == "_hashlib" or m.startswith("numpy.random")) or None)
        """)
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              cwd=inputs, env=buffered_env(), timeout=120)
        assert done.returncode == 0, done.stderr
