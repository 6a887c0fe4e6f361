import argparse
import json
import os

import numpy as np
import pytest

from interdiv import cli, config, dataset, gbt, metrics, parallel, relevance
from interdiv.errors import ConfigError, InputError, SchemaError, ValidationError
from interdiv.losses import DEFAULT_HUBER_DELTA

from conftest import parent_fit_model


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


class TestRejectedSynth:
    @pytest.mark.parametrize("flags", [["--n", "5"], ["--seed", "-1"], ["--divergence", "inf"]])
    def test_leaves_no_directory(self, tmp_path, capsys, flags):
        out = tmp_path / "s"
        assert run_cli("synth", *flags, "--out", str(out)) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


class TestReadPreds:
    def test_header_is_optional(self, tmp_path):
        with_header = tmp_path / "h.csv"
        with_header.write_text("pred\n1.5\n-0\n\n 2e3 ,x\n")
        bare = tmp_path / "b.csv"
        bare.write_text("1.5\n-0\n2e3\n")
        for path in (with_header, bare):
            vals = dataset.read_preds(str(path))
            assert vals.tolist() == [1.5, 0.0, 2000.0]
            assert np.signbit(vals[1])

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

    def test_human_report_prints_notes(self, capsys):
        # loading a CSV refuses a one-sided protected column, so build the
        # data in memory: a1 is 1 on every row, so its measures are notes
        ds = dataset.from_arrays(
            np.zeros((4, 1)), [0.0, 1.0, 2.0, 3.0], [[0, 1], [1, 1], [0, 1], [1, 1]]
        )
        report = metrics.full_report(ds, np.array([0.5, 1.0, 2.0, 2.5]),
                                     relevance.from_points([(0.0, 1.0), (3.0, 1.0)]))
        cli._print_human_report(report)
        err = capsys.readouterr().err.splitlines()
        one_sided = "attribute 1 is one-sided; measure undefined"
        assert err[-3:] == [f"note: delta_bgl[a1]: {one_sided}", f"note: sp[a1]: {one_sided}",
                            f"note: mae_delta[a1|a0]: {one_sided}"]
        assert "-- MAE delta for a0 conditioned on a1:" in err


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
