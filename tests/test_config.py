"""Config files and CLI defaults: one key table, each default stated once.

Every key of a schema or experiment file is converted by the table in
``interdiv.config``; a key the file does not hold takes its dataclass's
default. Bad lines fail with an error naming the file, the line and the key.
"""
import contextlib
import dataclasses
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interdiv import approx, cli, config, dataset, gbt, harness, losses
from interdiv.errors import ConfigError

SCHEMA = "target = y\nprotected = a0\nprivileged = 1\n"


def run_cli(argv):
    """Exit code and stderr of one in-process CLI run; usage errors exit 2."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def write_data(path, n=60):
    ds = dataset.synth_biased(n, seed=0, n_protected=1)
    with open(path, "w") as fh:
        fh.write("y,a0," + ",".join(ds.feature_names) + "\n")
        for i in range(ds.n):
            feats = ",".join(f"{v:.17g}" for v in ds.features[i])
            fh.write(f"{ds.targets[i]:.17g},{int(ds.protected[i, 0])},{feats}\n")


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    write_data(d / "data.csv")
    (d / "schema.cfg").write_text(SCHEMA)
    return d


def experiment_text(**lines):
    """An experiment config: a cheap run plan with ``lines`` set on top."""
    plan = {"data": "data.csv", "models": "mse", "runs": "1", "rounds": "2",
            "depth": "2", "out": "out"}
    plan.update(lines)
    return SCHEMA + "".join(f"{k} = {v}\n" for k, v in plan.items())


def write_experiment(d, text):
    path = d / "exp.cfg"
    path.write_text(text)
    if not (d / "data.csv").exists():
        write_data(d / "data.csv")
    return path


class TestSilentCasesFail:
    """Each of these ran, or failed without naming the key, before the table."""

    def assert_line_error(self, argv, path, lineno, key):
        code, err = run_cli(argv)
        assert code == 1
        assert f"error: {path}:{lineno}: " in err
        assert repr(key) in err

    def test_unknown_key(self, tmp_path):
        path = write_experiment(tmp_path, experiment_text() + "round = 5\n")
        self.assert_line_error(["experiment", "--config", path], path, 10, "round")

    def test_repeated_key(self, tmp_path):
        path = write_experiment(tmp_path, experiment_text() + "rounds = 3\n")
        self.assert_line_error(["experiment", "--config", path], path, 10, "rounds")
        with pytest.raises(ConfigError, match="repeats line 7"):
            harness.config_from_file(path)

    def test_bad_boolean(self, tmp_path):
        path = write_experiment(tmp_path, experiment_text(fast="maybe"))
        self.assert_line_error(["experiment", "--config", path], path, 10, "fast")

    def test_bad_number_names_the_key(self, tmp_path):
        path = write_experiment(tmp_path, experiment_text(rounds="abc"))
        self.assert_line_error(["experiment", "--config", path], path, 7, "rounds")

    def test_unknown_schema_key(self, data_dir, tmp_path):
        schema = tmp_path / "schema.cfg"
        schema.write_text(SCHEMA + "dorp = id\n")
        self.assert_line_error(
            ["train", "--data", data_dir / "data.csv", "--config", schema,
             "--rounds", "1", "--out", tmp_path / "m.json"],
            schema, 4, "dorp",
        )

    def test_experiment_key_in_schema_file(self, tmp_path):
        schema = tmp_path / "schema.cfg"
        schema.write_text(SCHEMA + "models = mse\n")
        with pytest.raises(ConfigError, match="unknown key 'models'"):
            config.load_schema(schema)


class TestKeyTable:
    def test_every_field_exists(self):
        owners = {"": harness.ExperimentConfig, "schema": dataset.DatasetSchema,
                  "boost": gbt.BoostParams}
        for key, (convert, *targets) in config.EXPERIMENT_KEYS.items():
            assert callable(convert) and targets, key
            for target in targets:
                section, _, name = target.rpartition(".")
                assert name in {f.name for f in dataclasses.fields(owners[section])}, key

    def test_every_boost_field_is_a_key(self):
        set_by_keys = {t for _, *targets in config.EXPERIMENT_KEYS.values() for t in targets}
        for f in dataclasses.fields(gbt.BoostParams):
            assert f"boost.{f.name}" in set_by_keys

    @pytest.mark.parametrize("text,value", [
        ("true", True), ("TRUE", True), ("Yes", True), ("1", True),
        ("false", False), ("False", False), ("NO", False), ("0", False),
    ])
    def test_boolean_spellings(self, tmp_path, text, value):
        path = write_experiment(tmp_path, experiment_text(fast=text, stratify_groups=text))
        cfg = harness.config_from_file(path)
        assert cfg.fast is value and cfg.stratify_groups is value

    @pytest.mark.parametrize("key", ["target", "protected", "privileged", "data", "models"])
    def test_missing_required_key(self, tmp_path, key):
        lines = [line for line in experiment_text().splitlines()
                 if not line.startswith(f"{key} =")]
        path = write_experiment(tmp_path, "\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=f"missing the '{key}' key"):
            harness.config_from_file(path)

    def test_line_without_equals(self, tmp_path):
        path = write_experiment(tmp_path, experiment_text() + "rounds\n")
        with pytest.raises(ConfigError, match=r"exp\.cfg:10: expected 'key = value'"):
            harness.config_from_file(path)


class TestDefaultsStatedOnce:
    def test_minimal_experiment_takes_the_dataclass_defaults(self, tmp_path):
        path = write_experiment(
            tmp_path, SCHEMA + "data = data.csv\nmodels = mse\n  # a comment\n\n"
        )
        cfg = harness.config_from_file(path)
        assert cfg.data == str(tmp_path / "data.csv")
        assert cfg.out_dir == str(tmp_path / "out")
        assert cfg.models == ("mse",)
        assert cfg.schema == dataset.DatasetSchema("y", ("a0",), ("1",))
        for f in dataclasses.fields(harness.ExperimentConfig):
            if f.default is not dataclasses.MISSING:
                assert getattr(cfg, f.name) == f.default, f.name
            elif f.default_factory is not dataclasses.MISSING:
                assert getattr(cfg, f.name) == f.default_factory(), f.name
        assert cfg.boost == gbt.BoostParams()
        assert cfg.huber_delta == losses.DEFAULT_HUBER_DELTA

    def test_seed_sets_split_and_boost_seed(self, tmp_path):
        cfg = harness.config_from_file(write_experiment(tmp_path, experiment_text(seed="7")))
        assert cfg.base_seed == 7 and cfg.boost.seed == 7

    def test_absolute_paths_kept(self, tmp_path):
        data = str(tmp_path / "elsewhere.csv")
        cfg = harness.config_from_file(write_experiment(
            tmp_path, experiment_text(data=data, relevance_file="rel.csv")
        ))
        assert cfg.data == data
        assert cfg.relevance_file == str(tmp_path / "rel.csv")

    def test_train_flags_default_to_boost_params(self):
        args = cli.build_parser().parse_args(
            ["train", "--data", "d.csv", "--config", "s.cfg", "--out", "m.json"]
        )
        boost = gbt.BoostParams()
        names = [name for name, _ in cli.BOOST_FLAGS.values()]
        assert sorted(names) == sorted(f.name for f in dataclasses.fields(gbt.BoostParams))
        for name in names:
            assert getattr(args, name) == getattr(boost, name), name
        assert args.huber_delta == losses.DEFAULT_HUBER_DELTA

    def test_train_flags_are_the_boost_config_keys(self):
        boost_keys = {key for key, (_, *targets) in config.EXPERIMENT_KEYS.items()
                      if any(t.startswith("boost.") for t in targets)}
        assert set(cli.BOOST_FLAGS) == {"--" + k.replace("_", "-") for k in boost_keys}
        assert cli.BOOST_FLAGS["--lambda"] == ("l2_lambda", float)
        assert cli.BOOST_FLAGS["--seed"] == ("seed", int)

    def test_experiment_manifest_records_the_run_plan(self, tmp_path):
        path = write_experiment(tmp_path, experiment_text(seed="3", eta="0.5"))
        assert run_cli(["experiment", "--config", path])[0] == 0
        with open(tmp_path / "out" / "manifest.json") as fh:
            params = json.load(fh)["parameters"]
        assert params == {
            "config": str(path), "data": str(tmp_path / "data.csv"), "models": ["mse"],
            "runs": 1, "train_ratio": 0.8, "seed": 3,
            "metrics": list(harness.DEFAULT_METRICS),
            "boost": {"rounds": 2, "eta": 0.5, "depth": 2, "min_child_hessian": 0.0,
                      "lambda": 1.0, "hess_floor": gbt.DEFAULT_HESS_FLOOR},
            "huber_delta": losses.DEFAULT_HUBER_DELTA, "fast": False,
            "stratify_groups": False, "relevance_file": None,
        }

    def test_bench_approx_flags_default_to_approx_params(self):
        args = cli.build_parser().parse_args(["bench-approx"])
        defaults = approx.ApproxParams()
        assert args.sigma == defaults.sigma
        assert args.grid_step == defaults.grid_step


# Values that break a naive parser. None of them makes work or memory grow
# with the value: an int flag or key rejects 1e308, inf and nan, and every
# one of them is an invalid grid step.
BAD_VALUES = ["nan", "inf", "-1", "0", "1e308", "abc", ""]
FUZZ_KEYS = ["runs", "train_ratio", "seed", "rounds", "eta", "depth", "lambda",
             "min_child_hessian", "hess_floor", "huber_delta", "fast",
             "stratify_groups", "metrics", "models"]


def assert_clean_exit(code, err):
    assert "Traceback" not in err
    if code != 0:
        assert code in (1, 2)
        assert "error:" in err


@st.composite
def flag_values(draw, flags):
    chosen = draw(st.lists(st.sampled_from(flags), unique=True, max_size=3))
    argv = []
    for flag in chosen:
        argv += [f"{flag}={draw(st.sampled_from(BAD_VALUES))}"]
    return argv


class TestFuzz:
    @settings(max_examples=60, deadline=None)
    @given(
        lines=st.dictionaries(st.sampled_from(FUZZ_KEYS), st.sampled_from(BAD_VALUES),
                              max_size=3),
        repeat=st.booleans(),
    )
    def test_experiment_config_lines(self, data_dir, lines, repeat):
        text = experiment_text(**{"data": data_dir / "data.csv", "models": "mse, huber", **lines})
        if repeat and lines:
            key = next(iter(lines))
            text += f"{key} = {lines[key]}\n"
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "exp.cfg")
            with open(path, "w") as fh:
                fh.write(text)
            code, err = run_cli(["experiment", "--config", path])
        assert_clean_exit(code, err)
        if repeat and lines:
            assert code == 1

    @settings(max_examples=60, deadline=None)
    @given(
        flags=flag_values(["--w", "--rounds", "--depth", "--eta", "--lambda",
                           "--min-child-hessian", "--hess-floor", "--huber-delta",
                           "--seed"]),
        model=st.sampled_from(["ensemble", "idboost"]),
        objective=st.sampled_from(["mse", "huber", "sera", "idloss"]),
        fast=st.booleans(),
    )
    def test_train_flags(self, data_dir, flags, model, objective, fast):
        with tempfile.TemporaryDirectory() as d:
            code, err = run_cli([
                "train", "--data", data_dir / "data.csv", "--config", data_dir / "schema.cfg",
                "--model", model, "--objective", objective, "--rounds", "2", "--depth", "2",
                *(["--fast"] if fast else []), *flags, "--out", os.path.join(d, "m.json"),
            ])
        assert_clean_exit(code, err)

    @settings(max_examples=60, deadline=None)
    @given(
        flags=flag_values(["--n", "--divergence", "--attributes", "--seed"]),
        kind=st.sampled_from(["scenario", "biased"]),
    )
    def test_synth_flags(self, flags, kind):
        with tempfile.TemporaryDirectory() as d:
            code, err = run_cli(["synth", "--kind", kind, "--n", "20", *flags, "--out", d])
        assert_clean_exit(code, err)

    @settings(max_examples=40, deadline=None)
    @given(flags=flag_values(["--n", "--rounds", "--w", "--sigma", "--grid-step",
                              "--seed", "--attributes"]))
    def test_bench_approx_flags(self, flags):
        code, err = run_cli(["bench-approx", "--n", "60", "--rounds", "1", *flags])
        assert_clean_exit(code, err)


class TestNumericFlagRegressions:
    def test_huge_sigma_is_an_error(self):
        code, err = run_cli(["bench-approx", "--n", "60", "--rounds", "1", "--sigma", "1e308"])
        assert code == 1
        assert "error: sigma=1e+308 needs a kernel wider than" in err

    def test_tiny_grid_step_is_an_error(self):
        # refused before any fit, so no 1e9-point grid is ever asked for
        code, err = run_cli(["bench-approx", "--n", "60", "--rounds", "1", "--grid-step", "1e-9"])
        assert code == 1
        assert "error: grid_step must be in [1e-4, 1), got 1e-09" in err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_divergence_is_an_error(self, tmp_path, value):
        code, err = run_cli(["synth", "--n", "50", "--divergence", value,
                             "--out", tmp_path / "s"])
        assert code == 1
        assert f"divergence must be nonnegative and finite, got {value}" in err
        assert not (tmp_path / "s" / "preds.csv").exists()
