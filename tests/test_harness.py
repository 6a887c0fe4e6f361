import dataclasses
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from interdiv import curves, dataset, gbt, harness, idboost, parallel
from interdiv.errors import InputError, UndefinedMetricError, ValidationError

from conftest import (parent_export_id_curves, parent_ranks_to_csv, parent_run,
                      parent_write_raw_csv)
from test_parallel import buffered_env, in_worker, no_fd_left_open, two_cpus  # noqa: F401 (fixtures)


def write_experiment(tmp_path, n=160, runs=2, models="mse, idboost_0.5", extra=""):
    ds = dataset.synth_biased(n, seed=0, n_protected=1)
    data_path = tmp_path / "data.csv"
    with open(data_path, "w") as fh:
        fh.write("y,a0," + ",".join(ds.feature_names) + "\n")
        for i in range(ds.n):
            feats = ",".join(f"{v:.17g}" for v in ds.features[i])
            fh.write(f"{ds.targets[i]:.17g},{int(ds.protected[i, 0])},{feats}\n")
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        f"""
data = data.csv
target = y
protected = a0
privileged = 1
models = {models}
runs = {runs}
train_ratio = 0.8
seed = 3
rounds = 4
depth = 2
lambda = 1e-6
out = out
{extra}
"""
    )
    return cfg_path


class TestRankWithTies:
    def test_plain_ordering(self):
        assert harness.rank_with_ties([0.3, 0.1, 0.2]).tolist() == [3.0, 1.0, 2.0]

    def test_ties_get_average_rank(self):
        assert harness.rank_with_ties([1.0, 1.0, 2.0]).tolist() == [1.5, 1.5, 3.0]

    def test_failed_models_share_last_place(self):
        ranks = harness.rank_with_ties([0.5, np.inf, np.inf])
        assert ranks.tolist() == [1.0, 2.5, 2.5]

    def test_permutation_sum_preserved(self, rng):
        for _ in range(20):
            v = rng.normal(size=7)
            r = harness.rank_with_ties(v)
            assert r.sum() == pytest.approx(7 * 8 / 2)
            assert sorted(r.tolist()) == list(range(1, 8))


class TestRankAggregation:
    def test_hand_built_three_by_four(self):
        # 3 models x 4 runs, single metric; ranks per run computed by hand
        values = np.array([
            [[0.1], [0.3], [0.2]],
            [[0.5], [0.4], [0.6]],
            [[0.2], [0.2], [0.9]],
            [[0.3], [0.1], [0.2]],
        ])
        ranks = np.stack([
            harness.rank_with_ties(values[r, :, 0]) for r in range(4)
        ])
        # hand: run0 -> 1,3,2; run1 -> 2,1,3; run2 -> 1.5,1.5,3; run3 -> 3,1,2
        assert ranks.tolist() == [
            [1.0, 3.0, 2.0],
            [2.0, 1.0, 3.0],
            [1.5, 1.5, 3.0],
            [3.0, 1.0, 2.0],
        ]
        mean = ranks.mean(axis=0)
        sd = ranks.std(axis=0, ddof=1)
        assert mean.tolist() == pytest.approx([1.875, 1.625, 2.5])
        assert sd[0] == pytest.approx(np.std([1, 2, 1.5, 3], ddof=1))


class TestRankAggregationDominance:
    def test_dominating_model_gets_rank_one_every_run(self):
        # model 0 beats model 1 on the metric in every run
        values = np.array([[0.1, 0.4], [0.2, 0.9], [0.05, 0.3], [0.3, 0.31]])
        ranks = np.stack([harness.rank_with_ties(row) for row in values])
        assert ranks.mean(axis=0).tolist() == [1.0, 2.0]
        assert ranks.std(axis=0, ddof=1).tolist() == [0.0, 0.0]


class TestRun:
    def test_single_model_all_ranks_one(self, tmp_path):
        cfg = harness.config_from_file(write_experiment(tmp_path, models="mse"))
        table, rows, _ = harness.run(cfg)
        assert np.allclose(table.mean, 1.0)
        assert np.allclose(table.std, 0.0)
        assert all(r["status"] == "ok" for r in rows)

    def test_outputs_written_and_deterministic(self, tmp_path):
        cfg = harness.config_from_file(write_experiment(tmp_path))
        harness.run(cfg)
        raw1 = Path(cfg.out_dir, "raw_metrics.csv").read_bytes()
        ranks1 = Path(cfg.out_dir, "ranks.csv").read_bytes()
        assert os.path.exists(os.path.join(cfg.out_dir, "run_0", "preds_mse.csv"))
        harness.run(cfg)
        raw2 = Path(cfg.out_dir, "raw_metrics.csv").read_bytes()
        ranks2 = Path(cfg.out_dir, "ranks.csv").read_bytes()
        assert raw1 == raw2 and ranks1 == ranks2

    def test_rank_rows_are_permutations(self, tmp_path):
        cfg = harness.config_from_file(
            write_experiment(tmp_path, models="mse, sera, idboost_1.0")
        )
        table, _, _ = harness.run(cfg)
        n_models = len(table.models)
        for r in range(cfg.n_runs):
            for k in range(len(table.metric_names)):
                assert table.ranks[r, :, k].sum() == pytest.approx(
                    n_models * (n_models + 1) / 2
                )

    def test_failed_model_ranked_last_without_aborting(self, tmp_path):
        cfg = harness.config_from_file(
            write_experiment(tmp_path, models="mse, huber", extra="huber_delta = -1")
        )
        table, rows, _ = harness.run(cfg)
        statuses = {r["model"]: r["status"] for r in rows}
        assert statuses["mse"] == "ok"
        assert statuses["huber"].startswith("failed")
        hub = table.models.index("huber")
        assert np.allclose(table.mean[hub], 2.0)  # last of two, every run

    def test_tables_keep_the_parent_bytes(self, tmp_path):
        # the failed model's reason holds a comma, which the status writes as ';'
        cfg = harness.config_from_file(write_experiment(
            tmp_path, runs=3, models="mse, huber, idboost_0.5", extra="huber_delta = -1"))
        table, rows, _ = harness.run(cfg)
        assert [r["status"] for r in rows[:3]] == [
            "ok", "failed: huber delta must be positive and finite, got -1.0", "ok"]
        raw = Path(cfg.out_dir, "raw_metrics.csv").read_bytes()
        assert b",failed: huber delta must be positive and finite; got -1.0," in raw
        parent_write_raw_csv(tmp_path / "raw.csv", cfg, rows)
        parent_ranks_to_csv(table, tmp_path / "ranks.csv")
        assert raw == (tmp_path / "raw.csv").read_bytes()
        assert (Path(cfg.out_dir, "ranks.csv").read_bytes()
                == (tmp_path / "ranks.csv").read_bytes())
        assert harness.failed_runs(cfg) == {"huber": ["run_0", "run_1", "run_2"]}

    def test_non_interdiv_error_propagates(self, tmp_path, monkeypatch):
        cfg = harness.config_from_file(write_experiment(tmp_path, models="mse"))

        def broken_fit(*args, **kwargs):
            raise RuntimeError("fault in the program")

        monkeypatch.setattr(idboost, "fit_ensemble", broken_fit)
        with pytest.raises(RuntimeError, match="fault in the program"):
            harness.run(cfg)
        assert not os.path.exists(os.path.join(cfg.out_dir, "ranks.csv"))
        assert not os.path.exists(os.path.join(cfg.out_dir, "raw_metrics.csv"))

    def test_unknown_model_name_rejected(self, tmp_path):
        cfg_path = write_experiment(tmp_path, models="mse, quantile")
        with pytest.raises(ValidationError):
            harness.run(harness.config_from_file(cfg_path))

    def test_fast_mode_config_key(self, tmp_path):
        cfg = harness.config_from_file(
            write_experiment(tmp_path, models="idboost_1.0", extra="fast = true")
        )
        assert cfg.fast
        table, rows, _ = harness.run(cfg)
        assert all(r["status"] == "ok" for r in rows)
        assert np.allclose(table.mean, 1.0)


def read_tree(root) -> dict:
    """Every file under ``root``, by relative path, as bytes."""
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def log_line(path, line: str) -> None:
    """Append ``line`` to ``path``: how a call made in a forked worker reaches the test."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")


class TestSharedEnsembles:
    """Each run's fits shared out over two processes; the subclass below
    runs the same tests with every fit in process."""

    CPUS = 2

    @pytest.fixture(autouse=True)
    def cpus(self, monkeypatch):
        monkeypatch.setattr(parallel, "cpus", lambda: self.CPUS)

    def test_each_objective_fitted_once_per_run(self, tmp_path, monkeypatch):
        cfg = harness.config_from_file(write_experiment(
            tmp_path, runs=2, models="mse, idloss, sera, idboost_0.3, idboost_0.7"
        ))
        fit = idboost.fit_ensemble
        log = tmp_path / "fits.log"

        def counted(*args, **kwargs):
            log_line(log, args[3])
            return fit(*args, **kwargs)

        monkeypatch.setattr(idboost, "fit_ensemble", counted)
        _, rows, _ = harness.run(cfg)
        objectives = log.read_text().split()
        assert all(r["status"] == "ok" for r in rows)
        assert sorted(objectives) == ["idloss", "idloss", "mse", "mse", "sera", "sera"]

    def test_each_ensemble_predicted_and_test_layout_built_once_per_run(
        self, tmp_path, monkeypatch
    ):
        cfg = harness.config_from_file(write_experiment(
            tmp_path, runs=2, models="mse, idloss, sera, idboost_0.3, idboost_0.7"
        ))
        split = dataset.split
        predict = gbt.TreeEnsemble.predict
        post_init = curves.CurveLayout.__post_init__
        test_sets, laid_out = [], []
        log = tmp_path / "predicts.log"

        def recording_split(*args, **kwargs):
            train, test = split(*args, **kwargs)
            test_sets.append(test)
            return train, test

        def counted_predict(self, X):
            log_line(log, self.objective_name)
            return predict(self, X)

        def recording_post_init(self, phi):
            laid_out.append(self.ds)
            post_init(self, phi)

        monkeypatch.setattr(dataset, "split", recording_split)
        monkeypatch.setattr(gbt.TreeEnsemble, "predict", counted_predict)
        monkeypatch.setattr(curves.CurveLayout, "__post_init__", recording_post_init)
        _, rows, _ = harness.run(cfg)
        assert all(r["status"] == "ok" for r in rows)
        # the mse, idloss and sera ensembles of each run, once each
        predicted = log.read_text().split()
        assert len(predicted) == 6
        assert sorted(predicted) == ["idloss", "idloss", "mse", "mse", "sera", "sera"]
        assert sum(any(ds is t for t in test_sets) for ds in laid_out) == 2

    @pytest.mark.parametrize("fast", ["false", "true"])
    def test_outputs_equal_fitting_each_model_alone(self, tmp_path, fast):
        cfg = harness.config_from_file(write_experiment(
            tmp_path, runs=3,
            models="idboost_0.3, mse, huber, idloss, sera, idboost_1.0, idboost_0",
            extra=f"fast = {fast}",
        ))
        _, _, ds = harness.run(cfg)
        harness.export_id_curves(cfg, ds)
        oracle = dataclasses.replace(cfg, out_dir=str(tmp_path / "oracle"))
        parent_run(oracle)
        parent_export_id_curves(oracle)
        got, want = read_tree(cfg.out_dir), read_tree(oracle.out_dir)
        assert len(got) == 3 * 2 * 7 + 2 + 7
        assert sorted(got) == sorted(want)
        for name in want:
            assert got[name] == want[name], name

    @staticmethod
    def one_populated_training_group(tmp_path, models):
        """A one-run config whose training split holds one populated group."""
        cfg = harness.config_from_file(write_experiment(tmp_path, runs=1, models=models))
        # two rows of group a0 = 0, and a seed that puts both in the test part
        data = tmp_path / "data.csv"
        lines = data.read_text().splitlines()
        cells = [line.split(",") for line in lines[1:]]
        for i, row in enumerate(cells):
            row[1] = "0" if i < 2 else "1"
        data.write_text("\n".join([lines[0], *(",".join(row) for row in cells)]) + "\n")
        ds = dataset.load_csv(cfg.data, cfg.schema)
        seed = next(
            s for s in range(1000)
            if np.count_nonzero(dataset.split(ds, cfg.train_ratio, s)[0].group_counts()) == 1
        )
        return dataclasses.replace(cfg, base_seed=seed)

    def test_one_populated_training_group_keeps_failure_statuses(self, tmp_path):
        cfg = self.one_populated_training_group(tmp_path, "mse, idloss, sera, idboost_0.5")
        _, rows, _ = harness.run(cfg)
        assert {r["model"]: r["status"] for r in rows} == {
            "mse": "ok",
            "idloss": "failed: divergence loss needs at least 2 populated groups",
            "sera": "ok",
            "idboost_0.5": "failed: the divergence loss needs at least 2 populated groups",
        }
        oracle = dataclasses.replace(cfg, out_dir=str(tmp_path / "oracle"))
        parent_run(oracle)
        assert read_tree(cfg.out_dir) == read_tree(oracle.out_dir)

    def test_one_populated_training_group_without_idloss_or_sera_models(self, tmp_path):
        # idboost_0.5 fails its group check, so the idloss and sera fits go unused
        cfg = self.one_populated_training_group(tmp_path, "mse, idboost_0.5")
        _, rows, _ = harness.run(cfg)
        assert {r["model"]: r["status"] for r in rows} == {
            "mse": "ok",
            "idboost_0.5": "failed: the divergence loss needs at least 2 populated groups",
        }
        oracle = dataclasses.replace(cfg, out_dir=str(tmp_path / "oracle"))
        parent_run(oracle)
        assert read_tree(cfg.out_dir) == read_tree(oracle.out_dir)

    @pytest.mark.parametrize("models", ["idboost_0.5, idloss, sera", "sera, idloss, idboost_0.5"])
    def test_cached_failures_raised_idloss_first(self, tmp_path, monkeypatch, models):
        cfg = harness.config_from_file(write_experiment(tmp_path, runs=1, models=models))
        log = tmp_path / "fits.log"

        def failing_fit(ds, phi, params, objective, *args, **kwargs):
            log_line(log, objective)
            raise UndefinedMetricError(f"{objective} broke")

        monkeypatch.setattr(idboost, "fit_ensemble", failing_fit)
        _, rows, _ = harness.run(cfg)
        objectives = log.read_text().split()
        assert {r["model"]: r["status"] for r in rows} == {
            "idloss": "failed: idloss broke",
            "sera": "failed: sera broke",
            "idboost_0.5": "failed: idloss broke",
        }
        assert sorted(objectives) == ["idloss", "sera"]


class TestSharedEnsemblesInProcess(TestSharedEnsembles):
    CPUS = 1


@pytest.mark.usefixtures("two_cpus", "no_fd_left_open")
class TestWorkerFaults:
    """Faults of a run's fits with two processes: each is raised in the
    caller, no output is scored or ranked, every worker is reaped and no
    pipe is left open."""

    @staticmethod
    def assert_not_ranked(cfg):
        assert not os.path.exists(os.path.join(cfg.out_dir, "ranks.csv"))
        assert not os.path.exists(os.path.join(cfg.out_dir, "raw_metrics.csv"))

    # mse and sera are fitted by the caller, idloss by the worker
    @pytest.mark.parametrize("broken", ["mse", "idloss", "sera"])
    def test_non_interdiv_error_propagates_from_three_objectives(
        self, tmp_path, monkeypatch, capfd, broken
    ):
        cfg = harness.config_from_file(write_experiment(tmp_path, models="mse, idloss, sera"))
        fit = idboost.fit_ensemble

        def broken_fit(ds, phi, params, objective, *args, **kwargs):
            if objective == broken:
                raise RuntimeError(f"fault in the program ({objective})")
            return fit(ds, phi, params, objective, *args, **kwargs)

        monkeypatch.setattr(idboost, "fit_ensemble", broken_fit)
        with pytest.raises(RuntimeError, match=rf"fault in the program \({broken}\)"):
            harness.run(cfg)
        self.assert_not_ranked(cfg)
        worker_traceback = "Traceback" in capfd.readouterr().err
        assert worker_traceback == (broken == "idloss")

    @pytest.mark.parametrize("die, named", [
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by SIGKILL"),
        (lambda: os._exit(3), "exited with code 3"),
    ], ids=["sigkill", "os-exit"])
    def test_dead_worker_is_an_error_naming_it(self, tmp_path, monkeypatch, die, named):
        cfg = harness.config_from_file(write_experiment(tmp_path, models="mse, idboost_0.5"))
        fit = idboost.fit_ensemble

        def dying_fit(*args, **kwargs):
            if in_worker():
                die()
            return fit(*args, **kwargs)

        monkeypatch.setattr(idboost, "fit_ensemble", dying_fit)
        with pytest.raises(ChildProcessError, match=named):
            harness.run(cfg)
        self.assert_not_ranked(cfg)

    def test_interrupt_kills_and_reaps_the_worker(self, tmp_path, monkeypatch):
        cfg = harness.config_from_file(write_experiment(tmp_path, models="mse, idloss"))
        pid_file = tmp_path / "worker.pid"

        def interrupted_fit(*args, **kwargs):
            if in_worker():
                pid_file.write_text(str(os.getpid()))
                time.sleep(30)
            while not pid_file.exists() or not pid_file.read_text():
                time.sleep(0.01)
            raise KeyboardInterrupt

        monkeypatch.setattr(idboost, "fit_ensemble", interrupted_fit)
        t0 = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            harness.run(cfg)
        assert time.monotonic() - t0 < 20
        with pytest.raises(ChildProcessError):  # reaped: no longer a child
            os.waitpid(int(pid_file.read_text()), os.WNOHANG)
        self.assert_not_ranked(cfg)

    def test_worker_runs_no_exit_hook_and_flushes_no_inherited_output(self, tmp_path):
        cfg_path = write_experiment(tmp_path, models="mse, idloss, idboost_0.5")
        exits = tmp_path / "exits"
        script = textwrap.dedent(f"""
            import atexit, sys
            from interdiv import cli, parallel
            parallel.cpus = lambda: 2
            atexit.register(lambda: open({str(exits)!r}, "a").write("exit\\n"))
            sys.stdout.write("buffered")
            sys.exit(cli.main(["experiment", "--config", {str(cfg_path)!r}]))
        """)
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=buffered_env(), timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("buffered") and done.stdout.count("buffered") == 1
        assert exits.read_text() == "exit\n"


class TestConfigChecks:
    def test_unknown_metric_rejected_before_any_fit(self, tmp_path):
        cfg_path = write_experiment(tmp_path, models="mse", extra="metrics = mse, bogus")
        with pytest.raises(ValidationError, match="bogus"):
            harness.config_from_file(cfg_path)

    @pytest.mark.parametrize("runs, models, message", [
        (0, "mse", "n_runs must be >= 1"),
        (2, "mse, sera, mse", "model names must be unique"),
        (2, "", "at least one model is required"),
    ], ids=["no-runs", "repeated-model", "no-model"])
    def test_run_plan_rejected_before_any_fit(self, tmp_path, runs, models, message):
        cfg_path = write_experiment(tmp_path, runs=runs, models=models)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            harness.config_from_file(cfg_path)

    def test_every_metric_name_accepted(self, tmp_path):
        cfg = harness.config_from_file(write_experiment(
            tmp_path, runs=1, models="mse", extra="metrics = " + ", ".join(harness.METRIC_NAMES)
        ))
        _, rows, _ = harness.run(cfg)
        assert all(np.isfinite(rows[0][m]) for m in harness.METRIC_NAMES)

    def test_non_finite_boost_param_rejected_before_any_fit(self, tmp_path):
        cfg_path = write_experiment(tmp_path, models="mse")
        cfg_path.write_text(cfg_path.read_text().replace("lambda = 1e-6", "lambda = nan"))
        with pytest.raises(ValidationError, match="l2_lambda"):
            harness.config_from_file(cfg_path)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_huber_delta_fails_the_model(self, tmp_path, value):
        cfg = harness.config_from_file(write_experiment(
            tmp_path, runs=1, models="mse, huber", extra=f"huber_delta = {value}"
        ))
        _, rows, _ = harness.run(cfg)
        assert rows[0]["status"] == "ok"
        assert rows[1]["status"] == f"failed: huber delta must be positive and finite, got {value}"


class TestModelNameParsing:
    def test_accepted_spellings(self):
        assert harness._parse_model_name("mse") == (("mse",), None)
        assert harness._parse_model_name("XGB_SERA") == (("sera",), None)
        assert harness._parse_model_name("idboost_0.25") == (("idloss", "sera"), 0.25)
        assert harness._parse_model_name("idboost") == (idboost.OBJECTIVES, 0.5)

    @pytest.mark.parametrize("name", ["idboostx", "idboost_0.5.1"])
    def test_malformed_weight_is_unknown_name(self, tmp_path, name):
        with pytest.raises(ValidationError, match=f"^unknown model name '{name}'$"):
            harness.config_from_file(write_experiment(tmp_path, models=f"mse, {name}"))

    def test_rejects_unknown(self):
        with pytest.raises(ValidationError):
            harness._parse_model_name("catboost")
        with pytest.raises(ValidationError):
            harness._parse_model_name("idboost_1.5")


class TestExportIdCurves:
    def test_single_run_average_equals_run_curve(self, tmp_path):
        cfg = harness.config_from_file(write_experiment(tmp_path, runs=1, models="mse"))
        harness.run(cfg)
        paths = harness.export_id_curves(cfg)
        lines = Path(paths["mse"]).read_text().strip().splitlines()
        assert lines[0] == "t,group,normalized_ser"
        # recompute the run-0 curve directly and compare a few rows
        import interdiv.curves as curves_mod
        import interdiv.relevance as relevance_mod

        ds = dataset.load_csv(cfg.data, cfg.schema)
        train, test = dataset.split(ds, cfg.train_ratio, cfg.base_seed)
        phi = relevance_mod.from_boxplot(train.targets)
        preds = np.loadtxt(os.path.join(cfg.out_dir, "run_0", "preds_mse.csv"), skiprows=1)
        cs = curves_mod.build(test, preds, phi)
        for line in lines[1:20]:
            t, g, v = line.split(",")
            ser_v, cnt_v = cs.values_at(float(t), int(g))
            want = ser_v[0] / cnt_v[0] if cnt_v[0] > 0 else 0.0
            assert float(v) == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("block_rows", [1, 2, 3])
    def test_small_blocks_write_the_same_bytes(self, tmp_path, block_rows):
        cfg = harness.config_from_file(write_experiment(tmp_path, runs=2, models="mse, sera"))
        harness.run(cfg)
        paths = harness.export_id_curves(cfg)
        want = {name: Path(p).read_bytes() for name, p in paths.items()}
        with mock.patch.object(dataset, "BLOCK_ROWS", block_rows):
            paths = harness.export_id_curves(cfg)
        assert {name: Path(p).read_bytes() for name, p in paths.items()} == want

    def test_average_at_fixed_t_is_mean_of_per_run_values(self, tmp_path):
        import interdiv.curves as curves_mod
        import interdiv.relevance as relevance_mod

        cfg = harness.config_from_file(write_experiment(tmp_path, runs=2, models="mse"))
        harness.run(cfg)
        paths = harness.export_id_curves(cfg)
        lines = Path(paths["mse"]).read_text().strip().splitlines()[1:]
        ds = dataset.load_csv(cfg.data, cfg.schema)
        per_run = []
        for r in range(2):
            train, test = dataset.split(ds, cfg.train_ratio, cfg.base_seed + r)
            phi = relevance_mod.from_boxplot(train.targets)
            preds = np.loadtxt(
                os.path.join(cfg.out_dir, f"run_{r}", "preds_mse.csv"), skiprows=1
            )
            per_run.append(curves_mod.build(test, preds, phi))
        for line in lines[::17]:
            t, g, v = line.split(",")
            vals = []
            for cs in per_run:
                ser_v, cnt_v = cs.values_at(float(t), int(g))
                vals.append(ser_v[0] / cnt_v[0] if cnt_v[0] > 0 else 0.0)
            assert float(v) == pytest.approx(np.mean(vals), rel=1e-12, abs=1e-12)

    def test_missing_artifacts_error_lists_runs(self, tmp_path):
        cfg = harness.config_from_file(write_experiment(tmp_path, runs=2, models="mse"))
        harness.run(cfg)
        os.remove(os.path.join(cfg.out_dir, "run_1", "preds_mse.csv"))
        with pytest.raises(InputError, match="run_1"):
            harness.export_id_curves(cfg)

    def test_failed_model_skipped_and_missing_ok_file_still_fails(self, tmp_path):
        cfg = harness.config_from_file(write_experiment(
            tmp_path, runs=2, models="mse, huber", extra="huber_delta = -1"
        ))
        harness.run(cfg)
        assert harness.failed_runs(cfg) == {"huber": ["run_0", "run_1"]}
        assert list(harness.export_id_curves(cfg)) == ["mse"]
        assert not os.path.exists(os.path.join(cfg.out_dir, "curves", "huber.csv"))
        os.remove(os.path.join(cfg.out_dir, "run_1", "preds_mse.csv"))
        with pytest.raises(InputError, match="missing saved predictions for: run_1/mse$"):
            harness.export_id_curves(cfg)

    def test_experiment_never_run(self, tmp_path):
        cfg = harness.config_from_file(write_experiment(tmp_path, models="mse"))
        with pytest.raises(InputError, match="raw_metrics.csv; run the experiment first"):
            harness.export_id_curves(cfg)
