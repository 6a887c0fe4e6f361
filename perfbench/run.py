"""End-to-end and per-layer benchmark of the ``interdiv`` CLI.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train-idboost --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each workload is a fixed sequence of CLI commands on inputs that
``perfbench/gen.py`` makes from ``--seed``. Commands run one at a time, each
in a fresh process (a closed loop with one client), and the sequence
repeats until ``--seconds`` is used up. With ``--trace 0`` the run reports
the end-to-end metrics, as medians over passes measured without tracing.
With ``--trace 1`` it alternates an untraced pass with a pass in which
``perfbench/tracer.py`` runs each command in process with a span around
every layer, and reports per-layer self times, counts and the tracing
overhead. Outputs are checked against ``perfbench/oracle.py`` outside the
timed commands. The last line of standard output is one JSON object; a
fuller record and the spans go to ``perfbench/.out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import oracle  # noqa: E402

# What the ``interdiv`` console script runs, plus a hook that records the peak
# resident set of this process image. ru_maxrss from wait4 cannot be used: a
# child inherits the high-water mark of the benchmark process that spawned it.
CLI = """\
import atexit, os, sys
def peak_rss():
    with open("/proc/self/status") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open(os.environ["PERFBENCH_HWM_FILE"], "w") as out:
        out.write(kb)
atexit.register(peak_rss)
from interdiv.cli import main
sys.exit(main())
"""
IMPORT = "import interdiv.cli"
MIN_PASSES = 3          # untraced passes per --trace 0 run, even past --seconds
RUN_LIMIT_S = 170.0     # wall-time budget of one run; a command still going is killed
REL_TOL_PREDICT = 1e-12
REL_TOL_REPORT = 1e-9
COMMANDS = ("train", "predict", "audit", "curves", "experiment")
FAIR_MODEL = "idboost_0.5"   # the experiment model whose held-out quality is reported

END_TO_END = {
    "pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "heldout_id": "sq_err", "heldout_sera": "sq_err",
}
PER_LAYER = {
    "dataset.load_csv.s": "s", "dataset.load_csv.calls": "count",
    "dataset.load_csv.rows_per_s": "rows/s", "dataset.split.s": "s",
    "relevance.evaluate.s": "s", "relevance.evaluate.calls": "count",
    "curves.build.s": "s", "curves.build.calls": "count",
    "curves.build.intervals": "count", "curves.export_curves.s": "s",
    "losses.grad_hess.s": "s", "losses.grad_hess.calls": "count",
    "losses.value.s": "s", "losses.value.calls": "count",
    "losses.builds_per_round": "builds/round",
    "gbt.fit.self_s": "s", "gbt.fit.calls": "count", "gbt.nodes": "count",
    "gbt.predict.s": "s", "gbt.predict.row_trees_per_s": "row-trees/s",
    "idboost.fit.s": "s", "idboost.predict.s": "s",
    "approx.simplify.s": "s", "approx.simplify.calls": "count",
    "approx.eval_points_ratio": "ratio",
    "metrics.full_report.s": "s", "metrics.full_report.calls": "count",
    "harness.run.self_s": "s", "harness.export_id_curves.self_s": "s",
    "cli.self_s": "s", "cli.cpu_s": "s",
    **{f"cmd.{c}.s": "s" for c in COMMANDS},
    "trace.wall_s": "s", "trace.overhead_s": "s",
}


class BenchError(Exception):
    """No result can be given: no program to run, or a command hung."""


def commands(workload: str, p: dict) -> list:
    """The workload's CLI argument lists, in the order one pass runs them."""
    data = ["--data", p["data"], "--config", p["schema"]]
    if workload == "train-idboost":
        return [["train", *data, *gen.WORKLOADS[workload]["train_args"],
                 "--out", p["work"] + "/model.json"]]
    if workload == "score-50k":
        preds = p["work"] + "/preds.csv"
        return [
            ["predict", *data, "--model", p["model"], "--out", preds],
            ["audit", *data, "--preds", preds, "--out", p["work"] + "/audit.json"],
            ["curves", *data, "--preds", preds, "--out", p["work"] + "/curves.csv"],
        ]
    return [["experiment", "--config", p["experiment"], "--curves"]]


class Runner:
    """Runs one child process at a time, timed from spawn to exit."""

    def __init__(self, work: str, started: float):
        self.env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                        MKL_NUM_THREADS="1", PYTHONHASHSEED="0", PYTHONPATH="src")
        self.work = work
        self.started = started
        self.n = 0

    def run(self, argv: list) -> dict:
        self.n += 1
        log = os.path.join(self.work, f"cmd{self.n}.log")
        hwm = os.path.join(self.work, f"cmd{self.n}.hwm")
        limit = RUN_LIMIT_S - (time.monotonic() - self.started)
        if limit <= 0:
            raise BenchError("out of time before starting a command")
        with open(log, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv],
                                    env=dict(self.env, PERFBENCH_HWM_FILE=hwm),
                                    stdout=out, stderr=subprocess.STDOUT)
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            with open(log, encoding="utf-8", errors="replace") as fh:
                print(f"exit {proc.returncode}: {argv}\n{fh.read()[-2000:]}", file=sys.stderr)
        if proc.returncode == -9:
            raise BenchError(f"command killed after {limit:.0f} s: {argv}")
        rss_mb = None
        if os.path.exists(hwm):
            with open(hwm, encoding="ascii") as fh:
                rss_mb = int(fh.read()) / 1024.0
        return {"rc": proc.returncode, "wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
                "rss_mb": rss_mb}


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def count_rows(path: str) -> int:
    """Data rows of a CSV with one header line."""
    with open(path, "rb") as fh:
        return fh.read().count(b"\n") - 1


def read_preds(path: str) -> np.ndarray:
    return np.loadtxt(path, skiprows=1, ndmin=1)


class Checker:
    """Checks each command's outputs against the oracle, outside its timing."""

    def __init__(self, workload: str, p: dict, inputs: dict):
        self.workload = workload
        self.p = p
        self.inputs = inputs
        self.digests = {}
        self.failures = []
        self.heldout = None
        if workload == "score-50k":
            y, A, X = inputs["data"]
            self.expected = oracle.predict_model(inputs["model"], X)
            self.heldout = oracle.report(y, A, self.expected)

    def check(self, command: str) -> bool:
        """True when the outputs of ``command``, just run, are right."""
        before = len(self.failures)
        try:
            getattr(self, "_" + command)()
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self._fail(f"{command}: unreadable output: {exc!r}")
        return len(self.failures) == before

    def _fail(self, what: str) -> None:
        self.failures.append(what)
        print(f"check failed: {what}", file=sys.stderr)

    def _same_bytes(self, name: str, path: str) -> None:
        digest = sha256(path)
        if self.digests.setdefault(name, digest) != digest:
            self._fail(f"{name} differs between runs of one invocation")

    def _train(self):
        path = self.p["work"] + "/model.json"
        self._same_bytes("model.json", path)
        if self.heldout is None:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            y, A, X = self.inputs["heldout"]
            preds = oracle.predict_model(doc, X)
            if not np.all(np.isfinite(preds)):
                self._fail("train: the model predicts non-finite values")
                return
            self.heldout = oracle.report(y, A, preds)

    def _predict(self):
        preds = read_preds(self.p["work"] + "/preds.csv")
        if not oracle.close(preds, self.expected, REL_TOL_PREDICT):
            self._fail("predict: output differs from the walk of the model file")

    def _audit(self):
        y, A, _ = self.inputs["data"]
        with open(self.p["work"] + "/audit.json", encoding="utf-8") as fh:
            audit = json.load(fh)
        ref = oracle.report(y, A, read_preds(self.p["work"] + "/preds.csv"))
        for key in ("mse", "sera", "id"):
            if audit[key] is None or not oracle.close(audit[key], ref[key], REL_TOL_REPORT):
                self._fail(f"audit: {key}={audit[key]!r}, oracle {ref[key]!r}")

    def _curves(self):
        # breakpoints depend on the targets alone, so the reference report fits
        rows = count_rows(self.p["work"] + "/curves.csv")
        expected = self.heldout["n_groups"] * len(self.heldout["breakpoints"])
        if rows != expected:
            self._fail(f"curves: {rows} rows, expected groups x breakpoints = {expected}")

    def _experiment(self):
        out = self.p["experiment_out"]
        spec = gen.WORKLOADS[self.workload]["experiment"]
        models = [m.strip() for m in spec["models"].split(",")]
        self._same_bytes("ranks.csv", out + "/ranks.csv")
        y, A, _ = self.inputs["data"]
        with open(out + "/raw_metrics.csv", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            raw = {(r["run"], r["model"]): r for r in
                   (dict(zip(header, line.strip().split(","))) for line in fh)}
        grids = {m: [] for m in models}
        for r in range(spec["runs"]):
            train, test = oracle.split(len(y), spec["train_ratio"], spec["seed"] + r)
            for m in models:
                preds = read_preds(f"{out}/run_{r}/preds_{m}.csv")
                ref = oracle.report(y[test], A[test], preds, relevance_targets=y[train])
                grids[m].append(ref["breakpoints"])
                row = raw[(str(r), m)]
                if row["status"] != "ok":
                    self._fail(f"experiment: run {r} {m} status {row['status']!r}")
                for key in ("mse", "sera", "id"):
                    got = float(row[key])
                    if not oracle.close(got, ref[key], REL_TOL_REPORT):
                        self._fail(f"experiment: run {r} {m} {key}={got!r}, oracle {ref[key]!r}")
        n_groups = len(np.unique(A, axis=0))
        for m in models:
            rows = count_rows(f"{out}/curves/{m}.csv")
            expected = n_groups * len(np.unique(np.concatenate(grids[m])))
            if rows != expected:
                self._fail(f"experiment: curves/{m}.csv has {rows} rows, expected {expected}")
        if self.heldout is None:
            # each run's dual-ensemble model on the held-out rows, averaged over runs
            hy, hA, hX = self.inputs["heldout"]
            fair = []
            for r in range(spec["runs"]):
                with open(f"{out}/run_{r}/model_{FAIR_MODEL}.json", encoding="utf-8") as fh:
                    fair.append(oracle.report(hy, hA, oracle.predict_model(json.load(fh), hX)))
            self.heldout = {k: float(np.mean([f[k] for f in fair])) for k in ("id", "sera")}


def layer_metrics(traced: list) -> dict:
    """Per-layer metrics of one traced pass, given ``[(spans, wall_s), ...]``.

    A span's self time is its duration minus that of its child spans.
    ``cli.self_s`` is what no layer span covers: interpreter start, imports,
    argument parsing and the command's own file I/O.
    """
    self_s, calls, work = {}, {}, {}
    cli_self = 0.0
    idloss_rounds = idloss_builds = 0
    for spans, wall in traced:
        child = [0.0] * len(spans)
        for name, start, end, parent, *_ in spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                wall -= end - start
        cli_self += wall
        for i, (name, start, end, parent, _run, detail, count) in enumerate(spans):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
            calls[name] = calls.get(name, 0) + 1
            if isinstance(count, list):
                work[name] = [a + b for a, b in zip(work.get(name, [0, 0]), count)]
            elif count is not None:
                work[name] = work.get(name, 0) + count
            if name == "losses.grad_hess" and detail == "IdLossObjective":
                idloss_rounds += 1
            if name == "curves.build" and parent >= 0 and spans[parent][5] == "IdLossObjective":
                idloss_builds += 1
    out = {}
    for key in PER_LAYER:
        layer, _, stat = key.rpartition(".")
        if stat in ("s", "self_s"):
            out[key] = self_s.get(layer, 0.0)
        elif stat == "calls":
            out[key] = calls.get(layer, 0)
    out["dataset.load_csv.rows_per_s"] = work.get("dataset.load_csv", 0) / max(
        self_s.get("dataset.load_csv", 0.0), 1e-9)
    out["curves.build.intervals"] = work.get("curves.build", 0)
    out["losses.builds_per_round"] = idloss_builds / idloss_rounds if idloss_rounds else 0.0
    out["gbt.nodes"] = work.get("gbt.fit", 0)
    out["gbt.predict.row_trees_per_s"] = work.get("gbt.predict", 0) / max(
        self_s.get("gbt.predict", 0.0), 1e-9)
    segments, intervals = work.get("approx.simplify", [0, 0])
    out["approx.eval_points_ratio"] = segments / intervals if intervals else 0.0
    out["cli.self_s"] = cli_self
    return out


def steal_s() -> float | None:
    """CPU time the hypervisor gave to other guests since boot, if reported."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def host_probe_s() -> float:
    """Wall time of a fixed mix of interpreter and numpy work.

    Taken before and after each run so that drift in the host's speed shows
    in the record; it is not used to adjust any metric.
    """
    a = np.random.default_rng(0).random(200_000)
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i
    for _ in range(3):
        np.sort(a)
    return time.perf_counter() - t0


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "loadavg_before": os.getloadavg(),
            "steal_s_before": steal_s(), "probe_s_before": host_probe_s()}


def run_pass(runner: Runner, checker: Checker, argvs: list, tally: dict,
             traced_spans: str | None = None) -> list:
    """Run every command once; return per-command timings (and spans)."""
    results = []
    for k, argv in enumerate(argvs):
        if traced_spans is None:
            res = runner.run(["-c", CLI, *argv])
        else:
            spans_path = f"{runner.work}/spans{runner.n}.json"
            run_id = f"{traced_spans}/{argv[0]}"
            res = runner.run([os.path.join(HERE, "tracer.py"), spans_path, run_id, *argv])
            with open(spans_path, encoding="utf-8") as fh:
                res["spans"] = json.load(fh)["spans"]
        res["command"] = argv[0]
        tally["attempted"] += 1
        if res["rc"] != 0 or not checker.check(argv[0]):
            tally["failed"] += 1
        results.append(res)
    return results


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    env = environment()
    work = os.path.join("perfbench", ".work", f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        paths, inputs = gen.generate(workload, seed, work)
        paths["work"] = work
        runner = Runner(work, started)
        checker = Checker(workload, paths, inputs)
        argvs = commands(workload, paths)
        tally = {"attempted": 0, "failed": 0}
        record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                  "env": env, "passes": [], "traced_passes": []}
        if runner.run(["-c", IMPORT])["rc"] != 0:   # also compiles the bytecode once
            raise BenchError("cannot import interdiv.cli from src/")
        t0 = time.perf_counter()
        if trace:
            layers = []
            while not layers or time.perf_counter() - t0 + 2 * statistics.median(
                    sum(c["wall"] for c in p) for p in record["traced_passes"]) <= seconds:
                plain = run_pass(runner, checker, argvs, tally)
                tag = f"{workload}/seed{seed}/pass{len(layers)}"
                traced = run_pass(runner, checker, argvs, tally, traced_spans=tag)
                record["passes"].append(plain)
                record["traced_passes"].append(traced)
                one = layer_metrics([(c["spans"], c["wall"]) for c in traced])
                for name in COMMANDS:
                    one[f"cmd.{name}.s"] = sum(c["wall"] for c in plain if c["command"] == name)
                one["cli.cpu_s"] = sum(c["cpu"] for c in plain)
                one["trace.wall_s"] = sum(c["wall"] for c in traced)
                one["trace.overhead_s"] = one["trace.wall_s"] - sum(c["wall"] for c in plain)
                layers.append(one)
            # every per-layer figure comes from one pass, the one with the
            # median traced wall time, so that its self times add up
            by_wall = sorted(layers, key=lambda one: one["trace.wall_s"])
            median_pass = by_wall[(len(layers) - 1) // 2]
            metrics = {k: (median_pass[k], PER_LAYER[k]) for k in PER_LAYER}
        else:
            # one fresh-interpreter import ahead of each pass, so the setup
            # samples span the same stretch of time as the passes
            record["setup_s"] = []
            walls = []
            while len(walls) < MIN_PASSES or (
                    time.perf_counter() - t0 + statistics.median(walls) <= seconds):
                setup = runner.run(["-c", IMPORT])
                if setup["rc"] != 0:
                    raise BenchError("cannot import interdiv.cli from src/")
                record["setup_s"].append(setup["wall"])
                record["passes"].append(run_pass(runner, checker, argvs, tally))
                walls.append(setup["wall"] + sum(c["wall"] for c in record["passes"][-1]))
            if checker.heldout is None:
                raise BenchError("no output to take the held-out metrics from")
            metrics = {
                "pass_s": statistics.median(
                    sum(c["wall"] for c in p) for p in record["passes"]),
                "setup_s": statistics.median(record["setup_s"]),
                "peak_rss_mb": max(c["rss_mb"] or 0.0 for p in record["passes"] for c in p),
                "heldout_id": checker.heldout["id"],
                "heldout_sera": checker.heldout["sera"],
            }
            metrics = {k: (v, END_TO_END[k]) for k, v in metrics.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run's inputs are still there
    env["loadavg_after"] = os.getloadavg()
    env["steal_s_after"] = steal_s()
    env["probe_s_after"] = host_probe_s()
    record.update(tally, failures=checker.failures, digests=checker.digests,
                  metrics={k: v for k, (v, _) in metrics.items()})
    os.makedirs(os.path.join("perfbench", ".out"), exist_ok=True)
    with open(os.path.join("perfbench", ".out",
                           f"{workload}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    summarize(record, metrics)
    return {"correct": tally["failed"] == 0, **tally,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def summarize(record: dict, metrics: dict) -> None:
    """Human-readable lines ahead of the JSON result."""
    env = record["env"]
    print(f"== {record['workload']} seed={record['seed']} trace={int(record['trace'])} "
          f"passes={len(record['passes'])}")
    print(f"   host: {env['cpu']}, nproc={env['nproc']}, python {env['python']}, "
          f"numpy {env['numpy']}, load {env['loadavg_before'][0]:.2f} -> "
          f"{env['loadavg_after'][0]:.2f}")
    print(f"   host probe {env['probe_s_before']:.4f} -> {env['probe_s_after']:.4f} s", end="")
    if env["steal_s_before"] is not None:
        print(f", cpu steal during run {env['steal_s_after'] - env['steal_s_before']:.2f} s", end="")
    print()
    for name in COMMANDS:
        walls = [c["wall"] for p in record["passes"] for c in p if c["command"] == name]
        if walls:
            print(f"   {name}_s: median {statistics.median(walls):.4f} s over {len(walls)} runs")
    print(f"   error_rate: {record['failed']}/{record['attempted']}")
    for name, digest in sorted(record["digests"].items()):
        print(f"   sha256 {name}: {digest}")
    for key, (value, unit) in metrics.items():
        print(f"   {key}: {value:.6g} {unit}")
    if record["trace"]:
        layer_sum = sum(v for k, (v, u) in metrics.items()
                        if u == "s" and k.split(".")[0] not in ("cmd", "trace")
                        and k != "cli.cpu_s")
        print(f"   layer self times + cli.self_s = {layer_sum:.4f} s; "
              f"traced wall {metrics['trace.wall_s'][0]:.4f} s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="interdiv CLI benchmark")
    ap.add_argument("--workload", required=True, choices=[*gen.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "interdiv", "cli.py")):
        print("error: run from the root of an interdiv checkout (no src/interdiv/cli.py)",
              file=sys.stderr)
        return 2
    names = list(gen.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
