import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from interdiv import parallel
from interdiv.errors import UndefinedMetricError

PARENT = os.getpid()


class TwoArgsError(Exception):
    """Pickles, but its pickle does not rebuild it: ``args`` holds one message."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def in_worker() -> bool:
    return os.getpid() != PARENT


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(parallel, "cpus", lambda: 2)


@pytest.fixture
def no_fd_left_open():
    """Fails the test if it leaves a file descriptor open (on Linux)."""
    if not os.path.isdir("/proc/self/fd"):
        yield
        return
    before = sorted(os.listdir("/proc/self/fd"))
    yield
    assert sorted(os.listdir("/proc/self/fd")) == before


pytestmark = pytest.mark.usefixtures("no_fd_left_open")


def buffered_env() -> dict:
    """The environment of a child Python that imports ``src/`` and buffers
    its standard output."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    return env


def reaped(pid: int) -> bool:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class TestCpus:
    def test_affinity_mask(self):
        assert parallel.cpus() == len(os.sched_getaffinity(0))

    def test_one_while_another_thread_runs(self, monkeypatch):
        monkeypatch.setattr(parallel.threading, "active_count", lambda: 2)
        assert parallel.cpus() == 1

    def test_one_without_affinity_query(self, monkeypatch):
        monkeypatch.delattr(parallel.os, "sched_getaffinity")
        assert parallel.cpus() == 1


class TestForkMap:
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("n_jobs", [0, 1, 2, 5])
    def test_serial_results_in_job_order(self, monkeypatch, cpus, n_jobs):
        monkeypatch.setattr(parallel, "cpus", lambda: cpus)
        got = parallel.fork_map(lambda j: (j, j * 0.1, in_worker()), range(n_jobs))
        assert [g[:2] for g in got] == [(j, j * 0.1) for j in range(n_jobs)]
        # job i runs in process i % min(n_jobs, cpus); process 0 is the caller
        n = max(1, min(n_jobs, cpus))
        assert [g[2] for g in got] == [j % n != 0 for j in range(n_jobs)]

    def test_interdiv_error_comes_back_without_traceback(self, two_cpus, capfd):
        def fit(job):
            if in_worker():
                raise UndefinedMetricError(f"job {job} broke")
            return job

        with pytest.raises(UndefinedMetricError, match="^job 1 broke$"):
            parallel.fork_map(fit, [0, 1])
        assert "Traceback" not in capfd.readouterr().err

    def test_other_error_comes_back_with_type_message_and_traceback(self, two_cpus, capfd):
        def fit(job):
            if in_worker():
                raise KeyError(f"job {job}")
            return job

        with pytest.raises(KeyError, match="job 1"):
            parallel.fork_map(fit, [0, 1])
        err = capfd.readouterr().err
        assert "Traceback" in err and "KeyError: 'job 1'" in err and "in fit" in err

    def test_first_failure_in_job_order_raised_after_every_job(self, two_cpus, tmp_path):
        def fit(job):
            (tmp_path / str(job)).touch()
            raise ValueError(f"job {job}")

        with pytest.raises(ValueError, match="job 0"):
            parallel.fork_map(fit, [0, 1, 2])
        assert sorted(os.listdir(tmp_path)) == ["0", "1", "2"]

    @pytest.mark.parametrize("local", [False, True], ids=["not-rebuilt", "not-pickled"])
    def test_exception_that_cannot_be_sent_keeps_its_name(self, two_cpus, local):
        class LocalTwoArgsError(TwoArgsError):
            pass

        def fit(job):
            if in_worker():
                raise (LocalTwoArgsError if local else TwoArgsError)("x", "y")

        with pytest.raises(RuntimeError, match="TwoArgsError: x and y"):
            parallel.fork_map(fit, [0, 1])

    @pytest.mark.parametrize("die, named", [
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by SIGKILL"),
        (lambda: os._exit(3), "exited with code 3"),
        (lambda: sys.exit(0), "exited with code 1"),
    ], ids=["sigkill", "os-exit", "sys-exit"])
    def test_dead_worker_is_named(self, two_cpus, die, named):
        def fit(job):
            if in_worker():
                die()
            return job

        with pytest.raises(ChildProcessError, match=f"worker process \\d+ {named}"):
            parallel.fork_map(fit, [0, 1])

    def test_worker_runs_its_next_job_before_its_results_are_read(self, two_cpus, tmp_path):
        # the caller's first job waits for a file that the worker's second
        # job writes; the worker's first result is larger than a pipe holds
        done = tmp_path / "second-worker-job"

        def fit(job):
            if job == 0:
                deadline = time.monotonic() + 20
                while not done.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
                return done.exists()
            if job == 3:
                done.touch()
            return bytes(1 << 20) if job == 1 else job

        assert parallel.fork_map(fit, range(4)) == [True, bytes(1 << 20), 2, 3]

    @pytest.mark.parametrize("raised", [KeyboardInterrupt, RuntimeError])
    def test_every_worker_reaped_when_the_caller_raises(self, monkeypatch, tmp_path, raised):
        monkeypatch.setattr(parallel, "cpus", lambda: 3)
        pids = tmp_path / "pids"

        def fit(job):
            if in_worker():
                with open(pids, "a") as fh:
                    fh.write(f"{os.getpid()}\n")
                # an interrupted caller kills this worker long before it wakes
                time.sleep(30 if raised is KeyboardInterrupt else 0)
                return job
            while not pids.exists() or len(pids.read_text().split()) < 2:
                time.sleep(0.01)
            raise raised("in the caller")

        t0 = time.monotonic()
        with pytest.raises(raised, match="in the caller"):
            parallel.fork_map(fit, [0, 1, 2])
        assert time.monotonic() - t0 < 20
        workers = [int(pid) for pid in pids.read_text().split()]
        assert len(workers) == 2 and all(reaped(pid) for pid in workers)


def test_worker_runs_no_exit_hook_and_flushes_no_inherited_output(tmp_path):
    """A worker that returns, raises or calls ``sys.exit`` leaves through
    ``os._exit``: the caller's ``atexit`` hook runs once, and text the caller
    had buffered is written once."""
    script = textwrap.dedent(f"""
        import atexit, os, sys
        from interdiv import parallel
        parallel.cpus = lambda: 2
        atexit.register(lambda: open({str(tmp_path / 'exits')!r}, "a").write("exit\\n"))
        sys.stdout.write("buffered ")
        def fit(job):
            if job == 1:
                sys.exit(0)
            if job == 3:
                raise ValueError("in a worker")
            return job
        print(parallel.fork_map(fit, [0, 2]))
        for jobs in ([0, 1], [0, 3]):
            try:
                parallel.fork_map(fit, jobs)
            except (ChildProcessError, ValueError) as exc:
                print(type(exc).__name__)
    """)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=buffered_env(), timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "buffered [0, 2]\nChildProcessError\nValueError\n"
    assert (tmp_path / "exits").read_text() == "exit\n"
