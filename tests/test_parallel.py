import concurrent.futures
import multiprocessing
import os
import signal
import warnings

import pytest

from shiftset import DataError, parallel
from shiftset.cli import main
from shiftset.core import WorkerError

PARENT = os.getpid()


def in_worker() -> bool:
    return os.getpid() != PARENT


def square(i):
    warnings.warn(f"job {i}")
    return i * i, in_worker()


def kill_own_worker(i):
    if in_worker() and i == 2:
        os.kill(os.getpid(), signal.SIGKILL)
    return i


def inner_pids(i):
    """This job's pid and the pids that a nested runner's jobs ran in."""
    return os.getpid(), [pid for pid, _ in parallel.run_jobs(pid_of, [(j,) for j in range(4)], 2)]


def pid_of(i):
    return os.getpid(), i


def fail_at_two(i):
    if i == 2:
        raise DataError("job 2 failed")
    return i


@pytest.fixture(autouse=True)
def no_process_outlives_the_call():
    yield
    assert multiprocessing.active_children() == []


class TestRunJobs:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_results_and_warnings_come_in_job_order(self, workers):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = list(parallel.run_jobs(square, [(i,) for i in range(5)], workers))
        assert [r for r, _ in got] == [0, 1, 4, 9, 16]
        assert {w for _, w in got} == {workers == 2}
        assert [str(w.message) for w in caught] == [f"job {i}" for i in range(5)]
        assert {w.filename for w in caught} == {__file__}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_the_earliest_error_is_raised_here(self, workers):
        with pytest.raises(DataError, match="^job 2 failed$"):
            list(parallel.run_jobs(fail_at_two, [(i,) for i in range(6)], workers))

    def test_a_closed_runner_leaves_no_worker(self):
        jobs = parallel.run_jobs(square, [(i,) for i in range(6)], 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert next(jobs) == (0, True)
        jobs.close()

    def test_a_killed_worker_raises(self, deadline):
        with pytest.raises(WorkerError, match="worker process died"):
            list(parallel.run_jobs(kill_own_worker, [(i,) for i in range(6)], 2))

    def test_a_job_in_a_worker_runs_nested_jobs_itself(self):
        got = list(parallel.run_jobs(inner_pids, [(i,) for i in range(2)], 2))
        for outer, inner in got:
            assert outer != PARENT
            assert inner == [outer] * 4

    @pytest.mark.parametrize("jobs, workers, fork", [
        (2, 1, True), (1, None, True), (2, 2, False)], ids=["one-worker", "one-job", "no-fork"])
    def test_a_job_run_here_runs_nested_jobs_here(self, monkeypatch, jobs, workers, fork):
        if not fork:
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        got = list(parallel.run_jobs(inner_pids, [(i,) for i in range(jobs)], workers))
        assert got == [(PARENT, [PARENT] * 4)] * jobs
        monkeypatch.undo()
        # Once the jobs are done, a call made here forks again.
        assert PARENT not in {pid for pid, _ in parallel.run_jobs(pid_of, [(0,), (1,)], 2)}


class TestPoolSize:
    """With two CPUs, the default pool has a worker per job when there are
    fewer than 4 jobs, and 2 workers otherwise."""

    @pytest.fixture
    def pools(self, monkeypatch):
        sizes = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, *args):
                sizes.append(max_workers)
                super().__init__(max_workers, *args)

        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        return sizes

    @pytest.mark.parametrize("jobs, workers, size", [
        (2, None, 2), (3, None, 3), (4, None, 2), (9, None, 2),
        (20, None, 2), (3, 2, 2), (4, 3, 3), (20, 5, 5), (3, 8, 3)])
    def test_pool_size(self, pools, jobs, workers, size):
        got = list(parallel.run_jobs(pid_of, [(i,) for i in range(jobs)], workers))
        assert [i for _, i in got] == list(range(jobs))
        assert pools == [size]
        assert PARENT not in {pid for pid, _ in got}

    @pytest.mark.parametrize("jobs, workers", [(1, None), (3, 1), (0, None)])
    def test_one_worker_runs_here(self, pools, jobs, workers):
        got = list(parallel.run_jobs(pid_of, [(i,) for i in range(jobs)], workers))
        assert got == [(PARENT, i) for i in range(jobs)]
        assert pools == []


def test_simulate_reports_a_killed_worker(tmp_path, capsys, monkeypatch, deadline):
    from shiftset import simbench

    icp = simbench.METHODS["icp"]

    def killing(data):
        if in_worker() and data.folds_rng.path[-1] == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return icp(data)

    monkeypatch.setitem(simbench.METHODS, "icp", killing)
    code = main(["simulate", "--dgp", "lowdim", "--n", "200", "--reps", "4",
                 "--method", "icp", "--oracle-m", "2000", "--workers", "2",
                 "--output", str(tmp_path / "s.csv")])
    assert code == 1
    assert "error: WorkerError: a worker process died" in capsys.readouterr().err
