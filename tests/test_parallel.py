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
