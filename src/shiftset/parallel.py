"""One runner for lists of independent jobs, as ``simulate``'s replications
and ``fit``'s CSV chunks are.

Jobs run in forked worker processes when more than one worker would serve,
and in the calling process otherwise.  Either way the caller sees what a
serial loop gives: results in job order, each job's warnings issued here in
that order, and the earliest failing job's error.
"""

from __future__ import annotations

import os
import sys
import warnings

from .core import WorkerError


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# The job function a forked worker serves; set only in the workers.
_WORKER_FN = None
# Whether a job runs in this process: for the whole life of a worker, and in
# the calling process while it runs a job itself.  The jobs of a call made
# from inside a job run where that job runs.
_IN_JOB = False


def _init_worker(fn) -> None:
    global _WORKER_FN, _IN_JOB
    _WORKER_FN, _IN_JOB = fn, True


def _run_here(fn, job):
    """``fn(*job)`` in this process, as a job whose nested jobs run here."""
    global _IN_JOB
    outer, _IN_JOB = _IN_JOB, True
    try:
        return fn(*job)
    finally:
        _IN_JOB = outer


def _call_in_worker(job):
    """A job's result and the warnings it issued, or None if it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = _WORKER_FN(*job)
        except Exception:
            return None
    return result, [(str(w.message), w.category, w.filename, w.lineno)
                    for w in caught]


def _reissue(caught) -> None:
    """Issue a worker's warnings here, through this process's filters and
    the registry of the module that issued them, as ``warnings.warn`` does."""
    if not caught:
        return
    modules = {getattr(m, "__file__", None): m for m in list(sys.modules.values())}
    for message, category, filename, lineno in caught:
        module = vars(modules[filename]) if filename in modules else {}
        warnings.warn_explicit(message, category, filename, lineno,
                               module=module.get("__name__"),
                               registry=module.setdefault("__warningregistry__", {}))


def run_jobs(fn, jobs, workers: int | None = None):
    """Yield ``fn(*job)`` for each job, in job order.

    The jobs run in ``workers`` forked processes, which inherit ``fn`` and
    whatever it holds, when more than one would serve, the ``fork`` start
    method exists and this process is neither running a job nor a daemon
    (which may not start processes); otherwise they run here.  So a job that
    calls ``run_jobs`` runs the nested jobs where it runs itself: in its own
    worker, or here when it runs here.

    By default there is one worker per usable CPU, unless there are fewer
    than twice as many jobs as CPUs: then each job gets a worker, and the
    CPUs are shared among them.  In rounds of one job per CPU, a last round
    with fewer jobs than CPUs leaves a CPU idle: 3 jobs on 2 CPUs would take
    two job times instead of about 1.5.

    A job that raised in a worker is run again here, so that it raises and
    warns as it would in the serial loop.  A worker that dies raises
    :class:`WorkerError`.  Once the generator is exhausted or closed, no
    worker is left running.
    """
    jobs = list(jobs)
    if workers is None:
        cpus = usable_cpus()
        workers = len(jobs) if len(jobs) < 2 * cpus else cpus
    count = min(workers, len(jobs))
    if count >= 2 and not _IN_JOB:
        # Imported here, so that a call that never forks does not load them.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        if ("fork" in multiprocessing.get_all_start_methods()
                and not multiprocessing.current_process().daemon):
            pool = ProcessPoolExecutor(count, multiprocessing.get_context("fork"),
                                       _init_worker, (fn,))
            try:
                # map yields in job order and drops each future once read, so
                # a result is held here only until the caller has taken it.
                for job, done in zip(jobs, pool.map(_call_in_worker, jobs)):
                    if done is None:
                        yield _run_here(fn, job)
                        continue
                    _reissue(done[1])
                    yield done[0]
            except BrokenProcessPool as exc:
                raise WorkerError("a worker process died before its job "
                                  "finished") from exc
            finally:
                pool.shutdown(cancel_futures=True)
            return
    for job in jobs:
        yield _run_here(fn, job)
