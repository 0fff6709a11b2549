"""One workload process: import shiftset, warm up, then time CLI invocations.

Run by ``run.py`` as ``python3 worker.py PLAN.json RESULT.json``.  The plan
names the source directory, a warm-up argv, the timed argvs and whether to
trace.  Every invocation goes through ``shiftset.cli.main`` in this process,
with its console output discarded.  The result holds the set-up time (import
plus the warm-up invocation), each timed invocation's wall time and exit
code, the process's peak RSS and the environment it ran in.

It also times a fixed pure-Python loop (:func:`calibrate`) before the import,
after the warm-up and after every timed invocation.  The machine's speed
drifts by up to half again from one minute to the next; ``run.py`` divides
each time by the loop times around it to factor that drift out.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import sys
import time


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def calibrate(loops: int = 1_500_000) -> float:
    """Seconds for a fixed loop that touches neither shiftset nor numpy."""
    start = time.perf_counter()
    total = 0
    for i in range(loops):
        total += i * i
    return time.perf_counter() - start


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path) as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])

    cal = [calibrate()]
    t0 = time.perf_counter()
    import shiftset
    import shiftset.cli as cli

    tracer = None
    if plan["trace"]:
        from tracer import Tracer
        tracer = Tracer()
    sink = io.StringIO()

    def invoke(argv, traced):
        """Time one invocation; the tracer is installed only around it."""
        if traced:
            tracer.install(shiftset)
        sink.seek(0)
        sink.truncate()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                rc = tracer.call_main(cli.main, argv) if traced else cli.main(argv)
        finally:
            elapsed = time.perf_counter() - start
            if traced:
                tracer.uninstall()
        return rc, elapsed

    warm_rc, _ = invoke(plan["warmup"], tracer is not None)
    setup_s = time.perf_counter() - t0
    cal.append(calibrate())

    # With "untraced", each timed invocation is paired with an untraced one
    # of the same work, in alternating order, so that the tracing overhead
    # is measured under the same machine conditions.
    first_timed = len(tracer.spans) if tracer else 0
    paired = plan.get("untraced", [])
    timed, untraced = [], []
    for i, argv in enumerate(plan["timed"]):
        if paired and i % 2 == 0:
            untraced.append(invoke(paired[i], False))
        timed.append(invoke(argv, tracer is not None))
        if paired and i % 2 == 1:
            untraced.append(invoke(paired[i], False))
        cal.append(calibrate())

    result = {
        "setup_s": setup_s,
        "warmup_rc": warm_rc,
        "codes": [rc for rc, _ in timed],
        "times": [t for _, t in timed],
        "untraced_codes": [rc for rc, _ in untraced],
        "untraced_times": [t for _, t in untraced],
        "calibration_s": cal,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": _environment(),
    }
    if tracer is not None:
        warm = [s for s in tracer.spans[:first_timed]
                if s[0] == "crossfit.fit_nuisances"]
        result["first_fit_nuisances_s"] = warm[0][2] - warm[0][1] if warm else 0.0
        result["untraced_names"] = sorted(set(tracer.missing))
        tracer.dump(plan["spans"], first=first_timed)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], sys.argv[2]))
