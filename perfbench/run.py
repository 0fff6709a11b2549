"""shiftset benchmark: three CLI workloads, checked outputs, traced layers.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` (the default) runs every workload in turn.  Workloads:

* ``study-highdim-logistic`` - ``simulate --dgp highdim --n 2000`` with all
  seven methods and logistic-ridge learners;
* ``study-lowdim-stumps`` - the same with ``--dgp lowdim`` and boosted stumps;
* ``fit-csv-20k`` - one ``fit`` per method except wcp on 20,000-row highdim
  CSVs written by ``dgp_draw`` and ``emit_csv``.

Every invocation goes through ``shiftset.cli.main`` inside a fresh worker
process (``worker.py``).  The amount of timed work is fixed by ``--seconds``
alone, never by the measured speed, so a faster program finishes the same
work sooner.  Inputs and CLI seeds derive from ``--seed``.

``--trace 0`` starts three workers one after another, each importing shiftset
and running one warm-up invocation (the set-up time) before its share of the
timed invocations, and reports the end-to-end metrics.  Their times are
calibrated: scaled by a fixed pure-Python loop timed around each of them, to
factor out the machine's drifting speed (see ``worker.calibrate``).  ``--trace 1`` runs
the whole timed work in three workers: traced, with every invocation paired
with an untraced one to measure the tracing overhead; traced again, to check
that counts repeat; and traced with ``OPENBLAS_NUM_THREADS=1``.  It reports
per-layer metrics from the spans (see ``tracer.py``).

Before the last line the benchmark prints a readable table and one JSON
record (schema in ``schema.json``).  The last line is
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 when
every correctness check passed, 1 when one failed (the result is still
printed), and 2 or 3 without a result when the checkout has no shiftset
source or a worker crashed or timed out.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402

SCHEMA = "perfbench.result/1"
ALPHA_ERROR = 0.05          # the CLI's default --alpha-error
STUDY_METHODS = ("onestep", "tmle", "rs", "plugin", "wplugin", "icp", "wcp")
FIT_METHODS = ("onestep", "tmle", "rs", "plugin", "wplugin", "icp")
SETUP_WORKERS = 3           # trace 0: set-up time is the median of these
DEADLINE_S = 170.0          # every run ends well inside 180 s
# Seconds that worker.calibrate() takes on the reference machine (2 cores,
# Python 3.11) in its usual state.  Trace-0 times are rescaled to it.
CALIBRATION_REF_S = 0.12

# per_10s is the timed work per 10 s of --seconds: `simulate` invocations of
# `reps` replications, or rounds of one `fit` per method.  It is fixed, not
# measured; on a 2-core machine the timed work of a workload then takes 0.8
# to 1.5 x --seconds.  Each `simulate` builds its oracle once, so highdim uses
# 20 reps per invocation to keep that build near a tenth of the time, and
# lowdim runs 3 x 15 = 45 replications at 15 s so that covered_frac and
# tau_hat_mean vary little from seed to seed.
WORKLOADS = {
    "study-highdim-logistic": {"kind": "study", "dgp": "highdim",
                               "learner": "logistic-ridge", "reps": 20,
                               "per_10s": 7},
    "study-lowdim-stumps": {"kind": "study", "dgp": "lowdim",
                            "learner": "boosted-stumps", "reps": 3,
                            "per_10s": 10},
    "fit-csv-20k": {"kind": "fit", "rows": 20_000, "per_10s": 2},
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


# ---------------------------------------------------------------------------
# Invocations
# ---------------------------------------------------------------------------

class Plan:
    """The CLI invocations of one workload run, by output directory.

    ``timed(dir)`` lists (argv, output files, label) for the timed work;
    ``warmup(dir)`` is the warm-up, which repeats the first timed invocation
    so that its output files must match byte for byte.
    """

    def __init__(self, name: str, seed: int, seconds: int, work: Path):
        self.name = name
        self.seed = seed
        self.w = WORKLOADS[name]
        self.work = work
        count = max(1, round(self.w["per_10s"] * seconds / 10))
        if self.w["kind"] == "study":
            self.specs = [(seed * 1000 + i, None) for i in range(count)]
        else:
            rounds = count
            self.csvs = [work / "data" / f"d{r}.csv" for r in range(rounds)]
            self.specs = [(r, m) for r in range(rounds) for m in FIT_METHODS]
            # warm up on the method that runs the most layers
            tmle = self.specs.index((0, "tmle"))
            self.specs.insert(0, self.specs.pop(tmle))

    def _invocation(self, spec, outdir: Path):
        a, b = spec
        if self.w["kind"] == "study":
            out = outdir / f"s{a}.csv"
            argv = ["simulate", "--dgp", self.w["dgp"], "--n", "2000",
                    "--reps", str(self.w["reps"]), "--method", ",".join(STUDY_METHODS),
                    "--g-learner", self.w["learner"], "--e-learner", self.w["learner"],
                    "--seed", str(a), "--output", str(out)]
            files = [out, Path(f"{out}.jsonl"), Path(f"{out}.meta.json")]
            return argv, files, f"seed {a}"
        out = outdir / f"d{a}-{b}.csv"
        argv = ["fit", "--input", str(self.csvs[a]), "--method", b,
                "--seed", str(self.seed), "--output", str(out)]
        return argv, [out, Path(f"{out}.meta.json")], f"d{a} {b}"

    def timed(self, outdir: Path):
        outdir.mkdir(parents=True, exist_ok=True)
        return [self._invocation(s, outdir) for s in self.specs]

    def warmup(self, outdir: Path):
        outdir.mkdir(parents=True, exist_ok=True)
        return self._invocation(self.specs[0], outdir)

    @property
    def reps_per_invocation(self) -> float:
        if self.w["kind"] == "study":
            return float(self.w["reps"])
        return 1.0 / len(FIT_METHODS)

    def make_inputs(self):
        """Write the fit CSVs (untimed) and return the oracle for coverage."""
        if self.w["kind"] != "fit":
            return None
        from shiftset.cli import emit_csv
        from shiftset.core import RngStream
        from shiftset.simbench import DgpSpec, OracleEvaluator, dgp_draw

        spec = DgpSpec("highdim-sparse")
        root = RngStream(self.seed)
        for r, path in enumerate(self.csvs):
            path.parent.mkdir(parents=True, exist_ok=True)
            emit_csv(dgp_draw(spec, self.w["rows"], root.child("perfbench-csv", r)),
                     str(path))
        return OracleEvaluator(spec, 100_000, root.child("perfbench-oracle"))


# ---------------------------------------------------------------------------
# Workers
# ---------------------------------------------------------------------------

def run_worker(plan: Plan, tag: str, warm, timed, trace: bool, deadline: float,
               env_extra: dict | None = None, paired=None) -> dict:
    """Run one worker process to completion and return its result record.

    ``paired`` lists untraced invocations to interleave with the traced ones.
    """
    plan_path = plan.work / f"{tag}.plan.json"
    result_path = plan.work / f"{tag}.result.json"
    log_path = plan.work / f"{tag}.log"
    spans_path = plan.work / f"{tag}.spans.jsonl"
    with open(plan_path, "w") as fh:
        json.dump({"src": str(SRC), "warmup": warm[0], "timed": [t[0] for t in timed],
                   "untraced": [t[0] for t in paired or ()],
                   "trace": trace, "spans": str(spans_path)}, fh)
    env = dict(os.environ)
    env.update(env_extra or {})
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for worker {tag}")
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)],
            stdout=log, stderr=subprocess.STDOUT, env=env, cwd=str(ROOT))
        try:
            rc = proc.wait(timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {tag} timed out") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if rc != 0:
        tail = log_path.read_text()[-2000:]
        raise BenchError(f"worker {tag} exited with {rc}:\n{tail}")
    with open(result_path) as fh:
        result = json.load(fh)
    if trace:
        result["spans"] = tracer.load(str(spans_path))
    return result


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _finite(text: str) -> float:
    val = float(text)
    if not math.isfinite(val):
        raise ValueError(f"non-finite value {text!r}")
    return val


def check_study(plan: Plan, files) -> dict:
    """Rows of one `simulate` invocation; raises ValueError when malformed."""
    rows = [json.loads(line) for line in files[1].read_text().splitlines()]
    expected = {(m, r) for m in STUDY_METHODS for r in range(plan.w["reps"])}
    got = [(row["method"], row["rep"]) for row in rows]
    if len(rows) != len(expected) or set(got) != expected:
        raise ValueError(f"{files[1].name}: {len(rows)} rows, expected "
                         f"{len(expected)} (reps x methods)")
    taus = []
    for row in rows:
        tau = _finite(str(row["tau_hat"]))
        if row["failed"]:
            if row["covered"]:
                raise ValueError(f"{files[1].name}: failed row marked covered")
            continue
        err = _finite(str(row["true_error"]))
        if not 0.0 <= err <= 1.0 or row["covered"] != (err <= ALPHA_ERROR):
            raise ValueError(f"{files[1].name}: inconsistent row {row}")
        taus.append(tau)
    with open(files[0]) as fh:
        if sum(1 for _ in fh) != 1 + len(STUDY_METHODS):
            raise ValueError(f"{files[0].name}: wrong aggregate row count")
    return {"rows": len(rows), "covered": sum(r["covered"] for r in rows),
            "failed": sum(r["failed"] for r in rows), "taus": taus}


def check_fit(files) -> float:
    """Validate one `fit` table; return the selected threshold."""
    with open(files[0], newline="") as fh:
        table = list(csv.DictReader(fh))
    meta = json.loads(files[1].read_text())
    name = files[0].name
    if not table:
        raise ValueError(f"{name}: empty table")
    taus = [_finite(r["tau"]) for r in table]
    psi = [_finite(r["psi_hat"]) for r in table]
    cub = [_finite(r["cub"]) for r in table]
    for r in table:
        _finite(r["se"])
    if any(c < p for c, p in zip(cub, psi)):
        raise ValueError(f"{name}: cub below psi_hat")
    selected = [i for i, r in enumerate(table) if r["selected"] == "1"]
    if len(selected) > 1:
        raise ValueError(f"{name}: {len(selected)} selected rows")
    if meta["sentinel"] != (not selected):
        raise ValueError(f"{name}: sentinel flag disagrees with the table")
    if selected:
        i = selected[0]
        if any(cub[j] >= ALPHA_ERROR for j in range(len(table)) if taus[j] <= taus[i]):
            raise ValueError(f"{name}: selected row's prefix has cub >= alpha_error")
        if i + 1 < len(table) and cub[i + 1] < ALPHA_ERROR:
            raise ValueError(f"{name}: a larger certifiable threshold was skipped")
        if float(meta["selected_tau"]) != taus[i]:
            raise ValueError(f"{name}: meta selected_tau disagrees with the table")
    elif len(table) > 1 and cub[0] < ALPHA_ERROR:
        raise ValueError(f"{name}: sentinel although the first threshold certifies")
    return float(meta["selected_tau"])


def same_bytes(a, b) -> bool:
    return all(Path(x).read_bytes() == Path(y).read_bytes() for x, y in zip(a, b))


def outcome(plan: Plan, timed, codes, oracle, errors: list) -> dict:
    """Attempted and failed operations plus the quality metrics of a phase."""
    attempted = failed = covered = rows = 0
    taus = []
    for (argv, files, label), rc in zip(timed, codes):
        if plan.w["kind"] == "study":
            reps_rows = plan.w["reps"] * len(STUDY_METHODS)
            attempted += reps_rows
            if rc != 0:
                failed += reps_rows
                continue
            try:
                got = check_study(plan, files)
            except (ValueError, KeyError, OSError) as exc:
                errors.append(f"{label}: {exc}")
                continue
            failed += got["failed"]
            covered += got["covered"]
            rows += got["rows"]
            taus += got["taus"]
        else:
            attempted += 1
            if rc != 0:
                failed += 1
                continue
            try:
                tau = check_fit(files)
            except (ValueError, KeyError, OSError) as exc:
                errors.append(f"{label}: {exc}")
                continue
            rows += 1
            covered += oracle.psi_at(tau) <= ALPHA_ERROR
            taus.append(tau)
    return {"attempted": attempted, "failed": failed,
            "covered_frac": covered / rows if rows else 0.0,
            "tau_hat_mean": statistics.fmean(taus) if taus else 0.0}


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def run_untraced(plan: Plan, oracle, deadline: float):
    """Trace 0: set-up in each of SETUP_WORKERS processes, shared timed work."""
    timed = plan.timed(plan.work / "timed")
    k = min(SETUP_WORKERS, len(timed))
    blocks = [timed[j * len(timed) // k:(j + 1) * len(timed) // k] for j in range(k)]
    results, warms, checks, errors = [], [], {}, []
    for j, block in enumerate(blocks):
        warm = plan.warmup(plan.work / f"warm{j}")
        results.append(run_worker(plan, f"w{j}", warm, block, False, deadline))
        warms.append(warm)
    codes = [c for r in results for c in r["codes"]]
    times = [t for r in results for t in r["times"]]
    # Each time is rescaled by the mean of the calibration loops just
    # before and after it: calibration_s[0] precedes the import,
    # calibration_s[1] follows the warm-up, calibration_s[i + 2] follows
    # timed invocation i.
    setups, scaled = [], []
    for r in results:
        c = r["calibration_s"]
        setups.append(r["setup_s"] * 2 * CALIBRATION_REF_S / (c[0] + c[1]))
        scaled += [t * 2 * CALIBRATION_REF_S / (c[i + 1] + c[i + 2])
                   for i, t in enumerate(r["times"])]
    checks["deterministic_repeats"] = all(
        r["warmup_rc"] == codes[0] for r in results) and (
        codes[0] != 0 or all(same_bytes(w[1], timed[0][1]) for w in warms))
    out = outcome(plan, timed, codes, oracle, errors)
    checks["outputs_valid"] = not errors
    wall = sum(scaled)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "reps_per_s": len(times) * plan.reps_per_invocation / wall,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "covered_frac": out["covered_frac"],
        "tau_hat_mean": out["tau_hat_mean"],
    }
    calibration = [c for r in results for c in r["calibration_s"]]
    samples = {"invocations": len(times), "setup_processes": k,
               "reps": len(times) * plan.reps_per_invocation,
               "invocation_s_p50": statistics.median(times),
               "measured_setup_s": statistics.median(r["setup_s"] for r in results),
               "measured_wall_s": sum(times),
               "calibration_s_p50": statistics.median(calibration)}
    return metrics, out, checks, errors, samples, results[0]["env"]


# Besides every busy time (".s"), the one-thread column repeats these.
_BLAS1_EXTRA = ("crossfit.fit_nuisances.first_s", "simbench.rep_s_p50", "trace.wall_s")


def run_traced(plan: Plan, oracle, deadline: float):
    """Trace 1: the timed work traced, each invocation paired with an
    untraced one; traced again; and traced with one BLAS thread."""
    phases = {}
    untraced = plan.timed(plan.work / "untraced")
    for tag, env in (("traced", None), ("traced2", None),
                     ("blas1", {"OPENBLAS_NUM_THREADS": "1"})):
        timed = plan.timed(plan.work / tag)
        warm = plan.warmup(plan.work / f"warm-{tag}")
        phases[tag] = (timed, warm, run_worker(
            plan, tag, warm, timed, True, deadline, env,
            paired=untraced if tag == "traced" else None))
    errors, checks = [], {}
    timed, warm, traced = phases["traced"]
    out = outcome(plan, untraced, traced["untraced_codes"], oracle, errors)
    checks["outputs_valid"] = not errors
    checks["deterministic_repeats"] = traced["warmup_rc"] == traced["codes"][0] and (
        traced["codes"][0] != 0 or same_bytes(warm[1], untraced[0][1]))
    checks["traced_outputs_identical"] = all(
        phases[tag][2]["codes"] == traced["untraced_codes"]
        and all(same_bytes(a[1], b[1]) for a, b in zip(phases[tag][0], untraced))
        for tag in ("traced", "traced2"))
    layer = {tag: tracer.aggregate(phases[tag][2]["spans"]) for tag in phases}
    checks["counts_repeat"] = all(layer["traced"][c] == layer["traced2"][c]
                                  for c in tracer.COUNT_METRICS)
    blas1_identical = all(same_bytes(a[1], b[1])
                          for a, b in zip(phases["blas1"][0], untraced))

    untraced_wall = sum(traced["untraced_times"])
    for tag in ("traced", "blas1"):
        layer[tag]["crossfit.fit_nuisances.first_s"] = phases[tag][2]["first_fit_nuisances_s"]
        layer[tag]["trace.wall_s"] = sum(phases[tag][2]["times"])
    metrics = layer["traced"]
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall
    metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / untraced_wall
    for name, value in layer["blas1"].items():
        if name.endswith(".s") or name in _BLAS1_EXTRA:
            metrics[f"blas1.{name}"] = value
    samples = {"invocations": len(untraced), "untraced_wall_s": untraced_wall,
               "blas1_outputs_identical": blas1_identical,
               "untraced_names": traced["untraced_names"]}
    env = {**traced["env"], "blas1_env": phases["blas1"][2]["env"]}
    return metrics, out, checks, errors, samples, env


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    declared = declared_metrics(trace)
    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    deadline = time.monotonic() + DEADLINE_S
    try:
        plan = Plan(name, seed, seconds, work)
        oracle = plan.make_inputs()
        runner = run_traced if trace else run_untraced
        metrics, out, checks, errors, samples, env = runner(plan, oracle, deadline)
        if trace:
            shutil.copy(work / "traced.spans.jsonl",
                        ROOT / ".bench_work" / f"{name}.spans.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(metrics) != set(declared):
        raise BenchError("metrics differ from BENCHMARK.json: "
                         f"extra {sorted(set(metrics) - set(declared))}, "
                         f"missing {sorted(set(declared) - set(metrics))}")
    correct = all(checks.values())
    record = {
        "schema": SCHEMA, "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "env": env, "checks": checks, "errors": errors,
        "samples": samples, "correct": correct,
        "attempted": out["attempted"], "failed": out["failed"],
        "failed_frac": out["failed"] / out["attempted"],
        "metrics": {k: {"value": metrics[k], "unit": declared[k]} for k in declared},
    }
    result = {"correct": correct, "attempted": out["attempted"],
              "failed": out["failed"], "metrics": record["metrics"]}
    return record, result


def print_table(record: dict) -> None:
    print(f"== {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"({record['samples']['invocations']} timed invocations)")
    print(f"  {'failed_frac':40s} {record['failed_frac']:>14.6g} ratio "
          f"({record['failed']}/{record['attempted']})")
    if "invocation_s_p50" in record["samples"]:
        print(f"  {'invocation_s_p50':40s} {record['samples']['invocation_s_p50']:>14.6g} s "
              f"(median of {record['samples']['invocations']})")
    for name, m in record["metrics"].items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    for name, ok in record["checks"].items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    for err in record["errors"]:
        print(f"  error: {err}")


def _terminate(signum, frame):
    # turn SIGTERM into SystemExit so that run_worker stops its worker
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "shiftset" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: {ROOT} has no shiftset source or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    sys.path.insert(0, str(SRC))
    status = 0
    for name in names:
        try:
            record, result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 3
        print_table(record)
        print(json.dumps(record))
        print(json.dumps(result), flush=True)
        if not record["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
