"""Run a fixed matrix of ``shiftset`` commands, and every demo, and print,
as JSON, each one's exit code, stdout, stderr and the sha256 of every file
it wrote.

Running it on two checkouts shows whether a change keeps ``fit``,
``simulate``, ``oracle`` and the demos byte-identical::

    python tools/output_digests.py --src /path/to/parent > parent.json
    python tools/output_digests.py --src . > change.json
    diff parent.json change.json

The command cases run ``fit``, ``simulate`` and ``oracle`` on accepted
inputs across methods, learners, worker counts, config files and input
readers, and on inputs and configurations that each command refuses.
:func:`matrix` names every case and its arguments.  Each ``demos/*.py``
script of the checkout is a ``demo-<name>`` case of its own, run with the
checkout's ``src`` as ``PYTHONPATH``. The input files are written by this
script with the standard library, so both trees read the same bytes. Only
the standard library is used here; the commands run with the interpreter
that runs this script.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

FIT_METHODS = ("onestep", "tmle", "rs", "plugin", "wplugin", "icp")
ALL_METHODS = ",".join(FIT_METHODS + ("wcp",))
CONFIG = "# digest matrix\nalpha-error = 0.1\nseed = 9\ngrid = 0:0.5:0.025\n"


def write_csv(path: Path, n: int, p: int, seed: int) -> None:
    """n rows of a shifted sample: half target (blank score), half source."""
    gen = random.Random(seed)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["a", "score"] + [f"x{j}" for j in range(1, p + 1)]) + "\n")
        for _ in range(n):
            a = gen.randint(0, 1)
            x = [gen.expovariate(1.0 if a else 2.0 if j < 2 else 1.0) for j in range(p)]
            eta = 1.5 * x[0] - x[1] + 0.5 * x[2] + gen.gauss(0.0, 1.0) - 1.0
            score = format(1.0 / (1.0 + math.exp(-eta)), ".17g") if a else ""
            fh.write(",".join([str(a), score] + [format(v, ".17g") for v in x]) + "\n")


def write_three_sources(path: Path) -> None:
    """400 rows of which 3 are source units, scored 0.33, 0.6 and 0.92:
    above every threshold of the default grid."""
    gen = random.Random(3)
    scores = {10: "0.33", 150: "0.6", 300: "0.92"}
    with open(path, "w", newline="") as fh:
        fh.write("a,score,x1,x2,x3\n")
        for i in range(400):
            x = [format(gen.gauss(0.0, 1.0), ".17g") for _ in range(3)]
            fh.write(",".join((["1", scores[i]] if i in scores else ["0", ""]) + x) + "\n")


def write_inputs(work: Path) -> None:
    write_csv(work / "big.csv", 20_000, 20, 1)
    write_csv(work / "small.csv", 400, 3, 2)
    write_three_sources(work / "three-sources.csv")
    (work / "run.cfg").write_text(CONFIG)
    text = (work / "small.csv").read_bytes()
    # Valid, but only the exact reader accepts it: quoted fields, padded `a`
    # tokens and a blank line.
    lines = text.decode().splitlines()
    exact = [lines[0]]
    for i, line in enumerate(lines[1:]):
        a, score, *x = line.split(",")
        exact.append(",".join([f" {a} " if i % 5 == 0 else a,
                               f'"{score}"' if i % 3 == 0 else score, *x]))
    exact.insert(20, "")
    (work / "exact.csv").write_text("\n".join(exact) + "\n")
    # The 20,000-row file with the first field of file line 2 quoted, which
    # only the exact reader accepts; and the same with a malformed x1 on
    # file line 15,001.
    big = (work / "big.csv").read_text().split("\n")
    a, rest = big[1].split(",", 1)
    big[1] = f'"{a}",{rest}'
    (work / "exact-big.csv").write_text("\n".join(big))
    cells = big[15_000].split(",")
    cells[2] = "oops"
    big[15_000] = ",".join(cells)
    (work / "exact-big-bad.csv").write_text("\n".join(big))
    (work / "not-utf8.csv").write_bytes(text + b"1,0.5,\xff,1,1\n")
    long_field = "1" * (csv.field_size_limit() + 1)
    (work / "long-field.csv").write_bytes(text + f"1,0.5,{long_field},1,1\n".encode())
    (work / "typed-under-flag.cfg").write_text("seed = abc\n")
    (work / "bad-then-unknown.cfg").write_text("folds = 2.5\ncolour = red\n")
    (work / "negative-seed.cfg").write_text("seed = -1\n")
    (work / "help-key.cfg").write_text("help = yes\n")
    (work / "config-key.cfg").write_text("config = other.cfg\n")
    (work / "bhat-mult.cfg").write_text("bhat-mult = 1.3\n")


def matrix():
    """(case name, argv) pairs; paths are relative to the case's directory."""
    for data in ("big", "small"):
        for method in FIT_METHODS:
            fit = ["fit", "--input", f"../{data}.csv", "--method", method, "--output", "out.csv"]
            yield f"fit-{data}-{method}", fit
            yield f"fit-{data}-{method}-config", fit + ["--config", "../run.cfg", "--seed", "4"]
    yield "fit-big-onestep-stumps", ["fit", "--input", "../big.csv", "--method", "onestep",
                                     "--g-learner", "boosted-stumps",
                                     "--e-learner", "boosted-stumps", "--output", "out.csv"]
    yield "fit-big-tmle-3-folds", ["fit", "--input", "../big.csv", "--method", "tmle",
                                   "--folds", "3", "--output", "out.csv"]
    # Rejection sampling trains on fold 0's complement: two thirds of the units.
    yield "fit-small-rs-3-folds", ["fit", "--input", "../small.csv", "--method", "rs",
                                   "--folds", "3", "--output", "out.csv"]
    for dgp in ("lowdim", "highdim"):
        for learner in ("logistic-ridge", "boosted-stumps"):
            yield f"simulate-{dgp}-{learner}", [
                "simulate", "--dgp", dgp, "--method", ALL_METHODS, "--n", "300",
                "--reps", "3", "--oracle-m", "20000", "--seed", "5", "--workers", "2",
                "--g-learner", learner, "--e-learner", learner, "--output", "out.csv"]
        # At the default worker count, which depends on the CPUs and reps.
        yield f"simulate-{dgp}-default-workers", [
            "simulate", "--dgp", dgp, "--method", ALL_METHODS, "--n", "300",
            "--reps", "3", "--oracle-m", "20000", "--seed", "6", "--output", "out.csv"]
        yield f"oracle-{dgp}", ["oracle", "--dgp", dgp, "--oracle-m", "450001",
                                "--seed", "1", "--output", "out.csv"]
    # Rejection sampling alone fits fold 0 by itself; its rows are those of
    # simulate-lowdim-logistic-ridge, which reuses that run's cross-fit.
    yield "simulate-lowdim-rs-alone", [
        "simulate", "--dgp", "lowdim", "--method", "rs", "--n", "300", "--reps", "3",
        "--oracle-m", "20000", "--seed", "5", "--workers", "2", "--output", "out.csv"]
    yield "oracle-lowdim-past-every-score", [
        "oracle", "--dgp", "lowdim", "--grid", "0:1.5:0.5", "--oracle-m", "2000",
        "--output", "out.csv"]
    yield "oracle-lowdim-fine-grid", [
        "oracle", "--dgp", "lowdim", "--grid", "0:0.3:0.01", "--oracle-m", "2000",
        "--output", "out.csv"]
    # An oracle of two full chunks and a remainder, with wcp's points.
    yield "simulate-lowdim-oracle-450001", [
        "simulate", "--dgp", "lowdim", "--method", ALL_METHODS, "--n", "300",
        "--reps", "2", "--oracle-m", "450001", "--seed", "7", "--workers", "1",
        "--output", "out.csv"]
    yield "simulate-lowdim-3-folds", [
        "simulate", "--dgp", "lowdim", "--method", ALL_METHODS, "--n", "300",
        "--reps", "3", "--oracle-m", "20000", "--folds", "3", "--output", "out.csv"]
    for method, alpha_conf in (("onestep", "0.2"), ("rs", "0.2"), ("icp", "0.45")):
        yield f"fit-small-{method}-alpha-conf-{alpha_conf}", [
            "fit", "--input", "../small.csv", "--method", method,
            "--alpha-conf", alpha_conf, "--output", "out.csv"]
    yield "fit-small-icp-sentinel", ["fit", "--input", "../small.csv", "--method", "icp",
                                     "--alpha-error", "0.01", "--output", "out.csv"]
    for method in ("onestep", "rs"):
        yield f"fit-three-sources-{method}", ["fit", "--input", "../three-sources.csv",
                                              "--method", method, "--seed", "4",
                                              "--output", "out.csv"]
    fit_small_rs = ["fit", "--input", "../small.csv", "--method", "rs", "--output", "out.csv"]
    yield "fit-small-rs-bhat-fixed", fit_small_rs + ["--bhat-fixed", "10"]
    yield "fit-config-bhat-mult", fit_small_rs + ["--config", "../bhat-mult.cfg"]
    for method in ("onestep", "icp"):
        yield f"fit-exact-{method}", ["fit", "--input", "../exact.csv", "--method", method,
                                      "--output", "out.csv"]
    for data in ("exact-big", "exact-big-bad", "not-utf8", "long-field"):
        yield f"fit-{data}", ["fit", "--input", f"../{data}.csv", "--method", "onestep",
                              "--output", "out.csv"]
    yield "fit-missing-input", ["fit", "--input", "../missing.csv", "--method", "onestep",
                                "--output", "out.csv"]
    for cfg in ("typed-under-flag", "bad-then-unknown", "help-key", "config-key"):
        yield f"fit-config-{cfg}", ["fit", "--input", "../small.csv", "--method", "onestep",
                                    "--output", "out.csv", "--config", f"../{cfg}.cfg",
                                    "--seed", "4", "--folds", "2"]
    fit_small = ["fit", "--input", "../small.csv", "--method", "onestep", "--output", "out.csv"]
    yield "fit-negative-seed", fit_small + ["--seed", "-1"]
    yield "fit-config-negative-seed", fit_small + ["--config", "../negative-seed.cfg"]
    yield "simulate-negative-seed", ["simulate", "--dgp", "lowdim", "--method", "onestep",
                                     "--n", "300", "--reps", "1", "--oracle-m", "1000",
                                     "--seed", "-1", "--output", "out.csv"]
    yield "oracle-negative-seed", ["oracle", "--dgp", "lowdim", "--oracle-m", "1000",
                                   "--seed", "-1", "--output", "out.csv"]
    yield "oracle-folds", ["oracle", "--dgp", "lowdim", "--oracle-m", "1000",
                           "--folds", "3", "--output", "out.csv"]
    yield "fit-bad-alpha-missing-input", ["fit", "--input", "../missing.csv",
                                          "--method", "onestep", "--alpha-error", "2",
                                          "--output", "out.csv"]
    # At or below 2**-54 the Wald quantile of 1 - alpha_conf is inf.
    yield "fit-alpha-conf-below-2e-54-missing-input", ["fit", "--input", "../missing.csv",
                                                       "--method", "onestep",
                                                       "--alpha-conf", "1e-17",
                                                       "--output", "out.csv"]
    yield "simulate-one-fold", ["simulate", "--dgp", "lowdim", "--method", "onestep",
                                "--n", "300", "--reps", "1", "--folds", "1",
                                "--oracle-m", "2000000", "--output", "out.csv"]
    # A truncation bound below the propensity guard, 1e-12.
    yield "fit-delta-below-guard", ["fit", "--input", "../missing.csv", "--method", "tmle",
                                    "--delta", "1e-320", "--output", "out.csv"]
    yield "simulate-delta-below-guard", ["simulate", "--dgp", "lowdim", "--method", "onestep",
                                         "--n", "300", "--reps", "1", "--delta", "1e-13",
                                         "--oracle-m", "2000000", "--output", "out.csv"]
    yield "simulate-bhat-fixed-below-one", ["simulate", "--dgp", "lowdim", "--method", "rs",
                                            "--n", "300", "--reps", "1", "--bhat-fixed", "0.5",
                                            "--oracle-m", "2000000", "--output", "out.csv"]
    # Draws of 6 units, some with no source or no target unit.
    yield "simulate-degenerate-draws", ["simulate", "--dgp", "lowdim", "--method", "icp",
                                        "--n", "6", "--reps", "40", "--oracle-m", "1000",
                                        "--workers", "1", "--output", "out.csv"]


def cases(src: Path):
    """(case name, argv as recorded, interpreter arguments that run it)."""
    for name, argv in matrix():
        yield name, argv, ["-c", "from shiftset.cli import main; raise SystemExit(main())",
                           *argv]
    for demo in sorted((src / "demos").glob("*.py")):
        yield f"demo-{demo.stem}", [demo.relative_to(src).as_posix()], [str(demo)]


def run_case(src: Path, case_dir: Path, argv, command) -> dict:
    case_dir.mkdir()
    env = dict(os.environ, PYTHONPATH=str(src / "src"))
    proc = subprocess.run([sys.executable, *command], cwd=case_dir, env=env,
                          capture_output=True, text=True)
    files = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
             for path in sorted(case_dir.iterdir())}
    return {"argv": argv, "exit": proc.returncode, "stdout": proc.stdout,
            "stderr": proc.stderr, "files": files}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, type=Path,
                        help="checkout whose src/shiftset package is run")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "src" / "shiftset" / "cli.py").is_file():
        parser.error(f"{src} holds no src/shiftset/cli.py")
    with tempfile.TemporaryDirectory(prefix="shiftset-digests-") as tmp:
        work = Path(tmp)
        write_inputs(work)
        report = {name: run_case(src, work / name, case_argv, command)
                  for name, case_argv, command in cases(src)}
    json.dump(report, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
