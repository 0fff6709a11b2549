"""Command-line surface: method dispatch and serialization.

Three subcommands:

* ``fit``      - run one method on a CSV dataset and write a per-threshold
                 table plus a metadata record;
* ``simulate`` - run the replication harness on a built-in DGP and write
                 per-replication rows (JSON lines) plus an aggregate CSV;
* ``oracle``   - write the true coverage-error curve and optimal threshold
                 of a built-in DGP, from the oracle ``simulate`` scores against.

``fit`` reads its CSV through :mod:`shiftset.csvio`.  Outputs carry 17
significant digits so a round trip is bit-faithful, and contain nothing
clock- or host-dependent: rerunning a command with the same seed reproduces
files byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import warnings

from .core import (
    ConfigurationError,
    DataError,
    RiskTargets,
    RngStream,
    ShiftsetError,
    ThresholdGrid,
)
# CsvSchemaWarning and emit_csv are imported from here by callers of the CLI.
from .csvio import CsvSchemaWarning, _fmt, emit_csv, ingest_csv
from .learners import LEARNER_KINDS, BinaryLearnerSpec
from .onestep import CoverageTable
from .simbench import (
    DGP_KINDS,
    METHODS,
    AggregateRow,
    Dataset,
    DgpSpec,
    StudyConfig,
    _check_alpha,
    _ensure_methods,
    _study_oracle,
    run_study,
)

# "highdim" is the one alias of a DGP kind.
_DGP_CHOICES = sorted(DGP_KINDS + ("highdim",))


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftset",
        allow_abbrev=False,
        description="Prediction-set thresholds with asymptotic PAC coverage "
                    "guarantees under unknown covariate shift.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", default=None,
                        help="key=value file; command-line flags override it")
        sp.add_argument("--grid", default="0:0.3:0.05",
                        help="threshold grid as lo:hi:step")
        sp.add_argument("--alpha-error", type=float, default=0.05)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--output", required=False, default=None)

    def add_study(sp):  # the estimators' flags, for fit and simulate only
        add_common(sp)
        sp.add_argument("--alpha-conf", type=float, default=0.05)
        sp.add_argument("--folds", type=int, default=StudyConfig.V)
        sp.add_argument("--delta", type=float, default=StudyConfig.delta,
                        help="propensity truncation bound")
        sp.add_argument("--g-learner", default=BinaryLearnerSpec.kind, choices=LEARNER_KINDS)
        sp.add_argument("--e-learner", default=BinaryLearnerSpec.kind, choices=LEARNER_KINDS)
        sp.add_argument("--ridge", type=float, default=BinaryLearnerSpec.ridge)
        sp.add_argument("--bhat-fixed", type=float, default=StudyConfig.bhat_fixed)

    sp_fit = sub.add_parser("fit", help="run one method on a CSV dataset")
    add_study(sp_fit)
    sp_fit.add_argument("--input", required=True)
    # Weighted conformal needs the oracle's target draws: simulation only.
    sp_fit.add_argument("--method", required=True,
                        choices=[m for m in METHODS if m != "wcp"])
    sp_fit.set_defaults(run=cmd_fit)

    sp_sim = sub.add_parser("simulate", help="replication study on a built-in DGP")
    add_study(sp_sim)
    sp_sim.add_argument("--method", required=True,
                        help="comma-separated subset of: " + ",".join(METHODS))
    sp_sim.add_argument("--dgp", required=True, choices=_DGP_CHOICES)
    sp_sim.add_argument("--n", type=int, required=True)
    sp_sim.add_argument("--reps", type=int, default=200)
    sp_sim.add_argument("--oracle-m", type=int, default=StudyConfig.oracle_m)
    sp_sim.add_argument("--workers", type=int, default=None,
                        help="worker processes for the replications (default: "
                             "one per usable CPU, or one per replication when there "
                             "are fewer than twice as many as CPUs); outputs "
                             "do not depend on it")
    sp_sim.set_defaults(run=cmd_simulate)

    sp_or = sub.add_parser("oracle", help="true coverage-error curve and threshold")
    add_common(sp_or)
    sp_or.add_argument("--dgp", required=True, choices=_DGP_CHOICES)
    sp_or.add_argument("--oracle-m", type=int, default=StudyConfig.oracle_m)
    sp_or.set_defaults(run=cmd_oracle)

    return parser, {"fit": sp_fit, "simulate": sp_sim, "oracle": sp_or}


def _config_defaults(subparser, path) -> dict:
    """A key=value config file's values, typed and checked against their
    choices as ``subparser`` does its flags, for use as its defaults:
    explicit flags still win.  A required flag's key is refused, and
    ``help`` and ``config`` are no keys."""
    actions = {a.dest: a for a in subparser._actions if a.dest not in ("help", "config")}
    with open(path, encoding="utf-8-sig") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ConfigurationError(f"{path}: not UTF-8 text ({exc.reason})") from None
    values = {}
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{line_no}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise ConfigurationError(f"{path}:{line_no}: unknown key {key!r}")
        if action.required:  # the flag always overrides the line
            raise ConfigurationError(
                f"{path}:{line_no}: {key} must be given on the command line")
        if action.type is not None:
            try:
                value = action.type(value)
            except ValueError:
                raise ConfigurationError(
                    f"{path}:{line_no}: {key} = {value!r} is not a valid "
                    f"{action.type.__name__}") from None
        if action.choices is not None and value not in action.choices:
            raise ConfigurationError(
                f"{path}:{line_no}: {key} = {value!r} is not one of "
                f"{', '.join(action.choices)}")
        values[action.dest] = value
    return values


def _parse_grid(text: str) -> ThresholdGrid:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigurationError("--grid must be lo:hi:step")
    try:
        lo, hi, step = (float(v) for v in parts)
    except ValueError:
        raise ConfigurationError(f"--grid {text!r} holds a non-number") from None
    return ThresholdGrid.from_range(lo, hi, step)


def _study_config(args, **extra) -> StudyConfig:
    """Grid, risk targets, learners, folds, truncation and the rejection
    sampling bound rule, as ``fit`` and ``simulate`` share them."""
    return StudyConfig(
        grid=_parse_grid(args.grid),
        targets=RiskTargets(alpha_error=args.alpha_error, alpha_conf=args.alpha_conf),
        g_spec=BinaryLearnerSpec(kind=args.g_learner, ridge=args.ridge),
        e_spec=BinaryLearnerSpec(kind=args.e_learner, ridge=args.ridge),
        V=args.folds, delta=args.delta, bhat_fixed=args.bhat_fixed, **extra)


# The settings a command records in its metadata, under their flag names.
_SETTINGS = ("alpha_error", "alpha_conf", "folds", "delta", "g_learner", "e_learner",
             "ridge", "bhat_fixed", "oracle_m", "seed")


def _settings(args, grid: ThresholdGrid) -> dict:
    """Each of ``_SETTINGS`` that the command takes, as parsed, and ``grid``'s
    thresholds: the settings part of every command's metadata."""
    return {"grid": [float(t) for t in grid],
            **{name: getattr(args, name) for name in _SETTINGS if hasattr(args, name)}}


def _dgp_spec(name: str) -> DgpSpec:
    return DgpSpec("highdim-sparse" if name == "highdim" else name)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _write_table_csv(path, rows, header):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


def _write_meta(path, meta: dict):
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cell(value) -> str:
    """A CSV cell: a string as it is, an integer exactly, a float by _fmt."""
    if isinstance(value, str):
        return value
    return str(value) if isinstance(value, int) else _fmt(value)


def _table_rows(table: CoverageTable, selected_tau, sentinel):
    return [(tau, psi, se, cub, int(not sentinel and tau == selected_tau))
            for tau, psi, se, cub in zip(table.taus, table.psi, table.se, table.cub)]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_fit(args) -> int:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        meta, rows, summary = _fit(args)
    meta["warnings"] = sorted({str(w.message) for w in caught})
    _write_table_csv(args.output, rows, ["tau", "psi_hat", "se", "cub", "selected"])
    _write_meta(args.output + ".meta.json", meta)
    for message in meta["warnings"]:
        print(f"warning: {message}", file=sys.stderr)
    print(summary)
    return 0


def _fit(args):
    """Run the ``fit`` command's method: (meta, table rows, summary line)."""
    root = RngStream(args.seed)
    cfg = _study_config(args)
    try:
        sample = ingest_csv(args.input)
    except csv.Error as exc:
        raise DataError(f"{args.input}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{args.input}: line {exc.line_no} is not UTF-8 text "
                        f"({exc.reason})") from None

    res = METHODS[args.method](Dataset(sample, cfg, root.child("folds"), root))
    meta = {"command": "fit", "method": args.method, "n": sample.n,
            "n1": sample.n_source, "n0": sample.n_target, **_settings(args, cfg.grid),
            **res.info, "selected_tau": res.tau_hat, "sentinel": res.sentinel}

    table = res.table
    if not res.sentinel and not table.se.any():
        warnings.warn(f"{args.method}: the standard error is 0 at every threshold, "
                      "so no source unit informs the bound", RuntimeWarning)
    rows = _table_rows(table, res.tau_hat, res.sentinel)
    if res.sentinel:
        return meta, rows, (f"{args.method}: no certifiable threshold (alpha_error="
                            f"{cfg.targets.alpha_error:.4g}); sentinel 0 recorded")
    i = list(table.taus).index(res.tau_hat)
    return meta, rows, (f"{args.method}: selected tau={res.tau_hat:.4g} "
                        f"(psi_hat={table.psi[i]:.4g}, cub={table.cub[i]:.4g})")


def cmd_simulate(args) -> int:
    methods = _ensure_methods(m.strip() for m in args.method.split(",") if m.strip())
    cfg = _study_config(args, oracle_m=args.oracle_m)
    spec = _dgp_spec(args.dgp)
    report = run_study(spec, [args.n], methods, args.reps, cfg,
                       RngStream(args.seed), workers=args.workers)
    meta = {"command": "simulate", "dgp": spec.kind, "ns": [args.n],
            "methods": list(methods), "replications": args.reps,
            **_settings(args, cfg.grid)}

    with open(args.output + ".jsonl", "w") as fh:
        for r in report.rows:  # every field but the table; failure and info when set
            record = {k: v for k, v in vars(r).items()
                      if k != "table" and (v or k not in ("failure", "info"))}
            fh.write(json.dumps({**record, "failed": r.failed}, sort_keys=True) + "\n")

    _write_table_csv(args.output, map(dataclasses.astuple, report.aggregates),
                     [f.name for f in dataclasses.fields(AggregateRow)])
    _write_meta(args.output + ".meta.json", meta)
    for a in report.aggregates:
        print(f"{a.method}: n={a.n} proportion={a.proportion:.4g} "
              f"wilson=[{a.wilson_lo:.4g}, {a.wilson_hi:.4g}] "
              f"failures={a.failures}")
    return 0


def cmd_oracle(args) -> int:
    grid = _parse_grid(args.grid)
    spec = _dgp_spec(args.dgp)
    root = RngStream(args.seed)
    _check_alpha(args.alpha_error)
    oracle = _study_oracle(spec, args.oracle_m, root)
    tau0 = oracle.tau0(args.alpha_error)
    curve = oracle.psi_curve(grid)
    _write_table_csv(args.output, zip(grid, curve), ["tau", "psi"])
    _write_meta(args.output + ".meta.json", {"command": "oracle", "dgp": spec.kind,
                                             "tau0": tau0, **_settings(args, grid)})
    print(f"{spec.kind}: tau0={tau0:.4g} at alpha_error={args.alpha_error:.4g} "
          f"(M={args.oracle_m})")
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            subparser = subparsers[args.command]
            subparser.set_defaults(**_config_defaults(subparser, args.config))
            args = parser.parse_args(argv)
        if args.output is None:
            raise ConfigurationError("--output is required")
        return args.run(args)
    except ShiftsetError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
