"""Command-line surface: CSV ingestion, method dispatch, serialization.

Three subcommands:

* ``fit``      - run one method on a CSV dataset and write a per-threshold
                 table plus a metadata record;
* ``simulate`` - run the replication harness on a built-in DGP and write
                 per-replication rows (JSON lines) plus an aggregate CSV;
* ``oracle``   - write the true coverage-error curve and optimal threshold
                 for a built-in DGP.

CSV schema: header row with columns ``a`` (0/1), ``score`` (blank allowed
only when a=0), and ``x1..xp``.  Outputs carry 17 significant digits so a
round trip is bit-faithful, and contain nothing clock- or host-dependent:
rerunning a command with the same seed reproduces files byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import warnings
from itertools import compress

import numpy as np
from scipy.special import betaincinv

from .core import (
    ConfigurationError,
    DataError,
    ObservedSample,
    RiskTargets,
    RngStream,
    ShiftsetError,
    ThresholdGrid,
)
from .learners import BinaryLearnerSpec
from .onestep import CoverageTable
from .rejsamp import RsConfig
from .simbench import (
    ALL_METHODS,
    METHODS,
    Dataset,
    DgpSpec,
    StudyConfig,
    _ensure_methods,
    oracle_psi_curve,
    oracle_tau0,
    run_study,
)

_DGP_ALIASES = {
    "highdim": "highdim-sparse",
    "highdim-sparse": "highdim-sparse",
    "lowdim": "lowdim",
    "lowdim-noshift": "lowdim-noshift",
}

_BLOCK_ROWS = 1024  # exact path: CSV rows converted at a time; bounds the tokens held in memory
# Widths of the Latin-1 byte fields that the one-pass path reads `a` and `score`
# into: a token that fills its field may have been cut short, so it is not plain.
_A_WIDTH, _SCORE_WIDTH = 2, 32


def _fmt(x: float) -> str:
    """17 significant digits: enough for an exact float round trip."""
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# CSV ingestion / emission
# ---------------------------------------------------------------------------

class CsvSchemaWarning(UserWarning):
    pass


class _NotPlain(Exception):
    """The data rows leave the subset that the one-pass reader handles."""


def ingest_csv(path: str) -> ObservedSample:
    """Read an observed sample from CSV.

    Column ``a`` must be 0 or 1; ``score`` must be blank exactly when a=0
    (values there are ignored with one warning per file); covariates are
    ``x1..xp`` in any order.  Errors carry 1-based file line numbers.

    Plain files are read in one ``np.loadtxt`` pass; a file with quotes, NUL
    characters, over-long lines or anything that pass cannot judge exactly
    (including every invalid value) is read again by the exact csv reader,
    the only one that accepts it or writes its error.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if len(set(header)) < len(header):
            raise DataError(f"{path}: duplicate header names in {header}")
        cols = {name: i for i, name in enumerate(header)}
        if "a" not in cols or "score" not in cols:
            raise DataError(f"{path}: header must contain 'a' and 'score'")
        x_names = [h for h in header if h not in ("a", "score")]
        p = len(x_names)
        expected = [f"x{j}" for j in range(1, p + 1)]
        if p == 0 or sorted(x_names) != sorted(expected):
            raise DataError(
                f"{path}: covariate columns must be exactly x1..xp, got {x_names}")
        layout = (path, header, cols["a"], cols["score"], [cols[n] for n in expected])
        try:
            a, score, x, stray = _read_plain(fh, layout)
        except _NotPlain:
            fh.seek(0)
            a, score, x, stray = _read_exact(fh, layout)
    if stray.size:
        warnings.warn(f"{path}: score ignored on {stray.size} target row(s) "
                      f"(first at line {stray[0]})", CsvSchemaWarning, stacklevel=2)
    if (a == 1).sum() == 0 or (a == 0).sum() == 0:
        raise DataError(f"{path}: need at least one source (a=1) and one "
                        "target (a=0) row")
    return ObservedSample(a=a, x=x, score=score)


def _read_plain(fh, layout):
    """Read the data rows in one ``np.loadtxt`` pass: (a, score, x, stray-score
    lines).  Raises ``_NotPlain`` unless every row is valid and plain."""
    _, header, a_col, s_col, x_cols = layout
    fields = [(name, "f8") for name in header]
    fields[a_col] = ("a", f"S{_A_WIDTH}")
    fields[s_col] = ("score", f"S{_SCORE_WIDTH}")
    blanks = []  # per blank line, the number of data rows before it
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(_plain_lines(fh, blanks), dtype=fields, delimiter=",",
                              comments=None, quotechar=None, ndmin=1)
    except (ValueError, Warning):
        raise _NotPlain from None
    a_tok, s_tok = rows["a"], rows["score"]
    src = a_tok == b"1"
    if not (src | (a_tok == b"0")).all() or (np.char.str_len(s_tok) == _SCORE_WIDTH).any():
        raise _NotPlain
    score = np.full(len(rows), np.nan)
    try:
        score[src] = np.fromiter(map(float, s_tok[src].tolist()), float)
    except ValueError:
        raise _NotPlain from None
    x = np.column_stack([rows[header[c]] for c in x_cols])
    if not (np.isfinite(score[src]).all() and np.isfinite(x).all()):
        raise _NotPlain
    stray = np.array([i for i in np.flatnonzero(~src & (s_tok != b""))
                      if s_tok[i].decode("latin-1").strip()], dtype=np.int64)
    lines = 2 + stray + np.searchsorted(blanks, stray, side="right")
    return src.astype(np.int8), score, x, lines


def _plain_lines(fh, blanks):
    """The data lines of the open file, skipping blank ones (noted in
    ``blanks``); raises ``_NotPlain`` at a quote, a NUL or an over-long line."""
    limit = csv.field_size_limit()
    for k, line in enumerate(fh):
        if '"' in line or "\0" in line or len(line) > limit:
            raise _NotPlain
        if line.rstrip("\r\n"):
            yield line
        else:
            blanks.append(k - len(blanks))


def _read_exact(fh, layout):
    """Read the data rows of the file, rewound, with the csv reader, block by
    block: (a, score, x, stray-score lines).  Writes every row error."""
    path = layout[0]
    reader = csv.reader(fh)
    next(reader)  # the header, checked already
    blocks, block = [], []
    try:
        for record in enumerate(reader, start=2):
            if record[1]:
                block.append(record)
            if len(block) == _BLOCK_ROWS:
                blocks.append(_convert_block(layout, block))
                block = []
    except (csv.Error, UnicodeDecodeError):
        if block:  # report an invalid row read before the unreadable one
            _convert_block(layout, block)
        raise
    if block:
        blocks.append(_convert_block(layout, block))
    if not blocks:
        raise DataError(f"{path}: no data rows")
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def _convert_block(layout, block):
    """Convert and validate a block by column: (a, score, x, stray-score lines).
    A block that fails is checked row by row, raising its first row's error."""
    _, header, a_col, s_col, x_cols = layout
    lines, rows = zip(*block)
    try:
        if set(map(len, rows)) != {len(header)}:
            raise ValueError
        fields = list(zip(*rows))
        a_raw = list(map(str.strip, fields[a_col]))
        src = np.array(a_raw) == "1"
        score = np.full(len(rows), np.nan)
        score[src] = np.fromiter(map(float, compress(fields[s_col], src)), float)
        x = np.column_stack([np.fromiter(map(float, fields[c]), float) for c in x_cols])
        if not ({"0", "1"}.issuperset(a_raw) and np.isfinite(score[src]).all()
                and np.isfinite(x).all()):
            raise ValueError
    except ValueError:
        for line_no, row in block:
            _check_row(layout, line_no, row)
        # Every row is valid, so float() refused padding that strip() removes
        # (ASCII \x1c-\x1f): convert the stripped tokens instead.
        return _convert_block(layout, [(n, [t.strip() for t in row]) for n, row in block])
    stray = ~src & np.fromiter(map(bool, map(str.strip, fields[s_col])), bool)
    return src.astype(np.int8), score, x, np.array(lines)[stray]


def _check_row(layout, line_no: int, row) -> None:
    """Raise the DataError for the first invalid field of one row, if any."""
    path, header, a_col, s_col, x_cols = layout
    where = f"{path}:{line_no}"
    if len(row) != len(header):
        raise DataError(f"{where}: expected {len(header)} fields")
    a_raw = row[a_col].strip()
    if a_raw not in ("0", "1"):
        raise DataError(f"{where}: 'a' must be 0 or 1, got {a_raw!r}")
    if a_raw == "1" and not row[s_col].strip():
        raise DataError(f"{where}: source row is missing its score")
    for c in ([s_col] if a_raw == "1" else []) + x_cols:
        text = row[c].strip()
        try:
            value = float(text)
        except ValueError:
            raise DataError(f"{where}: column {header[c]!r} has a malformed "
                            f"number {text!r}") from None
        if not np.isfinite(value):
            raise DataError(f"{where}: column {header[c]!r} must be finite")


def emit_csv(sample: ObservedSample, path: str) -> None:
    """Write a sample in the ingestion schema (exact round trip)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a", "score"] + [f"x{j}" for j in range(1, sample.p + 1)])
        for i in range(sample.n):
            score = _fmt(sample.score[i]) if sample.a[i] == 1 else ""
            writer.writerow([str(int(sample.a[i])), score]
                            + [_fmt(v) for v in sample.x[i]])


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
        sp.add_argument("--alpha-conf", type=float, default=0.05)
        sp.add_argument("--folds", type=int, default=2)
        sp.add_argument("--delta", type=float, default=0.01,
                        help="propensity truncation bound")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--output", required=False, default=None)
        sp.add_argument("--g-learner", default="logistic-ridge",
                        choices=("logistic-ridge", "boosted-stumps"))
        sp.add_argument("--e-learner", default="logistic-ridge",
                        choices=("logistic-ridge", "boosted-stumps"))
        sp.add_argument("--ridge", type=float, default=1e-6)
        sp.add_argument("--bhat-mult", type=float, default=1.3)
        sp.add_argument("--bhat-fixed", type=float, default=None)

    sp_fit = sub.add_parser("fit", help="run one method on a CSV dataset")
    add_common(sp_fit)
    sp_fit.add_argument("--input", required=True)
    # Weighted conformal needs the oracle's target draws: simulation only.
    sp_fit.add_argument("--method", required=True,
                        choices=[m for m in METHODS if m != "wcp"])

    sp_sim = sub.add_parser("simulate", help="replication study on a built-in DGP")
    add_common(sp_sim)
    sp_sim.add_argument("--method", required=True,
                        help="comma-separated subset of: " + ",".join(ALL_METHODS))
    sp_sim.add_argument("--dgp", required=True, choices=sorted(_DGP_ALIASES))
    sp_sim.add_argument("--n", type=int, required=True)
    sp_sim.add_argument("--reps", type=int, default=200)
    sp_sim.add_argument("--oracle-m", type=int, default=100_000)

    sp_or = sub.add_parser("oracle", help="true coverage-error curve and threshold")
    add_common(sp_or)
    sp_or.add_argument("--dgp", required=True, choices=sorted(_DGP_ALIASES))
    sp_or.add_argument("--oracle-m", type=int, default=100_000)

    return parser, {"fit": sp_fit, "simulate": sp_sim, "oracle": sp_or}


def _apply_config_file(subparser, sub_argv, args):
    """Merge a key=value config file under explicit command-line flags."""
    if args.config is None:
        return args
    actions = {a.dest: a for a in subparser._actions}
    overrides = {}
    with open(args.config, encoding="utf-8-sig") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ConfigurationError(f"{args.config}: not UTF-8 text ({exc.reason})") from None
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(
                f"{args.config}:{line_no}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        dest = key.replace("-", "_")
        if dest not in actions:
            raise ConfigurationError(
                f"{args.config}:{line_no}: unknown key {key!r}")
        overrides[dest] = (line_no, key, value)
    explicit = _explicit_dests(subparser, sub_argv)
    for dest, (line_no, key, value) in overrides.items():
        if dest in explicit:
            continue
        action = actions[dest]
        if action.type is not None:
            try:
                value = action.type(value)
            except ValueError:
                raise ConfigurationError(
                    f"{args.config}:{line_no}: {key} = {value!r} is not a valid "
                    f"{action.type.__name__}") from None
        setattr(args, dest, value)
    return args


def _explicit_dests(parser, argv):
    out = set()
    for a in parser._actions:
        for opt in a.option_strings:
            if opt in argv or any(tok.startswith(opt + "=") for tok in argv):
                out.add(a.dest)
    return out


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
        V=args.folds, delta=args.delta,
        rs_config=RsConfig(bhat_mult=args.bhat_mult, bhat_fixed=args.bhat_fixed),
        **extra)


def _require_output(args):
    if args.output is None:
        raise ConfigurationError("--output is required")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _write_table_csv(path, rows, header):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _write_meta(path, meta: dict):
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _table_rows(table: CoverageTable, selected_tau, sentinel):
    rows = []
    for i, tau in enumerate(table.taus):
        selected = (not sentinel) and tau == selected_tau
        rows.append([_fmt(tau), _fmt(table.psi[i]), _fmt(table.sigma[i] / np.sqrt(table.n)),
                     _fmt(table.cub[i]), "1" if selected else "0"])
    return rows


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_fit(args) -> int:
    _require_output(args)
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
    sample = ingest_csv(args.input)
    cfg = _study_config(args)
    targets = cfg.targets
    root = RngStream(args.seed)

    meta = {
        "command": "fit",
        "method": args.method,
        "seed": args.seed,
        "n": sample.n,
        "n1": sample.n_source,
        "n0": sample.n_target,
        "folds": args.folds,
        "delta": args.delta,
        "alpha_error": targets.alpha_error,
        "alpha_conf": targets.alpha_conf,
        "grid": [float(t) for t in cfg.grid],
    }
    data = Dataset(sample, cfg, root.child("folds"), root.child("nuisance"), root)
    res = METHODS[args.method](data)
    meta.update(res.meta)
    meta.update({"selected_tau": res.tau_hat, "sentinel": res.sentinel})

    if res.table is None:  # icp: exact distribution of the k-th order statistic
        k, m = res.meta["order_statistic"], res.meta["calibration_size"]
        if res.sentinel:
            psi_hat, se, cub = 0.0, 0.0, 0.0
        else:
            psi_hat = k / (m + 1)
            se = float(np.sqrt(k * (m + 1 - k) / ((m + 1) ** 2 * (m + 2))))
            cub = float(betaincinv(k, m + 1 - k, 1 - targets.alpha_conf))
        rows = [[_fmt(res.tau_hat), _fmt(psi_hat), _fmt(se), _fmt(cub),
                 "0" if res.sentinel else "1"]]
        if res.sentinel:
            return meta, rows, (f"icp: no certifiable order statistic among "
                                f"{m} calibration scores; sentinel 0 recorded")
        return meta, rows, (f"icp: selected tau={res.tau_hat:.4g} "
                            f"(order statistic {k} of {m})")

    table = res.table
    rows = _table_rows(table, res.tau_hat, res.sentinel)
    if res.sentinel:
        return meta, rows, (f"{args.method}: no certifiable threshold "
                            f"(alpha_error={targets.alpha_error:.4g}); sentinel 0 recorded")
    i = list(table.taus).index(res.tau_hat)
    return meta, rows, (f"{args.method}: selected tau={res.tau_hat:.4g} "
                        f"(psi_hat={table.psi[i]:.4g}, cub={table.cub[i]:.4g})")


def cmd_simulate(args) -> int:
    _require_output(args)
    methods = _ensure_methods(m.strip() for m in args.method.split(",") if m.strip())
    cfg = _study_config(args, oracle_m=args.oracle_m)
    spec = DgpSpec(_DGP_ALIASES[args.dgp])
    report = run_study(spec, [args.n], methods, args.reps, cfg,
                       RngStream(args.seed))

    rows_path = args.output + ".jsonl"
    with open(rows_path, "w") as fh:
        for r in report.rows:
            record = {
                "method": r.method, "n": r.n, "rep": r.rep,
                "tau_hat": float(r.tau_hat), "sentinel": r.sentinel,
                "true_error": None if r.true_error is None else float(r.true_error),
                "covered": r.covered, "failed": r.failed,
            }
            if r.failure:
                record["failure"] = r.failure
            if r.info:
                record["info"] = {k: (float(v) if isinstance(v, (int, float, np.floating))
                                      else v) for k, v in sorted(r.info.items())}
            fh.write(json.dumps(record, sort_keys=True) + "\n")

    agg_rows = []
    for a in report.aggregates:
        agg_rows.append([
            a.method, str(a.n), str(a.reps), str(a.failures), str(a.covered),
            _fmt(a.proportion), _fmt(a.wilson_lo), _fmt(a.wilson_hi),
            _fmt(a.tau_mean), _fmt(a.tau_median), str(a.sentinel_count),
        ])
    _write_table_csv(args.output, agg_rows,
                     ["method", "n", "reps", "failures", "covered",
                      "proportion", "wilson_lo", "wilson_hi",
                      "tau_mean", "tau_median", "sentinel_count"])
    _write_meta(args.output + ".meta.json", {"command": "simulate",
                                             **report.config})
    for a in report.aggregates:
        print(f"{a.method}: n={a.n} proportion={a.proportion:.4g} "
              f"wilson=[{a.wilson_lo:.4g}, {a.wilson_hi:.4g}] "
              f"failures={a.failures}")
    return 0


def cmd_oracle(args) -> int:
    _require_output(args)
    grid = _parse_grid(args.grid)
    spec = DgpSpec(_DGP_ALIASES[args.dgp])
    root = RngStream(args.seed)
    tau0 = oracle_tau0(spec, args.alpha_error, args.oracle_m,
                       root.child("oracle-tau0"))
    curve = oracle_psi_curve(spec, list(grid), args.oracle_m, root.child("oracle-psi"))
    rows = [[_fmt(t), _fmt(v)] for t, v in zip(grid, curve)]
    _write_table_csv(args.output, rows, ["tau", "psi"])
    _write_meta(args.output + ".meta.json", {
        "command": "oracle",
        "dgp": spec.kind,
        "alpha_error": args.alpha_error,
        "oracle_m": args.oracle_m,
        "seed": args.seed,
        "tau0": tau0,
    })
    print(f"{spec.kind}: tau0={tau0:.4g} at alpha_error={args.alpha_error:.4g} "
          f"(M={args.oracle_m})")
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = _build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config_file(subparsers[args.command], argv, args)
        if args.command == "fit":
            return cmd_fit(args)
        if args.command == "simulate":
            return cmd_simulate(args)
        return cmd_oracle(args)
    except ShiftsetError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
