"""Span tracing for shiftset, installed from outside the package.

Every traced function is replaced, at each name its callers look up, by a
wrapper that records a span: name, start, end, the enclosing span and a
trace identifier.  One `fit` invocation shares one identifier; inside
`simulate`, each replication gets its own, taken from the ``dgp_draw`` call
that opens it.  Spans stay in memory until :meth:`Tracer.dump`.

:func:`aggregate` turns a span list into the per-layer metrics.  Nothing in
this module edits shiftset's source; only module and class attributes are
rebound, and :meth:`Tracer.uninstall` restores them.
"""

from __future__ import annotations

import json
import statistics
import time
import zlib

# Substream purposes that `fit_binary` receives, by the role of the fit.
_ROLE_BY_PURPOSE = {
    zlib.crc32(b"propensity"): "propensity",
    zlib.crc32(b"rs-g"): "propensity",
    zlib.crc32(b"cond-error"): "cond_error",
    zlib.crc32(b"rs-e"): "cond_error",
}

# (span name, defining module, function, call sites): a call site is a module
# whose global the callers read, so the wrapper is bound there.
_FUNCTIONS = (
    ("cli.ingest_csv", "cli", "ingest_csv", ("cli",)),
    ("core.make_folds", "core", "make_folds", ("cli", "simbench")),
    ("simbench.run_study", "simbench", "run_study", ("cli",)),
    ("simbench.dgp_draw", "simbench", "dgp_draw", ("simbench",)),
    ("crossfit.fit_nuisances", "crossfit", "fit_nuisances", ("cli", "simbench")),
    ("learners.fit_binary", "learners", "fit_binary", ("crossfit", "rejsamp")),
    ("onestep.onestep_estimate", "onestep", "onestep_estimate", ("cli", "simbench")),
    ("onestep.plugin_estimate", "onestep", "plugin_estimate", ("cli", "simbench")),
    ("onestep.weighted_plugin_estimate", "onestep", "weighted_plugin_estimate",
     ("cli", "simbench")),
    ("onestep.select_threshold", "onestep", "select_threshold", ("cli", "simbench")),
    ("tmle.tmle_estimate", "tmle", "tmle_estimate", ("cli", "simbench")),
    ("tmle.target_fold", "tmle", "target_fold", ("tmle",)),
    ("rejsamp.rs_prepare", "rejsamp", "rs_prepare", ("cli", "simbench")),
    ("rejsamp.rs_estimate", "rejsamp", "rs_estimate", ("cli", "simbench")),
    ("conformal.inductive_cp_threshold", "conformal", "inductive_cp_threshold",
     ("cli", "simbench")),
    ("conformal.weighted_quantile_cutoffs", "conformal", "weighted_quantile_cutoffs",
     ("simbench",)),
)

# (span name, module, class, method): bound on the class, where every caller
# finds it.
_METHODS = (
    ("crossfit.propensity", "crossfit", "NuisanceFits", "propensity"),
    ("crossfit.cond_error", "crossfit", "NuisanceFits", "cond_error"),
    ("simbench.OracleEvaluator", "simbench", "OracleEvaluator", "__init__"),
    ("simbench.oracle_eval", "simbench", "OracleEvaluator", "psi_at"),
    ("simbench.oracle_eval", "simbench", "OracleEvaluator", "psi_of_cutoffs"),
)


def _fit_binary_attrs(args, kwargs, result):
    rng = args[3] if len(args) > 3 else kwargs.get("rng")
    path = getattr(rng, "path", ())
    role = _ROLE_BY_PURPOSE.get(path[-2], "other") if len(path) >= 2 else "other"
    return {"role": role, "learner": args[0].kind,
            "constant": type(result).__name__ == "ConstantPredictor",
            "fallback": bool(getattr(result, "fallback", False))}


def _tmle_attrs(args, kwargs, table):
    fallback = table.extras["fallback"]
    return {"fallback": int(fallback.sum()), "pairs": int(fallback.size)}


def _rs_prepare_attrs(args, kwargs, run):
    sample = args[0]
    return {"accepted": run.n_accepted,
            "test_source": int((sample.a[run.test_idx] == 1).sum())}


def _ingest_attrs(args, kwargs, sample):
    return {"rows": int(sample.n)}


_ATTRS = {
    "learners.fit_binary": _fit_binary_attrs,
    "tmle.tmle_estimate": _tmle_attrs,
    "rejsamp.rs_prepare": _rs_prepare_attrs,
    "cli.ingest_csv": _ingest_attrs,
}


class Tracer:
    """Records spans around shiftset's public functions."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, trace, attrs]
        self.trace_id = ""
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._invocations = 0

    def _wrap(self, name, fn):
        attrs_of = _ATTRS.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if name == "simbench.dgp_draw":
                rng = args[2] if len(args) > 2 else kwargs["rng"]
                self.trace_id = f"{self.trace_id.split('/')[0]}/rep{rng.path[-1]}"
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.trace_id, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs_of is not None:
                span[5] = attrs_of(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _rebind(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap every traced function of an imported shiftset package.

        A name that is gone is skipped and listed in ``missing``.
        """
        self.missing = []
        mods = {name: getattr(package, name) for name in
                ("cli", "core", "simbench", "crossfit", "learners", "onestep",
                 "tmle", "rejsamp", "conformal")}
        for span_name, home, attr, sites in _FUNCTIONS:
            fn = getattr(mods[home], attr, None)
            if fn is None:
                self.missing.append(f"{home}.{attr}")
                continue
            wrapped = self._wrap(span_name, fn)
            for site in sites:
                if getattr(mods[site], attr, None) is fn:
                    self._rebind(mods[site], attr, wrapped)
                else:
                    self.missing.append(f"{site}.{attr}")
        for span_name, home, cls_name, attr in _METHODS:
            cls = getattr(mods[home], cls_name, None)
            fn = getattr(cls, attr, None)
            if fn is None:
                self.missing.append(f"{home}.{cls_name}.{attr}")
                continue
            self._rebind(cls, attr, self._wrap(span_name, fn))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def call_main(self, main, argv):
        """Run ``main(argv)`` as one traced invocation with its own trace id."""
        self.trace_id = f"inv{self._invocations}"
        self._invocations += 1
        return self._wrap("cli.main", main)(argv)

    def dump(self, path: str, first: int = 0) -> None:
        """Write spans from index ``first`` on as JSON lines, parents rebased."""
        with open(path, "w") as fh:
            for name, start, end, parent, trace, attrs in self.spans[first:]:
                rec = {"name": name, "start": start, "end": end,
                       "parent": parent - first if parent >= first else -1,
                       "trace": trace}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec) + "\n")


def load(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


# ---------------------------------------------------------------------------
# Aggregation into per-layer metrics
# ---------------------------------------------------------------------------

def _dur(s):
    return s["end"] - s["start"]


def aggregate(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced run, by their BENCHMARK.json names.

    ``run.py`` adds the ``trace.*`` timings and the ``blas1.*`` column.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] += _dur(s)
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, s in enumerate(spans):
        name = s["name"]
        busy[name] = busy.get(name, 0.0) + _dur(s)
        self_s[name] = self_s.get(name, 0.0) + _dur(s) - child_time[i]
        calls[name] = calls.get(name, 0) + 1

    def total(name, *, where=None, key=None):
        sel = [s for s in spans if s["name"] == name
               and (where is None or where(s.get("attrs") or {}))]
        if key is None:
            return sum(_dur(s) for s in sel), len(sel)
        return sum((s.get("attrs") or {}).get(key, 0) for s in sel), len(sel)

    m: dict[str, float] = {}
    for name in ("cli.main", "crossfit.fit_nuisances", "simbench.run_study",
                 "rejsamp.rs_prepare", "tmle.tmle_estimate"):
        m[f"{name}.s"] = busy.get(name, 0.0)
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in ("cli.ingest_csv", "core.make_folds", "simbench.dgp_draw",
                 "simbench.OracleEvaluator", "simbench.oracle_eval",
                 "crossfit.propensity", "crossfit.cond_error",
                 "learners.fit_binary", "onestep.onestep_estimate",
                 "onestep.plugin_estimate", "onestep.weighted_plugin_estimate",
                 "onestep.select_threshold", "tmle.target_fold",
                 "rejsamp.rs_estimate", "conformal.inductive_cp_threshold",
                 "conformal.weighted_quantile_cutoffs"):
        m[f"{name}.s"] = busy.get(name, 0.0)
    for name in ("cli.main", "crossfit.propensity", "crossfit.cond_error",
                 "learners.fit_binary", "tmle.target_fold",
                 "simbench.dgp_draw"):
        m[f"{name}.calls"] = calls.get(name, 0)
    m["crossfit.predict.s"] = m["crossfit.propensity.s"] + m["crossfit.cond_error.s"]

    rows, _ = total("cli.ingest_csv", key="rows")
    m["cli.ingest_csv.rows_per_s"] = (rows / m["cli.ingest_csv.s"]
                                      if m["cli.ingest_csv.s"] > 0 else 0.0)

    for role in ("propensity", "cond_error"):
        sec, n = total("learners.fit_binary", where=lambda a, r=role: a.get("role") == r)
        m[f"learners.fit_binary.{role}.s"] = sec
        m[f"learners.fit_binary.{role}.calls"] = n
    for kind, label in (("logistic-ridge", "logistic_ridge"),
                        ("boosted-stumps", "boosted_stumps")):
        sec, n = total("learners.fit_binary", where=lambda a, k=kind: (
            a.get("learner") == k and not a.get("constant")))
        m[f"learners.{label}.s"] = sec
        m[f"learners.{label}.calls"] = n
    n_const, n_fit = total("learners.fit_binary", key="constant")
    m["learners.fit_binary.constant_frac"] = n_const / n_fit if n_fit else 0.0
    m["learners.irls_fallbacks"] = total("learners.fit_binary", key="fallback")[0]

    fb, _ = total("tmle.tmle_estimate", key="fallback")
    pairs, _ = total("tmle.tmle_estimate", key="pairs")
    m["tmle.fallback_frac"] = fb / pairs if pairs else 0.0
    acc, _ = total("rejsamp.rs_prepare", key="accepted")
    src, _ = total("rejsamp.rs_prepare", key="test_source")
    m["rejsamp.accept_frac"] = acc / src if src else 0.0

    m["simbench.rep_s_p50"] = _rep_p50(spans)
    m["trace.spans"] = len(spans)
    return m


def _rep_p50(spans: list[dict]) -> float:
    """Median replication time: from one replication's ``dgp_draw`` start to
    the next one's, or to the end of the enclosing ``run_study``."""
    reps = []
    for i, s in enumerate(spans):
        if s["name"] != "simbench.run_study":
            continue
        starts = [d["start"] for d in spans
                  if d["name"] == "simbench.dgp_draw" and d["parent"] == i]
        bounds = starts + [s["end"]]
        reps += [b - a for a, b in zip(bounds, bounds[1:])]
    return statistics.median(reps) if reps else 0.0


# Metrics that count work; two traced runs of the same inputs must agree.
COUNT_METRICS = ("cli.main.calls", "crossfit.propensity.calls",
                 "crossfit.cond_error.calls", "learners.fit_binary.calls",
                 "learners.fit_binary.propensity.calls",
                 "learners.fit_binary.cond_error.calls",
                 "learners.logistic_ridge.calls", "learners.boosted_stumps.calls",
                 "learners.irls_fallbacks", "tmle.target_fold.calls",
                 "simbench.dgp_draw.calls", "trace.spans")
