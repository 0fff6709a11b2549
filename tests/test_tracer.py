"""Smoke test of ``perfbench/tracer.py``, loaded from its file as the
benchmark loads it: a change that breaks a name or a shape the tracer reads
fails here, not on the next traced benchmark run."""

import importlib.util
from pathlib import Path

import pytest

import shiftset
from shiftset import DgpSpec, RngStream, dgp_draw
from shiftset.cli import emit_csv, main

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# Call sites the tracer lists that the package does not have: names that
# no caller looks up in that module, and tmle.target_fold, which tmle does
# not define.
UNTRACED = sorted([
    "cli.make_folds", "cli.fit_nuisances", "rejsamp.fit_binary",
    "cli.onestep_estimate", "cli.plugin_estimate", "cli.weighted_plugin_estimate",
    "cli.select_threshold", "cli.tmle_estimate", "tmle.target_fold",
    "cli.rs_prepare", "cli.rs_estimate", "cli.inductive_cp_threshold",
])


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_fit_and_simulate_record_their_attrs(tracer_module, tmp_path):
    data = str(tmp_path / "input.csv")
    emit_csv(dgp_draw(DgpSpec("lowdim"), 400, RngStream(7).child("traced")), data)
    runs = [["fit", "--input", data, "--method", method, "--seed", "7",
             "--output", str(tmp_path / f"fit-{method}.csv")] for method in ("tmle", "rs")]
    runs.append(["simulate", "--dgp", "lowdim", "--n", "200", "--reps", "2",
                 "--method", "tmle,rs,wcp", "--oracle-m", "2000", "--workers", "1",
                 "--output", str(tmp_path / "study.csv")])
    tracer = tracer_module.Tracer()
    tracer.install(shiftset)
    try:
        assert sorted(tracer.missing) == UNTRACED
        codes = [tracer.call_main(main, argv) for argv in runs]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0]

    tracer.dump(str(tmp_path / "spans.jsonl"))
    spans = tracer_module.load(str(tmp_path / "spans.jsonl"))
    # One call in its fit and one in each replication of the study.
    for name, keys, fit in (("tmle.tmle_estimate", {"fallback", "pairs"}, "inv0"),
                            ("rejsamp.rs_prepare", {"accepted", "test_source"}, "inv1")):
        hits = [s for s in spans if s["name"] == name]
        assert [s["trace"].split("/")[0] for s in hits] == [fit, "inv2", "inv2"]
        assert all(set(s["attrs"]) == keys for s in hits)
    metrics = tracer_module.aggregate(spans)
    assert 0.0 <= metrics["tmle.fallback_frac"] <= 1.0
    assert 0.0 < metrics["rejsamp.accept_frac"] <= 1.0
