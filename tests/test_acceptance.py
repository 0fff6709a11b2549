"""Acceptance gate: end-to-end statistical behavior at desk scale.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failure) and asserts the stated bar.  Monte-Carlo
bars follow the convention: a nominal level minus a two-standard-error
Wilson allowance at the stated replication count.
"""

import json

import numpy as np
import pytest
from scipy.special import expit, logit
from scipy.stats import chi2

import shiftset as ss
from shiftset.cli import main
from shiftset.tmle import _fluctuations, _fold_tmle
from tests.conftest import rs_prepare_on_split

GRID = ss.ThresholdGrid.from_range(0.0, 0.3, 0.05)
TARGETS = ss.RiskTargets(0.05, 0.05)


def report(name, ok, detail):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def study_config(oracle_m=100_000):
    return ss.StudyConfig(grid=GRID, targets=TARGETS, oracle_m=oracle_m)


# -----------------------------------------------------------------------
# 1. Confidence-level reproduction, low-dimensional generator
# -----------------------------------------------------------------------

def test_confidence_level_lowdim():
    rep = ss.run_study(ss.DgpSpec("lowdim"), [2000], ["onestep", "tmle"], 200,
                       study_config(), ss.RngStream(20260810))
    props = {a.method: a.proportion for a in rep.aggregates}
    ok = props["onestep"] >= 0.89 and props["tmle"] >= 0.89
    report("confidence level, low-dim n=2000",
           ok, f"onestep={props['onestep']:.3f} tmle={props['tmle']:.3f} bar=0.89")
    assert props["onestep"] >= 0.89
    assert props["tmle"] >= 0.89


# -----------------------------------------------------------------------
# 2. Method ranking, high-dimensional sparse generator
# -----------------------------------------------------------------------

@pytest.fixture(scope="module")
def highdim_ranking():
    return ss.run_study(ss.DgpSpec("highdim-sparse"), [2000],
                        ["onestep", "plugin", "icp"], 200, study_config(),
                        ss.RngStream(20260813))


def test_method_ranking_highdim_inductive_cp(highdim_ranking):
    agg = {a.method: a for a in highdim_ranking.aggregates}
    gap = agg["onestep"].proportion - agg["icp"].proportion
    halfwidth = max((agg["icp"].wilson_hi - agg["icp"].wilson_lo) / 2,
                    (agg["onestep"].wilson_hi - agg["onestep"].wilson_lo) / 2)
    ok = gap > halfwidth
    report("ranking, high-dim: inductive CP below one-step", ok,
           f"icp={agg['icp'].proportion:.3f} onestep={agg['onestep'].proportion:.3f} "
           f"gap={gap:.3f} halfwidth={halfwidth:.3f}")
    assert gap > halfwidth


def test_method_ranking_highdim_plugin(highdim_ranking):
    """Plug-in must lie further from the true error curve than one-step.

    The one-step correction removes the plug-in's first-order nuisance
    bias.  On the datasets of the ``highdim_ranking`` fixture, whose rows
    carry each replication's estimated curve, each replication's signed
    error against the true curve is averaged over the grid thresholds with
    0 < psi < 1; the plug-in's mean absolute bias must exceed the
    one-step's by two standard errors of the paired difference.

    Coverage proportions cannot rank the two here.  The true curve is 0.033
    at tau=0.05 and 0.081 at tau=0.10, with tau0 near 0.069, so on this
    0.05-step grid certifying tau=0.10 needs an estimate about 0.05 below
    the truth: both methods select only safe thresholds and tie at 1.000.
    The plug-in errs high (measured bias +0.004 to +0.009 at each interior
    threshold, from the misspecified logistic E-fit extrapolated across the
    shift), so on a 0.01 grid the ranking reverses: onestep 0.945 and
    plugin 1.000 with the same seed and replications.
    """
    spec = ss.DgpSpec("highdim-sparse")
    rng = ss.RngStream(20260813)
    psi_true = ss.OracleEvaluator(spec, 2_000_000,
                                  rng.child("oracle-curve")).psi_curve(GRID)
    inner = (psi_true > 0) & (psi_true < 1)

    def errors(method):
        rows = [r for r in highdim_ranking.rows if r.method == method]
        assert len(rows) == 200 and not any(r.failed for r in rows)
        return np.array([np.mean(r.table.psi[inner] - psi_true[inner])
                         for r in rows])

    err_plugin, err_onestep = errors("plugin"), errors("onestep")
    bias_plugin, bias_onestep = err_plugin.mean(), err_onestep.mean()
    gap = abs(bias_plugin) - abs(bias_onestep)
    # both errors come from the same datasets, so the standard error is that
    # of the paired per-replication difference (delta method for |mean|)
    paired = (np.sign(bias_plugin) * err_plugin
              - np.sign(bias_onestep) * err_onestep)
    se = float(paired.std(ddof=1) / np.sqrt(paired.size))
    agg = {a.method: a for a in highdim_ranking.aggregates}
    ok = gap > 2 * se
    report("ranking, high-dim: plug-in below one-step", ok,
           f"bias plugin={bias_plugin:+.4f} onestep={bias_onestep:+.4f} "
           f"gap={gap:.4f} bar=2se={2 * se:.4f}; coverage "
           f"plugin={agg['plugin'].proportion:.3f} "
           f"onestep={agg['onestep'].proportion:.3f}")
    assert gap > 2 * se


# -----------------------------------------------------------------------
# 3. No-shift sanity
# -----------------------------------------------------------------------

def test_noshift_sanity():
    rep_icp = ss.run_study(ss.DgpSpec("lowdim-noshift"), [1000], ["icp"], 200,
                           study_config(), ss.RngStream(20260811))
    icp = rep_icp.aggregates[0].proportion

    rep = ss.run_study(ss.DgpSpec("lowdim-noshift"), [2000],
                       ["onestep", "tmle"], 200, study_config(),
                       ss.RngStream(20260812))
    props = {a.method: a.proportion for a in rep.aggregates}
    ok = icp >= 0.93 and props["onestep"] >= 0.89 and props["tmle"] >= 0.89
    report("no-shift sanity", ok,
           f"icp(n=1000)={icp:.3f} bar=0.93; onestep={props['onestep']:.3f} "
           f"tmle={props['tmle']:.3f} bar=0.89")
    assert icp >= 0.93
    assert props["onestep"] >= 0.89
    assert props["tmle"] >= 0.89


# -----------------------------------------------------------------------
# 4. Asymptotic linearity of the corrected estimator (oracle nuisances)
# -----------------------------------------------------------------------

def test_asymptotic_linearity_slope():
    spec = ss.DgpSpec("lowdim")
    tau = 0.15
    tau_index = list(GRID).index(tau)
    fits = ss.oracle_nuisances(spec, GRID)
    psi_true = ss.OracleEvaluator(spec, 4_000_000,
                                  ss.RngStream(5).child("psi-hi")).psi_at(tau)

    def influence_mean(sample):
        g0 = spec.true_propensity(sample.x)
        w0 = ss.odds_weight(g0, 0.5)
        e0 = spec.true_cond_errors(sample.x, [tau])[0]
        src = sample.is_source
        z = np.zeros(sample.n)
        z[src] = sample.score[src] < tau
        d = np.where(src, (w0 / 0.5) * (z - e0), (e0 - psi_true) / 0.5)
        return float(d.mean())

    rng = ss.RngStream(8)
    ns = [500, 1000, 2000, 4000]
    means = []
    for n in ns:
        devs = []
        for r in range(200):
            sample = ss.dgp_draw(spec, n, rng.child(f"lin{n}", r))
            folds = ss.make_folds(n, 2, rng.child(f"linf{n}", r))
            table = ss.onestep_estimate(ss.FoldEngine(sample, folds, fits),
                                        TARGETS)
            devs.append(abs(table.psi[tau_index] - psi_true
                            - influence_mean(sample)))
        means.append(float(np.mean(devs)))
    slope = float(np.polyfit(np.log(ns), np.log(means), 1)[0])
    ok = slope <= -0.75
    report("asymptotic linearity", ok,
           f"slope={slope:.3f} bar=-0.75 means={['%.2e' % m for m in means]}")
    assert slope <= -0.75


# -----------------------------------------------------------------------
# 5. Targeting solves the weighted score equation
# -----------------------------------------------------------------------

def test_targeting_score_equation():
    spec = ss.DgpSpec("lowdim")
    rng = ss.RngStream(33)
    worst = 0.0
    psi_ok = True
    checked = 0
    for r in range(100):
        sample = ss.dgp_draw(spec, 500, rng.child("d", r))
        folds = ss.make_folds(500, 2, rng.child("f", r))
        fits = ss.fit_nuisances(sample, folds, GRID, ss.BinaryLearnerSpec(),
                                ss.BinaryLearnerSpec(), 0.01)
        engine = ss.FoldEngine(sample, folds, fits)
        fallback = ss.tmle_estimate(engine, TARGETS).extras["fallback"]
        for v in range(2):
            beta, logistic, fallback_v = _fluctuations(engine.contexts[v])
            psi_v, _ = _fold_tmle(engine.contexts[v], beta, logistic, fallback_v)
            idx = folds.indices(v)
            src = idx[sample.a[idx] == 1]
            gamma = float(np.mean(sample.a[idx] == 1))
            w = ss.odds_weight(fits.propensity(v, sample.x[src]), gamma)
            constant = fits.constant_mask(v)
            E = fits.cond_error(v, sample.x[src])
            for ti, tau in enumerate(GRID):
                if fallback[v, ti] or constant[ti]:
                    continue
                z = ss.miscoverage_vector(sample.score[src], tau)
                e = np.clip(E[ti], 1e-6, 1.0 - 1e-6)
                targeted = expit(logit(e) + beta[ti] * w)
                resid = abs(float(np.sum(w * (z - targeted))))
                worst = max(worst, resid / idx.size)
                psi_ok &= 0.0 <= psi_v[ti] <= 1.0
                checked += 1
    ok = worst <= 1e-6 and psi_ok and checked > 0
    report("targeting score equation", ok,
           f"worst residual={worst:.2e} bar=1e-6 over {checked} logistic fits; "
           f"fold estimates in [0,1]: {psi_ok}")
    assert worst <= 1e-6
    assert psi_ok


# -----------------------------------------------------------------------
# 6. Rejection sampling: acceptance rate and accepted-sample distribution
# -----------------------------------------------------------------------

def draw_discrete_shift(n, rng):
    """Shifted 6-level first covariate plus one normal covariate; binary
    outcome with a fixed probability-style score."""
    gen = rng.generator()
    a = gen.binomial(1, 0.5, n).astype(np.int8)
    src_pmf = np.array([0.25, 0.25, 0.2, 0.15, 0.1, 0.05])
    tgt_pmf = np.array([0.05, 0.1, 0.15, 0.2, 0.25, 0.25])
    u = gen.uniform(size=n)
    lev = np.where(a == 1,
                   np.searchsorted(np.cumsum(src_pmf), u),
                   np.searchsorted(np.cumsum(tgt_pmf), u)) + 1.0
    x2 = gen.standard_normal(n)
    X = np.column_stack([lev, x2])
    q = 1.0 / (1.0 + np.exp(-(0.4 * lev - 1.2 - 0.5 * x2)))
    y = (gen.uniform(size=n) < q).astype(int)
    s1 = 1.0 / (1.0 + np.exp(-(0.5 * lev - 1.5 - 0.6 * x2)))
    score = np.where(y == 1, s1, 1.0 - s1)
    return ss.ObservedSample(a=a, x=X, score=np.where(a == 1, score, np.nan))


def test_rejection_sampling_acceptance_rate():
    one_grid = ss.ThresholdGrid((0.15,))
    rng = ss.RngStream(10)
    ok_runs = 0
    for r in range(50):
        sample = ss.dgp_draw(ss.DgpSpec("lowdim"), 4000, rng.child("acc", r))
        run = rs_prepare_on_split(sample, None, one_grid, ss.BinaryLearnerSpec(),
                                  ss.BinaryLearnerSpec(), rng.child("accr", r))
        n_test = run.test_idx.size
        freq = run.n_accepted / n_test
        pred = run.gamma_train * run.pi_hat / run.bhat
        se = np.sqrt(pred * (1 - pred) / n_test)
        ok_runs += abs(freq - pred) <= 3 * se
    ok = ok_runs == 50
    report("rejection sampling acceptance rate", ok,
           f"{ok_runs}/50 runs within 3 binomial SEs")
    assert ok_runs == 50


def test_rejection_sampling_distribution():
    one_grid = ss.ThresholdGrid((0.15,))
    rng = ss.RngStream(44)
    passed = 0
    for r in range(50):
        sample = draw_discrete_shift(4000, rng.child("dd", r))
        run = rs_prepare_on_split(sample, None, one_grid, ss.BinaryLearnerSpec(),
                                  ss.BinaryLearnerSpec(), rng.child("rr", r))
        a_test = sample.a[run.test_idx]
        src = a_test == 1
        x1_test = sample.x[run.test_idx, 0]
        w_src = run.what_test[src]
        levels = np.arange(1, 7)
        expected_prop = np.array(
            [w_src[x1_test[src] == lv].sum() for lv in levels]) / w_src.sum()
        observed = np.array(
            [np.sum(sample.x[run.accepted_indices(), 0] == lv) for lv in levels])
        keep = expected_prop > 0
        exp_cnt = expected_prop[keep] * observed.sum()
        stat = float(np.sum((observed[keep] - exp_cnt) ** 2 / exp_cnt))
        pval = float(chi2.sf(stat, int(keep.sum()) - 1))
        passed += pval > 0.001
    ok = passed >= 47.5  # 95% of 50
    report("rejection sampling accepted-sample distribution", ok,
           f"chi-square p>0.001 in {passed}/50 runs (need >=95%)")
    assert passed >= 47.5


# -----------------------------------------------------------------------
# 7. Variance ordering: rejection sampling pays in variance
# -----------------------------------------------------------------------

def test_variance_ordering():
    spec = ss.DgpSpec("lowdim")
    one_grid = ss.ThresholdGrid((0.15,))
    rng = ss.RngStream(20260814)
    ps_one, ps_rs = [], []
    for r in range(500):
        sample = ss.dgp_draw(spec, 2000, rng.child("d", r))
        folds = ss.make_folds(2000, 2, rng.child("f", r))
        fits = ss.fit_nuisances(sample, folds, one_grid, ss.BinaryLearnerSpec(),
                                ss.BinaryLearnerSpec(), 0.01)
        engine = ss.FoldEngine(sample, folds, fits)
        ps_one.append(ss.onestep_estimate(engine, TARGETS).psi[0])
        run = rs_prepare_on_split(sample, None, one_grid, ss.BinaryLearnerSpec(),
                                  ss.BinaryLearnerSpec(), rng.child("r", r))
        ps_rs.append(ss.rs_estimate(run, TARGETS).psi[0])
    v_one = float(np.var(ps_one, ddof=1))
    v_rs = float(np.var(ps_rs, ddof=1))
    ok = v_rs > v_one
    report("variance ordering", ok,
           f"var(rs)={v_rs:.3e} > var(onestep)={v_one:.3e} "
           f"(ratio {v_rs / v_one:.2f}) over 500 replications")
    assert v_rs > v_one


# -----------------------------------------------------------------------
# 8. Exactness below the score support
# -----------------------------------------------------------------------

def test_extreme_threshold_exactness():
    spec = ss.DgpSpec("lowdim")
    grid = ss.ThresholdGrid((0.0, 0.15))  # scores are strictly positive
    rng = ss.RngStream(55)
    covered = 0
    for r in range(100):
        sample = ss.dgp_draw(spec, 500, rng.child("d", r))
        folds = ss.make_folds(500, 2, rng.child("f", r))
        fits = ss.fit_nuisances(sample, folds, grid, ss.BinaryLearnerSpec(),
                                ss.BinaryLearnerSpec(), 0.01)
        table = ss.onestep_estimate(ss.FoldEngine(sample, folds, fits), TARGETS)
        assert table.psi[0] == 0.0
        assert table.se[0] == 0.0
        covered += table.cub[0] >= 0.0  # true error at tau=0 is exactly 0
    ok = covered == 100
    report("extreme-threshold exactness", ok,
           f"psi=sigma=0 exactly and CUB covers 0 in {covered}/100 replications")
    assert covered == 100


# -----------------------------------------------------------------------
# 9. Byte-level determinism of the simulation command
# -----------------------------------------------------------------------

def test_simulate_byte_determinism(tmp_path):
    args = ["simulate", "--dgp", "lowdim", "--n", "400", "--reps", "3",
            "--method", "onestep,tmle,rs,plugin,wplugin,icp,wcp",
            "--oracle-m", "20000", "--seed", "99"]
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(args + ["--output", out1]) == 0
    assert main(args + ["--output", out2]) == 0
    same = all(
        open(out1 + suffix, "rb").read() == open(out2 + suffix, "rb").read()
        for suffix in ("", ".jsonl", ".meta.json"))
    report("simulate determinism", same,
           "aggregate, row, and metadata files byte-identical across reruns")
    assert same
    # sentinel thresholds serialize as literal 0 with an explicit flag
    for line in open(out1 + ".jsonl"):
        row = json.loads(line)
        if row.get("sentinel"):
            assert row["tau_hat"] == 0.0
