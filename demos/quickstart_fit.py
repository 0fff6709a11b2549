"""Quickstart: pick a prediction-set threshold for a scored dataset.

Generates a synthetic dataset from the built-in low-dimensional generator
(standing in for your own CSV of scores), then walks the full pipeline:
cross-fitted nuisances, corrected coverage-error estimates with confidence
upper bounds, and threshold selection.
"""

import shiftset as ss

rng = ss.RngStream(7)
spec = ss.DgpSpec("lowdim")
sample = ss.dgp_draw(spec, 2000, rng.child("data"))
print(f"sample: n={sample.n} (source {sample.n_source} / target "
      f"{sample.n_target}), {sample.p} covariates")

grid = ss.ThresholdGrid.from_range(0.0, 0.3, 0.05)
targets = ss.RiskTargets(alpha_error=0.05, alpha_conf=0.05)

folds = ss.make_folds(sample.n, 2, rng.child("folds"))
fits = ss.fit_nuisances(sample, folds, grid, ss.BinaryLearnerSpec(),
                        ss.BinaryLearnerSpec(), delta=0.01)

# Every fold's weights, labels and predictions, shared by the fold estimators.
engine = ss.FoldEngine(sample, folds, fits)
table = ss.onestep_estimate(engine, targets)
decision = ss.select_threshold(table, targets)

print(f"\n{'tau':>6} {'psi_hat':>9} {'se':>9} {'cub':>9}")
for tau, psi, se, cub in zip(table.taus, table.psi, table.se, table.cub):
    mark = " <- selected" if (not decision.is_sentinel
                              and tau == decision.tau_hat) else ""
    print(f"{tau:6.2f} {psi:9.4f} {se:9.4f} {cub:9.4f}{mark}")

if decision.is_sentinel:
    print("\nno threshold certifiable; fall back to the most conservative set")
else:
    print(f"\nselected threshold: {decision.tau_hat}")
    print("prediction set for a new x: every label y whose score s(x, y) "
          f">= {decision.tau_hat}")

# The targeted variant keeps every estimate inside [0, 1]:
tmle_table = ss.tmle_estimate(engine, targets)
tmle_dec = ss.select_threshold(tmle_table, targets)
print(f"targeted variant selects: {tmle_dec.tau_hat}"
      f"{' (sentinel)' if tmle_dec.is_sentinel else ''}")
