"""Rejection sampling walkthrough: thinning the source sample into a
pseudo-target sample.

Shows the mechanics of the rejection-sampling estimator: the train/test
split (the cross-fit's fold 0 and its complement), the estimated importance
weights, the acceptance bound, the realized acceptance rate against its
prediction, and the variance price relative to the cross-fit corrected
estimator, which runs on the same fold plan and nuisance fits.
"""

import numpy as np

import shiftset as ss

rng = ss.RngStream(314)
spec = ss.DgpSpec("lowdim")
sample = ss.dgp_draw(spec, 4000, rng.child("data"))
grid = ss.ThresholdGrid.from_range(0.0, 0.3, 0.05)
targets = ss.RiskTargets(0.05, 0.05)

# One fold plan and one cross-fit for both estimators.
folds = ss.make_folds(sample.n, 2, rng.child("folds"))
fits = ss.fit_nuisances(sample, folds, grid, ss.BinaryLearnerSpec(),
                        ss.BinaryLearnerSpec(), 0.01)
run = ss.rs_prepare(sample, None, folds, fits, rng.child("rs"))

n_test = run.test_idx.size
print(f"split: {run.train_idx.size} train / {n_test} test")
print(f"estimated weight range on the test half: "
      f"[{run.what_test.min():.3f}, {run.what_test.max():.3f}]")
print(f"acceptance bound B = {run.bhat:.3f} "
      f"(1.3 x the largest weight among test source units)")
print(f"accepted {run.n_accepted} of "
      f"{int((sample.a[run.test_idx] == 1).sum())} test source units")

predicted = run.gamma_train * run.pi_hat / run.bhat
print(f"acceptance frequency {run.n_accepted / n_test:.4f} vs predicted "
      f"{predicted:.4f}")

table = ss.rs_estimate(run, sample, targets)
decision = ss.select_threshold(table, targets)
print(f"\nrejection-sampling threshold: {decision.tau_hat}"
      f"{' (sentinel)' if decision.is_sentinel else ''}")

# Compare with the cross-fit corrected estimator on the same data.
one = ss.onestep_estimate(ss.FoldEngine(sample, folds, fits), targets)
print("\n tau    rs psi (se)        one-step psi (se)")
for i, tau in enumerate(grid):
    print(f"{tau:5.2f}  {table.psi[i]:7.4f} ({table.se[i]:.4f})"
          f"    {one.psi[i]:7.4f} ({one.se[i]:.4f})")
print("\nthe rejection-sampling standard errors are systematically wider:")
print(f"  mean se ratio = "
      f"{np.mean(table.se[1:] / np.maximum(one.se[1:], 1e-12)):.2f}")
