"""True coverage-error curves and optimal thresholds for the built-in
generators.

The curve is the probability, in the target population, that the true
label's score falls below each threshold; the optimal threshold is the
largest threshold whose probability is at most 0.05.  One
``OracleEvaluator`` per generator answers both from the same weighted
points, so the curve is at most 0.05 exactly up to that threshold.  Useful
for judging how much room each generator leaves between grid points.
"""

import numpy as np

import shiftset as ss

grid = ss.ThresholdGrid.from_range(0.0, 0.3, 0.05)
rng = ss.RngStream(2024)

for kind in ("highdim-sparse", "lowdim", "lowdim-noshift"):
    spec = ss.DgpSpec(kind)
    oracle = ss.OracleEvaluator(spec, 200_000, rng.child(f"curve-{kind}"))
    curve = oracle.psi_curve(grid)
    tau0 = oracle.tau0(0.05)
    print(f"\n=== {kind} ===")
    print("tau   :", "  ".join(f"{t:5.2f}" for t in grid))
    print("error :", "  ".join(f"{v:5.3f}" for v in curve))
    print(f"optimal threshold (error = 0.05): {tau0:.4f}")
    feasible = [t for t, v in zip(grid, curve) if v <= 0.05]
    print(f"largest safe grid point: {max(feasible):.2f}")

# The high-dimensional generator shifts the two exponential covariates, so
# thresholds tuned on the source population overshoot in the target:
spec = ss.DgpSpec("highdim-sparse")
gen = ss.RngStream(5).child("swap").generator()
for a, name in ((1, "source"), (0, "target")):
    X = spec.draw_x(200_000, np.full(200_000, a), gen)
    q = np.quantile(spec.draw_scores(X, gen), 0.05)
    print(f"0.05-quantile of scores in the {name} population: {q:.4f}")
