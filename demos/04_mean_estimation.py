#!/usr/bin/env python3
"""The full estimator: direction-dependent accuracy on a spiked spectrum.

With one large eigenvalue and many tiny ones, a single error radius must
pay for the worst direction everywhere.  The slab intersection instead
pins every low-variance coordinate at its own (much smaller) scale.
"""

import numpy as np

import dirmean as dm

d = 30
eigs = (1.0,) + (1e-4,) * (d - 1)   # sigma = 1 along e_1, 0.01 elsewhere
spec = dm.DistributionSpec("gaussian", dm.SpectrumSpec(eigs), mean=(0.0,) * d)
gt = dm.make_ground_truth(spec)

delta = 0.01
trials = 40
probes = dm.probe_directions(d, 2 * d, seed=99)

err_dir = np.empty((trials, 2 * d))
err_emp = np.empty((trials, 2 * d))
for t in range(trials):
    ds = dm.sample_dataset(gt, 3 * 10**4, seed=500 + t)
    est = dm.estimate_mean(ds, delta, seed=t)
    err_dir[t] = probes @ (est.mu_hat - gt.mu)
    err_emp[t] = probes @ (dm.baseline_empirical_mean(ds) - gt.mu)

print("=== one fitted estimate ===")
print(f"  achieved slack rho* = {est.rho_star:.2e}, converged = {est.converged}")
print(f"  slab directions used = {est.directions_used}, "
      f"probe violation = {est.probe_violation:.2e}")
print(f"  mean blocks {est.block_plan_mean.n} x {est.block_plan_mean.m}, "
      f"variance blocks {est.block_plan_var.n} x {est.block_plan_var.m}")

q_dir = np.quantile(np.abs(err_dir), 0.9, axis=0)
q_emp = np.quantile(np.abs(err_emp), 0.9, axis=0)
print()
print(f"=== per-direction 0.9 error quantiles over {trials} trials ===")
print(f"  {'direction':>12s} {'sigma(u)':>9s} {'slab est.':>10s} {'emp. mean':>10s}")
print(f"  {'e_1 (spike)':>12s} {1.0:9.3f} {q_dir[0]:10.5f} {q_emp[0]:10.5f}")
j = np.argmax(q_dir[1:d]) + 1
print(f"  {'worst low-var':>12s} {0.01:9.3f} {q_dir[j]:10.5f} {q_emp[j]:10.5f}")
print()
print(f"  low-variance / spike error ratio: {q_dir[j] / q_dir[0]:.3f} "
      f"(true sigma ratio is 0.01)")

bound = 0.01 * np.sqrt(np.log(1 / delta) / 10**4) + np.sqrt(dm.tail_eigensum(gt, 5) / 10**4)
print(f"  direction-term + tail-term scale along low-variance axes: {bound:.5f}")

print()
print("=== median-of-means comparator ===")
mom = dm.baseline_median_of_means(dm.sample_dataset(gt, 3 * 10**4, 1), 37)
print(f"  worst probe error of one median-of-means fit: "
      f"{np.max(np.abs(probes @ (mom - gt.mu))):.5f}")
print("  (a single radius for all directions cannot be direction-adaptive)")
