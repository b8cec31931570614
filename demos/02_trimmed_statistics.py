#!/usr/bin/env python3
"""Count-based trimming, as the estimator runs it, on one-dimensional data.

Trimming removes a fixed count of extreme values, not values beyond a
preset threshold.  The mean stage drops the k = round(theta n) largest and
smallest of its n block averages (nu_hat_profile); the variance stage drops
the k largest squared projections of its blocked pair differences
(psi_profile).  A few wild observations land in a few blocks, so they cannot
move either estimate, no matter how large they are.
"""

import numpy as np

import dirmean as dm

print("=== the two kernels on four values, as blocks of one row (theta = 0.25, k = 1) ===")
values = np.array([[1.0], [2.0], [3.0], [100.0]])
plan = dict(m=1, n=4, used=4, discarded=0, theta=0.25, trim_per_side=dm.trim_count(0.25, 4))
marg = dm.MarginalMeanEstimator(values, dm.BlockPlan(**plan, purpose="mean"))
var = dm.VarianceEstimator(values, dm.BlockPlan(**plan, purpose="variance"))
print(f"  values {values[:, 0].tolist()}")
print(f"  nu_hat drops 100.0 and 1.0, divides by n - 2k:  {dm.nu_hat_profile(marg, [[1.0]])[0]}")
print(f"  psi drops the largest square, divides by 2n:   {dm.psi_profile(var, [[1.0]])[0]}")

rng = np.random.default_rng(3)
n = 10_000
clean = rng.standard_normal((n, 1))
corrupted = clean.copy()
corrupted[:20] = 1e6  # twenty wild values
e1 = [[1.0]]

print()
print("=== the mean stage under gross corruption (delta = 0.01) ===")
marg = dm.fit_marginal(clean, 0.01)
p = marg.plan
print(f"  {p.n} blocks of m = {p.m} rows, k = round({p.theta} * {p.n}) = {p.trim_per_side} dropped per side")
print(f"  raw mean, clean data:         {clean.mean():+.4f}")
print(f"  raw mean, corrupted data:     {corrupted.mean():+.1f}")
print(f"  nu_hat, clean data:           {dm.nu_hat_profile(marg, e1)[0]:+.4f}")
print(f"  nu_hat, corrupted data:       {dm.nu_hat_profile(dm.fit_marginal(corrupted, 0.01), e1)[0]:+.4f}")

print()
print("=== the variance stage under the same corruption ===")
var = dm.fit_variance(clean)
p = var.plan
print(f"  {p.n} blocks of m = {p.m} pair differences, k = {p.trim_per_side} largest squares dropped")
print(f"  psi, clean data:              {dm.psi_profile(var, e1)[0]:.4f}")
var_bad = dm.fit_variance(corrupted)
print(f"  psi, corrupted data:          {dm.psi_profile(var_bad, e1)[0]:.4f}")
print(f"  corrupted, without trimming:  {np.sum(var_bad.Z**2) / (2 * p.n):.1f}")
print("  (the true variance is 1; psi is a constant-factor estimate, within [1/4, 2] of it)")

print()
print("=== trim-boundary order statistics ===")
q_plus, q_minus = dm.empirical_quantile_hat(clean, 0.1)
print(f"  theta = 0.1 on N(0,1) data: upper boundary {q_plus:+.4f}, lower {q_minus:+.4f}")
print("  true 0.9 / 0.1 quantiles:   +1.2816 / -1.2816")
