#!/usr/bin/env python3
"""Empirical audits of the regularity facts the estimator relies on.

Each check compares a sample against its exact law: multiplicative control
of tail frequencies, additive control of interval frequencies, the
quantile sandwich for the trim boundaries, and the small-ball regularity
of block averages.
"""

import numpy as np
from scipy import stats

import dirmean as dm

rng = np.random.default_rng(8)
n = 10_000
delta_param, theta = 0.005, 0.035

print("=== ratio conditions on a standard normal sample ===")
sample = rng.standard_normal(n)
rep = dm.check_ratio_conditions(sample, stats.norm(), delta_param, theta)
print(f"  dyadic tail-ratio worst margin:   {rep.tail_ratio_worst:+.4f}  (<= 0 holds)")
print(f"  interval excess worst margin:     {rep.interval_excess_worst:+.4f}  (<= 0 holds)")
print(f"  balance floor eta = {rep.eta:.3f}, satisfied: {rep.balanced_ok}")
print(f"  all three conditions hold:        {rep.holds}")

print()
print("=== the same check detects a broken sample ===")
bad = np.abs(rng.standard_normal(n))  # one-sided data vs a symmetric law
rep_bad = dm.check_ratio_conditions(bad, stats.norm(), delta_param, theta)
print(f"  one-sided sample: tail-ratio margin {rep_bad.tail_ratio_worst:+.2f}, holds = {rep_bad.holds}")

print()
print("=== quantile sandwich for the trim boundaries ===")
theta1 = 2 * theta + 8 * delta_param
theta2 = (2 * theta - 8 * delta_param) / 3
q_plus, q_minus = dm.empirical_quantile_hat(sample, theta)
print(f"  derived levels: theta1 = {theta1:.3f}, theta2 = {theta2:.4f}")
print(f"  upper boundary {q_plus:+.4f} in ({stats.norm.ppf(1 - theta1):+.4f}, {stats.norm.ppf(1 - theta2):+.4f})")
print(f"  sandwich holds: {dm.quantile_sandwich_check(sample, stats.norm(), theta, delta_param)}")

print()
print("=== uniform ratio margins over sampled directions ===")
spec = dm.DistributionSpec("gaussian", dm.SpectrumSpec((2.0, 1.0, 0.5)), mean=(0.0,) * 3)
gt = dm.make_ground_truth(spec)
ds = dm.sample_dataset(gt, 2 * 5000, seed=9)
z = dm.pair_block_averages(ds, 1)
ratio_rep = dm.check_uniform_ratios(z, gt, 0.02, r=0.0, n_dirs=50, seed=10)
print(f"  pass fraction over 50 directions: {ratio_rep.pass_fraction:.2f}")
print(f"  worst tail margin {ratio_rep.tail_margins.max():+.4f}, "
      f"worst interval margin {ratio_rep.interval_margins.max():+.4f}")

print()
print("=== small-ball facts for block averages (m = 400) ===")
for name, spec in (
    ("gaussian", dm.DistributionSpec("gaussian", dm.SpectrumSpec((1.0,)), mean=(0.0,))),
    ("student(3)", dm.DistributionSpec("elliptical-student", dm.SpectrumSpec((1.0,)), mean=(0.0,), dof=3.0)),
):
    sb = dm.small_ball_check(dm.make_ground_truth(spec), m=400, gamma=0.05, trials=50_000, seed=11)
    print(f"  {name:10s} sign balance {sb.sign_prob_pos:.3f}/{sb.sign_prob_neg:.3f} (>= 1/4), "
          f"Lq/L2 {sb.lq_l2_ratio:.3f} <= {sb.lq_l2_bound:.3f}, small-ball L = {sb.small_ball_L:.3f}")
