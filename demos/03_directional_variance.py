#!/usr/bin/env python3
"""Directional variance estimation from trimmed blocked pair differences.

The estimator needs no centering (pair differences cancel the mean), and
the constant-factor sandwich sigma^2/4 <= estimate <= 2 sigma^2 holds
simultaneously over directions whose variance is above the critical scale
set by the covariance spectrum.
"""

import dataclasses

import numpy as np

import dirmean as dm

d = 12
eigs = (9.0, 4.0, 1.0) + (0.01,) * (d - 3)
spec = dm.DistributionSpec("gaussian", dm.SpectrumSpec(eigs), mean=(5.0,) * d)
gt = dm.make_ground_truth(spec)

ds = dm.sample_dataset(gt, 4 * 10**4, seed=1)
est = dm.fit_variance(ds)
print("=== block geometry ===")
print(f"  {dataclasses.asdict(est.plan)}")

print()
print("=== sandwich along the principal axes ===")
print(f"  {'direction':>10s} {'sigma^2':>10s} {'estimate':>10s} {'ratio':>8s}")
for j in range(5):
    u = np.eye(d)[j]
    s2 = dm.directional_sigma(gt, u) ** 2
    val = dm.psi_profile(est, [u])[0]
    print(f"  {'e_' + str(j + 1):>10s} {s2:10.4f} {val:10.4f} {val / s2:8.3f}")

rng = np.random.default_rng(2)
dirs = rng.standard_normal((500, d))
dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
vals = dm.psi_profile(est, dirs)
true = np.array([dm.directional_sigma(gt, u) ** 2 for u in dirs])
ratios = vals / true
print()
print("=== 500 random directions ===")
print(f"  ratio estimate/sigma^2: min {ratios.min():.3f}, max {ratios.max():.3f}")
print(f"  inside [1/4, 2]: {np.mean((ratios >= 0.25) & (ratios <= 2.0)):.1%}")

print()
print("=== critical scale from the spectrum ===")
d_spike = 128
spike = dm.DistributionSpec(
    "gaussian", dm.SpectrumSpec((1.0,) + (1e-6,) * (d_spike - 1)), mean=(0.0,) * d_spike
)
gt_spike = dm.make_ground_truth(spike)
est_spike = dm.fit_variance(dm.sample_dataset(gt_spike, 10**4, seed=3))
r = dm.critical_level(gt_spike.spectrum, est_spike.plan.n, c0=1.0)
u_small = np.eye(d_spike)[1]
print(f"  spiked spectrum (one eigenvalue 1, the rest 1e-6), {est_spike.plan.n} blocks")
print(f"  r = {r:.2e}; directions with sigma(u) below r carry no sandwich,")
print(f"  only the cap: sigma(e_2) = {dm.directional_sigma(gt_spike, u_small):.2e} <= r, "
      f"estimate = {dm.psi_profile(est_spike, [u_small])[0]:.2e} <= 10 r^2 = {10 * r**2:.2e}")

print()
print("=== trimming caps the damage of corrupted blocks ===")
rows = ds.copy()
rows[:40] += 1e4  # corrupt 40 of 40000 rows
est_bad = dm.fit_variance(rows)
u = np.eye(d)[0]
print(f"  clean estimate along e_1:     {dm.psi_profile(est, [u])[0]:10.4f}")
print(f"  corrupted, with trimming:     {dm.psi_profile(est_bad, [u])[0]:10.4f}")
naive = np.sum((est_bad.Z @ u) ** 2) / (2 * est_bad.plan.n)
print(f"  corrupted, without trimming:  {naive:10.1f}")
