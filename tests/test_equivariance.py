"""Equivariance of the whole estimate under translations and signed permutations.

The estimator sees the data only through projections and trimmed means, so
in real arithmetic it commutes with a translation of the rows and with a
signed permutation of their columns.  In floating point a translation moves
the estimate by rounding alone, and so does a signed permutation while the
warm start is feasible (``rho_star = 0``): ``mu_hat`` is then the trimmed
means of the coordinates.  On infeasible systems a signed permutation is
not a symmetry of the finite direction set: the random fill and the refine
probes are drawn in the input's coordinates, so the slab system itself
changes.  That drift is printed (run with ``-s``), not asserted.

All moves are measured in median slab widths of the unmoved estimate.  The
bounds were fixed before the first run, from measurements of an earlier
build (ROADMAP item 13):

- translations moved ``mu_hat`` by at most 1.9e-11 (shift 1e3) and 1.6e-8
  (shift 1e6) median widths on feasible systems at d = 10, and 2.3e-9 and
  2.1e-6 on infeasible ones at d = 10 and 50.  The rounding of a shifted
  projection scales with the shift, so the bound is ``1e-10`` times the
  largest shift entry: 1e-7 at 1e3 and 1e-4 at 1e6, about 45 times the
  largest move seen;
- a signed permutation moved a feasible ``mu_hat`` by at most 7.4e-16
  median widths; the bound is 1e-12.

The datasets are the benchmark's law (elliptical Student-t, 3 degrees of
freedom, eigenvalues ``geomspace(1, 1e-3, d)``) at 3N = 3e4, one fixed seed
each.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from dirmean import DistributionSpec, PipelineConfig, SpectrumSpec, estimate_mean, make_ground_truth, sample_dataset

DELTA = 0.01
N_TOTAL = 30000
FEASIBLE, INFEASIBLE = 1.0, 0.05  # C_prime of a feasible and an infeasible slab system
SHIFT_BOUND = 1e-10  # move in median slab widths, per unit of the largest shift entry
PERMUTATION_BOUND = 1e-12  # move in median slab widths


def shifts(d: int) -> dict[str, np.ndarray]:
    return {"1e3": np.full(d, 1e3), "1e6 linspace": 1e6 * np.linspace(-1.0, 1.0, d)}


@functools.cache
def dataset(d: int) -> np.ndarray:
    spec = DistributionSpec(
        "elliptical-student", SpectrumSpec(tuple(np.geomspace(1.0, 1e-3, d).tolist())), mean=(0.0,) * d, dof=3.0
    )
    rows = sample_dataset(make_ground_truth(spec), N_TOTAL, 20 + d)
    rows.flags.writeable = False
    return rows


def estimate(rows: np.ndarray, c_prime: float):
    return estimate_mean(rows, DELTA, PipelineConfig(C_prime=c_prime), seed=7)


@functools.cache
def base_estimate(d: int, c_prime: float):
    return estimate(dataset(d), c_prime)


def median_width(est) -> float:
    return float(np.median(est.slabs.widths))


@pytest.mark.parametrize("d", [10, 50])
@pytest.mark.parametrize("c_prime", [FEASIBLE, INFEASIBLE], ids=["feasible", "infeasible"])
@pytest.mark.parametrize("name", ["1e3", "1e6 linspace"])
def test_translation_moves_the_estimate_by_rounding(d, c_prime, name):
    base = base_estimate(d, c_prime)
    assert base.converged and (base.rho_star == 0.0) == (c_prime == FEASIBLE)
    shift = shifts(d)[name]
    moved = estimate(dataset(d) + shift, c_prime)
    assert moved.converged
    bound = SHIFT_BOUND * np.abs(shift).max() * median_width(base)
    assert np.abs(moved.mu_hat - shift - base.mu_hat).max() <= bound
    assert abs(moved.rho_star - base.rho_star) <= bound


def signed_permutation(d: int):
    rng = np.random.default_rng(1000 + d)
    return rng.permutation(d), rng.choice([-1.0, 1.0], d)


@pytest.mark.parametrize("d", [10, 50])
def test_signed_permutation_of_a_feasible_system_moves_nothing_but_rounding(d):
    base = base_estimate(d, FEASIBLE)
    perm, signs = signed_permutation(d)
    moved = estimate(dataset(d)[:, perm] * signs, FEASIBLE)
    assert base.rho_star == moved.rho_star == 0.0
    move = np.abs(moved.mu_hat - base.mu_hat[perm] * signs).max()
    assert move <= PERMUTATION_BOUND * median_width(base)


@pytest.mark.parametrize("d", [10, 50])
def test_signed_permutation_drift_on_an_infeasible_system_is_reported(d):
    base = base_estimate(d, INFEASIBLE)
    perm, signs = signed_permutation(d)
    moved = estimate(dataset(d)[:, perm] * signs, INFEASIBLE)
    assert base.converged and moved.converged and base.rho_star > 0.0
    width = median_width(base)
    drift = np.abs(moved.mu_hat - base.mu_hat[perm] * signs).max()
    print(
        f"\nd = {d}, C_prime = {INFEASIBLE}: rho_star {base.rho_star:.4e} -> {moved.rho_star:.4e} "
        f"({(moved.rho_star - base.rho_star) / base.rho_star:+.2%}); mu_hat moved by {drift / width:.3f} "
        f"median slab widths ({drift:.3e}, largest |mu_hat| entry {np.abs(base.mu_hat).max():.3e})"
    )
