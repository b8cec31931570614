"""Monte Carlo experiment runner, baselines, reports and report writers.

A scenario fixes a distribution, sample size, confidence level and a probe
direction set; trials then resample data, run each estimator, and record
per-direction errors together with the bound components (the direction
term sigma(u) sqrt(log(1/delta)/N) and the spectral tail term at two start
ranks, since the theory leaves the rank constant unspecified).  Fitted
constants are reported, never asserted.

All outputs serialize canonically: JSON with sorted keys, CSV with a
declared column order, floats via shortest round-trip decimals, so
identical runs produce identical bytes.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .config import PipelineConfig
from .distributions import (
    DistributionSpec,
    GroundTruth,
    SpectrumSpec,
    as_rows,
    directional_sigma,
    make_ground_truth,
    sample_dataset,
    tail_eigensum,
)
from .mean import estimate_mean
from .rng import derive_seed, stream

ESTIMATORS = ("dirmean", "empirical-mean", "median-of-means")


def baseline_empirical_mean(ds) -> np.ndarray:
    """Arithmetic mean of the rows."""
    rows = as_rows(ds)
    if rows.shape[0] == 0:
        raise ValueError("empty dataset")
    return rows.mean(axis=0)


def baseline_median_of_means(ds, k_blocks: int) -> np.ndarray:
    """Coordinatewise median of k contiguous block means (comparator only)."""
    rows = as_rows(ds)
    n = rows.shape[0]
    if not (1 <= k_blocks <= n):
        raise ValueError(f"k_blocks must lie in [1, {n}]")
    m = n // k_blocks
    means = rows[: k_blocks * m].reshape(k_blocks, m, -1).mean(axis=1)
    return np.median(means, axis=0)


@dataclass(frozen=True)
class Scenario:
    """One Monte Carlo experiment definition (JSON round-trippable)."""

    distribution: DistributionSpec
    n_total: int
    delta: float
    trials: int
    estimators: tuple[str, ...] = ("dirmean", "empirical-mean")
    probes: int | None = None
    seed: int = 0
    config: PipelineConfig = field(default_factory=PipelineConfig)

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("need at least one trial")
        unknown = set(self.estimators) - set(ESTIMATORS)
        if unknown:
            raise ValueError(f"unknown estimators: {sorted(unknown)}")
        if self.probes is not None and self.probes < self.distribution.dim:
            raise ValueError("probe count must be at least the dimension")

    @property
    def n_probes(self) -> int:
        return self.probes if self.probes is not None else max(2 * self.distribution.dim, 16)

    def to_json_dict(self) -> dict:
        return {
            "distribution": self.distribution.to_json_dict(),
            "n_total": self.n_total,
            "delta": self.delta,
            "trials": self.trials,
            "estimators": list(self.estimators),
            "probes": self.probes,
            "seed": self.seed,
            "config": self.config.to_dict(),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Scenario":
        return cls(
            distribution=DistributionSpec.from_json_dict(doc["distribution"]),
            n_total=int(doc["n_total"]),
            delta=float(doc["delta"]),
            trials=int(doc["trials"]),
            estimators=tuple(doc.get("estimators", ("dirmean", "empirical-mean"))),
            probes=doc.get("probes"),
            seed=int(doc.get("seed", 0)),
            config=PipelineConfig.from_dict(doc.get("config")),
        )


TRIAL_CSV_COLUMNS = [
    "trial",
    "estimator",
    "dir_index",
    "error",
    "sigma_u",
    "weak_term",
    "strong_term_k1",
    "strong_term_k2",
]


@dataclass
class TrialTable:
    """Per-trial, per-direction signed error records."""

    scenario: Scenario
    directions: np.ndarray
    trial: np.ndarray
    estimator: list[str]
    dir_index: np.ndarray
    error: np.ndarray
    sigma_u: np.ndarray
    weak_term: np.ndarray
    strong_term_k1: np.ndarray
    strong_term_k2: np.ndarray
    k1: int
    k2: int

    def __len__(self) -> int:
        return self.error.size

    @property
    def csv_columns(self) -> list[str]:
        return list(TRIAL_CSV_COLUMNS)

    def csv_rows(self):
        for i in range(len(self)):
            yield [
                int(self.trial[i]),
                self.estimator[i],
                int(self.dir_index[i]),
                float(self.error[i]),
                float(self.sigma_u[i]),
                float(self.weak_term[i]),
                float(self.strong_term_k1[i]),
                float(self.strong_term_k2[i]),
            ]

    def select(self, estimator: str) -> np.ndarray:
        """Errors of one estimator as a (trials, probes) matrix."""
        mask = np.array([e == estimator for e in self.estimator])
        n_dirs = self.directions.shape[0]
        errs = self.error[mask]
        return errs.reshape(-1, n_dirs)


def probe_directions(d: int, count: int, seed: int) -> np.ndarray:
    """Canonical +/- basis directions first, then seeded random units."""
    canon = np.vstack([np.eye(d), -np.eye(d)])[:count]
    if canon.shape[0] >= count:
        return canon
    rng = stream(seed, "probe-directions")
    extra = rng.standard_normal((count - canon.shape[0], d))
    extra /= np.linalg.norm(extra, axis=1, keepdims=True)
    return np.vstack([canon, extra])


def _run_single_trial(sc: Scenario, gt: GroundTruth, probes: np.ndarray, t: int) -> dict[str, np.ndarray]:
    ds = sample_dataset(gt, sc.n_total, derive_seed(sc.seed, "trial-data", t))
    out: dict[str, np.ndarray] = {}
    for est_name in sc.estimators:
        if est_name == "dirmean":
            est = estimate_mean(ds, sc.delta, sc.config, seed=derive_seed(sc.seed, "trial-est", t))
            mu_hat = est.mu_hat
        elif est_name == "empirical-mean":
            mu_hat = baseline_empirical_mean(ds)
        else:
            k_blocks = sc.config.mom_blocks or max(1, math.ceil(8.0 * math.log(1.0 / sc.delta)))
            mu_hat = baseline_median_of_means(ds, k_blocks)
        out[est_name] = probes @ (mu_hat - gt.mu)
    return out


def run_trials(sc: Scenario, threads: int = 1) -> TrialTable:
    """Run the scenario; deterministic for fixed seed, any thread count.

    Each trial derives its own random stream from (seed, trial index) and
    trials are aggregated in index order, so results do not depend on the
    worker pool size.
    """
    gt = make_ground_truth(sc.distribution)
    probes = probe_directions(gt.dim, sc.n_probes, sc.seed)
    n_dirs = probes.shape[0]

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda t: _run_single_trial(sc, gt, probes, t), range(sc.trials)))
    else:
        results = [_run_single_trial(sc, gt, probes, t) for t in range(sc.trials)]

    n_bound = sc.n_total // 3  # the estimator splits its input into thirds
    log_term = math.sqrt(math.log(1.0 / sc.delta) / n_bound)
    k1 = math.ceil(math.log(1.0 / sc.delta))
    k2 = math.ceil(4.0 * math.log(1.0 / sc.delta))
    sigma_u = np.array([directional_sigma(gt, u) for u in probes])
    weak = sigma_u * log_term
    strong1 = math.sqrt(tail_eigensum(gt, min(k1, gt.dim)) / n_bound)
    strong2 = math.sqrt(tail_eigensum(gt, min(k2, gt.dim)) / n_bound)

    n_rows = sc.trials * len(sc.estimators) * n_dirs
    trial_col = np.empty(n_rows, dtype=int)
    est_col: list[str] = []
    dir_col = np.empty(n_rows, dtype=int)
    err_col = np.empty(n_rows)
    sig_col = np.empty(n_rows)
    weak_col = np.empty(n_rows)
    s1_col = np.empty(n_rows)
    s2_col = np.empty(n_rows)
    i = 0
    for t, per_est in enumerate(results):
        for est_name in sc.estimators:
            errs = per_est[est_name]
            sl = slice(i, i + n_dirs)
            trial_col[sl] = t
            est_col.extend([est_name] * n_dirs)
            dir_col[sl] = np.arange(n_dirs)
            err_col[sl] = errs
            sig_col[sl] = sigma_u
            weak_col[sl] = weak
            s1_col[sl] = strong1
            s2_col[sl] = strong2
            i += n_dirs
    return TrialTable(
        scenario=sc,
        directions=probes,
        trial=trial_col,
        estimator=est_col,
        dir_index=dir_col,
        error=err_col,
        sigma_u=sig_col,
        weak_term=weak_col,
        strong_term_k1=s1_col,
        strong_term_k2=s2_col,
        k1=k1,
        k2=k2,
    )


@dataclass(frozen=True)
class PerDirectionSummary:
    """High-confidence error quantiles per (estimator, direction)."""

    delta: float
    rows: list[dict]
    fitted_constants: dict[str, dict[str, float]]
    quantile_flagged: bool

    def to_json_dict(self) -> dict:
        return {
            "delta": self.delta,
            "quantile_flagged": self.quantile_flagged,
            "fitted_constants": self.fitted_constants,
            "rows": self.rows,
        }


def per_direction_quantiles(table: TrialTable, delta: float) -> PerDirectionSummary:
    """(1-delta) error quantiles and normalized ratios per direction.

    The normalized ratio divides the quantile by weak + strong term; the
    fitted constant per estimator is the maximum ratio over directions,
    computed for both tail start ranks.  With fewer than 1/delta trials
    the order statistic does not exist, so the maximum is reported and
    flagged.
    """
    if len(table) == 0:
        raise ValueError("empty trial table")
    sc = table.scenario
    n_trials = sc.trials
    flagged = n_trials * delta < 1.0
    rows: list[dict] = []
    fitted: dict[str, dict[str, float]] = {}
    estimators = list(dict.fromkeys(table.estimator))
    n_dirs = table.directions.shape[0]
    for est_name in estimators:
        errs = table.select(est_name)  # (trials, n_dirs)
        if flagged:
            q = errs.max(axis=0)
        else:
            order = np.sort(errs, axis=0)
            idx = min(n_trials - 1, math.ceil((1.0 - delta) * n_trials) - 1)
            q = order[idx]
        sig = table.sigma_u[:n_dirs]
        weak = table.weak_term[:n_dirs]
        s1 = table.strong_term_k1[:n_dirs]
        s2 = table.strong_term_k2[:n_dirs]

        def _ratio(denominator: np.ndarray) -> np.ndarray:
            out = np.zeros_like(q)
            ok = denominator > 0
            out[ok] = q[ok] / denominator[ok]
            out[~ok & (q > 0)] = np.inf  # degenerate bound with positive error
            return out

        ratio1 = _ratio(weak + s1)
        ratio2 = _ratio(weak + s2)
        for j in range(n_dirs):
            rows.append(
                {
                    "estimator": est_name,
                    "dir_index": j,
                    "quantile": float(q[j]),
                    "sigma_u": float(sig[j]),
                    "ratio_k1": float(ratio1[j]),
                    "ratio_k2": float(ratio2[j]),
                }
            )
        fitted[est_name] = {
            "C_hat_k1": float(np.max(ratio1)),
            "C_hat_k2": float(np.max(ratio2)),
        }
    return PerDirectionSummary(delta=delta, rows=rows, fitted_constants=fitted, quantile_flagged=flagged)


@dataclass(frozen=True)
class LowerBoundReport:
    """Outcome of the empirical-mean lower-bound experiment.

    For gaussian data the rescaled error sqrt(N) (mean_N - mu) is exactly
    N(0, Sigma), so both statistics are measured from direct draws: the
    top-subspace statistic is the norm of the first k standardized
    coordinates (chi with k degrees of freedom) and the complement
    statistic the exact supremum of <Y, u> over the complement sphere.
    """

    k0: float
    k: int
    n_samples: int
    delta: float
    c_assumed: float
    trials: int
    top_quantile: float
    top_chi_oracle: float
    concentration_floor: float
    complement_quantile: float
    complement_sampled_quantile: float
    tail_sum: float
    strong_term_proxy: float
    strong_term_bound: float
    top_stats: np.ndarray = field(repr=False, default=None)
    complement_stats: np.ndarray = field(repr=False, default=None)

    def to_json_dict(self) -> dict:
        return {
            "k0": float(self.k0),
            "k": int(self.k),
            "n_samples": int(self.n_samples),
            "delta": float(self.delta),
            "c_assumed": float(self.c_assumed),
            "trials": int(self.trials),
            "top_quantile": float(self.top_quantile),
            "top_chi_oracle": float(self.top_chi_oracle),
            "concentration_floor": float(self.concentration_floor),
            "complement_quantile": float(self.complement_quantile),
            "complement_sampled_quantile": float(self.complement_sampled_quantile),
            "tail_sum": float(self.tail_sum),
            "strong_term_proxy": float(self.strong_term_proxy),
            "strong_term_bound": float(self.strong_term_bound),
        }


def empirical_mean_lower_bound(
    spec, n_samples: int, delta: float, c_assumed: float, trials: int, seed: int, n_sampled_dirs: int = 64
) -> LowerBoundReport:
    """Measure how large the spectral tail term of the empirical mean must be.

    ``spec`` is a SpectrumSpec (or a gaussian DistributionSpec).  The
    subspace rank k0 = 1 + (2 C + sqrt(2))^2 log(1/delta) follows from
    assuming the direction term holds with constant C in the top
    eigendirections.
    """
    from scipy import stats  # chi.ppf only; not loaded with the package

    if isinstance(spec, DistributionSpec):
        if spec.family != "gaussian":
            raise ValueError("lower-bound experiment is defined for gaussian data only")
        spectrum = spec.spectrum
    elif isinstance(spec, SpectrumSpec):
        spectrum = spec
    else:
        spectrum = SpectrumSpec(tuple(np.asarray(spec, dtype=float)))
    lam = np.asarray(spectrum.eigenvalues, dtype=float)
    d = lam.size

    k0 = 1.0 + (2.0 * c_assumed + math.sqrt(2.0)) ** 2 * math.log(1.0 / delta)
    k = min(int(math.floor(k0)), d)
    tail = float(lam[k:].sum())

    rng = stream(seed, "lower-bound")
    g = rng.standard_normal((trials, d))
    top_stats = np.linalg.norm(g[:, :k], axis=1)
    if k < d:
        complement = np.sqrt((g[:, k:] ** 2 * lam[k:]).sum(axis=1))
        v = rng.standard_normal((n_sampled_dirs, d - k))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        y_comp = g[:, k:] * np.sqrt(lam[k:])
        sampled = np.max(y_comp @ v.T, axis=1)
    else:
        complement = np.zeros(trials)
        sampled = np.zeros(trials)

    level = 1.0 - delta
    top_q = float(np.quantile(top_stats, level))
    comp_q = float(np.quantile(complement, level))
    samp_q = float(np.quantile(sampled, level))
    return LowerBoundReport(
        k0=k0,
        k=k,
        n_samples=n_samples,
        delta=delta,
        c_assumed=c_assumed,
        trials=trials,
        top_quantile=top_q,
        top_chi_oracle=float(stats.chi.ppf(level, k)) if k > 0 else 0.0,
        concentration_floor=max(math.sqrt(max(k0 - 1.0, 0.0)) - math.sqrt(2.0 * math.log(1.0 / delta)), 0.0),
        complement_quantile=comp_q,
        complement_sampled_quantile=samp_q,
        tail_sum=tail,
        strong_term_proxy=comp_q / math.sqrt(n_samples),
        strong_term_bound=math.sqrt(tail / n_samples),
        top_stats=top_stats,
        complement_stats=complement,
    )


# ---------------------------------------------------------------------------
# canonical report writing
# ---------------------------------------------------------------------------

def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):  # before int: bool is an int subtype
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _csv_cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))  # shortest round-trip decimal
    return str(v)


def write_report(report, path: str, format: str = "json") -> None:
    """Write a report canonically; identical reports give identical bytes.

    JSON: sorted keys, two-space indent, shortest round-trip floats.
    CSV: the report's declared column order (objects exposing
    ``csv_columns`` / ``csv_rows``).
    """
    if format == "json":
        if hasattr(report, "to_json_dict"):
            doc = report.to_json_dict()
        elif isinstance(report, dict):
            doc = report
        else:
            raise ValueError(f"cannot serialize {type(report).__name__} to json")
        text = json.dumps(_jsonable(doc), sort_keys=True, indent=2) + "\n"
    elif format == "csv":
        if not hasattr(report, "csv_rows"):
            raise ValueError(f"{type(report).__name__} has no csv representation")
        lines = [",".join(report.csv_columns)]
        for row in report.csv_rows():
            lines.append(",".join(_csv_cell(v) for v in row))
        text = "\n".join(lines) + "\n"
    else:
        raise ValueError(f"unknown report format {format!r}")
    try:
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(f"failed writing report to {path}: {exc}") from exc
