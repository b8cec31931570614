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

import contextlib
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .blocks import BlockPlan, block_sums
from .config import REQUIRED, Field, PipelineConfig, check_fields, read_fields, require_int, require_real
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
from .mean import _median, estimate_mean
from .rng import derive_seed, random_unit_rows, stream

ESTIMATORS = ("dirmean", "empirical-mean", "median-of-means")

SCENARIO_FIELDS = {
    "distribution": Field("object", REQUIRED),
    "n_total": Field("size", REQUIRED, least=3),  # the bound terms divide by N = n_total // 3
    "delta": Field("probability", REQUIRED, least=sys.float_info.min),  # 1/delta stays finite
    "trials": Field("size", REQUIRED),
    "estimators": Field("names", ("dirmean", "empirical-mean"), choices=ESTIMATORS),
    "probes": Field("size", None),
    "seed": Field("int", 0),
    "config": Field("object", None),
}

LOWERBOUND_FIELDS = {  # the lowerbound document: the covariance spectrum of gaussian data
    "eigenvalues": Field("reals", REQUIRED, least=0.0),
    "seed": Field("int", 0),
    "n_samples": Field("size", 10000),
    "delta": Field("probability", 0.01, least=sys.float_info.min),  # 1/delta stays finite
    "C": Field("real", 1.0, above=0.0),
    "trials": Field("size", 500),
}


def baseline_empirical_mean(ds) -> np.ndarray:
    """Arithmetic mean of the rows, summed by the estimator's
    :func:`~dirmean.blocks.block_sums`: numpy's mean to the bit at d = 1,
    and to rounding at d >= 2."""
    rows = as_rows(ds)
    if rows.shape[0] == 0:
        raise ValueError("empty dataset")
    return block_sums(rows[np.newaxis])[0] / rows.shape[0]


def baseline_median_of_means(ds, k_blocks: int) -> np.ndarray:
    """Coordinatewise median of k contiguous block means (comparator only),
    summed as in :func:`baseline_empirical_mean`."""
    rows = as_rows(ds)
    n = rows.shape[0]
    if not (1 <= require_int("k_blocks", k_blocks) <= n):
        raise ValueError(f"k_blocks must lie in [1, {n}]")
    m = n // k_blocks
    means = block_sums(rows[: k_blocks * m].reshape(k_blocks, m, -1)) / m
    return _median(means)


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
        check_fields(SCENARIO_FIELDS, {k: v for k, v in vars(self).items() if k not in ("distribution", "config")})
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if self.probes is not None and self.probes < self.distribution.dim:
            raise ValueError(f"probes must be at least the dimension {self.distribution.dim}, got {self.probes}")
        if "median-of-means" in self.estimators and self.mom_blocks > self.n_total:
            raise ValueError(f"delta = {self.delta} needs ceil(8 log(1/delta)) = {self.mom_blocks} median-of-means "
                             f"blocks, more than n_total = {self.n_total}")

    @property
    def n_probes(self) -> int:
        return self.probes if self.probes is not None else max(2 * self.distribution.dim, 16)

    @property
    def mom_blocks(self) -> int:
        """The median-of-means block count ceil(8 log(1/delta))."""
        return math.ceil(8.0 * math.log(1.0 / self.delta))  # at least 1: 1/delta > 1 + 2^-53 for delta < 1

    def to_json_dict(self) -> dict:
        return {**vars(self), "distribution": self.distribution.to_json_dict(),
                "estimators": list(self.estimators), "config": dataclasses.asdict(self.config)}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Scenario":
        f = read_fields("scenario", doc, SCENARIO_FIELDS)
        return cls(**{**f, "distribution": DistributionSpec.from_json_dict(f["distribution"]),
                      "config": PipelineConfig.from_dict(f["config"])})


TRIAL_CSV_COLUMNS = "trial estimator dir_index error sigma_u weak_term strong_term_k1 strong_term_k2".split()


@dataclass
class TrialTable:
    """Signed errors per (trial, estimator, probe direction) with the bound terms.

    ``errors[t, e, j]`` is the error of estimator ``scenario.estimators[e]``
    in trial t along ``directions[j]``.  The direction term and the sigma(u)
    it scales are per direction; the two spectral tail terms are constants.
    ``block_plans`` holds the (mean, variance) plans of the first dirmean
    trial, or None when dirmean is not run.
    """

    scenario: Scenario
    directions: np.ndarray
    errors: np.ndarray
    sigma_u: np.ndarray
    weak_term: np.ndarray
    strong_term_k1: float
    strong_term_k2: float
    k1: int
    k2: int
    block_plans: tuple[BlockPlan, BlockPlan] | None = None

    def __len__(self) -> int:
        return self.errors.size

    @property
    def csv_columns(self) -> list[str]:
        return list(TRIAL_CSV_COLUMNS)

    def csv_rows(self):
        strong = [float(self.strong_term_k1), float(self.strong_term_k2)]
        per_dir = [[float(s), float(w)] for s, w in zip(self.sigma_u, self.weak_term)]
        for t, per_est in enumerate(self.errors):
            for est_name, errs in zip(self.scenario.estimators, per_est):
                for j, err in enumerate(errs.tolist()):
                    yield [t, est_name, j, err, *per_dir[j], *strong]

    def select(self, estimator: str) -> np.ndarray:
        """Errors of one estimator as a (trials, probes) matrix."""
        return self.errors[:, self.scenario.estimators.index(estimator)]


def probe_directions(d: int, count: int, seed: int) -> np.ndarray:
    """Canonical +/- basis directions first, then seeded random units."""
    require_int("d", d, least=1)
    canon = np.vstack([np.eye(d), -np.eye(d)])[: require_int("count", count, least=0)]
    if canon.shape[0] >= count:
        return canon
    extra = random_unit_rows(stream(seed, "probe-directions"), count - canon.shape[0], d)
    return np.vstack([canon, extra])


def _run_single_trial(
    sc: Scenario, gt: GroundTruth, probes: np.ndarray, t: int
) -> tuple[np.ndarray, tuple[BlockPlan, BlockPlan] | None]:
    """(estimators, probes) errors of trial t, and dirmean's block plans if it ran."""
    ds = sample_dataset(gt, sc.n_total, derive_seed(sc.seed, "trial-data", t))
    errors = np.empty((len(sc.estimators), probes.shape[0]))
    plans = None
    for e, est_name in enumerate(sc.estimators):
        if est_name == "dirmean":
            est = estimate_mean(ds, sc.delta, sc.config, seed=derive_seed(sc.seed, "trial-est", t))
            mu_hat = est.mu_hat
            plans = (est.block_plan_mean, est.block_plan_var)  # not est: its slabs are large
        elif est_name == "empirical-mean":
            mu_hat = baseline_empirical_mean(ds)
        else:
            mu_hat = baseline_median_of_means(ds, sc.mom_blocks)
        errors[e] = probes @ (mu_hat - gt.mu)
    return errors, plans


def run_trials(sc: Scenario, threads: int = 1) -> TrialTable:
    """Run the scenario; deterministic for fixed seed, any thread count.

    Each trial derives its own random stream from (seed, trial index) and
    trials are aggregated in index order, so results do not depend on the
    worker pool size.
    """
    require_int("threads", threads, least=1)
    gt = make_ground_truth(sc.distribution)
    probes = probe_directions(gt.dim, sc.n_probes, sc.seed)

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # ~8 ms, so only when a pool runs

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda t: _run_single_trial(sc, gt, probes, t), range(sc.trials)))
    else:
        results = [_run_single_trial(sc, gt, probes, t) for t in range(sc.trials)]

    n_bound = sc.n_total // 3  # the estimator splits its input into thirds
    log_term = math.sqrt(math.log(1.0 / sc.delta) / n_bound)
    k1 = math.ceil(math.log(1.0 / sc.delta))
    k2 = math.ceil(4.0 * math.log(1.0 / sc.delta))
    sigma_u = np.array([directional_sigma(gt, u) for u in probes])
    return TrialTable(
        scenario=sc,
        directions=probes,
        errors=np.stack([errors for errors, _ in results]),
        sigma_u=sigma_u,
        weak_term=sigma_u * log_term,
        strong_term_k1=math.sqrt(tail_eigensum(gt, min(k1, gt.dim)) / n_bound),
        strong_term_k2=math.sqrt(tail_eigensum(gt, min(k2, gt.dim)) / n_bound),
        k1=k1,
        k2=k2,
        block_plans=results[0][1],
    )


@dataclass(frozen=True)
class PerDirectionSummary:
    """High-confidence error quantiles per (estimator, direction)."""

    delta: float
    rows: list[dict]
    fitted_constants: dict[str, dict[str, float]]
    quantile_flagged: bool


def per_direction_quantiles(table: TrialTable, delta: float) -> PerDirectionSummary:
    """(1-delta) error quantiles and normalized ratios per direction.

    The normalized ratio divides the quantile by weak + strong term; the
    fitted constant per estimator is the maximum ratio over directions,
    computed for both tail start ranks.  The quantile is the order
    statistic of rank min(trials, ceil((1 - delta) trials)); with fewer
    than 1/delta trials that is the maximum, and the summary is flagged.
    """
    require_real("delta", delta, 0.0, 1.0)
    if len(table) == 0:
        raise ValueError("empty trial table")
    sc = table.scenario
    n_trials = sc.trials
    idx = min(n_trials - 1, math.ceil((1.0 - delta) * n_trials) - 1)
    rows: list[dict] = []
    fitted: dict[str, dict[str, float]] = {}
    for est_name in sc.estimators:
        q = np.sort(table.select(est_name), axis=0)[idx]  # one quantile per probe direction

        def _ratio(denominator: np.ndarray) -> np.ndarray:
            out = np.zeros_like(q)
            ok = denominator > 0
            out[ok] = q[ok] / denominator[ok]
            out[~ok & (q > 0)] = np.inf  # degenerate bound with positive error
            return out

        ratio1 = _ratio(table.weak_term + table.strong_term_k1)
        ratio2 = _ratio(table.weak_term + table.strong_term_k2)
        for j in range(q.size):
            rows.append(
                {
                    "estimator": est_name,
                    "dir_index": j,
                    "quantile": float(q[j]),
                    "sigma_u": float(table.sigma_u[j]),
                    "ratio_k1": float(ratio1[j]),
                    "ratio_k2": float(ratio2[j]),
                }
            )
        fitted[est_name] = {
            "C_hat_k1": float(np.max(ratio1)),
            "C_hat_k2": float(np.max(ratio2)),
        }
    return PerDirectionSummary(delta=delta, rows=rows, fitted_constants=fitted, quantile_flagged=n_trials * delta < 1)


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
    top_stats: np.ndarray = field(repr=False, default=None)  # repr=False: left out of the JSON report
    complement_stats: np.ndarray = field(repr=False, default=None)


def empirical_mean_lower_bound(
    spectrum: SpectrumSpec, n_samples: int, delta: float, c_assumed: float, trials: int, seed: int
) -> LowerBoundReport:
    """Measure how large the spectral tail term of the empirical mean of
    gaussian data with covariance spectrum ``spectrum`` must be.

    The subspace rank k0 = 1 + (2 C + sqrt(2))^2 log(1/delta) follows from
    assuming the direction term holds with constant C in the top
    eigendirections.
    """
    from scipy import stats  # chi.ppf only; not loaded with the package

    check_fields(LOWERBOUND_FIELDS, {"n_samples": n_samples, "delta": delta, "trials": trials})
    require_real("c_assumed", c_assumed, 0.0)
    lam = np.asarray(spectrum.eigenvalues, dtype=float)
    d = lam.size

    k0 = 1.0 + (2.0 * c_assumed + math.sqrt(2.0)) ** 2 * math.log(1.0 / delta)
    k = min(int(math.floor(k0)), d)
    tail = float(lam[k:].sum())

    rng = stream(seed, "lower-bound")
    g = rng.standard_normal((trials, d))
    top_stats = np.linalg.norm(g[:, :k], axis=1)
    # at k = d the complement is empty: both statistics are 0 and v draws nothing
    complement = np.sqrt((g[:, k:] ** 2 * lam[k:]).sum(axis=1))
    v = random_unit_rows(rng, 64, d - k)  # the sampled surrogate's complement directions
    sampled = np.max((g[:, k:] * np.sqrt(lam[k:])) @ v.T, axis=1)

    level = 1.0 - delta
    top_q = float(np.quantile(top_stats, level))
    comp_q = float(np.quantile(complement, level))
    samp_q = float(np.quantile(sampled, level))
    return LowerBoundReport(
        k0=k0,
        k=k,
        n_samples=n_samples,
        delta=delta,
        c_assumed=float(c_assumed),
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

def _is_record(obj) -> bool:
    return dataclasses.is_dataclass(obj) and not isinstance(obj, type)


def _jsonable(obj):
    """Plain JSON values for a report.

    An object with its own ``to_json_dict`` (the Scenario and DistributionSpec
    round-trips) is written by it; any other dataclass as its fields,
    leaving out those declared ``field(repr=False)`` (bulk arrays); a numpy
    scalar or array as its ``tolist()`` (Python bools, ints, floats, lists).
    """
    if hasattr(obj, "to_json_dict"):
        return _jsonable(obj.to_json_dict())
    if _is_record(obj):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj) if f.repr}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    return obj


def _csv_cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))  # shortest round-trip decimal
    return str(v)


def write_report(report, path: str) -> None:
    """Write a report canonically; identical reports give identical bytes.

    The extension of ``path`` names the format.  ``.json`` (a dict or a
    dataclass, see :func:`_jsonable`): sorted keys, two-space indent,
    shortest round-trip floats.  ``.csv``: the report's declared column
    order (objects exposing ``csv_columns`` / ``csv_rows``).  The text goes
    to ``<path>.tmp`` and is renamed over ``path``; a failed write or rename
    removes the temporary file and raises OSError naming ``path``.
    """
    ext = os.path.splitext(path)[1]
    if ext == ".json":
        if not (isinstance(report, dict) or _is_record(report)):
            raise ValueError(f"cannot serialize {type(report).__name__} to json")
        text = json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n"
    elif ext == ".csv":
        if not hasattr(report, "csv_rows"):
            raise ValueError(f"{type(report).__name__} has no csv representation")
        lines = [",".join(report.csv_columns)]
        for row in report.csv_rows():
            lines.append(",".join(_csv_cell(v) for v in row))
        text = "\n".join(lines) + "\n"
    else:
        raise ValueError(f"cannot tell the report format of {path}: its extension must be .json or .csv")
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise OSError(f"failed writing report to {path}: {exc}") from exc
