"""Direction-dependent robust mean estimation for heavy-tailed data.

The estimator splits 3N observations into thirds, estimates every
directional variance by trimmed blocked pair differences, estimates every
marginal mean by trimmed block averages, and returns a point lying in the
intersection of the resulting slabs with minimal slack.  Along every
direction whose variance is not too small, the error behaves like the
optimal one-dimensional rate sigma(u) sqrt(log(1/delta) / N) plus a global
spectral-tail term.
"""

from .blocks import (
    BlockPlan,
    SizingError,
    block_averages,
    pair_block_averages,
    pair_differences,
    plan_blocks,
)
from .config import PipelineConfig
from .diagnostics import (
    RatioConditionReport,
    RatioReport,
    SmallBallReport,
    check_ratio_conditions,
    check_uniform_ratios,
    interval_excess_sup,
    quantile_sandwich_check,
    small_ball_alpha,
    small_ball_check,
)
from .distributions import (
    Dataset,
    DistributionSpec,
    GroundTruth,
    NoAnalyticOracleError,
    SpectrumSpec,
    directional_sigma,
    jitter,
    make_ground_truth,
    marginal_oracle,
    marginal_tail_prob,
    sample_dataset,
    sample_marginal,
    student_kappa,
    tail_eigensum,
)
from .harness import (
    LowerBoundReport,
    PerDirectionSummary,
    Scenario,
    TrialTable,
    baseline_empirical_mean,
    baseline_median_of_means,
    empirical_mean_lower_bound,
    per_direction_quantiles,
    probe_directions,
    run_trials,
    write_report,
)
from .mean import (
    MarginalMeanEstimator,
    MeanEstimate,
    SlabSystem,
    SolveResult,
    build_direction_set,
    estimate_mean,
    fit_marginal,
    nu_hat,
    nu_hat_profile,
    slab_width,
    slab_width_profile,
    solve_center,
)
from .rng import derive_seed, stream
from .trimmed import (
    SortedSample,
    TrimPlan,
    empirical_quantile_hat,
    rearrange_desc,
    trim_count,
    trim_sets,
    trimmed_abs_moment,
    trimmed_mean,
)
from .variance import VarianceEstimator, critical_level, fit_variance, psi, psi_profile

__version__ = "0.1.0"

__all__ = [
    "BlockPlan",
    "Dataset",
    "DistributionSpec",
    "GroundTruth",
    "LowerBoundReport",
    "MarginalMeanEstimator",
    "MeanEstimate",
    "NoAnalyticOracleError",
    "PerDirectionSummary",
    "PipelineConfig",
    "RatioConditionReport",
    "RatioReport",
    "Scenario",
    "SizingError",
    "SlabSystem",
    "SmallBallReport",
    "SolveResult",
    "SortedSample",
    "SpectrumSpec",
    "TrialTable",
    "TrimPlan",
    "VarianceEstimator",
    "baseline_empirical_mean",
    "baseline_median_of_means",
    "block_averages",
    "build_direction_set",
    "check_ratio_conditions",
    "check_uniform_ratios",
    "critical_level",
    "derive_seed",
    "directional_sigma",
    "empirical_mean_lower_bound",
    "empirical_quantile_hat",
    "estimate_mean",
    "fit_marginal",
    "fit_variance",
    "interval_excess_sup",
    "jitter",
    "make_ground_truth",
    "marginal_oracle",
    "marginal_tail_prob",
    "nu_hat",
    "nu_hat_profile",
    "pair_block_averages",
    "pair_differences",
    "per_direction_quantiles",
    "plan_blocks",
    "probe_directions",
    "psi",
    "psi_profile",
    "quantile_sandwich_check",
    "rearrange_desc",
    "run_trials",
    "sample_dataset",
    "sample_marginal",
    "slab_width",
    "slab_width_profile",
    "small_ball_alpha",
    "small_ball_check",
    "solve_center",
    "stream",
    "student_kappa",
    "tail_eigensum",
    "trim_count",
    "trim_sets",
    "trimmed_abs_moment",
    "trimmed_mean",
    "write_report",
]
