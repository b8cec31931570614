"""Direction-dependent robust mean estimation for heavy-tailed data.

The estimator splits 3N observations into thirds, estimates every
directional variance by trimmed blocked pair differences, estimates every
marginal mean by trimmed block averages, and returns a point lying in the
intersection of the resulting slabs with minimal slack.  Along every
direction whose variance is not too small, the error behaves like the
optimal one-dimensional rate sigma(u) sqrt(log(1/delta) / N) plus a global
spectral-tail term.
"""

import importlib

__version__ = "0.1.0"

# every public name -> the submodule that defines it; a name is imported on
# first access (PEP 562), so ``import dirmean`` loads none of the submodules
_SOURCES = {
    name: module
    for module, names in {
        "blocks": "BlockPlan SizingError block_averages pair_block_averages plan_mean_blocks plan_variance_blocks "
        "trim_count",
        "config": "PipelineConfig",
        "diagnostics": "RatioConditionReport RatioReport SmallBallReport check_ratio_conditions "
        "check_uniform_ratios empirical_quantile_hat interval_excess_sup quantile_sandwich_check "
        "small_ball_alpha small_ball_check",
        "distributions": "DistributionSpec GroundTruth NoAnalyticOracleError SpectrumSpec "
        "directional_sigma make_ground_truth marginal_oracle sample_dataset sample_marginal student_kappa "
        "tail_eigensum",
        "harness": "LowerBoundReport PerDirectionSummary Scenario TrialTable baseline_empirical_mean "
        "baseline_median_of_means empirical_mean_lower_bound per_direction_quantiles probe_directions "
        "run_trials write_report",
        "mean": "MarginalMeanEstimator MeanEstimate SlabSystem SolveResult build_direction_set estimate_mean "
        "fit_marginal nu_hat_profile slab_width_profile solve_center",
        "rng": "derive_seed stream",
        "variance": "VarianceEstimator critical_level fit_variance psi_profile",
    }.items()
    for name in names.split()
}
_SUBMODULES = {*_SOURCES.values(), "cli"}

__all__ = sorted(_SOURCES)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")  # the import binds it here
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCES[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
