import math
import re

import numpy as np
import pytest

from dirmean import (DistributionSpec, PipelineConfig, Scenario, SpectrumSpec, check_ratio_conditions,
                     check_uniform_ratios, critical_level, empirical_mean_lower_bound, empirical_quantile_hat,
                     make_ground_truth, marginal_oracle, per_direction_quantiles, plan_blocks, probe_directions,
                     quantile_sandwich_check, run_trials, sample_dataset, sample_marginal, slab_width_profile,
                     small_ball_check, student_kappa, tail_eigensum)
from dirmean.config import Field, require_int, require_real
from dirmean.diagnostics import check_uniform_r

SPEC = DistributionSpec("gaussian", SpectrumSpec((1.0, 0.5)), (0.0, 0.0))
GT = make_ground_truth(SPEC)
E1 = np.array([1.0, 0.0])
SCENARIO = Scenario(SPEC, n_total=30, delta=0.05, trials=2, estimators=("empirical-mean",))

# each library function's scalar arguments, checked by require_int / require_real:
# a call with one bad value, and the error it raises
SCALAR_REFUSALS = {
    "plan_blocks-theta": (lambda: plan_blocks(1000, 0.1, 0.5, "mean"), "theta_mean must lie in (0, 0.5), got 0.5"),
    "plan_blocks-delta": (lambda: plan_blocks(1000, None, 0.125, "mean"), "delta must lie in (0, 1), got None"),
    "slab_width_profile-delta": (lambda: slab_width_profile(None, np.eye(2), 1.0, 1.0, 10),
                                 "delta must lie in (0, 1), got 1.0"),
    "sample_dataset-float": (lambda: sample_dataset(GT, 2.5, 0), "n must be an integer, got 2.5"),
    "sample_dataset-zero": (lambda: sample_dataset(GT, 0, 0), "n must be at least 1, got 0"),
    "tail_eigensum-float": (lambda: tail_eigensum(GT, 1.5), "k must be an integer, got 1.5"),
    "tail_eigensum-negative": (lambda: tail_eigensum(GT, -1), "k must be at least 0, got -1"),
    "tail_eigensum-above-d": (lambda: tail_eigensum(GT, 3), "k must be at most d = 2, got 3"),
    "student_kappa-q": (lambda: student_kappa(5.0, 5.0), "q must lie in (2, 5), got 5.0"),
    "critical_level-float": (lambda: critical_level(GT.spectrum, 2.5, 0.1), "n must be an integer, got 2.5"),
    "critical_level-c0": (lambda: critical_level(GT.spectrum, 10, 0.0), "c0 must lie in (0, inf), got 0.0"),
    "small_ball_check-m": (lambda: small_ball_check(GT, 2.0, 0.05, 200, 0), "m must be an integer, got 2.0"),
    "small_ball_check-trials": (lambda: small_ball_check(GT, 4, 0.05, 99, 0), "trials must be at least 100, got 99"),
    "small_ball_check-gamma": (lambda: small_ball_check(GT, 4, math.nan, 200, 0),
                               "gamma must lie in (0, inf), got nan"),
    "small_ball_check-xi": (lambda: small_ball_check(GT, 4, 0.05, 200, 0, xi=-1.0),
                            "xi must lie in (0, inf), got -1.0"),
    "check_uniform_ratios-delta_param": (lambda: check_uniform_ratios(np.zeros((10, 2)), GT, 5.0, 0.0, 0, 0),
                                         "delta_param must lie in (0, 0.5), got 5.0"),
    "check_uniform_ratios-n_dirs": (lambda: check_uniform_ratios(np.zeros((10, 2)), GT, 0.02, 0.0, -1, 0),
                                    "n_dirs must be at least 0, got -1"),
    "empirical_quantile_hat-theta": (lambda: empirical_quantile_hat(np.arange(10.0), 0.5),
                                     "theta must lie in (0, 0.5), got 0.5"),
    "check_ratio_conditions-delta": (lambda: check_ratio_conditions(np.arange(10.0), None, 0.5, 0.1),
                                     "delta must lie in (0, 0.5), got 0.5"),
    "check_ratio_conditions-theta": (lambda: check_ratio_conditions(np.arange(10.0), None, 0.01, math.nan),
                                     "theta must lie in (0, 0.5), got nan"),
    "per_direction_quantiles-delta": (lambda: per_direction_quantiles(run_trials(SCENARIO), 1.5),
                                      "delta must lie in (0, 1), got 1.5"),
    "quantile_sandwich_check-delta": (lambda: quantile_sandwich_check(np.arange(100.0), marginal_oracle(GT, E1), 0.07,
                                                                      -0.01), "delta must lie in (0, 1), got -0.01"),
    "empirical_mean_lower_bound-c_assumed": (lambda: empirical_mean_lower_bound(GT.spectrum, 1000, 0.05, -5.0, 100, 0),
                                             "c_assumed must lie in (0, inf), got -5.0"),
    "probe_directions-d": (lambda: probe_directions(0, 1, 0), "d must be at least 1, got 0"),
    "probe_directions-count": (lambda: probe_directions(3, -1, 0), "count must be at least 0, got -1"),
    "marginal_oracle-scale": (lambda: marginal_oracle(GT, E1, scale=-1.0), "scale must lie in (0, inf), got -1.0"),
    "run_trials-threads": (lambda: run_trials(SCENARIO, threads=0), "threads must be at least 1, got 0"),
    "check_uniform_r-r": (lambda: check_uniform_r(GT, math.nan), "r must lie in (-inf, inf), got nan"),
    "sample_marginal-n": (lambda: sample_marginal(GT, E1, 2.5, 1), "n must be an integer, got 2.5"),
}


@pytest.mark.parametrize("call, message", list(SCALAR_REFUSALS.values()), ids=list(SCALAR_REFUSALS))
def test_scalar_argument_refusal_names_the_argument_and_value(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


class TestRefineAndBaselineFields:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("m0", 0),
            ("m0", 100.0),
            ("m0", True),
        ],
    )
    def test_rejected_with_field_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            PipelineConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("m0", 1),
            ("m0", np.int64(64)),
        ],
    )
    def test_smallest_valid_values_accepted(self, field, value):
        assert getattr(PipelineConfig(**{field: value}), field) == value

    def test_from_dict_validates(self):
        with pytest.raises(ValueError, match="m0"):
            PipelineConfig.from_dict({"m0": 0})

    @pytest.mark.parametrize("key, value", [("trim_mode", "absolute"), ("c0", 1.0), ("gamma", 0.1), ("c1", 1.0),
                                            ("refine_tol", 0.1), ("refine_append", 64), ("mom_blocks", 5),
                                            ("directions", 300), ("refine_rounds", 1), ("refine_probes", 64)])
    def test_removed_keys_are_unknown(self, key, value):
        with pytest.raises(ValueError, match=f"unknown config keys: \\['{key}'\\]"):
            PipelineConfig.from_dict({key: value})


class TestFieldChecks:
    @pytest.mark.parametrize("value, least", [(0, 1), (-5, 1), (2, 3), (np.int64(0), 1)])
    def test_int_below_least_names_the_field(self, value, least):
        with pytest.raises(ValueError, match=f"^size must be at least {least}, got {value}$"):
            require_int("size", value, least)

    @pytest.mark.parametrize("value, least", [(1, 1), (3, 3), (-5, None), (np.int64(7), 1)])
    def test_int_at_least_least_is_returned(self, value, least):
        assert require_int("size", value, least) is value

    @pytest.mark.parametrize(
        "field, value, least", [(Field("size"), 0, 1), (Field("size", least=3), 2, 3),
                                (Field("size", least=100), 0, 100), (Field("int", least=0), -1, 0)],
        ids=["size", "size-least-3", "size-least-100", "int-least-0"],
    )
    def test_int_field_names_its_floor_and_the_value(self, field, value, least):
        with pytest.raises(ValueError, match=f"^n must be at least {least}, got {value}$"):
            field.check("n", value)

    @pytest.mark.parametrize("field, value", [(Field("int"), -5), (Field("size", least=3), 3), (Field("size"), 1)],
                             ids=["int", "size-least-3", "size"])
    def test_int_field_at_its_floor_is_returned(self, field, value):
        assert field.check("n", value) is value

    @pytest.mark.parametrize("value", [0.0, 1.0, -0.5, 2, math.nan, math.inf, True, "0.01", None])
    def test_probability_outside_open_unit_interval_names_the_field(self, value):
        with pytest.raises(ValueError, match="^level must lie in \\(0, 1\\), got "):
            Field("probability").check("level", value)

    @pytest.mark.parametrize("value", [0.01, 0.5, np.float64(0.99), 5e-324])
    def test_probability_in_range_is_returned(self, value):
        assert Field("probability").check("level", value) is value

    @pytest.mark.parametrize(
        "value, above, below",
        [(math.inf, -math.inf, math.inf), (math.nan, -math.inf, math.inf), ("1.0", -math.inf, math.inf),
         (False, -math.inf, math.inf), (0.0, 0.0, math.inf), (0.5, 0.0, 0.5), (np.float64(-1.0), 0.0, 0.5)],
    )
    def test_real_outside_open_interval_names_the_field(self, value, above, below):
        with pytest.raises(ValueError, match=f"^r must lie in \\({above:g}, {below:g}\\), got "):
            require_real("r", value, above, below)

    @pytest.mark.parametrize("value", [0, -3.5, 1e308, np.float64(0.25), np.int64(2)])
    def test_finite_real_is_returned(self, value):
        assert require_real("r", value) is value
