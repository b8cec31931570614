import math

import numpy as np
import pytest

from dirmean import PipelineConfig
from dirmean.config import Field, require_int, require_real


class TestRefineAndBaselineFields:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("refine_rounds", -1),
            ("refine_probes", 0),
            ("refine_append", 0),
            ("refine_append", -1),
            ("refine_tol", -0.1),
            ("refine_tol", math.nan),
            ("mom_blocks", 0),
            ("mom_blocks", -3),
            ("directions", 300.5),
            ("directions", True),
            ("refine_rounds", 1.5),
            ("refine_rounds", 2.0),
            ("refine_probes", 64.5),
            ("refine_probes", True),
            ("refine_append", 2.5),
            ("mom_blocks", 2.5),
            ("mom_blocks", False),
        ],
    )
    def test_rejected_with_field_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            PipelineConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("refine_rounds", 0),
            ("refine_probes", 1),
            ("refine_append", 1),
            ("refine_tol", 0.0),
            ("mom_blocks", 1),
            ("directions", 300),
            ("refine_probes", np.int64(64)),
        ],
    )
    def test_smallest_valid_values_accepted(self, field, value):
        assert getattr(PipelineConfig(**{field: value}), field) == value

    def test_mom_blocks_none_is_the_default(self):
        assert PipelineConfig().mom_blocks is None

    def test_from_dict_validates(self):
        with pytest.raises(ValueError, match="refine_probes"):
            PipelineConfig.from_dict({"refine_probes": 0})

    @pytest.mark.parametrize("key, value", [("trim_mode", "absolute"), ("c0", 1.0)])
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
