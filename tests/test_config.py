import math

import pytest

from dirmean import PipelineConfig


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
        ],
    )
    def test_rejected_with_field_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            PipelineConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("refine_rounds", 0), ("refine_probes", 1), ("refine_append", 1), ("refine_tol", 0.0), ("mom_blocks", 1)],
    )
    def test_smallest_valid_values_accepted(self, field, value):
        assert getattr(PipelineConfig(**{field: value}), field) == value

    def test_mom_blocks_none_is_the_default(self):
        assert PipelineConfig().mom_blocks is None

    def test_from_dict_validates(self):
        with pytest.raises(ValueError, match="refine_probes"):
            PipelineConfig.from_dict({"refine_probes": 0})
