"""Flat configuration record shared by the estimation pipeline.

All tuning constants are exposed here with desk-scale defaults; none of
them is asserted to be canonical.  The harness fits and reports achieved
constants instead of trusting these values.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class PipelineConfig:
    # directional-variance estimator
    gamma: float = 0.1          # small-ball level; block size m0 = ceil(c1 / gamma^2)
    c1: float = 1.0             # block-size constant
    theta_var: float = 0.02     # trim fraction for the variance blocks
    trim_mode: str = "absolute"  # 'absolute' or 'signed' trimming of projections
    c0: float = 1.0             # critical-level constant

    # marginal-mean estimator
    theta_mean: float = 0.125   # trim fraction for the mean blocks (1/8)
    c_blocks: float = 8.0       # block-count multiplier: n >= c_blocks * log(e/delta)
    C_prime: float = 1.0        # slab width constant

    # slab system and probe-and-refine loop
    directions: int | None = None   # direction budget; None -> max(8 d, 256)
    refine_rounds: int = 3
    refine_probes: int = 512
    refine_tol: float = 0.1
    refine_append: int = 64         # worst probes appended per refinement round

    # baselines
    mom_blocks: int | None = None   # None -> ceil(8 * log(1/delta))

    def __post_init__(self):
        if self.trim_mode not in ("absolute", "signed"):
            raise ValueError("trim_mode must be 'absolute' or 'signed'")
        for name in ("gamma", "c1", "c0", "c_blocks", "C_prime"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("theta_var", "theta_mean"):
            v = getattr(self, name)
            if not (0.0 < v < 0.5):
                raise ValueError(f"{name} must lie in (0, 1/2)")
        for name, least in (("refine_rounds", 0), ("refine_probes", 1), ("refine_append", 1), ("refine_tol", 0)):
            if not getattr(self, name) >= least:  # also false for NaN
                raise ValueError(f"{name} must be at least {least}")
        if self.mom_blocks is not None and not self.mom_blocks >= 1:
            raise ValueError("mom_blocks must be None or at least 1")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: dict | None) -> "PipelineConfig":
        if not doc:
            return cls()
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)

    def replace(self, **kwargs) -> "PipelineConfig":
        return dataclasses.replace(self, **kwargs)
