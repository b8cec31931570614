"""Flat configuration record shared by the estimation pipeline.

All tuning constants are exposed here with desk-scale defaults; none of
them is asserted to be canonical.  The harness fits and reports achieved
constants instead of trusting these values.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass


def require_int(name: str, value, least: int | None = None):
    """``value`` when it is an integer (numpy integers too, bool not) of at
    least ``least``; else a ValueError naming ``name``, so a float is never
    silently truncated and a bad size never reaches the code it would break."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return value


def require_object(name: str, value) -> dict:
    """``value`` when it is a JSON object (a dict); else a ValueError naming
    ``name``, so a list or null section never reaches the ``.get`` or the
    key lookup it would break."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {value!r}")
    return value


def require_real(name: str, value, above: float = -math.inf, below: float = math.inf):
    """``value`` when it is a real number (bool and strings not) in the open
    interval (above, below); else a ValueError naming ``name``.  NaN fails
    the range test too, and so does an infinity at the default bounds."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not above < value < below:
        raise ValueError(f"{name} must lie in ({above:g}, {below:g}), got {value!r}")
    return value


def require_probability(name: str, value):
    """:func:`require_real` on (0, 1)."""
    return require_real(name, value, 0.0, 1.0)


@dataclass(frozen=True)
class PipelineConfig:
    # directional-variance estimator
    gamma: float = 0.1          # small-ball level; block size m0 = ceil(c1 / gamma^2)
    c1: float = 1.0             # block-size constant
    theta_var: float = 0.02     # trim fraction for the variance blocks

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
        for name in ("directions", "refine_rounds", "refine_probes", "refine_append", "mom_blocks"):
            v = getattr(self, name)
            if v is not None or name not in ("directions", "mom_blocks"):
                require_int(name, v)
        for name in ("gamma", "c1", "c_blocks", "C_prime"):
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
        if doc is None:
            return cls()
        require_object("config", doc)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)

    def replace(self, **kwargs) -> "PipelineConfig":
        return dataclasses.replace(self, **kwargs)
