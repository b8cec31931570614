"""Input field tables, the one reader that applies them, and the pipeline's
configuration record.

Each input document is declared once, as a table mapping each field to a
:class:`Field` (kind, bounds, default).  :func:`read_fields` applies a table
to a JSON object and :func:`check_fields` to a record's own values, so both
paths name the field in every error.  Values are checked, never converted.
The tuning constants have desk-scale defaults, none asserted canonical: the
harness fits and reports the achieved constants instead.
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


def require_real(name: str, value, above: float = -math.inf, below: float = math.inf, least: float | None = None):
    """``value`` when it is a real number (bool and strings not) in the open
    interval (above, below), or in [least, below) when ``least`` is given;
    else a ValueError naming ``name`` and that interval.  NaN fails the
    range test too, and so does an infinity at the default bounds."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and value < below and (above < value if least is None else least <= value)):
        low = f"({above:g}" if least is None else f"[{least:g}"
        raise ValueError(f"{name} must lie in {low}, {below:g}), got {value!r}")
    return value


REQUIRED = object()  # the default of a field that a document must set


class Field:
    """One document field.

    Kinds: ``int``; ``size`` (an int of at least 1); ``real`` (finite, in
    the open interval (above, below)); ``probability`` (a real in (0, 1));
    ``reals`` (a nonempty list or 1-d array of reals); ``name`` (one of
    ``choices``); ``names`` (a list of one or more distinct ``choices``);
    ``object`` (read with the nested table ``fields``, if given).
    ``least`` is an inclusive floor on a number or on each entry of
    ``reals``: on a size it replaces 1, and on a real or probability it
    replaces ``above``, so the errors name that floor, or the interval
    [least, below).  A None default admits null.  A plain class: a
    dataclass would add ~1.6 ms to every start-up.
    """

    def __init__(self, kind: str, default=REQUIRED, *, least=None, above=-math.inf, below=math.inf, choices=(),
                 fields: dict | None = None):
        self.kind, self.default, self.least, self.above, self.below = kind, default, least, above, below
        self.choices, self.fields = choices, fields

    def check(self, name: str, value):
        """``value`` when it meets this field (an object with nested
        ``fields`` comes back read); else a ValueError naming ``name``."""
        if value is None and self.default is None:
            return value
        if self.kind == "object":
            require_object(name, value)
            return value if self.fields is None else read_fields(name, value, self.fields, name + ".")
        if self.kind == "name":
            if not isinstance(value, str) or value not in self.choices:
                raise ValueError(f"{name} must be one of {list(self.choices)}, got {value!r}")
            return value
        if self.kind == "names":
            listed = isinstance(value, (list, tuple)) and all(isinstance(v, str) and v in self.choices for v in value)
            if not listed or not value or len(set(value)) < len(value):
                raise ValueError(f"{name} must be a list of one or more distinct names from {list(self.choices)}, "
                                 f"got {value!r}")
            return value
        if self.kind == "reals":
            if not (isinstance(value, (list, tuple)) or getattr(value, "ndim", None) == 1) or len(value) == 0:
                raise ValueError(f"{name} must be a nonempty list of real numbers, got {value!r}")
            entry = Field("real", least=self.least, above=self.above, below=self.below)
            for i, v in enumerate(value):
                entry.check(f"{name}[{i}]", v)
            return value
        if self.kind in ("real", "probability"):
            above, below = (0.0, 1.0) if self.kind == "probability" else (self.above, self.below)
            return require_real(name, value, above, below, self.least)
        return require_int(name, value, 1 if self.least is None and self.kind == "size" else self.least)


def check_fields(table: dict, values: dict, prefix: str = "") -> dict:
    """``values`` (a subset of the table's fields) when each meets its
    :class:`Field`; else a ValueError naming the first that does not, as
    ``prefix + key``.  Nested objects come back read."""
    return {key: table[key].check(prefix + key, value) for key, value in values.items()}


def read_fields(name: str, doc, table: dict, prefix: str = "") -> dict:
    """Every field of ``table`` read from the JSON object ``doc`` (the
    section called ``name``), absent ones at their defaults; an unknown
    key, a missing required field or a bad value is a ValueError naming it."""
    require_object(name, doc)
    unknown = set(doc) - set(table)
    if unknown:
        raise ValueError(f"unknown {name} keys: {sorted(unknown)}")
    missing = [key for key, f in table.items() if f.default is REQUIRED and key not in doc]
    if missing:
        raise ValueError(f"{name} is missing required fields: {missing}")
    return check_fields(table, {key: doc.get(key, f.default) for key, f in table.items()}, prefix)


def setting(default, kind: str, **bounds):
    """A record field with ``default``, declared in its table as ``Field(kind, default, **bounds)``."""
    return dataclasses.field(default=default, metadata={"field": Field(kind, default, **bounds)})


@dataclass(frozen=True)
class PipelineConfig:
    # directional-variance estimator
    m0: int = setting(100, "size")  # smallest variance block size, the paper's ceil(c1 / gamma^2)
    theta_var: float = setting(0.02, "real", above=0.0, below=0.5)  # trim fraction for the variance blocks

    # marginal-mean estimator
    theta_mean: float = setting(0.125, "real", above=0.0, below=0.5)  # trim fraction for the mean blocks (1/8)
    c_blocks: float = setting(8.0, "real", above=0.0)  # block-count multiplier: n >= c_blocks * log(e/delta)
    C_prime: float = setting(1.0, "real", above=0.0)  # slab width constant

    def __post_init__(self):
        check_fields(CONFIG_FIELDS, vars(self))

    @classmethod
    def from_dict(cls, doc: dict | None) -> "PipelineConfig":
        return cls() if doc is None else cls(**read_fields("config", doc, CONFIG_FIELDS))


CONFIG_FIELDS = {f.name: f.metadata["field"] for f in dataclasses.fields(PipelineConfig)}
