"""Every field of every input document table, fed each class of bad value
through the CLI: each exits 1, before any output is written, with one
``ERROR 1:`` line that names the field.  So do an unknown key in every
section and a missing required field."""

import copy
import json
import math

import pytest

from dirmean.cli import DIAGNOSE_FIELDS, ESTIMATE_FIELDS, main
from dirmean.config import CONFIG_FIELDS, REQUIRED
from dirmean.distributions import CONTAMINATION_FIELDS, DISTRIBUTION_FIELDS
from dirmean.harness import LOWERBOUND_FIELDS, SCENARIO_FIELDS

GAUSS = {"family": "gaussian", "eigenvalues": [1.0, 1.0], "rotation_seed": 3, "mean": [0.0, 0.0], "dof": 5.0,
         "shape": 0.5, "contamination": None}
CONTAMINATED = dict(GAUSS, family="gaussian-with-point-contamination",
                    contamination={"fraction": 0.1, "offset": [1.0, 1.0]})
TINY = {"m0": 1, "theta_var": 0.25, "theta_mean": 0.125, "c_blocks": 8.0, "C_prime": 1.0}
VALID = {  # command: a valid document
    "estimate": {"distribution": CONTAMINATED, "n_total": 1800, "delta": 0.05, "seed": 1, "config": TINY},
    "simulate": {"distribution": GAUSS, "n_total": 1800, "delta": 0.05, "trials": 1,
                 "estimators": ["dirmean", "median-of-means"], "probes": 4, "seed": 1, "config": TINY},
    "diagnose": {"distribution": GAUSS, "seed": 1, "n": 400, "delta_param": 0.005, "theta": 0.05,
                 "small_ball": {"m": 4, "trials": 200, "gamma": 0.05},
                 "uniform": {"n_pairs": 300, "block_m": 2, "r": 0.0, "n_dirs": 3}},
    "lowerbound": {"eigenvalues": [1.0, 0.5], "distribution": None, "seed": 1, "n_samples": 1000, "delta": 0.05,
                   "C": 1.0, "trials": 300},
}

# section: (command, the keys down to the section in its valid document, the section's table, its name prefix)
SECTIONS = {
    "config": ("estimate", ("config",), CONFIG_FIELDS, ""),
    "estimate": ("estimate", (), ESTIMATE_FIELDS, ""),
    "distribution": ("estimate", ("distribution",), DISTRIBUTION_FIELDS, ""),
    "contamination": ("estimate", ("distribution", "contamination"), CONTAMINATION_FIELDS, "contamination."),
    "scenario": ("simulate", (), SCENARIO_FIELDS, ""),
    "diagnose": ("diagnose", (), DIAGNOSE_FIELDS, ""),
    "small_ball": ("diagnose", ("small_ball",), DIAGNOSE_FIELDS["small_ball"].fields, "small_ball."),
    "uniform": ("diagnose", ("uniform",), DIAGNOSE_FIELDS["uniform"].fields, "uniform."),
    "lowerbound": ("lowerbound", (), LOWERBOUND_FIELDS, ""),
}

NON_NUMBERS = [[1.0], {"a": 1}, "1", True]
NON_FINITE = [math.nan, math.inf, -math.inf]


def out_of_range(field):
    """Values just outside the field's bounds."""
    if field.kind == "probability":
        return [0.0, 1.0]
    values = [] if field.least is None else [field.least - 1]
    if field.kind == "size":
        values.append(0)
    return values + [bound for bound in (field.above, field.below) if math.isfinite(bound)]


def bad_values(field, valid):
    """Each class of bad value for ``field``, whose valid value is ``valid``."""
    values = [] if field.default is None else [None]
    if field.kind in ("int", "size"):
        return values + NON_NUMBERS + NON_FINITE + [1.5] + out_of_range(field)
    if field.kind in ("real", "probability"):
        return values + NON_NUMBERS + NON_FINITE + out_of_range(field)
    if field.kind == "reals":
        entries = [None, [1.0], "1", True] + NON_FINITE + out_of_range(field)
        return values + [{"a": 1}, "1", True, 5, []] + [[entry] + valid[1:] for entry in entries]
    if field.kind == "name":
        return values + [[valid], {"a": 1}, 5, True, "bogus"]
    if field.kind == "names":
        return values + [{"a": 1}, valid[0], 5, True, [[valid[0]]], ["bogus"], [5], valid + valid[:1], []]
    return values + [[1], "x", 5, True]  # object


def section_of(doc, keys):
    for key in keys:
        doc = doc[key]
    return doc


def with_section(doc, keys, update):
    """A deep copy of ``doc`` with ``update`` applied to the section down ``keys``."""
    doc = copy.deepcopy(doc)
    update(section_of(doc, keys))
    return doc


def cases():
    for name, (command, keys, table, prefix) in SECTIONS.items():
        doc = VALID[command]
        for field_name, field in table.items():
            for i, value in enumerate(bad_values(field, section_of(doc, keys)[field_name])):
                bad = with_section(doc, keys, lambda s: s.__setitem__(field_name, value))
                yield pytest.param(command, bad, prefix + field_name, id=f"{name}-{field_name}-{i}-{value!r}")
            if field.default is REQUIRED:
                bad = with_section(doc, keys, lambda s: s.pop(field_name))
                yield pytest.param(command, bad, field_name, id=f"{name}-{field_name}-missing")
        bad = with_section(doc, keys, lambda s: s.__setitem__("detla", 0.05))
        yield pytest.param(command, bad, "detla", id=f"{name}-unknown-key")


def run(tmp_path, capsys, command, doc):
    cfg = tmp_path / "doc.json"
    cfg.write_text(json.dumps(doc))
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("command", list(VALID))
def test_valid_document_runs(tmp_path, capsys, command):
    assert run(tmp_path, capsys, command, VALID[command]) == (0, "")


def assert_rejected_naming(tmp_path, capsys, command, doc, field):
    code, err = run(tmp_path, capsys, command, doc)
    assert code == 1 and err.startswith("ERROR 1: ") and err.count("\n") == 1, err
    assert field in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, doc, field", list(cases()))
def test_bad_field_exits_1_naming_it(tmp_path, capsys, command, doc, field):
    assert_rejected_naming(tmp_path, capsys, command, doc, field)


def with_config(**config):
    return dict(VALID["estimate"], config=dict(TINY, **config))


# documents whose fields each pass their table but break a rule that joins fields or the data size
CROSS_FIELD = [
    ("simulate", dict(VALID["simulate"], probes=1), "probes"),  # fewer probes than d = 2
    ("diagnose", dict(VALID["diagnose"], delta_param=0.01), "delta_param"),  # theta = 0.05 < 7 delta_param
    ("estimate", with_config(c_blocks=1e308), "c_blocks"),
    ("estimate", with_config(theta_var=0.3), "theta_var"),  # 0.3 ceil(1/0.3) is not an integer
    ("estimate", with_config(theta_mean=0.3), "theta_mean"),
    ("estimate", dict(VALID["estimate"], distribution=dict(CONTAMINATED, contamination=dict(
        CONTAMINATED["contamination"], offset=[1.0]))), "contamination.offset"),  # d = 2 eigenvalues
    ("simulate", dict(VALID["simulate"], distribution=dict(GAUSS, mean=[0.0])), "mean"),  # d = 2 eigenvalues
    ("simulate", dict(VALID["simulate"], n_total=30, delta=1e-5), "delta"),  # median-of-means needs 93 blocks
    ("lowerbound", dict(VALID["lowerbound"], distribution=GAUSS), "eigenvalues"),
    ("lowerbound", dict(VALID["lowerbound"], eigenvalues=None), "eigenvalues"),
]


@pytest.mark.parametrize("command, doc, field", CROSS_FIELD)
def test_cross_field_rule_exits_1_naming_it(tmp_path, capsys, command, doc, field):
    assert_rejected_naming(tmp_path, capsys, command, doc, field)
