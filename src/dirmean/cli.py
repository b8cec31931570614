"""Command-line entry points.

Subcommands
-----------
estimate    read a dataset CSV (or generate one from a distribution spec)
            and emit the mean estimate as JSON.
simulate    run a Monte Carlo scenario; emits the trial table CSV plus a
            summary JSON with per-direction quantiles and fitted constants.
diagnose    run the ratio / sandwich / small-ball diagnostics for a spec.
lowerbound  run the empirical-mean lower-bound experiment.

Exit codes: 0 success, 1 usage error, 2 infeasible sizing, 3 I/O error.
All failures print a single line ``ERROR <code>: <message>`` to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings

import numpy as np

from .blocks import SizingError, pair_block_averages
from .config import REQUIRED, Field, PipelineConfig, read_fields, require_int, require_object
from .distributions import (Dataset, DistributionSpec, make_ground_truth, marginal_oracle, sample_dataset,
                            sample_marginal)
from .harness import (LOWERBOUND_FIELDS, Scenario, empirical_mean_lower_bound, per_direction_quantiles, run_trials,
                      write_report)
from .mean import estimate_mean
from .rng import derive_seed
from .trimmed import trim_count

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SIZING = 2
EXIT_IO = 3


ESTIMATE_FIELDS = {
    "distribution": Field("object", REQUIRED),
    "n_total": Field("size", None),  # needed unless --data gives the rows
    "delta": Field("probability", 0.01),
    "seed": Field("int", 0),
    "config": Field("object", None),
}

DIAGNOSE_FIELDS = {
    "distribution": Field("object", REQUIRED),
    "seed": Field("int", 0),
    "n": Field("size", 10000),
    "delta_param": Field("probability", 0.005),
    "theta": Field("real", None, above=0.0, below=0.5),  # null: 7 delta_param
    "small_ball": Field("object", {}, fields={
        "m": Field("size", 400),
        "gamma": Field("probability", 0.05),
        "trials": Field("size", 20000, least=100),  # small_ball_check's floor
    }),
    "uniform": Field("object", {}, fields={
        "n_pairs": Field("size", None),  # null: n
        "block_m": Field("size", 1),
        "r": Field("real", 0.0),
        "n_dirs": Field("size", 50),
    }),
}


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def write_dataset_csv(rows: np.ndarray, path: str) -> None:
    """Full double precision via shortest round-trip decimals."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in np.atleast_2d(rows):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_dataset_csv(path: str) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
        rows = np.loadtxt(path, delimiter=",", ndmin=2)
    if rows.size == 0:
        raise UsageError(f"data file {path} holds no rows")
    return rows


def _load_config_doc(args) -> dict:
    """The --config document, its seed replaced by --seed when that is given."""
    path = args.config
    if path is None:
        raise UsageError("--config is required")
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"invalid JSON in {path}: {exc}") from exc
    require_object(f"config document {path}", doc)
    return doc if args.seed is None else {**doc, "seed": args.seed}


def _write(args, report, name: str) -> None:
    """Write ``report`` to ``name`` in the --out directory, in the format its extension names."""
    os.makedirs(args.out, exist_ok=True)
    write_report(report, os.path.join(args.out, name), os.path.splitext(name)[1][1:])


def _resolve_threads(args) -> int:
    if args.threads is not None:
        return require_int("--threads", args.threads, 1)
    env = os.environ.get("DIRMEAN_THREADS")
    if env:
        try:
            threads = int(env)
        except ValueError as exc:
            raise UsageError(f"bad DIRMEAN_THREADS value: {env!r}") from exc
        return require_int("DIRMEAN_THREADS", threads, 1)
    return 1


def _cmd_estimate(args) -> int:
    doc = read_fields("estimate", _load_config_doc(args), ESTIMATE_FIELDS)
    spec = DistributionSpec.from_json_dict(doc["distribution"])
    config = PipelineConfig.from_dict(doc["config"])
    seed = doc["seed"]

    if getattr(args, "data", None):
        rows = read_dataset_csv(args.data)
        ds = Dataset(rows, seed=None, spec=spec)
    else:
        if doc["n_total"] is None:
            raise UsageError("estimate config needs 'n_total' when no --data is given")
        ds = sample_dataset(make_ground_truth(spec), doc["n_total"], derive_seed(seed, "estimate-data"))

    _write(args, estimate_mean(ds, doc["delta"], config, seed=derive_seed(seed, "estimate")), "estimate.json")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    sc = Scenario.from_json_dict(_load_config_doc(args))
    table = run_trials(sc, threads=_resolve_threads(args))
    summary = {"scenario": sc, "summary": per_direction_quantiles(table, sc.delta)}
    if table.block_plans is not None:  # the block geometry dirmean used, for auditability
        summary["block_plan_mean"], summary["block_plan_var"] = table.block_plans
    _write(args, table, "trials.csv")
    _write(args, summary, "summary.json")
    return EXIT_OK


def _cmd_diagnose(args) -> int:
    # ~7 ms to load, and only this command runs it
    from .diagnostics import check_ratio_conditions, check_uniform_ratios, quantile_sandwich_check, small_ball_check

    doc = read_fields("diagnose", _load_config_doc(args), DIAGNOSE_FIELDS)
    spec = DistributionSpec.from_json_dict(doc["distribution"])
    gt = make_ground_truth(spec)
    seed = doc["seed"]
    n, delta_param, theta = doc["n"], doc["delta_param"], doc["theta"]
    if theta is None:
        theta = 7 * delta_param
    # quantile_sandwich_check's levels 2 theta + 8 delta_param and (2 theta - 8 delta_param) / 3
    # must lie in (0, 1); checked before any sampling
    if not (7 * delta_param <= theta and 2 * theta + 8 * delta_param < 1):
        if doc["theta"] is not None:
            usable = (f"at most theta / 7 = {theta / 7} and below (1 - 2 theta) / 8 = {(1 - 2 * theta) / 8} "
                      f"for theta = {theta}")
        else:
            usable = "below 1/22 (~0.04545) at the default theta = 7 delta_param"
        raise UsageError(
            f"delta_param = {delta_param} is too large: the quantile sandwich needs theta >= 7 delta_param "
            f"and 2 theta + 8 delta_param < 1, so delta_param must be {usable}"
        )
    if trim_count(theta, n) < 1:
        least = max(1, math.ceil(0.5 / theta) - 1)  # within one of the smallest n; step past rounding
        while trim_count(theta, least) < 1:
            least += 1
        raise UsageError(
            f"n = {n} is too small for theta = {theta}: the trim count round(theta n) "
            f"must be at least 1, so n must be at least {least}"
        )

    u = np.eye(gt.dim)[0]
    sample = sample_marginal(gt, u, n, derive_seed(seed, "diagnose-sample"))
    oracle = marginal_oracle(gt, u)  # a NoAnalyticOracleError is a ValueError: exit 1
    ratio_rep = check_ratio_conditions(sample, oracle, delta_param, theta)
    sandwich_ok = quantile_sandwich_check(sample, oracle, theta, delta_param)
    _write(args, {"ratio_conditions": ratio_rep, "quantile_sandwich": sandwich_ok}, "ratio_conditions.json")

    sb = doc["small_ball"]
    sb = small_ball_check(gt, sb["m"], sb["gamma"], sb["trials"], seed=derive_seed(seed, "diagnose-smallball"))
    _write(args, sb, "small_ball.json")

    if spec.family == "gaussian":
        un = doc["uniform"]
        n_pairs = n if un["n_pairs"] is None else un["n_pairs"]
        ds = sample_dataset(gt, 2 * n_pairs, derive_seed(seed, "diagnose-uniform"))
        z = pair_block_averages(ds, un["block_m"])
        rep = check_uniform_ratios(
            z, gt, delta_param, r=un["r"], n_dirs=un["n_dirs"], seed=derive_seed(seed, "diagnose-dirs")
        )
        _write(args, rep, "uniform_ratios.json")
        _write(args, rep, "uniform_ratios.csv")
    return EXIT_OK


def _cmd_lowerbound(args) -> int:
    doc = read_fields("lowerbound", _load_config_doc(args), LOWERBOUND_FIELDS)
    if (doc["eigenvalues"] is None) == (doc["distribution"] is None):
        raise UsageError("lowerbound config needs exactly one of 'eigenvalues' and a gaussian 'distribution'")
    spec = doc["eigenvalues"]
    if spec is None:
        spec = DistributionSpec.from_json_dict(doc["distribution"])
    seed = doc["seed"]
    rep = empirical_mean_lower_bound(
        spec,
        n_samples=doc["n_samples"],
        delta=doc["delta"],
        c_assumed=doc["C"],
        trials=doc["trials"],
        seed=derive_seed(seed, "lowerbound"),
    )
    _write(args, rep, "lowerbound.json")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="dirmean", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command")
    for name, text in (("estimate", "estimate the mean of a dataset"), ("simulate", "run a Monte Carlo scenario"),
                       ("diagnose", "run the diagnostics suite"), ("lowerbound", "run the lower-bound experiment")):
        sub = subs.add_parser(name, help=text)
        sub.add_argument("--config", help="path to the JSON configuration")
        sub.add_argument("--seed", type=int, default=None, help="64-bit master seed")
        sub.add_argument("--out", default=".", help="output directory")
        sub.add_argument("--threads", type=int, default=None, help="worker threads")
        if name == "estimate":
            sub.add_argument("--data", help="dataset CSV (one observation per row)")
    return parser


_COMMANDS = {
    "estimate": _cmd_estimate,
    "simulate": _cmd_simulate,
    "diagnose": _cmd_diagnose,
    "lowerbound": _cmd_lowerbound,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required (estimate, simulate, diagnose, lowerbound)")
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"ERROR {EXIT_USAGE}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SizingError as exc:
        print(f"ERROR {EXIT_SIZING}: {exc}", file=sys.stderr)
        return EXIT_SIZING
    except (ValueError, KeyError, TypeError) as exc:
        print(f"ERROR {EXIT_USAGE}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"ERROR {EXIT_IO}: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
