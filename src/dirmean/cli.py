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
from .config import PipelineConfig, require_int, require_object, require_probability, require_real
from .distributions import (
    Dataset,
    DistributionSpec,
    NoAnalyticOracleError,
    make_ground_truth,
    marginal_oracle,
    sample_dataset,
    sample_marginal,
)
from .harness import (
    Scenario,
    empirical_mean_lower_bound,
    per_direction_quantiles,
    run_trials,
    write_report,
)
from .mean import estimate_mean
from .rng import derive_seed
from .trimmed import trim_count

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SIZING = 2
EXIT_IO = 3


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


def _load_config_doc(path: str | None) -> dict:
    if path is None:
        raise UsageError("--config is required")
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"invalid JSON in {path}: {exc}") from exc
    return require_object(f"config document {path}", doc)


def _ensure_outdir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="path to the JSON configuration")
    sub.add_argument("--seed", type=int, default=None, help="64-bit master seed")
    sub.add_argument("--out", default=".", help="output directory")
    sub.add_argument("--threads", type=int, default=None, help="worker threads")


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
    doc = _load_config_doc(args.config)
    if "distribution" not in doc:
        raise UsageError("estimate config needs a 'distribution' entry")
    spec = DistributionSpec.from_json_dict(doc["distribution"])
    delta = require_probability("delta", doc.get("delta", 0.01))
    config = PipelineConfig.from_dict(doc.get("config"))
    seed = args.seed if args.seed is not None else require_int("seed", doc.get("seed", 0))

    if getattr(args, "data", None):
        rows = read_dataset_csv(args.data)
        ds = Dataset(rows, seed=None, spec=spec)
    else:
        n_total = doc.get("n_total")
        if n_total is None:
            raise UsageError("estimate config needs 'n_total' when no --data is given")
        gt = make_ground_truth(spec)
        ds = sample_dataset(gt, require_int("n_total", n_total, 1), derive_seed(seed, "estimate-data"))

    est = estimate_mean(ds, delta, config, seed=derive_seed(seed, "estimate"))
    out = _ensure_outdir(args.out)
    write_report(est, os.path.join(out, "estimate.json"), "json")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    doc = _load_config_doc(args.config)
    if args.seed is not None:
        doc = {**doc, "seed": args.seed}
    sc = Scenario.from_json_dict(doc)
    table = run_trials(sc, threads=_resolve_threads(args))
    summary = {"scenario": sc, "summary": per_direction_quantiles(table, sc.delta)}
    if table.block_plans is not None:  # the block geometry dirmean used, for auditability
        summary["block_plan_mean"], summary["block_plan_var"] = table.block_plans
    out = _ensure_outdir(args.out)
    write_report(table, os.path.join(out, "trials.csv"), "csv")
    write_report(summary, os.path.join(out, "summary.json"), "json")
    return EXIT_OK


def _cmd_diagnose(args) -> int:
    from .diagnostics import (  # ~7 ms to load, and only this command runs it
        check_ratio_conditions,
        check_uniform_ratios,
        quantile_sandwich_check,
        small_ball_check,
    )

    doc = _load_config_doc(args.config)
    if "distribution" not in doc:
        raise UsageError("diagnose config needs a 'distribution' entry")
    spec = DistributionSpec.from_json_dict(doc["distribution"])
    sb_doc = require_object("small_ball", doc.get("small_ball", {}))
    un_doc = require_object("uniform", doc.get("uniform", {}))
    gt = make_ground_truth(spec)
    seed = args.seed if args.seed is not None else require_int("seed", doc.get("seed", 0))
    n = require_int("n", doc.get("n", 10000), 1)
    delta_param = require_probability("delta_param", doc.get("delta_param", 0.005))
    if "theta" in doc:
        theta = require_real("theta", doc["theta"], 0.0, 0.5)
    else:
        theta = 7 * delta_param
    # quantile_sandwich_check's levels 2 theta + 8 delta_param and (2 theta - 8 delta_param) / 3
    # must lie in (0, 1); checked before any sampling
    if not (7 * delta_param <= theta and 2 * theta + 8 * delta_param < 1):
        if "theta" in doc:
            usable = (
                f"at most theta / 7 = {theta / 7} and below (1 - 2 theta) / 8 = {(1 - 2 * theta) / 8} "
                f"for theta = {theta}"
            )
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
    out = _ensure_outdir(args.out)

    u = np.eye(gt.dim)[0]
    sample = sample_marginal(gt, u, n, derive_seed(seed, "diagnose-sample"))
    try:
        oracle = marginal_oracle(gt, u)
    except NoAnalyticOracleError as exc:
        raise UsageError(str(exc)) from exc
    ratio_rep = check_ratio_conditions(sample, oracle, delta_param, theta)
    sandwich_ok = quantile_sandwich_check(sample, oracle, theta, delta_param)
    write_report(
        {"ratio_conditions": ratio_rep, "quantile_sandwich": sandwich_ok},
        os.path.join(out, "ratio_conditions.json"),
        "json",
    )

    sb = small_ball_check(
        gt,
        m=require_int("small_ball.m", sb_doc.get("m", 400), 1),
        gamma=require_probability("small_ball.gamma", sb_doc.get("gamma", 0.05)),
        trials=require_int("small_ball.trials", sb_doc.get("trials", 20000), 1),
        seed=derive_seed(seed, "diagnose-smallball"),
    )
    write_report(sb, os.path.join(out, "small_ball.json"), "json")

    if spec.family == "gaussian":
        n_pairs = require_int("uniform.n_pairs", un_doc.get("n_pairs", n), 1)
        block_m = require_int("uniform.block_m", un_doc.get("block_m", 1), 1)
        ds = sample_dataset(gt, 2 * n_pairs, derive_seed(seed, "diagnose-uniform"))
        z = pair_block_averages(ds, block_m)
        rep = check_uniform_ratios(
            z,
            gt,
            delta_param,
            r=require_real("uniform.r", un_doc.get("r", 0.0)),
            n_dirs=require_int("uniform.n_dirs", un_doc.get("n_dirs", 50), 1),
            seed=derive_seed(seed, "diagnose-dirs"),
        )
        write_report(rep, os.path.join(out, "uniform_ratios.json"), "json")
        write_report(rep, os.path.join(out, "uniform_ratios.csv"), "csv")
    return EXIT_OK


def _cmd_lowerbound(args) -> int:
    doc = _load_config_doc(args.config)
    if "eigenvalues" in doc:
        spec = doc["eigenvalues"]
    elif "distribution" in doc:
        spec = DistributionSpec.from_json_dict(doc["distribution"])
    else:
        raise UsageError("lowerbound config needs 'eigenvalues' or a gaussian 'distribution'")
    seed = args.seed if args.seed is not None else require_int("seed", doc.get("seed", 0))
    rep = empirical_mean_lower_bound(
        spec,
        n_samples=require_int("n_samples", doc.get("n_samples", 10000), 1),
        delta=require_probability("delta", doc.get("delta", 0.01)),
        c_assumed=require_real("C", doc.get("C", 1.0), 0.0),
        trials=require_int("trials", doc.get("trials", 500), 1),
        seed=derive_seed(seed, "lowerbound"),
    )
    out = _ensure_outdir(args.out)
    write_report(rep, os.path.join(out, "lowerbound.json"), "json")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="dirmean", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command")
    p_est = subs.add_parser("estimate", help="estimate the mean of a dataset")
    _add_common(p_est)
    p_est.add_argument("--data", help="dataset CSV (one observation per row)")
    p_sim = subs.add_parser("simulate", help="run a Monte Carlo scenario")
    _add_common(p_sim)
    p_diag = subs.add_parser("diagnose", help="run the diagnostics suite")
    _add_common(p_diag)
    p_low = subs.add_parser("lowerbound", help="run the lower-bound experiment")
    _add_common(p_low)
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


cli_main = main

if __name__ == "__main__":
    sys.exit(main())
