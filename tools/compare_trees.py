"""Check that two checkouts of dirmean give the same bytes.

    python tools/compare_trees.py OLD NEW

Each tree runs in a subprocess with ``PYTHONPATH=<tree>/src`` and
``OPENBLAS_NUM_THREADS=1``.  It estimates the 18 entries of the benchmark's
library pools (every ``perfbench.workloads.LIBRARY`` workload, pool seeds 1
and 2, built as ``LibraryWorkload.setup`` builds them, one dataset at a time)
and the 6 of a ``d1`` pool built the same way from the benchmark's law at
d = 1, 3N = 3e4, and runs nine CLI configs: one of them a d = 1 estimate, one
an estimate whose config sets m0, both trim fractions and c_blocks away from
their defaults, so that each block planner is seen to read its own config
fields, and one an estimate with 300 variance blocks, whose projection panels
step by 96 rows, which do not divide a 256-row refine probe panel (the
1000-block runs step by 32 rows).
Estimate fields and slab arrays are compared by their bytes, so a move in
the last digit counts.  Every one that differs is printed, with the largest
absolute change and that change relative to the largest magnitude in the
old value, and so is every output file that differs: a JSON file by each
dotted key path (list entries by index) whose value changed, appeared or
vanished, any other file as "bytes".  The exit code is 1 if anything
differs.  Each tree's ``tracemalloc`` peak of each pool estimate is printed
too, for information only: it does not count as a difference.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GAUSS3 = {"family": "gaussian", "eigenvalues": [1.0, 0.5, 0.25], "mean": [1.0, 0.0, -2.0]}
STUDENT10 = {"family": "elliptical-student", "eigenvalues": [0.5**k for k in range(10)], "mean": [0.0] * 10, "dof": 5.0}
# the benchmark's simulate-cli law (perfbench.workloads.distribution_doc(10)), whose 1000 variance blocks are tall
STUDENT10_DOF3 = {"family": "elliptical-student", "eigenvalues": np.geomspace(1.0, 1e-3, 10).tolist(),
                  "mean": [0.0] * 10, "dof": 3.0}
# the same law at d = 20; 3N = 9e4 gives it 300 variance blocks
STUDENT20_DOF3 = {"family": "elliptical-student", "eigenvalues": np.geomspace(1.0, 1e-3, 20).tolist(),
                  "mean": [0.0] * 20, "dof": 3.0}
STUDENT1_DOF3 = {"family": "elliptical-student", "eigenvalues": [1.0], "mean": [0.0], "dof": 3.0}
CLI_RUNS = {  # name: (argv, config document)
    "diagnose-gaussian": (["diagnose"], {"distribution": GAUSS3, "n": 4000, "small_ball": {"m": 50, "trials": 2000},
                                         "uniform": {"block_m": 2, "r": 0.5, "n_dirs": 20}}),
    "diagnose-student": (["diagnose"], {"distribution": STUDENT10, "n": 4000, "theta": 0.05,
                                        "small_ball": {"m": 20, "trials": 2000}}),
    "estimate": (["estimate"], {"distribution": STUDENT10, "n_total": 30000, "config": {"C_prime": 0.05}}),
    "estimate-d1": (["estimate"], {"distribution": STUDENT1_DOF3, "n_total": 30000}),
    "estimate-config": (["estimate"], {"distribution": STUDENT10, "n_total": 30000,
                                       "config": {"m0": 50, "theta_var": 0.05, "theta_mean": 0.25, "c_blocks": 4.0}}),
    "estimate-300-blocks": (["estimate"], {"distribution": STUDENT20_DOF3, "n_total": 90000,
                                           "config": {"C_prime": 0.05}}),
    "simulate": (["simulate", "--threads", "2"], {"distribution": GAUSS3, "n_total": 30000, "delta": 0.05, "trials": 6,
                                                  "estimators": ["dirmean", "empirical-mean", "median-of-means"]}),
    "simulate-tall": (["simulate", "--threads", "1"], {"distribution": STUDENT10_DOF3, "n_total": 300000,
                                                       "delta": 0.01, "trials": 2,
                                                       "estimators": ["dirmean", "empirical-mean", "median-of-means"]}),
    "lowerbound": (["lowerbound"], {"eigenvalues": [1.0 / k for k in range(1, 31)], "n_samples": 1000,
                                    "trials": 100}),
}


def child(out: str) -> None:
    """Write this tree's estimates and their ``tracemalloc`` peaks (MB) to
    ``out``/estimates.pkl and its CLI outputs under ``out``."""
    sys.path.append(ROOT)  # perfbench of this checkout; dirmean comes from PYTHONPATH
    from perfbench import workloads as wl

    from dirmean import DistributionSpec, PipelineConfig, cli, distributions, mean

    values, peaks = {}, {}
    pools = {**wl.LIBRARY, "d1": (1, 30_000, 3, {})}  # d = 1 profiles one direction at a time
    for name, (d, n_total, pool, config) in pools.items():
        gt = distributions.make_ground_truth(DistributionSpec.from_json_dict(wl.distribution_doc(d)))
        for pool_seed in (1, 2):
            for i in range(pool):
                ds = distributions.sample_dataset(gt, n_total, wl.sub_seed(pool_seed, name, "data", i))
                tracemalloc.start()
                est = mean.estimate_mean(ds, wl.DELTA, PipelineConfig(**config),
                                         seed=wl.sub_seed(pool_seed, name, "estimate", i))
                peaks[f"{name}/{pool_seed}/{i}"] = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                for field in ("mu_hat", "rho_star", "iterations", "converged", "probe_violation"):
                    values[f"{name}/{pool_seed}/{i}/{field}"] = getattr(est, field)
                for part in ("directions", "centers", "widths"):
                    values[f"{name}/{pool_seed}/{i}/slabs.{part}"] = getattr(est.slabs, part)
    with open(os.path.join(out, "estimates.pkl"), "wb") as fh:
        pickle.dump({"values": values, "peaks": peaks}, fh)
    for run, (argv, doc) in CLI_RUNS.items():
        path = os.path.join(out, f"{run}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        if cli.main([*argv, "--config", path, "--out", os.path.join(out, run)]) != 0:
            raise SystemExit(f"{run} failed")


def run_tree(tree: str, out: str) -> None:
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.abspath(tree), "src"), "OPENBLAS_NUM_THREADS": "1"}
    subprocess.run([sys.executable, os.path.abspath(__file__), "--child", out], env=env, check=True)


def change(old, new) -> str | None:
    """None if ``old`` and ``new`` have the same shape, dtype and bytes, else how they differ."""
    if old is None or new is None:
        return None if old is new else f"{old!r} -> {new!r}"
    a, b = np.asarray(old), np.asarray(new)
    if a.shape != b.shape:
        return f"shape {a.shape} -> {b.shape}"
    if a.dtype == b.dtype and a.tobytes() == b.tobytes():
        return None
    if a.dtype.kind in "bi":  # iterations, converged
        return f"{old!r} -> {new!r}"
    moved, scale = float(np.max(np.abs(b - a))), float(np.max(np.abs(a)))
    text = f"max |change| {moved:.3g}" + (f", relative {moved / scale:.3g}" if scale > 0.0 else "")
    return f"{old!r} -> {new!r}, {text}" if a.ndim == 0 else text


def _leaves(doc, path: str = "") -> dict:
    """Each leaf of a JSON document, as its JSON text, by its dotted key path."""
    if not (isinstance(doc, (dict, list)) and doc):
        return {path: json.dumps(doc)}
    out = {}
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        out.update(_leaves(value, f"{path}.{key}" if path else str(key)))
    return out


def file_changes(name: str, old: bytes | None, new: bytes | None) -> list[str]:
    """How output file ``name`` differs: for JSON on both sides, each key path
    whose value changed, appeared or vanished; else (or if only the layout
    differs) "bytes"."""
    if name.endswith(".json") and old is not None and new is not None:
        a, b = _leaves(json.loads(old)), _leaves(json.loads(new))
        found = [f"{key}: {a.get(key, 'absent')} -> {b.get(key, 'absent')}"
                 for key in sorted(a.keys() | b.keys()) if a.get(key) != b.get(key)]
        if found:
            return found
    return ["bytes"]


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def main(old: str, new: str) -> int:
    with tempfile.TemporaryDirectory() as scratch:
        outs = [os.path.join(scratch, side) for side in ("old", "new")]
        for tree, out in zip((old, new), outs):
            os.makedirs(out)
            run_tree(tree, out)
        loaded = [pickle.loads(_read(os.path.join(out, "estimates.pkl"))) for out in outs]
        estimates = [side["values"] for side in loaded]
        peaks = [side["peaks"] for side in loaded]
        found = [(key, change(estimates[0].get(key), estimates[1].get(key)))
                 for key in sorted(estimates[0].keys() | estimates[1].keys())]
        found = [(key, text) for key, text in found if text is not None]
        for run in CLI_RUNS:
            files = [{name: _read(os.path.join(out, run, name)) for name in os.listdir(os.path.join(out, run))}
                     for out in outs]
            found += [(f"{run}/{name}", text) for name in sorted(files[0].keys() | files[1].keys())
                      if files[0].get(name) != files[1].get(name)
                      for text in file_changes(name, files[0].get(name), files[1].get(name))]
    for key in sorted(peaks[0].keys() | peaks[1].keys()):
        old_mb, new_mb = (f"{side[key]:.3f}" if key in side else "absent" for side in peaks)
        print(f"peak MB: {key}: {old_mb} -> {new_mb}")
    for key, text in found:
        print(f"differs: {key}: {text}")
    print(f"{len(found)} difference(s)")
    return 1 if found else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2])
    elif len(sys.argv) == 3:
        sys.exit(main(sys.argv[1], sys.argv[2]))
    else:
        sys.exit(__doc__)
