"""The benchmark's workloads: their inputs, one operation, and its checks.

All data is elliptical Student-t with 3 degrees of freedom, eigenvalues
``geomspace(1, 1e-3, d)`` in the canonical basis, mean zero and confidence
``delta = 0.01``.  Every input derives from the pool seed: a library
workload draws a fixed pool of distinct datasets with one estimator seed
each and cycles through it; ``simulate-cli`` runs one scenario.

An operation fails when it raises, returns a non-finite ``mu_hat``, returns
a ``rho_star`` that replaying ``max(slabs.max_violation(mu_hat), 0)`` does
not reproduce, returns something else than the first run on the same input
did (CLI: other ``summary.json`` or ``trials.csv`` bytes), exits non-zero, or
is still running at the wall limit.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

CLI_CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")
DELTA = 0.01
DOF = 3.0
K1 = math.ceil(math.log(1.0 / DELTA))  # start rank of the spectral tail term


def eigenvalues(d: int) -> np.ndarray:
    return np.geomspace(1.0, 1e-3, d)


def sub_seed(*labels) -> int:
    """63-bit seed from labels, derived here so that inputs do not depend on
    the program's own seed derivation."""
    digest = hashlib.blake2b("/".join(str(x) for x in labels).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


def distribution_doc(d: int) -> dict:
    """The distribution in the JSON form the CLI and ``DistributionSpec`` read."""
    return {
        "family": "elliptical-student",
        "eigenvalues": eigenvalues(d).tolist(),
        "rotation_seed": None,
        "mean": [0.0] * d,
        "dof": DOF,
        "shape": None,
        "contamination": None,
    }


def error_denominators(d: int, n: int) -> np.ndarray:
    """sigma(u) sqrt(log(1/delta)/N) + sqrt(tail_eigensum(k1)/N) for u = e_1..e_d.

    For d >= 8 the harness's probe directions are exactly +-e_i, and the
    absolute error is the same along e_i and -e_i.
    """
    lam = eigenvalues(d)
    return np.sqrt(lam) * math.sqrt(math.log(1.0 / DELTA) / n) + math.sqrt(lam[min(K1, d):].sum() / n)


def lp_optimum(slabs) -> float:
    """Exact min over v of max(max_i |c_i - <v, u_i>| - w_i, 0) by HiGHS."""
    from scipy.optimize import linprog

    u, c, w = slabs.directions, slabs.centers, slabs.widths
    m, d = u.shape
    ones = np.ones((m, 1))
    a_ub = np.block([[-u, -ones], [u, -ones]])
    b_ub = np.concatenate([w - c, w + c])
    cost = np.zeros(d + 1)
    cost[-1] = 1.0
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * (d + 1), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not solve the slab LP: {res.message}")
    return max(float(res.fun), 0.0)


def rho_ratio(rho_star: float, rho_opt: float, slabs) -> float:
    """Returned slack over the optimal slack; 1 when both are zero.

    When the optimum is zero but the returned slack is not, the excess is
    measured against the median slab width instead.
    """
    if rho_opt > 0.0:
        return rho_star / rho_opt
    return 1.0 + rho_star / float(np.median(slabs.widths))


class WallLimit(Exception):
    """Raised inside an operation that is still running at the wall limit."""


@dataclass
class LibraryWorkload:
    """Closed loop of ``estimate_mean`` calls over a fixed dataset pool."""

    name: str
    d: int
    n_total: int
    pool_size: int
    config: dict = field(default_factory=dict)
    import_name: ClassVar[str] = "dirmean"
    import_layer: ClassVar[str] = "dirmean.import"

    def setup(self, pool_seed: int) -> None:
        self.mean = importlib.import_module("dirmean.mean")
        dirmean = importlib.import_module("dirmean")
        distributions = importlib.import_module("dirmean.distributions")
        spec = dirmean.DistributionSpec.from_json_dict(distribution_doc(self.d))
        self.cfg = dirmean.PipelineConfig(**self.config)
        self.gt = distributions.make_ground_truth(spec)
        self.pool = [
            (
                distributions.sample_dataset(self.gt, self.n_total, sub_seed(pool_seed, self.name, "data", i)),
                sub_seed(pool_seed, self.name, "estimate", i),
            )
            for i in range(self.pool_size)
        ]
        self.first: dict[int, object] = {}
        self.peak_mem: float | None = None

    def run(self, k: int, deadline: float) -> tuple[float, object]:
        """One ``estimate_mean`` call.  The first call in a process, which is
        the untimed warm-up, also measures ``peak_mem_mb``."""
        ds, est_seed = self.pool[k]
        first = self.peak_mem is None
        if first:
            tracemalloc.start()
            before, _ = tracemalloc.get_traced_memory()
        t0 = time.perf_counter()
        try:
            est = self.mean.estimate_mean(ds, DELTA, self.cfg, seed=est_seed)
        finally:
            seconds = time.perf_counter() - t0
            if first:
                _, peak = tracemalloc.get_traced_memory()
                tracemalloc.stop()
                self.peak_mem = (peak - before) / 2**20
        return seconds, est

    def check(self, k: int, est) -> str | None:
        mu = np.asarray(est.mu_hat, dtype=float)
        if mu.shape != (self.d,) or not np.all(np.isfinite(mu)):
            return "mu_hat is not a finite d-vector"
        replay = max(est.slabs.max_violation(mu), 0.0)
        if not math.isclose(replay, est.rho_star, rel_tol=1e-12, abs_tol=1e-15):
            return f"replayed slack {replay!r} does not reproduce rho_star {est.rho_star!r}"
        first = self.first.setdefault(k, est)
        if first is not est and (
            not np.array_equal(first.mu_hat, mu)
            or first.rho_star != est.rho_star
            or first.iterations != est.iterations
        ):
            return "result differs from the first run on the same input"
        return None

    def iterations(self) -> dict[int, int]:
        return {k: int(est.iterations) for k, est in sorted(self.first.items())}

    def child_samples(self) -> list[float]:
        return []

    def peak_mem_mb(self) -> float:
        """Peak memory that one call allocates, in MB.

        It is the peak of numpy and Python heap memory during the first
        call, over what was allocated before it, as ``tracemalloc`` counts
        it; so it leaves out this process's imports, its input pool and the
        allocator's retained pages.
        """
        return self.peak_mem

    def accuracy(self) -> dict:
        """err_ratio_max and rho_ratio_max over the pool's first results;
        every later result on the same input was checked to be identical."""
        den = error_denominators(self.d, self.n_total // 3)
        err = rho = 0.0
        gaps = []
        for est in self.first.values():
            err = max(err, float(np.max(np.abs(np.asarray(est.mu_hat) - self.gt.mu) / den)))
            opt = lp_optimum(est.slabs) if est.rho_star > 0.0 else 0.0
            ratio = rho_ratio(est.rho_star, opt, est.slabs)
            gaps.append(ratio - 1.0)
            rho = max(rho, ratio)
        return {"err_ratio_max": err, "rho_ratio_max": rho, "rho_gaps": gaps}

    def close(self) -> None:
        pass


@dataclass
class CliWorkload:
    """Closed loop of ``dirmean simulate`` runs, each a fresh subprocess that
    runs ``dirmean.cli`` as ``python -m dirmean.cli`` does, with host-speed
    samples inside (``cli_child.py``); in-process ``dirmean.cli.main`` calls
    when traced."""

    name: str
    d: int
    n_total: int
    trials: int
    workdir: str
    env: dict
    in_process: bool = False
    pool_size: ClassVar[int] = 1
    import_name: ClassVar[str] = "dirmean.cli"
    import_layer: ClassVar[str] = "cli.import"

    def setup(self, pool_seed: int) -> None:
        self.cli = importlib.import_module("dirmean.cli")
        os.makedirs(self.workdir, exist_ok=True)
        self.config_path = os.path.join(self.workdir, "scenario.json")
        scenario = {
            "distribution": distribution_doc(self.d),
            "n_total": self.n_total,
            "delta": DELTA,
            "trials": self.trials,
            "estimators": ["dirmean", "empirical-mean", "median-of-means"],
            "seed": sub_seed(pool_seed, self.name, "scenario"),
        }
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(scenario, fh)
        self.first_bytes: tuple[bytes, bytes] | None = None
        self.err = 0.0
        self.count = 0
        self.samples: list[float] = []

    def run(self, k: int, deadline: float) -> tuple[float, object]:
        out = os.path.join(self.workdir, f"op{self.count}")
        samples_path = os.path.join(self.workdir, f"samples{self.count}.json")
        self.count += 1
        self.samples = []
        args = ["simulate", "--config", self.config_path, "--out", out, "--threads", "1"]
        t0 = time.perf_counter()
        stderr = ""
        if self.in_process:
            code = self.cli.main(args)
        else:
            try:
                proc = subprocess.run(
                    [sys.executable, CLI_CHILD, samples_path, *args],
                    env=self.env,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.PIPE,
                    text=True,
                    timeout=max(deadline - time.monotonic(), 0.1),
                )
            except subprocess.TimeoutExpired as exc:
                raise WallLimit("simulate still running at the wall limit") from exc
            code, stderr = proc.returncode, proc.stderr.strip()
        seconds = time.perf_counter() - t0
        with contextlib.suppress(OSError):
            with open(samples_path, encoding="utf-8") as fh:
                self.samples = json.load(fh)
            os.remove(samples_path)
        try:
            with open(os.path.join(out, "summary.json"), "rb") as fh:
                summary = fh.read()
            with open(os.path.join(out, "trials.csv"), "rb") as fh:
                trials = fh.read()
        except OSError:
            summary = trials = None
        shutil.rmtree(out, ignore_errors=True)
        return seconds, (code, stderr, summary, trials)

    def check(self, k: int, result) -> str | None:
        code, stderr, summary, trials = result
        if code != 0:
            return f"simulate exited with code {code}: {stderr[-300:]}"
        if summary is None:
            return "simulate wrote no summary.json or trials.csv"
        if self.first_bytes is None:
            try:
                self.err = self._err_ratio(trials)
            except (ValueError, KeyError) as exc:
                return f"trials.csv is not a readable trial table: {exc}"
            self.first_bytes = (summary, trials)
        elif self.first_bytes != (summary, trials):
            return "summary.json or trials.csv bytes differ from the first invocation"
        return None

    def _err_ratio(self, trials: bytes) -> float:
        rows = [r for r in csv.DictReader(io.StringIO(trials.decode())) if r["estimator"] == "dirmean"]
        if len(rows) != self.trials * 2 * self.d:
            raise ValueError(f"trials.csv has {len(rows)} dirmean rows, expected {self.trials * 2 * self.d}")
        return max(abs(float(r["error"])) / (float(r["weak_term"]) + float(r["strong_term_k1"])) for r in rows)

    def iterations(self) -> dict[int, int]:
        return {}

    def child_samples(self) -> list[float]:
        """Seconds of the host-speed samples the last ``simulate`` process took."""
        return self.samples

    def peak_mem_mb(self) -> float:
        """Peak resident memory of the largest child process so far, in MB.

        The set-up probes are children too, but they import what a
        ``simulate`` run imports and sample nothing, so the largest child is
        a ``simulate`` run.
        """
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def accuracy(self) -> dict:
        # rho_star is not among the CLI's outputs: its slack counts as optimal
        return {"err_ratio_max": self.err, "rho_ratio_max": 1.0, "rho_gaps": []}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


# name: (d, 3N, pool size, PipelineConfig overrides)
LIBRARY = {
    "feasible-d200": (200, 30_000, 3, {}),
    "infeasible-d50": (50, 30_000, 3, {"C_prime": 0.05}),
    "largeN-d50": (50, 300_000, 3, {}),
}
WORKLOADS = [*LIBRARY, "simulate-cli"]


def make(name: str, root: str, env: dict, traced: bool):
    """The workload called ``name``; KeyError for an unknown name."""
    if name == "simulate-cli":
        workdir = os.path.join(root, "perfbench", ".out", f"cli-{os.getpid()}")
        return CliWorkload(name, d=10, n_total=300_000, trials=20, workdir=workdir, env=env, in_process=traced)
    d, n_total, pool, config = LIBRARY[name]
    return LibraryWorkload(name, d=d, n_total=n_total, pool_size=pool, config=config)
