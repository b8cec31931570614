"""Import hygiene: estimating and simulating load no scipy.stats or scipy.integrate.

Only HiGHS (scipy.optimize) is loaded with the package; the scipy laws are
imported by the oracle and lower-bound code that returns them.  Run in a
fresh interpreter, since the test process itself has loaded scipy.stats.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SCRIPT = """
import json, sys
import numpy as np
import dirmean
from dirmean.cli import main

cfg, out = sys.argv[1], sys.argv[2]
config = dirmean.PipelineConfig.from_dict(json.load(open(cfg))["config"])
rows = np.random.default_rng(1).standard_normal((1800, 2))
est = dirmean.estimate_mean(rows, 0.05, config)
assert est.iterations == 0, "the warm start should be feasible"
assert main(["simulate", "--config", cfg, "--out", out]) == 0
print(json.dumps([name for name in ("scipy.stats", "scipy.integrate") if name in sys.modules]))
"""


def test_estimate_and_simulate_load_no_scipy_stats(tmp_path):
    scenario = {
        "distribution": {
            "family": "elliptical-student",
            "eigenvalues": [1.0, 0.5],
            "rotation_seed": None,
            "mean": [0.0, 0.0],
            "dof": 5.0,
            "shape": None,
            "contamination": None,
        },
        "n_total": 1800,
        "delta": 0.05,
        "trials": 2,
        "estimators": ["dirmean", "empirical-mean", "median-of-means"],
        "probes": 4,
        "seed": 3,
        "config": {"gamma": 1.0, "c1": 1.0, "theta_var": 0.25, "theta_mean": 0.125, "refine_probes": 64},
    }
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(scenario))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(cfg), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
    assert (tmp_path / "out" / "summary.json").exists()
