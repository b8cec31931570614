"""Import hygiene: a bare ``import dirmean`` loads none of its submodules;
estimating and simulating load no scipy.stats, scipy.integrate or
scipy.optimize, and no numpy.ma (which np.median imports on first use);
on Linux a ``simulate`` run loads neither the ``scipy`` package itself,
nor ``concurrent.futures`` at one thread, nor ``dirmean.diagnostics``.

The package loads scipy's compiled HiGHS binding as one extension module,
without running ``scipy/__init__.py`` or ``scipy/optimize/__init__.py``;
the scipy laws are imported by the oracle and lower-bound code that returns
them.  Run in fresh interpreters, since the test process itself has loaded
scipy.stats and scipy.optimize.
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
assert [name for name in sys.modules if name.startswith("dirmean.")] == [], "import dirmean loaded a submodule"
from dirmean.cli import main

cfg, diag_cfg, out = sys.argv[1], sys.argv[2], sys.argv[3]
config = dirmean.PipelineConfig.from_dict(json.load(open(cfg))["config"])
rows = np.random.default_rng(1).standard_normal((1800, 2))
est = dirmean.estimate_mean(rows, 0.05, config)
assert est.iterations == 0, "the warm start should be feasible"
# wide variance blocks (80 x 120): the learned directions come from the 80 x 80 Gram matrix
wide = dirmean.estimate_mean(np.random.default_rng(2).standard_normal((240, 120)), 0.05, config)
assert wide.block_plan_var.n < 120, wide.block_plan_var
loaded = ["numpy.ma after estimate_mean"] if "numpy.ma" in sys.modules else []
# no point lies in both [-1, 0] and [2, 3]: HiGHS has to run
slabs = dirmean.SlabSystem(np.ones((2, 1)), [-0.5, 2.5], [0.5, 0.5])
res = dirmean.solve_center(slabs)
assert res.iterations >= 1 and res.converged and abs(res.rho_star - 1.0) < 1e-12, res
assert main(["simulate", "--config", cfg, "--out", out]) == 0
unwanted = ["numpy.ma", "scipy.stats", "scipy.integrate", "scipy.optimize", "concurrent.futures", "dirmean.diagnostics"]
if sys.platform == "linux":  # on Windows dirmean.mean runs scipy/__init__.py for its DLL directory
    unwanted.append("scipy")
loaded += [name for name in unwanted if name in sys.modules]
assert main(["diagnose", "--config", diag_cfg, "--out", out + "-diagnose"]) == 0
assert "dirmean.diagnostics" in sys.modules
print(json.dumps(loaded))
"""

# the binding dirmean loaded and the one scipy.optimize uses must be one module
IDENTITY_SCRIPT = """
import sys
first = sys.argv[1]
if first == "dirmean":
    import dirmean.mean
    from scipy.optimize import linprog
else:
    from scipy.optimize import linprog
    import dirmean.mean
res = linprog([1.0, 1.0], A_ub=[[-1.0, -2.0]], b_ub=[-2.0], method="highs")
assert res.status == 0 and abs(res.fun - 1.0) < 1e-12, res
assert sys.modules["scipy.optimize._highspy._core"] is dirmean.mean._core
slabs = dirmean.SlabSystem([[1.0], [1.0]], [-0.5, 2.5], [0.5, 0.5])
assert dirmean.solve_center(slabs).iterations >= 1
"""


def run_fresh(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", *args], capture_output=True, text=True, env=env, timeout=300)


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
        "config": {"m0": 1, "theta_var": 0.25, "theta_mean": 0.125, "refine_probes": 64},
    }
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(scenario))
    diagnose = {"distribution": scenario["distribution"], "n": 400, "small_ball": {"m": 4, "trials": 200}}
    diag_cfg = tmp_path / "diagnose.json"
    diag_cfg.write_text(json.dumps(diagnose))
    proc = run_fresh(SCRIPT, str(cfg), str(diag_cfg), str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
    assert (tmp_path / "out" / "summary.json").exists()
    assert (tmp_path / "out-diagnose" / "ratio_conditions.json").exists()


def test_binding_is_shared_with_scipy_optimize_in_either_import_order():
    for first in ("dirmean", "scipy.optimize"):
        proc = run_fresh(IDENTITY_SCRIPT, first)
        assert proc.returncode == 0, f"{first} imported first:\n{proc.stderr}"


# the public names resolve lazily, each to the object its submodule defines
NAMESPACE_SCRIPT = """
import importlib
import dirmean

public = dirmean.__all__
assert public == sorted(public) and len(set(public)) == len(public)
assert set(public) <= set(dir(dirmean)), sorted(set(public) - set(dir(dirmean)))
assert dirmean.mean is importlib.import_module("dirmean.mean")
assert dirmean.cli is importlib.import_module("dirmean.cli")
for name in public:
    value = getattr(dirmean, name)
    home = importlib.import_module(value.__module__)  # every public name is a class or a function
    assert home.__name__.startswith("dirmean.") and vars(home)[name] is value, name
    assert vars(dirmean)[name] is value, f"{name} is not cached"
namespace = {}
exec("from dirmean import *", namespace)
assert sorted(set(namespace) - {"__builtins__"}) == public
assert all(namespace[name] is getattr(dirmean, name) for name in public)
assert "Dataset" not in public  # a dataset is its (n, d) row array
for name in ("no_such_name", "Dataset"):
    try:
        getattr(dirmean, name)
    except AttributeError as exc:
        assert name in str(exc), exc
    else:
        raise AssertionError(f"the unknown name {name} resolved")
"""


def test_public_names_resolve_lazily_to_their_submodules_objects():
    proc = run_fresh(NAMESPACE_SCRIPT)
    assert proc.returncode == 0, proc.stderr
