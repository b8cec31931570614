"""tools/compare_trees.py sees every change of bytes, the last digit included."""

import importlib.util
import os
import pickle

import numpy as np

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "compare_trees.py")
spec = importlib.util.spec_from_file_location("compare_trees", TOOL)
compare_trees = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_trees)
change = compare_trees.change


def test_equal_bytes_are_no_change():
    mu = np.array([0.5, -1.25, 3.0])
    assert change(mu, mu.copy()) is None
    assert change(0.1, 0.1) is None and change(15, 15) is None and change(True, True) is None
    assert change(None, None) is None


def test_a_move_in_the_last_digit_is_reported_with_its_size():
    # numpy's repr of both arrays is the same, which the tool used to compare
    mu = np.array([0.016, -0.004])
    moved = mu.copy()
    moved[0] = np.nextafter(moved[0], 1.0)
    assert repr(moved) == repr(mu)
    assert change(mu, moved) == f"max |change| {moved[0] - mu[0]:.3g}, relative {(moved[0] - mu[0]) / 0.016:.3g}"
    assert change(0.0, -0.0) == "0.0 -> -0.0, max |change| 0"
    assert change(0.5, 0.75) == "0.5 -> 0.75, max |change| 0.25, relative 0.5"


def test_counts_flags_shapes_and_none_are_shown_as_values():
    assert change(15, 16) == "15 -> 16"
    assert change(True, False) == "True -> False"
    assert change(np.zeros((2, 3)), np.zeros((3, 3))) == "shape (2, 3) -> (3, 3)"
    assert change(None, 0.25) == "None -> 0.25"


def test_a_json_file_is_compared_by_its_key_paths():
    old = b'{"scenario": {"config": {"c1": 1.0, "theta_var": 0.02}}, "rows": [{"q": 0.5}, {"q": 1}]}'
    new = b'{"scenario": {"config": {"m0": 100, "theta_var": 0.02}}, "rows": [{"q": 0.5}, {"q": 1.0}]}'
    assert compare_trees.file_changes("summary.json", old, new) == [
        "rows.1.q: 1 -> 1.0",
        "scenario.config.c1: 1.0 -> absent",
        "scenario.config.m0: absent -> 100",
    ]
    # the same document in another layout, a file on one side only, and any other file: bytes
    assert compare_trees.file_changes("summary.json", old, old.replace(b" ", b"")) == ["bytes"]
    assert compare_trees.file_changes("summary.json", old, None) == ["bytes"]
    assert compare_trees.file_changes("trials.csv", b"a\n1\n", b"a\n2\n") == ["bytes"]



def fake_tree(values, peaks):
    """A run_tree stand-in: tree ``t`` writes ``values[t]`` and ``peaks[t]``, and one report per CLI config."""

    def run_tree(tree, out):
        with open(os.path.join(out, "estimates.pkl"), "wb") as fh:
            pickle.dump({"values": values[tree], "peaks": peaks[tree]}, fh)
        for run in compare_trees.CLI_RUNS:
            os.makedirs(os.path.join(out, run))
            with open(os.path.join(out, run, "report.txt"), "w") as fh:
                fh.write("same\n")

    return run_tree


def test_peaks_are_printed_but_only_bytes_decide_the_exit_code(monkeypatch, capsys):
    mu = {"largeN-d50/1/0/mu_hat": np.array([0.5, -0.25])}
    peaks = {"old": {"largeN-d50/1/0": 4.6798, "infeasible-d50/1/0": 1.0}, "new": {"largeN-d50/1/0": 2.7256}}
    monkeypatch.setattr(compare_trees, "run_tree", fake_tree({"old": mu, "new": mu}, peaks))
    assert compare_trees.main("old", "new") == 0
    assert capsys.readouterr().out.splitlines() == [
        "peak MB: infeasible-d50/1/0: 1.000 -> absent",
        "peak MB: largeN-d50/1/0: 4.680 -> 2.726",
        "0 difference(s)",
    ]
    moved = {"largeN-d50/1/0/mu_hat": np.array([0.5, -0.125])}
    monkeypatch.setattr(compare_trees, "run_tree", fake_tree({"old": mu, "new": moved}, peaks))
    assert compare_trees.main("old", "new") == 1
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "differs: largeN-d50/1/0/mu_hat: max |change| 0.125, relative 0.25",
        "1 difference(s)",
    ]
