"""Spans around the calls into dirmean's public functions.

The tracer replaces a function at the module attribute through which
dirmean itself calls it (``estimate_mean`` reaches ``fit_marginal`` through
``dirmean.mean``, so that is the attribute wrapped) and records one span per
call: name, start, end, parent and a few counts.  Spans stay in memory and
are written out once, at the end of the run.

A site whose module is loaded but whose attribute is gone (renamed or
deleted by a later change) is reported as an absent layer; its metrics read
zero and the run goes on.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import sys
import time
from dataclasses import dataclass, field


def _rows(a) -> int:
    return int(getattr(a, "shape", (len(a),))[0])


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# counters: (args, kwargs, result) -> {count name: number}
def _count_solve(args, kwargs, res):
    its = int(res.iterations)
    return {"iterations": its, "warm_feasible": int(its == 0)}


def _count_psi(args, kwargs, res):
    z = _arg(args, kwargs, 0, "est").Z
    dirs = _arg(args, kwargs, 1, "directions")
    return {"flops": 2 * z.shape[0] * z.shape[1] * _rows(dirs)}


def _count_nu(args, kwargs, res):
    return {"rows": _rows(_arg(args, kwargs, 1, "directions"))}


def _count_estimate(args, kwargs, res):
    return {"directions_used": int(res.directions_used)}


def _count_sample(args, kwargs, res):
    return {"rows": len(res)}


def _count_report(args, kwargs, res):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


# (module under dirmean, attribute, layer name, counter)
SITES = [
    ("mean", "estimate_mean", "mean.estimate_mean", _count_estimate),
    ("harness", "estimate_mean", "mean.estimate_mean", _count_estimate),
    ("mean", "fit_marginal", "mean.fit_marginal", None),
    ("mean", "fit_variance", "variance.fit_variance", None),
    ("mean", "block_averages", "blocks.block_averages", None),
    ("variance", "block_averages", "blocks.block_averages", None),
    ("variance", "pair_differences", "blocks.pair_differences", None),
    ("mean", "build_direction_set", "mean.build_direction_set", None),
    ("mean", "nu_hat_profile", "mean.nu_hat_profile", _count_nu),
    ("mean", "slab_width_profile", "mean.slab_width_profile", None),
    ("mean", "psi_profile", "variance.psi_profile", _count_psi),
    ("mean", "solve_center", "mean.solve_center", _count_solve),
    ("distributions", "make_ground_truth", "distributions.make_ground_truth", None),
    ("harness", "make_ground_truth", "distributions.make_ground_truth", None),
    ("distributions", "sample_dataset", "distributions.sample_dataset", _count_sample),
    ("harness", "sample_dataset", "distributions.sample_dataset", _count_sample),
    ("cli", "run_trials", "harness.run_trials", None),
    ("harness", "baseline_empirical_mean", "harness.baseline_empirical_mean", None),
    ("harness", "baseline_median_of_means", "harness.baseline_median_of_means", None),
    ("cli", "per_direction_quantiles", "harness.per_direction_quantiles", None),
    ("cli", "write_report", "harness.write_report", _count_report),
]

LAYERS = list(dict.fromkeys(site[2] for site in SITES))
IMPORT_LAYERS = ["dirmean.import", "cli.import"]
# the layers an improved trimming kernel would move, reported together
KERNEL_LAYERS = [
    "blocks.block_averages",
    "blocks.pair_differences",
    "variance.fit_variance",
    "variance.psi_profile",
    "mean.fit_marginal",
    "mean.nu_hat_profile",
    "mean.slab_width_profile",
]

# per-layer metrics beyond <layer>.calls / .total_s / .self_s
EXTRA_METRICS = [
    ("mean.solve_center.iterations", "count"),
    ("mean.solve_center.warm_feasible_share", "ratio"),
    ("mean.refine.total_s", "s"),
    ("mean.refine.append_ratio", "ratio"),
    ("variance.psi_profile.flops", "flop"),
    ("distributions.sample_dataset.rows", "count"),
    ("harness.write_report.bytes", "B"),
    ("trace.overhead_ratio", "ratio"),
]


def metric_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, in reporting order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.total_s"] = "s"
        units[f"{layer}.self_s"] = "s"
    for layer in IMPORT_LAYERS:
        units[f"{layer}.total_s"] = "s"
    units.update(EXTRA_METRICS)
    return units


@dataclass
class Span:
    id: int
    parent: int | None
    root: int
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.not_loaded: list[str] = []
        self.setup_roots: set[int] = set()
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        span = Span(sid, parent.id if parent else None, parent.root if parent else sid, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` block."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished top-level span, e.g. an import timed before install."""
        sid = len(self.spans)
        self.spans.append(Span(sid, None, sid, name, start, end))

    def _wrap(self, fn, layer: str, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if counter is not None:
                try:
                    span.counts = counter(args, kwargs, result)
                except (AttributeError, KeyError, IndexError, TypeError, OSError):
                    span.counts = {}  # the layer's API changed; its counts read zero
            return result

        return traced

    def install(self) -> None:
        """Wrap every site whose module is loaded; note the ones that are gone."""
        self.absent, self.not_loaded = [], []
        for mod_name, attr, layer, counter in SITES:
            site = f"dirmean.{mod_name}.{attr}"
            module = sys.modules.get(f"dirmean.{mod_name}")
            if module is None:
                self.not_loaded.append(site)
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(site)
                continue
            self._patched.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, layer, counter))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched = []

    def layer_metrics(self, op_roots: set[int], with_setup: bool = True) -> dict[str, float]:
        """Per-layer figures: spans inside the operations whose root span id
        is in ``op_roots`` are averaged per operation, and spans under a
        set-up root count once unless ``with_setup`` is false."""
        child_time: dict[int, float] = {}
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
                children.setdefault(s.parent, []).append(s)

        op_sums: dict[str, float] = {}
        setup_sums: dict[str, float] = {}
        appended = probed = 0
        for s in self.spans:
            if s.name in IMPORT_LAYERS:
                setup_sums[f"{s.name}.total_s"] = setup_sums.get(f"{s.name}.total_s", 0.0) + s.end - s.start
                continue
            if s.root in op_roots:
                sums = op_sums
            elif with_setup and s.root in self.setup_roots:
                sums = setup_sums
            else:
                continue
            if s.name not in LAYERS:
                continue
            total = s.end - s.start
            items = [("calls", 1), ("total_s", total), ("self_s", total - child_time.get(s.id, 0.0))]
            items += list(s.counts.items())
            if s.name == "mean.estimate_mean":
                # refine rounds: from the end of the first solve to the end of estimate_mean
                kids = children.get(s.id, [])
                solves = [k for k in kids if k.name == "mean.solve_center"]
                if solves:
                    sums["mean.refine.total_s"] = sums.get("mean.refine.total_s", 0.0) + s.end - solves[0].end
                nus = [k.counts.get("rows", 0) for k in kids if k.name == "mean.nu_hat_profile"]
                if nus and "directions_used" in s.counts:
                    appended += s.counts["directions_used"] - nus[0]
                    probed += sum(nus[1:])
            for key, value in items:
                sums[f"{s.name}.{key}"] = sums.get(f"{s.name}.{key}", 0.0) + value

        n_ops = max(len(op_roots), 1)
        out = {name: setup_sums.get(name, 0.0) + op_sums.get(name, 0.0) / n_ops for name in metric_units()}
        def both(name: str) -> float:
            return op_sums.get(name, 0.0) + setup_sums.get(name, 0.0)

        if both("mean.solve_center.calls"):
            out["mean.solve_center.warm_feasible_share"] = (
                both("mean.solve_center.warm_feasible") / both("mean.solve_center.calls")
            )
        if probed:
            out["mean.refine.append_ratio"] = appended / probed
        return out

    def dump(self, path: str, meta: dict) -> None:
        doc = {
            "meta": meta,
            "absent_layers": self.absent,
            "spans": [
                {"id": s.id, "parent": s.parent, "name": s.name, "start": s.start, "end": s.end,
                 "counts": s.counts}
                for s in self.spans
            ],
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def overhead_ratio(traced: list[float], untraced: list[float]) -> float:
    """Median traced operation time over median untraced operation time."""
    if not traced or not untraced:
        return 0.0
    return statistics.median(traced) / statistics.median(untraced)
