"""Outside-in benchmark of dirmean.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One workload runs per process, as a closed loop with one caller:
one ``estimate_mean`` call or one ``dirmean simulate`` run at a time.  BLAS
is pinned to one thread, and the process and its children to one core.
After set-up, one discarded warm-up pass goes over the workload's input
pool, then whole passes run until ``--seconds`` of them have gone by.  The
fresh-process set-up probes run between them.  Every time reported (set-up
and latencies) is scaled to a reference host speed measured on the same core
around and inside the timed call (``hostspeed.py``); the times as measured
are printed too.

``--trace 0`` prints every end-to-end metric.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics from the traced
ones, plus the traced/untraced latency ratio as the tracing overhead; the
spans go to ``perfbench/.out/``.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the workloads and the layer map.
"""

from __future__ import annotations

import os

# before numpy loads, here and in every child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / ".out"
WALL_LIMIT_S = 150.0  # operations still running then count as failed
POOL_SEED = 1  # every input derives from it
HELDOUT_POOL_SEED = 2  # re-check a claimed gain on these inputs too
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "throughput_per_s": "1/s",
    "peak_mem_mb": "MB",
    "err_ratio_max": "ratio",
    "rho_ratio_max": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True, help="picks where the cycle over the input pool starts")
    p.add_argument("--seconds", type=float, required=True, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--pool-seed", type=int, default=POOL_SEED, help=f"input pool; {HELDOUT_POOL_SEED} is held out")
    p.add_argument("--setup-probe", action="store_true", help="time set-up only and print it")
    return p.parse_args(argv)


def tail(passes: list[list[float]]) -> tuple[float, str]:
    """Median over passes of each pass's slowest operation.

    A pass is one operation on every pool entry, so the statistic is the
    same order statistic whatever number of passes fit in the run.  On a
    one-entry pool (``simulate-cli``) it equals the median.
    """
    slowest = [max(times) for times in passes if times]
    n = sum(len(times) for times in passes)
    return statistics.median(slowest), f"median over {len(slowest)} passes of each pass's slowest operation, n={n}"


def environment(args, pinned_cpu: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        cpu = platform.processor()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "pinned_cpu": pinned_cpu,
        "reference_task_s": hostspeed.REFERENCE_S,
        "seed": args.seed,
        "pool_seed": args.pool_seed,
        "heldout_pool_seed": HELDOUT_POOL_SEED,
    }


def timed_setup(wl, pool_seed: int, tracer) -> tuple[float, None]:
    """Fresh import of the package plus the workload's input set-up."""
    t0 = time.perf_counter()
    package = importlib.import_module(wl.import_name)
    t1 = time.perf_counter()
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"{wl.import_name} was imported from {package.__file__}, not from {SRC}")
    if tracer is None:
        wl.setup(pool_seed)
        return time.perf_counter() - t0, None
    tracer.record(wl.import_layer, t0, t1)
    tracer.install()
    with tracer.span("setup") as span:
        wl.setup(pool_seed)
    tracer.uninstall()
    tracer.setup_roots.add(span.id)
    return time.perf_counter() - t0, None


class Loop:
    """Warm-up pass, then whole passes over the pool until time is up."""

    def __init__(self, wl, tracer, deadline: float, speed: hostspeed.HostSpeed):
        self.wl, self.tracer, self.deadline, self.speed = wl, tracer, deadline, speed
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.passes: list[list[float]] = []  # untraced latencies at reference speed, per pass
        self.raw: list[float] = []  # the same latencies as measured
        self.traced_times: list[float] = []  # at reference speed
        self.op_roots: set[int] = set()

    @property
    def times(self) -> list[float]:
        return [t for times in self.passes for t in times]

    def call(self, k: int, traced: bool) -> tuple[float, object]:
        if not traced:
            return self.wl.run(k, self.deadline)
        with self.tracer.span("op") as span:
            out = self.wl.run(k, self.deadline)
        self.op_roots.add(span.id)
        return out

    def one(self, k: int, traced: bool = False) -> tuple[float, float] | None:
        """One operation and its checks: its seconds at reference speed and
        as measured, or None if it failed."""
        self.attempted += 1
        try:
            scaled, seconds, result = self.speed.measure(self.call, k, traced, child_samples=self.wl.child_samples)
            reason = self.wl.check(k, result)
        except workloads.WallLimit:
            raise
        except Exception:  # the program raised: this operation failed
            reason = traceback.format_exc(limit=3).strip().splitlines()[-1]
        if reason is not None:
            self.failed += 1
            self.failures.append(f"op {self.attempted} (pool entry {k}): {reason}")
            return None
        return scaled, seconds

    def timed_pass(self, order: list[int], traced: bool) -> None:
        """One operation on every pool entry."""
        if not traced:
            self.passes.append([])
        for k in order:
            out = self.one(k, traced)
            if out is None:
                continue
            if traced:
                self.traced_times.append(out[0])
            else:
                self.passes[-1].append(out[0])
                self.raw.append(out[1])

    def run(self, seconds: float, start: int, untimed: list = ()) -> None:
        """Warm-up, then timed passes until about ``seconds`` of them have gone by.

        The ``untimed`` tasks run between timed passes, spread evenly over
        the timed time, so that the run samples the host's speed over a
        longer stretch of wall time than the timed passes alone take.
        """
        pool = self.wl.pool_size
        order = [(start + j) % pool for j in range(pool)]
        tasks = list(untimed)

        def on_alarm(signum, frame):
            raise workloads.WallLimit("still running at the wall limit")

        signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, max(self.deadline - time.monotonic(), 0.01))
        try:
            for k in order:
                self.one(k)
            timed = last = 0.0
            n_passes = done = 0
            # stop at whichever pass end is nearest to ``seconds``
            while timed + last / 2 < seconds or (self.tracer is not None and n_passes < 2):
                t0 = time.perf_counter()
                traced = self.tracer is not None and n_passes % 2 == 1
                if traced:
                    self.tracer.install()
                self.timed_pass(order, traced)
                if traced:
                    self.tracer.uninstall()
                last = time.perf_counter() - t0
                timed += last
                n_passes += 1
                while done < len(tasks) and timed >= seconds * (done + 1) / (len(tasks) + 1):
                    tasks[done]()
                    done += 1
            for task in tasks[done:]:
                task()
        except workloads.WallLimit:
            self.failed += 1
            self.failures.append(f"op {self.attempted}: still running at the {WALL_LIMIT_S:.0f} s wall limit")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            if self.tracer is not None:
                self.tracer.uninstall()


def setup_probe(args, env: dict, deadline: float) -> tuple[float, float]:
    """Set-up time of a fresh process, at reference speed and as measured."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--pool-seed", str(args.pool_seed), "--setup-probe"]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    scaled, raw = json.loads(proc.stdout.strip().splitlines()[-1])
    return scaled, raw


def main(argv=None) -> int:
    args = parse_args(argv)
    start = time.monotonic()
    cpu = hostspeed.pin_to_one_core()
    if not (SRC / "dirmean" / "__init__.py").is_file():
        print(f"error: no dirmean package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    tracer = tracing.Tracer() if args.trace else None
    wl = workloads.make(args.workload, str(ROOT), env, traced=tracer is not None)

    try:
        speed = hostspeed.HostSpeed()
        scaled, raw, _ = speed.measure(timed_setup, wl, args.pool_seed, tracer)
        if args.setup_probe:
            print(json.dumps([scaled, raw]))
            return 0
        setups = [(scaled, raw)]

        def probe():
            setups.append(setup_probe(args, env, start + WALL_LIMIT_S))

        probes = [] if tracer else [probe] * (SETUP_REPEATS - 1)
        loop = Loop(wl, tracer, start + WALL_LIMIT_S, speed)
        loop.run(args.seconds, args.seed % wl.pool_size, probes)
        peak_mem_mb = None if tracer else wl.peak_mem_mb()
        accuracy = wl.accuracy()
        env_doc = environment(args, cpu)
    except Exception:  # the benchmark itself could not run: no result line
        traceback.print_exc()
        return 1
    finally:
        wl.close()

    times = loop.traced_times if tracer else loop.times
    if not times:
        print("error: no operation completed in the measured window", file=sys.stderr)
        for line in loop.failures[:10]:
            print(f"  {line}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}: {len(times)} timed operations, pool of {wl.pool_size}")
    print("latencies at reference speed (s): " + " ".join(f"{t:.4f}" for t in times))
    if loop.raw:
        print("untraced latencies as measured (s): " + " ".join(f"{t:.4f}" for t in loop.raw))
    print("env " + json.dumps(env_doc, sort_keys=True))
    its = wl.iterations()
    if its:
        print(f"solver iterations per pool entry (checked to repeat on every pass): {its}")
    for line in loop.failures[:10]:
        print(f"FAILED {line}")
    print(f"failed_share = {loop.failed / loop.attempted!r} ({loop.failed} of {loop.attempted} operations)")
    print(f"rho_gap per pool entry (returned rho_star over the HiGHS optimum, minus 1): {accuracy['rho_gaps']}")

    if tracer is None:
        tail_value, tail_label = tail(loop.passes)
        per_op = getattr(wl, "trials", 1)
        values = {
            "setup_s": statistics.median(scaled for scaled, _ in setups),
            "latency_p50_s": statistics.median(times),
            "latency_tail_s": tail_value,
            "throughput_per_s": per_op * len(times) / sum(times),
            "peak_mem_mb": peak_mem_mb,
            "err_ratio_max": accuracy["err_ratio_max"],
            "rho_ratio_max": accuracy["rho_ratio_max"],
        }
        units = END_TO_END
        print(f"setup_s samples (at reference speed, as measured): {setups}")
        print(f"latency_tail_s is the {tail_label}")
    else:
        values = tracer.layer_metrics(loop.op_roots)
        values["trace.overhead_ratio"] = tracing.overhead_ratio(loop.traced_times, loop.times)
        units = tracing.metric_units()
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(str(path), {"workload": args.workload, "env": env_doc})
        print(f"spans written to {path.relative_to(ROOT)}")
        if tracer.absent:
            print(f"absent layers (reported as zero): {tracer.absent}")
        if tracer.not_loaded:
            print(f"sites in modules this workload does not load: {tracer.not_loaded}")
        op_only = tracer.layer_metrics(loop.op_roots, with_setup=False)
        busy = sum(op_only[f"{layer}.self_s"] for layer in tracing.LAYERS) or 1.0
        shares = sorted(((op_only[f"{layer}.self_s"] / busy, layer) for layer in tracing.LAYERS), reverse=True)
        print("self-time share per operation: " + ", ".join(f"{layer} {share:.3f}" for share, layer in shares[:6]))
        kernels = sum(share for share, layer in shares if layer in tracing.KERNEL_LAYERS)
        print(f"dominant layer by self time: {shares[0][1]}; "
              f"block, variance and marginal kernels together: {kernels:.3f}")

    metrics = {}
    for name, unit in units.items():
        print(f"{name} = {values[name]!r} {unit}")
        metrics[name] = {"value": values[name], "unit": unit}
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.attempted, "failed": loop.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
