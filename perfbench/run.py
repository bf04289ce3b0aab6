"""ctdenoise benchmark.

    python3 perfbench/run.py --workload train64 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from its
``src``. ``--trace 0`` sets up several times, then runs the workload in a
closed loop for ``--seconds`` and reports the end-to-end metrics.
``--trace 1`` runs a fixed amount of the workload once untraced and
twice traced layer by layer, checks that all three give bitwise the same
results, and reports the per-layer metrics. Every result is followed by
the correctness gates; the last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import Tracer, per_layer_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (("setup_s", "s"), ("latency_ms_p50", "ms"), ("latency_ms_p90", "ms"),
              ("item_ms_p50", "ms"), ("peak_mib", "MiB"))
# the names each workload's metrics go by in the text report
ALIASES = {
    "train64": {"latency_ms_p50": "train_step_ms_p50", "latency_ms_p90": "train_step_ms_p90",
                "item_ms_p50": "train_ms_per_sample", "peak_mib": "train_peak_mib"},
    "denoise512": {"latency_ms_p50": "denoise_ms_p50", "latency_ms_p90": "denoise_ms_p90",
                   "item_ms_p50": "eval_ms_p50", "peak_mib": "denoise_peak_mib"},
    "simulate128": {"latency_ms_p50": "pair_ms_p50", "latency_ms_p90": "pair_ms_p90",
                    "item_ms_p50": "simulate_ms_per_pair", "peak_mib": "simulate_peak_mib"},
}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "TRANSCT_THREADS")


def import_package():
    """Import ctdenoise from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ctdenoise
    except ImportError as exc:
        raise SystemExit(f"cannot import ctdenoise from {src}: {exc}")
    if Path(ctdenoise.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"ctdenoise was imported from {ctdenoise.__file__}, not {src}")
    return ctdenoise


def machine_facts(seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "seed": seed,
    }


def steal_seconds():
    """CPU time the hypervisor gave to other guests, summed over cores;
    None where the kernel does not report it."""
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


class Tally:
    """Operations attempted and failed, and which gate failed."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.fingerprints = {}

    def run(self, state, k):
        """One call of the workload; returns it, or None if it raised."""
        self.attempted += self.wl.ops_per_call
        try:
            return self.wl.call(state, k)
        except Exception:
            traceback.print_exc()
            self.failed += self.wl.ops_per_call
            self.problems.append(f"call {k} raised")
            return None

    def check(self, c, k):
        """Run the gates on call ``k``; a gate that raises fails the call."""
        try:
            bad = self.wl.check(c)
        except Exception:
            traceback.print_exc()
            bad = self.wl.ops_per_call
        key = self.wl.input_key(k)
        if self.fingerprints.setdefault(key, c.fingerprint) != c.fingerprint:
            bad = self.wl.ops_per_call
            self.problems.append(f"call {k} differs from an earlier call on the same input")
        if bad:
            self.problems.append(f"call {k}: {bad} operations failed their gates")
        self.failed += bad

    def fail(self, problem):
        self.problems.append(problem)


def timed_run(wl, seconds):
    tally = Tally(wl)
    setups = []
    for _ in range(wl.setup_repeats):
        t0 = time.perf_counter()
        state = wl.setup()
        setups.append(time.perf_counter() - t0)
    calls = []
    deadline = time.perf_counter() + seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        c = tally.run(state, k)
        if c is not None:
            tally.check(c, k)
            calls.append(c)
        k += 1
    if not calls:
        return tally, None, {}
    latencies = [s for c in calls for s in c.latencies]
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_ms_p50": percentile(latencies, 50) * 1e3,
        "latency_ms_p90": percentile(latencies, 90) * 1e3,
        "item_ms_p50": statistics.median(c.wall / c.items for c in calls) * 1e3,
        "peak_mib": wl.peak_mib(state),
    }
    counts = {"operations": len(latencies), "calls": len(calls), "setups": len(setups)}
    return tally, metrics, counts


def traced_run(wl, cd):
    """One untraced pass, then two traced passes of the same work."""
    tally = Tally(wl)

    def one_pass(tracer=None):
        if tracer:
            tracer.begin("setup")
        state = wl.setup()
        if tracer:
            tracer.begin("run")
        t0 = time.perf_counter()
        calls = [tally.run(state, k) for k in range(wl.trace_calls)]
        return calls, time.perf_counter() - t0

    def n_params():
        return wl.model_config and cd.count_parameters(cd.build_model(wl.model_config))

    plain, plain_wall = one_pass()
    params = n_params()
    with Tracer() as tracer:
        traced, traced_wall = one_pass(tracer)
        counts = tracer.exact_counts()
        more, more_wall = one_pass(tracer)
        counts_again = {k: v - counts[k] for k, v in tracer.exact_counts().items()}
        params_traced = n_params()
    traced += more
    if None in plain or None in traced:
        return tally, None, {}
    # the same inputs in every pass, so check() also compares traced
    # results with untraced ones bitwise
    for k, c in enumerate(plain + traced):
        tally.check(c, k % wl.trace_calls)
    n_ops = sum(len(c.latencies) for c in traced)
    if params != params_traced:
        tally.fail(f"count_parameters {params} became {params_traced} under tracing")
    if tracer.patcher.leftovers:
        tally.fail(f"wrappers left installed: {tracer.patcher.leftovers}")
    if counts != counts_again:
        tally.fail(f"exact counts differ between traced passes: {counts} vs {counts_again}")

    metrics = tracer.report(2, n_ops)
    metrics.update(wl.extra_layers(traced, tracer.phases["run"]))
    per_pass = n_ops / 2
    metrics["bench.op_ms"] = 1e3 * sum(s for c in traced for s in c.latencies) / n_ops
    metrics["bench.untraced_op_ms"] = 1e3 * sum(s for c in plain for s in c.latencies) / per_pass
    metrics["bench.trace_overhead_ms"] = (
        1e3 * ((traced_wall + more_wall) / 2 - plain_wall) / per_pass)
    return tally, metrics, {"operations": n_ops, "calls": len(traced)}


def accounting(name, m):
    """How the traced layers add up against the operation they split."""
    op = (f"traced op {m['bench.op_ms']:.1f} ms (untraced {m['bench.untraced_op_ms']:.1f} ms, "
          f"tracing overhead {m['bench.trace_overhead_ms']:.1f} ms)")
    if name == "simulate128":
        parts = sum(m[f"ctsim.{f}.ms"] for f in
                    ("make_phantom", "forward_project", "insert_poisson_noise", "fbp"))
        return f"ctsim stages {parts:.1f} ms per pair vs {op}"
    stages = sum(m[f"model.{s}.{d}_ms"] for s in
                 ("content", "texture", "high_band", "encoders", "decoders", "reconstruction")
                 for d in ("fwd", "bwd"))
    glue = m["model.forward.fwd_ms"] + m["model.forward.bwd_ms"] - stages
    if name == "denoise512":
        parts = stages + glue + m["freq.decompose.ms"]
        return (f"stages {stages:.1f} + forward glue {glue:.1f} + band split "
                f"{m['freq.decompose.ms']:.1f} = {parts:.1f} ms vs {op}")
    parts = stages + glue + m["tensor.backward.self_ms"] + m["optim.adam_step.ms"]
    return (f"stages fwd+bwd {stages:.1f} + forward glue {glue:.1f} + backward walk "
            f"{m['tensor.backward.self_ms']:.1f} + adam {m['optim.adam_step.ms']:.1f} = "
            f"{parts:.1f} ms vs {op}; the other {m['bench.op_ms'] - parts:.1f} ms are the "
            f"loss, zero_grad and gradient clipping inside train(). Outside the step, per "
            f"epoch: validate {m['training.validate.ms']:.1f}, "
            f"save_checkpoint {m['training.save_checkpoint.ms']:.1f}, loop overhead "
            f"{m['training.loop_overhead_ms']:.1f} ms")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    cd = import_package()
    print("machine " + json.dumps(machine_facts(args.seed)), flush=True)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    steal, t0 = steal_seconds(), time.perf_counter()
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as work:
        wl = WORKLOADS[args.workload](cd, args.seed, Path(work))
        if args.trace:
            tally, metrics, counts = traced_run(wl, cd)
            units = dict(per_layer_names())
        else:
            tally, metrics, counts = timed_run(wl, args.seconds)
            units = dict(END_TO_END)

    print(f"workload {args.workload}: closed loop, one client; {counts}")
    if steal is not None:
        share = (steal_seconds() - steal) / ((time.perf_counter() - t0) * os.cpu_count())
        print(f"  cpu steal {share:.1%} of the run's core time (noise from other guests)")
    if metrics is None:
        metrics = {}
        tally.fail("no call completed")
    aliases = ALIASES[args.workload]
    for name, value in metrics.items():
        alias = f"  ({aliases[name]})" if name in aliases else ""
        print(f"  {name:<36} {value:14.4f} {units[name]}{alias}")
    if args.trace and metrics:
        print("  accounting: " + accounting(args.workload, metrics))
    print(f"  fail_ratio {tally.failed / max(tally.attempted, 1):.4f} "
          f"({tally.failed} of {tally.attempted} operations)")
    for problem in tally.problems:
        print(f"  FAILED: {problem}")
    result = {
        "correct": not tally.problems and bool(metrics),
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in
                    (per_layer_names() if args.trace else END_TO_END) if name in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
