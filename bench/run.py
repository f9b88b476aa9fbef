"""critform benchmark.

One workload per process:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Without ``--workload`` every workload runs, each in its own process, and the
last line maps workload names to their results.

A run sets up five times (a fresh interpreter importing the package, the
seeded inputs, one warm-up operation) and reports the median as ``setup_s``.
The inputs are blocks of operations of the same make-up; each round runs one
block in a freshly shuffled order, cycling through the blocks, until another
round no longer fits in ``--seconds`` of measured time.  Every output is
checked apart from the program, and the last line printed is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` every
block runs once with each operation executed untraced and traced, and the
metrics are per-layer totals per block plus the tracing overhead.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
WORKLOADS = ("classify-lattice3d", "decay-profile", "hardy-trees", "cli-mix")
SETUP_REPEATS = 5

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
)

PER_LAYER = (
    ("families.generate.s", "s"),
    ("forms.build_form.calls", "count"),
    ("forms.build_form.self_s", "s"),
    ("forms.evaluate.calls", "count"),
    ("criticality.capacity.calls", "count"),
    ("criticality.capacity.self_s", "s"),
    ("superlu.splu.calls", "count"),
    ("superlu.splu.s", "s"),
    ("superlu.splu.fill_nnz", "count"),
    ("resolvent.resolvent_apply.calls", "count"),
    ("resolvent.resolvent_apply.self_s", "s"),
    ("resolvent.is_excessive.calls", "count"),
    ("resolvent.is_excessive.self_s", "s"),
    ("resolvent.solves_per_factorization", "ratio"),
    ("resolvent.green_apply.calls", "count"),
    ("resolvent.green_apply.self_s", "s"),
    ("resolvent.direct_green_solve.fallbacks", "count"),
    ("resolvent.semigroup_apply.calls", "count"),
    ("resolvent.semigroup_apply.self_s", "s"),
    ("lapack.eigh.calls", "count"),
    ("lapack.eigh.s", "s"),
    ("lapack.eigh.n3_sum", "count"),
    ("weak_ineq.alpha_profile.calls", "count"),
    ("weak_ineq.alpha_profile.self_s", "s"),
    ("weak_ineq.decay_rate.self_s", "s"),
    ("weak_ineq.verify_decay.calls", "count"),
    ("weak_ineq.verify_decay.self_s", "s"),
    ("hardy.hardy_weight.calls", "count"),
    ("hardy.hardy_weight.self_s", "s"),
    ("hardy.verify_hardy.calls", "count"),
    ("hardy.verify_hardy.self_s", "s"),
    ("hardy.verify_hardy.pencil_skipped", "count"),
    ("kernel_ops.construct_excessive.calls", "count"),
    ("kernel_ops.construct_excessive.self_s", "s"),
    ("kernel_ops.heat_kernel_operator.self_s", "s"),
    ("kernel_ops.lambda_of.self_s", "s"),
    ("config.tolerances.calls", "count"),
    ("config.tolerances.s", "s"),
    ("cli.run.calls", "count"),
    ("cli.run.self_s", "s"),
    ("reports.canonical_json.self_s", "s"),
    ("reports.canonical_json.bytes", "B"),
    ("reports.parse_graph_file.self_s", "s"),
    ("trace.overhead_pct", "%"),
)


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports the package and exits."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c",
                    f"import sys; sys.path.insert(0, {SRC!r}); import critform"],
                   check=True)
    return time.perf_counter() - t0


def setup(workload, seed: int, size: str):
    """Set up ``SETUP_REPEATS`` times; return the input blocks and the median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        started = import_seconds()
        t0 = time.perf_counter()
        blocks = workload.inputs(seed, size)
        workload.op(workload.warmup_item())
        times.append(started + time.perf_counter() - t0)
    return blocks, statistics.median(times)


class Round:
    def __init__(self, block: int, size: int):
        self.block = block
        self.seconds = 0.0
        self.latencies = [0.0] * size      # untraced execution of each operation
        self.traced = [0.0] * size         # its traced twin, in traced runs
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []


def _timed(workload, item):
    t0 = time.perf_counter()
    try:
        result = workload.op(item), None
    except Exception as exc:  # an operation that raises counts as failed
        result = None, f"{type(exc).__name__}: {exc}"
    return result, time.perf_counter() - t0


def run_round(workload, blocks, b: int, order: list[int], tracer=None) -> Round:
    """Time every operation of block ``b`` in the given order, then check the
    outputs untimed.

    With a tracer every operation runs twice, untraced and traced, in an
    order that alternates from one operation to the next."""
    items = blocks[b]
    rnd = Round(b, len(items))
    runs = []
    gc.collect()
    t_round = time.perf_counter()
    for step, k in enumerate(order):
        modes = (False,) if tracer is None else ((False, True), (True, False))[step % 2]
        for traced in modes:
            if traced:
                tracer.install()
            try:
                (result, error), seconds = _timed(workload, items[k])
            finally:
                if traced:
                    tracer.remove()
            (rnd.traced if traced else rnd.latencies)[k] = seconds
            runs.append((items[k], result, error))
    rnd.seconds = time.perf_counter() - t_round
    rnd.attempted = len(runs)
    for item, result, error in runs:
        if error is not None:
            rnd.failed += 1
            print(f"operation failed: {error}", file=sys.stderr)
        elif workload.failed(item, result):
            rnd.failed += 1
        else:
            rnd.problems += workload.check(item, result)
    rnd.problems += workload.round_problems(items)
    return rnd


def measure(workload, blocks, seconds: float, seed: int, tracer=None) -> list[Round]:
    """Untraced: one block per round, cycling through the blocks, while
    another round still fits in ``seconds`` (at least one round).

    Traced: every block once, each operation untraced and traced, so the
    per-layer counts cover the same operations in every traced run.

    Each round runs its block in a fresh seeded order.  Operations of one
    size would otherwise run side by side at the same point of every round,
    and a quantile of the latencies would sample the machine's speed only in
    those few moments; shuffled, every part of the distribution is spread
    over the whole run."""
    shuffler = random.Random(seed)

    def order(b):
        ks = list(range(len(blocks[b])))
        shuffler.shuffle(ks)
        return ks

    if tracer is not None:
        return [run_round(workload, blocks, b, order(b), tracer) for b in range(len(blocks))]
    rounds: list[Round] = []
    used = 0.0
    while True:
        b = len(rounds) % len(blocks)
        rnd = run_round(workload, blocks, b, order(b))
        rounds.append(rnd)
        used += rnd.seconds
        if used + rnd.seconds > seconds:
            return rounds


def end_to_end_metrics(rounds: list[Round], setup_s: float) -> dict:
    """An operation's latency is the median over its executions in the run
    (a block comes back when the run cycles through the blocks), so a burst
    of load from outside that hits one execution does not move it."""
    import numpy as np

    executions: dict[tuple[int, int], list[float]] = {}
    for r in rounds:
        for k, x in enumerate(r.latencies):
            executions.setdefault((r.block, k), []).append(x)
    p50, p90 = np.percentile([statistics.median(v) for v in executions.values()], [50, 90])
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(r.seconds for r in rounds),
        "op_p50_ms": 1e3 * float(p50),
        "op_p90_ms": 1e3 * float(p90),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer_metrics(rounds: list[Round], tracer) -> dict:
    """Per-layer totals divided by the number of blocks, and the median
    extra time of a traced execution over its untraced twin."""
    totals = tracer.layer_totals()
    k = len(rounds)

    def stat(span, key):
        return totals.get(span, {}).get(key, 0)

    values = {}
    for name, _ in PER_LAYER:
        span, _, key = name.rpartition(".")
        if name in tracer.counters:
            values[name] = tracer.counters[name] / k
        elif key in ("calls", "s", "self_s"):
            values[name] = stat(span, key) / k
    splu = stat("superlu.splu", "calls")
    values["resolvent.solves_per_factorization"] = (
        stat("resolvent.resolvent_apply", "calls") / splu if splu else 0.0)
    ratios = [t / u for r in rounds for t, u in zip(r.traced, r.latencies)]
    values["trace.overhead_pct"] = 100.0 * (statistics.median(ratios) - 1.0)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def blas_threads() -> list[int]:
    """Thread counts reported by every OpenBLAS library loaded in this process."""
    import ctypes
    import re

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    counts = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                counts.append(int(getattr(lib, symbol)()))
                break
    return counts


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> dict:
    """Set up, measure and check one workload in this process; ``size``
    "tiny" shrinks the inputs for the benchmark's own tests."""
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    import tracer as tracing
    import workloads

    workdir = os.path.join(WORK, f"{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = workloads.make(name, workdir)
        blocks, setup_s = setup(workload, seed, size)
        tracer = tracing.Tracer() if trace else None
        rounds = measure(workload, blocks, seconds, seed, tracer)
        problems = [p for r in rounds for p in r.problems] + workload.run_problems()
        if tracer is not None:
            tracer.write(os.path.join(WORK, f"trace-{name}.npz"))
            metrics = per_layer_metrics(rounds, tracer)
        else:
            metrics = end_to_end_metrics(rounds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{name}: {len(rounds)} rounds of {len(blocks[0])} operations, round seconds "
          f"{[round(r.seconds, 3) for r in rounds]}, BLAS threads {blas_threads()}",
          file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Each workload in its own process; the last line maps names to results."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        res = results[name]
        print(f"== {name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"   {metric:42s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(results), flush=True)
    return 0


def pin_environment() -> None:
    """One BLAS thread, and no tolerance overrides from the environment.

    The dense kernels here are small, and a pinned thread count keeps runs
    comparable on a shared machine; it must be set before NumPy loads.
    ``CRITFORM_TOL_*`` variables would change what the jobs certify."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    for var in [v for v in os.environ if v.startswith("CRITFORM_")]:
        del os.environ[var]


def main(argv=None) -> int:
    pin_environment()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    if not os.path.isdir(os.path.join(SRC, "critform")):
        print(f"critform sources not found under {SRC}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
