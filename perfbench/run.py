"""zonotile benchmark: one workload per process, closed loop, one client.

Run from the repository root:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20

The first form measures one workload in this process and prints, as its
last line, a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a separate traced pass with ``--trace 1``. Times are CPU time of
this process, scaled to a fixed host speed by reference work timed between
operations (see README.md). ``--all`` runs every
workload in its own child process, one at a time, and prints a table.
The library is imported from ``src/`` next to this directory, never from an
installed copy.
"""

from __future__ import annotations

import os

# one BLAS thread: set before numpy is imported, so that OpenBLAS's pool
# does not compete with the measured thread on a small machine
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import math
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("verify", "exact_points", "classify", "enumerate")
SETUP_REPEATS = 3
# CPU seconds the reference work takes on the 2-core reference box when no
# other tenant slows it; every reported time is scaled to this speed
REFERENCE_S = 0.0012
TRACE_BLOCKS = 2  # fixed, so that a seed's per-layer counts repeat exactly

# name -> unit; error_rate is printed but is not a gated metric, because it
# is zero on a healthy run and the result line carries it as failed/attempted
END_TO_END = {
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _stamp(seed: int, numpy) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "commit": _commit(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "loadavg_before": os.getloadavg(),
    }


def _attempt(op) -> tuple[float, bool]:
    """CPU time of one operation to its verdict; then check the verdict."""
    t = process_time()
    try:
        verdict = op.run()
    except Exception:
        elapsed = process_time() - t
        print(f"error in {op.kind}:", file=sys.stderr)
        traceback.print_exc()
        return elapsed, False
    elapsed = process_time() - t
    try:
        ok = bool(op.check(verdict))
    except Exception:
        traceback.print_exc()
        ok = False
    if not ok:
        print(f"mismatch in {op.kind}", file=sys.stderr)
    return elapsed, ok


def _reference(numpy, arr) -> None:
    """Fixed work that calls no zonotile code: interpreter integer steps and
    small numpy array operations, the two kinds of work the library does."""
    s = 0
    for i in range(6000):
        s = (s + i * 7) % 1000003
    for _ in range(20):
        (numpy.outer(arr, arr) >= 5.0).sum()


def _reference_s(numpy, arr, repeats: int = 9) -> float:
    """Median CPU time of the reference work, now."""
    times = []
    for _ in range(repeats):
        t = process_time()
        _reference(numpy, arr)
        times.append(process_time() - t)
    return statistics.median(times)


def _measure(workloads, numpy, name: str, seed: int, seconds: float, workdir: str) -> dict:
    """Set up three times, then run whole blocks for ``seconds``.

    Every time is CPU time scaled to the reference speed: multiplied by
    REFERENCE_S over the reference work's CPU time measured alongside it.
    """
    block_ops, block_s = workloads.WORKLOADS[name][1:]
    # enough fresh inputs that a run on the reference box never repeats one
    blocks = math.ceil(1.5 * seconds / block_s)
    arr = numpy.arange(1.0, 101.0)
    warm_dir = os.path.join(workdir, "warm")
    os.mkdir(warm_dir)
    setup_times = []
    warm_failures = 0
    for _ in range(SETUP_REPEATS):
        before = _reference_s(numpy, arr)
        t = process_time()
        ops = workloads.build(name, seed, workdir, blocks)
        # warm-up: one operation of each kind, the same for every seed
        for op in workloads.warm_up(name, warm_dir):
            warm_failures += not _attempt(op)[1]
        elapsed = process_time() - t
        setup_times.append(elapsed * 2 * REFERENCE_S / (before + _reference_s(numpy, arr)))
    # set-up garbage is not charged to the first operations, and the inputs
    # held for the whole run stay out of the collector's full passes
    gc.collect()
    gc.freeze()
    cpu = []
    scaled = []
    block_cpu = []
    block_scaled = []
    block_refs = []
    failed = 0
    start = perf_counter()
    # whole blocks only, so that every run times the same mix of kinds
    while len(block_cpu) < 2 or perf_counter() - start < seconds:
        refs = []
        for _ in range(block_ops):
            t = process_time()
            _reference(numpy, arr)
            refs.append(process_time() - t)
            elapsed, ok = _attempt(ops[len(cpu) % len(ops)])
            cpu.append(elapsed)
            failed += not ok
        block_refs.append(statistics.median(refs))
        speed = REFERENCE_S / block_refs[-1]
        scaled.extend(x * speed for x in cpu[-block_ops:])
        block_cpu.append(sum(cpu[-block_ops:]))
        block_scaled.append(sum(scaled[-block_ops:]))
    gc.unfreeze()
    return {
        "cpu": _summary(cpu, block_ops, block_cpu),
        "scaled": _summary(scaled, block_ops, block_scaled),
        "attempted": len(cpu),
        "blocks": len(block_cpu),
        "reference_ms": statistics.median(block_refs) * 1e3,
        "failed": failed,
        "warm_failures": warm_failures,
        "setup_s": statistics.median(setup_times),
    }


def _summary(latencies: list[float], block_ops: int, block_times: list[float]) -> dict:
    p90 = statistics.quantiles(latencies, n=10)[-1]
    return {
        "ops_per_s": block_ops / statistics.median(block_times),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "beyond_p90": sum(1 for x in latencies if x > p90),
    }


def _trace(workloads, tracing, name: str, seed: int, workdir: str) -> tuple[dict, int, int]:
    """One untraced and one traced pass over the same cycle, after a warm pass."""
    for op in workloads.build(name, seed, workdir, TRACE_BLOCKS):
        _attempt(op)
    t = process_time()
    for op in workloads.build(name, seed, workdir, TRACE_BLOCKS):
        _attempt(op)
    untraced = process_time() - t
    tracer = tracing.Tracer()
    tracer.install(extra_modules=[workloads])
    try:
        t = process_time()
        ops = workloads.build(name, seed, workdir, TRACE_BLOCKS)
        failed = 0
        for i, op in enumerate(ops):
            tracer.op_id = i
            failed += not _attempt(op)[1]
        tracer.op_id = -1
        traced = process_time() - t
    finally:
        tracer.uninstall()
    missing = tracer.missing(name)
    if missing:
        raise RuntimeError(f"trace incomplete on {name}: no calls to {', '.join(missing)}")
    out_dir = HERE / "traces"
    out_dir.mkdir(exist_ok=True)
    count = tracer.write(str(out_dir / f"{name}-seed{seed}.tsv.gz"))
    print(f"wrote {count} spans to {out_dir.relative_to(ROOT)}", file=sys.stderr)
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = traced / untraced
    units = {k: unit for k, (unit, _) in tracing.per_layer_metrics().items()}
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, len(ops), failed


def run_one(args) -> int:
    if not (SRC / "zonotile" / "__init__.py").is_file():
        print(f"error: zonotile sources not found under {SRC}", file=sys.stderr)
        return 2
    t = process_time()
    sys.path.insert(0, str(SRC))
    numpy = importlib.import_module("numpy")
    zonotile = importlib.import_module("zonotile")
    workloads = importlib.import_module("workloads")
    import_s = process_time() - t
    import_s *= REFERENCE_S / _reference_s(numpy, numpy.arange(1.0, 101.0))
    if Path(zonotile.__file__).resolve().parent != SRC / "zonotile":
        print(f"error: imported zonotile from {zonotile.__file__}", file=sys.stderr)
        return 2
    stamp = _stamp(args.seed, numpy)
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            tracing = importlib.import_module("tracing")
            metrics, attempted, failed = _trace(
                workloads, tracing, args.workload, args.seed, str(workdir)
            )
            correct = failed == 0
        else:
            res = _measure(
                workloads, numpy, args.workload, args.seed, args.seconds, str(workdir)
            )
            attempted, failed = res["attempted"], res["failed"]
            correct = failed == 0 and res["warm_failures"] == 0
            values = {k: res["scaled"][k] for k in ("ops_per_s", "op_p50_ms", "op_p90_ms")}
            values["setup_s"] = import_s + res["setup_s"]
            values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
            print(
                f"workload {args.workload}: {attempted} ops in {res['blocks']} blocks,"
                f" {res['scaled']['beyond_p90']} beyond p90"
            )
            for k, v in values.items():
                print(f"{k} {v:.6g} {END_TO_END[k]}")
            print(f"error_rate {failed / attempted:.6g} ratio")
            cpu = res["cpu"]
            print(
                f"unscaled CPU time: ops_per_s {cpu['ops_per_s']:.6g}"
                f" op_p50_ms {cpu['op_p50_ms']:.6g} op_p90_ms {cpu['op_p90_ms']:.6g};"
                f" reference work {res['reference_ms']:.4g} ms"
                f" (nominal {REFERENCE_S * 1e3:.4g} ms)"
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    stamp["loadavg_after"] = os.getloadavg()
    print("stamp " + json.dumps(stamp))
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another; prints a table."""
    results = {}
    status = 0
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=args.seconds + 170)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        res = json.loads(lines[-1])
        results[name] = res
        metrics = dict(res["metrics"])
        metrics["error_rate"] = {"value": res["failed"] / res["attempted"], "unit": "ratio"}
        cells = "  ".join(f"{k} {m['value']:.4g} {m['unit']}" for k, m in metrics.items())
        print(f"{name:<13} ops {res['attempted']:<5} {cells}")
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true", help="run every workload, one process each")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # leave through the cleanup paths (work directory, child processes)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.all:
        return run_all(args)
    if args.workload is None:
        p.error("--workload or --all is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
