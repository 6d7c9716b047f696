"""Offline benchmark for secpatch: three workloads, end-to-end metrics, optional layer trace.

Run from the root of a secpatch checkout:

    python3 perfbench/run.py --workload paper-score --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end metrics of BENCHMARK.json; with `--trace 1` the run measures an
untraced and a traced half and reports the per-layer metrics. The lines
before it give every metric by its workload name with unit and sample count,
the generated-input properties, the environment, and (traced) the hook
coverage; a hook that is unattached or silent counts as a failed check.

The benchmark imports the checkout's own `src/` and nothing installed; it
exits with status 2 when the checkout has no `src/secpatch`.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
BLAS_THREADS = 1  # pinned, and capped at the cores this process may use
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-train", "paper-score", "tested-cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def blas_runtime():
    """(thread count, runtime config) as OpenBLAS reports them, or (None, None) when unreadable."""
    import ctypes
    import glob

    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                    return threads(), config().decode()
    return None, None


def environment(threads_requested: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads, runtime = blas_runtime()
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "numpy": np.__version__,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_runtime_config": runtime,
        "blas_threads_pinned": threads_requested,
        "blas_threads_reported": threads,
        "nproc": nproc(),
        "python": platform.python_version(),
        "cpu_model": cpu,
    }


def summarize(result: dict, trace: bool) -> tuple[dict, list[str]]:
    """Contract metrics plus report lines naming each metric by its workload name.

    A metric whose phase recorded nothing (its first operation failed) is left
    out, so the result line still carries the ledger's failures.
    """
    import spans
    import workloads
    plain = result["plain"]

    def median(values):
        return statistics.median(values) if values else None

    def pct(values, q):
        return workloads.percentile(values, q) * 1e3 if values else None

    values = {
        "setup_s": (median(result["setup_s"]), "s", f"median of {len(result['setup_s'])} set-ups"),
        "samples_per_s": (sum(plain.bulk_samples) / sum(plain.bulk_s) if plain.bulk_s else None,
                          "samples/s", f"{sum(plain.bulk_samples)} samples in {len(plain.bulk_s)}"),
        "bulk_s": (median(plain.bulk_s), "s", f"median of {len(plain.bulk_s)}"),
        "call_ms_p50": (pct(plain.call_s, 50), "ms", f"n={len(plain.call_s)}"),
        "call_ms_p90": (pct(plain.call_s, 90), "ms", f"n={len(plain.call_s)}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "whole process"),
    }
    values = {name: v for name, v in values.items() if v[0] is not None}
    lines = [f"  {name:<22} {v:14.6f} {unit:<10} ({note})"
             for name, (v, unit, note) in values.items() if name != "bulk_s"]
    for alias, (source, unit, what) in result["aliases"].items():
        if source in values:
            v, _, note = values[source]
            lines.append(f"  {alias:<22} {v:14.6f} {unit:<10} ({note} {what})")
    metrics = {name: {"value": v, "unit": unit} for name, (v, unit, _) in values.items()
               if name != "bulk_s"}
    if trace:
        traced = result["traced"]
        layers = traced.tracer.layer_metrics()
        if traced.call_s and plain.call_s:
            layers["trace_overhead_frac"] = (statistics.median(traced.call_s)
                                             / statistics.median(plain.call_s) - 1.0)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in spans.PER_LAYER.items() if name in layers}
    return metrics, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "secpatch", "__init__.py")):
        print(f"perfbench: no secpatch sources under {SRC}; run it from a secpatch checkout",
              file=sys.stderr)
        return 2
    threads = min(BLAS_THREADS, nproc())
    for var in BLAS_ENV:  # must be set before numpy loads OpenBLAS
        os.environ[var] = str(threads)
    sys.path.insert(0, SRC)
    import secpatch
    if os.path.dirname(os.path.abspath(secpatch.__file__)) != os.path.join(SRC, "secpatch"):
        print(f"perfbench: imported secpatch from {secpatch.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    ctx = workloads.Context(seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                            root=ROOT, work=work)
    try:
        result = workloads.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            os.rmdir(WORK_DIR)
    ledger = ctx.ledger
    coverage = None
    if ctx.trace:
        coverage = result["traced"].tracer.coverage(args.workload)
        ledger.check("trace hook coverage", not coverage["flags"], "; ".join(coverage["flags"]))
    metrics, lines = summarize(result, ctx.trace)
    env = environment(threads)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("\n".join(lines))
    print(f"  {'error_rate':<22} {len(ledger.failures) / ledger.attempted:14.6f} {'ratio':<10} "
          f"({len(ledger.failures)} failed of {ledger.attempted} operations and checks)")
    for failure in ledger.failures:
        print(f"  FAILED {failure}")
    print("inputs " + json.dumps(result["inputs"], sort_keys=True))
    print("environment " + json.dumps(env, sort_keys=True))
    if coverage is not None:
        for name, value in metrics.items():
            print(f"  {name:<36} {value['value']:16.6f} {value['unit']}")
        print("coverage " + json.dumps(coverage, sort_keys=True))
    print(json.dumps({"correct": not ledger.failures, "attempted": ledger.attempted,
                      "failed": len(ledger.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
