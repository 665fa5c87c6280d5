"""Benchmark of renyisc: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (the package is taken from ``src/``):

    python3 bench/run.py --workload curves --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload simulate --seed 1 --seconds 20 --trace 1
    python3 bench/run.py --selftest [--workload spectral]

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it records the environment; both also go to
``.bench_out/results.jsonl``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# one BLAS/OpenMP thread here and in every worker, fixed before numpy loads
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(BENCH_DIR, "workload.py")
WORKLOADS = ("curves", "spectral", "simulate")
SETUP_SAMPLES = 3  # fresh interpreters timed to "inputs ready"; the median is setup_s
RUN_LIMIT_S = 170  # every worker of one run is stopped by then
RESULTS = os.path.join(".bench_out", "results.jsonl")


class BenchError(Exception):
    pass


def _read_tagged(proc, tag):
    """The JSON after ``tag`` on the worker's next tagged line."""
    for line in proc.stdout:
        if line.startswith(tag + " "):
            return json.loads(line[len(tag) + 1:])
        sys.stdout.write(line)
    raise BenchError(f"worker ended (or was stopped at the deadline) without {tag}")


def _worker(args, deadline):
    """Run one worker; returns (seconds to READY, READY, RESULT or None).

    A watchdog kills the worker at ``deadline`` (a `time.monotonic` value).
    """
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER] + args, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    try:
        ready = _read_tagged(proc, "READY")
        setup_s = time.perf_counter() - start
        result = None if "--setup-only" in args else _read_tagged(proc, "RESULT")
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0:
        raise BenchError(f"worker exited with {code}")
    return setup_s, ready, result


def environment():
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    sha = None
    if os.path.isdir(".git"):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "git_sha": sha,
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(workload, seed, seconds, trace):
    base = ["--workload", workload, "--seed", str(seed)]
    deadline = time.monotonic() + RUN_LIMIT_S
    if trace:
        import tracing

        _, ready, res = _worker(base + ["--seconds", str(seconds), "--trace", "1"], deadline)
        layers = {name: [round_[name] for round_ in res["layers"]] for name in res["layers"][0]}
        metrics = {}
        for name, (unit, _) in tracing.LAYER_METRICS.items():
            if name in tracing.COUNT_METRICS:
                values = layers[name]
                if len(set(values)) != 1:
                    raise BenchError(f"{name} differs between traced rounds: {values}")
                metrics[name] = _metric(values[0], unit)
            elif name in layers:
                metrics[name] = _metric(statistics.median(layers[name]), unit)
        metrics["setup.import_s"] = _metric(ready["import_s"], "s")
        metrics["setup.inputs_s"] = _metric(ready["inputs_s"], "s")
        metrics["trace.overhead_s"] = _metric(
            statistics.median(res["traced_rounds"]) - statistics.median(res["rounds"]), "s")
    else:
        setups = [_worker(base + ["--setup-only"], deadline)[0]
                  for _ in range(SETUP_SAMPLES - 1)]
        setup_s, _, res = _worker(base + ["--seconds", str(seconds), "--trace", "0"], deadline)
        setups.append(setup_s)
        rounds = res["rounds"]
        ops_done = res["attempted"] - res["failed"]
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "ops_per_s": _metric(ops_done / sum(rounds), "1/s"),
            "round_s.p50": _metric(statistics.median(rounds), "s"),
            "peak_rss_mb": _metric(res["peak_rss_mb"], "MiB"),
        }
    for err in res["errors"]:
        print("error:", err, file=sys.stderr)
    summary = {"correct": res["correct"], "attempted": res["attempted"],
               "failed": res["failed"], "metrics": metrics}
    return summary, res


def selftest(workloads, seed):
    """Checks and perturbations per op, then two traced runs with equal counts."""
    import tracing

    ok = True
    for w in workloads:
        print(f"[{w}] every op once, checks and perturbed outputs", flush=True)
        proc = subprocess.run([sys.executable, WORKER, "--workload", w, "--seed", str(seed),
                               "--selftest"], text=True, capture_output=True,
                              timeout=600)
        sys.stdout.write("".join(l + "\n" for l in proc.stdout.splitlines()
                                 if not l.startswith("READY ")))
        ok &= proc.returncode == 0
        counts = []
        for _ in range(2):
            summary, _ = measure(w, seed, 1, trace=True)
            counts.append({k: summary["metrics"][k]["value"] for k in tracing.COUNT_METRICS})
        same = counts[0] == counts[1]
        ok &= same
        print(f"[{w}] traced counts {'repeat' if same else 'DIFFER'}: {counts[0]}", flush=True)
        if not same:
            print(f"[{w}] second run: {counts[1]}", flush=True)
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=32)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "renyisc", "__init__.py")):
        print("error: run from the root of a renyisc checkout (src/renyisc not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, BENCH_DIR)
    if args.selftest:
        return selftest([args.workload] if args.workload else WORKLOADS, args.seed)
    if args.workload is None:
        ap.error("--workload is required")
    try:
        summary, res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "round_times_s": res["rounds"], **summary}
    os.makedirs(os.path.dirname(RESULTS), exist_ok=True)
    with open(RESULTS, "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"env": env, "workload": args.workload, "seed": args.seed}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
