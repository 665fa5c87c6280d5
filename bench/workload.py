"""One workload process: set up, run whole rounds, check every output.

Started by `run.py`; it speaks line by line on standard output:
``READY {...}`` once the inputs are built, then ``RESULT {...}``.

    python3 bench/workload.py --workload curves --seed 1 --seconds 20 --trace 0
    python3 bench/workload.py --workload curves --seed 1 --setup-only
    python3 bench/workload.py --workload curves --seed 1 --selftest

A round is the workload's fixed list of ops.  Each op is timed alone; its
output is checked after the clock stops.  With ``--trace 1`` untraced and
traced rounds alternate and the per-layer values come from the traced ones.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, fixed before numpy can load
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from typing import Callable, NamedTuple  # noqa: E402

WORKLOADS = ("curves", "spectral", "simulate")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"


def _emit(tag, obj):
    print(tag, json.dumps(obj, sort_keys=True), flush=True)


class Op(NamedTuple):
    label: str
    run: Callable  # () -> output; the timed call
    check: Callable  # output -> None; raises checks.CheckFailed
    perturbations: list  # (what, output -> moved output); each must fail the check


class Workload:
    """The ops of one round, with their checks and perturbed outputs."""

    def __init__(self, name, seed):
        import numpy as np

        import checks
        import inputs
        import renyisc
        from renyisc import io as rio

        self.name = name
        self.ops = []
        self.directory = None
        if name == "curves":
            grid = np.linspace(0.51, 0.99, 25)
            for ci in inputs.curves_inputs(seed):
                self.ops.append(Op(
                    ci.kind,
                    lambda ci=ci: renyisc.exponent_curve(ci.kind, ci.state, ci.rates,
                                                         copies=ci.copies),
                    lambda out, ci=ci: checks.check_curve(ci, out, grid),
                    _curve_perturbations(ci)))
        elif name == "spectral":
            for i, si in enumerate(inputs.spectral_inputs(seed)):
                self.ops.append(Op(
                    f"{si.suite}/{si.size}",
                    lambda si=si: renyisc.run_inequality_suite(si.suite, si.trials,
                                                               dims=si.dims, seed=si.seed),
                    lambda out, si=si, i=i: checks.check_suite(
                        si, out, inputs.rng_for("spectral", seed, 1000 + i)),
                    [("suite failure", _with_failure)]))
        elif name == "simulate":
            self.directory = os.path.join(OUT_DIR, "simulate", str(os.getpid()))
            checker = checks.SimulateChecker()
            for si in inputs.simulate_inputs(seed, self.directory):
                self.ops.append(Op(
                    si.name,
                    lambda si=si: renyisc.run_protocol(rio.load_instance(si.path)),
                    lambda out, si=si: checker.check(si, out),
                    [("merit + 1e-6", lambda o: dataclasses.replace(o, merit=o.merit + 1e-6))]))
        else:
            raise SystemExit(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")

    def close(self):
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)


def _shift_row(curve, pick, delta, copies=None):
    """Move one entry's number by ``delta``.

    Without ``copies`` the log2 merit bound moves alone; with it the
    expression moves and the exponent and bound follow, so only a check
    against an independent value can notice.
    """
    entries = list(curve.entries)
    i = next(j for j, e in enumerate(entries) if pick(e))
    e = entries[i]
    if copies is not None:
        sign = -1.0 if curve.kind == "randomness-extraction" else 1.0
        exponent = e.exponent + sign * e.kappa * delta
        entries[i] = dataclasses.replace(e, expression_bits=e.expression_bits + delta,
                                         exponent=exponent, log2_merit_bound=-copies * exponent)
    else:
        entries[i] = dataclasses.replace(e, log2_merit_bound=e.log2_merit_bound + delta)
    return dataclasses.replace(curve, entries=tuple(entries))


def _curve_perturbations(ci):
    out = [("log2 bound + 1e-6", lambda c: _shift_row(c, lambda e: True, 1e-6))]
    if ci.kind != "measurement-compression":
        # a closed-form row, or for the classical input an optimized row
        suffix = "-cond" if ci.classical else ("-linear", "q+e", "q-e")
        out.append(("expression + 1e-6, identities kept",
                    lambda c: _shift_row(c, lambda e: e.bound_id.endswith(suffix), 1e-6,
                                         copies=ci.copies)))
    return out


def _with_failure(report):
    from renyisc.harness import Failure

    fake = Failure(0, 0, "perturbed", {}, -1.0)
    return dataclasses.replace(report, failures=(fake,), max_violation=1.0)


def _run_round(wl, tracer, state):
    """Run every op once; returns the timed seconds of the round."""
    import checks

    total = 0.0
    for op in wl.ops:
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            out = exc
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        state["attempted"] += 1
        total += elapsed
        if isinstance(out, Exception):
            state["failed"] += 1
            state["errors"].append(f"{op.label}: {type(out).__name__}: {out}")
            continue
        try:
            op.check(out)
        except checks.CheckFailed as exc:
            state["correct"] = False
            state["errors"].append(f"{op.label}: check failed: {exc}")
    return total


def run(wl, seconds, trace):
    state = {"attempted": 0, "failed": 0, "correct": True, "errors": []}
    plain, traced, layers = [], [], []
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
    start = time.perf_counter()
    while True:
        if trace and len(traced) < len(plain):
            tracer.reset()
            tracer.install()
            try:
                traced.append(_run_round(wl, tracer, state))
            finally:
                tracer.uninstall()
            layers.append(tracer.snapshot())
        else:
            plain.append(_run_round(wl, None, state))
        done = time.perf_counter() - start >= seconds
        if done and (not trace or len(traced) == len(plain)):
            break
    return state, plain, traced, layers


def selftest(wl):
    """Every op once with its checks; every perturbed output must be rejected."""
    import checks

    ok = True
    for op in wl.ops:
        out = op.run()
        try:
            op.check(out)
            print(f"  ok      {op.label}", flush=True)
        except checks.CheckFailed as exc:
            ok = False
            print(f"  FAILED  {op.label}: {exc}", flush=True)
        for what, perturb in op.perturbations:
            try:
                op.check(perturb(out))
                ok = False
                print(f"  MISSED  {op.label}: {what}", flush=True)
            except checks.CheckFailed:
                print(f"  caught  {op.label}: {what}", flush=True)
    return ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)

    sys.path[:0] = [os.path.join(os.getcwd(), "src"), BENCH_DIR]
    t0 = time.perf_counter()
    import renyisc  # noqa: F401

    t1 = time.perf_counter()
    wl = Workload(args.workload, args.seed)
    t2 = time.perf_counter()
    _emit("READY", {"import_s": t1 - t0, "inputs_s": t2 - t1})
    try:
        if args.setup_only:
            return 0
        if args.selftest:
            return 0 if selftest(wl) else 1
        state, plain, traced, layers = run(wl, args.seconds, args.trace)
    finally:
        wl.close()
    result = dict(state, rounds=plain, traced_rounds=traced, layers=layers,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    _emit("RESULT", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
