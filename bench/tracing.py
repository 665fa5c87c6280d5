"""Per-layer counters and spans, measured from outside the program.

`Tracer.install` replaces public renyisc functions with timing wrappers,
wherever a module holds them (also the names other modules re-import), and
wraps the numpy and scipy entry points the program calls.  Nothing in the
program changes; `uninstall` puts every original back.  Counting happens
only while `active` is set, so the benchmark's own checks are not counted.

Times are inclusive spans of the outermost call of a group (a nested call
of the same group is not counted twice).
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

import numpy as np
import scipy.optimize

# module -> {function name: span group}
SPANS = {
    "renyisc.bounds": {"exponent_curve": "bounds.curve"},
    "renyisc.entropies": {
        "conditional_entropy": "entropies.optimized",
        "mutual_information": "entropies.optimized",
        **{name: "entropies.closed_form" for name in (
            "renyi_entropy", "renyi_entropy_matrix", "von_neumann_entropy",
            "von_neumann_entropy_matrix", "sandwiched_divergence",
            "sandwiched_divergence_matrix", "quantum_relative_entropy",
            "quantum_relative_entropy_matrix", "conditional_mutual_information",
            "classical_renyi_entropy", "classical_conditional_entropy")},
    },
    "renyisc.linalg": {
        "fidelity": "linalg.fidelity",
        "fidelity_matrix": "linalg.fidelity",
        "purify": "linalg.purify",
    },
    "renyisc.spaces": {
        "partial_trace": "spaces.partial_trace",
        "permute_systems": "spaces.permute",
    },
    "renyisc.channels": {"apply_channel": "channels.apply"},
    "renyisc.protocols": {"run_protocol": "protocols.run"},
    "renyisc.harness": {"run_inequality_suite": "harness.suite"},
    "renyisc.io": {"load_instance": "io.load"},
}

# every per-layer metric a traced run reports, with its unit and direction
LAYER_METRICS = {
    "bounds.curve_s": ("s", "lower"),
    "bounds.entries": ("count", "higher"),
    "entropies.optimized_calls": ("count", "lower"),
    "entropies.optimized_s": ("s", "lower"),
    "entropies.closed_form_calls": ("count", "lower"),
    "entropies.closed_form_s": ("s", "lower"),
    "entropies.lbfgs_runs": ("count", "lower"),
    "entropies.lbfgs_iters": ("count", "lower"),
    "entropies.objective_evals": ("count", "lower"),
    "linalg.eigh_calls": ("count", "lower"),
    "linalg.eigh_flops": ("flop_computed", "lower"),
    "linalg.svd_calls": ("count", "lower"),
    "linalg.fidelity_s": ("s", "lower"),
    "linalg.purify_s": ("s", "lower"),
    "spaces.partial_trace_calls": ("count", "lower"),
    "spaces.partial_trace_s": ("s", "lower"),
    "spaces.permute_s": ("s", "lower"),
    "channels.apply_calls": ("count", "lower"),
    "channels.apply_s": ("s", "lower"),
    "channels.max_dim": ("count", "lower"),
    "protocols.run_s": ("s", "lower"),
    "protocols.lbfgs_runs": ("count", "lower"),
    "protocols.objective_evals": ("count", "lower"),
    "harness.suite_s": ("s", "lower"),
    "harness.trials": ("count", "higher"),
    "io.load_s": ("s", "lower"),
    "io.bytes_read": ("count", "lower"),
    "setup.import_s": ("s", "lower"),
    "setup.inputs_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
# the metrics that count work; they must repeat exactly across traced runs
COUNT_METRICS = tuple(k for k, (unit, _) in LAYER_METRICS.items() if unit != "s")


class Tracer:
    def __init__(self):
        self.active = False
        self.values = defaultdict(float)
        self._depth = defaultdict(int)
        self._restore = []

    def reset(self):
        self.values = defaultdict(float)

    # -- wrappers ----------------------------------------------------------

    def _span(self, group, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            outer = tracer._depth[group] == 0
            tracer._depth[group] += 1
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._depth[group] -= 1
            if outer:
                tracer.values[group + "_s"] += time.perf_counter() - start
                tracer.values[group + "_calls"] += 1
            if after is not None:
                after(tracer.values, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn, count):
        tracer = self

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if tracer.active:
                count(tracer.values, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def _replace(self, original, wrapper):
        """Swap ``original`` for ``wrapper`` in every renyisc module holding it."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "renyisc" or name.startswith("renyisc.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, original))

    def _patch(self, owner, attr, wrapper_of):
        original = getattr(owner, attr)
        setattr(owner, attr, wrapper_of(original))
        self._restore.append((owner, attr, original))

    def install(self):
        after = {
            "exponent_curve": _count_entries,
            "apply_channel": _record_dim,
            "run_inequality_suite": _count_trials,
            "load_instance": _count_bytes,
        }
        for mod_name, functions in SPANS.items():
            mod = sys.modules[mod_name]
            for fn_name, group in functions.items():
                original = getattr(mod, fn_name)
                self._replace(original, self._span(group, original, after.get(fn_name)))
        self._patch(np.linalg, "eigh", lambda f: self._counter(f, _count_eigh))
        self._patch(np.linalg, "eigvalsh", lambda f: self._counter(f, _count_eigh))
        self._patch(np.linalg, "svd", lambda f: self._counter(f, _count_svd))
        self._patch(scipy.optimize, "minimize", self._minimize)

    def _minimize(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if tracer.active:
                caller = sys._getframe(1).f_globals.get("__name__", "")
                layer = {"renyisc.entropies": "entropies",
                         "renyisc.protocols": "protocols"}.get(caller, "other")
                v = tracer.values
                v[f"{layer}.lbfgs_runs"] += 1
                v[f"{layer}.lbfgs_iters"] += int(getattr(out, "nit", 0))
                v[f"{layer}.objective_evals"] += int(getattr(out, "nfev", 0))
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def snapshot(self):
        """This round's per-layer values, under the reported metric names."""
        return {name: float(self.values.get(name, 0.0)) for name in LAYER_METRICS
                if not name.startswith(("setup.", "trace."))}


def _count_entries(values, args, kwargs, out):
    values["bounds.entries"] += len(out.entries)


def _record_dim(values, args, kwargs, out):
    ch, rho = args[0], args[1]
    d_rest = rho.space.dim // ch.isometry.space_in.dim
    dim = max(rho.space.dim, d_rest * ch.isometry.space_out.dim)
    values["channels.max_dim"] = max(values["channels.max_dim"], dim)


def _count_trials(values, args, kwargs, out):
    values["harness.trials"] += out.trials


def _count_bytes(values, args, kwargs, out):
    values["io.bytes_read"] += os.path.getsize(args[0] if args else kwargs["path"])


def _count_eigh(values, args, kwargs, out):
    a = np.asarray(args[0] if args else kwargs["a"])
    n = a.shape[-1]
    batch = int(np.prod(a.shape[:-2])) if a.ndim > 2 else 1
    values["linalg.eigh_calls"] += 1
    values["linalg.eigh_flops"] += batch * n**3


def _count_svd(values, args, kwargs, out):
    values["linalg.svd_calls"] += 1
