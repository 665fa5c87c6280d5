"""Command-line front end.

Exit codes: 0 on success, 1 on a suite failure or bound violation, 2 on a
usage or input error.  All numeric output is in bits.  The environment
variable ``RENYI_SC_THREADS`` caps internal parallelism (0 = auto); the
package applies it before numpy loads, and ``main`` exits 2 on a value
that is not an integer >= 0.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import _thread_cap
from . import bounds as _bounds
from . import harness as _harness
from . import io as _io
from . import protocols as _protocols
from .entropies import (
    conditional_entropy,
    conditional_mutual_information,
    cmi_generalizations,
    mutual_information,
    renyi_entropy,
    sandwiched_divergence,
)
from .errors import RenyiscError, UsageError

_GRID_HELP = "alpha grid start:end:count (default {:g}:{:g}:{})".format(
    _bounds.DEFAULT_GRID[0], _bounds.DEFAULT_GRID[-1], len(_bounds.DEFAULT_GRID))


def _parse_grid(spec: str | None):
    """The alphas of a start:end:count spec, or None (the library's default grid)."""
    if spec is None:
        return None
    parts = spec.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid spec must be start:end:count, got {spec!r}")
    try:
        start, end, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise UsageError(f"grid spec must be start:end:count, got {spec!r}")
    if count < 1:
        raise UsageError("grid count must be >= 1")
    import numpy as np

    return tuple(np.linspace(start, end, count))


def _parse_rates(spec: str) -> dict:
    rates = {}
    for item in spec.split(","):
        if not item:
            continue
        if "=" not in item:
            raise UsageError(f"rates must be key=value pairs, got {item!r}")
        key, val = item.split("=", 1)
        try:
            rates[key.strip()] = float(val)
        except ValueError:
            raise UsageError(f"rate {key!r} has non-numeric value {val!r}")
    return rates


def _parse_dims(args):
    """``--dims`` checked against ``--suite``, or None for the suite's default."""
    if args.dims is None:
        return None
    if args.suite in (None, "all"):
        raise UsageError("--dims needs a single --suite (not all, not --protocol)")
    try:
        dims = [int(d) for d in args.dims.split(",")]
    except ValueError:
        raise UsageError(f"--dims must be comma-separated integers, got {args.dims!r}")
    try:
        return _harness.suite_dims(args.suite, dims)
    except UsageError as exc:
        raise UsageError(f"--dims: {exc}") from None


def _labels(spec: str) -> list:
    return [s for s in spec.split(",") if s]


def _emit(text: str, output: str | None):
    if output:
        _io.write_text(output, text)
    else:
        sys.stdout.write(text)


def _emit_scalar(x: float, output: str | None):
    _emit(repr(float(x)) + "\n", output)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="renyisc",
        description="Renyi entropies, protocol simulation, and strong-converse bounds.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, alpha=True):
        if alpha:
            p.add_argument("--alpha", type=float, required=True, help="Renyi order")
        p.add_argument("--output", help="write result to this path instead of stdout")
        return p

    p = common(sub.add_parser("entropy", help="Renyi entropy of a state"))
    p.add_argument("--input", required=True, help="state file (JSON)")

    p = common(sub.add_parser("divergence", help="sandwiched divergence between two states"))
    p.add_argument("--input", required=True, help="first state file (rho)")
    p.add_argument("--sigma", required=True, help="second state file (sigma)")

    p = common(sub.add_parser("conditional-entropy", help="optimized conditional entropy"))
    p.add_argument("--input", required=True)
    p.add_argument("--given", required=True, help="comma-separated conditioning labels")

    p = common(sub.add_parser("mutual-info", help="optimized mutual information"))
    p.add_argument("--input", required=True)
    p.add_argument("--over", required=True, help="comma-separated labels of the optimized side")

    p = common(sub.add_parser("cmi", help="conditional mutual information"))
    p.add_argument("--input", required=True)
    p.add_argument("--a", default="A", help="first system label")
    p.add_argument("--b", default="B", help="second system label")
    p.add_argument("--c", default="C", help="conditioning system label")
    p.add_argument(
        "--variant",
        choices=("schatten", "first", "second"),
        default="schatten",
        help="norm-based definition or one of the two difference-based ones",
    )

    p = sub.add_parser("exponent-curve", help="strong-converse exponents over an alpha grid")
    p.add_argument("--kind", required=True, choices=_protocols.KINDS)
    p.add_argument("--input", required=True, help="state file for the bound expressions")
    p.add_argument("--rates", required=True, help="comma-separated key=value rates in bits")
    p.add_argument("--grid", help=_GRID_HELP)
    p.add_argument("--copies", type=int, default=1)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output")

    p = sub.add_parser("simulate", help="run a protocol instance")
    p.add_argument("--input", required=True, help="instance file (JSON)")
    p.add_argument("--output")

    p = sub.add_parser("verify", help="run a randomized inequality or protocol suite")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--suite", choices=_harness.SUITE_IDS + ("all",))
    g.add_argument("--protocol", choices=_protocols.KINDS)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dims", help="comma-separated subsystem dimensions")
    p.add_argument("--tol", type=float, help="suite tolerance (--suite only)")
    p.add_argument("--grid", help=_GRID_HELP + "; --protocol only")
    p.add_argument("--output")

    p = sub.add_parser("falsify", help="search for violations of the two extraction exponents")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output-dir", default=".", help="directory for counterexample state files")

    p = sub.add_parser("limits", help="gap between bound expressions and their alpha->1 limits")
    p.add_argument("--kind", required=True, choices=_protocols.KINDS)
    p.add_argument("--input", required=True)
    p.add_argument("--eps", type=float, default=0.01,
                   help="distance to alpha = 1, in (0, 0.1] and outside the von Neumann band")
    p.add_argument("--output")

    return top


def _cmd_entropy(args) -> int:
    rho = _io.load_state(args.input)
    _emit_scalar(renyi_entropy(rho, args.alpha), args.output)
    return 0


def _cmd_divergence(args) -> int:
    rho = _io.load_state(args.input)
    sigma = _io.load_state(args.sigma)
    _emit_scalar(sandwiched_divergence(rho, sigma, args.alpha), args.output)
    return 0


def _cmd_conditional_entropy(args) -> int:
    rho = _io.load_state(args.input)
    _emit_scalar(conditional_entropy(rho, _labels(args.given), args.alpha).value, args.output)
    return 0


def _cmd_mutual_info(args) -> int:
    rho = _io.load_state(args.input)
    _emit_scalar(mutual_information(rho, _labels(args.over), args.alpha).value, args.output)
    return 0


def _cmd_cmi(args) -> int:
    rho = _io.load_state(args.input)
    if args.variant == "schatten":
        val = conditional_mutual_information(rho, args.a, args.b, args.c, args.alpha)
    else:
        first, second = cmi_generalizations(rho, args.a, args.b, args.c, args.alpha)
        val = first if args.variant == "first" else second
    _emit_scalar(val, args.output)
    return 0


def _cmd_exponent_curve(args) -> int:
    state = _io.load_state(args.input)
    curve = _bounds.exponent_curve(
        args.kind, state, _parse_rates(args.rates), _parse_grid(args.grid), copies=args.copies
    )
    if args.format == "csv":
        _emit(_io.entries_to_csv(curve.entries), args.output)
    else:
        _emit(_io.entries_to_json(curve.entries), args.output)
    return 0


def _cmd_simulate(args) -> int:
    inst = _io.load_instance(args.input)
    out = _protocols.run_protocol(inst)
    report = {"kind": inst.kind, "copies": inst.copies, "merit": out.merit,
              "costs": {k: float(v) for k, v in sorted(out.costs.items())}}
    _emit(_io.dump_json(report), args.output)
    return 0


def _cmd_verify(args) -> int:
    dims = _parse_dims(args)
    if args.protocol and args.tol is not None:
        raise UsageError("--tol needs --suite (a protocol sweep's slack is fixed)")
    if args.suite and args.grid is not None:
        raise UsageError("--grid needs --protocol (inequality suites draw their own alphas)")
    if args.protocol:
        report = _harness.check_protocol_bounds(
            args.protocol, args.trials, seed=args.seed,
            alphas=_parse_grid(args.grid)
        )
        reports = [report]
    elif args.suite == "all":
        reports = [
            _harness.run_inequality_suite(sid, args.trials, dims=None, seed=args.seed,
                                          tol=args.tol)
            for sid in _harness.SUITE_IDS
        ]
    else:
        reports = [
            _harness.run_inequality_suite(args.suite, args.trials, dims=dims, seed=args.seed,
                                          tol=args.tol)
        ]
    payload = [_io.suite_report_to_dict(r) for r in reports]
    _emit(_io.dump_json(payload if len(payload) > 1 else payload[0]), args.output)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_falsify(args) -> int:
    ces = _harness.falsify_bound_comparison(args.trials, seed=args.seed)
    paths = []
    for ce in ces:
        path = os.path.join(args.output_dir, f"counterexample-{ce.direction}.json")
        _io.save_state(path, _harness.classical_state(ce.joint))
        paths.append(path)
    report = {
        "trials": args.trials,
        "seed": args.seed,
        "counterexamples": [
            {"direction": ce.direction, "alpha": ce.alpha, "lhs": ce.lhs, "rhs": ce.rhs,
             "margin": ce.margin, "seed": ce.seed, "state_file": p}
            for ce, p in zip(ces, paths)
        ],
    }
    sys.stdout.write(_io.dump_json(report))
    directions = {ce.direction for ce in ces}
    return 0 if directions == {"left-violated", "right-violated"} else 1


def _cmd_limits(args) -> int:
    state = _io.load_state(args.input)
    report = _bounds.vn_limit_check(args.kind, state, args.eps)
    _emit(_io.dump_json(report), args.output)
    return 0


def _check_args(args):
    """Reject flag values that parse but have no meaning."""
    alpha = getattr(args, "alpha", None)
    if alpha is not None and not math.isfinite(alpha):
        raise UsageError(f"--alpha must be finite, got {alpha}")
    trials = getattr(args, "trials", None)
    if trials is not None and trials < 1:
        raise UsageError(f"--trials must be >= 1, got {trials}")
    copies = getattr(args, "copies", None)
    if copies is not None and copies < 1:
        raise UsageError(f"--copies must be >= 1, got {copies}")
    tol = getattr(args, "tol", None)
    if tol is not None and not 0.0 <= tol < math.inf:
        raise UsageError(f"--tol must be finite and >= 0, got {tol}")


_COMMANDS = {
    "entropy": _cmd_entropy,
    "divergence": _cmd_divergence,
    "conditional-entropy": _cmd_conditional_entropy,
    "mutual-info": _cmd_mutual_info,
    "cmi": _cmd_cmi,
    "exponent-curve": _cmd_exponent_curve,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "falsify": _cmd_falsify,
    "limits": _cmd_limits,
}


def main(argv=None) -> int:
    if _thread_cap() is None:
        raw = os.environ["RENYI_SC_THREADS"]
        print(f"error: RENYI_SC_THREADS must be an integer >= 0, got {raw!r}", file=sys.stderr)
        return 2
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        _check_args(args)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RenyiscError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
