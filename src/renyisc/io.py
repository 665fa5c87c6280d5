"""JSON/CSV serialization for states, channels, protocol instances, reports.

All artifacts are byte-deterministic: JSON is dumped with sorted keys and
fixed separators, floats are rendered with ``repr`` (shortest round-trip
form), and CSV rows follow a fixed column schema.
"""

from __future__ import annotations

import json

import numpy as np

from .channels import ChannelSpec
from .errors import UsageError
from .protocols import KINDS, ProtocolInstance
from .spaces import LabeledOperator, SystemSpace, density_operator


def _fmt(x: float) -> str:
    return repr(float(x))


def matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def matrix_from_json(rows, where: str = "matrix") -> np.ndarray:
    try:
        m = np.array([[complex(c[0], c[1]) for c in row] for row in rows])
    except (TypeError, IndexError, ValueError) as exc:
        raise UsageError(f"malformed {where}: expected [[[re, im], ...], ...] ({exc})")
    if m.ndim != 2:
        raise UsageError(f"malformed {where}: not a 2-d array")
    if not np.isfinite(m).all():
        raise UsageError(f"malformed {where}: non-finite entry")
    return m


def _systems_from_json(items, where: str) -> SystemSpace:
    try:
        subs = tuple((str(s["label"]), int(s["dim"])) for s in items)
    except (TypeError, KeyError) as exc:
        raise UsageError(f"malformed {where}: each system needs 'label' and 'dim' ({exc})")
    return SystemSpace(subs)


def _systems_to_json(space: SystemSpace) -> list:
    return [{"label": lab, "dim": dim} for lab, dim in space.subsystems]


def state_to_dict(op: LabeledOperator) -> dict:
    return {"systems": _systems_to_json(op.space), "matrix": matrix_to_json(op.matrix)}


def state_from_dict(d: dict, where: str = "state") -> LabeledOperator:
    if not isinstance(d, dict) or "systems" not in d or "matrix" not in d:
        raise UsageError(f"malformed {where}: needs 'systems' and 'matrix'")
    space = _systems_from_json(d["systems"], f"{where}.systems")
    m = matrix_from_json(d["matrix"], f"{where}.matrix")
    if m.shape != (space.dim, space.dim):
        raise UsageError(
            f"malformed {where}: matrix shape {m.shape} does not match dimension {space.dim}"
        )
    try:
        return density_operator(space, m)
    except UsageError as exc:
        raise UsageError(f"malformed {where}: {exc}") from None


def channel_to_dict(ch: ChannelSpec) -> dict:
    return {
        "inputs": _systems_to_json(ch.isometry.space_in),
        "outputs": _systems_to_json(ch.isometry.space_out),
        "environment": sorted(ch.environment_labels),
        "isometry": matrix_to_json(ch.isometry.matrix),
    }


def channel_from_dict(d: dict, where: str = "channel") -> ChannelSpec:
    for key in ("inputs", "outputs", "isometry"):
        if key not in d:
            raise UsageError(f"malformed {where}: missing {key!r}")
    space_in = _systems_from_json(d["inputs"], f"{where}.inputs")
    space_out = _systems_from_json(d["outputs"], f"{where}.outputs")
    m = matrix_from_json(d["isometry"], f"{where}.isometry")
    env = frozenset(str(x) for x in d.get("environment", ()))
    unknown = env - set(space_out.labels)
    if unknown:
        raise UsageError(f"malformed {where}: environment labels {sorted(unknown)} not in outputs")
    if m.shape != (space_out.dim, space_in.dim):
        raise UsageError(
            f"malformed {where}: isometry shape {m.shape} does not match "
            f"({space_out.dim}, {space_in.dim})"
        )
    return ChannelSpec(LabeledOperator(space_out, space_in, m), env)


def instance_to_dict(inst: ProtocolInstance) -> dict:
    d = {
        "kind": inst.kind,
        "state": state_to_dict(inst.input_state),
        "copies": inst.copies,
        "registers": dict(inst.registers),
        "encoders": [channel_to_dict(c) for c in inst.encoders],
        "decoders": [channel_to_dict(c) for c in inst.decoders],
    }
    if inst.povm is not None:
        d["povm"] = [matrix_to_json(e) for e in inst.povm]
    if inst.e_table is not None:
        d["e_table"] = {str(k): str(v) for k, v in inst.e_table.items()}
    if inst.decoder_povms is not None:
        d["decoder_povms"] = {
            str(c): {str(k): matrix_to_json(v) for k, v in povm.items()}
            for c, povm in inst.decoder_povms.items()
        }
    return d


def instance_from_dict(d: dict, where: str = "instance") -> ProtocolInstance:
    if not isinstance(d, dict) or "kind" not in d:
        raise UsageError(f"malformed {where}: missing 'kind'")
    kind = str(d["kind"])
    if kind not in KINDS:
        raise UsageError(f"malformed {where}: unknown kind {kind!r}; known: {sorted(KINDS)}")
    if "state" not in d:
        raise UsageError(f"malformed {where}: missing 'state'")
    state = state_from_dict(d["state"], f"{where}.state")
    povm = d.get("povm")
    if povm is not None:
        povm = tuple(matrix_from_json(e, f"{where}.povm[{i}]") for i, e in enumerate(povm))
    decoder_povms = d.get("decoder_povms")
    if decoder_povms is not None:
        try:
            decoder_povms = {
                int(c): {k: matrix_from_json(v, f"{where}.decoder_povms") for k, v in p.items()}
                for c, p in decoder_povms.items()
            }
        except (AttributeError, ValueError) as exc:
            raise UsageError(f"malformed {where}.decoder_povms: expected "
                             f"{{codeword index: {{input string: element}}}} ({exc})") from None
    encoders = [
        channel_from_dict(c, f"{where}.encoders[{i}]") for i, c in enumerate(d.get("encoders", ()))
    ]
    decoders = [
        channel_from_dict(c, f"{where}.decoders[{i}]") for i, c in enumerate(d.get("decoders", ()))
    ]
    try:
        return ProtocolInstance(
            kind=kind,
            input_state=state,
            copies=d.get("copies", 1),
            registers=d.get("registers", {}),
            encoders=encoders,
            decoders=decoders,
            povm=povm,
            e_table=d.get("e_table"),
            decoder_povms=decoder_povms,
        )
    except UsageError as exc:
        raise UsageError(f"malformed {where}: {exc}") from None


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def load_json_file(path: str):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}")


def load_state(path: str) -> LabeledOperator:
    return state_from_dict(load_json_file(path), where=path)


def write_text(path: str, text: str):
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}")


def save_state(path: str, op: LabeledOperator):
    write_text(path, dump_json(state_to_dict(op)))


def load_instance(path: str) -> ProtocolInstance:
    return instance_from_dict(load_json_file(path), where=path)


CSV_COLUMNS = (
    "bound_id",
    "alpha",
    "beta",
    "kappa",
    "expression_bits",
    "rate_bits",
    "exponent",
    "log2_merit_bound",
)


def entries_to_csv(entries) -> str:
    """Bound entries in the fixed converse-bounds column schema."""
    lines = [",".join(CSV_COLUMNS)]
    for e in entries:
        lines.append(",".join([e.bound_id] + [_fmt(getattr(e, c)) for c in CSV_COLUMNS[1:]]))
    return "\n".join(lines) + "\n"


def entries_to_json(entries) -> str:
    return dump_json([{c: getattr(e, c) for c in CSV_COLUMNS} for e in entries])


def suite_report_to_dict(report) -> dict:
    return {
        "suite_id": report.suite_id,
        "trials": report.trials,
        "tol": report.tol,
        "passed": report.passed,
        "max_violation": report.max_violation,
        "failures": [
            {
                "trial": f.trial,
                "seed": f.seed,
                "check": f.check,
                "slack": f.slack,
                "values": {k: _jsonable(v) for k, v in f.values.items()},
            }
            for f in report.failures
        ],
    }


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return matrix_to_json(np.atleast_2d(v))
    return v
