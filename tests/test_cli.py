import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from renyisc import io as rio
from renyisc.bounds import DEFAULT_GRID, exponent_curve
from renyisc.channels import identity_channel
from renyisc.cli import main
from renyisc.protocols import REDISTRIBUTION, ProtocolInstance
from renyisc.random_ensembles import random_cq_state, random_state
from renyisc.spaces import LabeledOperator, SystemSpace, maximally_mixed


@pytest.fixture
def mm2(tmp_path):
    path = tmp_path / "mm2.json"
    rio.save_state(str(path), maximally_mixed(SystemSpace.of(("A", 2))))
    return str(path)


@pytest.fixture
def cq(tmp_path):
    path = tmp_path / "cq.json"
    rio.save_state(str(path), random_cq_state(2, 2, seed=3))
    return str(path)


def test_entropy_maximally_mixed(mm2, capsys):
    assert main(["entropy", "--input", mm2, "--alpha", "2"]) == 0
    assert capsys.readouterr().out == "1.0\n"


def test_entropy_missing_file_exits_2(capsys):
    assert main(["entropy", "--input", "/no/such/file.json", "--alpha", "2"]) == 2
    assert "/no/such/file.json" in capsys.readouterr().err


@pytest.mark.parametrize(
    "diag, cause",
    [([1.5, -0.5], "negative eigenvalue"), ([0.6, 0.6], "trace"), ([math.nan, 1.0], "non-finite")],
)
def test_entropy_invalid_state_file_exits_2(tmp_path, capsys, diag, cause):
    from renyisc.spaces import LabeledOperator

    path = tmp_path / "bad_state.json"
    rio.save_state(
        str(path), LabeledOperator.square(SystemSpace.of(("A", 2)), np.diag(diag).astype(complex))
    )
    assert main(["entropy", "--input", str(path), "--alpha", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(path) in captured.err
    assert cause in captured.err


@pytest.mark.parametrize("command", [["entropy"], ["conditional-entropy", "--given", "B"]])
def test_non_finite_off_diagonal_exits_2(tmp_path, capsys, command):
    path = tmp_path / "nan_state.json"
    m = np.array([[0.5, math.nan], [math.nan, 0.5]], dtype=complex)
    rio.save_state(str(path), LabeledOperator.square(SystemSpace.of(("A", 2), ("B", 1)), m))
    assert main([command[0], "--input", str(path), "--alpha", "2", *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(path) in captured.err
    assert ".matrix: non-finite" in captured.err


def test_unknown_flag_exits_2(mm2, capsys):
    assert main(["entropy", "--input", mm2, "--alpha", "2", "--bogus"]) == 2


def test_unknown_subcommand_exits_2(capsys):
    assert main(["transmogrify"]) == 2


def test_divergence(mm2, tmp_path, capsys):
    pure = tmp_path / "pure.json"
    from renyisc.spaces import LabeledOperator

    rio.save_state(
        str(pure),
        LabeledOperator.square(SystemSpace.of(("A", 2)), np.diag([1.0, 0.0]).astype(complex)),
    )
    assert main(["divergence", "--input", str(pure), "--sigma", mm2, "--alpha", "2"]) == 0
    assert_allclose(float(capsys.readouterr().out), 1.0, atol=1e-10)


def test_conditional_entropy_mes(tmp_path, capsys):
    from renyisc.spaces import maximally_entangled

    path = tmp_path / "mes.json"
    rio.save_state(str(path), maximally_entangled(2, "A", "B"))
    assert main(["conditional-entropy", "--input", str(path), "--given", "B",
                 "--alpha", "2"]) == 0
    assert_allclose(float(capsys.readouterr().out), -1.0, atol=1e-6)


def test_mutual_info_and_cmi(tmp_path, capsys):
    rho = random_state(SystemSpace.of(("A", 2), ("B", 2), ("C", 2)), seed=4)
    path = tmp_path / "abc.json"
    rio.save_state(str(path), rho)
    assert main(["cmi", "--input", str(path), "--alpha", "1.5"]) == 0
    schatten = float(capsys.readouterr().out)
    assert math.isfinite(schatten)
    assert main(["cmi", "--input", str(path), "--alpha", "1.5", "--variant", "first"]) == 0
    assert math.isfinite(float(capsys.readouterr().out))


@pytest.mark.parametrize(
    "argv",
    [
        ["entropy", "--input", "{mm2}", "--alpha", "2"],
        ["divergence", "--input", "{mm2}", "--sigma", "{mm2}", "--alpha", "2"],
        ["conditional-entropy", "--input", "{cq}", "--given", "B", "--alpha", "2"],
        ["mutual-info", "--input", "{cq}", "--over", "B", "--alpha", "2"],
        ["cmi", "--input", "{abc}", "--alpha", "1.5"],
    ],
    ids=lambda argv: argv[0],
)
def test_scalar_output_goes_to_file(mm2, cq, tmp_path, capsys, argv):
    abc = tmp_path / "abc.json"
    rio.save_state(str(abc), random_state(SystemSpace.of(("A", 2), ("B", 2), ("C", 2)), seed=4))
    argv = [a.format(mm2=mm2, cq=cq, abc=abc) for a in argv]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "scalar.txt"
    assert main(argv + ["--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == printed
    assert math.isfinite(float(printed))


@pytest.mark.parametrize(
    "argv",
    [
        ["entropy", "--input", "{mm2}", "--alpha", "2", "--output", "{bad}/out.txt"],
        ["exponent-curve", "--kind", "data-compression", "--input", "{cq}", "--rates", "m=1",
         "--grid", "0.6:0.9:2", "--output", "{bad}/out.csv"],
        ["falsify", "--trials", "2000", "--seed", "0", "--output-dir", "{bad}"],
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_output_exits_2(mm2, cq, tmp_path, capsys, argv):
    bad = tmp_path / "missing"
    assert main([a.format(mm2=mm2, cq=cq, bad=bad) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"cannot write {bad}" in captured.err


def test_exponent_curve_csv(cq, capsys):
    assert main(["exponent-curve", "--kind", "data-compression", "--input", cq,
                 "--rates", "m=1", "--grid", "0.6:0.9:2"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == (
        "bound_id,alpha,beta,kappa,expression_bits,rate_bits,exponent,log2_merit_bound"
    )
    assert len(lines) == 5  # header + 2 bounds x 2 grid points


def test_exponent_curve_default_grid_is_the_library_default(cq, tmp_path):
    out = tmp_path / "curve.csv"
    assert main(["exponent-curve", "--kind", "data-compression", "--input", cq,
                 "--rates", "m=1", "--output", str(out)]) == 0
    curve = exponent_curve("data-compression", rio.load_state(cq), {"m": 1.0})
    assert curve.alphas == DEFAULT_GRID
    assert out.read_text() == rio.entries_to_csv(curve.entries)


def test_exponent_curve_bad_grid_exits_2(cq, capsys):
    assert main(["exponent-curve", "--kind", "data-compression", "--input", cq,
                 "--rates", "m=1", "--grid", "nonsense"]) == 2


def test_exponent_curve_output_deterministic(cq, tmp_path):
    o1, o2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    for out in (o1, o2):
        assert main(["exponent-curve", "--kind", "data-compression", "--input", cq,
                     "--rates", "m=1", "--grid", "0.6:0.9:3", "--output", str(out)]) == 0
    assert o1.read_bytes() == o2.read_bytes()


def test_simulate_identity_redistribution(tmp_path, capsys):
    rho = random_state(SystemSpace.of(("A", 2), ("B", 2), ("C", 2)), seed=5)
    enc = identity_channel(
        SystemSpace.of(("A", 2), ("C", 2), ("TA", 1)),
        rename={"A": "Q", "C": "Cp", "TA": "TAp"},
    )
    dec = identity_channel(
        SystemSpace.of(("Q", 2), ("B", 2), ("TB", 1)),
        rename={"Q": "Ap", "B": "Bp", "TB": "TBp"},
    )
    inst = ProtocolInstance(
        REDISTRIBUTION, rho, registers={"k": 1, "m": 1, "q": 2}, encoders=[enc], decoders=[dec]
    )
    path = tmp_path / "inst.json"
    path.write_text(rio.dump_json(rio.instance_to_dict(inst)))
    assert main(["simulate", "--input", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["merit"] == 1.0
    assert report["costs"] == {"e": 0.0, "q": 1.0}


def test_verify_passing_suite_exits_0(capsys):
    assert main(["verify", "--suite", "holder", "--trials", "10", "--seed", "7"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True


def test_verify_protocol_exits_0(capsys):
    assert main(["verify", "--protocol", "data-compression", "--trials", "2",
                 "--seed", "8", "--grid", "0.6:0.9:2"]) == 0


def test_verify_protocol_rejects_alpha_outside_bound_domain(capsys):
    assert main(["verify", "--protocol", "data-compression", "--trials", "1",
                 "--grid", "1.5:2:2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "alpha in (1/2, 1)" in captured.err


def test_falsify_writes_counterexamples(tmp_path, capsys):
    assert main(["falsify", "--trials", "2000", "--seed", "0",
                 "--output-dir", str(tmp_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["counterexamples"]) == 2
    for ce in report["counterexamples"]:
        state = rio.load_state(ce["state_file"])
        assert state.space.dims == (2, 2)


def test_limits(cq, capsys):
    assert main(["limits", "--kind", "data-compression", "--input", cq, "--eps", "0.01"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"data-compression-linear", "data-compression-cond"}
    for row in report.values():
        assert row["gap"] < 0.05


@pytest.mark.parametrize("value", ["x", "-3"])
def test_bad_thread_cap_exits_2(value):
    src = os.path.dirname(os.path.dirname(rio.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, RENYI_SC_THREADS=value, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-m", "renyisc.cli", "--help"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: RENYI_SC_THREADS must be an integer >= 0, got {value!r}\n"


def _run_python(code, threads):
    """Run ``python -c code`` on this checkout with RENYI_SC_THREADS as the only thread cap."""
    src = os.path.dirname(os.path.dirname(rio.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    caps = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in caps}
    env.update(RENYI_SC_THREADS=threads, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)


# runs the module as ``python -m renyisc.cli --help`` does, then asks numpy's
# bundled OpenBLAS for its thread count
_BLAS_THREADS_AFTER_CLI = """
import ctypes, glob, os, runpy, sys
sys.argv = ["renyisc.cli", "--help"]
try:
    runpy.run_module("renyisc.cli", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
import numpy
libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
for lib in glob.glob(os.path.join(libs, "libscipy_openblas*")):
    get = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
    if get is not None:
        get.argtypes, get.restype = [], ctypes.c_int
        print("THREADS", get())
        break
else:
    print("THREADS none")
"""


def test_thread_cap_reaches_bundled_openblas():
    proc = _run_python(_BLAS_THREADS_AFTER_CLI, "1")
    assert proc.returncode == 0, proc.stderr
    threads = proc.stdout.strip().splitlines()[-1].split()[1]
    if threads == "none":
        pytest.skip("numpy does not bundle scipy-openblas here")
    assert threads == "1"


@pytest.mark.parametrize("value", ["x", "-3"])
def test_bad_thread_cap_does_not_end_an_importer(value):
    proc = _run_python("import renyisc.cli", value)
    assert proc.returncode == 0, proc.stderr


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "entropy" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["entropy", "--input", "{mm2}", "--alpha", "nan"], "--alpha"),
        (["divergence", "--input", "{mm2}", "--sigma", "{mm2}", "--alpha", "inf"], "--alpha"),
        (["verify", "--suite", "holder", "--trials", "-3"], "--trials"),
        (["falsify", "--trials", "0", "--output-dir", "{tmp}"], "--trials"),
        (["verify", "--suite", "holder", "--trials", "1", "--tol", "nan"], "--tol"),
        (["verify", "--suite", "holder", "--trials", "1", "--tol", "-0.001"], "--tol"),
        (["verify", "--suite", "holder", "--trials", "1", "--dims", "x"], "--dims"),
        (["verify", "--suite", "holder", "--trials", "1", "--dims", "2,"], "--dims"),
        (["verify", "--suite", "additivity", "--trials", "1", "--dims", "2"], "--dims"),
        (["verify", "--suite", "holder", "--trials", "1", "--dims", "0"], "--dims"),
        (["verify", "--suite", "all", "--trials", "1", "--dims", "2"], "--dims"),
        (["verify", "--protocol", "data-compression", "--trials", "1", "--dims", "2"], "--dims"),
        (["exponent-curve", "--kind", "data-compression", "--input", "{cq}", "--rates", "m=1",
          "--grid", "0.6:0.9:2", "--copies", "0"], "--copies"),
        (["exponent-curve", "--kind", "data-compression", "--input", "{cq}", "--rates", "m=1",
          "--grid", "0.6:0.9:2", "--copies", "-3"], "--copies"),
        (["verify", "--suite", "holder", "--trials", "1", "--grid", "7:9:2"], "--grid"),
        (["verify", "--protocol", "data-compression", "--trials", "1", "--grid", "0.6:0.9:2",
          "--tol", "5"], "--tol"),
        # inside the band both sides take the von Neumann branch, so every gap reads 0
        (["limits", "--kind", "data-compression", "--input", "{cq}", "--eps", "5e-7"],
         "von Neumann band"),
        (["limits", "--kind", "data-compression", "--input", "{cq}", "--eps", "1e-9"],
         "von Neumann band"),
    ],
)
def test_bad_flag_value_exits_2(mm2, cq, tmp_path, capsys, argv, flag):
    argv = [a.format(mm2=mm2, cq=cq, tmp=tmp_path) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err


@pytest.mark.parametrize(
    "kind, rates, key",
    [("data-compression", "x=0.5", "m"), ("randomness-extraction", "m=0.5", "l"),
     ("data-compression", "m=nan", "m"), ("randomness-extraction", "l=inf", "l")],
)
def test_exponent_curve_missing_rate_exits_2(cq, capsys, kind, rates, key):
    assert main(["exponent-curve", "--kind", kind, "--input", cq,
                 "--rates", rates, "--grid", "0.6:0.9:2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert kind in captured.err
    assert repr(key) in captured.err


@pytest.mark.parametrize("kind", ["data-compression", "randomness-extraction"])
def test_exponent_curve_non_cq_state_exits_2(tmp_path, capsys, kind):
    path = tmp_path / "coherent.json"
    rho = random_state(SystemSpace.of(("X", 2), ("B", 2)), seed=9)
    assert np.linalg.matrix_rank(rho.matrix) == 4
    rio.save_state(str(path), rho)
    rate = "m=1" if kind == "data-compression" else "l=1"
    assert main(["exponent-curve", "--kind", kind, "--input", str(path),
                 "--rates", rate, "--grid", "0.6:0.9:2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not classical on its first register" in captured.err


def _instance_dict(kind):
    """A valid instance of ``kind`` as its JSON object."""
    from renyisc.harness import _random_measurement_compression, random_feedback_instance
    from renyisc.protocols import DATA_COMPRESSION
    from renyisc.random_ensembles import generator

    if kind == "redistribution":
        rho = random_state(SystemSpace.of(("A", 2), ("B", 2), ("C", 2)), seed=5)
        inst = ProtocolInstance(REDISTRIBUTION, rho, registers={"k": 1, "m": 1, "q": 2})
    elif kind == "measurement-compression":
        inst = _random_measurement_compression(generator(3), 3)[0]
    elif kind == "feedback":
        inst = random_feedback_instance(generator(5), rounds=2)
    else:
        inst = ProtocolInstance(
            DATA_COMPRESSION, random_cq_state(2, 2, seed=11), registers={"c": 1},
            e_table={"0": "0", "1": "0"},
            decoder_povms={0: {"0": np.eye(2) / 2, "1": np.eye(2) / 2}},
        )
    return rio.instance_to_dict(inst)


def _drop(*path):
    def edit(d):
        for key in path[:-1]:
            d = d[key]
        del d[path[-1]]
    return edit


def _put(value, *path):
    def edit(d):
        for key in path[:-1]:
            d = d[key]
        d[path[-1]] = value
    return edit


def _both(first, second):
    def edit(d):
        first(d)
        second(d)
    return edit


def _rekey(new):
    def edit(d):
        d["decoder_povms"] = {new: d["decoder_povms"]["0"]}
    return edit


@pytest.mark.parametrize(
    "kind, edit, field",
    [
        pytest.param("redistribution", _drop("registers", "q"), "'q'", id="missing-q"),
        pytest.param("measurement-compression", _drop("registers", "l"), "'l'", id="missing-l"),
        pytest.param("feedback", _drop("registers", "forward"), "'forward'", id="missing-forward"),
        pytest.param("redistribution", _put("x", "copies"), "copies", id="copies-x"),
        pytest.param("redistribution", _put(1.9, "copies"), "copies", id="copies-fraction"),
        pytest.param("redistribution", _put("2", "copies"), "copies", id="copies-string"),
        pytest.param("redistribution", _put(True, "registers", "k"), "'k'", id="k-true"),
        pytest.param("compression", _put(2.7, "registers", "c"), "'c'", id="c-fraction"),
        pytest.param("redistribution", _put([math.nan, 0.0], "state", "matrix", 0, 1),
                     "state.matrix: non-finite", id="state-nan"),
        pytest.param("measurement-compression",
                     _put([math.inf, 0.0], "encoders", 0, "isometry", 0, 0),
                     "encoders[0].isometry: non-finite", id="isometry-inf"),
        pytest.param("measurement-compression", _put([0.5, math.nan], "povm", 0, 0, 0),
                     "povm[0]: non-finite", id="povm-nan"),
        pytest.param("redistribution", _put("two", "registers", "k"), "'k'", id="k-two"),
        pytest.param("redistribution", _put([2], "registers"), "registers", id="registers-list"),
        pytest.param("compression", _drop("e_table"), "e_table", id="missing-e-table"),
        pytest.param("compression", _put([["0", "0"]], "e_table"), "e_table", id="e-table-list"),
        pytest.param("compression", _put("x", "e_table", "1"), "table value 'x'", id="e-value-x"),
        pytest.param("compression", _put([0], "e_table", "1"), "table value [0]", id="e-value-list"),
        pytest.param("compression", _both(_put(2, "registers", "c"), _put(True, "e_table", "1")),
                     "table value True", id="e-value-true"),
        pytest.param("compression", _put(3, "e_table", "1"), "table value 3 out of range",
                     id="e-value-range"),
        pytest.param("compression", _put("3", "e_table", "1"), "table value '3'",
                     id="e-value-digit-range"),
        pytest.param("compression", _drop("e_table", "1"), "missing input '1'",
                     id="e-table-missing-input"),
        pytest.param("compression", _rekey("x"), "decoder_povms", id="decoder-key-x"),
        pytest.param("compression", _rekey("1"), "codeword 0", id="decoder-missing-codeword"),
    ],
)
def test_simulate_malformed_instance_exits_2(tmp_path, capsys, kind, edit, field):
    d = _instance_dict(kind)
    edit(d)
    path = tmp_path / "instance.json"
    path.write_text(rio.dump_json(d))
    assert main(["simulate", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(path) in captured.err
    assert field in captured.err
