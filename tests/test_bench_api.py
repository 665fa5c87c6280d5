"""Program names that the benchmark harness in ``bench/`` reaches for."""

import importlib
import importlib.util
from pathlib import Path

import renyisc

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_spans_resolve():
    # a traced run wraps each of these with getattr; a deleted name breaks it
    tracing = _load_bench_module("tracing")
    for mod_name, functions in tracing.SPANS.items():
        module = importlib.import_module(mod_name)
        for fn_name in functions:
            assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"


def test_bench_optimizer_config_constructs():
    # bench/checks.py scores the extraction merit under this setting
    assert renyisc.OptimizerConfig(starts=3).starts == 3
