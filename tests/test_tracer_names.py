"""The benchmark's tracer wraps christol functions and methods by name
(bench/tracing.py).  A rename or move of one of them fails here, in
every test run, and not only in the traced benchmark smoke run."""

import importlib.util
from pathlib import Path

import christol.cli  # noqa: F401  the tracer patches these modules too
import christol.examples  # noqa: F401

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_layer_the_benchmark_reports_is_wrapped():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        # KeyError for a layer span whose function is gone
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert len(metrics) == 3 * len(tracing.LAYER_SPANS) + len(tracing.LAYER_COUNTS)
