"""The traced benchmark (bench/tracing.py) wraps blockproj's callables by
name.  This fails when a name it looks up is gone, or when the wrapped
``run`` and ``weights_at`` are no longer the ones a solve goes through."""

import importlib
from pathlib import Path

import blockproj as bp

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_traced_run_is_counted(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    problem = bp.gen_linear_feasibility(3, 8, 4, 2.0)
    config = bp.SolverConfig(residual_tolerance=1e-4, seed=3)
    with tracing.Tracer().install() as tracer:
        result = bp.run(problem, config, bp.SimultaneousUniform(problem.m),
                        bp.RandomDirectionPolicy(0.99))
    metrics = tracer.metrics()
    assert metrics["solver.run_calls"] == 1
    assert metrics["weights.calls"] == result.iterations_used > 0
