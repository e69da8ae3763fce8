"""The traced benchmark (bench/tracing.py) wraps blockproj's callables by
name.  This fails when a name it looks up is gone, or when the wrapped
``run``, ``weights_at`` and problem-file functions are no longer the ones a
solve or ``blockproj gen`` goes through."""

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


def _traced_cli(monkeypatch, argv):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    from blockproj.cli import main

    with tracing.Tracer().install() as tracer:
        assert main(argv) == 0
    return tracer.calls


def test_traced_file_layer_is_counted(monkeypatch, tmp_path):
    problem = str(tmp_path / "p.json")
    calls = _traced_cli(monkeypatch, ["gen", "linear", "--m", "8", "--n", "4", "--seed", "3",
                                      "--out", problem])
    assert calls["problems.save"] == 1
    assert calls["problems.generate"] == 1

    config = tmp_path / "config.json"
    config.write_text('{"stopping": [{"rule": "residual_below", "tol": 1e-3}]}')
    calls = _traced_cli(monkeypatch, ["solve", "--problem", problem, "--config", str(config),
                                      "--trace", str(tmp_path / "t.csv"),
                                      "--summary", str(tmp_path / "s.json")])
    assert calls["problems.load"] == 1
    assert calls["cli.write_summary"] == 1
