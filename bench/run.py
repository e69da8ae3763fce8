"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload linear-sim-random --seed 1 --seconds 25 --trace 0

The program is imported from ``src`` of the checkout this file sits in.
A run repeats identical rounds of the workload (see workloads.py) until
the next round would end after ``--seconds``, and always makes at least
one.  With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json:
times are medians over the rounds, in reference seconds (calibration.py),
and ``setup_s`` is the median of five set-ups, each in a fresh interpreter.
With ``--trace 1`` it alternates untraced and traced rounds and prints the
per-layer metrics: the median over traced rounds of one traced set-up plus
that round, and the traced over the untraced solve time.  Every round's
outputs are checked; the exit code is 1 when a check failed and 2 when the
program cannot be found.
"""

import os

# single-threaded BLAS, also in the set-up probes, which inherit this
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
SETUP_SAMPLES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def load_program():
    """Put the checkout's sources first on the path and import the workloads."""
    if not (SRC / "blockproj" / "__init__.py").is_file():
        print(f"bench: no blockproj package under {SRC}", file=sys.stderr)
        sys.exit(2)
    paths = [str(SRC), str(BENCH)]
    sys.path[:0] = paths
    os.environ["PYTHONPATH"] = os.pathsep.join(paths + [os.environ.get("PYTHONPATH", "")])
    import workloads

    return workloads


def setup_times(name, seed, workdir):
    """Reference seconds of import plus set-up, each in a fresh interpreter."""
    samples = []
    for i in range(SETUP_SAMPLES):
        probe_dir = workdir / f"probe-{i}"
        probe_dir.mkdir()
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed), str(probe_dir)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
        shutil.rmtree(probe_dir)
    return samples


def measure(workload, state, seconds, tracer):
    """Rounds until the next would end after ``seconds``.  With a tracer,
    untraced and traced rounds alternate, starting untraced.  Returns the
    untraced rounds and (round, per-layer metrics, wrapped self time) per
    traced round."""
    plain, traced = [], []
    start = perf_counter()
    longest = 0.0
    while True:
        round_start = perf_counter()
        if tracer is not None and len(traced) < len(plain):
            tracer.reset()
            with tracer.install():
                result = workload.round(state)
            traced.append((result, tracer.metrics(), tracer.self_since_baseline_s()))
        else:
            plain.append(workload.round(state))
        now = perf_counter()
        longest = max(longest, now - round_start)
        complete = tracer is None or traced
        if complete and now - start + longest > seconds:
            return plain, traced


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = load_program()
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            with tracer.install():
                state = workload.setup(args.seed, str(workdir))
            tracer.set_baseline()
        else:
            tracer = None
            setup = statistics.median(setup_times(args.workload, args.seed, workdir))
            state = workload.setup(args.seed, str(workdir))
        plain, traced = measure(workload, state, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    rounds = plain + [r for r, _, _ in traced]
    problems = [f for r in rounds for f in r.failures if f is not None]
    if len({r.iterations for r in rounds}) != 1:
        problems.append("rounds differ in iterations")
    solve_s = statistics.median(r.calibrated_s for r in plain)
    if args.trace:
        for r, _, wrapped_s in traced:
            # self times partition the wrapped calls' time, all of which
            # falls inside the round's operations
            if wrapped_s > r.operations_s:
                problems.append(f"self times of the wrapped calls add up to {wrapped_s:.6f} s,"
                                f" more than the round's traced operations {r.operations_s:.6f} s")
        values = {name: statistics.median(m[name] for _, m, _ in traced)
                  for name in traced[0][1]}
        values["tracing.solve_s"] = statistics.median(r.solve_s for r, _, _ in traced)
        values["tracing.overhead_ratio"] = (
            statistics.median(r.calibrated_s for r, _, _ in traced) / solve_s)
        wanted = spec["per_layer"]
    else:
        iterations = plain[0].iterations
        values = {
            "setup_s": setup,
            "solve_s": solve_s,
            "iter_per_s": iterations / solve_s,
            "iterations": iterations,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
    for message in problems:
        print(f"bench: check failed: {message}", file=sys.stderr)
    print(f"bench: {args.workload} seed={args.seed} rounds={len(plain)}+{len(traced)} traced",
          file=sys.stderr)
    failed = sum(f is not None for r in rounds for f in r.failures)
    result = {
        "correct": not problems,
        "attempted": sum(len(r.failures) for r in rounds),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
