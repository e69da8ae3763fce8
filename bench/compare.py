"""Run the benchmark twice and report whether the two sets agree within the
bounds of BENCHMARK.json.

    python3 bench/compare.py --runs 10 --seed0 1 --out results.jsonl

Each set makes one untraced run per seed (``--seed0``, ``--seed0 + 1``, ...)
of every workload; both sets use the same seeds.  For each workload and
end-to-end metric it prints each set's median and spread across seeds (the
distance between the first and third quartile over the median), then the
ratio of the second set's value to the first's for each seed, as their
median and spread.  Seeds differ in how much work they give, so the spread
across seeds is partly by design; a ratio pairs a seed with itself, so the
ratios' spread is run-to-run noise alone.  Verdict per metric:

- ``ok``: the ratios' spread is within the bound, the second set's median
  is not worse than the first's by more than the bound, and ``iterations``
  is identical for each seed;
- ``NOISY``, ``WORSE`` or ``DIFFERS`` otherwise.

Runs that failed a check or printed no result, and a failed share that
differs between the sets, are reported too.  The exit code is 0 only when
everything agrees.  Every run's result is appended to ``--out`` as one
JSON line.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETS = 2


def run_once(spec, workload, seed):
    command = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return {"workload": workload, "seed": seed, "exit": done.returncode, "result": result,
            "stderr": done.stderr[-2000:]}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def report(spec, records):
    """Print the verdict table; return True when everything agrees."""
    agree = True
    for workload in [w["name"] for w in spec["workloads"]]:
        # runs[set][seed] -> record
        runs = [{r["seed"]: r for r in records if r["workload"] == workload and r["set"] == s}
                for s in range(SETS)]
        broken = [r for group in runs for r in group.values()
                  if r["exit"] != 0 or not r["result"] or not r["result"]["correct"]]
        print(f"{workload}: {len(runs[0])} seeds per set")
        if broken:
            print(f"  {len(broken)} runs failed or printed no result")
            agree = False
            continue
        shares = [sum(r["result"]["failed"] for r in g.values())
                  / sum(r["result"]["attempted"] for r in g.values()) for g in runs]
        if len(set(shares)) > 1:
            print(f"  failed share differs between the sets: {shares}")
            agree = False
        seeds = sorted(runs[0])
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[g[s]["result"]["metrics"][name]["value"] for s in seeds] for g in runs]
            medians = [statistics.median(v) for v in values]
            ratios = [b / a for a, b in zip(*values)]
            noise = spread(ratios) if len(ratios) > 1 else 0.0
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (medians[1] - medians[0]) / medians[0]
            verdict = "ok"
            if noise > bound:
                verdict = "NOISY"
            elif worse > bound:
                verdict = "WORSE"
            elif name == "iterations" and values[0] != values[1]:
                verdict = "DIFFERS"
            agree &= verdict == "ok"
            cells = "  ".join(f"{m:.6g} ({spread(v) if len(v) > 1 else 0.0:.1%})"
                              for m, v in zip(medians, values))
            print(f"  {name:<12} {cells}  ratio {statistics.median(ratios):.3f}"
                  f" ({noise:.1%})  bound {bound:.0%}  {verdict}")
    return agree


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="seeds per set")
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--out", default=None, help="append every run's result here")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    records = []
    for set_index in range(SETS):
        for workload in spec["workloads"]:
            for seed in range(args.seed0, args.seed0 + args.runs):
                rec = run_once(spec, workload["name"], seed)
                rec["set"] = set_index
                records.append(rec)
                print(f"set {set_index} {workload['name']} seed {seed}: exit {rec['exit']}",
                      file=sys.stderr)
                if args.out:
                    with open(args.out, "a", encoding="utf-8") as fh:
                        fh.write(json.dumps(rec) + "\n")
    return 0 if report(spec, records) else 1


if __name__ == "__main__":
    sys.exit(main())
