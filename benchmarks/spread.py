"""Run the benchmark over several seeds and report each metric's spread.

    python3 benchmarks/spread.py --seeds 0-9 [--workloads stand_cell,score_eval]
                                 [--seconds 25] [--trace 0]

Each (workload, seed) is one ``run.py`` process, run one after another so
that runs never share the CPU. For every end-to-end metric this prints the
median over seeds and the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to the
metric's bound from BENCHMARK.json. With one seed it is simply the command
that runs every workload and prints every metric. Raw results are written to
``.bench_work/spread-<time>.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["log"] = lines[:-1]
    return result, wall


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    raw = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            result, wall = run_once(workload, seed, args.seconds, args.trace)
            runs.append(result)
            print(f"{workload} seed {seed}: correct {result['correct']} "
                  f"failed {result['failed']}/{result['attempted']} wall {wall:.1f} s", flush=True)
        raw[workload] = runs
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            median = statistics.median(values)
            line = f"  {name} median {median!r} {unit}"
            if len(values) >= 2 and median:
                q1, _, q3 = statistics.quantiles(values, n=4)
                share = (q3 - q1) / abs(median)
                line += f"  IQR/median {share:.4f}"
                if name in bounds:
                    line += f" (bound {bounds[name]}, {'ok' if share <= bounds[name] else 'TOO WIDE'})"
            print(line, flush=True)
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    out = os.path.join(ROOT, ".bench_work", f"spread-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(raw, fh, indent=1)
    print(f"raw results: {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
