"""Write reference.json: the six metrics of every cell, for every input set.

    python3 benchmarks/make_reference.py [workload ...]

Each workload is set up once and runs one operation per input set, with the
same thread pinning and inputs as run.py. Regenerate only when a change to
standbench is meant to change its results, and say so in that change.
"""

import json
import os
import shutil
import sys

import run  # pins the BLAS threads before numpy loads


def main(names) -> int:
    inputs = run.load_json("inputs.json")
    sb = run.import_standbench()
    path = os.path.join(run.HERE, "reference.json")
    reference = run.load_json("reference.json") if os.path.exists(path) else {}
    workdir = os.path.join(os.getcwd(), ".bench_work", f"reference-{os.getpid()}")
    try:
        _fill(reference, names or inputs["workloads"], inputs, sb, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def _fill(reference, names, inputs, sb, workdir):
    for name in names:
        table = {}
        for variant in range(inputs["variants"]):
            wl = run.workloads.WORKLOADS[name](inputs, variant, sb)
            wl.setup(os.path.join(workdir, "setup"))
            result = wl.op(os.path.join(workdir, "op"))
            bad = [f"{k}: {v}" for k, v in result.values if isinstance(v, str)]
            if bad:
                raise SystemExit(f"{name} input set {variant}: {bad}")
            table[str(variant)] = dict(result.values)
            print(f"{name} input set {variant}: {len(result.values)} cells", flush=True)
        reference[name] = table


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
