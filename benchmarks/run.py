"""standbench benchmark: one workload per process, BLAS pinned to one thread.

Run from the repository root:

    python3 benchmarks/run.py --workload stand_cell --seed 0 --seconds 35 --trace 0

Workloads (see workloads.py): ``stand_cell``, ``baseline_grid``, ``score_eval``.
The run sets up ``setup_repeats`` times, then calls the workload's operation
in a closed loop until ``--seconds`` have passed, checks every delivered cell
against ``reference.json``, and prints the metrics by name and unit. The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics (timings are medians over the
operations of the run). ``--trace 1`` runs one untraced operation, then traced
ones, checks that their outputs are bitwise-identical to the untraced one, and
reports per-layer metrics (see tracer.py); spans are written to
``.bench_work/spans-<workload>-seed<seed>.json``.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads: under contention the default
# pool turned a 0.55 ms GEMM into tens of milliseconds on a 2-core machine.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import workloads  # noqa: E402

SRC = os.path.join(os.path.dirname(HERE), "src")
MODULES = ("ndcore", "data", "stand", "baselines", "metrics", "bench", "cli")

END_TO_END = {  # name: unit
    "setup_s": "s",
    "cell_s": "s",
    "cells_per_s": "cells/s",
    "scored_steps_per_s": "steps/s",
    "peak_rss_mb": "MB",
}


def load_json(name):
    with open(os.path.join(HERE, name), encoding="utf-8") as fh:
        return json.load(fh)


# Run in a fresh interpreter: prints the seconds spent importing numpy and standbench.
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import numpy, standbench.cli; print(time.perf_counter() - t)"
)


def import_standbench() -> dict:
    """Import the package from the checkout's src/."""
    sys.path.insert(0, SRC)
    return {name: importlib.import_module(f"standbench.{name}") for name in MODULES}


def import_seconds(repeats) -> float:
    """Median import time over `repeats` fresh interpreters, each waited for."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], capture_output=True,
                              text=True, check=True, timeout=120)
        times.append(float(proc.stdout))
    return statistics.median(times)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "loadavg_at_start": os.getloadavg(),
    }


class Run:
    """Counts attempted and failed cells and checks them against the reference."""

    def __init__(self, workload, reference, tol):
        self.wl = workload
        self.reference = reference
        self.tol = tol
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def fail(self, count, reason):
        self.failed = min(self.attempted, self.failed + count)  # a cell fails at most once
        if len(self.reasons) < 10:
            self.reasons.append(reason)

    def check(self, result):
        self.attempted += result.cells
        for key, value in result.values:
            reason = workloads.check_cell(value, self.reference.get(key), self.wl.exact, self.tol)
            if reason:
                self.fail(1, f"{key}: {reason}")

    def fail_all(self, reason):
        """A run-wide check failed: every delivered cell counts as failed."""
        self.fail(self.attempted - self.failed, reason)

    def crashed(self, exc_text):
        self.attempted += self.wl.cells_per_op
        self.fail(self.wl.cells_per_op, exc_text.strip().splitlines()[-1])

    def timed_op(self, workdir):
        """One operation: (seconds, OpResult or None when it raised)."""
        t0 = time.perf_counter()
        try:
            result = self.wl.op(workdir)
        except Exception:  # an operation that raises is counted as failed, the loop goes on
            elapsed = time.perf_counter() - t0
            text = traceback.format_exc()
            print(text, file=sys.stderr)
            self.crashed(text)
            return elapsed, None
        return time.perf_counter() - t0, result


def _another_op(start, seconds, last_op_s) -> bool:
    """Start another op if it should end nearer to the deadline than stopping now would."""
    return time.perf_counter() - start + last_op_s / 2 < seconds


def run_untraced(run, workdir, seconds, repeats):
    setup_times = []
    for k in range(repeats):
        t0 = time.perf_counter()
        run.wl.setup(os.path.join(workdir, f"setup{k}"))
        setup_times.append(time.perf_counter() - t0)
    samples = []  # (seconds, cells, steps)
    start = time.perf_counter()
    elapsed = 0.0
    while _another_op(start, seconds, elapsed):
        elapsed, result = run.timed_op(os.path.join(workdir, "op"))
        if result is not None:
            run.check(result)
            samples += result.samples or [(elapsed, result.cells, result.steps)]
    return setup_times, samples


def run_traced(run, workdir, seconds, tracer):
    """Traced set-up once, one untraced op, then traced ops; returns (op ids, overhead s)."""
    tracer.op = "setup"
    tracer.install()
    try:
        run.wl.setup(os.path.join(workdir, "setup0"))
    finally:
        tracer.uninstall()
    start = time.perf_counter()
    untraced_s, untraced = run.timed_op(os.path.join(workdir, "op"))
    if untraced is None:
        return [], 0.0
    run.check(untraced)
    traced = []  # (op id, seconds)
    op = 0
    elapsed = untraced_s
    while _another_op(start, seconds, elapsed) or op == 0:
        tracer.op = op
        tracer.install()
        try:
            elapsed, result = run.timed_op(os.path.join(workdir, "op"))
        finally:
            tracer.uninstall()
        if result is not None:
            traced.append((op, elapsed))
            run.check(result)
            if result.outputs != untraced.outputs:
                run.fail(result.cells, f"traced op {op}: outputs differ from the untraced op")
        op += 1
    if not traced:
        return [], 0.0
    return [op for op, _ in traced], statistics.median(s for _, s in traced) - untraced_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "standbench", "__init__.py")):
        print(f"error: no standbench package under {SRC}", file=sys.stderr)
        return 2
    inputs = load_json("inputs.json")
    if args.workload not in inputs["workloads"]:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {inputs['workloads']}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2

    sb = import_standbench()
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    variant = args.seed % inputs["variants"]
    workload = workloads.WORKLOADS[args.workload](inputs, variant, sb)
    reference = load_json("reference.json").get(args.workload, {}).get(str(variant), {})
    run = Run(workload, reference, inputs["stand_abs_tol"])

    base = os.path.join(os.getcwd(), ".bench_work")
    workdir = os.path.join(base, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    try:
        if args.trace:
            from tracer import Tracer, layer_metrics, unit_of

            tracer = Tracer(sb)
            op_ids, overhead = run_traced(run, workdir, args.seconds, tracer)
            if not op_ids:
                print("error: no operation completed", file=sys.stderr)
                return 1
            for reason in workload.verify_run():
                run.fail_all(reason)
            metrics = layer_metrics(tracer, op_ids, workload.lookups_per_op, overhead)
            units = {name: unit_of(name) for name in metrics}
            tracer.dump(os.path.join(base, f"spans-{args.workload}-seed{args.seed}.json"))
        else:
            setup_times, samples = run_untraced(run, workdir, args.seconds, inputs["setup_repeats"])
            if not samples:
                print("error: no operation completed", file=sys.stderr)
                return 1
            for reason in workload.verify_run():
                run.fail_all(reason)
            imports_s = import_seconds(inputs["setup_repeats"])
            metrics = end_to_end(imports_s, setup_times, samples)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    fail_ratio = run.failed / run.attempted
    print(f"workload {args.workload} seed {args.seed} (input set {variant}), "
          f"trace {args.trace}")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    if not args.trace:
        print("sample_s " + " ".join(f"{s:.4f}" for s, _, _ in samples))
    print(f"fail_ratio {fail_ratio!r} failed/attempted ({run.failed}/{run.attempted})")
    for reason in run.reasons:
        print(f"failed: {reason}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def end_to_end(imports_s, setup_times, samples) -> dict:
    """Medians over timed samples; a sample delivers `cells` cells and scores `steps` steps.

    Set-up is the median import time plus the median of the workload's set-ups.
    """
    return {
        "setup_s": imports_s + statistics.median(setup_times),
        "cell_s": statistics.median(s / cells for s, cells, _ in samples),
        "cells_per_s": statistics.median(cells / s for s, cells, _ in samples),
        "scored_steps_per_s": statistics.median(steps / s for s, _, steps in samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


if __name__ == "__main__":
    sys.exit(main())
