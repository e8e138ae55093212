"""Benchmark of the mminfenv moment engine, its CLI and its simulator.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: shipped-moments, shipped-validate, large-k50, large-k200,
large-k500, simulate (see perfbench/README.md).  One process, one caller,
closed loop, one BLAS thread.  With ``--trace 0`` the run times whole
rounds of the workload's operations for S seconds and prints the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
rounds and prints the per-layer metrics and the tracing overhead.  Every
output is checked.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the line before it holds
the raw (uncalibrated) figures, and perfbench/out/ keeps a full record.
"""

import os

# fixed before numpy loads; child interpreters inherit it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
KERNEL_SHARE = 0.1
CHILD_TIMEOUT_S = 60


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def run_child(args):
    """Wall time in seconds of one fresh interpreter; raises if it fails."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *args],
        env=child_env(),
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"child {args} exited {done.returncode}: {done.stderr.decode()[-500:]}")
    return elapsed, done.stderr.decode()


def measure_setup(workload_name):
    """Fresh-interpreter set-up times, each paired with an import-kernel time.

    Returns the median set-up time, the median kernel time and the median
    of the per-pair ratios.
    """
    probe = str(HERE / "probe.py")
    pairs = []
    for _ in range(SETUP_REPEATS):
        setup = run_child([probe, "setup", workload_name])[0]
        pairs.append((setup, run_child([probe, "kernel"])[0]))
    return (
        statistics.median(s for s, _ in pairs),
        statistics.median(k for _, k in pairs),
        statistics.median(s / k for s, k in pairs),
    )


def measure_imports():
    """import.total_s and import.scipy_s from ``-X importtime`` (medians)."""
    totals, scipy = [], []
    line = re.compile(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)")
    for _ in range(IMPORTTIME_REPEATS):
        _, log = run_child(["-X", "importtime", "-c", "import mminfenv.cli"])
        entries = [(int(m.group(1)), m.group(2)) for m in map(line.match, log.splitlines()) if m]
        totals.append(sum(us for us, _ in entries) / 1e6)
        scipy.append(sum(us for us, name in entries if name == "scipy" or name.startswith("scipy.")) / 1e6)
    return statistics.median(totals), statistics.median(scipy)


def timed_round(workload, index, tracer=None):
    """Run round ``index``; return seconds per operation.  Outputs are checked after timing."""
    ops = workload.round_ops(index)
    outputs = []
    elapsed = 0.0
    for label, op in ops:
        with tracer.active() if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            output = tracer.span("entry", op) if tracer else op()
            elapsed += time.perf_counter() - start
        outputs.append((label, output))
    for label, output in outputs:
        workload.record(label, output)
    return elapsed / len(ops)


@contextlib.contextmanager
def kernel_between_calls(hook, timed_kernel, samples):
    """Run the kernel after each call of the hooked function; its times go to ``samples``.

    Without a hook, or if the program no longer has the function, nothing
    runs inside the operation and the kernel blocks around it calibrate it.
    """
    original = getattr(*hook, None) if hook else None
    if original is None:
        yield
        return
    module, attr = hook

    def interleaved(*args, **kwargs):
        result = original(*args, **kwargs)
        samples.append(timed_kernel())
        return result

    setattr(module, attr, interleaved)
    try:
        yield
    finally:
        setattr(module, attr, original)


def run_timed(workload, seconds):
    """Time whole rounds for ``seconds``, calibrating each against the kernel.

    Returns per-round (seconds per operation, kernel seconds) pairs.  Each
    round sits between two blocks of kernel runs, and its kernel time is
    the mean of the two blocks, so both see the machine in the same state.
    The machine moves between speed states lasting seconds; a mean, unlike
    a median, weighs a block that spans two states by the time spent in
    each.  Operations that last seconds can themselves span a change of
    state, so where the workload names a ``kernel_hook`` the kernel also
    runs inside the operation, between the calls of that function; those
    runs give the round's kernel time and are subtracted from its time.
    """
    import kernels

    kernel = kernels.KERNELS[workload.kernel]
    ops_per_round = len(workload.round_ops(0))

    def timed_kernel():
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start

    def kernel_block(budget_s):
        runs = [timed_kernel()]
        while sum(runs) < budget_s:
            runs.append(timed_kernel())
        return runs

    before = kernel_block(0.0)
    pairs = []
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        inside = []
        start = time.perf_counter()
        with kernel_between_calls(workload.kernel_hook, timed_kernel, inside):
            per_op_s = timed_round(workload, index) - sum(inside) / ops_per_round
        after = kernel_block(KERNEL_SHARE * (time.perf_counter() - start))
        bracket = (statistics.fmean(before) + statistics.fmean(after)) / 2
        pairs.append((per_op_s, statistics.fmean(inside) if inside else bracket, bracket))
        before = after
        index += 1
        if time.perf_counter() >= deadline:
            return pairs


def run_traced(workload, seconds):
    import tracing

    tracer = tracing.Tracer()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        # the traced round repeats the untraced one, seeds included
        plain.append(timed_round(workload, index))
        traced.append(timed_round(workload, index, tracer))
        index += 1
        if time.perf_counter() >= deadline:
            break
    operations = len(traced) * len(workload.round_ops(0))
    return tracer, tracing.layer_metrics(tracer, operations), plain, traced


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mminfenv" / "__init__.py").is_file():
        print(f"perfbench: no mminfenv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import kernels
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; one of {workloads.NAMES}", file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, args.seed)
    workload.prepare()
    workload.warmup()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "python": sys.version.split()[0]}

    if args.trace == 0:
        setup_raw_s, import_kernel_s, setup_ratio = measure_setup(args.workload)
        pairs = run_timed(workload, args.seconds)
        ratio = statistics.median(op / kern for op, kern, _ in pairs)
        metrics = {
            "setup_s": (setup_ratio * kernels.REFERENCE_MS["import"] / 1e3, "s"),
            "call_ms": (ratio * kernels.REFERENCE_MS[workload.kernel], "ms"),
        }
        record["raw"] = {
            "setup_s": setup_raw_s,
            "import_kernel_s": import_kernel_s,
            "call_ms": statistics.median(op for op, _, _ in pairs) * 1e3,
            "kernel": workload.kernel,
            "kernel_ms": statistics.median(kern for _, kern, _ in pairs) * 1e3,
            "bracket_call_ms": statistics.median(op / b for op, _, b in pairs) * kernels.REFERENCE_MS[workload.kernel],
            "rounds": len(pairs),
        }
        record["rounds_ms"] = [(op * 1e3, kern * 1e3, b * 1e3) for op, kern, b in pairs]
    else:
        import_total_s, import_scipy_s = measure_imports()
        tracer, layers, plain, traced = run_traced(workload, args.seconds)
        overhead_ms = (statistics.median(traced) - statistics.median(plain)) * 1e3
        metrics = {"import.total_s": (import_total_s, "s"), "import.scipy_s": (import_scipy_s, "s")}
        metrics.update(layers)
        metrics["trace.overhead_ms"] = (overhead_ms, "ms")
        record["raw"] = {"untraced_call_ms": statistics.median(plain) * 1e3,
                         "traced_call_ms": statistics.median(traced) * 1e3}
        record["spans"] = tracer.to_json()

    workload.finish()
    if args.trace == 0:
        metrics["accurate_orders"] = (float(workload.accurate_orders), "orders")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    result = {
        "correct": not workload.problems,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record["problems"] = workload.problems
    record["result"] = result
    workloads.OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = workloads.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for problem in workload.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"raw": record["raw"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
