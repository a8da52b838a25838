"""Benchmark of the mscca package: four workloads, one operation at a time.

Run one workload (what BENCHMARK.json's ``command`` names):

    python3 perfbench/run.py --workload paper --seed 0 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give the machine facts, the sample counts
and the exact counts.

Run every workload, traced and untraced, each in a fresh process, and write
``.bench_work/results.json`` with the tracing overhead per workload:

    python3 perfbench/run.py --all

End-to-end times are each operation's own time rescaled to a fixed
reference speed by a speed kernel sampled while the operation runs
(``speed.py``); the plain times are printed beside them.  Metric names and
units come from BENCHMARK.json.  Reference objectives for the default seed
are in ``perfbench/references.json``.  NOTES.md explains the workloads, the
rescaling and the metric-to-layer table.
"""

import os
import sys
import time

_START = time.perf_counter()

# Pinned before numpy loads: the winning start on ``wide`` depends on the
# BLAS thread count (NOTES.md, known defects).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

# One CPU for the whole run.  The cores of the shared host change speed
# independently of each other, so the speed kernel (speed.py) only tells how
# fast an operation ran if both ran on the same core.
PINNED_CPU = max(os.sched_getaffinity(0))
os.sched_setaffinity(0, {PINNED_CPU})

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 0
SETUP_REPS = 3
SELF_SUM_TOL = 0.05  # traced self times must add up to the op's wall time
BLOCK_S = 0.25  # calls shorter than this are timed in blocks of about this long


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, traced and not")
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("--workload or --all is required")
    return args


def machine_facts(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "pinned_cpu": PINNED_CPU,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def summary(values: list[float]) -> dict:
    """Median, quartiles and range of one metric's samples."""
    out = {"n": len(values), "median": statistics.median(values), "min": min(values)}
    out["max"] = max(values)
    if len(values) > 1:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        out["p25"], out["p75"] = q1, q3
    return out


def run_workload(args, spec: dict) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)  # relative paths keep the archives free of the checkout's location
    import numpy as np

    import speed
    import tracing  # noqa: F401  (imported here so import_s covers it)
    import workloads as wl

    import_s = time.perf_counter() - _START
    if args.workload not in wl.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    print("env: " + json.dumps(machine_facts(np)), flush=True)
    sampler = speed.Sampler()
    sampler.start()
    try:
        return measure(args, spec, sampler, import_s)
    finally:
        sampler.stop()


def measure(args, spec: dict, sampler, import_s: float) -> int:
    """Set up, warm up and run the closed loop of one workload, with the
    speed sampler running throughout."""
    import speed
    import tracing
    import workloads as wl

    w = wl.WORKLOADS[args.workload]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    workdir = WORK.relative_to(ROOT) / args.workload

    # Set-up, SETUP_REPS times: the median of the input builds enters
    # setup_s.  Every step is rescaled to the reference speed (speed.py);
    # the import, done before the sampler started, by the samples taken
    # during the builds.
    mark = sampler.mark()
    builds, builds_rescaled, digests = [], [], set()
    for _ in range(SETUP_REPS):
        build_mark, t0 = sampler.mark(), time.perf_counter()
        inputs = wl.make_inputs(w, args.seed, workdir)
        builds.append(time.perf_counter() - t0)
        builds_rescaled.append(sampler.rescale(builds[-1], build_mark))
        digests.add(inputs.csv_digest)
    if len(digests) != 1:
        raise RuntimeError("the same seed produced different inputs")
    setup_s = sampler.rescale(import_s, mark) + statistics.median(builds_rescaled)

    references = json.loads((BENCH_DIR / "references.json").read_text(encoding="utf-8"))
    reference = references["workloads"][args.workload] if args.seed == references["seed"] else None
    gate = wl.Gate(reference)
    ops = wl.operations(w, inputs, workdir)
    attempted = failed = 0
    counts: dict[str, dict] = {}

    def execute(op, timed_run) -> tuple[float, float]:
        """Run and check one operation: its wall time, and its own time
        (the wall time without the speed sampler's handler)."""
        nonlocal attempted, failed
        attempted += 1
        op.prepare()
        handler_s, t0 = sampler.handler_s, time.perf_counter()
        try:
            result, error = timed_run(), None
        except Exception as exc:  # a failing operation is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        own = wall - (sampler.handler_s - handler_s)
        if error is not None:
            failed += 1
            print(f"FAILED {op.kind}: {error}", file=sys.stderr)
            return wall, own
        try:
            counts[op.kind] = gate.check(op, result).counts
        except (wl.GateError, OSError, ValueError, KeyError) as exc:
            failed += 1
            print(f"FAILED {op.kind} check: {exc}", file=sys.stderr)
        return wall, own

    warm_s = 0.0
    for op in ops:  # warm-up: one untimed operation of each kind
        op_mark = sampler.mark()
        wall, own = execute(op, op.run)
        warm_s += wall
        setup_s += sampler.rescale(own, op_mark)
    setup_wall_s = import_s + statistics.median(builds) + warm_s
    setup_kernel = list(sampler.kernel_s[mark:])

    tracer = tracing.Tracer() if args.trace else None
    runs = {op.kind: op.run for op in ops}
    if tracer is not None:
        tracer.install()
        runs = {op.kind: tracer.wrap(f"op.{op.kind}", op.run) for op in ops}
    samples: dict[str, list[float]] = {op.kind: [] for op in ops}  # rescaled
    owns: dict[str, list[float]] = {op.kind: [] for op in ops}
    records = []  # (kind, root span index, wall seconds) of every timed op

    def block(op) -> float:
        """Calls of ``op`` for about BLOCK_S (at least one): one sample, the
        mean own time per call, rescaled by the speed samples taken during
        the block."""
        block_mark, calls, spent = sampler.mark(), 0, 0.0
        while calls == 0 or spent + 0.5 * spent / calls < BLOCK_S:
            root = len(tracer.spans) if tracer is not None else -1
            wall, own = execute(op, runs[op.kind])
            records.append((op.kind, root, wall))
            spent += own
            calls += 1
        owns[op.kind].append(spent / calls)
        samples[op.kind].append(sampler.rescale(spent / calls, block_mark))
        return spent

    # Closed loop, one client.  A round is one block of fits, then blocks of
    # variants calls until they have taken half as long as the fits, so
    # both kinds are sampled over the same stretches of time.  The fits get
    # the larger share: a fit is one sample, a variants block of short calls
    # is one sample too.
    fit, variants = ops
    run_mark, window = sampler.mark(), time.perf_counter()
    while time.perf_counter() - window < seconds:
        fit_spent = block(fit)
        spent = block(variants)
        while spent < 0.5 * fit_spent:
            spent += block(variants)
    if tracer is not None:
        tracer.restore()
        tracer.write(WORK / "traces" / f"{args.workload}-seed{args.seed}.json")

    run_counts: dict[str, int] = {}
    for kind_counts in counts.values():
        for name, value in kind_counts.items():
            run_counts[name] = run_counts.get(name, 0) + value
    for kind, values in samples.items():
        calls = sum(1 for record in records if record[0] == kind)
        print(f"{kind}_s: " + json.dumps({"calls": calls, **summary(values)}))
        print(f"{kind}_own_s: " + json.dumps(summary(owns[kind])))
    kernel = {"reference_s": speed.REFERENCE_S, "handler_s": sampler.handler_s}
    print("kernel_s: " + json.dumps(kernel | summary(sampler.kernel_s[run_mark:])))
    setup = {"import_s": import_s, "input_builds_s": builds, "warm_up_s": warm_s}
    setup |= {"wall_s": setup_wall_s, "kernel": summary(setup_kernel)}
    print("setup: " + json.dumps(setup))
    print("counts: " + json.dumps(run_counts, sort_keys=True))
    print("objectives: " + json.dumps({k: o.objective for k, o in gate.first.items()}), flush=True)

    correct = failed == 0
    if tracer is None:
        values = {
            "setup_s": setup_s,
            "fit_s": statistics.median(samples["fit"]),
            "variants_s": statistics.median(samples["variants"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        declared = spec["end_to_end"]
    else:
        values = tracing.layer_metrics(tracer, records, run_counts, w.n_obs)
        values["traced.fit_s"] = statistics.median(samples["fit"])
        values["traced.variants_s"] = statistics.median(samples["variants"])
        worst = tracing.worst_self_sum(tracer.spans, records)
        if worst > SELF_SUM_TOL:
            print(f"traced self times miss an op's wall time by {worst:.1%}", file=sys.stderr)
            correct = False
        declared = spec["per_layer"]
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args, spec: dict) -> int:
    """Every workload untraced and traced, each in its own process."""
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    results, ok = {}, True
    for workload in spec["workloads"]:
        name = workload["name"]
        results[name] = {}
        metrics = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
            cmd += ["--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                print(f"{name} trace={trace}: exit {proc.returncode}")
                ok = False
                continue
            *log, last = proc.stdout.strip().splitlines()
            out = json.loads(last)
            results[name][f"trace{trace}"] = {"result": out, "log": log}
            ok = ok and out["correct"]
            metrics[trace] = {metric: entry["value"] for metric, entry in out["metrics"].items()}
            if not trace:
                for metric, entry in out["metrics"].items():
                    print(f"{name:6s} {metric:14s} {entry['value']:12.4f} {entry['unit']}")
        if len(metrics) < 2:
            continue
        overhead = {k: metrics[1][f"traced.{k}"] - metrics[0][k] for k in ("fit_s", "variants_s")}
        results[name]["tracing_overhead_s"] = overhead
        for metric, value in overhead.items():
            print(f"{name:6s} tracing overhead on {metric}: {value:+.4f} s (traced minus untraced)")
        estimate = metrics[1]["trace.overhead_est_s"]
        print(f"{name:6s} tracing overhead per fit + variants: {estimate * 1e3:.3f} ms (spans x span cost)")
    WORK.mkdir(exist_ok=True)
    (WORK / "results.json").write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {WORK / 'results.json'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mscca" / "__init__.py").is_file():
        print(f"no mscca source under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.all:
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
