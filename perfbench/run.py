"""Benchmark for autoplex: one workload, one single-threaded process.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 58 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones; with --trace 1 they are the per-layer ones, taken
from spans recorded around every program call and written to
perfbench/results/trace-<workload>-<seed>.jsonl.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# The machine has two cores; keep numpy's thread pools at one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"

# Set-up is timed in this process and in SETUP_CHILDREN fresh ones, one
# after each round and the rest after the last, so that they sample the
# machine's speed across the run; the median of all of them is reported.
SETUP_CHILDREN = 8
CHILD_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}

# (metric, unit, span name, statistic); statistic is one of calls, ms,
# ms_per_call, or count (a counter recorded at the span).
PER_LAYER = [
    ("acsearch.exact_A.calls", "count", "acsearch.exact_A", "calls"),
    ("acsearch.exact_A.ms", "ms", "acsearch.exact_A", "ms"),
    ("acsearch.exact_A.ms_per_call", "ms", "acsearch.exact_A", "ms_per_call"),
    ("acsearch.brute_A.calls", "count", "acsearch.brute_A", "calls"),
    ("acsearch.brute_A.ms", "ms", "acsearch.brute_A", "ms"),
    ("acsearch.brute_A.decided", "count", "acsearch.brute_A.decided", "count"),
    ("automata.uniquely_accepts.calls", "count", "automata.uniquely_accepts", "calls"),
    ("automata.uniquely_accepts.ms", "ms", "automata.uniquely_accepts", "ms"),
    ("automata.dp_cells", "count", "automata.dp_cells", "count"),
    ("witness.build.ms", "ms", "witness.build", "ms"),
    ("witness.accepted_string.ms", "ms", "witness.accepted_string", "ms"),
    ("witness.materialize.ms", "ms", "witness.materialize", "ms"),
    ("witness.materialize.states", "count", "witness.materialize.states", "count"),
    ("dio.equation.ms", "ms", "dio.equation", "ms"),
    ("dio.solutions", "count", "dio.solutions", "count"),
    ("psc.bit_at.calls", "count", "psc.bit_at", "calls"),
    ("psc.bit_at.ms_per_call", "ms", "psc.bit_at", "ms_per_call"),
    ("psc.zone.ms", "ms", "psc.zone", "ms"),
    ("psc.verify_zone.ms", "ms", "psc.verify_zone", "ms"),
    ("psc.prefix.ms", "ms", "psc.prefix", "ms"),
    ("tseq.bit_at.ms_per_call", "ms", "tseq.bit_at", "ms_per_call"),
    ("debruijn.generate.ms", "ms", "debruijn.generate", "ms"),
    ("debruijn.is_debruijn.ms", "ms", "debruijn.is_debruijn", "ms"),
    ("analysis.frequency_report.ms", "ms", "analysis.frequency_report", "ms"),
    ("analysis.frequency_report.windows", "count", "analysis.frequency_report.windows", "count"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["certify", "sequence"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true", help="time set-up alone and print it (used internally)")
    return p.parse_args(argv)


def child_setup(args) -> float:
    """Set-up time of one fresh set-up-only process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def layer_metrics(tracer, ops: int) -> dict:
    totals = tracer.layer_totals()
    out = {}
    for name, unit, key, stat in PER_LAYER:
        if stat == "count":
            value = tracer.counts.get(key, 0)
        else:
            calls, ms = totals.get(key, (0, 0.0))
            value = {"calls": calls, "ms": ms, "ms_per_call": ms / calls if calls else 0.0}[stat]
        out[name] = {"value": value, "unit": unit}
    out["trace.spans"] = {"value": len(tracer.spans), "unit": "count"}
    out["trace.op_self_ms"] = {"value": tracer.op_self_ms() / max(ops, 1), "unit": "ms"}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "autoplex" / "__init__.py").is_file():
        print(f"autoplex sources not found under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    wl.warmup(tracing.NullTracer())
    ops = wl.round()
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # wall and cpu add up the timed operations only; timed counts them.
    latencies, wall, cpu, setups = [], 0.0, 0.0, [setup_s]
    attempted = failed = timed = rounds = 0
    mismatches = []
    while True:
        for op in ops:
            tracer.begin_op(op.kind)
            c0, w0 = time.process_time(), time.perf_counter()
            try:
                result = op.run(tracer)
                error = None
            except Exception:  # a failing operation is counted, and the run goes on
                error = traceback.format_exc()
            w1, c1 = time.perf_counter(), time.process_time()
            tracer.end_op()
            attempted += 1
            if op.timed:
                timed += 1
                wall += w1 - w0
                cpu += c1 - c0
            if error is not None:
                ok = False
                print(f"operation {op.kind} raised:\n{error}", file=sys.stderr)
            else:
                try:
                    ok = op.check(result)
                except workloads.Mismatch as exc:
                    mismatches.append(str(exc))
                    ok = True
            if not ok:
                failed += 1
            elif op.timed:
                latencies.append((w1 - w0) * 1e3)
        rounds += 1
        if not args.trace and len(setups) <= SETUP_CHILDREN:
            setups.append(child_setup(args))
        # Stop at the round boundary nearest to --seconds of timed work.
        if wall * (1 + 0.5 / rounds) >= args.seconds:
            break
        ops = wl.round()
    while not args.trace and len(setups) <= SETUP_CHILDREN:
        setups.append(child_setup(args))

    for m in mismatches[:20]:
        print(f"MISMATCH: {m}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {attempted} operations ({timed} timed) in {rounds} rounds, "
          f"{failed} failed, {len(mismatches)} mismatches")

    if args.trace:
        RESULTS.mkdir(exist_ok=True)
        path = RESULTS / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(path)
        print(f"spans written to {path}")
        metrics = layer_metrics(tracer, attempted)
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(latencies) / wall,
            "latency_p50_ms": statistics.median(latencies) if latencies else 0.0,
            "cpu_ms_per_op": cpu * 1e3 / timed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not mismatches, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
