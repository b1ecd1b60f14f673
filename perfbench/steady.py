"""Show that the benchmark is steady: run one workload ten times, each
with another seed, and print each end-to-end metric's median, quartiles
and spread against its bound from BENCHMARK.json.

    python3 perfbench/steady.py --workload certify --first-seed 1
    python3 perfbench/steady.py --workload certify --first-seed 101 \\
        --against perfbench/results/steady-certify-1.json

The spread is (Q3 - Q1) / median, with the quartiles of
statistics.quantiles(values, n=4).  With --against, the median of each
metric is also compared with the saved set's median: the drift is how
much worse it got, as a share of the saved median.  Each set is saved
under perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, float]:
    """The run's result line and its wall time from start to exit."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def summarize(runs: list[dict], spec: dict, against: dict | None) -> bool:
    ok = True
    shares = {(r["failed"], r["attempted"]) for r in runs}
    fractions = {f / a for f, a in shares}
    print(f"failed/attempted per run: {sorted(shares)}; share {'fixed' if len(fractions) == 1 else 'VARIES'}")
    ok &= len(fractions) == 1 and all(r["correct"] for r in runs)
    print(f"{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s} {'drift':>7s}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = spec[name]["bound"]
        drift = ""
        if against:
            prior = against["medians"][name]
            worse = (med - prior) if spec[name]["better"] == "lower" else (prior - med)
            d = worse / prior
            drift = f"{d:+7.3f}"
            ok &= d <= bound
        flag = ""
        if spread > bound:
            flag, ok = "  OVER BOUND", False
        elif spread > bound / 3:
            flag = "  over a third of the bound"
        print(f"{name:34s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:7.3f} {bound:6.2f} {drift:>7s}{flag}")
    return ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--against", type=Path, help="a saved set to compare medians with")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    spec = {m["name"]: m for m in bench["end_to_end"]}
    against = json.loads(args.against.read_text()) if args.against else None

    runs, walls = [], []
    for seed in range(args.first_seed, args.first_seed + RUNS):
        r, wall = run_once(args.workload, seed, seconds)
        runs.append(r)
        walls.append(wall)
        brief = ", ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
        print(f"seed {seed}: {wall:.1f} s, attempted {r['attempted']}, failed {r['failed']}, {brief}", flush=True)
    print(f"run wall time: {min(walls):.1f}-{max(walls):.1f} s, mean {statistics.mean(walls):.1f} s")
    ok = summarize(runs, spec, against)

    medians = {k: statistics.median(r["metrics"][k]["value"] for r in runs) for k in runs[0]["metrics"]}
    out = HERE / "results" / f"steady-{args.workload}-{args.first_seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"workload": args.workload, "seconds": seconds, "runs": runs, "walls": walls, "medians": medians}, indent=1))
    print(f"saved to {out}; {'steady' if ok else 'NOT steady'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
