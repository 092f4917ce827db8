#!/usr/bin/env python3
"""Runs the benchmark over workloads, seeds and modes in one command.

    python3 perfbench/sweep.py                       # every workload, seed 1,
                                                     # end-to-end and per layer
    python3 perfbench/sweep.py --seeds 1-10 --trace 0   # steadiness proof

Every run uses the workloads and run_seconds of BENCHMARK.json, so the
spreads it prints compare with the bounds there. Prints every metric of
every run by name with its unit, and the run's steal share. With more
than one seed it also prints, per workload and end-to-end metric, the
median over the seeds and the spread (distance between the first and
third quartile as a share of the median) next to the metric's bound in
BENCHMARK.json, and flags a spread above a third of its bound. Seeds run in the outer loop, so
drift on the box lands on every workload alike. Exits 1 when any run fails
or reports an incorrect result. Raw results are kept under
.bench_build/sweep/.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

ROOT = HERE.parent


def parse_list(text):
    values = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        values += range(int(lo), int(hi or lo) + 1)
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--trace", default="0,1")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    results = {}
    for seed in parse_list(args.seeds):
        for trace in parse_list(args.trace):
            for workload in workloads:
                started = time.perf_counter()
                run = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload",
                     workload, "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", str(trace)], capture_output=True, text=True)
                wall = time.perf_counter() - started
                lines = run.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if lines else None
                if run.returncode != 0 or not result or not result["correct"]:
                    ok = False
                    print(f"{workload} seed {seed} trace {trace}: exit "
                          f"{run.returncode}\n{run.stderr}{run.stdout[-2000:]}",
                          flush=True)
                    continue
                metrics = result["metrics"]
                results.setdefault(trace, {}).setdefault(workload, []).append(
                    {k: v["value"] for k, v in metrics.items()})
                detail = json.loads(lines[-2][len("detail "):])
                print(f"{workload} seed {seed} trace {trace} ({wall:.0f} s, "
                      f"{result['attempted']} attempted, {result['failed']} "
                      f"failed, steal {detail['steal_share']:.2f}): " +
                      " ".join(f"{k}={v['value']:.4g} {v['unit']}"
                               for k, v in metrics.items()), flush=True)

    out = ROOT / ".bench_build" / "sweep"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{int(time.time())}.json").write_text(json.dumps(results,
                                                             indent=1))

    if len(parse_list(args.seeds)) > 1 and 0 in results:
        print(f"\n{'workload':16} {'metric':16} {'median':>12} {'spread':>8} "
              f"{'bound':>6}")
        for workload, runs in results[0].items():
            for name in runs[0]:
                values = [r[name] for r in runs]
                spread = stats.spread(values) if len(values) > 1 else 0.0
                flag = ("  > bound/3" if name != "setup_s" and
                        spread > bounds[name] / 3 else "")
                print(f"{workload:16} {name:16} {stats.median(values):12.5g} "
                      f"{spread:8.3f} {bounds[name]:>6}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
