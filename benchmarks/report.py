"""Run the benchmark over workloads and seeds and print every metric by name.

    python3 benchmarks/report.py                    # each workload once, both modes
    python3 benchmarks/report.py --seeds 1-10 --trace 0 --out benchmarks/BENCH_x.json

Each run is a separate ``run.py`` process, started after the previous one
ended. For every metric the table gives the median over seeds, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (q3 - q1) / median.
An end-to-end spread at or above a third of its declared bound is flagged.
The exit status is 1 if any run failed a check or exited non-zero.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 600


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(environment, result) of one run; raises if it did not produce a result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    env = next((json.loads(line[4:]) for line in lines if line.startswith("ENV ")), {})
    if proc.stderr.strip():
        print(proc.stderr.rstrip(), file=sys.stderr)
    return env, json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both")
    parser.add_argument("--out", help="write the runs and their statistics as JSON")
    args = parser.parse_args(argv)

    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    modes = (0, 1) if args.trace == "both" else (int(args.trace),)
    seeds = parse_seeds(args.seeds)
    report: dict = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    bad = 0
    for workload in args.workloads.split(","):
        entry = report["workloads"].setdefault(workload, {})
        for trace in modes:
            results = []
            for seed in seeds:
                env, result = run_once(workload, seed, args.seconds, trace)
                report.setdefault("env", env)
                results.append(result)
                entry.setdefault("runs", []).append(
                    {"trace": trace, "seed": seed, "env": env,
                     **{k: result[k] for k in ("correct", "attempted", "failed")}})
                bad += not result["correct"]
            key = "per_layer" if trace else "end_to_end"
            entry[key] = {}
            print(f"\n== {workload} ({key}, {len(seeds)} seed(s), {args.seconds} s runs); "
                  f"attempted={sum(r['attempted'] for r in results)} "
                  f"failed={sum(r['failed'] for r in results)}")
            print(f"{'metric':58s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s}  unit")
            for m in declared[trace]:
                stats = summarize([r["metrics"][m["name"]]["value"] for r in results])
                flag = ""
                if "bound" in m:
                    stats["bound"] = m["bound"]
                    if m["name"] != "setup_s" and stats["spread"] >= m["bound"] / 3:
                        flag = f"  spread >= bound/3 ({m['bound']})"
                entry[key][m["name"]] = stats
                print(f"{m['name']:58s} {stats['median']:14.6g} {stats['q1']:14.6g} "
                      f"{stats['q3']:14.6g} {stats['spread']:8.4f}  {m['unit']}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
