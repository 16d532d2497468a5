"""Measure a baseline: every workload on several seeds, plus one traced
run per workload.

    python3 perfbench/baseline.py

Runs run.py once per (seed, workload), seeds 1 to SEEDS in the outer
loop so that a slow spell of the machine spreads over all workloads,
then one traced run per workload on seed 1.  For every end-to-end metric it prints the
median, the quartiles and the spread (quartile distance over median)
next to the metric's bound in BENCHMARK.json, and it writes all of it,
with the per-layer values and the run metadata, to baseline.json.
Exits 1 if any run fails verification.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

import run
import workloads

SEEDS = 10


def measure(name: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=200)
    result = json.loads(done.stdout.splitlines()[-1])
    if done.returncode or not result["correct"]:
        print(done.stdout, done.stderr, file=sys.stderr)
    return result


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    seeds = list(range(1, SEEDS + 1))
    values: dict = {w: {} for w in workloads.WORKLOADS}
    correct = True
    for seed in seeds:
        for name in workloads.WORKLOADS:
            result = measure(name, seed, seconds, 0)
            correct &= result["correct"]
            for metric, v in result["metrics"].items():
                values[name].setdefault(metric, []).append(v["value"])
            print(f"seed {seed} {name}: wall_s "
                  f"{result['metrics'].get('wall_s', {}).get('value')}", flush=True)

    out = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for name in workloads.WORKLOADS:
        rows = {}
        print(f"{name}:")
        for metric, vals in values[name].items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            rows[metric] = {"unit": run.END_TO_END[metric], "median": med,
                            "q1": q1, "q3": q3, "spread": spread,
                            "bound": bounds[metric], "values": vals}
            flag = "ok" if spread < bounds[metric] / 3 else (
                "within bound" if spread <= bounds[metric] else "OVER BOUND")
            print(f"  {metric:12s} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:.3f} / bound "
                  f"{bounds[metric]} {flag}")
        out["workloads"][name] = {"end_to_end": rows}
        traced = measure(name, 1, seconds, 1)
        correct &= traced["correct"]
        out["workloads"][name]["per_layer_seed1"] = {
            k: v["value"] for k, v in traced["metrics"].items()}
        print(f"  trace.overhead_s {traced['metrics']['trace.overhead_s']['value']}")

    record = run.OUT / f"{workloads.WORKLOADS[0]}-full-seed1-trace0.json"
    out["meta"] = json.loads(record.read_text(encoding="utf-8"))["meta"]
    del out["meta"]["seed"]
    out["correct"] = correct
    with open(run.HERE / "baseline.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
