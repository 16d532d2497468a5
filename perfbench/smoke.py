"""Smoke test of the benchmark harness at toy size.

    python3 perfbench/smoke.py

For every workload it runs run.py at toy size in both modes and checks
that the result line names every metric of BENCHMARK.json with its
unit and that every item verified.  It then gives each oracle a
deliberately wrong expectation and checks that the oracle reports a
failure, and checks that the harness refuses a directory without the
redrank sources.  Exits 1 on any problem.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time

import run
import workloads


def corrupt(job: workloads.Job) -> None:
    """Make one expected value wrong."""
    if job.workload == "census":
        job.expected["counts"][-1] += 1
    elif job.workload == "sweep":
        job.expected["switch"] -= 1
    elif job.workload == "ladder":
        job.expected["kissing"][(8, "1/2")] += 1
    else:
        job.expected["graphs"][0]["rank"] += 1


def harness(root, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"),
                           *args], capture_output=True, text=True, timeout=175)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {trace: {m["name"]: m["unit"] for m in spec[key]}
            for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    problems = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            done = harness(run.ROOT, "--workload", name, "--seed", "1",
                           "--seconds", "1", "--trace", str(trace),
                           "--size", "toy")
            result = json.loads(done.stdout.splitlines()[-1])
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != want[trace]:
                problems.append(f"{name} trace {trace}: metrics {units}")
            if done.returncode or not result["correct"] or result["failed"]:
                problems.append(f"{name} trace {trace}: {done.stdout[-2000:]}")

        job = workloads.make(name, 1, "toy")
        rep = run.spawn(job, [], time.monotonic() + 120)
        wrong = copy.deepcopy(job)
        corrupt(wrong)
        if rep.error or workloads.check(job, rep.report)[0]:
            problems.append(f"{name}: oracle rejects a correct report")
        if not workloads.check(wrong, rep.report)[0]:
            problems.append(f"{name}: oracle accepts a wrong expectation")

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    done = harness(bare, "--workload", "census", "--seed", "1",
                   "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    if done.returncode == 0 or done.stdout.strip():
        problems.append(f"bare directory: exit {done.returncode}, "
                        f"output {done.stdout!r}")

    for p in problems:
        print(f"FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
