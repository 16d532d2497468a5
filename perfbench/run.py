"""Benchmark harness for redrank.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (census, sweep, ladder or stream; see README.md) from
the root of a source checkout.  Each repetition is a fresh interpreter
(child.py) with PYTHONPATH=src, so every repetition pays the cold
caches a command-line user pays; children run one at a time.  Every
report is checked against an independent oracle (workloads.py) and
against the first repetition's report, byte for byte.  Times are
scaled to a reference speed by a calibration task timed around every
segment of work (see CAL_REF_S); the record keeps the unscaled times.

With --trace 0 the harness prints the end-to-end metrics; with
--trace 1 it alternates traced and untraced repetitions and prints the
per-layer metrics, tracing overhead included.  The last line of stdout
is one JSON object {"correct", "attempted", "failed", "metrics"}; a
fuller record (machine, commit, seed, every repetition, the spans) is
written to .perfbench/ in the checkout.  The exit status is 0 when
every item verified, 1 when any failed, 2 when the checkout has no
redrank sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

# A run must end within 180 s; leave room for checking and writing.
HARD_STOP_S = 165
# Set-up-only children run before the repetitions, so that setup_s is a
# median of at least this many samples plus one per repetition.
SETUP_PROBES = 5
# The host's speed drifts by up to a half, for seconds to minutes at a
# time.  A child times a fixed calibration task (child.calibrate) before
# and after each segment of its work, and every time in the segment is
# scaled by CAL_REF_S over the mean of the two: times are seconds at
# the speed where the task takes CAL_REF_S.
CAL_REF_S = 0.040

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "items_per_s": "1/s",
    "peak_rss_mb": "MB", "item_p50_ms": "ms", "item_p90_ms": "ms",
}

PER_LAYER = {
    "census.verify_s": "s", "census.self_s": "s", "census.classes": "count",
    "graphs.rank_calls": "count", "graphs.rank_s": "s",
    "graphs.is_reduced_s": "s", "graphs.reduce_s": "s", "graphs.tau_s": "s",
    "formats.decode_calls": "count", "formats.decode_bytes": "bytes",
    "formats.decode_s": "s", "formats.encode_s": "s",
    "bounds.levenshtein_calls": "count", "bounds.levenshtein_s": "s",
    "bounds.closed_form_s": "s",
    "poly.locate_calls": "count", "poly.locate_s": "s",
    "poly.gegenbauer_hits": "count", "poly.gegenbauer_misses": "count",
    "poly.adjacent_hits": "count", "poly.adjacent_misses": "count",
    "exact.sqrt_enclosure_calls": "count", "exact.sqrt_enclosure_s": "s",
    "exact.decimal_str_calls": "count", "exact.decimal_str_s": "s",
    "cli.self_s": "s", "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}


@dataclass
class Rep:
    """One child process: its times at reference speed, the unscaled
    set-up and wall times, and what it printed."""

    setup: float = 0.0
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    exit: int = 0
    report: str = ""
    samples: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    caches: dict = field(default_factory=dict)
    error: str = ""
    raw_setup: float = 0.0
    raw_wall: float = 0.0
    cals: list = field(default_factory=list)
    span_scales: list = field(default_factory=list)


def _rep(env: dict, spawned: float) -> Rep:
    """Scale a child's times segment by segment; set-up is scaled by the
    calibration that follows it.  A span is scaled by the factor of the
    segment it starts in: segments end only between items, so a span
    never crosses one."""
    cals = env["cals"]
    scales = [2 * CAL_REF_S / (a + b) for a, b in zip(cals, cals[1:])]
    setup_scale = CAL_REF_S / cals[0]
    segments = env["segments"]
    starts = env["segment_starts"][:len(scales)]
    spans = env.get("spans", [])
    return Rep(setup=(env["t_setup"] - spawned) * setup_scale,
               wall=sum(w * k for (w, _), k in zip(segments, scales)),
               cpu=env["cpu_setup"] * setup_scale
               + sum(c * k for (_, c), k in zip(segments, scales)),
               rss_mb=env["maxrss_kb"] * 1024 / 1e6,
               exit=env["exit"], report=env["report"],
               samples=[d * scales[seg] for d, seg in env["samples"]],
               spans=spans, caches=env.get("caches", {}),
               raw_setup=env["t_setup"] - spawned,
               raw_wall=sum(w for w, _ in segments), cals=cals,
               span_scales=[scales[max(0, bisect_right(starts, s[1]) - 1)]
                            for s in spans])


def spawn(job: workloads.Job, flags: list[str], stop_at: float) -> Rep:
    """Run child.py once and wait for it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *flags,
                             *job.argv], cwd=ROOT, env=env, text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(job.stdin, timeout=max(1.0, stop_at - start))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return Rep(error="child timed out")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        return Rep(error=f"child exited {proc.returncode}: {err.strip()[-500:]}")
    return _rep(json.loads(lines[-1]), start)


def verify(job: workloads.Job, reps: list[Rep]) -> tuple[int, list[str]]:
    """Failed items over all repetitions, and what went wrong."""
    failed = 0
    problems: list[str] = []
    first = next((r.report for r in reps if not r.error), None)
    first_check = workloads.check(job, first) if first is not None else None
    for at, rep in enumerate(reps):
        if rep.error:
            bad, why = job.items, [rep.error]
        elif rep.exit != 0:
            bad, why = job.items, [f"command exited {rep.exit}"]
        elif rep.report != first:
            bad, why = job.items, ["report differs from the first repetition"]
        else:
            bad, why = first_check
        failed += bad
        problems += [f"repetition {at}: {w}" for w in why]
    return failed, problems


def _p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(job: workloads.Job, probes: list[Rep],
               reps: list[Rep]) -> dict[str, float]:
    """Medians over repetitions, times at reference speed.  Item latency
    quantiles are taken within each repetition, over its library calls
    (ladder, stream); a CLI command verifies all its items at once, so
    there each item takes the repetition's wall time per item."""
    ok = [r for r in reps if not r.error]
    items = [r.samples or [r.wall / job.items] for r in ok]
    return {
        "setup_s": statistics.median(r.setup for r in probes + ok
                                     if not r.error),
        "wall_s": statistics.median(r.wall for r in ok),
        "cpu_s": statistics.median(r.cpu for r in ok),
        "items_per_s": statistics.median(job.items / r.wall for r in ok),
        "peak_rss_mb": statistics.median(r.rss_mb for r in ok),
        "item_p50_ms": statistics.median(map(statistics.median, items)) * 1e3,
        "item_p90_ms": statistics.median(map(_p90, items)) * 1e3,
    }


def layers(job: workloads.Job, rep: Rep) -> dict[str, float]:
    """Per-layer metrics of one traced repetition, times at reference
    speed.  A span's self time is its length minus the length of its
    direct children, which run in the same segment."""
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    child_time: dict[int, float] = defaultdict(float)
    decode_bytes = 0
    for name, start, end, parent, _run, size in rep.spans:
        if parent >= 0:
            child_time[parent] += end - start
    for at, (name, start, end, _parent, _run, size) in enumerate(rep.spans):
        scale = rep.span_scales[at]
        total[name] += (end - start) * scale
        own[name] += (end - start - child_time[at]) * scale
        calls[name] += 1
        decode_bytes += size
    classes = 0
    if job.workload == "census":
        classes = sum(o["total_graphs"] for o in json.loads(rep.report)["orders"])
    gegenbauer = rep.caches.get("gegenbauer", {})
    adjacent = rep.caches.get("adjacent_poly", {})
    return {
        "census.verify_s": total["census.verify"],
        "census.self_s": own["census.verify"],
        "census.classes": classes,
        "graphs.rank_calls": calls["graphs.rank"],
        "graphs.rank_s": total["graphs.rank"],
        "graphs.is_reduced_s": total["graphs.is_reduced"],
        "graphs.reduce_s": total["graphs.reduce"],
        "graphs.tau_s": total["graphs.tau"],
        "formats.decode_calls": calls["formats.decode"],
        "formats.decode_bytes": decode_bytes,
        "formats.decode_s": total["formats.decode"],
        "formats.encode_s": total["formats.encode"],
        "bounds.levenshtein_calls": calls["bounds.levenshtein"],
        "bounds.levenshtein_s": total["bounds.levenshtein"],
        "bounds.closed_form_s": total["bounds.closed_form"],
        "poly.locate_calls": calls["poly.locate"],
        "poly.locate_s": total["poly.locate"],
        "poly.gegenbauer_hits": gegenbauer.get("hits", 0),
        "poly.gegenbauer_misses": gegenbauer.get("misses", 0),
        "poly.adjacent_hits": adjacent.get("hits", 0),
        "poly.adjacent_misses": adjacent.get("misses", 0),
        "exact.sqrt_enclosure_calls": calls["exact.sqrt_enclosure"],
        "exact.sqrt_enclosure_s": total["exact.sqrt_enclosure"],
        "exact.decimal_str_calls": calls["exact.decimal_str"],
        "exact.decimal_str_s": total["exact.decimal_str"],
        "cli.self_s": own["cli"],
        "cli.output_bytes": (len(rep.report.encode())
                             if job.argv[0] == "cli" else 0),
    }


def overhead(runs: list[tuple[bool, Rep]]) -> list[float]:
    """Traced minus untraced wall time of each pair of repetitions run
    one after the other."""
    pairs = [sorted(runs[i:i + 2], key=lambda run: not run[0])
             for i in range(0, len(runs) - 1, 2)]
    return [t.wall - u.wall for (_, t), (_, u) in pairs
            if not (t.error or u.error)]


def per_layer(job: workloads.Job,
              runs: list[tuple[bool, Rep]]) -> tuple[dict[str, float], list[str]]:
    """Medians of the traced repetitions' layer times; counts must repeat
    exactly across traced repetitions.  The tracing overhead is the
    median of the paired wall-time differences."""
    rows = [layers(job, r) for t, r in runs if t and not r.error]
    if not rows:
        return {}, ["no traced repetition completed"]
    problems = []
    out = {}
    for name in rows[0]:
        values = [row[name] for row in rows]
        if PER_LAYER[name] == "s":
            out[name] = statistics.median(values)
        else:
            out[name] = values[0]
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced runs: {values}")
    pairs = overhead(runs)
    if pairs:
        out["trace.overhead_s"] = statistics.median(pairs)
    else:
        problems.append("no traced and untraced pair of repetitions completed")
    return out, problems


def metadata(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "commit": commit,
            "seed": seed, "src_lines": src_lines}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=tuple(workloads.SIZES),
                        default="full", help="workload size (toy: smoke test)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "redrank" / "__init__.py").is_file():
        print(f"error: no redrank sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    stop_at = started + HARD_STOP_S
    job = workloads.make(args.workload, args.seed, args.size)
    spawn(job, ["--setup-only"], stop_at)  # writes the bytecode caches
    probes: list[Rep] = []
    runs: list[tuple[bool, Rep]] = []  # (traced, repetition), in order run
    if args.trace:
        # Pairs of one traced and one untraced repetition, the traced one
        # first in every other pair (T U U T T U ...), so that neither
        # kind always runs second.
        deadline = time.monotonic() + args.seconds
        while ((len(runs) < 4 or len(runs) % 2 or time.monotonic() < deadline)
               and time.monotonic() < stop_at):
            at = len(runs)
            tracing = (at // 2 + at) % 2 == 0
            runs.append((tracing, spawn(job, [f"--run-id={at}"]
                                        + (["--trace"] if tracing else []),
                                        stop_at)))
    else:
        probes = [spawn(job, ["--setup-only"], stop_at)
                  for _ in range(SETUP_PROBES)]
        deadline = time.monotonic() + args.seconds
        while ((len(runs) < 2 or time.monotonic() < deadline)
               and time.monotonic() < stop_at):
            runs.append((False, spawn(job, [f"--run-id={len(runs)}"], stop_at)))

    reps = [r for _, r in runs]
    traced = [r for t, r in runs if t]
    plain = [r for t, r in runs if not t]
    failed, problems = verify(job, reps)
    attempted = job.items * len(reps)
    if all(r.error for r in reps):
        metrics, units = {}, {}
    elif args.trace:
        metrics, more = per_layer(job, runs)
        problems += more
        units = PER_LAYER
    else:
        metrics, units = end_to_end(job, probes, plain), END_TO_END
    correct = failed == 0 and not problems and len(metrics) == len(units) > 0

    record = {
        "workload": args.workload, "size": args.size, "trace": args.trace,
        "seconds": args.seconds, "meta": metadata(args.seed),
        "correct": correct, "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted, "problems": problems,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "cal_ref_s": CAL_REF_S,
        "setup_probes": [{"setup": r.setup, "raw_setup": r.raw_setup,
                          "cals": r.cals} for r in probes],
        "reps": [{"traced": t, "setup": r.setup, "wall": r.wall,
                  "cpu": r.cpu, "rss_mb": r.rss_mb, "raw_setup": r.raw_setup,
                  "raw_wall": r.raw_wall, "cals": r.cals, "samples": r.samples,
                  "error": r.error}
                 for t, r in runs],
        "spans": [s for r in traced for s in r.spans],
        "trace_overhead_pairs": overhead(runs),
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")

    meta = record["meta"]
    print(f"workload {args.workload} ({args.size}), seed {args.seed}, "
          f"{len(traced)} traced + {len(plain)} untraced repetitions")
    print(f"machine: {meta['cpu']}, nproc {meta['nproc']}, "
          f"python {meta['python']}, commit {meta['commit']}, "
          f"src lines {meta['src_lines']}")
    ok = [r for r in reps if not r.error]
    if ok:
        print(f"calibration task: median "
              f"{statistics.median(c for r in ok for c in r.cals)!r} s "
              f"(reference {CAL_REF_S} s); unscaled median wall "
              f"{statistics.median(r.raw_wall for r in ok)!r} s")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    if args.trace and record["trace_overhead_pairs"]:
        pairs = record["trace_overhead_pairs"]
        print(f"trace overhead per pair: {len(pairs)} pairs, "
              f"min {min(pairs)!r} s, max {max(pairs)!r} s")
    print(f"fail_ratio {record['fail_ratio']!r} ({failed}/{attempted})")
    for p in problems[:20]:
        print(f"problem: {p}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
