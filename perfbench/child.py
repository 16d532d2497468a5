"""One benchmark repetition in a fresh interpreter.

    python3 child.py [--trace] [--setup-only] [--run-id=N] MODE [ARGS...]

MODE is `cli` (ARGS go to `redrank.cli.main`), `ladder` (a JSON list
of [n, cosine] on stdin, one `levenshtein_bound` call each) or `stream`
(a graph6 document on stdin, each graph decoded and analysed).

The child prints one JSON line with the end of set-up (a monotonic
timestamp) and its CPU time, the work split into segments (wall and
CPU time of each, and the perf_counter reading at which each began)
with a calibration before and after every segment, one [duration,
segment] pair per item, the exit status, the report, peak RSS, and
with --trace the layer spans and the Gegenbauer cache counters.  Calibrations and the rendering of the report are outside
the timed regions.
"""

import io
import json
import resource
import sys
import time
from fractions import Fraction

perf_counter = time.perf_counter

# The ladder and stream loops start a new segment, with a calibration, between
# items once this much work has passed: the host's speed changes within
# seconds, and a calibration only speaks for the time around it.
CAL_EVERY_S = 1.0

# Calls from one package module into another, rebound in the calling
# module under --trace: (calling module, imported name, span name).
BOUNDARIES = (
    ("cli", "verify_conjecture", "census.verify"),
    ("cli", "verify_code_lemma", "bounds.verify"),
    ("census", "rank", "graphs.rank"),
    ("census", "is_reduced", "graphs.is_reduced"),
    ("census", "graph6_encode", "formats.encode"),
    ("bounds", "levenshtein_bound", "bounds.levenshtein"),
    ("bounds", "closed_form_sweep", "bounds.closed_form"),
    ("bounds", "locate_interval", "poly.locate"),
    ("bounds", "sqrt_enclosure", "exact.sqrt_enclosure"),
    ("bounds", "decimal_str", "exact.decimal_str"),
)

# Library calls the ladder and stream loops make: (module, function,
# span name).
LIBRARY_CALLS = (
    ("bounds", "levenshtein_bound", "bounds.levenshtein"),
    ("formats", "parse_graph6", "formats.decode"),
    ("formats", "graph6_encode", "formats.encode"),
    ("graphs", "rank", "graphs.rank"),
    ("graphs", "is_reduced", "graphs.is_reduced"),
    ("graphs", "reduce_graph", "graphs.reduce"),
    ("graphs", "min_removal_for_duplicates", "graphs.tau"),
)


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python task of big-integer,
    Fraction and dict work, a gauge of the machine's current speed.
    Best of two; it allocates little, so it leaves peak RSS alone."""
    best = float("inf")
    for _ in range(2):
        start = perf_counter()
        x = 1
        for i in range(16000):
            x = (x * 3 + i) % ((1 << 2048) - 1)
        f = Fraction(0)
        for i in range(1, 600):
            f += Fraction(1, i)
        for _ in range(32):
            d = {}
            for i in range(5000):
                d[i ^ 0x5555] = i
        best = min(best, perf_counter() - start)
    return best


class Clock:
    """Work time in segments, each between two calibrations."""

    def __init__(self):
        self.cals = [calibrate()]
        self.segments: list[list[float]] = []
        self.starts: list[float] = []
        self._open()

    def _open(self):
        self._wall, self._cpu = perf_counter(), time.process_time()
        self.starts.append(self._wall)

    def close(self):
        """End the current segment and calibrate."""
        self.segments.append([perf_counter() - self._wall,
                              time.process_time() - self._cpu])
        self.cals.append(calibrate())
        self._open()

    def between_items(self):
        if perf_counter() - self._wall >= CAL_EVERY_S:
            self.close()


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, run id,
    bytes], where bytes is the input length of a decode span."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, run_id = self.spans, self._open, self.run_id
        sized = name == "formats.decode"

        def traced(*args, **kwargs):
            at = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, run_id,
                          len(args[0]) if sized else 0])
            stack.append(at)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[at][2] = perf_counter()
                spans[at][1] = start
                stack.pop()
        return traced


def run_cli(argv, calls, clock):
    out = io.StringIO()
    real, sys.stdout = sys.stdout, out
    try:
        code = calls["main"](argv)
    finally:
        sys.stdout = real
    return code, out.getvalue(), []


def run_ladder(points, calls, clock):
    from redrank.exact import COS_REFERENCE
    lev = calls["levenshtein_bound"]
    results, samples = [], []
    for n, s_text in points:
        s = COS_REFERENCE if s_text == "s0" else Fraction(s_text)
        start = perf_counter()
        report = lev(n, s)
        samples.append([perf_counter() - start, len(clock.segments)])
        results.append((n, s_text, report))
        clock.between_items()
    return 0, results, samples


def run_stream(lines, calls, clock):
    parse, encode = calls["parse_graph6"], calls["graph6_encode"]
    rank, is_reduced = calls["rank"], calls["is_reduced"]
    reduce_graph, tau = calls["reduce_graph"], calls["min_removal_for_duplicates"]
    results, samples = [], []
    for line in lines:
        start = perf_counter()
        (g,) = parse(line)
        h = reduce_graph(g)
        row = (rank(g), is_reduced(g), h.n, tau(h), encode(g), g.rows)
        samples.append([perf_counter() - start, len(clock.segments)])
        results.append(row)
        clock.between_items()
    return 0, results, samples


def render(mode, results):
    """The report text of a library run."""
    if mode == "ladder":
        return json.dumps([[n, s, r.k_used, r.branch_used, str(r.value)]
                           for n, s, r in results])
    return json.dumps([[r, red, order, tau, g6, [format(x, "x") for x in rows]]
                       for r, red, order, tau, g6, rows in results])


def peak_rss_kb() -> int:
    """Peak resident set of this program.  VmHWM starts afresh at exec;
    ru_maxrss would also count the harness the child was forked from."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv):
    flags = set()
    while argv and argv[0].startswith("--"):
        flags.add(argv.pop(0))
    run_id = next((int(f.split("=", 1)[1]) for f in flags
                   if f.startswith("--run-id=")), 0)
    mode, args = argv[0], argv[1:]

    import importlib
    names = ("census", "bounds", "formats", "graphs") + (
        ("cli",) if mode == "cli" else ())
    modules = {name: importlib.import_module(f"redrank.{name}")
               for name in names}
    work = {"cli": lambda: args,
            "ladder": lambda: json.loads(sys.stdin.read()),
            "stream": lambda: sys.stdin.read().splitlines()}[mode]()
    calls = {"main": modules["cli"].main} if mode == "cli" else {
        fn: getattr(modules[mod], fn) for mod, fn, _ in LIBRARY_CALLS}
    tracer = Tracer(run_id) if "--trace" in flags else None
    if tracer:
        spans = {fn: span for _, fn, span in LIBRARY_CALLS}
        spans["main"] = "cli"
        calls = {fn: tracer.wrap(spans[fn], f) for fn, f in calls.items()}
        for mod, name, span in BOUNDARIES:
            if mod in modules:
                setattr(modules[mod], name,
                        tracer.wrap(span, getattr(modules[mod], name)))
    t_setup, cpu_setup = time.monotonic(), time.process_time()

    clock = Clock()
    if "--setup-only" in flags:
        code, results, samples = 0, "", []
    else:
        runner = {"cli": run_cli, "ladder": run_ladder, "stream": run_stream}
        code, results, samples = runner[mode](work, calls, clock)
    maxrss_kb = peak_rss_kb()
    clock.close()

    envelope = {
        "t_setup": t_setup, "cpu_setup": cpu_setup, "exit": code,
        "cals": clock.cals, "segments": clock.segments,
        "segment_starts": clock.starts, "samples": samples,
        "report": results if isinstance(results, str) else render(mode, results),
        "maxrss_kb": maxrss_kb,
    }
    if tracer:
        from redrank import poly
        envelope["spans"] = tracer.spans
        envelope["caches"] = {name: getattr(poly, name).cache_info()._asdict()
                              for name in ("gegenbauer", "adjacent_poly")}
    sys.stdout.write(json.dumps(envelope) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
