"""One workload in a fresh process: set up, measure, trace, check.

    python3 perfbench/child.py WORKLOAD SEED SECONDS TRACE T0 [--setup-only]

Started by run.py from the root of a checkout, with ``src`` on the
Python path.  T0 is the parent's ``time.monotonic()`` just before the
process was started; set-up ends when ``teter`` is imported and the
input file is written.  With --setup-only the process stops there.

The measured phase drives ``teter.cli.main(["batch", FILE, ...])``
in-process, one pass over the input at a time, with ``sys.stdout``
replaced by a ``LineClock`` that stamps each output line as its newline
is written.  Batch mode is a closed loop with one client: the next input
starts only after the previous line is out.  Passes repeat while the
next one is expected to end within the time budget.  With TRACE=1 the
budget is halved, and the same number of passes then runs again with
the tracing wrappers installed.  Each pass is checked right after it
ends, outside the timed region, and only its tally is kept.

The last line of standard output is one JSON object with the raw
results; run.py turns it into metrics.
"""

import bisect
import contextlib
import json
import os
import resource
import signal
import statistics
import sys
import time

import calibration
import workloads

STATE_DIR = ".perfbench"
# wall time between two samples of the SpeedProbe
PROBE_EVERY_S = 0.05


class SpeedProbe:
    """Samples the speed of the machine while a pass runs.

    A SIGALRM interval timer runs the calibration kernel every
    PROBE_EVERY_S, in the main thread between two bytecodes of whatever
    is running, and once when the probe starts and stops.  Each sample
    keeps when it ran and the kernel's time relative to its nominal time
    (the slowdown).  ``rescale`` turns an interval of the pass into the
    time the program had in it, with the samples inside taken out, and
    that time divided by the slowdown: the samples inside the interval
    and two on each side, averaged by their mean when there are at least
    ten of them and by their median otherwise, so that one disturbed
    sample cannot swing a short input.
    """

    def __init__(self, numeric):
        self.numeric = numeric
        self.starts = []
        self.samples = []  # (start, end, slowdown)
        self._saved = None

    def _sample(self, *_):
        start = time.perf_counter()
        slowdown = calibration.time_kernel(self.numeric)
        self.starts.append(start)
        self.samples.append((start, time.perf_counter(), slowdown))

    def __enter__(self):
        self._sample()
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        self._sample()

    def rescale(self, begin, end):
        """(program seconds in [begin, end], the same rescaled)."""
        first = bisect.bisect_left(self.starts, begin)
        last = bisect.bisect_right(self.starts, end)
        busy = sum(e - s for s, e, _ in self.samples[first:last])
        around = [k for _, _, k in self.samples[max(first - 2, 0) : last + 2]]
        average = statistics.mean if len(around) >= 10 else statistics.median
        seconds = end - begin - busy
        return seconds, seconds / average(around)


class LineClock:
    """Stands in for sys.stdout: keeps every line and when it ended."""

    def __init__(self):
        self.lines = []
        self.stamps = []
        self._part = []

    def write(self, text):
        *ended, rest = text.split("\n")
        if ended:
            now = time.perf_counter()
            ended[0] = "".join(self._part) + ended[0]
            self._part = []
            self.lines.extend(ended)
            self.stamps.extend([now] * len(ended))
        if rest:
            self._part.append(rest)
        return len(text)

    def flush(self):
        pass


class Pass:
    """One batch call: exit code, output lines and time per input.

    The time of an input runs from the previous output line (or the
    start of the pass) to its own.  ``raw`` holds it in wall-clock
    seconds; with a probe, minus the probe's samples, and ``scaled``
    holds it rescaled to the calibration kernel's nominal speed.
    """

    def __init__(self, cli, argv, probe=None):
        clock = LineClock()
        saved = sys.stdout
        sys.stdout = clock
        try:
            with probe or contextlib.nullcontext():
                start = time.perf_counter()
                self.code = cli.main(argv)
        except Exception as exc:  # the pass failed; its lines are checked
            self.code = "%s: %s" % (type(exc).__name__, exc)
        finally:
            sys.stdout = saved
        self.lines = clock.lines
        self.count = len(clock.lines)
        edges = [start] + clock.stamps
        if probe is None:
            self.raw = [b - a for a, b in zip(edges, edges[1:])]
            self.scaled = None
        else:
            pairs = [probe.rescale(a, b) for a, b in zip(edges, edges[1:])]
            self.raw = [raw for raw, _ in pairs]
            self.scaled = [scaled for _, scaled in pairs]


def run_passes(budget_s, cli, argv, numeric, checker):
    """Calibrated passes while the next is expected to end within budget_s.

    Returns the passes and the peak resident memory in MB, read after
    the first pass and before any check, which allocates memory of its
    own; later passes repeat the same work.
    """
    passes = []
    spent = 0.0
    peak_rss_mb = None
    while True:
        start = time.perf_counter()
        run = Pass(cli, argv, SpeedProbe(numeric))
        spent += time.perf_counter() - start
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checker.add(run)
        run.lines = None  # checked; later passes need not keep it
        passes.append(run)
        if spent * (len(passes) + 1) / len(passes) > budget_s:
            return passes, peak_rss_mb


def os_threads():
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def scaled_setup(t0):
    """Set-up time so far, and the same rescaled by kernel runs now."""
    raw = time.monotonic() - t0
    slowdown = statistics.median(calibration.time_kernel(False) for _ in range(9))
    return raw / slowdown, raw


def main(argv):
    workload, seed, seconds, trace, t0 = argv[:5]
    seed, seconds, trace, t0 = int(seed), float(seconds), int(trace), float(t0)

    import teter.cli as cli

    items, warmup = workloads.inputs(workload, seed)
    os.makedirs(STATE_DIR, exist_ok=True)
    path = os.path.join(STATE_DIR, "input-%s.txt" % workload)
    warm_path = os.path.join(STATE_DIR, "warmup-%s.txt" % workload)
    workloads.write_input(path, items)
    workloads.write_input(warm_path, warmup)
    setup_s, setup_raw_s = scaled_setup(t0)
    if "--setup-only" in argv:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    import numpy

    import checks
    import tracing

    numeric = workload in workloads.NUMERIC
    Pass(cli, workloads.batch_argv(workload, warm_path), SpeedProbe(numeric))

    checker = checks.Checker(workload, items)
    argv_batch = workloads.batch_argv(workload, path)
    passes, peak_rss_mb = run_passes(
        seconds / 2 if trace else seconds, cli, argv_batch, numeric, checker
    )
    threads = os_threads()

    layers = None
    if trace:
        # during a pass sys.stdout is that pass's LineClock
        tracer = tracing.Tracer(lambda: len(sys.stdout.lines))
        tracer.install()
        try:
            traced = []
            for _ in passes:
                traced.append(Pass(cli, argv_batch))
                checker.add(traced[-1])
                traced[-1].lines = None
        finally:
            tracer.uninstall()
        tracer.write(
            os.path.join(STATE_DIR, "trace-%s-%d.json" % (workload, seed)),
            len(traced),
        )
        plain_s = sum(sum(p.raw) for p in passes)
        traced_s = sum(sum(p.raw) for p in traced)
        layers = tracer.layer_metrics(len(traced))
        layers["trace.overhead_frac"] = (traced_s - plain_s) / plain_s

    certify = {}
    if workload == "approximate":
        for index, gens in enumerate(items):
            times = [p.scaled[index] for p in passes if p.count == len(items)]
            if times:
                certify["-".join(map(str, gens))] = statistics.median(times)
    tally = checker.tally
    result = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "passes": len(passes),
        "inputs": len(items),
        "items_per_s": statistics.median(
            p.count / (sum(p.scaled) or 1.0) for p in passes
        ),
        "raw_items_per_s": statistics.median(
            p.count / (sum(p.raw) or 1.0) for p in passes
        ),
        "latencies_s": sorted(s for p in passes for s in p.scaled),
        "certify_s": certify,
        "peak_rss_mb": peak_rss_mb,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "correct": tally.correct,
        "problems": tally.problems[:20],
        "layers": layers,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "os_threads": threads,
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
