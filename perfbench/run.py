"""Benchmark of the teter command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the root of a checkout.  Each run starts fresh child processes
(child.py): several that only set up, for the set-up time, then one that
sets up, measures the workload and checks its outputs, so that set-up
time and peak memory belong to that workload alone.  The child runs with
``src`` on its path and one BLAS thread, so it uses one core.

With --trace 0 the last line of standard output is the result with the
end-to-end metrics; with --trace 1 it has the per-layer metrics of a
separate traced run.  --all runs every workload both ways, prints every
metric by name with its unit and exits nonzero when an output check
fails.  See README.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS = 9
RUN_SECONDS = 30
BLAS_THREADS = "1"
# a run that takes longer than this is stopped and reports no result
DEADLINE_S = 170


def metric_units(trace):
    """Metric name -> unit, as BENCHMARK.json lists them for this mode."""
    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in listed}


def _child_env():
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(args, deadline, setup_only=False):
    """Run child.py once, to end by the deadline; its last line, parsed."""
    start = time.monotonic()
    timeout = deadline - start
    cmd = [sys.executable, os.path.join(HERE, "child.py")]
    cmd += [str(a) for a in args] + [repr(start)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, env=_child_env(), text=True
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("child %r timed out after %ss" % (args, timeout))
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError("child %r exited with %r" % (args, proc.returncode))
    return json.loads(out.strip().splitlines()[-1])


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n):
    """Highest of p99.9, p99, p90, p50 with at least 10 of n inputs
    beyond it; 100 (the maximum) when there are too few for any of them.

    n is the number of inputs in one pass, not the samples of the run, so
    that a faster program running more passes keeps the same percentile.
    """
    for q in (99.9, 99.0, 90.0, 50.0):
        if n * (1 - q / 100.0) >= 10:
            return q
    return 100.0


def run_workload(workload, seed, seconds, trace):
    """Set up SETUPS times, run the workload once; the result document."""
    deadline = time.monotonic() + DEADLINE_S
    runs = [
        _child([workload, seed, seconds, trace], deadline, setup_only=True)
        for _ in range(SETUPS - 1)
    ]
    raw = _child([workload, seed, seconds, trace], deadline)
    runs.append(raw)
    setups = [r["setup_s"] for r in runs]
    setup_raw = [r["setup_raw_s"] for r in runs]

    latencies = raw["latencies_s"]
    q = tail_percentile(raw["inputs"])
    attempted, failed = raw["attempted"], raw["failed"]
    details = {
        "workload": workload,
        "seed": seed,
        "passes": raw["passes"],
        "latency_tail_percentile": q,
        "latency_samples": len(latencies),
        "failed_frac": failed / attempted if attempted else 1.0,
        "certify_s": raw["certify_s"],
        "raw_items_per_s": raw["raw_items_per_s"],
        "setup_raw_s": statistics.median(setup_raw),
        "problems": raw["problems"],
        "env": dict(raw["env"], nproc=os.cpu_count()),
    }
    if trace:
        layers = dict(raw["layers"])
        layers["failed_frac"] = details["failed_frac"]
        for gens in workloads.APPROXIMATE_RINGS:
            key = "-".join(map(str, gens))
            layers["certify_s." + key] = raw["certify_s"].get(key) or 0.0
        values = layers
    else:
        values = {
            "setup_s": statistics.median(setups),
            "items_per_s": raw["items_per_s"],
            "latency_ms_p50": 1e3 * statistics.median(latencies),
            "latency_ms_tail": 1e3 * percentile(latencies, q),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
    units = metric_units(trace)
    if set(values) != set(units):
        raise RuntimeError(
            "metrics %r do not match BENCHMARK.json" % (set(values) ^ set(units),)
        )
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    return {
        "correct": bool(raw["correct"]),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "details": details,
    }


def _print_result(result):
    d = result["details"]
    print(
        "workload %s seed %d: %d passes, %d attempted, %d failed, correct %s"
        % (
            d["workload"],
            d["seed"],
            d["passes"],
            result["attempted"],
            result["failed"],
            result["correct"],
        )
    )
    for name, (value, unit) in sorted(result["metrics"].items()):
        note = ""
        if name == "latency_ms_tail":
            note = "  (p%g of n=%d)" % (
                d["latency_tail_percentile"],
                d["latency_samples"],
            )
        elif name == "setup_s":
            note = "  (median of %d set-ups)" % SETUPS
        print("  %-36s %14.6g %s%s" % (name, value, unit, note))
    for problem in d["problems"]:
        print("  check failed: %s" % problem)
    print("  details %s" % json.dumps(d, sort_keys=True))


def _document(result):
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }


def _save(result, trace):
    os.makedirs(".perfbench", exist_ok=True)
    d = result["details"]
    path = os.path.join(
        ".perfbench", "result-%s-%d-trace%d.json" % (d["workload"], d["seed"], trace)
    )
    with open(path, "w") as handle:
        json.dump(dict(_document(result), details=d), handle, indent=1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    for needed in ("BENCHMARK.json", "src/teter/cli.py", "tests/oracle.py"):
        if not os.path.isfile(needed):
            print("error: %s not found; run from a checkout root" % needed,
                  file=sys.stderr)
            return 2

    if args.all:
        ok = True
        for workload in workloads.WORKLOADS:
            for trace in (0, 1):
                result = run_workload(workload, args.seed, args.seconds, trace)
                _save(result, trace)
                _print_result(result)
                ok = ok and result["correct"]
        return 0 if ok else 1

    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    _save(result, args.trace)
    _print_result(result)
    print(json.dumps(_document(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
