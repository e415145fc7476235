"""Record benchmark runs in a BENCH_<n>.json trajectory file.

    python3 tools/bench_record.py --out BENCH_<n>.json --workload approximate \
        --seed 0 --pairs 10 --parent /path/to/parent-checkout

Run from the root of the checkout of the change.  Runs the benchmark
command of ``BENCHMARK.json`` (``perfbench/run.py --workload W --seed S
--seconds T --trace 0``) there and, with --parent, in a checkout of the
parent commit as well, pair by pair, alternating which side runs first.
Each run's end-to-end metrics go into the output file, and for every
side, workload and seed, the minimum, lower quartile, median and upper
quartile of each metric, the runs that failed a correctness check and
the failed inputs.  With --parent it also counts the pairs in which the
change was better.  The file records the number of processors, and it
is extended, not replaced, so repeated calls build up one file per
change; it is rewritten after every run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _spec(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_once(checkout, workload, seed, seconds):
    """One benchmark run in checkout; its result line, parsed."""
    cmd = _spec(checkout)["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    cmd[0] = sys.executable if cmd[0].startswith("python") else cmd[0]
    out = subprocess.run(
        cmd, cwd=checkout, check=True, stdout=subprocess.PIPE, text=True
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return {
        "correct": result["correct"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def summarize(entry, better):
    runs = entry["runs"]
    entry["summary"] = {}
    for name in better:
        values = sorted(run["metrics"][name] for run in runs)
        q1, q3 = _quartiles(values)
        entry["summary"][name] = {
            "min": values[0],
            "q1": q1,
            "median": statistics.median(values),
            "q3": q3,
        }
    entry["incorrect_runs"] = sum(not run["correct"] for run in runs)
    entry["failed_inputs"] = sum(run["failed"] for run in runs)


def count_wins(doc, key, better):
    # the i-th parent run and the i-th change run form a pair
    parent = doc["sides"].get("parent", {}).get(key, {"runs": []})["runs"]
    change = doc["sides"].get("change", {}).get(key, {"runs": []})["runs"]
    wins = {}
    for name, direction in better.items():
        sign = 1 if direction == "higher" else -1
        won = sum(
            sign * (c["metrics"][name] - p["metrics"][name]) > 0
            for p, c in zip(parent, change)
        )
        wins[name] = {"change_better": won, "pairs": min(len(parent), len(change))}
    doc.setdefault("pairs", {})[key] = wins


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to extend")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=1, help="runs per side")
    parser.add_argument("--parent", help="checkout of the parent commit")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = _spec(".")
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as handle:
            doc = json.load(handle)
    doc.update(nproc=os.cpu_count(), run_seconds=seconds)
    key = "%s/seed%d" % (args.workload, args.seed)
    sides = [("change", ".")]
    if args.parent:
        sides.append(("parent", args.parent))
    for i in range(args.pairs):
        for side, checkout in sides if i % 2 else sides[::-1]:
            entry = doc.setdefault("sides", {}).setdefault(side, {})
            entry = entry.setdefault(key, {"runs": []})
            entry["runs"].append(run_once(checkout, args.workload, args.seed, seconds))
            summarize(entry, better)
            if args.parent:
                count_wins(doc, key, better)
            with open(args.out, "w") as handle:
                json.dump(doc, handle, indent=1, sort_keys=True)
            print(
                "%s %s run %d: %s" % (
                    side, key, len(entry["runs"]),
                    json.dumps(entry["runs"][-1]["metrics"], sort_keys=True),
                ),
                flush=True,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
