"""Record the reference outputs that checks.py compares against.

    PYTHONPATH=src python3 perfbench/record_reference.py

Run from the repository root, only at a commit whose answers are
trusted: it writes perfbench/reference.json from what the program prints
now.  The seed only reorders the inputs, so one run covers every seed.
The census counts and the criterion-4 certificates in checks.py are not
recorded; they are fixed facts.
"""

import json
import os
import sys

import checks
import workloads
from child import Pass


def main():
    import teter.cli as cli

    os.makedirs(".perfbench", exist_ok=True)
    reference = {}
    for workload in workloads.WORKLOADS:
        items, _ = workloads.inputs(workload, workloads.DEFAULT_SEED)
        path = os.path.join(".perfbench", "reference-%s.txt" % workload)
        workloads.write_input(path, items)
        run = Pass(cli, workloads.batch_argv(workload, path))
        if run.code != 0 or len(run.lines) != len(items):
            sys.exit("%s: batch failed with %r" % (workload, run.code))
        reference[workload] = {
            "sorted_sha256": checks.sorted_digest(run.lines),
            "lines": {
                checks.input_key(gens): checks.line_digest(line)
                for gens, line in sorted(zip(items, run.lines))
            },
        }
    with open(os.path.join(checks.HERE, "reference.json"), "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
