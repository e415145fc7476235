"""Output checks, run after the timed passes.

Every input of every pass is checked as soon as the pass ends.  An input
fails on a wrong answer, an error record, a missing line, or a pass that
ended with a nonzero exit code or an exception.  Whole-pass facts (the
census counts and the digest of the sorted output lines) decide
``correct`` as well.

The reference digests in reference.json were recorded with
record_reference.py at the commit that added this benchmark, whose
answers the acceptance suite pins.
"""

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# numbers of numerical semigroups of genus 0..13 (OEIS A007323)
GENUS_COUNTS = (1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001)

# verdicts over the genus <= 11 census; Teter is split by strongly-Teter
CENSUS11_VERDICTS = {
    "Gorenstein": 85,
    "Teter/Yes": 86,
    "Teter/No": 125,
    "Unknown": 218,
    "NotTeter": 307,
}

# criterion 4 of the acceptance suite: Hilbert functions of the two
# pinned pullback rings; each has multiplicity e + 1 and socle 1
CRITERION4_HILBERT = {
    (3, 4, 5): [1, 4, 8, 12, 16, 20, 24, 28],
    (4, 5, 11): [1, 4, 8, 13, 18, 23, 28, 33],
}


def line_digest(line):
    return hashlib.sha256(line.encode()).hexdigest()[:16]


def sorted_digest(lines):
    """sha256 of the sorted lines joined by newlines."""
    digest = hashlib.sha256()
    for i, line in enumerate(sorted(lines)):
        digest.update(("\n" + line if i else line).encode())
    return digest.hexdigest()


def input_key(gens):
    return ",".join(map(str, gens))


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as handle:
        return json.load(handle)


class Tally:
    """Inputs attempted and failed, and what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    @property
    def correct(self):
        return self.failed == 0 and not self.problems

    def fail(self, message):
        self.failed += 1
        self.problems.append(message)


def _verdict_key(doc):
    if doc["verdict"] == "Teter":
        return "Teter/" + doc["strongly_teter"]["status"]
    return doc["verdict"]


def _census_counts(doc, genus, small):
    g = doc["invariants"]["genus"]
    genus[g] += 1
    if g <= 11:
        key = _verdict_key(doc)
        small[key] = small.get(key, 0) + 1


class _WideOracle:
    """Brute-force gaps and Frobenius numbers from tests/oracle.py."""

    def __init__(self):
        sys.path.insert(0, os.path.join(os.getcwd(), "tests"))
        import oracle

        self.oracle = oracle
        self.memo = {}

    def __call__(self, gens):
        if gens not in self.memo:
            raw = list(gens)
            self.memo[gens] = (
                self.oracle.bf_gaps(raw),
                self.oracle.bf_frobenius(raw),
            )
        return self.memo[gens]


def _item_problem(workload, gens, line, doc, ref, wide_oracle):
    """Why one output line is wrong, or None."""
    if "error" in doc:
        return "error record %r" % (doc,)
    if doc["generators"] != list(gens):
        return "generators %r" % (doc["generators"],)
    if workload == "wide":
        gaps, frobenius = wide_oracle(gens)
        inv = doc["invariants"]
        if inv["gaps"] != gaps or inv["frobenius"] != frobenius:
            return "gaps or Frobenius number differ from brute force"
        if inv["genus"] != len(gaps):
            return "genus %r" % (inv["genus"],)
    if line_digest(line) != ref["lines"][input_key(gens)]:
        return "output differs from the reference line"
    if workload == "approximate":
        cert = doc["approximation"]
        if cert is None:
            return "no certificate"
        if cert["multiplicity"] != gens[0] + 1 or cert["socle_dim"] != 1:
            return "certificate %r" % (cert,)
        want = CRITERION4_HILBERT.get(tuple(gens))
        if want is not None and cert["hilbert"] != want:
            return "Hilbert function %r" % (cert["hilbert"],)
    return None


class Checker:
    """Checks the passes of one run as they end; keeps only the tally."""

    def __init__(self, workload, items):
        self.workload = workload
        self.items = items
        self.reference = load_reference()[workload]
        self.wide_oracle = _WideOracle() if workload == "wide" else None
        self.tally = Tally()
        self.passes = 0

    def add(self, run):
        workload, items, tally = self.workload, self.items, self.tally
        where = "%s pass %d" % (workload, self.passes)
        self.passes += 1
        tally.attempted += len(items)
        if run.code != 0:
            tally.failed += len(items)
            tally.problems.append("%s: exit %r" % (where, run.code))
            return
        genus = [0] * len(GENUS_COUNTS)
        small = dict.fromkeys(CENSUS11_VERDICTS, 0)
        for index, gens in enumerate(items):
            if index >= len(run.lines):
                tally.fail("%s: no line for %s" % (where, input_key(gens)))
                continue
            line = run.lines[index]
            try:
                doc = json.loads(line)
            except ValueError:
                doc = {"error": "not JSON"}
            problem = _item_problem(
                workload, gens, line, doc, self.reference, self.wide_oracle
            )
            if problem is not None:
                tally.fail("%s: %s: %s" % (where, input_key(gens), problem))
            elif workload == "census13":
                _census_counts(doc, genus, small)
        if len(run.lines) > len(items):
            tally.problems.append("%s: extra output lines" % where)
        if workload == "census13":
            if tuple(genus) != GENUS_COUNTS:
                tally.problems.append("%s: genus counts %r" % (where, genus))
            if small != CENSUS11_VERDICTS:
                tally.problems.append("%s: genus <= 11 verdicts %r" % (where, small))
        if sorted_digest(run.lines) != self.reference["sorted_sha256"]:
            tally.problems.append("%s: digest of sorted lines differs" % where)
