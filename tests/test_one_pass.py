"""teter_check computes each classification fact once per semigroup.

The census counts pin the answers; the counting tests pin the single
pass, directly and through the benchmark's tracer, whose wrappers find
the traced functions by name.
"""

import importlib.util
from pathlib import Path

import oracle
import teter.cli
from teter import NumericalSemigroup, classify, graded, teter_check

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# genus <= 11, Teter split by the strongly-Teter status
CENSUS_VERDICTS = {
    "Gorenstein": 85,
    "Teter/Yes": 86,
    "Teter/No": 125,
    "Unknown": 218,
    "NotTeter": 307,
}


def test_census_verdict_counts():
    counts = {}
    for _, gens in oracle.enumerate_semigroups(11):
        r = teter_check(NumericalSemigroup(list(gens)))
        key = r.verdict
        if key == "Teter":
            key += "/" + r.strongly.status
        counts[key] = counts.get(key, 0) + 1
    assert counts == CENSUS_VERDICTS


# the number of semigroups of each genus 0..15, and the genus <= 15
# verdicts, Teter split as above
GENUS_COUNTS = [1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001, 1693, 2857]
CENSUS_15_VERDICTS = {
    "Gorenstein": 293,
    "Teter/Yes": 255,
    "Teter/No": 609,
    "Unknown": 1865,
    "NotTeter": 3942,
}


def test_genus_15_census_counts_and_verdicts():
    genera, counts = [0] * 16, {}
    for genus, gens in oracle.enumerate_semigroups(15):
        genera[genus] += 1
        r = teter_check(NumericalSemigroup(list(gens)))
        key = r.verdict
        if key == "Teter":
            key += "/" + r.strongly.status
        counts[key] = counts.get(key, 0) + 1
    assert genera == GENUS_COUNTS and sum(genera) == 6964
    assert counts == CENSUS_15_VERDICTS


def test_teter_check_scans_once_and_tests_the_cone_once(monkeypatch):
    # <4,5,6,7> has a CM cone and two certifying shifts, 7 and 8: every
    # place that could redo a fact is reached.  apery_set runs once per
    # evaluation of the tangent-cone criteria.
    calls = {"witness_shifts": 0, "apery_set": 0}
    witness_shifts = classify.witness_shifts
    apery_set = NumericalSemigroup.apery_set

    def counting_witness_shifts(*args, **kwargs):
        calls["witness_shifts"] += 1
        return witness_shifts(*args, **kwargs)

    def counting_apery_set(self, m):
        calls["apery_set"] += 1
        return apery_set(self, m)

    monkeypatch.setattr(classify, "witness_shifts", counting_witness_shifts)
    monkeypatch.setattr(NumericalSemigroup, "apery_set", counting_apery_set)
    r = teter_check(NumericalSemigroup([4, 5, 6, 7]))
    assert (r.witness.shift, r.strongly.shift, r.tangent_cone_cm) == (8, 7, True)
    assert calls == {"witness_shifts": 1, "apery_set": 1}


def test_cone_criteria_run_once_per_semigroup(monkeypatch):
    # build_graded_model takes teter_check's cone verdict instead of
    # evaluating both criteria again at every certifying shift
    calls = []
    assoc_graded_is_cm = graded.assoc_graded_is_cm

    def counting_assoc_graded_is_cm(H):
        calls.append(H)
        return assoc_graded_is_cm(H)

    for module in (classify, graded):
        monkeypatch.setattr(module, "assoc_graded_is_cm", counting_assoc_graded_is_cm)
    census = [NumericalSemigroup(list(g)) for _, g in oracle.enumerate_semigroups(9)]
    # a Yes reads the graded model, built at every certifying shift
    assert "Yes" in [teter_check(H).strongly.status for H in census]
    assert len(calls) == len(census)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module, qualname):
    owner = getattr(teter, module)
    for attr in qualname.split("."):
        owner = getattr(owner, attr)
    return owner


def test_traced_names_resolve(capsys):
    # install() looks up every TRACED name in the teter modules, teter.cli
    # included, and fails on one that was deleted or renamed
    tracing = _load_tracing()
    originals = {key[:2]: _resolve(*key[:2]) for key in tracing.TRACED}
    tracer = tracing.Tracer(lambda: None)
    try:
        tracer.install()
        for key, original in originals.items():
            assert _resolve(*key) is not original
        assert teter.cli.main(["analyze", "4,5,6,7", "--json", "--no-timings"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    for key, original in originals.items():
        assert _resolve(*key) is original
    metrics = tracer.layer_metrics(1)
    assert metrics["classify.teter_check_calls"] == 1
    assert metrics["classify.witness_shifts_calls"] == 1
    assert metrics["semigroup.apery_set_calls"] == 1
    assert metrics["classify.shifts_certified"] == 2
