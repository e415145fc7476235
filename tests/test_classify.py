import pytest

import oracle
from teter import (
    GorensteinInputError,
    NumericalSemigroup,
    RelativeIdeal,
    monomial_teter_witness,
    strongly_teter_check,
    teter_check,
    type_condition,
    witness_shifts,
)
from teter import classify, ideals


def test_type_condition():
    assert type_condition(NumericalSemigroup([3, 4, 5]))
    assert type_condition(NumericalSemigroup([4, 7, 9, 10]))
    assert not type_condition(NumericalSemigroup([5, 6, 7, 9]))


def test_witness_shifts_lists_every_cyclic_shift():
    H = NumericalSemigroup([3, 4, 5])
    found = [(s, d.cyclic_generator, d.cyclic_length) for s, _, d in witness_shifts(H)]
    assert found == [(5, 5, 2), (6, 3, 3)]

    K = NumericalSemigroup([4, 5, 6, 7])
    found = [(s, d.cyclic_generator, d.cyclic_length) for s, _, d in witness_shifts(K)]
    assert found == [(7, 7, 2), (8, 4, 3)]

    L = NumericalSemigroup([5, 6, 7, 8, 9])
    found = [(s, d.cyclic_generator, d.cyclic_length) for s, _, d in witness_shifts(L)]
    assert found == [(9, 9, 2), (10, 5, 3)]


def test_witness_shifts_rejects_gorenstein():
    with pytest.raises(GorensteinInputError):
        witness_shifts(NumericalSemigroup([3, 4]))


def test_largest_shift_is_reported():
    s, data = monomial_teter_witness(NumericalSemigroup([3, 4, 5]))
    assert s == 6
    assert (data.cyclic_generator, data.cyclic_length) == (3, 3)
    s, data = monomial_teter_witness(NumericalSemigroup([4, 5, 6, 7]))
    assert s == 8
    assert (data.cyclic_generator, data.cyclic_length) == (4, 3)


def test_wider_window_finds_nothing_new():
    # the closed-form candidates n + f list exactly the shifts a
    # brute-force scan finds, however far it looks past max + F; the
    # semigroups failing the type condition are included
    seen = set()
    for _, gens in oracle.enumerate_semigroups(8):
        H = NumericalSemigroup(gens)
        if H.is_gorenstein:
            continue
        seen.add(gens)
        found = [(s, list(d.cobasis)) for s, _, d in witness_shifts(H)]
        for multiplier in (1, 2, 3):
            assert found == oracle.bf_teter_shifts(list(gens), multiplier), gens
    assert {(3, 4, 5), (4, 5, 11), (4, 5, 6, 7), (5, 6, 7, 9)} <= seen
    assert len(seen) == 124


def test_quotient_data_runs_once_per_certifying_shift(monkeypatch):
    # every candidate is tested on its rotated Apery tuple; only a shift
    # that certifies is built as an ideal and handed to quotient_data, and
    # only the edim * type candidates n + f are tried, not every shift in
    # [F, F + max]
    calls, built, tried = [], [], []
    quotient_data = classify.quotient_data
    translate = RelativeIdeal._translate
    shifted_apery = classify.shifted_apery

    def counting_quotient_data(H, J):
        calls.append(J)
        return quotient_data(H, J)

    def counting_translate(self, s, apery):
        # every shifted ideal is built here, by shift or on a rotated tuple
        built.append(s)
        return translate(self, s, apery)

    def counting_shifted_apery(apery, s):
        tried.append(s)
        return shifted_apery(apery, s)

    monkeypatch.setattr(classify, "quotient_data", counting_quotient_data)
    monkeypatch.setattr(RelativeIdeal, "_translate", counting_translate)
    monkeypatch.setattr(classify, "shifted_apery", counting_shifted_apery)
    # a certifying shift's ideal reuses the tuple the scan rotated
    rerotated = []

    def counting_rotation(apery, s):
        rerotated.append(s)
        return shifted_apery(apery, s)

    monkeypatch.setattr(ideals, "shifted_apery", counting_rotation)
    for gens, certified in (([4, 5, 6, 7], [7, 8]), ([107, 110, 136], [])):
        del calls[:], built[:], tried[:]
        H = NumericalSemigroup(gens)
        found = witness_shifts(H)
        assert [s for s, _, _ in found] == built == certified
        assert [J for _, J, _ in found] == calls
        assert len(set(tried)) == len(tried) <= H.embedding_dimension * H.cm_type
        assert set(certified) <= set(tried)
    assert len(tried) == 6
    assert rerotated == []


def test_no_witness_means_none():
    assert monomial_teter_witness(NumericalSemigroup([4, 7, 9, 10])) is None


def test_verdicts():
    r = teter_check(NumericalSemigroup([3, 4, 5]))
    assert r.verdict == "Teter"
    assert r.witness.shift == 6
    assert r.witness.ideal_generators == (4, 5)
    assert r.witness.cobasis == (0, 3, 6)
    assert r.not_teter_reason is None
    assert r.tangent_cone_cm

    r = teter_check(NumericalSemigroup([4, 5, 11]))
    assert r.verdict == "Teter"
    assert r.witness.shift == 11
    assert (r.witness.cyclic_generator, r.witness.cyclic_length) == (11, 2)
    assert not r.tangent_cone_cm

    r = teter_check(NumericalSemigroup([5, 6, 7, 9]))
    assert r.verdict == "NotTeter"
    assert r.not_teter_reason == "TypeBound"
    assert r.witness is None
    assert r.strongly.status == "NotApplicable"

    r = teter_check(NumericalSemigroup([3, 4]))
    assert r.verdict == "Gorenstein"
    assert r.witness is None

    r = teter_check(NumericalSemigroup([4, 7, 9, 10]))
    assert r.verdict == "Unknown"
    assert r.type_condition_holds
    assert r.witness is None
    assert r.strongly.status == "NotApplicable"


def test_strongly_teter():
    s = strongly_teter_check(NumericalSemigroup([3, 4, 5]))
    assert (s.status, s.socle_dim, s.shift) == ("Yes", 1, 5)

    s = strongly_teter_check(NumericalSemigroup([4, 5, 11]))
    assert (s.status, s.reason) == ("No", "TangentConeNotCM")

    s = strongly_teter_check(NumericalSemigroup([4, 5, 6, 7]))
    assert (s.status, s.socle_dim, s.shift) == ("Yes", 1, 7)

    s = strongly_teter_check(NumericalSemigroup([3, 4]))
    assert s.status == "NotApplicable"


def test_strongly_scan_picks_the_aligned_shift():
    # the reported witness shift (8) overstates the socle; the scan
    # must fall back to the earlier shift to certify dimension one
    H = NumericalSemigroup([4, 5, 6, 7])
    r = teter_check(H)
    assert r.witness.shift == 8
    assert r.strongly.shift == 7
    assert r.strongly.socle_dim == 1
