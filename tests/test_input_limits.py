"""Oversized inputs are refused before their tables or matrices exist."""

import json
import re

import oracle
import pytest

import teter.fiber
import teter.semigroup
from teter import (
    FiberProductRing,
    NumericalSemigroup,
    assoc_graded_is_cm,
    build_graded_model,
    canonical_ideal,
    quotient_data,
    verify_approximation,
)
from teter.fiber import MAX_WIDTH


def test_membership_table_refused_before_allocation(monkeypatch):
    def no_table(*args):
        raise AssertionError("built a table for a refused semigroup")

    # the gaps are listed into the first tuple the constructor builds
    monkeypatch.setattr(teter.semigroup, "tuple", no_table, raising=False)
    for gens in ([2, 100000000001], [2, 20000001]):
        with pytest.raises(ValueError, match="gap table"):
            NumericalSemigroup(gens)
    # e * (number of generators) bounds the shortest-path heap
    monkeypatch.setattr(teter.semigroup.heapq, "heappush", no_table)
    monkeypatch.setattr(teter.semigroup.heapq, "heappop", no_table)
    with pytest.raises(ValueError, match="shortest-path table"):
        NumericalSemigroup([1000001, 1000002])


def test_large_redundant_generators_do_not_size_the_table():
    # redundant generators cost one shortest-path edge each, nothing more
    assert NumericalSemigroup([2, 3, 2000000]).generators == (2, 3)
    assert NumericalSemigroup([3, 4, 5, 400000]).generators == (3, 4, 5)
    assert NumericalSemigroup([2000000, 2, 3, 10**12]).generators == (2, 3)


def test_generators_past_int64_stay_python_ints():
    # 2^63 + 1 and 10^30 are redundant: only the minimal generators, each
    # at most F + e, reach an int64 array, and every read returns Python
    # ints, so json.dumps never meets a numpy scalar
    H = NumericalSemigroup([3, 4, 2**63 + 1, 10**30])
    assert H.generators == (3, 4)
    assert list(H.gaps) == oracle.bf_gaps([3, 4])
    assert list(H.pseudo_frobenius) == oracle.bf_pseudo_frobenius([3, 4])
    reads = {
        "generators": H.generators,
        "gaps": H.gaps,
        "pseudo_frobenius": H.pseudo_frobenius,
        "apery_table": [n for row in H.apery_table for n in row],
    }
    for values in reads.values():
        assert all(type(n) is int for n in values)
    json.dumps(reads)


def test_large_inputs_match_closed_forms():
    # Sylvester: F = ab - a - b and genus (a-1)(b-1)/2 for <a,b>
    H = NumericalSemigroup([999, 1000])
    assert H.frobenius == 999 * 1000 - 999 - 1000
    assert H.genus == 998 * 999 // 2
    # Roberts: <a, a+1, ..., a+k> has F = (floor((a-2)/k) + 1) a - 1
    H = NumericalSemigroup(range(1000, 1010))
    assert H.generators == tuple(range(1000, 1010))
    assert H.frobenius == (998 // 9 + 1) * 1000 - 1 == 110_999
    # Apery set {0, 10^6, 10^6 + 1} of 3
    H = NumericalSemigroup([3, 1000000, 1000001])
    assert H.frobenius == 999_998
    assert H.genus == 666_666
    assert H.generators == (3, 1000000, 1000001)
    # m^2 = t^3 m: two rows, a CM cone, and ord = (h - a_1[h mod 3]) // 3 + 1
    assert len(H.apery_table) == 2
    assert assoc_graded_is_cm(H)
    assert H.ord(10**6) == 1
    assert H.ord(2 * 10**6 + 1) == 666_667


def test_ord_table_stays_under_the_limit(monkeypatch):
    # ord reads the Apery table of the powers of m, e entries a row and
    # at most e rows, so any member is answered once the table fits
    monkeypatch.setattr(teter.semigroup, "MAX_TABLE", 1000)
    H = NumericalSemigroup([3, 4, 5])
    assert H.ord(600) == 200
    assert H.ord(700) == 233
    assert H.ord(10**12) == 333_333_333_333
    # <10,11,24> needs ten rows of ten entries; a limit of 99 refuses
    # the table before its tenth row, and every reader with it
    monkeypatch.setattr(teter.semigroup, "MAX_TABLE", 99)
    H = NumericalSemigroup([10, 11, 24])
    refused = "Apery table of 100 entries exceeds 99"
    with pytest.raises(ValueError, match=refused):
        H.apery_table
    with pytest.raises(ValueError, match=refused):
        H.ord(44)
    with pytest.raises(ValueError, match=refused):
        assoc_graded_is_cm(H)
    monkeypatch.setattr(teter.semigroup, "MAX_TABLE", 100)
    assert len(H.apery_table) == 10
    assert not assoc_graded_is_cm(H)


@pytest.fixture
def no_large_lists(monkeypatch):
    members_up_to = NumericalSemigroup.members_up_to

    def small_only(self, n):
        assert n < 10_000, "listed the members up to %d" % n
        return members_up_to(self, n)

    monkeypatch.setattr(NumericalSemigroup, "members_up_to", small_only)


def test_model_width_refused_before_the_exponent_lists(no_large_lists):
    H = NumericalSemigroup([3, 4, 5])
    # <3,4,5> has genus 2 and the quotient at shift 6 has length 3, so
    # precision N gives width 2N - 3
    top = (MAX_WIDTH + 3) // 2
    assert FiberProductRing(H, 6, precision=top).width == 2 * top - 3
    for precision in (top + 1, 100_000, 10**12):
        with pytest.raises(ValueError, match="precision of at most %d" % top):
            FiberProductRing(H, 6, precision=precision)
    # the sweep's second precision is 10 higher, refused up front as well
    with pytest.raises(ValueError, match="precision of at most %d" % (top - 10)):
        verify_approximation(H, 6, precision=top)


def test_semigroup_too_large_for_any_precision(no_large_lists):
    # the floor alone gives a model wider than the limit
    H = NumericalSemigroup([3, 50, 52])
    s = teter.monomial_teter_witness(H)[0]
    with pytest.raises(ValueError, match="too large to approximate"):
        FiberProductRing(H, s)
    with pytest.raises(ValueError, match="too large to approximate"):
        verify_approximation(H, s)


def test_advised_precision_is_accepted(monkeypatch):
    # with a small limit the advised precision is cheap to run
    monkeypatch.setattr(teter.fiber, "MAX_WIDTH", 100)
    H = NumericalSemigroup([3, 4, 5])
    with pytest.raises(ValueError, match="at most") as refused:
        verify_approximation(H, 6, precision=200)
    n = int(re.search(r"at most (\d+)", str(refused.value)).group(1))
    assert verify_approximation(H, 6, precision=n).precisions_checked == (n, n + 10)
    with pytest.raises(ValueError, match="at most %d" % n):
        verify_approximation(H, 6, precision=n + 1)


def test_ideal_reads_scale_with_the_apery_set(no_large_lists, monkeypatch):
    # <3,10^6,10^6+1> has F = 999,998 and type 2; the witness ideal at
    # shift 2F + 2 leaves the cyclic cobasis 0, 3, ..., 3 * 666,666.
    # Both reads go through J's Apery set: a handful of membership tests
    # per class and generator, none per member up to F
    H = NumericalSemigroup([3, 1000000, 1000001])
    s = teter.monomial_teter_witness(H)[0]
    assert s == 1_999_998
    J = canonical_ideal(H).shift(s)
    calls = []
    contains = NumericalSemigroup.contains

    def counting_contains(self, n):
        calls.append(n)
        return contains(self, n)

    monkeypatch.setattr(NumericalSemigroup, "contains", counting_contains)
    monkeypatch.setattr(NumericalSemigroup, "__contains__", counting_contains)
    bound = 4 * H.multiplicity * H.cm_type
    data = quotient_data(H, J)
    assert data.cobasis == tuple(range(0, 2_000_001, 3))
    assert (data.cyclic_generator, data.cyclic_length) == (3, 666_667)
    assert len(calls) <= bound
    calls.clear()
    model = build_graded_model(H, J)
    assert model.apery_basis == (1_000_000, 1_000_001, 2_000_001)
    assert len(calls) <= bound
