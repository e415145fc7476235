import pytest

import oracle
from teter import (
    EmptyGeneratorsError,
    NonCoprimeError,
    NotAMemberError,
    NumericalSemigroup,
)


def test_generators_are_minimized():
    assert NumericalSemigroup([3, 4, 5, 6, 7, 8]).generators == (3, 4, 5)
    assert NumericalSemigroup([5, 11, 4, 5]).generators == (4, 5, 11)
    assert NumericalSemigroup([6, 20, 9]).generators == (6, 9, 20)


def test_bad_input():
    with pytest.raises(EmptyGeneratorsError):
        NumericalSemigroup([])
    with pytest.raises(NonCoprimeError):
        NumericalSemigroup([2, 4])
    with pytest.raises(ValueError):
        NumericalSemigroup([0, 3])
    with pytest.raises(ValueError):
        NumericalSemigroup([-3, 4])


def test_full_semigroup():
    H = NumericalSemigroup([1])
    assert H.generators == (1,)
    assert H.frobenius == -1
    assert H.gaps == ()
    assert H.genus == 0
    assert H.conductor == 0
    assert H.pseudo_frobenius == (-1,)
    assert H.cm_type == 1
    assert H.is_gorenstein
    assert 0 in H and 1 in H


# gens -> (frobenius, gaps, type)
FROZEN = {
    (3, 4, 5): (2, (1, 2), 2),
    (4, 5, 11): (7, (1, 2, 3, 6, 7), 2),
    (5, 6, 7, 9): (8, (1, 2, 3, 4, 8), 2),
    (3, 4): (5, (1, 2, 5), 1),
    (4, 7, 9, 10): (6, (1, 2, 3, 5, 6), 3),
}


def test_frozen_invariants():
    for gens, (frob, gaps, cm_type) in FROZEN.items():
        H = NumericalSemigroup(gens)
        assert H.frobenius == frob
        assert H.gaps == gaps
        assert H.genus == len(gaps)
        assert H.cm_type == cm_type
        assert H.multiplicity == gens[0]
        assert H.embedding_dimension == len(gens)
        assert H.conductor == frob + 1


def test_membership():
    H = NumericalSemigroup([6, 9, 20])
    assert 43 not in H
    assert H.frobenius == 43
    assert 44 in H
    assert all(n in H for n in range(44, 200))
    assert -1 not in H
    assert 0 in H
    small = NumericalSemigroup([3, 4, 5])
    assert [n for n in range(10) if n in small] == [0, 3, 4, 5, 6, 7, 8, 9]
    # negative n, multiples of e included, for e > 1 and e = 1
    assert not any(n in H for n in (-1, -6, -20, -43, -44, -600))
    assert not any(n in small for n in range(-10, 0))
    assert not any(n in NumericalSemigroup([1]) for n in (-1, -2, -100))


def test_members_up_to():
    H = NumericalSemigroup([4, 5, 11])
    assert H.members_up_to(12) == [0, 4, 5, 8, 9, 10, 11, 12]


def test_apery_set():
    H = NumericalSemigroup([4, 5, 11])
    assert H.apery_set(4) == (0, 5, 10, 11)
    small = NumericalSemigroup([3, 4, 5])
    assert small.apery_set(3) == (0, 4, 5)
    with pytest.raises(NotAMemberError):
        small.apery_set(2)
    with pytest.raises(NotAMemberError):
        small.apery_set(0)
    # least member per residue class, never past F + m
    for m in (4, 5, 11):
        ap = H.apery_set(m)
        assert len(ap) == m
        for r, a in enumerate(ap):
            assert a % m == r and a in H
            assert a - m not in H
            assert a <= H.frobenius + m


def test_pseudo_frobenius():
    assert NumericalSemigroup([5, 6, 7, 9]).pseudo_frobenius == (4, 8)
    assert NumericalSemigroup([3, 4, 5]).pseudo_frobenius == (1, 2)
    assert NumericalSemigroup([3, 4]).pseudo_frobenius == (5,)
    assert NumericalSemigroup([4, 5, 11]).pseudo_frobenius == (6, 7)


def test_gorenstein():
    assert NumericalSemigroup([3, 4]).is_gorenstein
    assert NumericalSemigroup([6, 9, 20]).is_gorenstein
    assert not NumericalSemigroup([3, 4, 5]).is_gorenstein
    assert not NumericalSemigroup([5, 6, 7, 9]).is_gorenstein
    assert not NumericalSemigroup([4, 7, 9, 10]).is_gorenstein


def test_gorenstein_matches_the_symmetry_walk():
    seen = 0
    for _, gens in oracle.enumerate_semigroups(11):
        assert NumericalSemigroup(gens).is_gorenstein == oracle.bf_symmetric(gens), gens
        seen += 1
    assert seen == 821


def test_gorenstein_reads_the_apery_set(monkeypatch):
    # F = 997001: a symmetry walk would make about 2F membership tests
    H = NumericalSemigroup([999, 1000])
    H.pseudo_frobenius  # the type cross-check, computed beforehand
    calls = []
    contains = NumericalSemigroup.contains

    def counting_contains(self, n):
        calls.append(n)
        return contains(self, n)

    monkeypatch.setattr(NumericalSemigroup, "contains", counting_contains)
    monkeypatch.setattr(NumericalSemigroup, "__contains__", counting_contains)
    assert H.is_gorenstein
    assert 0 < len(calls) <= 2 * H.multiplicity


def test_ord():
    H = NumericalSemigroup([4, 5, 11])
    assert H.ord(15) == 3
    assert H.ord(11) == 1
    assert H.ord(0) == 0
    assert H.ord(4) == 1
    assert H.ord(22) == 5  # 22 = 4+4+4+5+5 beats 11+11
    with pytest.raises(NotAMemberError):
        H.ord(6)
    with pytest.raises(NotAMemberError):
        H.ord(-4)


def test_ord_far_out():
    # exercises the lazily grown table well past the initial window
    H = NumericalSemigroup([3, 4, 5])
    assert H.ord(300) == 100
    assert H.ord(301) == 100  # 99 threes and one 4
    assert H.ord(299) == 99


def test_equality_and_repr():
    a = NumericalSemigroup([3, 4, 5])
    b = NumericalSemigroup([3, 4, 5, 7])
    assert a == b
    assert hash(a) == hash(b)
    assert a != NumericalSemigroup([3, 4])
    assert repr(a) == "NumericalSemigroup([3, 4, 5])"
