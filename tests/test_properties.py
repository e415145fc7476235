import random
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

import oracle
from teter import (
    NumericalSemigroup,
    RelativeIdeal,
    TangentConeNotCMError,
    assoc_graded_is_cm,
    build_graded_model,
    canonical_ideal,
    quotient_data,
)
from teter.classify import witness_shifts
from teter.fiber import (
    MAX_WIDTH,
    FiberProductRing,
    _certified_degree,
    _closed_form_length,
    default_precision,
)
from teter.ideals import apery_is_proper, generators_outside, shifted_apery
from teter.modp import RowSpace

gen_lists = st.lists(st.integers(min_value=2, max_value=40), min_size=2, max_size=4)


def coprime(gens):
    g = 0
    for n in gens:
        g = gcd(g, n)
    return g == 1


@given(gen_lists)
@settings(deadline=None, max_examples=60)
def test_gap_data_matches_oracle(gens):
    assume(coprime(gens))
    H = NumericalSemigroup(gens)
    gaps = oracle.bf_gaps(gens)
    assert list(H.gaps) == gaps
    assert H.frobenius == oracle.bf_frobenius(gens)
    assert H.genus == len(gaps)
    assert H.conductor == H.frobenius + 1


@given(gen_lists)
# non-minimal input generators.  In the first four the search sets the
# Apery element 10 = 5 + 5, 8 = 4 + 4, 13 = 6 + 7 or 14 = 7 + 7 from 0
# first and reaches it from a nonzero one only at a tie; the other
# non-minimal inputs (10, 12; 9; 6, 7, 8) are no Apery elements at all
@example([4, 5, 10])
@example([3, 4, 8])
@example([5, 6, 7, 13])
@example([5, 7, 10, 12, 14])
@example([4, 5, 9])
@example([3, 4, 5, 6, 7, 8])
@settings(deadline=None, max_examples=60)
def test_minimal_generators_match_oracle(gens):
    assume(coprime(gens))
    H = NumericalSemigroup(gens)
    assert list(H.generators) == oracle.bf_minimal_generators(gens)


@given(gen_lists)
@settings(deadline=None, max_examples=60)
def test_pseudo_frobenius_matches_oracle(gens):
    assume(coprime(gens))
    H = NumericalSemigroup(gens)
    assert list(H.pseudo_frobenius) == oracle.bf_pseudo_frobenius(gens)
    assert H.cm_type == len(H.pseudo_frobenius)
    assert H.pseudo_frobenius[-1] == H.frobenius


@given(gen_lists)
@settings(deadline=None, max_examples=40)
def test_apery_set_is_least_in_each_class(gens):
    assume(coprime(gens))
    H = NumericalSemigroup(gens)
    m = H.multiplicity
    ap = H.apery_set(m)
    assert len(ap) == m and ap[0] == 0
    for r, w in enumerate(ap):
        assert w % m == r
        assert w in H and (w - m) not in H
    assert list(ap) == oracle.bf_apery(gens, m)


@given(gen_lists)
@settings(deadline=None, max_examples=40)
def test_canonical_generators_match_oracle(gens):
    assume(coprime(gens))
    H = NumericalSemigroup(gens)
    omega = canonical_ideal(H)
    assert list(omega.generators) == oracle.bf_canonical_generators(gens)
    # the Apery set read off H's is the one its generators give
    assert omega.apery == RelativeIdeal(H, omega.generators).apery
    # normalized so the smallest element is -F
    assert omega.generators[0] == -H.frobenius
    assert all(g < 0 for g in omega.generators)


def candidate_shifts(H):
    """The witness candidates n + f, n a minimal generator and f a
    pseudo-Frobenius number."""
    return sorted({n + f for n in H.generators for f in H.pseudo_frobenius})


def assert_ideal_matches(I, elements, lo, hi):
    # elements: the ideal cut to [lo, hi], a window holding its least
    # element of every class
    assert list(I.apery) == oracle.bf_least_per_class(elements, len(I.apery))
    assert [z in I for z in range(lo, hi + 1)] == [
        z in elements for z in range(lo, hi + 1)
    ]


@given(gen_lists, st.lists(st.integers(-30, 60), min_size=1, max_size=4))
@settings(deadline=None, max_examples=60)
def test_ideal_apery_and_membership_match_oracle(gens, ideal_gens):
    assume(coprime(gens))
    H = NumericalSemigroup(gens)
    e, F = H.multiplicity, H.frobenius
    # the least element of a class lies below min(I) + F + e
    lo = min(ideal_gens) - e
    hi = lo + F + 3 * e
    I = RelativeIdeal.from_generators(H, ideal_gens)
    assert_ideal_matches(I, oracle.bf_ideal_set(gens, ideal_gens, lo, hi), lo, hi)
    # omega + s starts at s - F and holds everything above s
    omega = canonical_ideal(H)
    for s in candidate_shifts(H):
        lo, hi = s - F - e, s + 2 * e
        elements = oracle.bf_shifted_canonical_set(gens, s, lo, hi)
        assert_ideal_matches(omega.shift(s), elements, lo, hi)


@given(
    gen_lists,
    st.lists(st.integers(-30, 60), min_size=1, max_size=4),
    st.integers(-100, 100),
)
@example([1], [0, 3], -7)
@example([1, 5], [2], 0)
@example([3, 4, 5], [-2, -1], 6)
@example([3, 4, 5], [-2, -1], -9)
@example([4, 5, 11], [-7, -6], 12)
@settings(deadline=None, max_examples=60)
def test_shift_carries_the_apery_set(gens, ideal_gens, s):
    # I + s takes I's Apery set along, class i from class i - s of I;
    # negative s, s = 0 mod e and e = 1 included
    assume(coprime(gens))
    H = NumericalSemigroup(gens)
    e, F = H.multiplicity, H.frobenius
    I = RelativeIdeal.from_generators(H, ideal_gens)
    shifted = I.shift(s)
    fresh = RelativeIdeal(H, tuple(g + s for g in I.generators))
    assert shifted == fresh
    assert shifted.apery == fresh.apery
    lo = min(ideal_gens) + s - e
    elements = oracle.bf_ideal_set(gens, [g + s for g in ideal_gens], lo, lo + F + 3 * e)
    assert list(shifted.apery) == oracle.bf_least_per_class(elements, e)


@given(gen_lists, st.integers(-100, 100))
@example([3, 4, 5], 6)
@example([4, 5, 6, 7], 12)
@example([3, 4, 5], -4)
@example([2, 5], 8)
@example([2, 5], -2)
@example([2, 5], 3)
@example([3, 4], 5)
@settings(deadline=None, max_examples=60)
def test_apery_tuple_tests_match_the_shifted_ideal(gens, s):
    # witness_shifts decides "proper" and mu on omega's Apery tuple rotated
    # by s; both agree with the ideal itself, whose Apery set is recomputed
    # from its generators, and with membership by brute force;
    # s = 0 mod e, s < 0, e = 2 and J = H included
    assume(coprime(gens))
    H = NumericalSemigroup(gens)
    assume(H.frobenius >= 0)
    omega = canonical_ideal(H)
    J = RelativeIdeal(H, tuple(g + s for g in omega.generators))
    assert J == omega.shift(s)
    apery = shifted_apery(omega.apery, s)
    proper = apery_is_proper(H, apery)
    assert proper == J.is_proper_ideal()
    assert proper == all(
        g > 0 and oracle.bf_membership(gens, g) for g in J.generators
    )
    if proper:
        outside = [
            n
            for n in H.generators
            if not any(oracle.bf_membership(gens, n - g) for g in J.generators)
        ]
        assert generators_outside(H, apery) == outside
        assert len(outside) == quotient_data(H, J).mu


@pytest.mark.parametrize(
    "gens",
    [
        [47, 65, 124],
        [50, 83, 134],
        [107, 110, 136],
        [41, 58, 77, 93],
        [60, 71, 89, 97, 113],
    ],
)
def test_large_multiplicity_matches_oracle(gens):
    # e in [40, 160), as in the benchmark's wide inputs: tables of many
    # rows and wide columns, beyond what the strategies above draw
    H = NumericalSemigroup(gens)
    F = H.frobenius
    assert 40 <= H.multiplicity < 160
    assert H.apery_table == oracle.bf_apery_table(gens)
    assert assoc_graded_is_cm(H) == oracle.bf_tangent_cone_cm(gens)
    assert list(H.pseudo_frobenius) == oracle.bf_pseudo_frobenius(gens)
    assert list(H.gaps) == oracle.bf_gaps(gens)
    window = F + 2 * max(gens)
    ords = oracle.bf_ord_table(gens, window)
    for h in range(window + 1):
        if ords[h] >= 0:
            assert H.ord(h) == ords[h]


def proper_ideals(H, picks):
    """The ideal on the picked members (all of m if none is one), and
    every proper omega + (n + f)."""
    members = [h for h in picks if h in H] or H.generators
    out = [RelativeIdeal.from_generators(H, members)]
    omega = canonical_ideal(H)
    out += [omega.shift(s) for s in candidate_shifts(H)]
    return [I for I in out if I.is_proper_ideal()]


@given(gen_lists, st.lists(st.integers(1, 80), min_size=1, max_size=4))
@settings(deadline=None, max_examples=60)
def test_cobasis_matches_window_scan(gens, picks):
    assume(coprime(gens))
    H = NumericalSemigroup(gens)
    for I in proper_ideals(H, picks):
        cobasis = oracle.bf_window_cobasis(gens, I.generators)
        assert list(quotient_data(H, I).cobasis) == cobasis


@given(gen_lists, st.lists(st.integers(1, 80), min_size=1, max_size=4))
@settings(deadline=None, max_examples=60)
def test_graded_basis_is_the_least_element_per_class(gens, picks):
    assume(coprime(gens))
    H = NumericalSemigroup(gens)
    e, F = H.multiplicity, H.frobenius
    cone_cm = assoc_graded_is_cm(H)
    for J in proper_ideals(H, picks):
        if not cone_cm:
            with pytest.raises(TangentConeNotCMError):
                build_graded_model(H, J)
            continue
        lo = min(J.generators)
        elements = oracle.bf_ideal_set(gens, J.generators, lo - e, lo + F + e)
        expected = sorted(j for j in elements if j - e not in elements)
        assert list(build_graded_model(H, J).apery_basis) == expected


@given(gen_lists)
@settings(deadline=None, max_examples=40)
def test_ord_matches_oracle(gens):
    assume(coprime(gens))
    H = NumericalSemigroup(gens)
    window = 2 * max(gens) + H.conductor
    ords = oracle.bf_ord_table(gens, window)
    for h in H.members_up_to(window):
        assert H.ord(h) == int(ords[h])


@given(gen_lists)
@example([1])
@example([1, 5])
@example([2, 3])
@example([10, 11, 24])
@settings(deadline=None, max_examples=40)
def test_apery_table_matches_oracle(gens):
    assume(coprime(gens))
    H = NumericalSemigroup(gens)
    e, top, F = H.multiplicity, H.generators[-1], H.frobenius
    assert H.apery_table == oracle.bf_apery_table(gens)
    assert len(H.apery_table) <= e
    assert assoc_graded_is_cm(H) == oracle.bf_tangent_cone_cm(gens)
    # ord read off the rows at uneven steps; a_r <= a_0 + (e - 1) e, so
    # the last read lies past the last row in its class
    reads = (1, e + 1, top + 3, top + 3 + e + e // 2, 3 * top + F, F + e * e + top)
    ords = oracle.bf_ord_table(gens, max(reads))
    for n in reads:
        if ords[n] >= 0:
            assert H.ord(n) == ords[n]
    for n in (-1, 0, e - 1, F, F + e):
        table = oracle.bf_member_table(gens, max(n, 0))
        expected = [h for h in range(n + 1) if table[h]]
        assert H.members_up_to(n) == expected


@given(gen_lists, st.integers(0, 10**6), st.integers(0, 10**6))
@settings(deadline=None, max_examples=60)
def test_ord_is_superadditive(gens, i, j):
    assume(coprime(gens))
    H = NumericalSemigroup(gens)
    members = H.members_up_to(H.conductor + 2 * max(gens))
    a = members[i % len(members)]
    b = members[j % len(members)]
    assert H.ord(a + b) >= H.ord(a) + H.ord(b)


@given(st.integers(0, 10**9))
@settings(deadline=None, max_examples=40)
def test_rowspace_invariants(seed):
    rng = np.random.default_rng(seed)
    p = 11
    width = int(rng.integers(1, 8))
    mat = rng.integers(0, p, size=(int(rng.integers(1, 6)), width))
    space = RowSpace(p, width)
    added = space.add_matrix(mat)
    assert added == space.dim <= min(mat.shape[0], width)
    # everything added reduces to zero, as does any combination
    assert not space.reduce_matrix(mat).any()
    combo = (rng.integers(0, p, size=(1, mat.shape[0])) @ mat) % p
    assert space.contains(combo[0])
    assert space.add_matrix(combo) == 0


@st.composite
def clustered_generators(draw):
    """3 to 5 generators below 60, the others below three times the
    least, e: the Frobenius number stays small, so about one draw in
    twenty has a witness model that fits MAX_WIDTH."""
    e = draw(st.integers(3, 30))
    rest = st.integers(e + 1, min(59, 3 * e - 1))
    return [e] + draw(st.lists(rest, min_size=2, max_size=4, unique=True))


@given(clustered_generators())
@settings(deadline=None, max_examples=600)
def test_closed_form_matches_the_width_model(gens):
    # beyond the census: at every witness shift whose model fits, at the
    # floor and at the floor plus 2 max, every certified degree's length
    # by the matching count equals the semigroup's closed form
    assume(coprime(gens))
    H = NumericalSemigroup(gens)
    if H.is_gorenstein:
        return
    floor, step = default_precision(H), 2 * max(H.generators)
    for shift, _, data in witness_shifts(H):
        g, c = data.cyclic_generator, data.cyclic_length
        # the width 2(N + 1) - genus - c at the larger precision
        if 2 * (floor + step + 1) - H.genus - c > MAX_WIDTH:
            continue
        event("model fits")
        for n in (floor, floor + step):
            ring = FiberProductRing(H, shift, precision=n)
            for k in range(_certified_degree(H, n) + 1):
                want = _closed_form_length(H, g, c, k + 1)
                assert ring.width - ring._power_rank(k + 1) == want, (gens, shift, n, k)


def random_semigroups(count, seed):
    """Deterministic sample with small multiplicity and genus."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        e = rng.randint(2, 15)
        gens = [e] + [rng.randint(e + 1, 3 * e) for _ in range(rng.randint(1, 3))]
        if not coprime(gens):
            continue
        H = NumericalSemigroup(gens)
        if H.genus > 20:
            continue
        out.append((sorted(set(gens)), H))
    return out


def test_random_semigroups_against_oracle():
    for raw, H in random_semigroups(500, seed=20260816):
        assert list(H.gaps) == oracle.bf_gaps(raw)
        assert list(H.generators) == oracle.bf_minimal_generators(raw)
        assert list(H.pseudo_frobenius) == oracle.bf_pseudo_frobenius(raw)
        bound = oracle.bf_bound(raw)
        table = oracle.bf_member_table(raw, 2 * bound)
        assert all(H.contains(n) == bool(table[n]) for n in range(0, 2 * bound, 7))
        assert list(canonical_ideal(H).generators) == oracle.bf_canonical_generators(raw)
        ords = oracle.bf_ord_table(raw, 2 * bound)
        for n in range(0, 2 * bound, 11):
            if table[n]:
                assert H.ord(n) == int(ords[n])
