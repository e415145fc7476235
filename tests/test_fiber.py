import inspect
import random
import time

import pytest

import numpy as np

from teter import (
    CrossCheckError,
    FiberProductRing,
    GorensteinInputError,
    NonStabilizedError,
    NoWitnessError,
    NumericalSemigroup,
    PrecisionTooSmallError,
    RelativeIdeal,
    build_approximation,
    teter_check,
    verify_approximation,
)
import teter.fiber
import teter.modp
from teter.classify import witness_shifts
from teter.fiber import default_precision
from teter.ideals import QuotientData, quotient_data
from teter.modp import DEFAULT_PRIME, SECOND_PRIME
from oracle import (
    TruncatedSeries,
    basis_pair,
    bf_frobenius,
    bf_symmetric,
    bf_teter_shifts,
    dense_power_space,
    dense_reduction,
    enumerate_semigroups,
    gen_matrices,
    kernel_profile,
    pair_spanning_products,
    union_find_ranks,
    width_graded_socle,
    width_socle,
)


@pytest.fixture(scope="module")
def ring345():
    return FiberProductRing(NumericalSemigroup([3, 4, 5]), 6)


@pytest.fixture(scope="module")
def ring4511():
    return FiberProductRing(NumericalSemigroup([4, 5, 11]), 11)


def test_construction_facts(ring345):
    assert (ring345.cyclic_generator, ring345.cyclic_length) == (3, 3)
    assert ring345.precision == default_precision(ring345.semigroup) == 40
    nt = ring345._nt
    assert ring345.width == nt + len(ring345._u[nt:])
    assert ring345._t[:5].tolist() == [0, 3, 4, 5, 6]
    assert ring345._u[nt] == 3
    # one basis generator per semigroup generator plus the first pure tail
    assert len(ring345.generator_indices) == 4


def test_construction_facts_other_shift():
    ring = FiberProductRing(NumericalSemigroup([3, 4, 5]), 5)
    assert (ring.cyclic_generator, ring.cyclic_length) == (5, 2)


def test_pairs_satisfy_the_matching_condition(ring345, ring4511):
    for ring in (ring345, ring4511):
        g, c = ring.cyclic_generator, ring.cyclic_length
        for i in range(ring.width):
            t_side, u_side = basis_pair(ring, i, DEFAULT_PRIME)
            for k in range(c):
                assert t_side.coeffs[k * g] == u_side.coeffs[k]


def exercise_products(ring, pairs):
    p, n = DEFAULT_PRIME, ring.precision
    tested = 0
    for i, j in pairs:
        ti, ui = basis_pair(ring, i, p)
        tj, uj = basis_pair(ring, j, p)
        if ti.top_exponent() + tj.top_exponent() > n:
            continue
        if ui.top_exponent() + uj.top_exponent() > n:
            continue
        want_t, want_u = ti * tj, ui * uj
        got_t = TruncatedSeries(p, n)
        got_u = TruncatedSeries(p, n)
        for k in ring.basis_product(i, j):
            bt, bu = basis_pair(ring, k, p)
            got_t, got_u = got_t + bt, got_u + bu
        assert got_t == want_t and got_u == want_u
        tested += 1
    return tested


@pytest.mark.parametrize("shift", [6, 5], ids=["e-equals-g", "e-below-g"])
def test_products_act_componentwise_exhaustive(shift):
    # at shift 6, g = e = 3 and c = 3; at shift 5, g = 5 > e and c = 2
    ring = FiberProductRing(NumericalSemigroup([3, 4, 5]), shift)
    w = ring.width
    pairs = [(i, j) for i in range(w) for j in range(i, w)]
    assert exercise_products(ring, pairs) > 1000


def test_products_act_componentwise_sampled(ring4511):
    rng = random.Random(42)
    w = ring4511.width
    pairs = [(rng.randrange(w), rng.randrange(w)) for _ in range(400)]
    assert exercise_products(ring4511, pairs) > 100


def test_hilbert_function(ring345, ring4511):
    assert ring345.hilbert_function(0) == 1
    assert tuple(ring345.hilbert_function(k) for k in range(8)) == (
        1, 4, 8, 12, 16, 20, 24, 28,
    )
    assert tuple(ring4511.hilbert_function(k) for k in range(8)) == (
        1, 4, 8, 13, 18, 23, 28, 33,
    )
    with pytest.raises(ValueError):
        ring345.hilbert_function(-1)
    # degree 8 needs exponents up to 45, past the cutoff at 40
    with pytest.raises(PrecisionTooSmallError):
        ring345.hilbert_function(8)


def test_multiplicity(ring345, ring4511):
    assert ring345.multiplicity() == 4
    assert ring4511.multiplicity() == 5


def test_multiplicity_takes_the_largest_difference():
    # differences 1,4,5,6,6,6,7,7,7: three equal differences (6) come
    # before the multiplicity 7, which the largest difference gives
    ring = FiberProductRing(NumericalSemigroup([6, 7, 15, 16]), 24)
    profile = [ring.hilbert_function(k) for k in range(9)]
    diffs = [b - a for a, b in zip([0] + profile, profile)]
    assert diffs == [1, 4, 5, 6, 6, 6, 7, 7, 7]
    assert ring.multiplicity() == 7
    cert = verify_approximation(NumericalSemigroup([6, 7, 15, 16]), 24)
    assert cert.multiplicity == 7
    assert cert.hilbert == (1, 5, 10, 16, 22, 28, 35, 42, 49)
    assert (cert.socle_dim, cert.graded_socle_dim) == (1, 2)


def test_multiplicity_never_reaching_the_quotient_length_raises(monkeypatch):
    # dropping the first row of yB frees its leading index, so l(B/yB)
    # reads 5, which the differences 1,3,4,4,... of <3,4,5> never reach
    rows_of_yb = FiberProductRing._rows_of_yb

    def short(self):
        index, free = rows_of_yb.func(self)
        return index[1:], np.union1d(free, index[:1, 0])

    monkeypatch.setattr(FiberProductRing, "_rows_of_yb", property(short))
    ring = FiberProductRing(NumericalSemigroup([3, 4, 5]), 6)
    with pytest.raises(NonStabilizedError, match=r"never reach l\(B/yB\) = 5"):
        ring.multiplicity()


def test_multiplicity_is_prime_free(monkeypatch):
    # e(B) is read from the matching-count ranks and the count of free
    # indices: no dense rank and no projection modulo a prime
    def modular(*args):
        raise AssertionError("multiplicity() read B modulo a prime")

    monkeypatch.setattr(teter.fiber, "rank_of", modular)
    monkeypatch.setattr(FiberProductRing, "_projection", modular)
    assert FiberProductRing(NumericalSemigroup([3, 4, 5]), 6).multiplicity() == 4


def test_kernel_profile(ring345):
    # the t-side kernel is a rank-one module over the series variable
    assert kernel_profile(ring345, 5, DEFAULT_PRIME) == [1, 2, 3, 4, 5]


def test_socle_of_reduction(ring345, ring4511):
    assert ring345.socle_of_reduction() == 1
    assert ring345.socle_of_reduction(SECOND_PRIME) == 1
    assert ring345.is_gorenstein()
    assert FiberProductRing(NumericalSemigroup([3, 4, 5]), 5).socle_of_reduction() == 1
    assert ring4511.socle_of_reduction() == 1


def test_graded_socle_of_reduction(ring345, ring4511):
    assert ring345.graded_socle_of_reduction() == 1
    assert FiberProductRing(NumericalSemigroup([3, 4, 5]), 5).graded_socle_of_reduction() == 1
    assert ring4511.graded_socle_of_reduction() == 2


def _witness_rings(max_genus):
    # (semigroup, shift) for every witness shift up to the genus
    for _, gens in enumerate_semigroups(max_genus):
        H = NumericalSemigroup(gens)
        if not H.is_gorenstein:
            for shift, _, _ in witness_shifts(H):
                yield H, shift


APPROXIMATE_RINGS = [
    ((3, 4, 5), 6),
    ((4, 5, 11), 11),
    ((5, 6, 13), 20),
    ((5, 6, 7, 8, 9), 10),
]


def test_hilbert_function_matches_the_dense_powers():
    # every power the certificate reads, against dense elimination: equal
    # dimensions, and the spanning products inside the dense span
    cases = list(_witness_rings(6))
    cases += [(NumericalSemigroup(list(g)), s) for g, s in APPROXIMATE_RINGS]
    runs = 0
    for H, shift in cases:
        ring = FiberProductRing(H, shift)
        for p in (DEFAULT_PRIME, SECOND_PRIME):
            power = None
            for k in range(ring.precision // max(H.generators)):
                power = dense_power_space(ring, p, power)
                assert ring.hilbert_function(k) == ring.width - power.dim
                # pairs of (t-index, u-index), -1 for none: the last column
                products = ring._products[k]
                mat = np.zeros((len(products), ring.width + 1), dtype=np.int64)
                mat[np.arange(len(products))[:, None], products] = 1
                assert not power.reduce_matrix(mat[:, :-1]).any(), (H, shift, p, k)
            runs += 1
    assert runs == 2 * len(cases) == 2 * (40 + 4)


def _with_t_index_in_u_column(ring, i, table):
    # products with both indices get their t-index in the u column too
    both = (table >= 0).all(axis=1)
    table[both, 1] = table[both, 0]
    return table


def _with_u_index_in_t_column(ring, i, table):
    # products with a u-index get it in the t column too
    table[table[:, 1] >= 0, 0] = table[table[:, 1] >= 0, 1]
    return table


def _with_tail_rows_in_t(ring, i, table):
    # a member's products with the pure tails get the t-index 0
    nt = ring._nt
    tails = np.flatnonzero(table[:, 1] >= 0)
    if i < nt:
        table[tails[tails >= nt], 0] = 0
    return table


def _with_tail_table_in_t(ring, i, table):
    # a pure tail's products with the members get the t-index 0
    nt = ring._nt
    tails = np.flatnonzero(table[:, 1] >= 0)
    if i >= nt:
        table[tails[tails < nt], 0] = 0
    return table


def _with_clashing_u_parts(ring, i, table):
    # the product of b_i with the t-part of each of b_i's own products
    # (t^a, u^j) gets the u-index of z_N: each row is still a bimonomial
    # and the mixed products of the first power still a matching, but a
    # spanning product of power 2 adds the rows of both parts of a
    # (t^a, u^j), and their u-indices clash
    mixed = table[(table >= 0).all(axis=1), 0]
    table[mixed, 1] = ring.width - 1
    return table


def _with_shared_t_index(ring, i, table):
    # outside y's tables, the products with the t-index of b_g's mixed
    # product (t^(cg), u^c) get the u-index of z_N: two mixed products of
    # the first power share a t-index
    if i not in ring._parameter():
        shared = ring._index[ring.cyclic_length * ring.cyclic_generator]
        table[table[:, 0] == shared, 1] = ring.width - 1
    return table


WRONG_COLUMN = r"basis\[\d+\] is not a bimonomial"
PURE_TAIL = "pure tail has a t-index"

BROKEN_TABLES = {
    # an index in the other side's column
    "t-index-in-u-column": (_with_t_index_in_u_column, WRONG_COLUMN),
    "u-index-in-t-column": (_with_u_index_in_t_column, WRONG_COLUMN),
    # products of a pure tail get a t-index, in a member's table or in
    # the tail's own
    "clashing-parts": (_with_tail_rows_in_t, PURE_TAIL),
    "clashing-tail-table": (_with_tail_table_in_t, PURE_TAIL),
    "clashing-u-parts": (_with_clashing_u_parts, "power 2 is not a bimonomial"),
    # two mixed products of a power share an index
    "shared-t-index": (_with_shared_t_index, "power 1 are not a matching"),
}


@pytest.mark.parametrize("fault", sorted(BROKEN_TABLES))
def test_non_bimonomial_product_raises(monkeypatch, fault):
    # each fault breaks one check of the tables, which names it
    corrupt, message = BROKEN_TABLES[fault]
    product_tables = FiberProductRing._product_tables

    def broken(self, rows):
        tables = product_tables(self, rows)
        for i, table in zip(rows, tables):
            corrupt(self, i, table)
        return tables

    monkeypatch.setattr(FiberProductRing, "_product_tables", broken)
    ring = FiberProductRing(NumericalSemigroup([3, 4, 5]), 6)
    with pytest.raises(CrossCheckError, match=message):
        ring.multiplicity()


def test_sum_of_members_outside_the_lookup_raises():
    # the lookup array loses the member 7 = 3 + 4
    ring = FiberProductRing(NumericalSemigroup([3, 4, 5]), 6)
    ring._index[7] = -1
    with pytest.raises(CrossCheckError, match="sum of two members is not a member"):
        ring.multiplicity()


def test_quotient_basis_outside_the_window_raises(monkeypatch):
    # a quotient basis reaching the member 41, past N = 40 on <3,4,5>
    monkeypatch.setattr(
        teter.fiber, "quotient_data", lambda H, I: QuotientData((0, 41), 1, 41, 2)
    )
    with pytest.raises(CrossCheckError, match="escapes the precision window"):
        FiberProductRing(NumericalSemigroup([3, 4, 5]), 6)


@pytest.mark.parametrize("cobasis", [(0, 2), (0, -3)], ids=["gap", "negative"])
def test_quotient_basis_off_the_members_raises(monkeypatch, cobasis):
    # a quotient basis inside [0, N] = [0, 40] but holding the gap 2 of
    # <3,4,5>, or reaching below 0, where a lookup would wrap around
    monkeypatch.setattr(
        teter.fiber, "quotient_data", lambda H, I: QuotientData(cobasis, 1, 2, 2)
    )
    with pytest.raises(CrossCheckError, match="escapes the precision window"):
        FiberProductRing(NumericalSemigroup([3, 4, 5]), 6)


def test_generator_and_parameter_tables_match_the_series_products():
    # every row of the tables the library reads, the generators' and the
    # parameter's, against the products of the oracle's series pairs,
    # truncated at N: the span of the basis elements past N is an ideal,
    # so the model multiplies as its two sides truncated at N.  Every
    # witness shift of genus <= 6 and the four benchmark rings, both with
    # e = g and with e < g
    cases = list(_witness_rings(6))
    cases += [(NumericalSemigroup(list(g)), s) for g, s in APPROXIMATE_RINGS]
    p, kinds = DEFAULT_PRIME, set()
    for H, shift in cases:
        ring = FiberProductRing(H, shift)
        n = ring.precision
        # the two sides of each basis element, and zeros for the index -1
        sides = np.zeros((ring.width + 1, 2, n + 1), dtype=np.int64)
        for j in range(ring.width):
            t_side, u_side = basis_pair(ring, j, p)
            sides[j] = t_side.coeffs, u_side.coeffs
        for i in set(ring.generator_indices) | set(ring._parameter()):
            table = ring._table(i)[:-1]
            got = sides[table[:, 0]] + sides[table[:, 1]]
            want = [
                [np.convolve(sides[i, s], sides[j, s])[: n + 1] for s in (0, 1)]
                for j in range(ring.width)
            ]
            assert np.array_equal(got % p, np.array(want) % p), (H, shift, i)
        kinds.add(H.multiplicity == ring.cyclic_generator)
    assert len(cases) == 40 + 4 and kinds == {True, False}


def test_matching_count_matches_the_union_find():
    # every power hilbert_function can read, of every witness ring of
    # genus <= 9 and the four benchmark rings: the matching count against
    # a spanning forest of the products of the previous power's forest,
    # the length it gives against the semigroup's closed form, and the
    # spanning products against the oracle's one-gather kernel
    cases = list(_witness_rings(9))
    cases += [(NumericalSemigroup(list(g)), s) for g, s in APPROXIMATE_RINGS]
    powers = 0
    for H, shift in cases:
        ring = FiberProductRing(H, shift)
        top = ring.precision // max(H.generators)
        got = [ring._power_rank(k) for k in range(1, top + 1)]
        assert got == union_find_ranks(ring, top), (H, shift)
        g, c = ring.cyclic_generator, ring.cyclic_length
        assert [ring.width - rank for rank in got] == [
            teter.fiber._closed_form_length(H, g, c, k) for k in range(1, top + 1)
        ], (H, shift)
        assert all(
            np.array_equal(ring._products[k - 1], pair_spanning_products(ring, k))
            for k in range(1, top + 1)
        ), (H, shift)
        powers += top
    assert len(cases) == 4 + 131 and powers == 1151


@pytest.mark.parametrize(
    "gens, ideal",
    [([3, 4, 5], [4, 5, 6]), ([4, 5, 11], [5, 8, 11]), ([5, 6, 13], [6, 10, 13])],
)
def test_closed_form_counts_the_last_mixed_product(gens, ideal):
    # the term [K + c - 1 in X_K] is 0 at every K once cg lies in the
    # ideal of the other generators, as it does at all 913 witness shifts
    # of genus <= 15; here J = (others, cg) and cg does not, so the term
    # is 1 at K = 1, and a ring of J's cyclic quotient pins it
    H = NumericalSemigroup(gens)
    quotient = quotient_data(H, RelativeIdeal.from_generators(H, ideal))
    g, c = quotient.cyclic_generator, quotient.cyclic_length
    assert c == 2 and all(c * g - n not in H for n in H.generators if n != g)
    ring = FiberProductRing(H, None, _quotient=quotient)
    top = ring.precision // max(H.generators)
    got = [ring._power_rank(k) for k in range(1, top + 1)]
    assert got == union_find_ranks(ring, top)
    assert [ring.width - rank for rank in got] == [
        teter.fiber._closed_form_length(H, g, c, k) for k in range(1, top + 1)
    ]


def test_power_rank_mismatch_raises(monkeypatch):
    # the width model's side of hilbert_function's check off by one
    power_rank = FiberProductRing._power_rank
    monkeypatch.setattr(
        FiberProductRing, "_power_rank", lambda self, k: power_rank(self, k) + 1
    )
    with pytest.raises(
        CrossCheckError,
        match=r"l\(B/n\^1\) is 0 by the matching count but 1 by the semigroup",
    ):
        verify_approximation(NumericalSemigroup([3, 4, 5]), 6)


def test_closed_form_mismatch_raises(monkeypatch):
    # the semigroup's side off by one
    closed = teter.fiber._closed_form_length
    monkeypatch.setattr(
        teter.fiber, "_closed_form_length", lambda *args: closed(*args) + 1
    )
    with pytest.raises(
        CrossCheckError,
        match=r"l\(B/n\^1\) is 1 by the matching count but 2 by the semigroup",
    ):
        verify_approximation(NumericalSemigroup([3, 4, 5]), 6)


@pytest.mark.parametrize(
    "primes",
    [(DEFAULT_PRIME, SECOND_PRIME), (2, 3, 5)],
    ids=["default-primes", "three-primes"],
)
def test_power_rank_checked_once_per_precision_and_prime(monkeypatch, primes):
    # per verify of <3,4,5>: the closed form checks the power rank once
    # per (ring, degree) multiplicity() reads, degrees 0, 1, 2 (differences
    # 1, 3, 4 = l(B/yB)) at each precision, and not once more per prime,
    # since no prime enters the lengths
    calls = []
    closed = teter.fiber._closed_form_length
    read = FiberProductRing.hilbert_function

    def counting(self, k):
        calls.append(("read", self.precision, k))
        return read(self, k)

    def counted(semigroup, g, c, k):
        calls.append(("closed", k))
        return closed(semigroup, g, c, k)

    monkeypatch.setattr(FiberProductRing, "hilbert_function", counting)
    monkeypatch.setattr(teter.fiber, "_closed_form_length", counted)
    cert = verify_approximation(NumericalSemigroup([3, 4, 5]), 6, primes=primes)
    assert calls == [
        call
        for n in cert.precisions_checked
        for k in range(3)
        for call in (("read", n, k), ("closed", k + 1))
    ]


def test_spanning_products_built_once_per_precision_and_power(monkeypatch):
    spanned = []
    spanning_products = FiberProductRing._spanning_products

    def counting(self, k):
        spanned.append((self.precision, k))
        return spanning_products(self, k)

    monkeypatch.setattr(FiberProductRing, "_spanning_products", counting)
    cert = verify_approximation(NumericalSemigroup([5, 6, 13]), 20)
    assert cert.multiplicity == 6
    assert len(spanned) == len(set(spanned))
    assert {n for n, _ in spanned} == set(cert.precisions_checked)


def test_multiplicity_makes_no_dense_products(monkeypatch):
    calls = []
    matmul_mod = teter.modp.matmul_mod

    def counting_matmul_mod(a, b, p):
        calls.append(np.shape(a))
        return matmul_mod(a, b, p)

    for module in (teter.fiber, teter.modp):
        monkeypatch.setattr(module, "matmul_mod", counting_matmul_mod)
    ring = FiberProductRing(NumericalSemigroup([4, 5, 11]), 11)
    assert ring.multiplicity() == 5
    assert calls == []


def test_graded_socle_makes_one_product_and_one_elimination_per_degree(monkeypatch):
    # each degree k multiplies P_k by the actions stacked side by side
    # once, and offers all the products to the fresh P_(k+1) at once
    ring = FiberProductRing(NumericalSemigroup([4, 5, 11]), 11)
    q, gens = ring.multiplicity(), len(ring.generator_indices)
    products, offered = [], []
    matmul_mod, add_matrix = teter.fiber.matmul_mod, teter.modp.RowSpace.add_matrix

    def counting_matmul_mod(a, b, p):
        products.append((np.shape(a), np.shape(b)))
        return matmul_mod(a, b, p)

    def counting_add_matrix(self, mat):
        offered.append(np.shape(mat))
        return add_matrix(self, mat)

    ring.socle_of_reduction()
    monkeypatch.setattr(teter.fiber, "matmul_mod", counting_matmul_mod)
    monkeypatch.setattr(teter.modp.RowSpace, "add_matrix", counting_add_matrix)
    assert ring.graded_socle_of_reduction() == 2
    degrees = len(products)
    assert degrees >= 2 and all(b == (q, gens * q) for _, b in products)
    # P_0 = B/yB is the identity, never eliminated; then one block per
    # degree, and per degree one rank of the conditions
    assert products[0][0] == (q, q)
    assert [rows for rows, _ in offered[:degrees]] == [a[0] * gens for a, _ in products]
    assert len(offered) == 2 * degrees


def test_socles_match_the_width_dimensional_reference():
    # every witness shift of every semigroup of genus <= 5, at both primes
    runs = 0
    for H, shift in _witness_rings(5):
        ring = FiberProductRing(H, shift)
        for p in (DEFAULT_PRIME, SECOND_PRIME):
            got = (ring.socle_of_reduction(p), ring.graded_socle_of_reduction(p))
            want = (width_socle(ring, p), width_graded_socle(ring, p))
            assert got == want, (H, shift, p)
            runs += 1
    assert runs == 40


def test_socles_stay_inside_the_reduction(monkeypatch):
    # once multiplicity() has certified e(B) with a parameter y, both
    # socles work in B/yB, of dimension e(B): no row space and no product
    # is wider or taller than that
    ring = FiberProductRing(NumericalSemigroup([4, 5, 11]), 11)
    q = ring.multiplicity()
    widths, heights = [], []

    class RecordingRowSpace(teter.modp.RowSpace):
        def __init__(self, p, width):
            widths.append(width)
            super().__init__(p, width)

    matmul_mod = teter.modp.matmul_mod

    def recording_matmul_mod(a, b, p):
        heights.append(len(a))
        return matmul_mod(a, b, p)

    for module in (teter.fiber, teter.modp):
        monkeypatch.setattr(module, "RowSpace", RecordingRowSpace)
        monkeypatch.setattr(module, "matmul_mod", recording_matmul_mod)
    assert ring.socle_of_reduction() == 1
    assert ring.graded_socle_of_reduction() == 2
    assert widths and max(widths) <= q == 5 < ring.width
    assert heights and max(heights) <= q


def test_reduction_matches_dense_elimination():
    # every witness shift of genus <= 6 and the four benchmark rings, at
    # the smallest primes and the default ones: l(B/yB) and the free
    # indices are the rank and the non-pivot columns of the dense y*B, for
    # the y the oracle builds itself, and the residues of the integer
    # actions on B/yB are the dense residues of the generator matrices
    cases = list(_witness_rings(6))
    cases += [(NumericalSemigroup(list(g)), s) for g, s in APPROXIMATE_RINGS]
    runs = 0
    for H, shift in cases:
        ring = FiberProductRing(H, shift)
        free = ring._rows_of_yb[1]
        for p in (2, 3, DEFAULT_PRIME, SECOND_PRIME):
            span = dense_reduction(ring, p)
            assert len(free) == ring.width - span.dim
            dense_free = np.setdiff1d(np.arange(ring.width), span.pivots)
            assert np.array_equal(free, dense_free), (H, shift, p)
            want = [span.reduce_matrix(m[free])[:, free] for m in gen_matrices(ring)]
            got = ring._quotient_actions % p
            assert np.array_equal(got, np.hstack(want)), (H, shift, p)
            runs += 1
    assert runs == 4 * len(cases) == 4 * (40 + 4)


def test_rows_of_yb_with_one_leading_index_raise(monkeypatch):
    # every product table repeats its row for b_0 as the row for b_1, so
    # the rows y*b_0 and y*b_1 of yB coincide
    product_tables = FiberProductRing._product_tables

    def doubled(self, rows):
        tables = product_tables(self, rows)
        tables[:, 1] = tables[:, 0]
        return tables

    monkeypatch.setattr(FiberProductRing, "_product_tables", doubled)
    ring = FiberProductRing(NumericalSemigroup([3, 4, 5]), 6)
    with pytest.raises(CrossCheckError, match="lead at one index"):
        ring.multiplicity()


def test_rows_of_yb_with_a_repeated_index_raise(monkeypatch):
    # y = b_4 + b_11 on <4,5,11> at shift 11; the product table of b_11 is
    # built as b_4's, so every row of yB holds its indices twice
    product_tables = FiberProductRing._product_tables
    H = NumericalSemigroup([4, 5, 11])
    ring = FiberProductRing(H, 11)
    assert [ring._t[i] for i in ring._parameter()] == [4, 11]
    b4, b11 = ring._parameter()

    def doubled(self, rows):
        return product_tables(self, [b4 if i == b11 else i for i in rows])

    monkeypatch.setattr(FiberProductRing, "_product_tables", doubled)
    ring = FiberProductRing(H, 11)
    with pytest.raises(CrossCheckError, match="a row of yB repeats an index"):
        ring.multiplicity()


PROJECTION_FAULTS = {
    # a leading index of yB no longer maps to minus its row's other indices
    "leading": "misses a row of yB",
    # a free index no longer maps to its own basis vector of B/yB
    "free": "moves a free index",
}


@pytest.mark.parametrize("where", sorted(PROJECTION_FAULTS))
def test_corrupted_projection_raises(monkeypatch, where):
    projection = FiberProductRing._projection

    def corrupted(self, index, free):
        proj = projection(self, index, free)
        row = index[0, 0] if where == "leading" else free[-1]
        proj[row, 0] += 1
        return proj

    monkeypatch.setattr(FiberProductRing, "_projection", corrupted)
    ring = FiberProductRing(NumericalSemigroup([4, 5, 11]), 11)
    with pytest.raises(CrossCheckError, match=PROJECTION_FAULTS[where]):
        ring.socle_of_reduction()


def test_projection_image_outside_the_signed_units_raises(monkeypatch):
    # y = b_4 + b_11 on <4,5,11> at shift 11, so a row of yB has three
    # indices besides its leading one; with all three set to one free
    # index, the sweep writes -3 times its basis vector
    rows_of_yb = FiberProductRing._rows_of_yb

    def repeated(self):
        index, free = rows_of_yb.func(self)
        index[0, 1:] = free[0]
        return index, free

    monkeypatch.setattr(FiberProductRing, "_rows_of_yb", property(repeated))
    ring = FiberProductRing(NumericalSemigroup([4, 5, 11]), 11)
    assert ring._generator_tables.shape[2] * len(ring._parameter()) == 4
    with pytest.raises(CrossCheckError, match=r"leaves \{-1, 0, 1\}"):
        ring.socle_of_reduction()


def test_maximal_ideal_acting_as_the_identity_raises(monkeypatch):
    # generators acting on B/yB as the identity never shrink its powers
    actions = FiberProductRing._quotient_actions

    def identities(self):
        got = actions.func(self)
        return np.tile(np.eye(len(got), dtype=np.int64), len(self.generator_indices))

    monkeypatch.setattr(FiberProductRing, "_quotient_actions", property(identities))
    ring = FiberProductRing(NumericalSemigroup([4, 5, 11]), 11)
    with pytest.raises(CrossCheckError, match="not nilpotent"):
        ring.graded_socle_of_reduction()


def test_sweep_disagreeing_with_itself_raises(monkeypatch):
    # the socle reads one more at the second prime than at the first
    socle = FiberProductRing.socle_of_reduction
    monkeypatch.setattr(
        FiberProductRing,
        "socle_of_reduction",
        lambda self, prime: socle(self, prime) + (prime == SECOND_PRIME),
    )
    with pytest.raises(CrossCheckError, match="disagrees with itself"):
        verify_approximation(NumericalSemigroup([3, 4, 5]), 6)


def test_precisions_disagreeing_on_the_reduction_raise(monkeypatch):
    # the second precision's B/yB has every structure constant negated:
    # the same e(B), Hilbert profile and socles, but other integer actions
    actions = FiberProductRing._quotient_actions

    def negated_at_the_second_precision(self):
        got = actions.func(self)
        return -got if self.precision > default_precision(self.semigroup) else got

    monkeypatch.setattr(
        FiberProductRing, "_quotient_actions", property(negated_at_the_second_precision)
    )
    with pytest.raises(CrossCheckError, match="precision sweep disagrees with itself"):
        verify_approximation(NumericalSemigroup([3, 4, 5]), 6)


def test_reduction_built_once_per_ring_and_socles_once_per_prime(monkeypatch):
    # per verify: one projection onto B/yB per ring, each socle once per
    # prime
    calls = []

    def counting(name):
        real = getattr(FiberProductRing, name)

        def counted(self, *args):
            prime = None if name == "_projection" else args[-1]
            calls.append((name, self.precision, prime))
            return real(self, *args)

        monkeypatch.setattr(FiberProductRing, name, counted)

    names = [
        "_projection",
        "socle_of_reduction",
        "graded_socle_of_reduction",
    ]
    for name in names:
        counting(name)
    cert = verify_approximation(NumericalSemigroup([4, 5, 11]), 11)
    counts = {name: sum(call[0] == name for call in calls) for name in names}
    assert counts == {
        "_projection": 2,
        "socle_of_reduction": 2,
        "graded_socle_of_reduction": 2,
    }
    assert len(calls) == len(set(calls))
    assert {c[1] for c in calls if c[0] == "_projection"} == set(cert.precisions_checked)


def test_multiplicity_off_the_semigroup_prediction_raises(monkeypatch):
    # both rings read one more than the model gives, e(B) = 5 for <3,4,5>,
    # so the sweep agrees with itself but not with e + 1 = 4
    multiplicity = FiberProductRing.multiplicity
    monkeypatch.setattr(
        FiberProductRing, "multiplicity", lambda self: multiplicity(self) + 1
    )
    with pytest.raises(CrossCheckError, match="multiplicity 5, semigroup predicts 4"):
        verify_approximation(NumericalSemigroup([3, 4, 5]), 6)


def test_prime_free_tables_are_built_once_per_precision(monkeypatch):
    # one ring at the requested precision and one at the larger one, each
    # building the generators' product tables in one stack, read at both
    # primes, and none calling the pair rule
    built = []
    product_tables = FiberProductRing._product_tables

    def counting(self, rows):
        built.append((self.precision, tuple(rows)))
        return product_tables(self, rows)

    def pair_rule(self, i, j):
        raise AssertionError("the library called basis_product")

    H = NumericalSemigroup([4, 5, 11])
    rings = [FiberProductRing(H, 11, precision=n) for n in (88, 110)]
    monkeypatch.setattr(FiberProductRing, "_product_tables", counting)
    monkeypatch.setattr(FiberProductRing, "basis_product", pair_rule)
    cert = verify_approximation(H, 11)
    assert cert.precisions_checked == (88, 110)
    assert built == [(ring.precision, ring.generator_indices) for ring in rings]


@pytest.mark.parametrize("precision, built", [(None, [40, 50]), (291, [291, 301])])
def test_verify_builds_one_ring_per_precision(monkeypatch, precision, built):
    # the floor's width and the sweep's are refused from the quotient
    # length alone, without a ring at the floor beside the two it checks
    built_at = []
    init = FiberProductRing.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built_at.append(self.precision)

    monkeypatch.setattr(FiberProductRing, "__init__", counting)
    cert = verify_approximation(NumericalSemigroup([3, 4, 5]), 6, precision=precision)
    assert built_at == built == list(cert.precisions_checked)


def test_verify_reads_the_witness_quotient_once(monkeypatch):
    # verify_approximation hands the quotient it checked to both rings;
    # a ring built directly still checks its own, and takes no quotient
    # from its caller
    calls = []
    quotient_data = teter.fiber.quotient_data

    def counting(H, J):
        calls.append(J.generators)
        return quotient_data(H, J)

    monkeypatch.setattr(teter.fiber, "quotient_data", counting)
    H = NumericalSemigroup([3, 4, 5])
    verify_approximation(H, 6)
    assert len(calls) == 1
    calls.clear()
    FiberProductRing(H, 6)
    assert len(calls) == 1
    with pytest.raises(NoWitnessError):
        FiberProductRing(H, 4)
    public = inspect.signature(FiberProductRing).parameters
    assert [p for p in public if not p.startswith("_")] == [
        "semigroup",
        "shift",
        "precision",
    ]
    data = teter.fiber._witness_quotient(H, 6)
    with pytest.raises(TypeError):
        FiberProductRing(H, 4, 40, data)
    with pytest.raises(TypeError):
        FiberProductRing(H, 4, quotient=data)


def test_rejects_gorenstein_base():
    with pytest.raises(GorensteinInputError):
        FiberProductRing(NumericalSemigroup([3, 4]), 6)


def test_witness_shifts_have_length_two_and_stay_below_max_plus_frobenius():
    # what the model rests on: every shift of omega giving a proper ideal
    # with cyclic quotient, over a window three times the scanned one, has
    # a quotient of length c >= 2 and is at most max + F (so the wider
    # window finds no shift past the scanned one)
    shifts = 0
    for _, gens in enumerate_semigroups(9):
        if bf_symmetric(gens):
            continue
        top = max(gens) + bf_frobenius(gens)
        for s, cobasis in bf_teter_shifts(gens, 3):
            assert len(cobasis) >= 2 and s <= top, (gens, s)
            shifts += 1
    assert shifts == 131


def test_quotient_equal_to_the_residue_field_is_refused(monkeypatch):
    # a J equal to the maximal ideal (mu = 0, c = 1) never comes from a
    # shift of omega; the model refuses it instead of building a c = 1 ring
    monkeypatch.setattr(
        teter.fiber, "quotient_data", lambda H, I: QuotientData((0,), 0, None, 1)
    )
    with pytest.raises(NoWitnessError, match="needs 0 generators"):
        FiberProductRing(NumericalSemigroup([3, 4, 5]), 6)


def test_rejects_bad_shifts():
    H = NumericalSemigroup([3, 4, 5])
    with pytest.raises(NoWitnessError):
        FiberProductRing(H, 2)  # not proper
    with pytest.raises(NoWitnessError):
        FiberProductRing(H, 7)  # proper but not cyclic


def test_rejects_bad_precision_and_modulus():
    H = NumericalSemigroup([3, 4, 5])
    with pytest.raises(PrecisionTooSmallError):
        FiberProductRing(H, 6, precision=20)
    with pytest.raises(ValueError, match="not prime"):
        FiberProductRing(H, 6).socle_of_reduction(10)


def test_build_approximation_is_the_ring():
    ring = build_approximation(NumericalSemigroup([3, 4, 5]), 6)
    assert isinstance(ring, FiberProductRing)
    assert ring.shift == 6


def test_verify_approximation_certificate():
    H = NumericalSemigroup([3, 4, 5])
    cert = verify_approximation(H, 6)
    assert cert.shift == 6
    assert cert.multiplicity == 4
    assert cert.gorenstein and cert.socle_dim == 1
    assert cert.graded_socle_dim == 1
    assert cert.hilbert == (1, 4, 8, 12, 16, 20, 24, 28)
    assert cert.precision == 40
    assert cert.precisions_checked == (40, 50)
    assert cert.primes == (32003, 65521)
    assert cert.status == "numerically-verified"
    assert cert == verify_approximation(H, 6)


def test_verify_approximation_argument_checks():
    H = NumericalSemigroup([3, 4, 5])
    with pytest.raises(ValueError):
        verify_approximation(H, 6, primes=(4, 65521))
    with pytest.raises(ValueError):
        verify_approximation(H, 6, primes=(32003,))
    with pytest.raises(ValueError):
        verify_approximation(H, 6, primes=(32003, 32003))


def test_oversized_modulus_refused_before_primality(monkeypatch):
    def no_trial_division(n):
        raise AssertionError("is_prime(%d) ran for an oversized modulus" % n)

    monkeypatch.setattr("teter.modp.is_prime", no_trial_division)
    H = NumericalSemigroup([3, 4, 5])
    ring = FiberProductRing(H, 6)
    for p in (2**16, 2**31 - 1):
        with pytest.raises(ValueError, match="2\\^16"):
            ring.socle_of_reduction(p)
    with pytest.raises(ValueError, match="2\\^16"):
        verify_approximation(H, 6, primes=(2305843009213693951, 65521))


@pytest.mark.parametrize(
    "gens, shift, hilbert",
    [
        ((5, 6, 13), 20, (1, 4, 8, 13, 18, 24, 30, 36, 42)),
        ((5, 6, 7, 8, 9), 10, (1, 6, 12, 18, 24, 30, 36, 42)),
    ],
)
def test_verify_approximation_wider_rings(gens, shift, hilbert):
    cert = verify_approximation(NumericalSemigroup(list(gens)), shift)
    assert cert.hilbert == hilbert
    assert cert.multiplicity == 6
    assert cert.socle_dim == 1 and cert.gorenstein
    assert cert.graded_socle_dim == 1


def test_power_spaces_shrink(ring345):
    dims = [ring345.width - ring345.hilbert_function(k) for k in range(6)]
    assert dims == sorted(dims, reverse=True)


def test_every_genus_13_witness_reaches_the_multiplicity():
    # at the default precision, the Hilbert differences reach l(B/yB) =
    # e + 1 at the reported shift of every Teter semigroup of genus <= 13;
    # the budget holds with headroom on a slow 2-core machine
    start = time.perf_counter()
    rings = 0
    for _, gens in enumerate_semigroups(13):
        H = NumericalSemigroup(gens)
        report = teter_check(H)
        if report.witness is None:
            continue
        ring = FiberProductRing(H, report.witness.shift)
        assert ring.multiplicity() == H.multiplicity + 1, gens
        # y has the value (e, 1): its least exponents on the two branches
        pairs = [basis_pair(ring, i, DEFAULT_PRIME) for i in ring._parameter()]
        t_side = np.flatnonzero(sum(t.coeffs for t, _ in pairs) % DEFAULT_PRIME)
        u_side = np.flatnonzero(sum(u.coeffs for _, u in pairs) % DEFAULT_PRIME)
        assert (t_side[0], u_side[0]) == (H.multiplicity, 1), gens
        # B/yB over Z has structure constants in {-1, 0, 1}
        assert np.isin(ring._quotient_actions, (-1, 0, 1)).all(), gens
        rings += 1
    elapsed = time.perf_counter() - start
    assert rings == 426
    assert elapsed < 30.0, "multiplicity sweep took %.1fs" % elapsed


def test_every_genus_15_witness_reaches_e_plus_one_by_the_closed_form():
    # no model at all: on every witness shift of genus <= 15 the Hilbert
    # differences of B, read off the closed form, reach l(B/yB) = e + 1
    # and never exceed it, as a Cohen-Macaulay B of multiplicity e + 1 needs
    shifts = 0
    for _, gens in enumerate_semigroups(15):
        H = NumericalSemigroup(gens)
        if H.is_gorenstein:
            continue
        for shift, _, data in witness_shifts(H):
            g, c, e = data.cyclic_generator, data.cyclic_length, H.multiplicity
            diffs, length = [], 0
            while not diffs or diffs[-1] != e + 1:
                assert len(diffs) < 4 * (e + c), (gens, shift)
                new = teter.fiber._closed_form_length(H, g, c, len(diffs) + 1)
                diffs.append(new - length)
                length = new
            assert max(diffs) == e + 1, (gens, shift, diffs)
            shifts += 1
    assert shifts == 913


def test_every_small_genus_witness_verifies():
    # all 211 Teter semigroups of genus <= 11, at the reported shift; the
    # budget holds with headroom on a slow 2-core machine
    start = time.perf_counter()
    verified = 0
    for _, gens in enumerate_semigroups(11):
        H = NumericalSemigroup(gens)
        report = teter_check(H)
        if report.witness is None:
            continue
        cert = verify_approximation(H, report.witness.shift)
        assert cert.multiplicity == H.multiplicity + 1, gens
        assert cert.socle_dim == 1 and cert.gorenstein, gens
        verified += 1
    elapsed = time.perf_counter() - start
    assert verified == 211
    assert elapsed < 60.0, "census verification took %.1fs" % elapsed
