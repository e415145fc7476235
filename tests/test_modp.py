import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from oracle import TruncatedSeries
from teter import PrecisionTooSmallError
from teter.modp import (
    DEFAULT_PRIME,
    SECOND_PRIME,
    RowSpace,
    is_prime,
    matmul_mod,
    rank_of,
)


def span_size(rows, p):
    """Count distinct vectors in the span by brute enumeration."""
    seen = set()
    for combo in itertools.product(range(p), repeat=len(rows)):
        v = np.zeros(rows.shape[1], dtype=np.int64)
        for c, row in zip(combo, rows):
            v = (v + c * row) % p
        seen.add(tuple(v))
    return len(seen)


def test_rank_matches_exhaustive_span():
    p = 5
    rng = np.random.default_rng(7)
    for _ in range(20):
        mat = rng.integers(0, p, size=(3, 4))
        r = rank_of(mat, p)
        assert span_size(mat, p) == p**r


def test_rowspace_basic():
    p = 7
    space = RowSpace(p, 4)
    assert space.dim == 0
    assert space.add_matrix(np.array([[1, 2, 3, 4], [2, 4, 6, 2], [0, 0, 0, 0]])) == 2
    assert space.dim == 2
    # re-adding anything already inside adds nothing
    assert space.add_matrix(np.array([[3, 6, 9, 12]])) == 0
    assert space.contains([1, 2, 3, 4])
    assert space.contains([0, 0, 0, 0])
    assert not space.contains([0, 0, 1, 0])
    residue = space.reduce_matrix(np.array([[1, 2, 3, 4]]))
    assert not residue.any()


def test_rowspace_reduce_is_idempotent():
    p = 13
    rng = np.random.default_rng(3)
    space = RowSpace(p, 6)
    space.add_matrix(rng.integers(0, p, size=(3, 6)))
    mat = rng.integers(0, p, size=(5, 6))
    once = space.reduce_matrix(mat)
    assert np.array_equal(space.reduce_matrix(once), once)


def test_rowspace_fills_up():
    p = 5
    space = RowSpace(p, 3)
    added = space.add_matrix(np.eye(3, dtype=np.int64))
    assert added == 3 and space.dim == 3
    rng = np.random.default_rng(0)
    assert space.add_matrix(rng.integers(0, p, size=(4, 3))) == 0


@st.composite
def block_sequences(draw):
    """A prime, a width and up to four blocks of at most 40 x 30.

    Entries lean on 0, 1 and p-1 so ranks drop often; every block also
    carries a zero row and repeats of rows offered before.
    """
    p = draw(st.sampled_from([3, 11, 32003, 65521]))
    width = draw(st.integers(1, 30))
    entry = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    row = st.lists(entry, min_size=width, max_size=width)
    seen = []
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        fresh = draw(st.lists(row, min_size=1, max_size=20))
        seen.extend(fresh)
        repeats = draw(st.lists(st.sampled_from(seen), max_size=19))
        block = draw(st.permutations(fresh + repeats + [[0] * width]))
        blocks.append(np.array(block, dtype=np.int64))
    return p, width, blocks


@given(block_sequences())
@settings(deadline=None, max_examples=80)
def test_add_matrix_matches_elimination_oracle(case):
    p, width, blocks = case
    space = RowSpace(p, width)
    offered = []
    for block in blocks:
        before = space.dim
        added = space.add_matrix(block)
        offered.extend(block.tolist())
        assert space.dim == oracle.bf_rank_mod_p(offered, p)
        assert added == space.dim - before
        assert np.array_equal(
            space.rows[:, space.pivots], np.eye(space.dim, dtype=np.int64)
        )
        assert not space.reduce_matrix(np.array(offered)).any()


@pytest.mark.parametrize("p", [DEFAULT_PRIME, SECOND_PRIME])
def test_matmul_mod_exact(p):
    rng = np.random.default_rng(11)
    a = rng.integers(0, p, size=(7, 40))
    b = rng.integers(0, p, size=(40, 9))
    assert np.array_equal(matmul_mod(a, b, p), (a @ b) % p)


def test_matmul_mod_skinny_shapes():
    p = DEFAULT_PRIME
    a = np.array([[p - 1]])
    b = np.array([[p - 1]])
    assert matmul_mod(a, b, p)[0, 0] == 1


def test_is_prime():
    assert is_prime(2)
    assert is_prime(DEFAULT_PRIME)
    assert is_prime(SECOND_PRIME)
    for n in (0, 1, 4, 9, 32001):
        assert not is_prime(n)


def test_series_monomial_and_add():
    p = 101
    x2 = TruncatedSeries.monomial(p, 10, 2)
    x5 = TruncatedSeries.monomial(p, 10, 5, coeff=3)
    s = x2 + x5
    assert s.coeffs[2] == 1 and s.coeffs[5] == 3
    assert s.top_exponent() == 5
    assert (s - s).is_zero()
    assert (-x2).coeffs[2] == p - 1
    assert x2.scale(4).coeffs[2] == 4


def test_series_multiplication_is_convolution():
    p = 97
    rng = np.random.default_rng(5)
    a = TruncatedSeries(p, 30, np.concatenate([rng.integers(0, p, 11), np.zeros(20)]))
    b = TruncatedSeries(p, 30, np.concatenate([rng.integers(0, p, 11), np.zeros(20)]))
    full = np.convolve(a.coeffs, b.coeffs) % p
    assert np.array_equal((a * b).coeffs, full[:31])


def test_series_refuses_overflowing_product():
    p = 101
    a = TruncatedSeries.monomial(p, 10, 6)
    with pytest.raises(PrecisionTooSmallError):
        a * a
    with pytest.raises(PrecisionTooSmallError):
        TruncatedSeries.monomial(p, 10, 11)


def test_series_zero_product_is_fine_at_any_top():
    p = 101
    a = TruncatedSeries.monomial(p, 10, 6)
    z = TruncatedSeries(p, 10)
    assert (a * z).is_zero()


def test_series_incompatible_arithmetic():
    a = TruncatedSeries.monomial(101, 10, 1)
    b = TruncatedSeries.monomial(103, 10, 1)
    with pytest.raises(ValueError):
        a + b
    c = TruncatedSeries.monomial(101, 11, 1)
    with pytest.raises(ValueError):
        a * c


def test_series_equality():
    a = TruncatedSeries.monomial(101, 10, 3)
    b = TruncatedSeries.monomial(101, 10, 3)
    assert a == b
    assert a != b + b
