"""Truncated model of the fiber product attached to a witness ideal.

Let A = k[[t^h : h in H]] be the monomial ring of a numerical semigroup
and J a proper monomial ideal whose quotient A/J is cyclic, with
monomial basis t^0, t^g, ..., t^((c-1)g).  The pullback of the two
surjections A -> A/J <- k[[u]] (u mapped to the class of t^g) is a
complete local ring B of dimension one.  Its elements are pairs (f, q)
agreeing in A/J, which pins the coefficient of u^i in q to the
coefficient of t^(ig) in f for 0 <= i < c.  For J a shift of omega,
c >= 2: shifts keep I - I and omega - omega = H, but F is in M - M, so
J is never M.

B has a monomial-like k-basis, each element stored as its exponent pair,
its values on the branches k[[t]] and k[[u]] (-1 for a zero side):
b_h = (t^h, u^(h/g)), pair (h, h/g), for h = 0, g, ..., (c-1)g; b_h =
(t^h, 0), pair (h, -1), for the other members h; z_j = (0, u^j), pair
(-1, j), for j >= c.  A product adds the pairs side by side: it is the
member of exponent a + b plus the tail of exponent v + w >= c (when
v + w < c, the member a + b = (v + w)g carries that u-part), so the
whole ring is combinatorial.  The model keeps every exponent up to a
precision N; the span of the basis elements above N is an ideal, hence
the model is an honest quotient ring, and lengths computed below a
precision-dependent degree bound are the true lengths in B.

The lengths are combinatorial too.  The maximal ideal is generated by
b_g = (t^g, u), z_c = (0, u^c) and the b_n = (t^n, 0) for the other
generators n, so a basis element times k generators is (t^a, 0),
(0, u^j) or b_(ig) b_g^k = (t^(mg), u^m), m = i + k: in the basis, a
pure vector (one index) or, for m >= c and mg <= N, a mixed one (a
t-index and a u-index), coefficients 1.  They span the k-th power,
and the mixed ones form a matching (checked): a t-index fixes m, hence
the u-index, and back.  With the u-coordinates negated they are the
columns of a graph's oriented incidence matrix, ground row deleted, a
pure vector being an edge to the ground.  A cycle leaves the ground
and, the mixed edges being a matching, comes back after one of them, so
the only cycles are the triangles of the mixed vectors whose two
indices are pure vectors too: over every field, a power's rank is the
count of its distinct products less the count of those triangles.  The
superficial parameter y has the value (e, 1), the least on each branch
of the normalization k[[t]] x k[[u]], so yB is a reduction of the
maximal ideal.  y is b_g when e = g and b_e + b_g otherwise, the rows
of yB are 0/1 and lead at distinct basis indices, again over every
field, so B/yB needs no elimination either: the other indices are its
basis, and l(B/yB) is their count.  The multiplicity e(B) is certified
by the first Hilbert difference equal to l(B/yB).

So one FiberProductRing is the model of B at one precision, over every
field, and B/yB is one integer object: a sweep over the rows of yB
projects every basis element onto the free indices over Z, each image a
signed monomial (checked), and the generators act on B/yB by the integer
matrices of those images, which only the socles reduce modulo a prime.
verify_approximation compares e(B), the Hilbert profile and the integer
B/yB at two precisions and the socles at the primes; the sweep either
agrees with itself (and with the semigroup-side multiplicity) or raises.

Counted per degree, the same products give the lengths from H, g and c
alone, and hilbert_function checks each length it returns against them.
Let a of ord >= K be h + s, s a sum of K minimal generators: in n^K, the
K-th power of the maximal ideal, b_h times s's product is the pure b_a
unless s = Kg and h = ig with i < c <= i + K = m, where it is the mixed
(t^(mg), u^m).  So the t-indices outside the pure products are the
l(A/m^K) members of ord < K and the mg for m in X_K, the m in
[max(K, c), K + c - 1] such that no minimal generator n != g has mg - n
in H of ord >= K - 1.  Only the K - 1 tails z_c, ..., z_(K+c-2) are
not pure, and each of the min(K, c) mixed products adds one to the
rank unless both its ends are pure (only m = K + c - 1 outside X_K):

    l(B/n^K) = l(A/m^K) + |X_K| + K - min(K, c) - [K + c - 1 in X_K],

with l(A/m^K) the sum of (a_K[i] - a_0[i]) / e, a_n the rows of
apery_table.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    CrossCheckError,
    GorensteinInputError,
    NonStabilizedError,
    NoWitnessError,
    PrecisionTooSmallError,
)
from .ideals import canonical_ideal, quotient_data
from .modp import (
    DEFAULT_PRIME,
    SECOND_PRIME,
    RowSpace,
    check_modulus,
    matmul_mod,
    rank_of,
)


# Widest model a FiberProductRing builds.  The product tables and the
# powers grow linearly with the width (widths 579 and 599, `analyze
# 3,4,5 --approximate --precision 291`: 0.006-0.008 s for the first call
# in a process, 0.002-0.003 s in verify_approximation once warm, 20% of
# it in the powers and 27% in the graded socle under cProfile; 31 MB
# peak for the whole command, 2-core x86-64 VM).
MAX_WIDTH = 600


def default_precision(semigroup):
    """Default exponent cutoff: generous enough for every length below."""
    return 4 * (
        semigroup.frobenius + semigroup.multiplicity + max(semigroup.generators)
    )


def _certified_degree(semigroup, precision):
    # the largest degree k with (k + 1) * max(generators) <= N: every
    # basis element past N lies in m^(k+1), so l(B/m^(k+1)) is exact
    return precision // max(semigroup.generators) - 1


def _closed_form_length(semigroup, g, c, k):
    # l(B/n^k), k >= 1, from H, the cyclic generator g and the length c
    # of A/J alone, by the module docstring's closed form; apery_table's
    # row k is a_r + (k - r)e past its last row r
    e, table = semigroup.multiplicity, semigroup.apery_table
    r = len(table) - 1
    length_a = (sum(table[min(k, r)]) - sum(table[0])) // e + e * max(0, k - r)
    free = []
    for m in range(max(k, c), k + c):
        reach = [m * g - n for n in semigroup.generators if n != g]
        if not any(h in semigroup and semigroup.ord(h) >= k - 1 for h in reach):
            free.append(m)
    return length_a + len(free) + k - min(k, c) - (k + c - 1 in free)


def _check_width(semigroup, cyclic_length, floor, precision, sweep=0):
    # The model lists the members up to N > F and the tails c..N, so its
    # width 2(N + 1) - genus - c is known before anything is listed; a
    # verification sweep also builds the model at precision + sweep.
    top = (MAX_WIDTH - 2 + semigroup.genus + cyclic_length) // 2 - sweep
    if precision > top:
        hint = "the semigroup is too large to approximate"
        if floor <= top:
            hint = "use a precision of at most %d" % top
        raise ValueError(
            "precision %d needs a model wider than %d; %s"
            % (precision, MAX_WIDTH, hint)
        )


def _witness_quotient(semigroup, shift):
    """A/J for J = omega + shift, refused unless J is a proper ideal with
    a cyclic quotient on a non-Gorenstein ring."""
    if semigroup.is_gorenstein:
        raise GorensteinInputError(
            "the construction needs a non-Gorenstein base ring"
        )
    ideal = canonical_ideal(semigroup).shift(shift)
    if not ideal.is_proper_ideal():
        raise NoWitnessError(
            "shift %d does not give a proper monomial ideal" % shift
        )
    data = quotient_data(semigroup, ideal)
    if data.mu != 1:
        raise NoWitnessError(
            "quotient at shift %d needs %d generators, not one"
            % (shift, data.mu)
        )
    return data


class FiberProductRing:
    """The ring B truncated at a fixed precision, over every field.

    Vectors of length ``width`` are coordinates in the basis
    b_(h_0), b_(h_1), ... (members of H up to N, ascending) followed by
    z_c, z_(c+1), ..., z_N; the arrays ``_t`` and ``_u`` hold their
    exponent pairs.  Multiplication by a fixed element is a width x width
    matrix acting on row vectors.  The socles read B/yB modulo ``prime``.
    """

    def __init__(self, semigroup, shift, precision=None, *, _quotient=None):
        # _quotient is for this module only: verify_approximation passes
        # the _witness_quotient(semigroup, shift) it has already checked;
        # every other caller gets the checks here
        quotient = _quotient
        if quotient is None:
            quotient = _witness_quotient(semigroup, shift)
        # a valid shift is at most max + F (witness_shifts): 2(shift + max) < floor
        floor = default_precision(semigroup)
        if precision is None:
            precision = floor
        elif precision < floor:
            raise PrecisionTooSmallError(
                "precision %d is below the floor %d for this input"
                % (precision, floor)
            )
        _check_width(semigroup, quotient.cyclic_length, floor, precision)

        self.semigroup = semigroup
        self.shift = shift
        self.precision = precision
        self.cyclic_generator = g = quotient.cyclic_generator
        self.cyclic_length = quotient.cyclic_length

        # the exponent pairs of the basis, -1 for a zero side, and the
        # index of each member up to N (-1 for a gap); the tail z_j is at
        # index nt + j - c
        members = np.array(semigroup.members_up_to(precision), dtype=np.int64)
        tails = np.arange(quotient.cyclic_length, precision + 1, dtype=np.int64)
        self._nt = nt = len(members)
        self.width = nt + len(tails)
        self._t = np.concatenate([members, np.full(len(tails), -1)])
        self._u = np.concatenate([np.full(nt, -1), tails])
        self._index = np.full(precision + 1, -1, dtype=np.int64)
        self._index[members] = np.arange(nt)
        # the quotient basis must be members up to N: looked up only once
        # it lies inside [0, N]
        cobasis = np.array(quotient.cobasis, dtype=np.int64)
        inside = min(quotient.cobasis) >= 0 and max(quotient.cobasis) <= precision
        if not inside or (self._index[cobasis] < 0).any():
            raise CrossCheckError("quotient basis escapes the precision window")
        self._u[self._index[cobasis]] = cobasis // g

        self._products = []
        self._ranks = []
        self.hilbert_differences = None

    # -- basis combinatorics ------------------------------------------------

    def basis_product(self, i, j):
        """Indices of basis[i] * basis[j], every coefficient 1: row j of
        basis[i]'s product table, without its -1s."""
        return [int(x) for x in self._table(i)[j] if x >= 0]

    def _product_tables(self, rows):
        # table r, row j: the t- and u-index of basis[rows[r]] * basis[j],
        # -1 for none, and a last row of -1s lets -1 index "none".  Pairs
        # add side by side: the member a + b, the tail v + w in [c, N].
        t, u, n, c = self._t, self._u, self.precision, self.cyclic_length
        ti, ui = t[rows, None], u[rows, None]
        a, v = ti + t, ui + u
        has_t = (ti >= 0) & (t >= 0) & (a <= n)
        t_index = np.where(has_t, self._index[np.clip(a, 0, n)], -1)
        if (has_t & (t_index < 0)).any():
            raise CrossCheckError("a sum of two members is not a member")
        has_u = (ui >= 0) & (u >= 0) & (c <= v) & (v <= n)
        tables = np.full((len(rows), self.width + 1, 2), -1, dtype=np.int64)
        tables[:, :-1, 0] = t_index
        tables[:, :-1, 1] = np.where(has_u, self._nt + v - c, -1)
        return tables

    def _tables(self, rows):
        # the product tables of basis[rows], checked: the t columns hold
        # only t-indices, the u columns only u-indices, and a product with
        # a pure tail (0, u^j) has no t-index
        nt, tables = self._nt, self._product_tables(rows)
        t_col, u_col = tables[:, :-1, 0], tables[:, :-1, 1]
        wrong = (t_col >= nt) | ((0 <= u_col) & (u_col < nt))
        if wrong.any():
            raise CrossCheckError(
                "a product of basis[%d] is not a bimonomial"
                % rows[wrong.any(axis=1).argmax()]
            )
        if ((t_col >= 0) & ((self._t < 0) | (self._t[rows, None] < 0))).any():
            raise CrossCheckError("a product with a pure tail has a t-index")
        return tables

    def _table(self, i):
        # basis[i]'s table alone, for the pair rule and the dense matrices
        return self._tables([i])[0]

    @functools.cached_property
    def _generator_tables(self):
        # the generators' product tables, stacked in generator_indices order
        return self._tables(list(self.generator_indices))

    def mult_matrix(self, vec):
        """Multiplication by the element with integer coordinate row vec.

        The integer matrix, unreduced: reduce it modulo p to act over F_p.
        Each term scatters the two columns of its product table.
        """
        w = self.width
        out = np.zeros((w, w + 1), dtype=np.int64)
        for i in np.flatnonzero(vec):
            out[np.arange(w)[:, None], self._table(i)[:-1]] += int(vec[i])
        return np.ascontiguousarray(out[:, :-1])

    @property
    def generator_indices(self):
        """Basis indices generating the maximal ideal."""
        t_part = self._index[list(self.semigroup.generators)].tolist()
        return tuple(t_part) + (self._nt,)

    # -- lengths ------------------------------------------------------------

    def _spanning_products(self, k):
        # the products v * g, v a spanning product of the (k-1)-st power
        # (a basis element for k = 1) and g a generator, span the k-th
        # power.  Each is a (t-index, u-index) pair, -1 for none: the sum
        # of v's two parts times g, which must not both have a t- or u-index.
        tables = self._generator_tables
        if k == 1:
            out = tables[:, :-1]
        else:
            previous = self._products[k - 2]
            t_part = np.take(tables, previous[:, 0], axis=1)
            u_part = np.take(tables, previous[:, 1], axis=1)
            if np.minimum(t_part, u_part).max(initial=-1) >= 0:
                raise CrossCheckError("a product in power %d is not a bimonomial" % k)
            out = np.maximum(t_part, u_part)
        # distinct nonzero products: each pair coded as one integer, the
        # codes sorted and kept where they differ from their left
        # neighbour; the pair (-1, -1) has the least code
        base = self.width + 1
        codes = (out[..., 0] * base + out[..., 1]).ravel()
        codes.sort()
        keep = np.empty(len(codes), dtype=bool)
        keep[:1] = codes[:1] > -base - 1
        np.not_equal(codes[1:], codes[:-1], out=keep[1:])
        codes = codes[keep] + (base + 1)
        products = np.empty((len(codes), 2), dtype=np.int64)
        np.floor_divide(codes, base, out=products[:, 0])
        np.remainder(codes, base, out=products[:, 1])
        products -= 1
        return products

    def _power_rank(self, k):
        # rank of the k-th power, k >= 1, by the count of the module
        # docstring; its spanning products are kept for the next power
        while len(self._ranks) < k:
            power = len(self._ranks) + 1
            products = self._spanning_products(power)
            self._products.append(products)
            t, u = products[:, 0], products[:, 1]
            mixed = (t >= 0) & (u >= 0)
            ends = products[mixed]
            if np.bincount(ends.ravel()).max(initial=0) > 1:
                raise CrossCheckError(
                    "the mixed products of power %d are not a matching" % power
                )
            # a pure product's one index is t + u + 1
            pure = np.zeros(self.width, dtype=bool)
            pure[(t + u + 1)[~mixed]] = True
            triangles = np.count_nonzero(pure[ends[:, 0]] & pure[ends[:, 1]])
            self._ranks.append(len(products) - triangles)
        return self._ranks[k - 1]

    def hilbert_function(self, k):
        """Length of B modulo the (k+1)-st power of the maximal ideal.

        Exact as long as every truncated basis element lies inside that
        power, which the degree guard below enforces.
        """
        if k < 0:
            raise ValueError("k must be nonnegative")
        if k > _certified_degree(self.semigroup, self.precision):
            raise PrecisionTooSmallError(
                "degree %d exceeds what precision %d certifies" % (k, self.precision)
            )
        length = self.width - self._power_rank(k + 1)
        g, c = self.cyclic_generator, self.cyclic_length
        closed = _closed_form_length(self.semigroup, g, c, k + 1)
        if length != closed:
            raise CrossCheckError(
                "l(B/n^%d) is %d by the matching count but %d by the semigroup"
                % (k + 1, length, closed)
            )
        return length

    def multiplicity(self):
        """e(B), certified by one Hilbert difference equal to l(B/yB).

        B is Cohen-Macaulay of dimension one, so for a parameter y every
        difference h(k) = l(m^k/m^(k+1)) is at most l(m^k/ym^k) = l(B/yB),
        with equality exactly when m^(k+1) = y m^k.  That holds for every
        k from the reduction number on, where h(k) = e(B).  So the first
        difference equal to l(B/yB) certifies e(B) = l(B/yB), and every
        later difference equals it.  l(B/yB) is the number of free indices
        of yB, over every field; the differences are read up to the degree
        the precision certifies, kept as ``hilbert_differences``, and this
        raises when none reaches it.
        """
        if self.hilbert_differences is not None:
            return self.hilbert_differences[-1]
        q = len(self._rows_of_yb[1])
        diffs = []
        for k in range(_certified_degree(self.semigroup, self.precision) + 1):
            diffs.append(self.hilbert_function(k) - sum(diffs))
            if diffs[-1] == q:
                self.hilbert_differences = tuple(diffs)
                return q
        raise NonStabilizedError(
            "Hilbert differences %r never reach l(B/yB) = %d; raise the precision"
            % (diffs, q)
        )

    # -- reduction by a superficial parameter --------------------------------

    def _parameter(self):
        # basis indices of the superficial parameter y, every coefficient
        # 1: b_g = (t^g, u) when e = g, else b_e + b_g (e is in the
        # quotient basis 0, g, ..., (c-1)g only as g).  Its value (e, 1)
        # is the least on each branch of the normalization, so yB is a
        # reduction of m.
        e, g = self.semigroup.multiplicity, self.cyclic_generator
        return sorted({int(self._index[e]), int(self._index[g])})

    @functools.cached_property
    def _rows_of_yb(self):
        # the rows y*b_j of yB, as sorted basis indices padded with width:
        # each is the union of the product-table rows of y's terms (both
        # generators), every coefficient 1.  The nonzero rows must lead
        # (least index) at distinct indices: then they are independent over
        # every field, and the other indices, the free ones, number l(B/yB).
        w, generators = self.width, self.generator_indices
        terms = [generators.index(i) for i in self._parameter()]
        index = np.hstack(self._generator_tables[terms, :-1])
        index = np.sort(np.where(index < 0, w, index), axis=1)
        if ((index[:, 1:] == index[:, :-1]) & (index[:, 1:] < w)).any():
            raise CrossCheckError("a row of yB repeats an index")
        index = index[index[:, 0] < w]
        leads = np.bincount(index[:, 0], minlength=w)
        if (leads > 1).any():
            raise CrossCheckError("two rows of yB lead at one index")
        return index, np.flatnonzero(leads == 0)

    def _projection(self, index, free):
        # row j: the image of b_j in B/yB over Z, in the basis of the free
        # indices; the last row, for the padding index, is zero.  Each row
        # of yB writes its leading index as minus the sum of its others,
        # so a sweep over all rows at once finishes every index whose
        # row's other indices were finished; sweeps stop at the fixed
        # point, one more than the longest chain of leading indices.  An
        # entry outside {-1, 0, 1} stops it before int64 could overflow.
        proj = np.zeros((self.width + 1, len(free)), dtype=np.int64)
        proj[free, np.arange(len(free))] = 1
        lead, rest = index[:, 0], index[:, 1:].T
        while True:
            new = -proj[rest].sum(axis=0)
            if (np.abs(new) > 1).any():
                raise CrossCheckError("an image in B/yB leaves {-1, 0, 1}")
            if np.array_equal(new, proj[lead]):
                return proj
            proj[lead] = new

    @functools.cached_property
    def _quotient_actions(self):
        # B/yB over Z: the free indices are its basis, e(B) of them once
        # multiplicity() has certified it; generator g acts by the integer
        # matrix of the images of its products with them; the actions
        # stand side by side, in generator order
        self.multiplicity()
        index, free = self._rows_of_yb
        proj = self._projection(index, free)
        # proj is onto (the identity on the free indices) and kills yB,
        # so rank(yB) <= width - q; the distinct leading indices give >=
        if not np.array_equal(proj[free], np.eye(len(free), dtype=np.int64)):
            raise CrossCheckError("the projection onto B/yB moves a free index")
        if proj[index.T].sum(axis=0).any():
            raise CrossCheckError("the projection onto B/yB misses a row of yB")
        tables = self._generator_tables[:, free]
        actions = proj[tables[..., 0]] + proj[tables[..., 1]]
        return actions.transpose(1, 0, 2).reshape(len(free), -1)

    def socle_of_reduction(self, prime=DEFAULT_PRIME):
        """Dimension of the socle of B/yB over F_prime.

        y is the superficial parameter; the socle is computed in B/yB as
        the common kernel of the generators' actions.
        """
        check_modulus(prime)
        actions = self._quotient_actions % prime
        return len(actions) - rank_of(actions.T, prime)

    def is_gorenstein(self, prime=DEFAULT_PRIME):
        """Whether B/yB over F_prime has a one-dimensional socle."""
        return self.socle_of_reduction(prime) == 1

    def graded_socle_of_reduction(self, prime=DEFAULT_PRIME):
        """Total socle dimension of the associated graded ring of B/yB.

        Over F_prime, computed inside B/yB with the powers P_k of its
        maximal ideal; a degree-k class is socle exactly when every
        generator pushes it into P_(k+2), so degree k adds
        dim{x in P_k : xg in P_(k+2) for all g} - dim P_(k+1).
        """
        check_modulus(prime)
        actions = self._quotient_actions % prime
        p, q = prime, len(actions)
        # spaces[k] is P_k for k >= 1 (P_0 = B/yB has the identity for rows),
        # products[k] the rows of P_k times each generator, side by side
        rows, spaces, products = np.eye(q, dtype=np.int64), [None], []
        while len(rows):
            products.append(matmul_mod(rows, actions, p))
            nxt = RowSpace(p, q)
            nxt.add_matrix(products[-1].reshape(-1, q))
            if nxt.dim == len(rows):
                raise CrossCheckError("the maximal ideal of B/yB is not nilpotent")
            spaces.append(nxt)
            rows = nxt.rows
        top = len(products)

        total = 0
        for k in range(top):
            target = spaces[min(k + 2, top)]
            blocks = products[k].reshape(len(products[k]), -1, q).swapaxes(0, 1)
            cond = np.hstack([target.reduce_matrix(prod) for prod in blocks])
            total += len(products[k]) - rank_of(cond.T, p) - spaces[k + 1].dim
        return total


def build_approximation(semigroup, shift, precision=None):
    """Validated constructor; see FiberProductRing."""
    return FiberProductRing(semigroup, shift, precision=precision)


def check_primes(primes):
    """The moduli of a verification sweep: at least two distinct primes."""
    primes = tuple(primes)
    if len(primes) < 2 or len(set(primes)) != len(primes):
        raise ValueError("need at least two distinct moduli")
    for p in primes:
        check_modulus(p)
    return primes


@dataclass(frozen=True)
class ApproximationCertificate:
    shift: int
    multiplicity: int
    gorenstein: bool
    socle_dim: int
    graded_socle_dim: int
    hilbert: tuple
    precision: int
    precisions_checked: tuple
    primes: tuple
    status: str


def verify_approximation(
    semigroup,
    shift,
    precision=None,
    primes=(DEFAULT_PRIME, SECOND_PRIME),
):
    """Run the model at two precisions and every prime, and compare.

    Two precisions (the requested one and a strictly larger one), one
    model of B each, must give the same e(B), Hilbert profile and integer
    B/yB, every length read checked against the semigroup's closed form;
    its socles, read once at each of at least two distinct primes, must
    agree, and e(B) must exceed the semigroup's multiplicity by exactly
    one.  Any disagreement raises instead of returning.
    """
    primes = check_primes(primes)
    step = 2 * max(semigroup.generators)
    # the quotient length sizes both models: the floor's is refused first,
    # then the sweep's larger precision, before any ring is built
    quotient = _witness_quotient(semigroup, shift)
    c = quotient.cyclic_length
    floor = default_precision(semigroup)
    _check_width(semigroup, c, floor, floor)
    n0 = floor if precision is None else precision
    _check_width(semigroup, c, floor, n0, step)
    top = _certified_degree(semigroup, n0)

    runs = []
    for n in (n0, n0 + step):
        ring = FiberProductRing(semigroup, shift, precision=n, _quotient=quotient)
        # e(B) and the Hilbert profile are the same over every field; every
        # difference from the one that certified e(B) on is e(B), and a
        # ring certifying past the top degree at n0 disagrees with n0's
        e_b = ring.multiplicity()
        diffs = ring.hilbert_differences
        profile = tuple(np.cumsum(diffs + (e_b,) * (top + 1 - len(diffs))).tolist())
        runs.append((e_b, profile, ring._quotient_actions.tolist()))
    if runs[0] != runs[1]:
        raise CrossCheckError(
            "precision sweep disagrees with itself: %r" % ([run[:2] for run in runs],)
        )
    # B/yB is the same integer object at both precisions, so its socles
    # are read once per prime
    socles = {}
    for p in primes:
        socles[p] = ring.socle_of_reduction(p), ring.graded_socle_of_reduction(p)
    if len(set(socles.values())) != 1:
        raise CrossCheckError("modulus sweep disagrees with itself: %r" % socles)
    soc, graded = socles[p]
    if e_b != semigroup.multiplicity + 1:
        raise CrossCheckError(
            "model multiplicity %d, semigroup predicts %d"
            % (e_b, semigroup.multiplicity + 1)
        )
    return ApproximationCertificate(
        shift=shift,
        multiplicity=e_b,
        gorenstein=(soc == 1),
        socle_dim=soc,
        graded_socle_dim=graded,
        hilbert=profile,
        precision=n0,
        precisions_checked=(n0, n0 + step),
        primes=primes,
        status="numerically-verified",
    )
