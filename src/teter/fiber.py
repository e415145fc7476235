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

The lengths are combinatorial too.  Every power of the maximal ideal
is spanned by bimonomials (t^a or 0, u^j or 0): in the basis, vectors
with at most one t-index and one u-index, both coefficients 1.  Their
rank is a union-find count on a bipartite graph, the same over every
field.  The superficial parameter y has the value (e, 1), the least on
each branch of the normalization k[[t]] x k[[u]], so yB is a reduction
of the maximal ideal.  y is b_g when e = g and b_e + b_g otherwise, the
rows of yB are 0/1 and lead at distinct basis indices, again over every
field, so B/yB needs no elimination either: the other indices are its
basis, and l(B/yB) is their count.  The multiplicity e(B) is certified
by the first Hilbert difference equal to l(B/yB).

So one FiberProductRing is the model of B at one precision, over every
field.  Only the steps that work modulo a prime take the prime as an
argument: a sweep over the rows of yB projects every basis element onto
the free indices, the socle and the graded socle are computed in B/yB,
of dimension e(B), and a sparse elimination over F_p of the spanning
products of a power cross-checks its union-find rank.
verify_approximation runs them at two primes and two precisions; the
sweep either agrees with itself (and with the semigroup-side
multiplicity) or raises.
"""

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
    sparse_rank,
)


# Widest model a FiberProductRing builds.  The product tables, the
# union-find of each power and the sparse rank check all grow linearly
# with the width, and the Python loops of the last two dominate (widths
# 579 and 599, `analyze 3,4,5 --approximate --precision 291`: 0.02 s in
# verify_approximation, 0.01 s once warm, about 70% of it in the
# union-find and the rank check under cProfile; 31 MB peak for the whole
# command on a 2-core x86-64 VM).
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
    matrix acting on row vectors.  The methods that read B/yB modulo a
    prime take it as ``prime``.
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

        self.t_exponents = tuple(semigroup.members_up_to(precision))
        self.u_exponents = tuple(range(quotient.cyclic_length, precision + 1))
        nt, tails = len(self.t_exponents), len(self.u_exponents)
        self.width = nt + tails
        # the exponent pairs of the basis, -1 for a zero side, and the
        # index of each member up to N (-1 for a gap); the tail z_j is at
        # index nt + j - c
        cobasis = np.array(quotient.cobasis, dtype=np.int64)
        if not np.isin(cobasis, self.t_exponents).all():
            raise CrossCheckError("quotient basis escapes the precision window")
        self._t = np.array(self.t_exponents + (-1,) * tails, dtype=np.int64)
        self._u = np.array((-1,) * nt + self.u_exponents, dtype=np.int64)
        self._index = np.full(precision + 1, -1, dtype=np.int64)
        self._index[self._t[:nt]] = np.arange(nt)
        self._u[self._index[cobasis]] = cobasis // g

        self._tables = {}
        self._powers = []
        self._products = []
        self._rows = None
        self._actions = {}
        self.hilbert_differences = None

    # -- basis combinatorics ------------------------------------------------

    def basis_product(self, i, j):
        """Indices of basis[i] * basis[j], every coefficient 1: row j of
        basis[i]'s product table, without its -1s."""
        return [int(x) for x in self._table(i)[j] if x >= 0]

    def _product_table(self, i):
        # row j: the t-index and the u-index of basis[i] * basis[j], -1
        # where there is none.  A last row of -1s lets -1 index "none".
        # The exponent pairs add side by side: the member a + b and the
        # tail v + w in [c, N], where both exist.
        t, u, n, c = self._t, self._u, self.precision, self.cyclic_length
        table = np.full((self.width + 1, 2), -1, dtype=np.int64)
        a, v = t[i] + t, u[i] + u
        rows = np.flatnonzero((t[i] >= 0) & (t >= 0) & (a <= n))
        table[rows, 0] = self._index[a[rows]]
        if (table[rows, 0] < 0).any():
            raise CrossCheckError("a sum of two members is not a member")
        rows = np.flatnonzero((u[i] >= 0) & (u >= 0) & (c <= v) & (v <= n))
        table[rows, 1] = len(self.t_exponents) + v[rows] - c
        return table

    def _table(self, i):
        # basis[i]'s product table, built once per ring and checked: the
        # t column holds only t-indices, the u column only u-indices, and
        # a product with a pure tail (0, u^j) has no t-index
        table = self._tables.get(i)
        if table is None:
            nt, table = len(self.t_exponents), self._product_table(i)
            t_col, u_col = table[:-1].T
            if (t_col >= nt).any() or ((0 <= u_col) & (u_col < nt)).any():
                raise CrossCheckError("a product of basis[%d] is not a bimonomial" % i)
            if ((t_col >= 0) & ((self._t < 0) | (self._t[i] < 0))).any():
                raise CrossCheckError("a product with a pure tail has a t-index")
            self._tables[i] = table
        return table

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
        return tuple(t_part) + (len(self.t_exponents),)

    # -- lengths ------------------------------------------------------------

    def _spanning_products(self, k):
        # the products v * g, v in the basis of the (k-1)-st power (of B
        # itself for k = 1) and g a generator, span the k-th power.  Each
        # is a bimonomial (t^a or 0, u^j or 0), stored as its t-index and
        # u-index (-1 for none); it is the sum of the products of v's two
        # parts with g, which must not both have a t-index or a u-index.
        prev = self._powers[k - 2] if k > 1 else None
        out = []
        for g in self.generator_indices:
            table = self._table(g)
            if prev is None:
                out.append(table[:-1])
                continue
            t_part, u_part = table[prev[:, 0]], table[prev[:, 1]]
            if ((t_part >= 0) & (u_part >= 0)).any():
                raise CrossCheckError("a product in power %d is not a bimonomial" % k)
            out.append(np.maximum(t_part, u_part))
        # distinct nonzero products, each pair coded as one integer
        base = self.width + 1
        codes = np.unique(np.vstack(out) @ np.array([base, 1]) + base + 1)
        codes = codes[codes > 0]
        return np.stack([codes // base, codes % base], axis=1) - 1

    def _power_basis(self, k):
        # bimonomial basis of the k-th power of the maximal ideal, k >= 1.
        # Each pair is an edge between its t-index and its u-index, -1
        # standing for a ground vertex.  Negating the u-coordinates turns
        # the vectors into the columns of an oriented incidence matrix
        # with the ground row deleted, so a set of them is independent
        # over every field exactly when its edges form a forest: a
        # union-find keeps a spanning forest.  The spanning products are
        # kept beside the basis for the rank check.
        while len(self._powers) < k:
            parent = {}

            def root(x):
                while x in parent:
                    up = parent[x]
                    if up in parent:
                        parent[x] = parent[up]
                    x = up
                return x

            products = self._spanning_products(len(self._powers) + 1).tolist()
            basis = []
            for t, u in products:
                a, b = root(t), root(u)
                if a != b:
                    parent[a] = b
                    basis.append((t, u))
            self._products.append(products)
            self._powers.append(np.array(basis, dtype=np.int64).reshape(-1, 2))
        return self._powers[k - 1]

    def _check_power_rank(self, k, prime):
        # a sparse elimination over F_prime of the k-th power's spanning
        # products, each the row {t-index: 1, u-index: 1} without the -1,
        # must agree with the union-find rank
        combinatorial = len(self._power_basis(k))
        rows = ({x: 1 for x in pair if x >= 0} for pair in self._products[k - 1])
        modular = sparse_rank(rows, prime)
        if modular != combinatorial:
            raise CrossCheckError(
                "power %d has rank %d over F_%d but %d by union-find"
                % (k, modular, prime, combinatorial)
            )

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
        return self.width - len(self._power_basis(k + 1))

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
        q = len(self._rows_of_yb()[1])
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
        return np.unique(self._index[[e, g]]).tolist()

    def _rows_of_yb(self):
        # the rows y*b_j of yB, as sorted basis indices padded with width:
        # each is the union of the product-table rows of y's terms, every
        # coefficient 1.  The nonzero rows must lead (least index) at
        # distinct indices: then they are independent over every field,
        # and the other indices, the free ones, number l(B/yB).
        if self._rows is None:
            w = self.width
            index = np.hstack([self._table(i)[:-1] for i in self._parameter()])
            index = np.sort(np.where(index < 0, w, index), axis=1)
            if ((index[:, 1:] == index[:, :-1]) & (index[:, 1:] < w)).any():
                raise CrossCheckError("a row of yB repeats an index")
            index = index[index[:, 0] < w]
            lead = index[:, 0]
            if len(np.unique(lead)) < len(lead):
                raise CrossCheckError("two rows of yB lead at one index")
            self._rows = index, np.setdiff1d(np.arange(w), lead)
        return self._rows

    def _reduction(self, prime):
        # B/yB over F_prime: the free indices and the projection onto them
        index, free = self._rows_of_yb()
        proj = self._projection(index, free, prime)
        # proj is onto (the identity on the free indices) and kills yB,
        # so rank(yB) <= width - q; the distinct leading indices give >=
        if not np.array_equal(proj[free], np.eye(len(free), dtype=np.int64)):
            raise CrossCheckError("the projection onto B/yB moves a free index")
        if (proj[index].sum(axis=1) % prime).any():
            raise CrossCheckError("the projection onto B/yB misses a row of yB")
        return free, proj

    def _projection(self, index, free, prime):
        # row j: the image of b_j in B/yB, in the basis of the free
        # indices; the last row, for the padding index, is zero.  Each row
        # of yB writes its leading index as minus the sum of its others,
        # so a sweep over all rows at once finishes every index whose
        # row's other indices were finished; sweeps stop at the fixed
        # point, one more than the longest chain of leading indices.
        proj = np.zeros((self.width + 1, len(free)), dtype=np.int64)
        proj[free, np.arange(len(free))] = 1
        lead, rest = index[:, 0], index[:, 1:]
        while True:
            new = -proj[rest].sum(axis=1) % prime
            if np.array_equal(new, proj[lead]):
                return proj
            proj[lead] = new

    def _quotient_actions(self, prime):
        # the free indices are a basis of B/yB, e(B) of them once
        # multiplicity() has certified it; generator g acts on it over
        # F_prime by the e(B) x e(B) matrix of the images of its products
        # with them
        actions = self._actions.get(prime)
        if actions is None:
            check_modulus(prime)
            self.multiplicity()
            free, proj = self._reduction(prime)
            actions = self._actions[prime] = [
                (proj[table[free, 0]] + proj[table[free, 1]]) % prime
                for table in map(self._table, self.generator_indices)
            ]
        return actions

    def socle_of_reduction(self, prime=DEFAULT_PRIME):
        """Dimension of the socle of B/yB over F_prime.

        y is the superficial parameter; the socle is computed in B/yB as
        the common kernel of the generators' actions.
        """
        actions = self._quotient_actions(prime)
        return len(actions[0]) - rank_of(np.hstack(actions).T, prime)

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
        actions = self._quotient_actions(prime)
        p, q = prime, len(actions[0])
        spaces = [RowSpace(p, q)]
        spaces[0].add_matrix(np.eye(q, dtype=np.int64))
        # products[k] holds the rows of P_k times each generator
        products = []
        while spaces[-1].dim:
            products.append([matmul_mod(spaces[-1].rows, a, p) for a in actions])
            nxt = RowSpace(p, q)
            for prod in products[-1]:
                nxt.add_matrix(prod)
            if nxt.dim == spaces[-1].dim:
                raise CrossCheckError("the maximal ideal of B/yB is not nilpotent")
            spaces.append(nxt)
        top = len(products)

        total = 0
        for k in range(top):
            target = spaces[min(k + 2, top)]
            cond = np.hstack([target.reduce_matrix(prod) for prod in products[k]])
            total += spaces[k].dim - rank_of(cond.T, p) - spaces[k + 1].dim
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
    model of B each, read at least two distinct primes; all runs must
    report identical lengths, and the stable multiplicity must exceed
    the semigroup's by exactly one.  Any disagreement raises instead of
    returning.
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
        for p in primes:
            ring._check_power_rank(len(diffs), p)
            soc = ring.socle_of_reduction(p)
            graded = ring.graded_socle_of_reduction(p)
            runs.append((e_b, profile, soc, graded))

    if any(run != runs[0] for run in runs[1:]):
        raise CrossCheckError(
            "precision/modulus sweep disagrees with itself: %r" % (runs,)
        )
    e_b, profile, soc, graded = runs[0]
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
