"""Truncated model of the fiber product attached to a witness ideal.

Let A = k[[t^h : h in H]] be the monomial ring of a numerical semigroup
and J a proper monomial ideal whose quotient A/J is cyclic, with
monomial basis t^0, t^g, ..., t^((c-1)g).  The pullback of the two
surjections A -> A/J <- k[[u]] (u mapped to the class of t^g) is a
complete local ring B of dimension one.  Its elements are pairs (f, q)
agreeing in A/J, which pins the coefficient of u^i in q to the
coefficient of t^(ig) in f for 0 <= i < c.

B has a monomial-like k-basis: pairs b_h = (t^h, u^(h/g) or 0) for h in
H, one for each member h, plus pure tails z_j = (0, u^j) for j >= c.
Products of basis elements are sums of at most two basis elements with
all coefficients equal to 1, so the whole ring is combinatorial.  The
model keeps every exponent up to a precision N; the span of the basis
elements above N is an ideal, hence the model is an honest quotient
ring, and lengths computed below a precision-dependent degree bound are
the true lengths in B.

The lengths are combinatorial too.  Every power of the maximal ideal
is spanned by bimonomials (t^a or 0, u^j or 0): in the basis, vectors
with at most one t-index and one u-index, both coefficients 1.  Their
rank is a union-find count on a bipartite graph, the same over every
field; one dense elimination per ring cross-checks it.  Only the
superficial parameter y needs dense linear algebra over the whole
model: the socle and the graded socle are computed in B/yB, of
dimension e(B).  The dense steps run over a small prime field, at two
primes and two precisions; the sweep either agrees with itself (and
with the semigroup-side multiplicity) or raises.
"""

import random
from dataclasses import dataclass

import numpy as np

from .errors import (
    CrossCheckError,
    GorensteinInputError,
    NonStabilizedError,
    NoWitnessError,
    ParameterNotRegularError,
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


# Widest model a FiberProductRing builds: the dense steps (y*B and the
# generator matrices) grow as width^2 in memory and width^3 in time
# (width 599, `analyze 3,4,5 --approximate --precision 291`: 0.6 s and
# 74 MB peak on a 2-core x86-64 VM).
MAX_WIDTH = 600


def default_precision(semigroup):
    """Default exponent cutoff: generous enough for every length below."""
    return 4 * (
        semigroup.frobenius + semigroup.multiplicity + max(semigroup.generators)
    )


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


class FiberProductRing:
    """The ring B truncated at a fixed precision, over F_p.

    Vectors of length ``width`` are coordinates in the basis
    b_(h_0), b_(h_1), ... (members of H up to N, ascending) followed by
    z_c, z_(c+1), ..., z_N.  Multiplication by a fixed element is a
    width x width matrix acting on row vectors.
    """

    def __init__(self, semigroup, shift, precision=None, prime=DEFAULT_PRIME):
        if semigroup.is_gorenstein:
            raise GorensteinInputError(
                "the construction needs a non-Gorenstein base ring"
            )
        check_modulus(prime)
        ideal = canonical_ideal(semigroup).shift(shift)
        if not ideal.is_proper_ideal():
            raise NoWitnessError(
                "shift %d does not give a proper monomial ideal" % shift
            )
        data = quotient_data(semigroup, ideal)
        if data.mu > 1:
            raise NoWitnessError(
                "quotient at shift %d needs %d generators, not cyclic"
                % (shift, data.mu)
            )
        floor = max(
            default_precision(semigroup),
            2 * (shift + max(semigroup.generators)),
        )
        if precision is None:
            precision = floor
        elif precision < floor:
            raise PrecisionTooSmallError(
                "precision %d is below the floor %d for this input"
                % (precision, floor)
            )
        _check_width(semigroup, data.cyclic_length, floor, precision)

        self.semigroup = semigroup
        self.shift = shift
        self.ideal = ideal
        self.prime = prime
        self.precision = precision
        self.cyclic_generator = data.cyclic_generator
        self.cyclic_length = data.cyclic_length

        self.t_exponents = tuple(semigroup.members_up_to(precision))
        self.u_exponents = tuple(range(data.cyclic_length, precision + 1))
        self.width = len(self.t_exponents) + len(self.u_exponents)
        self._t_index = {h: i for i, h in enumerate(self.t_exponents)}
        self._u_index = {
            j: len(self.t_exponents) + i for i, j in enumerate(self.u_exponents)
        }
        self._matched = frozenset(data.cobasis)
        if not self._matched <= set(self._t_index):
            raise CrossCheckError("quotient basis escapes the precision window")

        self._product_tables = {}
        self._basis_matrices = {}
        self._powers = []
        self._reductions = {}
        self._actions = {}
        self._multiplicity = None

    # -- basis combinatorics ------------------------------------------------

    def basis_product(self, i, j):
        """Indices of basis[i] * basis[j]; every coefficient is 1.

        At most two indices come back: the t-side exponent sum when it
        fits under the precision, and a pure tail whenever both factors
        carry a matched u-part whose exponents add up past the quotient.
        """
        nt = len(self.t_exponents)
        out = []
        if i >= nt and j >= nt:
            tot = self.u_exponents[i - nt] + self.u_exponents[j - nt]
            if tot <= self.precision:
                out.append(self._u_index[tot])
            return out
        if i >= nt:
            i, j = j, i
        if j >= nt:
            h = self.t_exponents[i]
            if h not in self._matched:
                return out
            part = h // self.cyclic_generator if h else 0
            tot = part + self.u_exponents[j - nt]
            if tot <= self.precision:
                out.append(self._u_index[tot])
            return out
        h, hp = self.t_exponents[i], self.t_exponents[j]
        tot = h + hp
        if tot <= self.precision:
            out.append(self._t_index[tot])
        if h in self._matched and hp in self._matched:
            part = tot // self.cyclic_generator if tot else 0
            if self.cyclic_length <= part <= self.precision:
                out.append(self._u_index[part])
        return out

    def _product_table(self, i):
        # row j: the t-index and the u-index of basis[i] * basis[j], -1
        # where there is none.  A last row of -1s lets -1 index "none".
        table = self._product_tables.get(i)
        if table is None:
            nt = len(self.t_exponents)
            table = np.full((self.width + 1, 2), -1, dtype=np.int64)
            for j in range(self.width):
                w = self.basis_product(i, j)
                if len(w) > 2 or len(w) == 2 and not w[0] < nt <= w[1]:
                    raise CrossCheckError("product %r is not a bimonomial" % (w,))
                for x in w:
                    table[j, int(x >= nt)] = x
            self._product_tables[i] = table
        return table

    def _dense(self, pairs):
        # 0/1 matrix whose rows are the (t-index, u-index) pairs
        mat = np.zeros((len(pairs), self.width + 1), dtype=np.int64)
        rows = np.arange(len(pairs))
        mat[rows, pairs[:, 0]] = 1
        mat[rows, pairs[:, 1]] = 1
        return np.ascontiguousarray(mat[:, :-1])

    def _basis_matrix(self, i):
        m = self._basis_matrices.get(i)
        if m is None:
            m = self._dense(self._product_table(i)[:-1])
            self._basis_matrices[i] = m
        return m

    def mult_matrix(self, vec):
        """Multiplication by the element with coordinate row vec."""
        out = np.zeros((self.width, self.width), dtype=np.int64)
        for i in np.nonzero(np.asarray(vec))[0]:
            out += int(vec[i]) * self._basis_matrix(int(i))
        return out % self.prime

    @property
    def generator_indices(self):
        """Basis indices generating the maximal ideal."""
        t_part = tuple(self._t_index[n] for n in self.semigroup.generators)
        return t_part + (self._u_index[self.cyclic_length],)

    @property
    def _gen_matrices(self):
        return [self._basis_matrix(i) for i in self.generator_indices]

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
            table = self._product_table(g)
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
        # union-find keeps a spanning forest.
        while len(self._powers) < k:
            parent = {}

            def root(x):
                while x in parent:
                    up = parent[x]
                    if up in parent:
                        parent[x] = parent[up]
                    x = up
                return x

            basis = []
            for t, u in self._spanning_products(len(self._powers) + 1).tolist():
                a, b = root(t), root(u)
                if a != b:
                    parent[a] = b
                    basis.append((t, u))
            self._powers.append(np.array(basis, dtype=np.int64).reshape(-1, 2))
        return self._powers[k - 1]

    def _check_power_rank(self, k):
        # one dense elimination over F_p of the k-th power's spanning
        # products must agree with the union-find rank
        mat = self._dense(self._spanning_products(k))
        # rank_of eliminates row by row: take the shorter side
        if len(mat) > self.width:
            mat = mat.T
        dense, combinatorial = rank_of(mat, self.prime), len(self._power_basis(k))
        if dense != combinatorial:
            raise CrossCheckError(
                "power %d has rank %d over F_%d but %d by union-find"
                % (k, dense, self.prime, combinatorial)
            )

    def hilbert_function(self, k):
        """Length of B modulo the (k+1)-st power of the maximal ideal.

        Exact as long as every truncated basis element lies inside that
        power, which the degree guard below enforces.
        """
        if k < 0:
            raise ValueError("k must be nonnegative")
        top = max(self.semigroup.generators)
        if (k + 1) * top > self.precision:
            raise PrecisionTooSmallError(
                "degree %d exceeds what precision %d certifies"
                % (k, self.precision)
            )
        return self.width - len(self._power_basis(k + 1))

    def multiplicity(self, max_k=None):
        """Largest first difference of the Hilbert function through the cap.

        B is Cohen-Macaulay of dimension one, so every difference
        l(m^k/m^(k+1)) is at most l(m^k/ym^k) = e(B), with equality from
        some degree on.  The largest difference is believed only when the
        last three differences reach it; otherwise this raises.
        ``_reduction`` then certifies it: l(B/yB) >= e(B) for every
        parameter y, so a y with l(B/yB) equal to the value exists only
        when the value is e(B).
        """
        if max_k is None and self._multiplicity is not None:
            return self._multiplicity
        cap = self.precision // max(self.semigroup.generators) - 1
        if max_k is not None:
            cap = min(cap, max_k)
        profile = [self.hilbert_function(k) for k in range(cap + 1)]
        self._check_power_rank(cap + 1)
        diffs = [b - a for a, b in zip([0] + profile, profile)]
        top = max(diffs)
        if len(diffs) < 3 or diffs[-3:] != [top] * 3:
            raise NonStabilizedError(
                "Hilbert differences %r did not stabilize; raise the precision"
                % (diffs,)
            )
        if max_k is None:
            self._multiplicity = top
        return top

    # -- reduction by a superficial parameter --------------------------------

    def _parameter_candidates(self, seed):
        # the parameter must be a nonzerodivisor with u-order exactly 1;
        # b_e supplies t-order e, and the u-order-1 piece is b_e itself
        # when e is matched, b_g otherwise, z_1 when the quotient is k
        base = np.zeros(self.width, dtype=np.int64)
        base[self._t_index[self.semigroup.multiplicity]] = 1
        if self.cyclic_length == 1:
            base[self._u_index[1]] = 1
        elif self.semigroup.multiplicity not in self._matched:
            base[self._t_index[self.cyclic_generator]] = 1
        yield base
        rng = random.Random(seed)
        tail = self._u_index[self.cyclic_length]
        ladder = [1, 2, 3] + [rng.randrange(1, self.prime) for _ in range(6)]
        for lam in ladder:
            vec = base.copy()
            vec[tail] = (vec[tail] + lam) % self.prime
            yield vec

    def _reduction(self, seed=0):
        try:
            return self._reductions[seed]
        except KeyError:
            pass
        target = self.multiplicity()
        for vec in self._parameter_candidates(seed):
            span = RowSpace(self.prime, self.width)
            span.add_matrix(self.mult_matrix(vec))
            # length of B/yB equals the multiplicity exactly when y
            # generates a minimal reduction; anything larger means the
            # candidate was not superficial
            if self.width - span.dim == target:
                self._reductions[seed] = (vec, span)
                return self._reductions[seed]
        raise ParameterNotRegularError(
            "no superficial parameter found modulo %d" % self.prime
        )

    def _quotient_actions(self, seed):
        # the non-pivot columns of yB's echelon form are a basis of B/yB,
        # e(B) of them; generator g acts on it by the e(B) x e(B) matrix
        # of the residues of its products with those basis elements
        if seed not in self._actions:
            _, span = self._reduction(seed)
            free = np.setdiff1d(np.arange(self.width), span.pivots)
            self._actions[seed] = [
                span.reduce_matrix(m[free])[:, free] for m in self._gen_matrices
            ]
        return self._actions[seed]

    def socle_of_reduction(self, seed=0):
        """Dimension of the socle of B/yB, y a superficial parameter.

        Computed in B/yB as the common kernel of the generators' actions.
        """
        actions = self._quotient_actions(seed)
        return len(actions[0]) - rank_of(np.hstack(actions).T, self.prime)

    def is_gorenstein(self, seed=0):
        return self.socle_of_reduction(seed) == 1

    def graded_socle_of_reduction(self, seed=0):
        """Total socle dimension of the associated graded ring of B/yB.

        Computed inside B/yB with the powers P_k of its maximal ideal; a
        degree-k class is socle exactly when every generator pushes it
        into P_(k+2), so degree k adds dim{x in P_k : xg in P_(k+2) for
        all g} - dim P_(k+1).
        """
        actions = self._quotient_actions(seed)
        p, q = self.prime, len(actions[0])
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


def build_approximation(semigroup, shift, precision=None, prime=DEFAULT_PRIME):
    """Validated constructor; see FiberProductRing."""
    return FiberProductRing(semigroup, shift, precision=precision, prime=prime)


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
    seed: int
    status: str


def verify_approximation(
    semigroup,
    shift,
    precision=None,
    primes=(DEFAULT_PRIME, SECOND_PRIME),
    seed=0,
):
    """Run the model over every (precision, prime) pair and compare.

    Two precisions (the requested one and a strictly larger one) and at
    least two distinct primes; all runs must report identical lengths,
    and the stable multiplicity must exceed the semigroup's by exactly
    one.  Any disagreement raises instead of returning.
    """
    primes = tuple(primes)
    if len(primes) < 2 or len(set(primes)) != len(primes):
        raise ValueError("need at least two distinct moduli")
    for p in primes:
        check_modulus(p)

    step = 2 * max(semigroup.generators)
    # the ring at the floor (nothing computed yet) gives the quotient length,
    # so the sweep's larger precision is refused before anything is computed
    base = FiberProductRing(semigroup, shift, prime=primes[0])
    n0 = base.precision if precision is None else precision
    _check_width(semigroup, base.cyclic_length, base.precision, n0, step)
    if n0 != base.precision:
        base = FiberProductRing(semigroup, shift, precision=n0, prime=primes[0])
    cap = n0 // max(semigroup.generators) - 1

    runs = []
    for p in primes:
        for n in (n0, n0 + step):
            if p == primes[0] and n == n0:
                ring = base
            else:
                ring = FiberProductRing(semigroup, shift, precision=n, prime=p)
            e_b = ring.multiplicity()
            profile = tuple(ring.hilbert_function(k) for k in range(cap + 1))
            soc = ring.socle_of_reduction(seed)
            graded = ring.graded_socle_of_reduction(seed)
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
        seed=seed,
        status="numerically-verified",
    )
