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

Everything numerical is done over a small prime field, twice, at two
different primes and two different precisions; the sweep either agrees
with itself (and with the semigroup-side multiplicity) or raises.  Only
the lengths and the superficial parameter y need the whole model: the
socle and the graded socle are computed in B/yB, of dimension e(B).
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


# Widest model a FiberProductRing builds: dense memory grows as width^2 and
# time as width^3 (width 597: 25 s and 395 MB for <3,4,5> on a 2-core VM).
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

        self._basis_matrices = {}
        self._powers = []
        self._reductions = {}
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

    def _basis_matrix(self, i):
        m = self._basis_matrices.get(i)
        if m is None:
            m = np.zeros((self.width, self.width), dtype=np.int64)
            for j in range(self.width):
                for k in self.basis_product(i, j):
                    m[j, k] += 1
            m %= self.prime
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

    def _power_space(self, k):
        # span of the k-th power of the maximal ideal, k >= 1; the first
        # power is spanned by the rows of the generator matrices
        while len(self._powers) < k:
            nxt = RowSpace(self.prime, self.width)
            for m in self._gen_matrices:
                if self._powers:
                    m = matmul_mod(self._powers[-1].rows, m, self.prime)
                nxt.add_matrix(m)
            self._powers.append(nxt)
        return self._powers[k - 1]

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
        return self.width - self._power_space(k + 1).dim

    def multiplicity(self, max_k=None):
        """Stable first difference of the Hilbert function.

        Demands three equal consecutive differences before believing
        the value; raises when the budget runs out first.
        """
        if max_k is None and self._multiplicity is not None:
            return self._multiplicity
        cap = self.precision // max(self.semigroup.generators) - 1
        if max_k is not None:
            cap = min(cap, max_k)
        prev = 0
        diffs = []
        for k in range(cap + 1):
            val = self.hilbert_function(k)
            diffs.append(val - prev)
            prev = val
            if len(diffs) >= 3 and diffs[-1] == diffs[-2] == diffs[-3]:
                if max_k is None:
                    self._multiplicity = diffs[-1]
                return diffs[-1]
        raise NonStabilizedError(
            "Hilbert differences %r did not stabilize; raise the precision"
            % (diffs,)
        )

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
        _, span = self._reduction(seed)
        free = np.setdiff1d(np.arange(self.width), span.pivots)
        return [span.reduce_matrix(m[free])[:, free] for m in self._gen_matrices]

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
