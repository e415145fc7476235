"""Independent brute-force reference implementations.

Everything here recomputes semigroup facts and ranks over F_p from
first principles with sets, tables, exhaustive scans and textbook
elimination on Python integers, sharing no code with the package.
Slow on purpose; used only to pin expected values and to cross-examine
the fast paths over enumerated families.  The fiber-product helpers at
the end are the exception: they view a ring built by the package.
"""

import numpy as np

from teter import CrossCheckError, PrecisionTooSmallError
from teter.ideals import canonical_ideal, quotient_data
from teter.modp import RowSpace, matmul_mod, rank_of


def bf_member_table(gens, size):
    """Coin-problem table: table[n] = 1 iff n is a sum of generators."""
    table = bytearray(size + 1)
    table[0] = 1
    for n in range(1, size + 1):
        for g in gens:
            if g <= n and table[n - g]:
                table[n] = 1
                break
    return table


def bf_bound(gens):
    # conductor bound: (a-1)(b-1) tops the largest gap for coprime a, b
    lo = min(gens)
    hi = max(gens)
    return (lo - 1) * (hi - 1) + hi + 1


def bf_membership(gens, n):
    if n < 0:
        return False
    bound = max(n, bf_bound(gens))
    return bool(bf_member_table(gens, bound)[n])


def bf_gaps(gens):
    bound = bf_bound(gens)
    table = bf_member_table(gens, bound)
    return [n for n in range(1, bound + 1) if not table[n]]


def bf_frobenius(gens):
    gaps = bf_gaps(gens)
    return gaps[-1] if gaps else -1


def bf_minimal_generators(gens):
    """Members that split into no two nonzero members."""
    bound = bf_bound(gens)
    table = bf_member_table(gens, bound)
    out = []
    for n in range(1, bound + 1):
        if not table[n]:
            continue
        if any(table[a] and table[n - a] for a in range(1, n)):
            continue
        out.append(n)
    return out


def bf_pseudo_frobenius(gens):
    """Gaps f with f + h a member for every nonzero member h.

    Checked straight from the definition over the finite range where it
    can fail; past the largest gap everything is a member.
    """
    bound = bf_bound(gens)
    table = bf_member_table(gens, bound)
    frob = bf_frobenius(gens)
    if frob == -1:
        return [-1]
    out = []
    for f in range(1, frob + 1):
        if table[f]:
            continue
        ok = True
        for h in range(1, frob - f + 1):
            if table[h] and not table[f + h]:
                ok = False
                break
        if ok:
            out.append(f)
    return out


def bf_symmetric(gens):
    """Symmetry walk: exactly one of z, F - z is a member for every z
    in [-1, F + 1]; outside that range it is automatic."""
    frob = bf_frobenius(gens)
    table = bf_member_table(gens, frob + 1)

    def member(z):
        return z >= 0 and bool(table[z])

    return all(member(z) != member(frob - z) for z in range(-1, frob + 2))


def bf_apery(gens, m):
    """Least member in each residue class mod m."""
    bound = bf_bound(gens) + m
    table = bf_member_table(gens, bound)
    out = {}
    for n in range(bound + 1):
        if table[n] and (n % m) not in out:
            out[n % m] = n
    return [out[r] for r in range(m)]


def bf_canonical_set(gens, lo, hi):
    """The canonical relative ideal as a set: z with F - z not a member."""
    frob = bf_frobenius(gens)
    return {z for z in range(lo, hi + 1) if not bf_membership(gens, frob - z)}


def bf_canonical_generators(gens):
    """Minimal generators of the canonical ideal, from its raw set.

    Normalized the way the package does it: the set {z : F - z not a
    member} shifted down by F, so every generator is negative and the
    smallest is -F.  Nothing past F + e in the raw set can be minimal
    (subtracting e lands back in the set), so the scan is finite.
    """
    frob = bf_frobenius(gens)
    e = min(bf_minimal_generators(gens))
    hi = 2 * bf_bound(gens)
    ideal = bf_canonical_set(gens, 0, hi)
    table = bf_member_table(gens, hi + bf_bound(gens))
    out = []
    for z in range(frob + e + 1):
        if z not in ideal:
            continue
        # z is a generator unless z - h stays in the ideal for some
        # nonzero member h
        if any(table[h] and (z - h) in ideal for h in range(1, z + 1)):
            continue
        out.append(z - frob)
    return out


def bf_ideal_set(gens, ideal_gens, lo, hi):
    """The union of (g + H) over ideal_gens, cut to [lo, hi]."""
    table = bf_member_table(gens, max(hi - min(ideal_gens), 0))
    return {
        z
        for z in range(lo, hi + 1)
        if any(z >= g and table[z - g] for g in ideal_gens)
    }


def bf_shifted_canonical_set(gens, s, lo, hi):
    """omega + s cut to [lo, hi], for omega = {z : -z not a member}:
    the z with s - z not a member, straight from the definition."""
    table = bf_member_table(gens, max(s - lo, 0))
    return {z for z in range(lo, hi + 1) if z > s or not table[s - z]}


def bf_least_per_class(elements, m):
    """Least element of a finite set in each residue class mod m."""
    least = {}
    for z in sorted(elements):
        least.setdefault(z % m, z)
    return [least[r] for r in range(m)]


def bf_window_cobasis(gens, ideal_gens):
    """Members of H outside the ideal on ideal_gens, by a window scan.

    Every member above F + min(ideal_gens) is that generator plus a
    member above F, so it lies in the ideal; the scan stops there.
    """
    top = bf_frobenius(gens) + min(ideal_gens)
    table = bf_member_table(gens, top)
    ideal = bf_ideal_set(gens, ideal_gens, 0, top)
    return [h for h in range(top + 1) if table[h] and h not in ideal]


def bf_ord_table(gens, size):
    """ord[h] = longest factorization, by trying every split point.

    ord(h) = 1 + max over proper splits h = a + b of ord(a), taking a
    plain generator decomposition when no split exists.  Vectorized on
    the split axis; fully independent of the package's recursion.
    """
    member = np.zeros(size + 1, dtype=bool)
    table = bf_member_table(gens, size)
    member[: size + 1] = np.frombuffer(bytes(table), dtype=np.uint8).astype(bool)
    ord_arr = np.full(size + 1, -1, dtype=np.int64)
    ord_arr[0] = 0
    for h in range(1, size + 1):
        if not member[h]:
            continue
        if h >= 2:
            mask = member[1:h] & member[h - 1 : 0 : -1]
            if mask.any():
                cand = ord_arr[1:h][mask] + ord_arr[h - 1 : 0 : -1][mask]
                ord_arr[h] = int(cand.max())
                continue
        ord_arr[h] = 1
    return ord_arr


def bf_ord(gens, h):
    arr = bf_ord_table(gens, max(h, 1))
    return int(arr[h])


def bf_apery_table(gens):
    """Rows a_n[i] = least h = i mod e with ord(h) >= n, read off
    ``bf_ord_table``, through the first row r with a_(r+1) = a_r + e.

    a_n[i] <= a_0[i] + n e <= F + e + n e, and r <= e - 1, so a table
    through F + e + e^2 holds every entry of rows 0 to e.
    """
    e = min(bf_minimal_generators(gens))
    ords = bf_ord_table(gens, bf_frobenius(gens) + e + e * e)
    rows = []
    for n in range(e + 1):
        row = tuple(
            next(h for h in range(i, len(ords), e) if ords[h] >= n) for i in range(e)
        )
        if rows and row == tuple(a + e for a in rows[-1]):
            return tuple(rows)
        rows.append(row)
    raise AssertionError("no row of <%s> steps by e within e rows" % gens)


def bf_tangent_cone_cm(gens):
    """Single-step scan: every member must gain exactly one order step
    when the multiplicity is added, far enough out to be conclusive."""
    e = min(bf_minimal_generators(gens))
    mins = bf_minimal_generators(gens)
    frob = bf_frobenius(gens)
    window = max(
        (e - 1) * sum(n for n in mins if n != e),
        2 * (frob + e) + max(mins),
    )
    ords = bf_ord_table(gens, window + e)
    for h in range(window + 1):
        if ords[h] < 0:
            continue
        if ords[h + e] != ords[h] + 1:
            return False
    return True


def bf_teter_shifts(gens, multiplier=1):
    """Every shift s in the scan window [F, multiplier * (max + F)]
    making the canonical ideal, shifted, a proper monomial ideal with
    hypersurface quotient.

    Returns the (s, sorted cobasis) pairs in increasing s.  Everything is
    recomputed from membership sets.
    """
    frob = bf_frobenius(gens)
    mins = bf_minimal_generators(gens)
    top = multiplier * (max(mins) + frob)
    bound = top + bf_bound(gens) + frob + 1
    table = bf_member_table(gens, bound)
    # same normalization as bf_canonical_generators: smallest element -F
    omega = {z - frob for z in bf_canonical_set(gens, 0, bound)}
    found = []
    for s in range(frob, top + 1):
        ideal = {z + s for z in omega if z + s <= bound}
        # proper ideal: inside the semigroup, not everything
        if any(n < 0 or not table[n] for n in ideal if n <= bound):
            continue
        if 0 in ideal:
            continue
        surviving = [n for n in mins if n not in ideal]
        if len(surviving) <= 1:
            cobasis = [
                h for h in range(frob + s + 1) if table[h] and h not in ideal
            ]
            found.append((s, cobasis))
    return found


def bf_teter_scan(gens, multiplier=1):
    """Largest shift of ``bf_teter_shifts`` with its cobasis, or None."""
    found = bf_teter_shifts(gens, multiplier)
    return found[-1] if found else None


def enumerate_semigroups(max_genus):
    """Every numerical semigroup of genus <= max_genus, as (genus, gens).

    Walks the gap tree: each child removes one minimal generator larger
    than the parent's largest gap, which enumerates every semigroup
    exactly once.  Membership tables are sliced bytearrays, generators
    recomputed from scratch at every node.
    """
    size = 4 * max_genus + 8

    def min_gens_of(table):
        first = next(n for n in range(1, size + 1) if table[n])
        out = []
        for n in range(first, size + 1):
            if not table[n]:
                continue
            if any(table[a] and table[n - a] for a in range(first, n - first + 1)):
                continue
            out.append(n)
        return out

    root = bytearray([1]) * (size + 1)
    stack = [(0, -1, root)]
    while stack:
        genus, frob, table = stack.pop()
        gens = min_gens_of(table)
        yield genus, tuple(gens)
        if genus == max_genus:
            continue
        for n in gens:
            if n <= frob:
                continue
            child = bytearray(table)
            child[n] = 0
            stack.append((genus + 1, n, child))


def bf_rank_mod_p(rows, p):
    """Rank over F_p by textbook Gaussian elimination on lists of ints."""
    work = [[x % p for x in row] for row in rows]
    rank = 0
    width = len(work[0]) if work else 0
    for col in range(width):
        src = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if src is None:
            continue
        work[rank], work[src] = work[src], work[rank]
        inv = pow(work[rank][col], p - 2, p)
        work[rank] = [x * inv % p for x in work[rank]]
        for i in range(rank + 1, len(work)):
            c = work[i][col]
            if c:
                work[i] = [(x - c * y) % p for x, y in zip(work[i], work[rank])]
        rank += 1
    return rank


# -- the fiber-product model, seen from outside ------------------------------
#
# Test-only views of a FiberProductRing.  TruncatedSeries is an
# independent series arithmetic; basis_pair reads a ring's exponent lists
# and takes the quotient basis from the shifted canonical ideal, not from
# the ring's exponent pairs, so products of the pairs check the product
# tables (basis_product reads a row of one) and the matching condition
# checks the quotient basis;
# the dense generator matrices, the dense reduction by y, kernel_profile,
# the dense power spaces and the width-dimensional socles start from
# ``mult_matrix`` and reuse the package's RowSpace.  The ring is the same
# over every field, so each view that works over F_p takes p.


class TruncatedSeries:
    """Power series over F_p with exponents 0..precision, exact or loud.

    Addition is always exact.  Multiplication refuses (raises) whenever
    the true product could stick out past the precision, instead of
    truncating silently; that keeps every computed coefficient honest.
    """

    def __init__(self, p, precision, coeffs=None):
        self.p = p
        self.precision = precision
        if coeffs is None:
            self.coeffs = np.zeros(precision + 1, dtype=np.int64)
        else:
            self.coeffs = np.asarray(coeffs, dtype=np.int64) % p
            if self.coeffs.shape != (precision + 1,):
                raise ValueError("coefficient vector must have length precision+1")

    @classmethod
    def monomial(cls, p, precision, exponent, coeff=1):
        if not 0 <= exponent <= precision:
            raise PrecisionTooSmallError(
                "exponent %d outside precision %d" % (exponent, precision)
            )
        s = cls(p, precision)
        s.coeffs[exponent] = coeff % p
        return s

    def _check_compatible(self, other):
        if self.p != other.p or self.precision != other.precision:
            raise ValueError("series live in different arithmetic")

    def top_exponent(self):
        nz = np.nonzero(self.coeffs)[0]
        return int(nz[-1]) if nz.size else -1

    def is_zero(self):
        return not self.coeffs.any()

    def __add__(self, other):
        self._check_compatible(other)
        return TruncatedSeries(self.p, self.precision, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check_compatible(other)
        return TruncatedSeries(self.p, self.precision, self.coeffs - other.coeffs)

    def __neg__(self):
        return TruncatedSeries(self.p, self.precision, -self.coeffs)

    def scale(self, c):
        return TruncatedSeries(self.p, self.precision, self.coeffs * (c % self.p))

    def __mul__(self, other):
        self._check_compatible(other)
        top = self.top_exponent() + other.top_exponent()
        if top > self.precision:
            raise PrecisionTooSmallError(
                "product reaches exponent %d beyond precision %d"
                % (top, self.precision)
            )
        if self.is_zero() or other.is_zero():
            return TruncatedSeries(self.p, self.precision)
        full = np.convolve(self.coeffs, other.coeffs) % self.p
        return TruncatedSeries(self.p, self.precision, full[: self.precision + 1])

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.p == other.p
            and self.precision == other.precision
            and bool(np.array_equal(self.coeffs, other.coeffs))
        )

    def __repr__(self):
        terms = ["%d*x^%d" % (c, i) for i, c in enumerate(self.coeffs) if c]
        body = " + ".join(terms) if terms else "0"
        return "TruncatedSeries(%s mod %d)" % (body, self.p)


def basis_pair(ring, i, p):
    """Basis element i of ring as an honest pair of series over F_p."""
    n = ring.precision
    t_side = TruncatedSeries(p, n)
    u_side = TruncatedSeries(p, n)
    if i < ring._nt:
        h = int(ring._t[i])
        t_side = TruncatedSeries.monomial(p, n, h)
        H = ring.semigroup
        if h in quotient_data(H, canonical_ideal(H).shift(ring.shift)).cobasis:
            u_side = TruncatedSeries.monomial(p, n, h // ring.cyclic_generator)
    else:
        u_side = TruncatedSeries.monomial(p, n, int(ring._u[i]))
    return t_side, u_side


def gen_matrices(ring):
    """Dense 0/1 multiplication matrices of the generators of the maximal ideal."""
    unit = np.eye(ring.width, dtype=np.int64)
    return [ring.mult_matrix(unit[g]) for g in ring.generator_indices]


def superficial_parameter(ring):
    """Coordinates of y = (t^e + ..., u + ...), the element of value (e, 1).

    b_e, plus z_1 when the quotient is the residue field, or plus b_g
    when e is not g (b_e = (t^e, u) when e = g).
    """
    e, g = ring.semigroup.multiplicity, ring.cyclic_generator
    nt, members = ring._nt, ring._t.tolist()
    vec = np.zeros(ring.width, dtype=np.int64)
    vec[members.index(e)] = 1
    if ring.cyclic_length == 1:
        vec[nt + ring._u[nt:].tolist().index(1)] = 1
    elif e != g:
        vec[members.index(g)] = 1
    return vec


def dense_reduction(ring, p):
    """yB as a row space over F_p, y the superficial parameter of value (e, 1)."""
    span = RowSpace(p, ring.width)
    span.add_matrix(ring.mult_matrix(superficial_parameter(ring)))
    return span


def kernel_profile(ring, depth, p):
    """Lengths over F_p of K/(m^k K), K the kernel of the t-side projection."""
    w, nt = ring.width, ring._nt
    total = w - nt
    cur = np.zeros((total, w), dtype=np.int64)
    cur[np.arange(total), nt + np.arange(total)] = 1
    out = []
    for _ in range(depth):
        nxt = RowSpace(p, w)
        for m in gen_matrices(ring):
            nxt.add_matrix(matmul_mod(cur, m, p))
        out.append(total - nxt.dim)
        cur = nxt.rows
    return out


def dense_power_space(ring, p, previous=None):
    """The power of the maximal ideal of ring after ``previous``, densely.

    m itself when previous is None: the rows of the generator matrices;
    otherwise m^(k+1), the rows of previous = m^k times each generator
    matrix.  A row space over F_p in all width coordinates.
    """
    space = RowSpace(p, ring.width)
    for m in gen_matrices(ring):
        if previous is not None:
            m = matmul_mod(previous.rows, m, p)
        space.add_matrix(m)
    return space


def width_socle(ring, p):
    """Socle of B/yB over F_p, computed in all width coordinates of B.

    The x in B with xg in yB for every generator g, less yB itself.
    """
    span = dense_reduction(ring, p)
    blocks = [span.reduce_matrix(m) for m in gen_matrices(ring)]
    killed = ring.width - rank_of(np.hstack(blocks), p)
    return killed - span.dim


def width_graded_socle(ring, p):
    """Graded socle of B/yB over F_p, computed in all width coordinates of B.

    Works with the filtration T_k = (k-th power of the maximal ideal)
    + yB inside B itself; a degree-k class is socle exactly when every
    generator pushes it into T_(k+2).
    """
    span = dense_reduction(ring, p)
    gens = gen_matrices(ring)
    w = ring.width
    spaces = [None]
    dims = [w]
    power = None
    k = 1
    while True:
        power = dense_power_space(ring, p, power)
        t_k = RowSpace(p, w)
        t_k.add_matrix(span.rows)
        t_k.add_matrix(power.rows)
        spaces.append(t_k)
        dims.append(t_k.dim)
        if t_k.dim == span.dim:
            break
        if k > w:
            raise AssertionError("filtration of the reduction failed to terminate")
        k += 1
    top = k

    total = 0
    for k in range(top):
        rows = np.eye(w, dtype=np.int64) if k == 0 else spaces[k].rows
        target = spaces[min(k + 2, top)]
        cond = np.hstack(
            [target.reduce_matrix(matmul_mod(rows, m, p)) for m in gens]
        )
        total += rows.shape[0] - rank_of(cond, p) - dims[min(k + 1, top)]
    return total


def union_find_ranks(ring, powers):
    """Ranks of the first ``powers`` powers of ring's maximal ideal.

    The k-th power is spanned by the products of a basis of the (k-1)-st
    power (of B itself for k = 1) with each generator, read from the
    generators' product tables one by one.  Each product is a pair
    (t-index, u-index), -1 for none: an edge of a graph whose vertex -1
    is the ground.  With the u-coordinates negated the products are the
    columns of the graph's oriented incidence matrix, ground row deleted,
    so a spanning forest, kept by a union-find, is a basis over every
    field.
    """
    tables = [ring._table(g).tolist() for g in ring.generator_indices]
    basis, ranks = None, []
    for _ in range(powers):
        products = set()
        for rows in tables:
            if basis is None:
                products.update(map(tuple, rows[:-1]))
            else:
                # rows[-1] is the table's row of -1s
                products.update(
                    (max(rows[t][0], rows[u][0]), max(rows[t][1], rows[u][1]))
                    for t, u in basis
                )
        products.discard((-1, -1))
        parent = {}

        def root(x):
            while x in parent:
                x = parent[x]
            return x

        basis = []
        for t, u in sorted(products):
            a, b = root(t), root(u)
            if a != b:
                parent[a] = b
                basis.append((t, u))
        ranks.append(len(basis))
    return ranks


def pair_spanning_products(ring, k):
    """The spanning products of the k-th power of ring's maximal ideal.

    The products of ring's own spanning products of the (k-1)-st power
    (basis elements for k = 1) with each generator, as distinct (t-index,
    u-index) pairs, -1 for none, sorted: each product reads the rows of
    both parts of its pair at once, and np.unique drops the repeats.
    """
    tables = ring._generator_tables
    if k == 1:
        out = tables[:, :-1]
    else:
        parts = tables[:, ring._products[k - 2]]
        if (parts >= 0).all(axis=2).any():
            raise CrossCheckError("a product in power %d is not a bimonomial" % k)
        out = parts.max(axis=2)
    # distinct nonzero products, each pair coded as one integer
    base = ring.width + 1
    codes = np.unique(out.reshape(-1, 2) @ np.array([base, 1]) + base + 1)
    codes = codes[codes > 0]
    return np.stack([codes // base, codes % base], axis=1) - 1
