"""Independent brute-force reference implementations.

Everything here recomputes semigroup facts and ranks over F_p from
first principles with sets, tables, exhaustive scans and textbook
elimination on Python integers, sharing no code with the package.
Slow on purpose; used only to pin expected values and to cross-examine
the fast paths over enumerated families.
"""

import numpy as np


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


def bf_teter_scan(gens, multiplier=1):
    """Largest shift s in the scan window making the canonical ideal,
    shifted, a proper monomial ideal with hypersurface quotient.

    Returns (s, sorted cobasis) or None.  Everything is recomputed from
    membership sets.
    """
    frob = bf_frobenius(gens)
    mins = bf_minimal_generators(gens)
    top = multiplier * (max(mins) + frob)
    bound = top + bf_bound(gens) + frob + 1
    table = bf_member_table(gens, bound)
    # same normalization as bf_canonical_generators: smallest element -F
    omega = {z - frob for z in bf_canonical_set(gens, 0, bound)}
    best = None
    for s in range(frob, top + 1):
        ideal = {z + s for z in omega if z + s <= bound}
        # proper ideal: inside the semigroup, not everything
        if any(n < 0 or not table[n] for n in ideal if n <= bound):
            continue
        if 0 in ideal:
            continue
        cobasis = [
            h for h in range(frob + s + 1) if table[h] and h not in ideal
        ]
        surviving = [n for n in mins if n not in ideal]
        if len(surviving) <= 1:
            best = (s, cobasis)
    return best


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
