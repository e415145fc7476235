"""Numerical semigroups presented by generators.

A numerical semigroup is an additive submonoid of the nonnegative
integers with finite complement.  The complement elements are the gaps,
the largest gap is the Frobenius number (taken to be -1 when there are
no gaps), and the monoid ring k[[t^h : h in H]] is the local ring whose
invariants everything downstream cares about.

Everything rests on the Apery set of the multiplicity e: the least
member in each residue class mod e, found by shortest paths over the
residues (Nijenhuis, "A minimal-path algorithm for the money changing
problem", 1979).  Membership is n >= Ap[n mod e], the Frobenius number
is max Ap - e, and the gaps (class i holds i, i + e, ... below Ap[i])
are read off it.  The minimal generators come out of the same search:
they are e and the nonzero Apery elements that the search never reaches
from another nonzero one.

Its extension to the powers of m, ``apery_table``, is built a row at a
time on whole arrays: one gather over the generators and a minimum.
ord bisects the table's columns, which are nondecreasing.  Numpy holds
only minimal generators and table entries (each at most F + e^2, with
F and e bounded by MAX_TABLE), so int64 never overflows; everything
returned is a tuple of Python ints.
"""

import heapq
import math
from bisect import bisect_right
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import (
    CrossCheckError,
    EmptyGeneratorsError,
    NonCoprimeError,
    NotAMemberError,
)

# Largest shortest-path search, gap list or Apery table (e entries per
# row); larger ones are refused before allocation.
MAX_TABLE = 1_000_000


def _check_table(size, what):
    if size > MAX_TABLE:
        raise ValueError("%s table of %d entries exceeds %d" % (what, size, MAX_TABLE))


class NumericalSemigroup:
    """The semigroup generated by a set of positive integers.

    Instances normalize on construction: redundant generators are
    dropped, so ``generators`` always holds the unique minimal
    generating set regardless of what was passed in.  Two instances
    compare equal exactly when their minimal generators agree.
    """

    def __init__(self, generators):
        gens = sorted({int(g) for g in generators})
        if not gens:
            raise EmptyGeneratorsError("need at least one generator")
        if gens[0] <= 0:
            raise ValueError("generators must be positive integers, got %r" % (gens[0],))
        if math.gcd(*gens) != 1:
            raise NonCoprimeError(
                "gcd(%s) != 1, complement would be infinite" % ", ".join(map(str, gens))
            )

        e = gens[0]
        # Dijkstra over the residues mod e: each residue is settled once
        # and pushes at most one heap entry per generator.  reached[r]
        # records whether Ap[r] is d + g for some nonzero Apery element d:
        # a strict improvement sets it to d > 0, a tie from d > 0 to true.
        _check_table(e * len(gens), "shortest-path")
        apery = [0] + [math.inf] * (e - 1)
        reached = [False] * e
        heap = [(0, 0)]
        while heap:
            d, r = heapq.heappop(heap)
            if d > apery[r]:
                continue
            for g in gens[1:]:
                nd, nr = d + g, (r + g) % e
                if nd < apery[nr]:
                    apery[nr] = nd
                    reached[nr] = d > 0
                    heapq.heappush(heap, (nd, nr))
                elif nd == apery[nr] and d > 0:
                    reached[nr] = True

        self.frobenius = max(apery) - e
        _check_table(self.frobenius + 1, "gap")
        self.apery = tuple(apery)
        # the gaps of class i are i, i + e, ... below Ap[i]
        self.gaps = tuple(
            sorted(chain.from_iterable(range(i, w, e) for i, w in enumerate(apery)))
        )

        # Every minimal generator but e is a nonzero Apery element w, and
        # w is not minimal iff w - g is a nonzero member for an input
        # generator g != e.  Then w - g is an Apery element too (else
        # w - e would be a member), popped before w and relaxed by g: so
        # exactly the unreached w are minimal.
        minimal = [e] + sorted(w for w, hit in zip(apery[1:], reached[1:]) if not hit)
        self.generators = tuple(minimal)

    @property
    def multiplicity(self):
        return self.generators[0]

    @property
    def embedding_dimension(self):
        return len(self.generators)

    @property
    def genus(self):
        return len(self.gaps)

    @property
    def conductor(self):
        return self.frobenius + 1

    def contains(self, n):
        apery = self.apery
        return n >= apery[n % len(apery)]

    __contains__ = contains

    def members_up_to(self, n):
        """All members in [0, n], ascending."""
        # the members of residue class r are Ap[r], Ap[r] + e, ...
        e = self.multiplicity
        return sorted(chain.from_iterable(range(w, n + 1, e) for w in self.apery))

    def apery_set(self, m):
        """Least member in each residue class mod m, indexed by residue.

        m must be a nonzero member; the result has exactly m entries and
        starts with 0.
        """
        if m <= 0 or m not in self:
            raise NotAMemberError("%r is not a nonzero member" % (m,))
        if m == self.multiplicity:
            return self.apery
        least = [None] * m
        for h in range(self.frobenius + m + 1):
            r = h % m
            if least[r] is None and h in self:
                least[r] = h
        return tuple(least)

    @cached_property
    def pseudo_frobenius(self):
        """Gaps f with f + h a member for every nonzero member h.

        Contains the Frobenius number; the count is the Cohen-Macaulay
        type.  By convention the full semigroup gets (-1,).
        """
        if self.frobenius < 0:
            return (-1,)
        # f + e is a member and f is not, so f + e is in Ap(H, e): only
        # the e - 1 candidates w - e need testing.  f + h lands in H for
        # all nonzero h iff it does for the generators, since every
        # member is a sum of generators.
        apery = np.array(self.apery, dtype=np.int64)
        e = len(apery)
        candidates = apery[1:] - e
        sums = candidates[:, None] + np.array(self.generators, dtype=np.int64)
        # f + g is a member iff it reaches the Apery element of its class
        pseudo = candidates[(sums >= apery[sums % e]).all(axis=1)]
        return tuple(sorted(pseudo.tolist()))

    @property
    def cm_type(self):
        return len(self.pseudo_frobenius)

    @cached_property
    def is_gorenstein(self):
        """Whether H is symmetric, cross-checked against type 1.

        H is symmetric iff its Apery elements pair up as w + w' = max Ap
        (Selmer, "On the linear diophantine problem of Frobenius", 1977):
        max Ap - w must be the Apery element of its class, a member whose
        predecessor by e is not.
        """
        e, top = self.multiplicity, max(self.apery)
        symmetric = all(top - w in self and top - w - e not in self for w in self.apery)
        if symmetric != (self.cm_type == 1):
            raise CrossCheckError(
                "symmetry test and type count disagree for %r" % (self,)
            )
        return symmetric

    @cached_property
    def apery_table(self):
        """Rows a_0, ..., a_r, a_n[i] the least h = i mod e of ord >= n.

        a_0 = Ap(H, e), and a_(n+1)[i] is the least a_n[i - g mod e] + g
        over the generators g (ord(h) > n iff some h - g has ord >= n).
        Each row is one array step: gather a_n at the k x e indices
        (i - g) mod e, add the generators and take the column minima.
        The rows stop at the first r with a_(r+1) = a_r + e; every later
        row is the one before plus e, and r, the reduction number of m,
        is below e.  Each column a_0[i] <= a_1[i] <= ... is nondecreasing,
        since a member of ord > n also has ord >= n.
        """
        e = self.multiplicity
        gens = np.array(self.generators, dtype=np.int64)[:, None]
        index = (np.arange(e) - gens) % e
        rows = [np.array(self.apery_set(e), dtype=np.int64)]
        while True:
            _check_table(e * len(rows), "Apery")
            low = rows[-1]
            high = (low[index] + gens).min(axis=0)
            if ((high - low) == e).all():
                return tuple(tuple(row.tolist()) for row in rows)
            rows.append(high)

    @cached_property
    def _columns(self):
        # column i of apery_table: a_0[i] <= ... <= a_r[i]
        return tuple(zip(*self.apery_table))

    def ord(self, h):
        """Largest n such that h is a sum of n nonzero members.

        ord(0) = 0 and ord(generator) = 1.  It counts the rows n >= 1 with
        a_n[h mod e] <= h in ``apery_table`` and past it, where row r + k
        is a_r + k e: past a_r, ord(h) = r + (h - a_r[h mod e]) // e, so
        ord grows like h / e.  The column of h mod e is nondecreasing, so
        the rows with a_n[h mod e] <= h are its prefix, found by bisection.
        """
        if h not in self:
            raise NotAMemberError("%r is not a member" % (h,))
        e = self.multiplicity
        column = self._columns[h % e]
        return bisect_right(column, h) - 1 + max(0, h - column[-1]) // e

    def __eq__(self, other):
        if not isinstance(other, NumericalSemigroup):
            return NotImplemented
        return self.generators == other.generators

    def __hash__(self):
        return hash(self.generators)

    def __repr__(self):
        return "NumericalSemigroup([%s])" % ", ".join(map(str, self.generators))
