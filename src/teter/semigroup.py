"""Numerical semigroups presented by generators.

A numerical semigroup is an additive submonoid of the nonnegative
integers with finite complement.  The complement elements are the gaps,
the largest gap is the Frobenius number (taken to be -1 when there are
no gaps), and the monoid ring k[[t^h : h in H]] is the local ring whose
invariants everything downstream cares about.
"""

import math
from functools import cached_property
from itertools import accumulate

from .errors import (
    CrossCheckError,
    EmptyGeneratorsError,
    NonCoprimeError,
    NotAMemberError,
)

# Largest membership or ord table a semigroup builds; larger ones are refused
# before allocation (10^6 entries: about 16 s and 121 MB in teter_check).
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
        # Schur's bound puts the Frobenius number below (e-1)(g-1) for the
        # first g where the generators up to g are coprime; larger ones only
        # add members, so a table up to e*g + g reaches past it.
        g = next(g for g, d in zip(gens, accumulate(gens, math.gcd)) if d == 1)
        bound = e * g + g
        _check_table(bound + 1, "membership")
        member = bytearray(bound + 1)
        member[0] = 1
        for h in range(e, bound + 1):
            for g in gens:
                if g > h:
                    break
                if member[h - g]:
                    member[h] = 1
                    break

        # the table runs past the Frobenius number (Schur's bound), so its
        # last zero is the largest gap
        self.frobenius = member.rfind(0)
        self.gaps = tuple(h for h in range(1, self.frobenius + 1) if not member[h])
        self._member = member

        if self.frobenius < 0:
            minimal = [1]
        else:
            # h is a minimal generator iff it is not (smaller minimal
            # generator) + (nonzero member); all of them lie in [e, F+e].
            minimal = []
            for h in range(e, self.frobenius + e + 1):
                if not member[h]:
                    continue
                if any(h > g and member[h - g] for g in minimal):
                    continue
                minimal.append(h)
        self.generators = tuple(minimal)
        self._ord = [0]  # ord table, grown on demand

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
        if n < 0:
            return False
        if n > self.frobenius:
            return True
        return bool(self._member[n])

    __contains__ = contains

    def members_up_to(self, n):
        """All members in [0, n], ascending."""
        return [h for h in range(n + 1) if h in self]

    def apery_set(self, m):
        """Least member in each residue class mod m, indexed by residue.

        m must be a nonzero member; the result has exactly m entries and
        starts with 0.
        """
        if m <= 0 or m not in self:
            raise NotAMemberError("%r is not a nonzero member" % (m,))
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
        # f + h lands in H for all nonzero h iff it does for the
        # generators, since every member is a sum of generators.
        gens = self.generators
        return tuple(f for f in self.gaps if all(f + g in self for g in gens))

    @property
    def cm_type(self):
        return len(self.pseudo_frobenius)

    @cached_property
    def is_gorenstein(self):
        """Whether H is symmetric, cross-checked against type 1.

        Symmetric means exactly one of z, F-z is a member for every
        integer z; outside [-1, F+1] this is automatic.
        """
        f = self.frobenius
        symmetric = all((z in self) != (f - z in self) for z in range(-1, f + 2))
        if symmetric != (self.cm_type == 1):
            raise CrossCheckError(
                "symmetry test and type count disagree for %r" % (self,)
            )
        return symmetric

    def ord(self, h):
        """Largest n such that h is a sum of n nonzero members.

        ord(0) = 0, ord(generator) = 1; grows roughly like h/max(gens).
        """
        if h not in self:
            raise NotAMemberError("%r is not a member" % (h,))
        self._ensure_ord(h)
        return self._ord[h]

    def _ensure_ord(self, n):
        table = self._ord
        if n < len(table):
            return
        _check_table(n + 1, "ord")
        # initial bound per design: 2(F + maxgen + e); doubled on demand, capped
        target = max(
            n,
            2 * len(table),
            2 * (self.frobenius + self.generators[-1] + self.multiplicity),
        )
        target = min(target, MAX_TABLE - 1)
        gens = self.generators
        for h in range(len(table), target + 1):
            best = -1
            if h in self:
                for g in gens:
                    if g <= h:
                        prev = table[h - g]
                        if prev >= best:
                            best = prev
            table.append(best + 1 if best >= 0 else -1)

    def __eq__(self, other):
        if not isinstance(other, NumericalSemigroup):
            return NotImplemented
        return self.generators == other.generators

    def __hash__(self):
        return hash(self.generators)

    def __repr__(self):
        return "NumericalSemigroup([%s])" % ", ".join(map(str, self.generators))
