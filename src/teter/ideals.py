"""Relative monomial ideals of a numerical semigroup ring.

A relative ideal is a set I = union of (g + H) over finitely many
integer generators g; it models a fractional monomial ideal of k[[H]].
Generators may be negative (the canonical ideal's are), but a proper
ideal of the ring itself has all generators positive members.

Like H itself, I is fixed by its Apery set, its least element in each
residue class mod e (Rosales and Garcia-Sanchez, Numerical Semigroups,
2009); membership, A/I and the graded basis of I are read off it.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import lt

from .errors import (
    CrossCheckError,
    EmptyGeneratorsError,
    FullSemigroupError,
    ImproperIdealError,
)
from .semigroup import NumericalSemigroup


@dataclass(frozen=True)
class RelativeIdeal:
    ambient: NumericalSemigroup
    generators: tuple

    @classmethod
    def from_generators(cls, ambient, generators):
        """Build with the redundant generators dropped.

        g is redundant iff g - g' lies in H for some other kept g'; an
        ascending scan finds exactly the minimal generating set.
        """
        gens = sorted({int(g) for g in generators})
        if not gens:
            raise EmptyGeneratorsError("a relative ideal needs a generator")
        kept = []
        for g in gens:
            if not any(g - k in ambient for k in kept):
                kept.append(g)
        return cls(ambient, tuple(kept))

    @cached_property
    def apery(self):
        """Least element of I in class i mod e: least g + Ap[i - g mod e]."""
        ap = self.ambient.apery
        e = len(ap)
        return tuple(
            min(g + ap[(i - g) % e] for g in self.generators) for i in range(e)
        )

    def contains(self, z):
        apery = self.apery
        return z >= apery[z % len(apery)]

    __contains__ = contains

    def shift(self, s):
        """The translate I + s; minimality of generators is preserved.

        Class i of I + s is class i - s of I moved up by s, so the Apery
        set comes along in O(e), without a pass over the generators.
        """
        return self._translate(s, shifted_apery(self.apery, s))

    def _translate(self, s, apery):
        # I + s with its Apery set given: apery must be
        # shifted_apery(self.apery, s), as a caller that tested the
        # rotated tuple before building the ideal already holds it
        shifted = RelativeIdeal(self.ambient, tuple(g + s for g in self.generators))
        vars(shifted)["apery"] = apery
        return shifted

    def is_proper_ideal(self):
        """True iff I sits inside the maximal ideal; see ``apery_is_proper``."""
        return apery_is_proper(self.ambient, self.apery)


def shifted_apery(apery, s):
    """Apery tuple of I + s from the Apery tuple of I: class i of I + s
    is class i - s of I moved up by s."""
    k = len(apery) - s % len(apery)
    return tuple(a + s for a in apery[k:] + apery[:k])


def apery_is_proper(H, apery):
    """True iff the relative ideal I with Apery tuple ``apery`` is a
    proper ideal of H.

    I lies in H iff each of its classes starts at or above H's, and it
    misses 0 iff its class 0 starts above 0.
    """
    return apery[0] > 0 and not any(map(lt, apery, H.apery))


def generators_outside(H, apery):
    """The minimal generators of H outside the relative ideal with Apery
    tuple ``apery``: those below the start of their class in it."""
    e = len(apery)
    return [n for n in H.generators if n < apery[n % e]]


def canonical_ideal(H):
    """The relative ideal {z : -z not in H}, minimally generated by the
    negated pseudo-Frobenius numbers (every gap g lies in f - H for one
    of them, and no f' - f is a member), so the generator count is the
    Cohen-Macaulay type; principal iff Gorenstein.

    Its Apery set comes from H's in O(e): z = i mod e is in it iff -z is
    below Ap[-i mod e], so its least element of class i is e - Ap[-i mod e].
    """
    if H.frobenius < 0:
        raise FullSemigroupError("the full semigroup has no gaps")
    omega = RelativeIdeal.from_generators(H, [-f for f in H.pseudo_frobenius])
    ap = H.apery
    e = len(ap)
    vars(omega)["apery"] = tuple(e - ap[-i % e] for i in range(e))
    return omega


@dataclass(frozen=True)
class QuotientData:
    """Monomial description of the Artinian quotient A/I.

    cobasis lists the members of H outside I (a k-basis of A/I), mu
    counts the minimal generators of H outside I (the embedding
    dimension of A/I), and when mu <= 1 the quotient is k[u]/(u^c) with
    cobasis {0, g, ..., (c-1)g}.
    """

    cobasis: tuple
    mu: int
    cyclic_generator: int | None  # set when mu == 1
    cyclic_length: int | None  # set when mu <= 1


def quotient_data(H, I):
    """Cobasis and cyclic structure of A/I for a proper ideal I.

    mu counts minimal semigroup generators outside I; a minimal
    generator is never a sum of two nonzero members, so it lies in
    m^2 + I iff it lies in I, which makes this count the embedding
    dimension of A/I.
    """
    if not I.is_proper_ideal():
        raise ImproperIdealError("%r is not a proper ideal" % (I.generators,))
    # I lies inside H, so H's class i runs from Ap[i] until it enters I
    e = H.multiplicity
    classes = (range(w, v, e) for w, v in zip(H.apery, I.apery))
    cobasis = tuple(sorted(chain.from_iterable(classes)))
    outside = generators_outside(H, I.apery)
    mu = len(outside)

    if mu == 0:
        # every generator is in I, so I contains all of m
        if cobasis != (0,):
            raise CrossCheckError("mu = 0 but A/I is not the residue field")
        return QuotientData(cobasis, 0, None, 1)
    if mu == 1:
        g = outside[0]
        c = len(cobasis)
        # the maximal ideal of A/I is principal on the image of t^g, so
        # the cobasis must be the geometric ladder 0, g, ..., (c-1)g
        if cobasis != tuple(i * g for i in range(c)):
            raise CrossCheckError(
                "mu = 1 but cobasis %r is not generated by %d" % (cobasis, g)
            )
        return QuotientData(cobasis, 1, g, c)
    return QuotientData(cobasis, mu, None, None)
