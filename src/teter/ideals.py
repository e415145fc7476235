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
        shifted = RelativeIdeal(self.ambient, tuple(g + s for g in self.generators))
        apery = self.apery
        k = len(apery) - s % len(apery)
        vars(shifted)["apery"] = tuple(a + s for a in apery[k:] + apery[:k])
        return shifted

    def is_proper_ideal(self):
        """True iff I sits inside the maximal ideal: generators are
        positive members, so I is an ideal of the ring and 0 is not in it."""
        return all(g > 0 and g in self.ambient for g in self.generators)


def canonical_ideal(H):
    """The relative ideal {z : -z not in H}, minimally generated by the
    negated pseudo-Frobenius numbers (every gap g lies in f - H for one
    of them, and no f' - f is a member), so the generator count is the
    Cohen-Macaulay type; principal iff Gorenstein.
    """
    if H.frobenius < 0:
        raise FullSemigroupError("the full semigroup has no gaps")
    return RelativeIdeal.from_generators(H, [-f for f in H.pseudo_frobenius])


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
    mu = sum(1 for n in H.generators if n not in I)

    if mu == 0:
        # every generator is in I, so I contains all of m
        if cobasis != (0,):
            raise CrossCheckError("mu = 0 but A/I is not the residue field")
        return QuotientData(cobasis, 0, None, 1)
    if mu == 1:
        g = next(n for n in H.generators if n not in I)
        c = len(cobasis)
        # the maximal ideal of A/I is principal on the image of t^g, so
        # the cobasis must be the geometric ladder 0, g, ..., (c-1)g
        if cobasis != tuple(i * g for i in range(c)):
            raise CrossCheckError(
                "mu = 1 but cobasis %r is not generated by %d" % (cobasis, g)
            )
        return QuotientData(cobasis, 1, g, c)
    return QuotientData(cobasis, mu, None, None)
