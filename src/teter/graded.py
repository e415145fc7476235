"""Tangent cone tests and the graded module of a filtered ideal.

The associated graded ring of A = k[[H]] is monomial: it has one basis
element per member h, in degree ord(h), and the initial form of t^n
acts by h -> h + n exactly when ord(h + n) = ord(h) + 1.  That makes
Cohen-Macaulayness of the cone, and socles of the quotients used by the
strongly-Teter test, finite combinatorial questions.
"""

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from .errors import CrossCheckError, ImproperIdealError, TangentConeNotCMError
from .ideals import RelativeIdeal
from .semigroup import NumericalSemigroup


def assoc_graded_is_cm(H):
    """Whether the associated graded ring of k[[H]] is Cohen-Macaulay.

    That is, ord(h + e) = ord(h) + 1 for every member h.  Each class of
    ``H.apery_table`` steps by 0 or e from row to row, and by e past the
    last row, so two finite criteria read it (Barucci and Froberg, J.
    Algebra 304, 2006): additivity, a class that has left its Apery
    element steps by e at every later row; and the Hilbert function,
    sum_i (a_(n+1)[i] - a_n[i]) / e = #{w in Ap : ord w <= n} for all n.
    Both read the table a column at a time.  A column stays on its Apery
    element for its leading run of ord(a_0[i]) + 1 rows (ord never
    passes the last row there), found by one bisection as ``ord`` finds
    it; additivity compares the rest of the column with one range.  The
    criteria disagree only on an internal error; each call is
    O(e * rows).
    """
    rows = H.apery_table
    e = H.multiplicity
    additive = True
    # counts[d] = #{w in Ap : ord w = d}; its running sums are the right-hand sides
    counts = [0] * len(rows)
    for column in zip(*rows):
        run = bisect_right(column, column[0])
        counts[run - 1] += 1
        # past its run the column must climb from rest[0] by e a row
        rest = column[run:]
        if len(rest) > 1 and rest != tuple(range(rest[0], rest[-1] + 1, e)):
            additive = False
    hilbert = all(
        (sum(high) - sum(low)) // e == at_most
        for low, high, at_most in zip(rows, rows[1:], accumulate(counts))
    )
    if additive != hilbert:
        raise CrossCheckError(
            "tangent cone criteria disagree for %r (additivity %r, Hilbert %r)"
            % (H, additive, hilbert)
        )
    return additive


@dataclass(frozen=True)
class GradedModel:
    """The filtration module of a proper ideal J, modulo the degree-one
    action of t^e's initial form.

    Under a Cohen-Macaulay cone that action is injective on the module,
    so the quotient has the finite monomial basis {j in J : j - e not
    in J}, the Apery set of J (one element per residue class mod e),
    each in degree ord(j).
    """

    semigroup: NumericalSemigroup
    ideal: RelativeIdeal
    apery_basis: tuple


def build_graded_model(H, J, cone_cm=None):
    """Model the graded module of J ∩ m^n degrees, quotiented by x*.

    Requires J proper and the tangent cone Cohen-Macaulay (otherwise
    the quotient has no finite monomial basis and the strongly-Teter
    verdict is already settled).  ``cone_cm`` is the verdict of
    ``assoc_graded_is_cm(H)`` when the caller holds it already.
    """
    e = H.multiplicity
    for i, j in enumerate(J.apery):
        # re-check on J's generators: j is in J, j - e is not, j = i mod e
        member = any(j - g in H for g in J.generators)
        least = not any(j - e - g in H for g in J.generators)
        if j % e != i or not member or not least:
            raise CrossCheckError(
                "%d is not the least element of %r in its class" % (j, J.generators)
            )
    # is_proper_ideal reads the Apery set just re-checked
    if not J.is_proper_ideal():
        raise ImproperIdealError("%r is not a proper ideal" % (J.generators,))
    if cone_cm is None:
        cone_cm = assoc_graded_is_cm(H)
    if not cone_cm:
        raise TangentConeNotCMError(
            "tangent cone of %r is not Cohen-Macaulay" % (H,)
        )
    for j in J.apery:
        # CM of the cone gives ord(j + e) = ord(j) + 1 for every member,
        # j included; re-check on the basis to guard the transcription.
        if H.ord(j + e) != H.ord(j) + 1:
            raise CrossCheckError("degree-one action fails additivity at %d" % j)
    return GradedModel(H, J, tuple(sorted(J.apery)))


def socle_dim_mod_xstar(model):
    """Dimension of the socle of the quotient module.

    A basis class [j] is in the socle iff every degree-one generator
    action kills it: either ord(j + n) != ord(j) + 1 (the product is
    zero in the graded module) or j + n - e is in J (the product is a
    multiple of x*).
    """
    H = model.semigroup
    J = model.ideal
    e = H.multiplicity
    dim = 0
    for j in model.apery_basis:
        oj = H.ord(j)
        if all(H.ord(j + n) != oj + 1 or (j + n - e) in J for n in H.generators):
            dim += 1
    return dim
