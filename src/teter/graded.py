"""Tangent cone tests and the graded module of a filtered ideal.

The associated graded ring of A = k[[H]] is monomial: it has one basis
element per member h, in degree ord(h), and the initial form of t^n
acts by h -> h + n exactly when ord(h + n) = ord(h) + 1.  That makes
Cohen-Macaulayness of the cone, and socles of the quotients used by the
strongly-Teter test, finite combinatorial questions.
"""

from dataclasses import dataclass

from .errors import CrossCheckError, ImproperIdealError, TangentConeNotCMError
from .ideals import RelativeIdeal
from .semigroup import NumericalSemigroup


def _cm_window(H):
    # Deep-probe stabilization bound: for w + me past (e-1) * (sum of
    # the other generators), ord(w + (m+1)e) = ord(w + me) + 1 always
    # holds, so any additivity failure shows up at or below it.  The
    # second term keeps the window generous for tiny semigroups.
    e = H.multiplicity
    b1 = (e - 1) * sum(g for g in H.generators if g != e)
    return max(b1, 2 * (H.frobenius + e) + H.generators[-1])


def assoc_graded_is_cm(H):
    """Whether the associated graded ring of k[[H]] is Cohen-Macaulay.

    Equivalent to the initial form of t^e being a nonzerodivisor, i.e.
    ord(h + e) = ord(h) + 1 for every member h.  Two complete finite
    criteria are evaluated: one deep probe per Apery class of e, and a
    defensive single-step scan over the whole stabilization window.
    They agree on all inputs; a disagreement is an internal error, not
    a property of the semigroup.  Both read one ord table, built once
    through window + e; it grows a block of e entries at a time, since
    every generator is at least e and a block's entries depend only on
    earlier ones.  The scan compares the table with itself shifted by
    e.  Both run once per semigroup: the verdict is kept on the
    instance (as ``_cone_cm``, set only here), so later calls (from
    ``build_graded_model``, say) cost nothing.
    """
    if "_cone_cm" in vars(H):
        return H._cone_cm
    if H.embedding_dimension == 1:
        return True
    e = H.multiplicity
    window = _cm_window(H)
    # window > F, so window + e is a member and ord does not raise
    H.ord(window + e)

    fast = True
    for w in H.apery_set(e):
        # ord(w + me) - m is nondecreasing in m and constant beyond the
        # window, so additivity at one deep probe settles the class.
        m = max(1, (window - w) // e + 1)
        if H.ord(w + m * e) != H.ord(w) + m:
            fast = False
            break

    # t[h] >= 0 exactly for the members h
    t = H._ord
    slow = all(b == a + 1 for a, b in zip(t[: window + 1], t[e:]) if a >= 0)

    if fast != slow:
        raise CrossCheckError(
            "tangent cone criteria disagree for %r (probe %r, scan %r)"
            % (H, fast, slow)
        )
    H._cone_cm = fast
    return fast


@dataclass(frozen=True)
class GradedModel:
    """The filtration module of a proper ideal J, modulo the degree-one
    action of t^e's initial form.

    Under a Cohen-Macaulay cone that action is injective on the module,
    so the quotient has the finite monomial basis {j in J : j - e not
    in J} (exactly e elements, one per residue class), each in degree
    ord(j).
    """

    semigroup: NumericalSemigroup
    ideal: RelativeIdeal
    apery_basis: tuple


def build_graded_model(H, J):
    """Model the graded module of J ∩ m^n degrees, quotiented by x*.

    Requires J proper and the tangent cone Cohen-Macaulay (otherwise
    the quotient has no finite monomial basis and the strongly-Teter
    verdict is already settled).
    """
    if not J.is_proper_ideal():
        raise ImproperIdealError("%r is not a proper ideal" % (J.generators,))
    if not assoc_graded_is_cm(H):
        raise TangentConeNotCMError(
            "tangent cone of %r is not Cohen-Macaulay" % (H,)
        )
    e = H.multiplicity
    # least J-member of each residue class sits below F_J + e, and
    # F_J <= F + min generator of J
    top = H.frobenius + min(J.generators) + e
    basis = []
    for j in range(top + 1):
        if j in J and j - e not in J:
            basis.append(j)
    if len(basis) != e:
        raise CrossCheckError(
            "Apery basis of %r has %d elements, expected %d"
            % (J.generators, len(basis), e)
        )
    # CM of the cone gives ord(j + e) = ord(j) + 1 for every member,
    # j included; re-check on the basis to guard the transcription.
    for j in basis:
        if H.ord(j + e) != H.ord(j) + 1:
            raise CrossCheckError("degree-one action fails additivity at %d" % j)
    return GradedModel(H, J, tuple(basis))


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
