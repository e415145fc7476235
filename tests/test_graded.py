import pytest

import oracle
from teter import (
    CrossCheckError,
    NumericalSemigroup,
    RelativeIdeal,
    TangentConeNotCMError,
    assoc_graded_is_cm,
    build_graded_model,
    canonical_ideal,
    socle_dim_mod_xstar,
)


def test_cone_cm_frozen():
    assert assoc_graded_is_cm(NumericalSemigroup([3, 4, 5]))
    assert assoc_graded_is_cm(NumericalSemigroup([1]))
    assert assoc_graded_is_cm(NumericalSemigroup([6, 9, 20]))
    assert not assoc_graded_is_cm(NumericalSemigroup([4, 5, 11]))


def test_cone_cm_needs_the_deep_probe():
    # every single addition of the multiplicity to an Apery element of
    # <10,11,24> gains one order step, yet the cone is not CM: the
    # failure (ord(44) = 4 vs ord(34) + 1 = 3) sits two steps up the
    # ladder, so a one-step check at the Apery set alone would lie
    H = NumericalSemigroup([10, 11, 24])
    e = H.multiplicity
    for w in H.apery_set(e):
        assert H.ord(w + e) == H.ord(w) + 1
    assert H.ord(34) == 2 and H.ord(44) == 4
    assert not assoc_graded_is_cm(H)


def test_apery_table_stops_at_the_first_row_that_steps_by_e():
    # every stored row but the first differs from the one before by
    # something other than e, and the row after the last is the last
    # plus e (read off the brute-force ord table)
    for gens in ([5, 6, 13], [107, 110, 136], [4, 5, 11], [3, 4, 5], [10, 11, 24]):
        H = NumericalSemigroup(gens)
        e = H.multiplicity
        rows = H.apery_table
        assert 1 <= len(rows) <= e
        for low, high in zip(rows, rows[1:]):
            assert high != tuple(a + e for a in low)
        ords = oracle.bf_ord_table(gens, max(rows[-1]) + e)
        r = len(rows) - 1
        after = [
            min(h for h in range(i, len(ords), e) if ords[h] > r) for i in range(e)
        ]
        assert after == [a + e for a in rows[-1]]


def test_scan_disagreement_raises():
    # corrupt one cached table entry so that only one criterion moves:
    # a_0[i] + e for the class i of a minimal generator g (ord 1).  The
    # class then steps down to g at row 1 and by e after it, which
    # additivity lets pass, while the Hilbert function at degree 0 loses
    # the class and drops to 0 against #{w in Ap : ord w = 0} = 1.
    # On <3,4,5>, with rows (0,4,5) and (3,4,5), this is a_0[1] = 7.
    for gens in ([3, 4, 5], [6, 9, 20]):
        H = NumericalSemigroup(gens)
        assert assoc_graded_is_cm(H)
        e = H.multiplicity
        i = H.generators[1] % e
        first, *rest = H.apery_table
        vars(H)["apery_table"] = (first[:i] + (first[i] + e,) + first[i + 1:], *rest)
        with pytest.raises(CrossCheckError):
            assoc_graded_is_cm(H)


@pytest.mark.parametrize(
    "gens, column",
    [
        ([3, 4], (0, 3, 9)),
        ([5, 7, 9], (0, 5, 15)),
        ([6, 9, 20], (0, 6, 18, 24)),
        # a step of 0 and then 2e rises as far as two steps of e
        ([6, 9, 20], (0, 6, 6, 18)),
    ],
)
def test_corrupt_step_after_the_apery_element_is_not_additive(gens, column):
    # class 0 leaves its Apery element 0 at row 1 and then steps by e;
    # corrupted to step by 2e after that, it fails additivity, and the
    # Hilbert function at degree 1 with it, so the answer is no
    H = NumericalSemigroup(gens)
    assert assoc_graded_is_cm(H)
    rows = H.apery_table
    assert len(rows) == len(column)
    vars(H)["apery_table"] = tuple((a,) + row[1:] for a, row in zip(column, rows))
    assert assoc_graded_is_cm(H) is False


def test_leading_run_ends_where_the_column_first_leaves():
    # a corrupt last row puts class 0 back on its Apery element: (0, e, 0).
    # The leading run is 1 (ord(0) = 0, as ord bisects it), and the rest
    # (e, 0) is not additive; the Hilbert function fails at degree 1 too.
    # Counting the 0s would give a run of 2, an additive rest and a
    # Hilbert function off at degree 0, and raise instead
    for gens in ([5, 7, 9], [3, 4], [4, 6, 9]):
        H = NumericalSemigroup(gens)
        assert assoc_graded_is_cm(H)
        first, second, third = H.apery_table
        vars(H)["apery_table"] = (first, second, (0,) + third[1:])
        assert assoc_graded_is_cm(H) is False


def test_cone_test_reads_ord_without_a_call_per_member(monkeypatch):
    # both criteria read the degrees of the Apery elements off the
    # table's columns, so the cone test never calls ord
    calls = []
    ord_ = NumericalSemigroup.ord

    def counting_ord(self, h):
        calls.append(h)
        return ord_(self, h)

    monkeypatch.setattr(NumericalSemigroup, "ord", counting_ord)
    for gens in ([4, 5, 6, 7], [107, 110, 136]):
        H = NumericalSemigroup(gens)
        calls.clear()
        assoc_graded_is_cm(H)
        assert calls == []


def test_minimal_multiplicity_is_cm():
    # multiplicity equal to embedding dimension forces a CM cone
    for gens in ([4, 5, 6, 7], [3, 4, 5], [5, 6, 7, 8, 9]):
        H = NumericalSemigroup(gens)
        assert H.multiplicity == H.embedding_dimension
        assert assoc_graded_is_cm(H)


def test_graded_model_basis():
    H = NumericalSemigroup([3, 4, 5])
    J = canonical_ideal(H).shift(6)
    model = build_graded_model(H, J)
    assert model.apery_basis == (4, 5, 9)
    assert [H.ord(j) for j in model.apery_basis] == [1, 1, 3]


def test_corrupt_ideal_apery_entry_raises():
    # the basis is J's cached Apery set, re-checked on J's generators:
    # moving one entry up or down by e, or out of its class, is caught
    for gens, shift in ((3, 4, 5), 5), ((4, 5, 6, 7), 8), ((3, 1000, 1001), 1998):
        H = NumericalSemigroup(gens)
        e = H.multiplicity
        for i in range(e):
            for delta in (e, -e, 1):
                J = canonical_ideal(H).shift(shift)
                apery = list(J.apery)
                apery[i] += delta
                vars(J)["apery"] = tuple(apery)
                with pytest.raises(CrossCheckError):
                    build_graded_model(H, J)
        build_graded_model(H, canonical_ideal(H).shift(shift))


def test_graded_model_needs_cm_cone():
    H = NumericalSemigroup([4, 5, 11])
    with pytest.raises(TangentConeNotCMError):
        build_graded_model(H, canonical_ideal(H).shift(11))
    # a verdict handed in by the caller is held to the same guard
    with pytest.raises(TangentConeNotCMError):
        build_graded_model(H, canonical_ideal(H).shift(11), cone_cm=False)


def test_apery_basis_count_is_multiplicity():
    for gens, shift in ((3, 4, 5), 5), ((3, 4, 5), 6), ((4, 5, 6, 7), 7), ((4, 5, 6, 7), 8):
        H = NumericalSemigroup(gens)
        model = build_graded_model(H, canonical_ideal(H).shift(shift))
        assert len(model.apery_basis) == H.multiplicity


def test_socle_dimension_depends_on_the_shift():
    # both shifts carry valid witnesses, but the filtration socle is
    # alignment-sensitive; only the small shift certifies dimension one
    H = NumericalSemigroup([3, 4, 5])
    omega = canonical_ideal(H)
    assert socle_dim_mod_xstar(build_graded_model(H, omega.shift(5))) == 1
    assert socle_dim_mod_xstar(build_graded_model(H, omega.shift(6))) == 3


def test_socle_of_principal_ideal_in_gorenstein():
    H = NumericalSemigroup([3, 4])
    J = RelativeIdeal.from_generators(H, [3])
    model = build_graded_model(H, J)
    assert model.apery_basis == (3, 7, 11)
    assert socle_dim_mod_xstar(model) == 1


def test_maximal_ideal_filtration():
    # J = m gives the positive part of the cone; mod x* only degree one
    # is left, where everything is socle
    H = NumericalSemigroup([3, 4, 5])
    J = RelativeIdeal.from_generators(H, H.generators)
    model = build_graded_model(H, J)
    assert model.apery_basis == (3, 4, 5)
    assert socle_dim_mod_xstar(model) == 3
