"""Acceptance suite: seven pinned end-to-end checks.

Every equality is exact integer equality.  Each criterion reports one
PASS/FAIL line in the terminal summary (rendered by conftest.py), with
elapsed time, so a run documents itself.
"""

import time
from pathlib import Path

import oracle
from teter import (
    NumericalSemigroup,
    assoc_graded_is_cm,
    build_approximation,
    build_graded_model,
    canonical_ideal,
    monomial_teter_witness,
    socle_dim_mod_xstar,
    teter_check,
    verify_approximation,
)

RESULTS = []

GENUS_COUNTS = [1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343]


class _Criterion:
    """Collects one summary line; a time budget overrun is a failure."""

    def __init__(self, num, budget=None):
        self.num = num
        self.budget = budget
        self.detail = ""

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is not None:
            RESULTS.append("criterion %d: FAIL - %s" % (self.num, exc))
            return False
        if self.budget is not None and elapsed > self.budget:
            RESULTS.append(
                "criterion %d: FAIL - took %.2fs, budget %.2fs"
                % (self.num, elapsed, self.budget)
            )
            raise AssertionError("criterion %d exceeded its time budget" % self.num)
        RESULTS.append(
            "criterion %d: PASS - %s [%.2fs]" % (self.num, self.detail, elapsed)
        )
        return False


def test_criterion_1_teter_with_length_three_quotient():
    with _Criterion(1, budget=0.1) as c:
        r = teter_check(NumericalSemigroup([3, 4, 5]))
        assert r.verdict == "Teter"
        assert r.witness.shift == 6
        assert r.witness.cyclic_generator == 3
        assert r.witness.cyclic_length == 3
        assert r.witness.ideal_generators == (4, 5)
        assert r.witness.cobasis == (0, 3, 6)
        c.detail = "<3,4,5> is Teter at shift 6, cyclic quotient (3, 3)"


def test_criterion_2_teter_with_non_cm_cone():
    with _Criterion(2, budget=0.1) as c:
        r = teter_check(NumericalSemigroup([4, 5, 11]))
        assert r.verdict == "Teter"
        assert r.witness.shift == 11
        assert r.witness.cyclic_generator == 11
        assert r.witness.cyclic_length == 2
        assert not r.tangent_cone_cm
        assert r.strongly.status == "No"
        assert r.strongly.reason == "TangentConeNotCM"
        c.detail = "<4,5,11> is Teter at shift 11 but not strongly (cone not CM)"


def test_criterion_3_type_bound_exclusion():
    with _Criterion(3, budget=0.1) as c:
        H = NumericalSemigroup([5, 6, 7, 9])
        assert H.embedding_dimension == 4
        assert H.cm_type == 2
        r = teter_check(H)
        assert r.verdict == "NotTeter"
        assert r.not_teter_reason == "TypeBound"
        assert r.witness is None
        c.detail = "<5,6,7,9> excluded: type 2 != embedding dimension 4 - 1"


def test_criterion_4_verified_approximations():
    with _Criterion(4) as c:
        expected = {
            (3, 4, 5): (6, 4, (40, 50), (1, 4, 8, 12, 16, 20, 24, 28)),
            (4, 5, 11): (11, 5, (88, 110), (1, 4, 8, 13, 18, 23, 28, 33)),
        }
        for gens, (shift, e_b, precisions, hilbert) in expected.items():
            H = NumericalSemigroup(list(gens))
            start = time.perf_counter()
            cert = verify_approximation(H, shift)
            elapsed = time.perf_counter() - start
            assert elapsed < 2.0, "verification of %r took %.2fs" % (gens, elapsed)
            assert cert.multiplicity == e_b == H.multiplicity + 1
            assert cert.hilbert == hilbert
            assert cert.hilbert[0] == 1
            assert cert.gorenstein and cert.socle_dim == 1
            assert cert.precisions_checked == precisions
            assert cert.primes == (32003, 65521)
            assert cert.status == "numerically-verified"
        c.detail = "pullback rings verified twice over, e = 4 and 5, socle 1"


def test_criterion_5_graded_socle_agreement():
    with _Criterion(5, budget=2.0) as c:
        H = NumericalSemigroup([3, 4, 5])
        r = teter_check(H)
        shift = r.strongly.shift
        assert shift == 5
        J = canonical_ideal(H).shift(shift)
        graded_side = socle_dim_mod_xstar(build_graded_model(H, J))
        model_side = build_approximation(H, shift).graded_socle_of_reduction()
        assert graded_side == model_side == 1
        c.detail = "graded socle 1 on both sides at the certifying shift 5"


def test_criterion_6_exhaustive_small_genus_audit():
    with _Criterion(6, budget=60.0) as c:
        counts = {}
        witnessed = 0
        for genus, gens in oracle.enumerate_semigroups(11):
            counts[genus] = counts.get(genus, 0) + 1
            raw = list(gens)
            H = NumericalSemigroup(raw)
            assert H.generators == gens
            assert H.genus == genus

            bound = oracle.bf_bound(raw)
            table = oracle.bf_member_table(raw, 2 * bound)
            assert all(
                H.contains(n) == bool(table[n]) for n in range(0, 2 * bound, 7)
            )
            assert list(H.gaps) == oracle.bf_gaps(raw)
            assert list(H.pseudo_frobenius) == oracle.bf_pseudo_frobenius(raw)
            assert H.cm_type == len(H.pseudo_frobenius)
            if H.frobenius >= 0:
                omega = canonical_ideal(H)
                assert list(omega.generators) == oracle.bf_canonical_generators(raw)
                if H.is_gorenstein:
                    assert len(omega.generators) == 1

            assert assoc_graded_is_cm(H) == oracle.bf_tangent_cone_cm(raw)

            ords = oracle.bf_ord_table(raw, 2 * bound)
            for n in range(0, 2 * bound, 11):
                if table[n]:
                    assert H.ord(n) == int(ords[n])

            if not H.is_gorenstein:
                hit = monomial_teter_witness(H)
                want = oracle.bf_teter_scan(raw)
                if hit is None:
                    assert want is None
                else:
                    s, data = hit
                    assert want == (s, list(data.cobasis))
                    assert oracle.bf_teter_scan(raw, 3) == want
                    assert H.cm_type == H.embedding_dimension - 1
                    witnessed += 1

        assert [counts.get(g, 0) for g in range(12)] == GENUS_COUNTS
        total = sum(counts.values())
        assert total == sum(GENUS_COUNTS) == 821
        assert total >= 670
        c.detail = (
            "all %d semigroups of genus <= 11 match brute force"
            " (%d with witness)" % (total, witnessed)
        )


def test_criterion_7_scope_statement():
    with _Criterion(7) as c:
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text()
        for phrase in (
            "out of scope",
            "finite representation type",
            "dimension two or higher",
            "property-based",
        ):
            assert phrase in text, "missing scope phrase: %r" % phrase
        c.detail = "scope statement present in README"
