import json

from teter import (
    NumericalSemigroup,
    build_report_document,
    render_text,
    teter_check,
    verify_approximation,
)


def full_document():
    H = NumericalSemigroup([3, 4, 5])
    report = teter_check(H)
    cert = verify_approximation(H, report.witness.shift)
    return build_report_document(report, cert, timings_ms={"analysis": 12.7})


def test_document_round_trips_through_json():
    doc = full_document()
    assert json.loads(json.dumps(doc)) == doc


def test_top_level_key_order_is_stable():
    doc = full_document()
    assert list(doc) == [
        "schema",
        "generators",
        "invariants",
        "verdict",
        "not_teter_reason",
        "type_condition_holds",
        "tangent_cone_cm",
        "witness",
        "strongly_teter",
        "approximation",
        "timings_ms",
    ]
    assert doc["schema"] == 1


def test_document_contents():
    doc = full_document()
    assert doc["generators"] == [3, 4, 5]
    assert doc["invariants"] == {
        "multiplicity": 3,
        "embedding_dimension": 3,
        "type": 2,
        "frobenius": 2,
        "genus": 2,
        "gaps": [1, 2],
    }
    assert doc["verdict"] == "Teter"
    assert doc["witness"]["shift"] == 6
    assert doc["witness"]["cobasis"] == [0, 3, 6]
    assert doc["strongly_teter"] == {
        "status": "Yes",
        "reason": None,
        "socle_dim": 1,
        "shift": 5,
    }
    assert doc["approximation"]["multiplicity"] == 4
    assert doc["approximation"]["status"] == "numerically-verified"
    # timings are coerced to whole milliseconds
    assert doc["timings_ms"] == {"analysis": 12}


def test_optional_sections_default_to_absent():
    report = teter_check(NumericalSemigroup([5, 6, 7, 9]))
    doc = build_report_document(report)
    assert doc["witness"] is None
    assert doc["approximation"] is None
    assert "timings_ms" not in doc
    assert doc["verdict"] == "NotTeter"
    assert doc["not_teter_reason"] == "TypeBound"


def test_render_text_carries_every_fact():
    doc = full_document()
    text = render_text(doc)
    assert "semigroup <3, 4, 5>" in text
    assert "multiplicity:        3" in text
    assert "Frobenius number:    2" in text
    assert "gaps:                1, 2" in text
    assert "verdict: Teter" in text
    assert "witness: shift 6" in text
    assert "cobasis:             0, 3, 6" in text
    assert "strongly Teter: Yes" in text
    assert "socle dimension:     1" in text
    assert "approximation: numerically-verified" in text
    assert "precisions checked:  40, 50" in text
    assert "primes:              32003, 65521" in text
    assert "timings (ms): analysis 12" in text


def test_render_text_placeholders():
    report = teter_check(NumericalSemigroup([3, 4]))
    text = render_text(build_report_document(report))
    assert "verdict: Gorenstein" in text
    assert "witness: none" in text
    assert "approximation: none" in text
    assert "strongly Teter: NotApplicable" in text
    assert "not-Teter reason:    -" in text
