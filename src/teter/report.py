"""Report documents: a stable JSON shape and a text rendering.

The JSON form is the machine contract: fixed key order, versioned
"schema" field, integers only.  The text form repeats every fact the
JSON carries, so neither output is more authoritative than the other.
"""


def build_report_document(report, certificate=None, timings_ms=None):
    """Assemble the serializable document for one semigroup."""
    H = report.semigroup
    doc = {
        "schema": 1,
        "generators": list(H.generators),
        "invariants": {
            "multiplicity": H.multiplicity,
            "embedding_dimension": H.embedding_dimension,
            "type": H.cm_type,
            "frobenius": H.frobenius,
            "genus": H.genus,
            "gaps": list(H.gaps),
        },
        "verdict": report.verdict,
        "not_teter_reason": report.not_teter_reason,
        "type_condition_holds": report.type_condition_holds,
        "tangent_cone_cm": report.tangent_cone_cm,
        "witness": None,
        "strongly_teter": {
            "status": report.strongly.status,
            "reason": report.strongly.reason,
            "socle_dim": report.strongly.socle_dim,
            "shift": report.strongly.shift,
        },
        "approximation": None,
    }
    if report.witness is not None:
        doc["witness"] = {
            "shift": report.witness.shift,
            "cyclic_generator": report.witness.cyclic_generator,
            "cyclic_length": report.witness.cyclic_length,
            "ideal_generators": list(report.witness.ideal_generators),
            "cobasis": list(report.witness.cobasis),
        }
    if certificate is not None:
        doc["approximation"] = {
            "multiplicity": certificate.multiplicity,
            "gorenstein": certificate.gorenstein,
            "socle_dim": certificate.socle_dim,
            "graded_socle_dim": certificate.graded_socle_dim,
            "hilbert": list(certificate.hilbert),
            "shift": certificate.shift,
            "precision": certificate.precision,
            "precisions_checked": list(certificate.precisions_checked),
            "primes": list(certificate.primes),
            # schema 1 keeps the field; no computed value depends on a seed
            "seed": 0,
            "status": certificate.status,
        }
    if timings_ms is not None:
        doc["timings_ms"] = {k: int(v) for k, v in timings_ms.items()}
    return doc


def _show(value):
    if value is None:
        return "-"
    if value is True:
        return "yes"
    if value is False:
        return "no"
    if isinstance(value, list):
        return ", ".join(str(v) for v in value) if value else "(none)"
    return str(value)


def render_text(doc):
    """Human rendering; every fact in the JSON document appears once."""
    lines = []
    put = lines.append
    put("schema %d" % doc["schema"])
    put("semigroup <%s>" % ", ".join(str(g) for g in doc["generators"]))
    inv = doc["invariants"]
    put("  multiplicity:        %s" % _show(inv["multiplicity"]))
    put("  embedding dimension: %s" % _show(inv["embedding_dimension"]))
    put("  type:                %s" % _show(inv["type"]))
    put("  Frobenius number:    %s" % _show(inv["frobenius"]))
    put("  genus:               %s" % _show(inv["genus"]))
    put("  gaps:                %s" % _show(inv["gaps"]))
    put("verdict: %s" % doc["verdict"])
    put("  not-Teter reason:    %s" % _show(doc["not_teter_reason"]))
    put("  type condition:      %s" % _show(doc["type_condition_holds"]))
    put("  tangent cone CM:     %s" % _show(doc["tangent_cone_cm"]))
    wit = doc["witness"]
    if wit is None:
        put("witness: none")
    else:
        put("witness: shift %d" % wit["shift"])
        put("  cyclic generator:    %s" % _show(wit["cyclic_generator"]))
        put("  cyclic length:       %s" % _show(wit["cyclic_length"]))
        put("  ideal generators:    %s" % _show(wit["ideal_generators"]))
        put("  cobasis:             %s" % _show(wit["cobasis"]))
    strong = doc["strongly_teter"]
    put("strongly Teter: %s" % strong["status"])
    put("  reason:              %s" % _show(strong["reason"]))
    put("  socle dimension:     %s" % _show(strong["socle_dim"]))
    put("  shift:               %s" % _show(strong["shift"]))
    appr = doc["approximation"]
    if appr is None:
        put("approximation: none")
    else:
        put("approximation: %s" % appr["status"])
        put("  multiplicity:        %s" % _show(appr["multiplicity"]))
        put("  Gorenstein:          %s" % _show(appr["gorenstein"]))
        put("  socle dimension:     %s" % _show(appr["socle_dim"]))
        put("  graded socle dim:    %s" % _show(appr["graded_socle_dim"]))
        put("  lengths:             %s" % _show(appr["hilbert"]))
        put("  shift:               %s" % _show(appr["shift"]))
        put("  precision:           %s" % _show(appr["precision"]))
        put("  precisions checked:  %s" % _show(appr["precisions_checked"]))
        put("  primes:              %s" % _show(appr["primes"]))
        put("  seed:                %s" % _show(appr["seed"]))
    if "timings_ms" in doc:
        pairs = ", ".join("%s %d" % (k, v) for k, v in doc["timings_ms"].items())
        put("timings (ms): %s" % pairs)
    return "\n".join(lines)
