"""`analyze --json --no-timings` output stays byte-identical.

The files under `golden/` hold the output recorded before the
semigroup core was rebuilt on the Apéry set (`47,65,124`, `50,83,134`
and `10,11,24`: before `ord` and the tangent-cone test moved onto the
Apéry table of the powers of m; `3,1000,1001`: before the cobasis and
the graded basis were read off the ideal's Apéry set; `4,5,11
--approximate`: before the socle and the graded socle moved into B/yB);
any change to a verdict, an invariant, a witness or a certificate shows
up as a diff here.
"""

from pathlib import Path

import pytest

from teter.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = [
    ("3,4,5",),
    ("4,5,11",),
    ("4,5,6,7",),
    ("5,6,7,9",),
    ("3,4",),
    ("107,110,136",),
    ("10,11,24",),
    ("47,65,124",),
    ("50,83,134",),
    # F = 998, a witness of cyclic length 667, strongly No at socle
    # dimension 3: both Apery-set reads on a wide window
    ("3,1000,1001",),
    ("3,4,5", "--approximate"),
    # graded socle dimension 2, the only value other than 1 among the
    # pinned approximations
    ("4,5,11", "--approximate"),
]


def _golden_name(case):
    name = "analyze-" + case[0].replace(",", "-")
    if "--approximate" in case:
        name += "-approximate"
    return name + ".json"


@pytest.mark.parametrize("case", CASES, ids=_golden_name)
def test_analyze_output_matches_golden(capsys, case):
    gens, *flags = case
    assert main(["analyze", gens, "--json", "--no-timings", *flags]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / _golden_name(case)).read_text()
