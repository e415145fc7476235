import argparse
import json

import pytest

import teter.cli
from teter import CrossCheckError
from teter.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_json(capsys):
    code, out, _ = run(capsys, "analyze", "3,4,5", "--json", "--no-timings")
    assert code == 0
    doc = json.loads(out)
    assert doc["generators"] == [3, 4, 5]
    assert doc["verdict"] == "Teter"
    assert doc["witness"]["shift"] == 6
    assert doc["strongly_teter"]["status"] == "Yes"
    assert doc["approximation"] is None
    assert "timings_ms" not in doc


def test_analyze_text(capsys):
    code, out, _ = run(capsys, "analyze", "3,4,5")
    assert code == 0
    assert "verdict: Teter" in out
    assert "witness: shift 6" in out
    assert "timings (ms):" in out


def test_analyze_space_separated(capsys):
    _, a, _ = run(capsys, "analyze", "3", "4", "5", "--json", "--no-timings")
    _, b, _ = run(capsys, "analyze", "3,4,5", "--json", "--no-timings")
    assert a == b


def test_analyze_timings_are_integers(capsys):
    code, out, _ = run(capsys, "analyze", "3,4,5", "--json")
    assert code == 0
    doc = json.loads(out)
    assert isinstance(doc["timings_ms"]["analysis"], int)


def test_analyze_with_approximation(capsys):
    code, out, _ = run(
        capsys, "analyze", "3,4,5", "--json", "--no-timings", "--approximate"
    )
    assert code == 0
    appr = json.loads(out)["approximation"]
    assert appr["multiplicity"] == 4
    assert appr["status"] == "numerically-verified"
    assert appr["primes"] == [32003, 65521]


@pytest.mark.parametrize(
    "gens, shift", [("7,8,17,18,19", 28), ("7,8,17,18,27", 27)]
)
def test_analyze_approximation_with_a_late_reduction_number(capsys, gens, shift):
    # the Hilbert differences reach l(B/yB) = 8 only at the last degree or
    # two the default precision certifies
    code, out, _ = run(
        capsys, "analyze", gens, "--json", "--no-timings", "--approximate"
    )
    assert code == 0
    appr = json.loads(out)["approximation"]
    assert (appr["shift"], appr["multiplicity"]) == (shift, 8)
    assert appr["socle_dim"] == 1


def test_analyze_approximation_without_witness_is_skipped(capsys):
    code, out, err = run(
        capsys, "analyze", "5,6,7,9", "--json", "--no-timings", "--approximate"
    )
    assert code == 0
    assert json.loads(out)["approximation"] is None
    assert "approximation skipped" in err


def test_analyze_custom_primes(capsys):
    code, out, _ = run(
        capsys,
        "analyze", "3,4,5", "--json", "--no-timings", "--approximate",
        "--primes", "101,103",
    )
    assert code == 0
    appr = json.loads(out)["approximation"]
    assert appr["primes"] == [101, 103]
    assert appr["multiplicity"] == 4


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    # a batch pass is one main() call, but a process makes many: the
    # second call reuses the parser, and its defaults are its own, so the
    # first call's primes do not carry over
    builds = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    teter.cli._build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    argv = ("analyze", "3,4,5", "--approximate", "--json", "--no-timings")
    _, first, _ = run(capsys, *argv, "--primes", "2,3")
    _, second, _ = run(capsys, *argv)
    assert builds.count("teter") == 1
    assert json.loads(first)["approximation"]["primes"] == [2, 3]
    assert json.loads(second)["approximation"]["primes"] == [32003, 65521]


def test_byte_identical_reruns(capsys):
    argv = ("analyze", "3,4,5", "--json", "--no-timings", "--approximate")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "2,4"),  # not coprime
        ("analyze", "abc"),
        ("analyze", ","),
        ("analyze", "3,4,5", "--approximate", "--primes", "4,6"),
        ("analyze", "3,4,5", "--approximate", "--primes", "2147483647,65521"),
        ("batch", "/no/such/file"),
        ("analyze", "2,100000000001"),  # too many gaps to list
        ("analyze", "2,20000001"),
        ("analyze", "3,4,5", "--approximate", "--precision", "100000"),
        ("analyze", "3,4,5", "--approximate", "--precision", "1000000000000"),
        # the moduli are refused even where no approximation would run
        ("analyze", "3,4", "--approximate", "--primes", "70000,3"),
        ("analyze", "5,6,7,9", "--approximate", "--primes", "4,6"),
    ],
)
def test_bad_input_exits_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("analyze", "3,4,5"), ("--window-multiplier", "2")),
        (("batch", "/no/such/file"), ("--window-multiplier", "2")),
        (("analyze", "3,4,5"), ("--seed", "3")),
    ],
    ids=["analyze", "batch", "seed"],
)
def test_window_multiplier_is_refused(capsys, argv, flag):
    # no witness-shift window is left to widen and no parameter is drawn
    # from a seed: argparse refuses the flag before any input is read
    with pytest.raises(SystemExit) as exc:
        main([*argv, *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments: %s" % " ".join(flag) in capsys.readouterr().err


def test_cross_check_failure_exits_3(capsys, monkeypatch):
    def boom(H):
        raise CrossCheckError("synthetic failure")

    monkeypatch.setattr("teter.cli.teter_check", boom)
    code, _, err = run(capsys, "analyze", "3,4,5")
    assert code == 3
    assert "internal cross-check failure" in err


def test_examples_match(capsys):
    code, out, _ = run(capsys, "examples")
    assert code == 0
    assert out.count("MATCH") == 4
    assert "MISMATCH" not in out
    assert "<3,4,5>" in out and "<5,6,7,9>" in out


def test_examples_json(capsys):
    code, out, _ = run(capsys, "examples", "--json")
    assert code == 0
    table = json.loads(out)
    assert len(table) == 4
    assert all(row["match"] for row in table)
    assert table[0]["expected"] == table[0]["computed"]


def test_examples_detect_drift(capsys, monkeypatch):
    drifted = [(gens, dict(expected)) for gens, expected in teter.cli._EXPECTED]
    drifted[0][1]["verdict"] = "Gorenstein"
    monkeypatch.setattr(teter.cli, "_EXPECTED", drifted)
    code, out, _ = run(capsys, "examples")
    assert code == 1
    assert "MISMATCH" in out


def test_batch(capsys, tmp_path):
    source = tmp_path / "inputs.txt"
    source.write_text(
        "# header comment\n"
        "3,4,5\n"
        "2 4   # not coprime\n"
        "\n"
        "4,5,11\n"
    )
    code, out, _ = run(capsys, "batch", str(source), "--no-timings")
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 3
    first, error, last = (json.loads(line) for line in lines)
    assert first["generators"] == [3, 4, 5]
    assert error == {
        "error": error["error"],
        "line": 3,
        "input": "2 4",
    }
    assert last["generators"] == [4, 5, 11]
    # records are compact single lines
    assert ": " not in lines[0]

    code, lenient_out, _ = run(capsys, "batch", str(source), "--no-timings", "--lenient")
    assert code == 0
    assert lenient_out == out


def test_batch_refuses_bad_primes_before_reading(capsys, tmp_path):
    source = tmp_path / "inputs.txt"
    source.write_text("3,4,5\n4,5,11\n")
    code, out, err = run(
        capsys, "batch", str(source), "--approximate", "--primes", "4,6"
    )
    assert code == 2
    assert out == ""
    assert "error: modulus 4 is not prime" in err


def test_batch_empty_file(capsys, tmp_path):
    source = tmp_path / "empty.txt"
    source.write_text("# nothing here\n\n")
    code, out, _ = run(capsys, "batch", str(source))
    assert code == 0
    assert out == ""


def test_entry_exits(monkeypatch, capsys):
    from teter.cli import entry

    monkeypatch.setattr("sys.argv", ["teter", "analyze", "bogus"])
    with pytest.raises(SystemExit) as info:
        entry()
    capsys.readouterr()
    assert info.value.code == 2
