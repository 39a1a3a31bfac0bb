import json

import pytest

from braidcover import cli
from braidcover.cli import EXIT_FAILURE, EXIT_GAPS, EXIT_OK, main
from braidcover.covering import NonGenericScene
from braidcover.presentations import Presentation, finite_group_presentation


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_present_roundtrips(capsys):
    code, out, _ = run(capsys, "present", "rp2", "3")
    assert code == EXIT_OK
    p = Presentation.from_text(out)
    assert p.name == "B_3(RP2)"


def test_classify_output(capsys):
    code, out, _ = run(capsys, "classify", "rp2", "7")
    assert code == EXIT_OK
    assert "Dic_56" in out and "Dic_48" in out and "Ostar" in out


def test_enumerate(tmp_path, capsys):
    path = tmp_path / "q8.txt"
    path.write_text(finite_group_presentation("Q8").to_text())
    code, out, _ = run(capsys, "enumerate", str(path))
    assert code == EXIT_OK
    assert "order 8" in out


@pytest.mark.parametrize("text", ["", "presentation Q8\n", "presentation Q8\ns1 s2\n",
                                  "presentation Q8\ngenerators s1 s2\ns1 q2\n"])
def test_enumerate_rejects_malformed_presentation(tmp_path, capsys, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, out, err = run(capsys, "enumerate", str(path))
    assert code == EXIT_FAILURE
    assert err.startswith("error:") and "Traceback" not in err
    assert out == ""


def test_enumerate_overflow_is_gap(tmp_path, capsys):
    # the infinite cyclic group <s1 | > runs the real enumeration past its
    # coset cap (about 0.2 s): enumerate reports a gap, not a crash
    path = tmp_path / "free.txt"
    path.write_text("presentation F1\ngenerators s1\n")
    code, out, err = run(capsys, "enumerate", str(path))
    assert code == EXIT_GAPS
    assert out == ""
    assert err == "enumeration did not close: exceeded max_cosets=100000\n"


def test_enumerate_rejects_a_repeated_generator(tmp_path, capsys):
    path = tmp_path / "z2.txt"
    path.write_text("presentation Z2\ngenerators s1 s1\ns1 s1\n")
    code, out, err = run(capsys, "enumerate", str(path))
    assert code == EXIT_FAILURE
    assert err == "error: repeated generator s1\n" and out == ""


def test_wp_verdicts(capsys):
    code, out, _ = run(capsys, "wp", "s2", "3", "s1 s2 s1 s2 s1 s2")
    assert code == EXIT_OK and "FullTwist" in out
    # an even strand count is decided too: no undecided exit 2
    code, out, _ = run(capsys, "wp", "s2", "4", "s1 s2 s3 " * 4)
    assert code == EXIT_OK and out == "FullTwist (forgetful map)\n"
    code, out, _ = run(capsys, "wp", "annulus", "2", "t1")
    assert code == EXIT_OK and "Nontrivial" in out
    code, out, _ = run(capsys, "wp", "disc", "3", "s1 s1^-1")
    assert code == EXIT_OK and "Trivial" in out
    code, _out, err = run(capsys, "wp", "disc", "3", "q1")
    assert code == EXIT_FAILURE and "error" in err


@pytest.mark.parametrize("word", ["t2", "s1 t1 t3^-1"])
def test_wp_annulus_rejects_a_tau_index(capsys, word):
    code, out, err = run(capsys, "wp", "annulus", "2", word)
    assert code == EXIT_FAILURE
    assert err.startswith("error: tau index must be 1") and "Traceback" not in err
    assert out == ""


def test_derive(capsys):
    code, out, _ = run(capsys, "derive", "rn2", "2", "--json")
    assert code == EXIT_OK
    assert "certified in" in out and '"derivation-v1"' in out
    code, out, _ = run(capsys, "derive", "delta4", "3")
    assert code == EXIT_OK and out.startswith("claim delta4: certified in ")
    code, _out, err = run(capsys, "derive", "nonsense", "2")
    assert code == EXIT_FAILURE and "unknown claim" in err


def test_lift(tmp_path, capsys):
    prefix = str(tmp_path / "scene")
    code, out, _ = run(capsys, "lift", "2", "r1", "--out", prefix)
    assert code == EXIT_OK
    assert "lifted word: s1^-1 s2^-1 s1^-1" in out
    assert (tmp_path / "scene.txt").exists()
    assert (tmp_path / "scene.svg").exists()


@pytest.mark.parametrize("word", ["s1", ""])
def test_lift_needs_a_strand(tmp_path, capsys, word):
    prefix = tmp_path / "scene"
    code, out, err = run(capsys, "lift", "0", word, "--out", str(prefix))
    assert code == EXIT_FAILURE
    assert err.startswith("error:") and "Traceback" not in err
    assert out == "" and not (tmp_path / "scene.txt").exists()


def test_lift_reports_non_generic_scene(tmp_path, monkeypatch, capsys):
    def degenerate(scene):
        raise NonGenericScene("strands coincide in the order functional")

    monkeypatch.setattr(cli, "extract_word", degenerate)
    code, out, err = run(capsys, "lift", "2", "s1 r1", "--out", str(tmp_path / "scene"))
    assert code == EXIT_FAILURE
    assert err.startswith("error:") and "coincide" in err and "Traceback" not in err
    assert out == ""


def test_wp_rejects_non_ascii_digits(capsys):
    code, out, err = run(capsys, "wp", "disc", "2", "s\u0661")
    assert code == EXIT_FAILURE
    assert err.startswith("error: malformed token") and out == ""


def test_verify_and_report(capsys):
    code, out, _ = run(capsys, "verify", "2")
    assert code == EXIT_OK
    assert "identity-certificates" in out
    code, out, _ = run(capsys, "report", "2", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["n"] == 2


def test_requires_subcommand(capsys):
    with pytest.raises(SystemExit):
        main([])
