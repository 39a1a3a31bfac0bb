import json
import os
import pathlib
import subprocess
import sys

import pytest

from braidcover import geometry, identities
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
    # every surface prints the verdict and the layer that decided it
    code, out, _ = run(capsys, "wp", "annulus", "2", "t1")
    assert code == EXIT_OK and out == "Nontrivial (action)\n"
    code, out, _ = run(capsys, "wp", "disc", "3", "s1 s1^-1")
    assert code == EXIT_OK and out == "Trivial (action)\n"
    code, out, _ = run(capsys, "wp", "disc", "3", "s1 s2")
    assert code == EXIT_OK and out == "Nontrivial (permutation)\n"
    code, _out, err = run(capsys, "wp", "disc", "3", "q1")
    assert code == EXIT_FAILURE and "error" in err


@pytest.mark.parametrize("word", ["s1 r1", "s1 t1", "r1 r1"])
def test_wp_sphere_rejects_a_rho_or_tau_letter(capsys, word):
    code, out, err = run(capsys, "wp", "s2", "3", word)
    assert code == EXIT_FAILURE
    assert err == f"error: sphere words are sigma-only, got {word}\n"
    assert out == ""


@pytest.mark.parametrize("word", ["t2", "s1 t1 t3^-1"])
def test_wp_annulus_rejects_a_tau_index(capsys, word):
    code, out, err = run(capsys, "wp", "annulus", "2", word)
    assert code == EXIT_FAILURE
    assert err.startswith("error: tau index must be 1") and "Traceback" not in err
    assert out == ""


def test_derive(capsys):
    # with --json, standard output is exactly one JSON document
    code, out, err = run(capsys, "derive", "rn2", "2", "--json")
    assert code == EXIT_OK and err == ""
    doc = json.loads(out)
    assert doc["format"] == "derivation-v1" and (doc["from"], doc["to"]) == ("r2^-1 r2^-1", "s1 s1")
    code, out, _ = run(capsys, "derive", "delta4", "3")
    assert code == EXIT_OK and out.startswith("claim delta4: certified in ")
    code, _out, err = run(capsys, "derive", "nonsense", "2")
    assert code == EXIT_FAILURE and "unknown claim" in err


def test_derive_looks_up_the_label_before_building_claims(capsys, monkeypatch):
    # an unknown label at a large n is reported without building any claim
    # word (every claim together grows as n^3); a known one builds only
    # the words of its own claim
    def refuse(n):
        raise AssertionError("a claim word was built")

    for name in ("element_a", "element_b", "half_twist", "rho_expanded"):
        monkeypatch.setattr(identities, name, refuse)
    code, _out, err = run(capsys, "derive", "nonsense", "406")
    assert code == EXIT_FAILURE and "unknown claim 'nonsense'" in err and "delta4" in err
    claim = identities.claim_builders(406)["rn2"]()
    assert (claim.label, len(claim.source), len(claim.target)) == ("rn2", 2, 810)


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

    # cmd_lift reads the geometry when it runs
    monkeypatch.setattr(geometry, "extract_word", degenerate)
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


_NO_NUMPY = """
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from braidcover.atlas import verify_suite
from braidcover.cli import main
for n in range(2, 6):
    verify_suite(n)
codes = [main(argv) for argv in (["verify", "3"], ["derive", "rn2", "3"],
                                 ["wp", "s2", "3", "s1 s2 s1 s2 s1 s2"],
                                 ["wp", "annulus", "2", "t1"], ["wp", "disc", "3", "s1 s1^-1"],
                                 ["classify", "rp2", "7"],
                                 ["lift", "2", "s1", "--out", sys.argv[1]])]
assert "braidcover.geometry" not in sys.modules
print("codes", codes)
"""


def test_exact_paths_run_without_numpy(tmp_path):
    # the verification suite, certificates, the sphere oracle and the
    # classification never touch the sampled geometry; lift needs it, and
    # says so with exit code 1 instead of a traceback
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", _NO_NUMPY, str(tmp_path / "scene")],
                         capture_output=True, text=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == (
        f"codes {[EXIT_GAPS, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_FAILURE]}")
    assert "Traceback" not in out.stderr
    assert "geometry extra" in out.stderr
