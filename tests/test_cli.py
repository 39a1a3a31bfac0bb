import json

import pytest

from braidcover import cli
from braidcover.cli import EXIT_FAILURE, EXIT_GAPS, EXIT_OK, ConfigError, ToolkitConfig, main
from braidcover.covering import NonGenericScene
from braidcover.presentations import Presentation, finite_group_presentation


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_config_loading(tmp_path, monkeypatch):
    cfg = ToolkitConfig.load(None)
    assert cfg.max_candidates is None and cfg.budget() is None
    path = tmp_path / "cfg.json"
    # keys the toolkit does not read, such as the retired seed and
    # tolerance, are ignored
    path.write_text(json.dumps({"max_candidates": 123, "seed": 5, "tolerance": 1e-6}))
    cfg = ToolkitConfig.load(str(path))
    assert cfg == ToolkitConfig(max_candidates=123)
    assert cfg.budget().max_candidates == 123
    monkeypatch.setenv("BRAIDCOVER_MAX_CANDIDATES", "77")
    assert ToolkitConfig.load(str(path)).max_candidates == 77


def test_bad_config_is_hard_failure(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    code, _out, err = run(capsys, "--config", str(path), "classify", "rp2", "3")
    assert code == EXIT_FAILURE
    assert "bad config" in err


@pytest.mark.parametrize("text", ("[1, 2]", '"budget"', '{"max_candidates": 0}',
                                  '{"max_candidates": -5}', '{"max_candidates": 2.5}',
                                  '{"max_candidates": "100"}', '{"max_candidates": true}'))
def test_config_file_rejects_bad_values(tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    with pytest.raises(ConfigError):
        ToolkitConfig.load(str(path))
    code, _out, err = run(capsys, "--config", str(path), "classify", "rp2", "3")
    assert code == EXIT_FAILURE
    assert "bad config" in err and "Traceback" not in err


@pytest.mark.parametrize("value", ("-5", "0", "many"))
def test_env_budget_must_be_positive(capsys, monkeypatch, value):
    monkeypatch.setenv("BRAIDCOVER_MAX_CANDIDATES", value)
    code, out, err = run(capsys, "derive", "delta4", "2")
    assert code == EXIT_FAILURE
    assert "bad config" in err and "no certificate" not in out


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


def test_enumerate_overflow_is_gap(tmp_path, capsys, monkeypatch):
    # a free group never closes; cap the enumeration via the env budget?
    # coset enumeration has its own internal cap, so use a presentation
    # with an unbounded group: enumerate reports a gap, not a crash
    path = tmp_path / "free.txt"
    path.write_text("presentation F1\ngenerators s1\n")
    import braidcover.cli as cli

    monkeypatch.setattr(
        cli, "coset_enumerate", lambda p: (_ for _ in ()).throw(
            cli.EnumerationOverflow("capped"))
    )
    code, _out, err = run(capsys, "enumerate", str(path))
    assert code == EXIT_GAPS
    assert "did not close" in err


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


def test_derive(capsys):
    code, out, _ = run(capsys, "derive", "rn2", "2", "--json")
    assert code == EXIT_OK
    assert "certified in" in out and '"derivation-v1"' in out
    code, _out, err = run(capsys, "derive", "nonsense", "2")
    assert code == EXIT_FAILURE and "unknown claim" in err


def test_derive_budget_exhaustion(capsys, monkeypatch):
    monkeypatch.setenv("BRAIDCOVER_MAX_CANDIDATES", "1")
    code, out, _ = run(capsys, "derive", "rn2", "2")
    assert code == EXIT_GAPS
    assert "no certificate within budget" in out


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
