"""The command-line scripts run against the library as it stands, so an API
change that breaks one of them fails here."""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

from braidcover.covering import RelatorImageEntry, RelatorImageReport
from braidcover.oracles import Verdict

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str, folder: str = "scripts") -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, str(ROOT / folder / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_annulus_spotchecks_runs():
    out = run_script("annulus_spotchecks.py", "--trials", "2", "--max-n", "2", "--degrees", "2")
    assert out.returncode == 0, out.stderr
    assert "d=2 n=1: 0 relator images, all trivial" in out.stdout
    assert "d=2 n=2: 1 relator images, all trivial" in out.stdout
    assert "total nontrivial words checked:" in out.stdout


def test_annulus_spotchecks_fails_on_a_nontrivial_relator_image(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("annulus_spotchecks",
                                                  ROOT / "scripts" / "annulus_spotchecks.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    check = script.verify_annulus_relator_images
    bad = RelatorImageEntry("relator 0", check(2, 2).entries[0].relator,
                            Verdict("Nontrivial", "action"))
    monkeypatch.setattr(script, "verify_annulus_relator_images",
                        lambda d, n: check(d, n) if n == 1 else RelatorImageReport(n, (bad,)))
    monkeypatch.setattr(sys, "argv", ["annulus_spotchecks.py", "--trials", "2", "--max-n", "2",
                                      "--degrees", "2"])
    assert script.main() == 1
    out = capsys.readouterr().out
    assert "d=2 n=2: 1 relator images, 1 NONTRIVIAL" in out
    assert "nontrivial image: relator 0 (t1 s1 t1 s1 t1^-1 s1^-1 t1^-1 s1^-1)" in out


def test_export_lift_gallery_writes_scenes(tmp_path):
    out = run_script("export_lift_gallery.py", "2", "--out-dir", str(tmp_path), "--word", "s1 r1")
    assert out.returncode == 0, out.stderr
    for name in ("sigma1.svg", "rho2.txt", "word1.svg"):
        assert (tmp_path / name).is_file()


@pytest.mark.parametrize("word", ["x1", "s9"])
def test_export_lift_gallery_rejects_bad_words(tmp_path, word):
    out = run_script("export_lift_gallery.py", "2", "--out-dir", str(tmp_path), "--word", word)
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert "error:" in out.stderr


@pytest.mark.parametrize("workload", ["verify-ladder", "recheck-certs", "lift-decide"])
def test_traced_benchmark_worker_runs(tmp_path, workload):
    # the traced run reads library internals (banked lemma bodies, the
    # search entry points, sphere verdicts); one round of each workload
    # shows that those reads still work and every answer checks out
    out = run_script("worker.py", "--workload", workload, "--seed", "1", "--seconds", "0",
                     "--trace-out", str(tmp_path / "t.json"), folder="perfbench")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    trace = json.loads((tmp_path / "t.json").read_text())
    if workload == "lift-decide":
        # a refactor that stops calling a traced public function would drop
        # its layer from the trace and still pass every other test
        traced = [f"covering.{name}" for name in ("word_motion", "lift_motion", "extract_word",
                                                  "psi", "injectivity_spotcheck_annulus")]
        traced += [f"oracles.{name}" for name in ("sphere_action", "disc_action",
                                                  "annulus_oracle")]
        for name in traced:
            assert trace["summary"]["ops"].get(name, {}).get("calls", 0) > 0, name
