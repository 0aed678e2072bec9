import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "engine_digests.py"


def _load():
    spec = importlib.util.spec_from_file_location("engine_digests", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_smoke():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, str(SCRIPT), "--trials", "64"],
                         capture_output=True, text=True, env=env, timeout=600,
                         check=False)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    digests = {}
    for line in lines[:-2]:
        name, engine, digest = line.split()
        digests.setdefault(name, []).append((engine, digest))
    assert set(digests) == set(_load().SETS)
    for name, runs in digests.items():
        assert [r[0] for r in runs] == ["engine=1", "engine=2",
                                        "engine=3"], name
        assert len({r[1] for r in runs}) == 1, name
    for line, name in zip(lines[-2:], ("evaluate_statistic",
                                        "lambda_opt/lambda_opt_hat")):
        assert line.startswith(name + " ") and len(line.split()[-1]) == 64


def test_disagreement_exits_1(monkeypatch, capsys):
    mod = _load()
    monkeypatch.setattr(mod, "engine_digest",
                        lambda scen, specs, trials, engine:
                        str(engine.workers))
    monkeypatch.setattr(mod, "scalar_digest", lambda scen, specs: "0")
    monkeypatch.setattr(mod, "search_digest", lambda: "0")
    assert mod.main(["--trials", "6"]) == 1
    assert "digests differ" in capsys.readouterr().err
