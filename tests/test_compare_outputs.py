import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"


def _run_dir(root, notes, y):
    root.mkdir()
    (root / "manifest.json").write_text(json.dumps({"notes": notes}))
    (root / "pd.csv").write_text(f"x,y\r\n0.0,{y!r}\r\n")


def _compare(a, b):
    out = subprocess.run([sys.executable, str(SCRIPT), str(a), str(b)],
                         capture_output=True, text=True, check=False)
    return out.returncode, out.stdout.splitlines()


def test_manifest_notes_compared(tmp_path):
    notes = {"item": "fig5", "fast": True,
             "fig5": {"lambda_0": 2.0, "kappa_at_lambda_0": 0.8,
                      "crossing": None},
             "budgets": {"pd": 1000}}
    other = json.loads(json.dumps(notes))
    other["fig5"]["lambda_0"] = 2.5
    _run_dir(tmp_path / "a", notes, 0.5)
    _run_dir(tmp_path / "b", other, 0.5)
    code, lines = _compare(tmp_path / "a", tmp_path / "b")
    assert code == 0
    assert "pd.csv y: max_abs=0.000e+00 max_rel=0.000e+00" in lines
    assert ("manifest.json notes.fig5.lambda_0: max_abs=5.000e-01 "
            "max_rel=2.000e-01") in lines
    assert ("manifest.json notes.fig5.kappa_at_lambda_0: max_abs=0.000e+00 "
            "max_rel=0.000e+00") in lines
    assert ("manifest.json notes.budgets.pd: max_abs=0.000e+00 "
            "max_rel=0.000e+00") in lines
    # equal text leaves print nothing
    assert not [ln for ln in lines if "notes.item" in ln
                or "notes.fig5.crossing" in ln]

    other["fig5"]["crossing"] = 31.2
    del other["budgets"]
    (tmp_path / "b" / "manifest.json").write_text(
        json.dumps({"notes": other}))
    code, lines = _compare(tmp_path / "a", tmp_path / "b")
    assert code == 1
    assert "manifest.json notes.budgets.pd: only in A" in lines
    assert ("manifest.json notes.fig5.crossing: text differs "
            "(None against 31.2)") in lines
