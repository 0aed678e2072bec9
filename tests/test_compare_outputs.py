import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"


def _run_dir(root, notes, y, thresholds=None):
    root.mkdir()
    (root / "manifest.json").write_text(
        json.dumps({"notes": notes, "thresholds": thresholds or {}}))
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


def test_manifest_thresholds_compared(tmp_path):
    rec = {"np": {"tau": 6.9, "achieved_pfa": 0.001,
                  "pfa_ci": [0.0005, 0.002]}}
    other = {"np": dict(rec["np"], achieved_pfa=0.0012)}
    _run_dir(tmp_path / "a", {}, 0.5, rec)
    _run_dir(tmp_path / "b", {}, 0.5, other)
    code, lines = _compare(tmp_path / "a", tmp_path / "b")
    assert code == 0
    assert ("manifest.json thresholds.np.achieved_pfa: max_abs=2.000e-04 "
            "max_rel=1.667e-01") in lines
    assert ("manifest.json thresholds.np.pfa_ci.1: max_abs=0.000e+00 "
            "max_rel=0.000e+00") in lines

    # a manifest written before thresholds were recorded has none
    (tmp_path / "a" / "manifest.json").write_text(json.dumps({"notes": {}}))
    code, lines = _compare(tmp_path / "a", tmp_path / "b")
    assert code == 1
    assert "manifest.json thresholds.np.tau: only in B" in lines
