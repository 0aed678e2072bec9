import csv
import json
import time
from pathlib import Path

import numpy as np
import pytest

from dlamf import cli, harness, rmt
from dlamf.detectors import DetectorSpec
from dlamf.errors import NumericalError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
TOEPLITZ = str(CONFIGS / "toeplitz-n12-k48-theta20.json")
TOEPLITZ_N24 = str(CONFIGS / "toeplitz-n24-k48.json")


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _stderr_json(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    return json.loads(err[-1])


class TestKappa:
    def test_basic_run(self, tmp_path):
        out = tmp_path / "run"
        rc = cli.main(["kappa", "--config", TOEPLITZ,
                       "--lambda-grid", "0.1:log:100:25",
                       "--out", str(out)])
        assert rc == 0
        header, rows = _read_csv(out / "kappa.csv")
        assert header == ["lambda", "kappa", "kappa_lower", "one_minus_c"]
        assert len(rows) == 26  # lam = 0 prepended to the 25-point grid
        assert float(rows[0][0]) == 0.0
        assert float(rows[0][1]) == 0.75  # exactly 1 - c at lam = 0
        kappas = np.array([float(r[1]) for r in rows])
        assert kappas.max() > 0.9

    def test_table_matches_scalar_rows(self, tmp_path):
        # the table comes from one array call over the grid; every cell
        # must be what a per-lambda scalar call writes
        out = tmp_path / "run"
        cli.main(["kappa", "--config", TOEPLITZ_N24,
                  "--lambda-grid", "0.001:log:1000:31", "--out", str(out)])
        scen, _, _ = cli._load_scenario(TOEPLITZ_N24)
        R, s, K = scen.covariance(), scen.steering, scen.K
        _, rows = _read_csv(out / "kappa.csv")
        assert len(rows) == 32
        for row in rows:
            lam = float(row[0])
            assert row == [repr(lam), repr(float(rmt.kappa(R, s, lam, K))),
                           repr(float(rmt.kappa_lower(R, s, lam, K))),
                           repr(1.0 - scen.c)]

    def test_crlf_line_endings(self, tmp_path):
        out = tmp_path / "run"
        cli.main(["kappa", "--config", TOEPLITZ,
                  "--lambda-grid", "1:lin:10:5", "--out", str(out)])
        raw = (out / "kappa.csv").read_bytes()
        assert b"\r\n" in raw
        assert raw.count(b"\n") == raw.count(b"\r\n")

    def test_manifest(self, tmp_path):
        out = tmp_path / "run"
        cli.main(["kappa", "--config", TOEPLITZ,
                  "--lambda-grid", "1:lin:10:5", "--out", str(out)])
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["outputs"] == ["kappa.csv"]
        assert doc["tool"] == "dlamf"
        assert "kappa" in doc["command"]
        assert doc["scenario"]["N"] == 12
        assert len(doc["config_digest"]) == 64

    def test_bad_grid_spec(self, tmp_path, capsys):
        rc = cli.main(["kappa", "--config", TOEPLITZ,
                       "--lambda-grid", "oops", "--out", str(tmp_path)])
        assert rc == 2
        assert _stderr_json(capsys)["kind"] == "config"


class TestThreshold:
    def test_cfar_threshold_lands_near_exp_quantile(self, tmp_path):
        out = tmp_path / "run"
        with pytest.warns(RuntimeWarning):
            rc = cli.main(["threshold", "--config", TOEPLITZ_N24,
                           "--detector", "np,cfar-dl-amf", "--lambda", "1.5",
                           "--pfa", "1e-2", "--trials", "4000",
                           "--seed", "7", "--out", str(out)])
        assert rc == 0
        header, rows = _read_csv(out / "thresholds.csv")
        assert header[:4] == ["detector", "kind", "lambda", "tau"]
        byk = {r[1]: r for r in rows}
        assert float(byk["np"][3]) == pytest.approx(4.605, abs=0.4)
        assert float(byk["cfar-dl-amf"][3]) == pytest.approx(4.605, abs=0.9)
        assert byk["np"][2] == ""  # no loading column for the clairvoyant
        assert float(byk["cfar-dl-amf"][2]) == 1.5

    def test_same_seed_byte_identical(self, tmp_path):
        argv = ["threshold", "--config", TOEPLITZ, "--detector", "scm-amf",
                "--pfa", "1e-1", "--trials", "2000", "--seed", "42"]
        cli.main(argv + ["--out", str(tmp_path / "a")])
        cli.main(argv + ["--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "thresholds.csv").read_bytes() == \
               (tmp_path / "b" / "thresholds.csv").read_bytes()

    def test_missing_lambda(self, tmp_path, capsys):
        rc = cli.main(["threshold", "--config", TOEPLITZ,
                       "--detector", "dl-amf", "--trials", "100",
                       "--out", str(tmp_path)])
        assert rc == 2
        msg = _stderr_json(capsys)
        assert msg["kind"] == "config"
        assert "--lambda" in msg["error"]

    def test_unknown_detector(self, tmp_path, capsys):
        rc = cli.main(["threshold", "--config", TOEPLITZ,
                       "--detector", "fancy-amf", "--trials", "100",
                       "--out", str(tmp_path)])
        assert rc == 2
        assert _stderr_json(capsys)["kind"] == "config"

    @pytest.mark.parametrize("flags,word", [
        (["--lambda-max", "-1"], "lambda_max"),
        (["--grid-points", "1"], "grid")])
    def test_invalid_opt_config(self, tmp_path, capsys, flags, word):
        # the search settings are checked before any trial runs
        rc = cli.main(["threshold", "--config", TOEPLITZ,
                       "--detector", "opt-cfar-dl-amf", "--trials", "100",
                       "--out", str(tmp_path)] + flags)
        assert rc == 2
        msg = _stderr_json(capsys)
        assert msg["kind"] == "config" and word in msg["error"]


class TestPdSweep:
    def test_curves_written(self, tmp_path):
        out = tmp_path / "run"
        with pytest.warns(RuntimeWarning):  # small smoke budgets
            rc = cli.main(["pd-sweep", "--config", TOEPLITZ_N24,
                           "--detector", "np,dl-amf", "--lambda", "1.5",
                           "--scnr-db", "0:5:15", "--pfa", "1e-2",
                           "--threshold-trials", "2000", "--trials", "500",
                           "--out", str(out)])
        assert rc == 0
        for name in ("pd_np.csv", "pd_dl-amf_lam_1.5.csv"):
            header, rows = _read_csv(out / name)
            assert header == ["x", "y", "ci_lo", "ci_hi"]
            assert len(rows) == 4
            pds = [float(r[1]) for r in rows]
            assert pds[-1] > pds[0]
        doc = json.loads((out / "manifest.json").read_text())
        assert sorted(doc["outputs"]) == ["pd_dl-amf_lam_1.5.csv",
                                          "pd_np.csv"]

    def test_bad_scnr_grid(self, tmp_path, capsys):
        rc = cli.main(["pd-sweep", "--config", TOEPLITZ, "--detector", "np",
                       "--scnr-db", "20:1:0", "--out", str(tmp_path)])
        assert rc == 2
        assert _stderr_json(capsys)["kind"] == "config"


class TestLossTable:
    def test_np_prepended_and_loss_positive(self, tmp_path):
        out = tmp_path / "run"
        with pytest.warns(RuntimeWarning):
            rc = cli.main(["loss-table", "--config", TOEPLITZ_N24,
                           "--detector", "scm-amf", "--pfa", "1e-2",
                           "--threshold-trials", "4000", "--trials", "1000",
                           "--out", str(out)])
        assert rc == 0
        header, rows = _read_csv(out / "loss_table.csv")
        assert header == ["detector", "kind", "target", "tau", "scnr_db",
                          "loss_db"]
        kinds = {r[1] for r in rows}
        assert kinds == {"np", "scm-amf"}
        for r in rows:
            if r[1] == "np":
                assert float(r[5]) == 0.0
            else:
                assert float(r[5]) > 1.0


class TestManifestTiming:
    SLEEP = 0.3

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("argv, call", [
        (["threshold", "--detector", "np", "--trials", "200"],
         "calibrate_threshold"),
        (["pd-sweep", "--detector", "np", "--scnr-db", "0:5:5",
          "--threshold-trials", "200", "--trials", "50"],
         "pd_vs_scnr_sweep"),
        (["loss-table", "--detector", "scm-amf", "--pfa", "1e-1",
          "--threshold-trials", "200", "--trials", "100"],
         "detection_loss_table"),
    ])
    def test_elapsed_covers_the_computation(self, tmp_path, monkeypatch,
                                            argv, call):
        real = getattr(cli.harness, call)

        def slow(*args, **kwargs):
            time.sleep(self.SLEEP)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli.harness, call, slow)
        out = tmp_path / "run"
        rc = cli.main(argv + ["--config", TOEPLITZ, "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["elapsed_s"] >= self.SLEEP


class TestErrorsAndUsage:
    def test_unknown_subcommand(self, capsys):
        rc = cli.main(["frobnicate"])
        assert rc == 2
        assert "error" in _stderr_json(capsys)

    def test_missing_required_out(self, capsys):
        rc = cli.main(["kappa", "--config", TOEPLITZ])
        assert rc == 2

    def test_unreadable_config(self, tmp_path, capsys):
        rc = cli.main(["kappa", "--config", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path)])
        assert rc == 2
        assert "cannot read" in _stderr_json(capsys)["error"]

    def test_invalid_scenario_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"N": 12}')
        rc = cli.main(["kappa", "--config", str(bad),
                       "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_numerical_error_maps_to_3(self, tmp_path, capsys, monkeypatch):
        def boom(path):
            raise NumericalError("synthetic failure")
        monkeypatch.setattr(cli, "_load_scenario", boom)
        rc = cli.main(["kappa", "--config", "x", "--out", str(tmp_path)])
        assert rc == 3
        assert _stderr_json(capsys)["kind"] == "numerical"

    def test_unknown_reproduce_item(self, tmp_path, capsys):
        rc = cli.main(["reproduce", "fig99", "--out", str(tmp_path)])
        assert rc == 2
        assert "fig99" in _stderr_json(capsys)["error"]

    def test_version_flag(self, capsys):
        rc = cli.main(["--version"])
        assert rc == 0
        assert capsys.readouterr().out.strip()


class TestReproduce:
    def test_mc_pd_curves_design_once_per_sweep(self, tmp_path, monkeypatch):
        # one oracle design for the threshold pass, one for the whole sweep
        calls = []
        lambda_opt = harness.lambda_opt

        def counted(*args, **kwargs):
            calls.append(1)
            return lambda_opt(*args, **kwargs)

        monkeypatch.setattr(harness, "lambda_opt", counted)
        scen = cli._scen_toeplitz(12, 24)
        specs = [DetectorSpec("np"), DetectorSpec("opt-cfar-dl-scmf")]
        run = cli._Run([], tmp_path)
        cli._mc_pd_curves(run, "figx", scen, specs, np.array([0.0, 5.0, 10.0]),
                          {"threshold": 200, "pd": 32}, 1, 1, 0.25)
        assert len(calls) == 2
        assert len(run.files) == 4

    def test_fig5_fast_smoke(self, tmp_path):
        out = tmp_path / "fig5"
        with pytest.warns(RuntimeWarning):
            rc = cli.main(["reproduce", "fig5", "--fast",
                           "--seed", "3", "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["notes"]["item"] == "fig5"
        assert doc["notes"]["fast"] is True
        files = set(doc["outputs"])
        assert "fig5_kappa.csv" in files
        assert len(files) == len(doc["outputs"])  # each listed exactly once
        for name in files:
            assert (out / name).exists()
        # kappa summary recorded for the preset scenario
        summary = doc["notes"]["fig5"]
        assert summary["lambda_0"] == pytest.approx(4.2754, abs=0.01)
        assert summary["kappa_at_lambda_0"] == pytest.approx(0.9243,
                                                             abs=1e-3)
        assert summary["crossing"] is None  # stays above 1 - c here
