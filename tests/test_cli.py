import csv
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from dlamf import blas, cli, harness, rmt
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

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_non_finite_lambda(self, tmp_path, capsys, lam):
        rc = cli.main(["threshold", "--config", TOEPLITZ,
                       "--detector", "dl-amf", "--lambda", lam,
                       "--trials", "100", "--out", str(tmp_path)])
        assert rc == 2
        assert _stderr_json(capsys)["kind"] == "config"

    def test_unknown_detector(self, tmp_path, capsys):
        rc = cli.main(["threshold", "--config", TOEPLITZ,
                       "--detector", "fancy-amf", "--trials", "100",
                       "--out", str(tmp_path)])
        assert rc == 2
        assert _stderr_json(capsys)["kind"] == "config"

    @pytest.mark.parametrize("flags,word", [
        (["--lambda-max", "-1"], "lambda_max"),
        (["--grid-points", "1"], "grid"),
        (["--tol", "0"], "tol"),
        (["--tol", "nan"], "tol")])
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

    @pytest.mark.parametrize("grid", ["0:nan:20", "nan:1:3", "0:1:inf"])
    def test_non_finite_scnr_grid(self, tmp_path, capsys, grid):
        # np.arange would raise a bare ValueError on these
        rc = cli.main(["pd-sweep", "--config", TOEPLITZ, "--detector", "np",
                       "--scnr-db", grid, "--out", str(tmp_path)])
        assert rc == 2
        msg = _stderr_json(capsys)
        assert msg["kind"] == "config" and "finite" in msg["error"]


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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_pd_below_pfa_exits_numerical(self, tmp_path, capsys):
        rc = cli.main(["loss-table", "--config", TOEPLITZ,
                       "--detector", "scm-amf", "--pfa", "1e-1", "--pd",
                       "0.01", "--threshold-trials", "400", "--trials", "200",
                       "--out", str(tmp_path / "run")])
        assert rc == 3
        assert _stderr_json(capsys)["kind"] == "numerical"


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


class TestManifestThresholds:
    """manifest.json "thresholds" holds each calibrated detector's tau,
    achieved Pfa and Wilson interval, as the run's own tables have them."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_commands_record_their_calibration(self, tmp_path):
        # one seed, Pfa and calibration budget: the three commands
        # calibrate on the same h0 trials
        common = ["--config", TOEPLITZ, "--detector", "np,scm-amf",
                  "--pfa", "1e-1", "--seed", "5"]
        runs = {"threshold": ["--trials", "400"],
                "pd-sweep": ["--threshold-trials", "400", "--trials", "50",
                             "--scnr-db", "0:5:5"],
                "loss-table": ["--threshold-trials", "400",
                               "--trials", "100"]}
        records = {}
        for command, extra in runs.items():
            out = tmp_path / command
            assert cli.main([command, *common, *extra,
                             "--out", str(out)]) == 0
            doc = json.loads((out / "manifest.json").read_text())
            records[command] = doc["thresholds"]
            assert "thresholds" not in doc["notes"]
        _, rows = _read_csv(tmp_path / "threshold" / "thresholds.csv")
        expected = {r[0]: {"tau": float(r[3]), "achieved_pfa": float(r[4]),
                           "pfa_ci": [float(r[5]), float(r[6])]}
                    for r in rows}
        assert sorted(expected) == ["np", "scm-amf"]
        for command, rec in records.items():
            assert rec == expected, command

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_reproduce_records_each_panel(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "FAST_BUDGETS", TINY_BUDGETS)
        docs = {}
        for item in ("fig1", "fig6", "table2"):
            out = tmp_path / item
            assert cli.main(["reproduce", item, "--fast", "--pfa", "0.05",
                             "--out", str(out)]) == 0
            docs[item] = json.loads((out / "manifest.json").read_text())
        assert docs["fig1"]["thresholds"] == {}   # histograms only
        fig6 = docs["fig6"]["thresholds"]
        assert sorted(fig6) == ["fig6"]
        assert sorted(fig6["fig6"]) == ["dl-amf(lam=0.5)", "dl-amf(lam=20)",
                                        "dl-amf(lam=200)", "dl-amf(lam=3.12)",
                                        "np", "scm-amf"]
        table = docs["table2"]["thresholds"]
        assert sorted(table) == ["table2_K28", "table2_K48"]
        _, rows = _read_csv(tmp_path / "table2" / "table2.csv")
        for K, detector, _, _, tau, _, _ in rows:
            rec = table[f"table2_K{K}"][detector]
            assert rec["tau"] == float(tau)
            lo, hi = rec["pfa_ci"]
            assert lo <= rec["achieved_pfa"] == 0.05 <= hi


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

    def test_overflow_stderr_is_one_json_object(self, tmp_path):
        # a value out of floating-point range ends each command in a
        # NumericalError: the oracle mu0 at lam = 1e160, the oracle sums
        # and the opt search at powers x1e-300, and statistics that
        # underflow to 0 at lam = 1e200. NumPy's warnings must not reach
        # stderr ahead of the error record, so each command runs in a
        # process of its own with Python's default filters
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(Path(cli.__file__).parents[1]),
                        env.get("PYTHONPATH")) if p)
        for scale, detector in ((1.0, ["cfar-dl-scmf", "--lambda", "1e160"]),
                                (1e-300, ["cfar-dl-scmf", "--lambda",
                                          "1.5e-300"]),
                                (1e-300, ["opt-cfar-dl-amf"]),
                                (1.0, ["dl-amf", "--lambda", "1e200"])):
            doc = json.loads(Path(TOEPLITZ_N24).read_text())
            doc["clutter"]["clutter_power"] *= scale
            doc["noise_power"] *= scale
            config = tmp_path / "scenario.json"
            config.write_text(json.dumps(doc))
            out = subprocess.run(
                [sys.executable, "-m", "dlamf.cli", "threshold", "--config",
                 str(config), "--trials", "100", "--workers", "1", "--out",
                 str(tmp_path / "out"), "--detector", *detector],
                capture_output=True, text=True, env=env, timeout=300,
                check=False)
            assert out.returncode == 3, (detector, out.stderr)
            assert len(out.stderr.splitlines()) == 1, (detector, out.stderr)
            assert json.loads(out.stderr)["kind"] == "numerical"

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_negative_seed(self, tmp_path, capsys, workers):
        # NumPy's ValueError ended the command in a traceback
        rc = cli.main(["threshold", "--config", TOEPLITZ, "--detector",
                       "np", "--trials", "100", "--seed", "-1",
                       "--workers", workers, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["kind"] == "config"

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
        row = cli.Curves((("", 12, 24, 20.0),), 10.0,
                         ("np", "opt-cfar-dl-scmf"))
        run = cli._Run([], tmp_path)
        cli._curves(run, "figx", row, {"threshold": 200, "pd": 32}, 1, None,
                    0.25)
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


class TestEngine:
    """Each command runs on one harness.Engine: at most one worker pool,
    none left after main returns, and the bits of --workers 1."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_reproduce_item_starts_one_pool(self, tmp_path, monkeypatch):
        # fig2: two panels, each a calibration and 21 SCNR points
        pools = []

        class Counted(harness.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", Counted)
        monkeypatch.setattr(cli, "FAST_BUDGETS", TINY_BUDGETS)
        assert cli.main(["reproduce", "fig2", "--fast", "--pfa", "0.05",
                         "--workers", "2", "--out", str(tmp_path)]) == 0
        assert len(pools) == 1
        assert multiprocessing.active_children() == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("extra, rc, kind", [
        (["--pd", "0.01"], 3, "numerical"),   # pd never falls below 0.01
        (["--pd", "1.5"], 2, "config")])      # after both passes ran
    def test_no_workers_left_after_error(self, tmp_path, capsys, extra, rc,
                                         kind):
        assert cli.main(["loss-table", "--config", TOEPLITZ,
                         "--detector", "scm-amf", "--pfa", "1e-1",
                         "--threshold-trials", "400", "--trials", "200",
                         "--workers", "2", "--out", str(tmp_path)]
                        + extra) == rc
        assert _stderr_json(capsys)["kind"] == kind
        assert multiprocessing.active_children() == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command, extra, name", [
        ("threshold", ["--trials", "401"], "thresholds.csv"),
        ("pd-sweep", ["--threshold-trials", "401", "--trials", "33",
                      "--scnr-db", "0:5:10"], "pd_dl-amf_lam_1.5.csv"),
        ("loss-table", ["--threshold-trials", "401", "--trials", "101"],
         "loss_table.csv")])
    def test_default_workers_byte_identical(self, tmp_path, command, extra,
                                            name):
        argv = [command, "--config", TOEPLITZ, "--detector",
                "np,dl-amf,cfar-el-amf", "--lambda", "1.5", "--pfa", "1e-1",
                "--seed", "9", *extra]
        assert cli.main(argv + ["--workers", "1",
                                "--out", str(tmp_path / "one")]) == 0
        assert cli.main(argv + ["--out", str(tmp_path / "default")]) == 0
        assert (tmp_path / "one" / name).read_bytes() == \
            (tmp_path / "default" / name).read_bytes()
        assert multiprocessing.active_children() == []

    def test_default_workers_are_the_usable_cpus(self, monkeypatch):
        want = len(os.sched_getaffinity(0)) \
            if hasattr(os, "sched_getaffinity") else os.cpu_count()
        monkeypatch.setattr(blas, "pools", lambda: {"numpy": None})
        assert cli.build_parser().parse_args(
            ["reproduce", "fig1", "--out", "x"]).workers == want

    def test_one_worker_without_blas_pools(self, monkeypatch):
        # workers whose BLAS pools cannot be pinned could oversubscribe
        monkeypatch.setattr(blas, "pools", lambda: {})
        assert cli.build_parser().parse_args(
            ["reproduce", "fig1", "--out", "x"]).workers == 1


# Every reproduce item at tiny budgets; pins the output names in order, the
# manifest notes and the CSV bytes, so a change of how the items are built
# must leave what they write alone.
TINY_BUDGETS = {"threshold": 400, "pd": 64, "hist": 400}
# item: (number of outputs, sha256 of their names joined by newlines in
# manifest order, sha256 of the CSV bytes in sorted name order, notes
# beyond item/fast/budgets); recorded with numpy 2.4.6 and scipy 1.17.1
PINNED = {
    "fig1": (18,
        "2b7cb1c57e2a57acfb95e308ef87178f4ab5bf3813ad3a5a0dbc69448d49b492",
        "9baca64108fca4e2f241228330dc020ccc9166b91fbb4bb8493313facdd3e860",
        {}),
    "fig2": (24,
        "17fa19dd1d0869f0672ce53b455d08908cc88b820ddc1f34055bd996300ac16c",
        "76e15522e43239d2321a5c61a62b42b01866d0178b3799f60a7ee4608e34b414",
        {}),
    "fig5": (25,
        "9517a20bb1cd0eb2f0d652784d620a62ae9682cbc1c520fed4cd867d3de5604b",
        "9f798accc06ed65df1edca5f7a6cba3069a8d7b6ecc705f188918ada24793829",
        {"fig5": {"crossing": None,
                  "kappa_at_lambda_0": 0.9243053424193619,
                  "kappa_inf": 0.791197459603113,
                  "lambda_0": 4.275415672043995,
                  "one_minus_c": 0.75}}),
    "fig6": (25,
        "ef80d418f2716ea844a654e1e5037b5183cbe2c1292696aa40200fa1d65154be",
        "4fd8d731e53c69ea37f7d86ef0632e1b5e60679bf91427cef63fde153d9e4df5",
        {"fig6": {"crossing": 30.12669300772067,
                  "kappa_at_lambda_0": 0.9109616595431769,
                  "kappa_inf": 0.33224517254468505,
                  "lambda_0": 3.121801982241552,
                  "one_minus_c": 0.75}}),
    "fig7": (25,
        "49ffb91dace228f834ceba8b1253bf45428aa8989005df782cb5f4255b7c445d",
        "5e40572a0c8bfd559cd3b1b354c09a63997ee62d1c5825be2e164b1e69f872b2",
        {"fig7": {"crossing": None,
                  "kappa_at_lambda_0": 0.8063604891744847,
                  "kappa_inf": 0.33224517254468505,
                  "lambda_0": 6.468551353016748,
                  "one_minus_c": 0.07692307692307687}}),
    "fig8": (18,
        "91916656ba2a9bd3e9e5e04a7395a5371b379c9f0b0398a7282217c272019905",
        "e7bfbc247756666f3121e305fb4569ab39fdc0b479938e492d9585c06f210943",
        {}),
    "fig9": (18,
        "d20175d47dde436a778707b55ea890dbb241ef16ab6198c0ff4e31876093a60c",
        "da05db311128f58c9e03f1bff5ac7148ffa68175f2267af47d422d70eb97ac4e",
        {}),
    # fig10 lists its theory curves label by label, each for both targets
    "fig10": (10,
        "c9db3284701018887a612e748927290b68f65abf1409150143bcde436314532e",
        "7c7f3c3e139d654e02a8a91bd23e98311d25f8efa17dbe0328258f582e06a860",
        {}),
    "fig11": (18,
        "6bb76fe62596891ac103fc4f49b8f2d6257d0c347e65b8b87ed5203dcd6c2e9b",
        "9dcd234e5016355ab99e1ef06eb4f418cef19d25f861797d2c0b18e2e2062b62",
        {"clutter_power_sweep": [1.0, 10.0, 100.0]}),
    "fig12": (8,
        "fe921c26bead7ab97dd0dffb45038bff60d96a79a8c809b3ab6d0d28131d64a3",
        "cab9b944b41f2e007ce909197402c4fd9fb4291eb720e0133026757b755e710a",
        {}),
    "fig13": (12,
        "384618b27c0f8a2c48eb18d6fe865a088a239d403ceb7741a8b8a9b2ba884803",
        "0ecc97557a144ff69c30f077a3d27f3ca755144d97485cd91897b511e524ee3b",
        {}),
    "fig14": (10,
        "97bd7dbe9ce9929d3b218198ea305075e9c33d6fcaf2b764650643bb48714d3d",
        "571265d580f5c7e3435b9507cd8d4471df2259d3a9beb3b3b1e77cdd67970b2c",
        {"lambda_opt": 11.921143337234207}),
    "table2": (1,
        "e1c81ee75ae8a95b729cda11d8e0363af1f91afa9e2f35f2cb5e08ecad49f9c7",
        "2c3060f133efdfcf870ea8dd60db8801857d81a787d03734d3be0aedbd3b72ff",
        {}),
    "table3": (1,
        "1efca3e6f4fb77b9966341e2b1b3311256f3d11d2587d4c24661480ac519872a",
        "226a2a4096bbd8e8ebbd37c1c70a3bab6bf312224032706f58e7241a76586063",
        {}),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("item", sorted(cli.REPRODUCE_ITEMS))
def test_reproduce_item_pinned(tmp_path, monkeypatch, item):
    monkeypatch.setattr(cli, "FAST_BUDGETS", TINY_BUDGETS)
    out = tmp_path / item
    rc = cli.main(["reproduce", item, "--fast", "--pfa", "0.05",
                   "--seed", "1234", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "manifest.json").read_text())
    outputs = doc["outputs"]
    body = hashlib.sha256()
    for name in sorted(outputs):
        body.update((out / name).read_bytes())
    n, names_sha, body_sha, notes = PINNED[item]
    assert len(outputs) == n, outputs
    assert hashlib.sha256("\n".join(outputs).encode()).hexdigest() \
        == names_sha, outputs
    assert body.hexdigest() == body_sha
    assert doc["notes"] == {"item": item, "fast": True,
                            "budgets": TINY_BUDGETS, **notes}
