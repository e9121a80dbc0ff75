import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gausslink import (
    SYMMETRIC_TOPOLOGIES,
    BalancedForm,
    DeviceCaps,
    DptParams,
    NetworkConfig,
    PhysicalRates,
    Topology,
    analytic_threshold,
    mm_log_negativity,
    numeric_threshold,
)
from gausslink import cli
from gausslink.cli import main
from gausslink.experiments import (
    ExperimentConfig,
    _check_conversion_trace,
    _check_mo_oracle,
    _check_swap_theorem,
    _check_thresholds,
    _worst_draw,
    cmd_device_run,
    cmd_ebit_rate,
    cmd_threshold_vs_da,
    cmd_threshold_vs_loss,
    cmd_validate,
)
from gausslink.presets import brubaker2022_caps
from gausslink.sources import MoKind
from gausslink.transducer import C_MAX

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(scope="module")
def vs_da_result():
    cfg = ExperimentConfig(experiment="threshold-vs-da", points=15)
    return cmd_threshold_vs_da(cfg)


@pytest.fixture(scope="module")
def vs_loss_result():
    cfg = ExperimentConfig(experiment="threshold-vs-loss", points=31)
    return cmd_threshold_vs_loss(cfg)


@pytest.fixture(scope="module")
def device_result():
    cfg = ExperimentConfig(
        experiment="device-run", caps=brubaker2022_caps(), points=3, taue_db_max=2.0
    )
    return cmd_device_run(cfg)


class TestThresholdVsDa:

    def test_em_swap_never_entangles_at_tiny_microwave_cap(self, vs_da_result):
        rows, _ = vs_da_result
        small = [row for row in rows if row["d_b"] == 1e-2]
        assert small and all(row["em_swap"] == 0.0 for row in small)

    def test_global_bound_on_every_cell(self, vs_da_result):
        rows, _ = vs_da_result
        for row in rows:
            for name in ("eo_down", "eo_swap", "em_down", "em_swap",
                         "io_down", "io_swap", "im_down", "im_swap"):
                assert row[name] <= 1.0 * row["d_a"] + 1e-9  # tau_a = 1 here

    def test_eo_down_column_is_the_closed_form(self, vs_da_result):
        rows, _ = vs_da_result
        r = 0.58
        for row in rows:
            want = row["d_a"] * (1.0 - math.exp(-2 * r)) / 2.0
            assert row["eo_down"] == pytest.approx(want, rel=1e-12)

    def test_csv_has_provenance_header(self, vs_da_result):
        _, text = vs_da_result
        head = text.splitlines()
        assert head[0].startswith("# tool=gausslink")
        assert any(line.startswith("# seed=") for line in head if line.startswith("#"))
        assert "d_a,d_b,eo_down" in text

    def test_rows_carry_consistent_flags_and_argmax(self, vs_da_result):
        rows, _ = vs_da_result
        for row in rows:
            for name in ("eo_down", "em_swap", "io_down", "im_swap"):
                assert row[name] >= 0.0
                assert row[f"{name}_ok"] == (row[name] > 0.0)
                assert len(row[f"{name}_argmax"]) == 4


class TestThresholdVsLoss:
    def test_slopes(self, vs_loss_result):
        _, slopes, _ = vs_loss_result
        assert slopes["eo_down"] == pytest.approx(1.0, abs=0.1)
        assert slopes["eo_swap"] == pytest.approx(1.0, abs=0.1)
        for name in ("em_down", "io_down", "im_down"):
            assert slopes[name] == pytest.approx(2.0, abs=0.1)

    def test_slopes_nan_without_two_distinct_tau_a(self):
        cfg = ExperimentConfig(experiment="threshold-vs-loss", points=3, loss_db_max=0.0)
        _, slopes, _ = cmd_threshold_vs_loss(cfg)
        assert all(math.isnan(v) for v in slopes.values())

    def test_non_eo_swaps_dead_past_3db(self, vs_loss_result):
        rows, _, _ = vs_loss_result
        for row in rows:
            if row["tau_a"] < 0.5:
                for name in ("em_swap", "io_swap", "im_swap"):
                    assert row[name] == 0.0

    def test_downconversion_rows_coincide_for_large_microwave_cap(self):
        # when the microwave cap dwarfs the optical one, the EM/IO/IM
        # downconversion thresholds collapse onto one curve
        caps = lambda d_a, d_b, tau_a: DeviceCaps(d_a, d_b, tau_a, 1.0, 0.0)
        d_a = 1e3
        d_b = 1e6
        tau_a = 0.3
        vals = [
            analytic_threshold(Topology.down(k), caps(d_a, d_b, tau_a), 0.92).n_th_max
            for k in (MoKind.EM, MoKind.IO, MoKind.IM)
        ]
        spread = (max(vals) - min(vals)) / max(vals)
        assert spread < 1e-3


class TestDeviceRun:
    def test_lossless_point_has_exactly_four_entangled(self, device_result):
        rows, _ = device_result
        row = rows[0]
        assert row["tau_e"] == 1.0
        for tag in ("3db", "10db"):
            assert row[f"eo_down_{tag}"] > 0.0
            assert row[f"eo_swap_{tag}"] > 0.0
        assert row["im_down"] > 0.0 and row["im_swap"] > 0.0
        for name in ("em_down", "em_swap", "io_down", "io_swap"):
            assert row[name] == 0.0

    def test_more_squeezing_helps_eo(self, device_result):
        rows, _ = device_result
        for row in rows:
            assert row["eo_down_10db"] >= row["eo_down_3db"]
            assert row["eo_swap_10db"] >= row["eo_swap_3db"]

    def test_determinism(self):
        cfg = ExperimentConfig(
            experiment="device-run", caps=brubaker2022_caps(), points=2, taue_db_max=1.0
        )
        _, text1 = cmd_device_run(cfg)
        _, text2 = cmd_device_run(cfg)
        assert text1 == text2

    @pytest.mark.parametrize("squeezing_db", [(3.0, 3.0), (3, 3.0000000000001)])
    def test_rejects_squeezing_values_that_share_a_column(self, squeezing_db):
        # both values print as 3db: the second would overwrite the first's cells
        cfg = ExperimentConfig(experiment="device-run", squeezing_db=squeezing_db, points=2)
        with pytest.raises(ValueError, match="repeat a column tag"):
            cmd_device_run(cfg)


class TestEbitRate:
    def test_report_fields_and_monotonicity(self):
        cfg = ExperimentConfig(experiment="ebit-rate", caps=brubaker2022_caps())
        report = cmd_ebit_rate(cfg)
        assert report["tau_e"] == pytest.approx(10 ** (-0.036), rel=1e-12)
        assert report["rate_ebits_per_s"] == pytest.approx(
            report["log_negativity"] * 2000.0, rel=1e-12
        )
        zero_fiber = cmd_ebit_rate(
            ExperimentConfig(experiment="ebit-rate", caps=brubaker2022_caps(), fiber_km=0.0)
        )
        assert zero_fiber["rate_ebits_per_s"] > report["rate_ebits_per_s"]

    def test_report_gives_optimum_and_corner_in_both_units(self):
        caps = brubaker2022_caps()
        report = cmd_ebit_rate(ExperimentConfig(experiment="ebit-rate", caps=caps))
        bw, ln2 = report["bandwidth_hz"], math.log(2.0)
        corner = report["corner_cooperativities"]
        assert corner == [caps.d_a, caps.d_b, caps.d_a, caps.d_b]
        e_corner = mm_log_negativity(
            Topology.down(MoKind.IM), NetworkConfig(caps, *corner, tau_e=report["tau_e"])
        )
        assert report["corner_log_negativity"] == e_corner
        for prefix in ("", "corner_"):
            e = report[f"{prefix}log_negativity"]
            assert report[f"{prefix}log_negativity_nats"] == pytest.approx(e * ln2, rel=1e-15)
            assert report[f"{prefix}rate_ebits_per_s"] == pytest.approx(e * bw, rel=1e-15)
            assert report[f"{prefix}rate_nats_per_s"] == pytest.approx(e * ln2 * bw, rel=1e-15)
        assert report["log_negativity"] >= e_corner > 0.0

    def test_corner_clamped_into_stability(self):
        # a microwave cap beyond the IM source's stability bound
        caps = DeviceCaps(5.0, 40.0, 0.9, 0.85, 0.0)
        report = cmd_ebit_rate(ExperimentConfig(experiment="ebit-rate", caps=caps))
        c_a, c_b, c_a2, c_b2 = report["corner_cooperativities"]
        assert (c_a, c_a2, c_b2) == (5.0, 5.0, 40.0)
        assert c_b == pytest.approx(6.0, rel=1e-7) and c_b < 6.0
        cfg = NetworkConfig(caps, c_a, c_b, c_a2, c_b2, tau_e=report["tau_e"])
        assert report["corner_log_negativity"] == mm_log_negativity(Topology.down(MoKind.IM), cfg)

    def test_zero_bandwidth_gives_zero_rate(self):
        cfg = ExperimentConfig(
            experiment="ebit-rate", caps=brubaker2022_caps(), bandwidth_hz=0.0
        )
        assert cmd_ebit_rate(cfg)["rate_ebits_per_s"] == 0.0


class TestValidateCommand:
    def test_quick_suite_passes(self):
        cfg = ExperimentConfig(experiment="validate", seed=7, checks_n=800)
        code, report = cmd_validate(cfg)
        failing = [r for r in report["results"] if not r["pass"]]
        assert code == 0, f"failing checks: {failing}"
        assert report["pass"]

    def test_report_is_reproducible(self):
        cfg = ExperimentConfig(experiment="validate", seed=3, checks_n=300)
        _, r1 = cmd_validate(cfg)
        _, r2 = cmd_validate(cfg)
        assert r1 == r2

    @staticmethod
    def _config(detail):
        """The keyword arguments a check's detail names after its label."""
        names = {"BalancedForm": BalancedForm, "DeviceCaps": DeviceCaps,
                 "DptParams": DptParams, "PhysicalRates": PhysicalRates}
        return eval(f"dict({detail.split(': ', 1)[1]})", names)

    def test_threshold_detail_replays_worst(self):
        # the worst draw's caps and r, read back from the detail alone,
        # reproduce the reported worst exactly
        worst, detail = _worst_draw(_check_thresholds(0, 10), 0.0)
        assert worst > 0.0
        label = detail.split(" draw ")[0]
        topo = next(t for t in SYMMETRIC_TOPOLOGIES if t.label == label)
        kw = self._config(detail)
        a = analytic_threshold(topo, kw["caps"], kw["r"])
        b = numeric_threshold(topo, kw["caps"], kw["r"])
        assert abs(a.n_th_max - b.n_th_max) / a.n_th_max == worst

    def test_details_name_exact_configurations(self):
        swap = self._config(_worst_draw(_check_swap_theorem(0, 50), -math.inf)[1])
        assert set(swap) == {"s1", "s2"} and isinstance(swap["s1"], BalancedForm)
        mo = self._config(_worst_draw(_check_mo_oracle(0, 20), 0.0)[1])
        assert isinstance(mo["p"], DptParams) and isinstance(mo["r"], float)
        conv = self._config(_worst_draw(_check_conversion_trace(0, 20), 0.0)[1])
        assert isinstance(conv["p"], DptParams)


class TestCli:
    def test_ebit_rate_runs(self, tmp_path, capsys):
        path = tmp_path / "rate.json"
        assert main(["ebit-rate", "--preset", "brubaker2022", "--out", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["bandwidth_hz"] == 2000.0
        assert json.loads(path.read_text()) == out

    @pytest.mark.parametrize(
        "command, first_column",
        [("threshold-vs-da", "d_a"), ("threshold-vs-loss", "loss_db"), ("device-run", "tau_e_db")],
    )
    def test_sweep_writes_csv(self, command, first_column, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        assert main([command, "--points", "2", "--out", str(path)]) == 0
        lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
        assert lines[0].split(",")[0] == first_column
        assert len(lines) == 1 + (4 if command == "threshold-vs-da" else 2)

    def test_csv_output_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["threshold-vs-da", "--points", "5", "--seed", "11"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("command", ["device-run", "threshold-vs-da"])
    def test_parallel_points_give_identical_output(self, command, tmp_path):
        out1, out2 = tmp_path / "jobs1.csv", tmp_path / "jobs2.csv"
        argv = [command, "--points", "3"]
        assert main(argv + ["--jobs", "1", "--out", str(out1)]) == 0
        assert main(argv + ["--jobs", "2", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_unknown_preset_is_config_error(self, capsys):
        assert main(["device-run", "--preset", "nope"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_config_file_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "cfg.json"
        bad.write_text("{not json")
        assert main(["device-run", "--config", str(bad)]) == 2
        bad.write_text(json.dumps({"unknown_key": 1}))
        assert main(["device-run", "--config", str(bad)]) == 2

    @pytest.mark.parametrize(
        "command, config, argv",
        [
            ("device-run",
             {"caps": {"d_a": -1, "d_b": 1, "tau_a": 0.9, "tau_b": 0.8, "n_th": 0}}, []),
            ("device-run", {"squeezing_db": 5}, []),
            ("device-run", {"caps": {"d_a": 1, "d_b": 1, "tau_a": 0.9, "tau_b": 0.8, "n_th": 0,
                                     "kappa_a": 5}}, []),
            ("device-run", {}, ["--points", "0"]),
            ("ebit-rate", {"fiber_km": -5}, []),
            ("validate", {}, ["--quick", "--seed", "-1"]),
            ("threshold-vs-loss", {"loss_db_max": -3}, []),
            ("threshold-vs-da", {"d_a_range": [0, 10]}, []),
            ("device-run", {"taue_db_max": -3}, []),
            ("threshold-vs-da", {"tau_a": 1.5}, []),
            ("device-run", {"squeezing_db": [-3]}, []),
            ("threshold-vs-da", {"d_a_range": [1]}, []),
            ("validate", {}, ["--quick", "--seed", str(2**64)]),
            ("ebit-rate", {"fiber_km": 1e5}, []),
            ("device-run", {"jobs": 0}, []),
            ("threshold-vs-da", {}, ["--jobs", "-3"]),
            ("ebit-rate",
             {"caps": {"d_a": math.nan, "d_b": 1, "tau_a": 0.9, "tau_b": 0.8, "n_th": 0}}, []),
            ("ebit-rate", {"caps": {"d_a": 1, "d_b": 1, "tau_a": 0.9, "tau_b": 0.8, "n_th": 0,
                                    "kappa_a": math.inf, "kappa_b": 50, "gamma_m": 1}}, []),
            ("device-run", {"squeezing_db": [3, 3]}, []),
            ("device-run", {"squeezing_db": [3, 3.0000000000001]}, []),
            ("validate", {"checks_n": -5}, []),
            ("validate", {"checks_n": 0}, ["--quick"]),
        ],
        ids=["negative-cap", "scalar-for-list", "partial-rates", "zero-points",
             "negative-fiber", "negative-seed", "negative-loss-max", "zero-d_a", "gain-tau_e",
             "tau-above-1", "negative-squeezing", "one-entry-d_a_range", "seed-beyond-64-bits",
             "underflowing-fiber-loss", "zero-jobs", "negative-jobs", "nan-d_a",
             "infinite-kappa_a", "repeated-squeezing", "squeezing-sharing-a-tag",
             "negative-checks_n", "zero-checks_n"],
    )
    def test_invalid_config_is_config_error(self, command, config, argv, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(path), "--out", str(out)] + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, config, code",
        [
            ("threshold-vs-da", {"r": 400}, 2),
            ("threshold-vs-da", {"r": 355}, 2),
            ("threshold-vs-da", {"r": 100}, 0),
            ("device-run", {"squeezing_db": [4000]}, 2),
            ("device-run", {"squeezing_db": [2000]}, 2),
            ("device-run", {"squeezing_db": [1500]}, 2),
            ("device-run", {"squeezing_db": [10**400]}, 2),
            ("device-run", {"fiber_km": 10**400}, 2),
            ("threshold-vs-loss", {"loss_db_max": 10**400}, 2),
            ("threshold-vs-da", {"d_a_range": [1, 10**400]}, 2),
            ("threshold-vs-loss", {"loss_db_max": 0}, 0),
            ("threshold-vs-da", {"tau_a": 0}, 0),
        ],
        ids=["r-400", "r-355", "r-100", "squeezing-4000db", "squeezing-2000db",
             "squeezing-1500db", "squeezing-huge-int", "fiber-huge-int", "loss-max-huge-int",
             "d_a-huge-int", "zero-loss-window", "zero-tau_a"],
    )
    def test_edge_config_exits_cleanly(self, command, config, code, tmp_path, capfd):
        # capfd also catches what numpy's C code writes to stderr
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert main([command, "--config", str(path), "--points", "3"]) == code
        err = capfd.readouterr().err
        if code == 0:
            assert err == ""
        else:
            assert err.startswith("config error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "command, beyond",
        [(command, beyond)
         for command in ("threshold-vs-da", "threshold-vs-loss", "device-run", "ebit-rate")
         for beyond in (False, True)] + [("validate", True)],
    )
    def test_cooperativity_bound(self, command, beyond, tmp_path, capfd):
        # every cap a command reads may reach C_MAX, warning-free, and no
        # further; validate reads no caps, but its config is checked alike
        def at(bound):
            return math.nextafter(bound, math.inf) if beyond else bound

        cap = at(C_MAX)
        config = {
            "threshold-vs-da": {"d_a_range": [cap, cap], "d_b_values": [cap]},
            "threshold-vs-loss": {"d_b_loss": at(C_MAX / 10)},
        }.get(command, {"caps": {"d_a": cap, "d_b": cap, "tau_a": 0.9, "tau_b": 0.8, "n_th": 0.01}})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        size = {"validate": ["--quick"], "ebit-rate": []}.get(command, ["--points", "2"])
        assert main([command, "--config", str(path)] + size) == (2 if beyond else 0)
        err = capfd.readouterr().err
        if beyond:
            assert err.startswith("config error: ") and len(err.splitlines()) == 1
        else:
            assert err == ""

    @pytest.mark.parametrize(
        "command, config",
        [("threshold-vs-da", {"d_a_range": [1e7, 1e7], "d_b_values": [1e6]}),
         ("threshold-vs-loss", {"d_b_loss": 1e6})],
    )
    def test_large_caps_return(self, command, config, tmp_path):
        # where adjacent floats lie more than 1e-10 apart, max_stable_ca
        # must still return; in a subprocess, so that a hang fails the test
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code = "import sys; from gausslink.cli import main; sys.exit(main(sys.argv[1:]))"
        done = subprocess.run(
            [sys.executable, "-c", code, command, "--points", "2", "--config", str(path)],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": SRC},
        )
        assert done.returncode == 0 and done.stderr == "", done.stderr

    def test_jobs_1_loads_no_multiprocessing(self):
        # the process pool is imported only by a run with --jobs > 1
        code = ("import sys; from gausslink.cli import main; main(['threshold-vs-da', "
                "'--points', '2']); print('multiprocessing' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, env={**os.environ, "PYTHONPATH": SRC})
        assert done.returncode == 0 and done.stdout.splitlines()[-1] == "False"

    def test_validate_takes_no_points(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--quick", "--points", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --points" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", ["threshold-vs-da", "threshold-vs-loss", "device-run", "ebit-rate", "validate"]
    )
    def test_out_into_missing_directory_is_config_error(self, command, tmp_path, capsys,
                                                         monkeypatch):
        # the path is checked before the command runs any point
        name = "cmd_" + command.replace("-", "_")
        monkeypatch.setattr(cli, name, lambda cfg: pytest.fail(f"{name} ran"))
        out = tmp_path / "missing" / "out"
        argv = [command] + (["--quick"] if command == "validate" else []) + ["--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {out}: ")
        assert len(err.splitlines()) == 1
        assert not out.parent.exists()

    def test_failed_write_is_config_error(self, tmp_path, capsys, monkeypatch):
        # the directory vanishes after the check: the write fails, typed
        out = tmp_path / "sub" / "out.csv"
        out.parent.mkdir()

        def sweep(cfg):
            out.parent.rmdir()
            return cmd_threshold_vs_da(cfg)

        monkeypatch.setattr(cli, "cmd_threshold_vs_da", sweep)
        assert main(["threshold-vs-da", "--points", "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {out}: ")
        assert len(err.splitlines()) == 1

    def test_config_file_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fiber_km": 0.0}))
        assert main(["ebit-rate", "--preset", "brubaker2022", "--config", str(cfg)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["fiber_km"] == 0.0
        assert out["tau_e"] == 1.0

    def test_caps_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "caps": {
                        "d_a": 100.0, "d_b": 10.0, "tau_a": 0.9, "tau_b": 0.8,
                        "n_th": 1.0, "kappa_a": 100.0, "kappa_b": 100.0, "gamma_m": 1.0,
                    },
                    "fiber_km": 0.0,
                }
            )
        )
        assert main(["ebit-rate", "--config", str(cfg)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["log_negativity"] > 0.0

    def test_validate_quick_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert main(["validate", "--quick", "--seed", "5", "--out", str(path)]) == 0
        assert "overall: PASS" in capsys.readouterr().out
        report = json.loads(path.read_text())
        assert report["pass"] is True
        assert all(r["pass"] is True for r in report["results"])

    def test_validate_failure_exits_one(self, capsys, monkeypatch):
        import gausslink.experiments as exp

        monkeypatch.setattr(
            exp, "_check_determinism", lambda seed, n: [(1.0, lambda: "forced failure")]
        )
        assert main(["validate", "--quick", "--seed", "5"]) == 1
        out = capsys.readouterr().out
        assert "overall: FAIL" in out and "forced failure" in out
