import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from gausslink import cli, experiments
from gausslink.cli import main
from gausslink.experiments import (
    SETTINGS,
    _TOPOLOGY_COLUMNS,
    ConfigError,
    ExperimentConfig,
    _check_conversion_trace,
    _check_mo_oracle,
    _check_swap_theorem,
    _check_thresholds,
    _linspace,
    _map_points,
    _worst_draw,
    cmd_device_run,
    cmd_ebit_rate,
    cmd_threshold_vs_da,
    cmd_threshold_vs_loss,
    cmd_validate,
    device_columns,
)
from gausslink.presets import brubaker2022_caps
from gausslink.sources import MoKind
from gausslink.transducer import C_MAX

SRC = str(Path(__file__).resolve().parent.parent / "src")
README = Path(__file__).resolve().parent.parent / "README.md"

# a valid, non-default value of every ExperimentConfig field but
# experiment and out, in its JSON form
_CAPS = {"d_a": 300.0, "d_b": 20.0, "tau_a": 0.8, "tau_b": 0.7, "n_th": 0.5}
_OTHER = {
    "caps": _CAPS, "squeezing_db": [4.0], "r": 0.3, "points": 3, "d_a_range": [1.0, 100.0],
    "d_b_values": [5.0], "d_b_loss": 100.0, "tau_a": 0.8, "tau_b": 0.6, "loss_db_max": 12.0,
    "taue_db_max": 3.0, "fiber_km": 5.0, "loss_db_per_km": 0.3, "bandwidth_hz": 500.0,
    "seed": 7, "jobs": 2, "checks_n": 150,
}


def _other_value(key):
    """_OTHER[key] as ExperimentConfig holds it."""
    value = _OTHER[key]
    if key == "caps":
        return DeviceCaps(**value)
    return tuple(value) if isinstance(value, list) else value


def _fields(config, argv):
    """The ExperimentConfig fields that main sets from a JSON config and flags."""
    fields = {k: tuple(v) if isinstance(v, list) else v for k, v in config.items()}
    if "--quick" in argv:
        argv = [a for a in argv if a != "--quick"]
        fields["checks_n"] = 2000
    fields.update((flag[2:], int(v)) for flag, v in zip(argv[::2], argv[1::2]))
    return fields


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

    def test_em_swap_closed_form_where_c_b_star_is_zero(self, vs_da_result):
        # where 4 tau_a tau_b d_a <= 1 + d_a (tau_a = 1, tau_b = 0.75 here) the
        # maximiser is (d_a, 0) in closed form, d_a itself and not a search's
        # point an ulp below it
        rows, _ = vs_da_result
        cfg = ExperimentConfig()
        exit_rows = [row for row in rows
                     if 4.0 * cfg.tau_a * cfg.tau_b * row["d_a"] <= 1.0 + row["d_a"]]
        assert len(exit_rows) == 8
        for row in exit_rows:
            assert row["em_swap"] == 0.0, row
            assert row["em_swap_argmax"] == (row["d_a"], 0.0, row["d_a"], 0.0), row

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
        # the sweeps run on fixed grids: no seed to record
        assert not any(line.startswith("# seed=") for line in head)
        assert "d_a,d_b,eo_down" in text

    def test_rows_carry_consistent_flags_and_argmax(self, vs_da_result):
        # each column holds its value and its argmax, and nothing else
        rows, _ = vs_da_result
        for row in rows:
            assert set(row) == {"d_a", "d_b"} | {
                key for name, _ in _TOPOLOGY_COLUMNS for key in (name, f"{name}_argmax")
            }
            for name, _ in _TOPOLOGY_COLUMNS:
                assert row[name] >= 0.0
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
        # tau_b = 1, so 2 tau_a tau_b <= 1 wherever tau_a <= 1/2: EM-swap's
        # maximiser is then exactly c_b = 0, c_a = min(d_a, 1) = 1
        high_loss = [row for row in rows if not 2.0 * row["tau_a"] > 1.0]
        assert len(high_loss) == 27
        for row in high_loss:
            assert row["em_swap"] == 0.0, row["loss_db"]
            assert row["em_swap_argmax"] == (1.0, 0.0, 1.0, 0.0), row["loss_db"]

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

    def test_searches_nothing(self, monkeypatch):
        # every column is solved node by node, and the EM columns (r = 0)
        # stop at mu = 0: their sources correlate nothing.  Every search
        # runs optimize.maximize_box, which thresholds looks up at each
        # call, and device-run builds no search box; its cells all reach
        # the _NodeRoot that solves them
        from gausslink import thresholds

        def search(*args, **kwargs):
            raise AssertionError("device-run searched")

        solved = []
        of = thresholds._NodeRoot.of.__func__
        monkeypatch.setattr(thresholds, "maximize_box", search)
        monkeypatch.setattr(thresholds._CooperativityBox, "of", classmethod(search))
        monkeypatch.setattr(thresholds._NodeRoot, "of",
                            classmethod(lambda cls, *a: solved.append(1) or of(cls, *a)))
        cfg = ExperimentConfig(experiment="device-run")
        rows, _ = cmd_device_run(cfg)
        assert len(rows) == cfg.points
        assert len(solved) == cfg.points * (len(device_columns(cfg.squeezing_db)) - 2)

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

    @pytest.mark.parametrize("checks_n", [-5, 0, 2.0, True, None])
    def test_rejects_an_invalid_checks_n(self, checks_n):
        # checks_n=-5 used to run the floor draw counts and pass
        with pytest.raises(ValueError, match="checks_n must be an integer >= 1"):
            cmd_validate(ExperimentConfig(experiment="validate", checks_n=checks_n))

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
        assert main(["ebit-rate", "--out", str(path)]) == 0
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

    def test_threshold_vs_da_at_zero_d_b_prints_zeros(self, tmp_path):
        # no topology entangles without a microwave cooperativity
        config, out = tmp_path / "cfg.json", tmp_path / "sweep.csv"
        config.write_text(json.dumps({"d_b_values": [0], "points": 3}))
        assert main(["threshold-vs-da", "--config", str(config), "--out", str(out)]) == 0
        lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
        assert header[:2] == ["d_a", "d_b"] and len(rows) == 3
        assert all(float(v) == 0.0 for row in rows for v in row[1:]), rows

    def test_csv_output_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["threshold-vs-da", "--points", "5"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize(
        "command, settings",
        [("device-run", {"squeezing_db": (0, 6), "points": 13}), ("device-run", {}), ("threshold-vs-da", {})],
        ids=["device-run-13-points-0-6-dB", "device-run", "threshold-vs-da"],
    )
    def test_parallel_points_give_identical_output(self, command, settings, monkeypatch):
        # every row, values and argmax at full precision (repr), where a CSV
        # prints 12 digits and no argmax.  _map_points caps its workers at the
        # CPU count: report two, so that jobs = 2 starts a real pool on a
        # one-CPU machine too.  Both runs share the preset caps object, whose
        # blue nodes the jobs = 1 run builds; a worker gets its fields alone
        # (DeviceCaps.__getstate__) and builds its own.  device-run builds its
        # column list once and sends it to the workers, so a run at other
        # squeezing values is compared too
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cmd = cmd_device_run if command == "device-run" else cmd_threshold_vs_da
        texts = [repr(cmd(ExperimentConfig(experiment=command, jobs=jobs, **settings))[0]) for jobs in (1, 2)]
        assert texts[0] == texts[1], f"{command} rows differ between jobs = 1 and jobs = 2"
        assert "_argmax" in texts[0]

    def test_device_run_text_does_not_depend_on_earlier_caps(self, tmp_path):
        # each caps object keeps the blue nodes built from it: default caps,
        # other rates, then default caps again give the first text twice,
        # and the run at other rates, in a process that has solved the
        # default caps, gives the text of a fresh process
        cfg = ExperimentConfig(experiment="device-run")
        other = dataclasses.replace(cfg.caps, rates=PhysicalRates(kappa_a=20.0, kappa_b=500.0, gamma_m=2.0))
        first = cmd_device_run(cfg)[1]
        warm = cmd_device_run(dataclasses.replace(cfg, caps=other))[1]
        assert warm != first and cmd_device_run(cfg)[1] == first
        caps = dataclasses.asdict(other)
        caps.update(caps.pop("rates"))
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"caps": caps}))
        code = "import sys; from gausslink.cli import main; sys.exit(main(sys.argv[1:]))"
        done = subprocess.run([sys.executable, "-c", code, "device-run", "--config", str(path)],
                              capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": SRC})
        assert done.returncode == 0 and done.stdout == warm, done.stderr

    def test_bad_config_file_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "cfg.json"
        bad.write_text("{not json")
        assert main(["device-run", "--config", str(bad)]) == 2
        bad.write_text(json.dumps({"unknown_key": 1}))
        assert main(["device-run", "--config", str(bad)]) == 2

    @pytest.mark.parametrize(
        "command, config, argv, library",
        [
            ("device-run",
             {"caps": {"d_a": -1, "d_b": 1, "tau_a": 0.9, "tau_b": 0.8, "n_th": 0}}, [], False),
            ("device-run", {"squeezing_db": 5}, [], True),
            ("device-run", {"caps": {"d_a": 1, "d_b": 1, "tau_a": 0.9, "tau_b": 0.8, "n_th": 0,
                                     "kappa_a": 5}}, [], False),
            ("device-run", {}, ["--points", "0"], True),
            ("ebit-rate", {"fiber_km": -5}, [], True),
            ("validate", {}, ["--quick", "--seed", "-1"], True),
            ("threshold-vs-loss", {"loss_db_max": -3}, [], True),
            ("threshold-vs-da", {"d_a_range": [0, 10]}, [], True),
            ("device-run", {"taue_db_max": -3}, [], True),
            ("threshold-vs-da", {"tau_a": 1.5}, [], True),
            ("device-run", {"squeezing_db": [-3]}, [], True),
            ("threshold-vs-da", {"d_a_range": [1]}, [], True),
            ("validate", {}, ["--quick", "--seed", str(2**64)], True),
            ("ebit-rate", {"fiber_km": 1e5}, [], True),
            ("device-run", {"jobs": 0}, [], True),
            ("threshold-vs-da", {}, ["--jobs", "-3"], True),
            ("ebit-rate",
             {"caps": {"d_a": math.nan, "d_b": 1, "tau_a": 0.9, "tau_b": 0.8, "n_th": 0}}, [],
             False),
            ("ebit-rate", {"caps": {"d_a": 1, "d_b": 1, "tau_a": 0.9, "tau_b": 0.8, "n_th": 0,
                                    "kappa_a": math.inf, "kappa_b": 50, "gamma_m": 1}}, [], False),
            ("device-run", {"squeezing_db": [3, 3]}, [], True),
            ("device-run", {"squeezing_db": [3, 3.0000000000001]}, [], True),
            ("validate", {"checks_n": -5}, [], True),
            ("validate", {"checks_n": 0}, [], True),
            ("validate", {"checks_n": None}, [], True),
            ("validate", {"checks_n": 100}, ["--quick"], False),
            ("threshold-vs-da", {"points": 0}, [], True),
            ("ebit-rate", {"bandwidth_hz": -1}, [], True),
            ("threshold-vs-da", {"d_a_range": [1, 10, 100]}, [], True),
            ("threshold-vs-da", {"d_b_values": []}, [], True),
            ("device-run", {"squeezing_db": []}, [], True),
            ("device-run", {"points": 2.5}, [], True),
            ("device-run", {"jobs": 1.5}, [], True),
            ("threshold-vs-da", {"points": True}, [], True),
            ("validate", {"seed": 1.0}, [], True),
            ("device-run", {"squeezing_db": 5.0}, [], True),
            ("threshold-vs-da", {"tau_a": "0.5"}, [], True),
            ("device-run", {"caps": None}, [], "caps must be a DeviceCaps, got None"),
            ("ebit-rate", {"caps": None}, [], "caps must be a DeviceCaps, got None"),
        ],
        ids=["negative-cap", "scalar-for-list", "partial-rates", "zero-points",
             "negative-fiber", "negative-seed", "negative-loss-max", "zero-d_a", "gain-tau_e",
             "tau-above-1", "negative-squeezing", "one-entry-d_a_range", "seed-beyond-64-bits",
             "underflowing-fiber-loss", "zero-jobs", "negative-jobs", "nan-d_a",
             "infinite-kappa_a", "repeated-squeezing", "squeezing-sharing-a-tag",
             "negative-checks_n", "zero-checks_n", "null-checks_n", "quick-with-checks_n",
             "zero-points-config", "negative-bandwidth", "three-entry-d_a_range", "empty-d_b_values",
             "empty-squeezing", "fractional-points", "fractional-jobs", "boolean-points",
             "float-seed", "float-for-list", "string-tau_a", "null-caps-device-run",
             "null-caps-ebit-rate"],
    )
    def test_invalid_config_is_config_error(self, command, config, argv, library, tmp_path,
                                            capsys):
        # library marks a type or value rule, which the cmd_* function checks
        # too, with the CLI's message, or else with the message it names; the
        # other cases are JSON the CLI cannot turn into an ExperimentConfig
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(path), "--out", str(out)] + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert len(err.splitlines()) == 1
        # each case is a key the command reads, rejected for its value
        assert "reads no config key" not in err
        assert not out.exists()
        if library:
            cfg = ExperimentConfig(**_fields(config, argv), out=str(out))
            with pytest.raises(ConfigError) as exc:
                getattr(cli, "cmd_" + command.replace("-", "_"))(cfg)
            assert f"config error: {exc.value}\n" == (
                err if library is True else f"config error: {library}\n"
            )
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
            ("ebit-rate", {"fiber_km": 10**400}, 2),
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
        points = ["--points", "3"] if "points" in SETTINGS[command] else []
        assert main([command, "--config", str(path)] + points) == code
        err = capfd.readouterr().err
        if code == 0:
            assert err == ""
        else:
            assert err.startswith("config error: ") and len(err.splitlines()) == 1
            assert "reads no config key" not in err

    @pytest.mark.parametrize(
        "command, beyond",
        [(command, beyond)
         for command in ("threshold-vs-da", "threshold-vs-loss", "device-run", "ebit-rate")
         for beyond in (False, True)] + [("validate", True)],
    )
    def test_cooperativity_bound(self, command, beyond, tmp_path, capfd):
        # every cap a command reads may reach C_MAX, warning-free, and no
        # further; validate reads no caps, so it rejects the key
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

    @pytest.mark.parametrize("points, cpus, workers", [(2, 64, 2), (10, 3, 3), (1, 64, 1)])
    def test_workers_capped_by_points_and_cpus(self, points, cpus, workers, monkeypatch):
        # the pool forks every worker up front, so --jobs 10**6 must not ask
        # for a million; a recorder stands in for the pool and runs serially
        import concurrent.futures

        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert _map_points(abs, range(-points, 0), 10**6) == list(range(points, 0, -1))
        assert asked == ([workers] if workers > 1 else [])

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
        # the path is checked before the command runs any point, search or check
        import gausslink.experiments as exp

        for name in ("_map_points", "_threshold_cells", "optimize_cooperativities",
                     "_worst_draw"):
            monkeypatch.setattr(exp, name, lambda *args, name=name: pytest.fail(f"{name} ran"))
        out = tmp_path / "missing" / "out"
        argv = [command] + (["--quick"] if command == "validate" else []) + ["--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {out}: ")
        assert len(err.splitlines()) == 1
        assert not out.parent.exists()

    def test_failed_write_is_config_error(self, tmp_path, capsys, monkeypatch):
        # the directory vanishes after the check: the write fails, typed
        import gausslink.experiments as exp

        out = tmp_path / "sub" / "out.csv"
        out.parent.mkdir()
        map_points = exp._map_points

        def sweep(*args):
            out.parent.rmdir()
            return map_points(*args)

        monkeypatch.setattr(exp, "_map_points", sweep)
        assert main(["threshold-vs-da", "--points", "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {out}: ")
        assert len(err.splitlines()) == 1

    def test_config_file_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fiber_km": 0.0}))
        assert main(["ebit-rate", "--config", str(cfg)]) == 0
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

    @pytest.mark.parametrize("command", ["device-run", "ebit-rate"])
    @pytest.mark.parametrize(
        "rates",
        [{"kappa_a": 1e6, "kappa_b": 3.0, "gamma_m": 1e308},
         {"kappa_a": 1e-200, "kappa_b": 1e-200, "gamma_m": 1e-200},
         {"kappa_a": 1e-170, "kappa_b": 3.0, "gamma_m": 1e-170}],
        ids=["overflowing-product", "underflowing-products", "underflowing-optical-product"],
    )
    def test_rates_beyond_the_double_range_are_config_errors(self, command, rates, tmp_path,
                                                             capsys):
        # kappa_+ gamma_m overflows to inf (the stability bound is NaN) or
        # underflows to 0 (the bound divides by it)
        caps = {"d_a": 26000.0, "d_b": 10.0, "tau_a": 0.157, "tau_b": 0.33, "n_th": 1.0, **rates}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"caps": caps}))
        size = ["--points", "2"] if command == "device-run" else []
        assert main([command, "--config", str(cfg)] + size) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: invalid caps: ") and len(err.splitlines()) == 1
        assert all(f"{k}={v!r}" in err for k, v in rates.items()), err

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


class TestSettings:
    """Each command takes exactly the settings of its SETTINGS row."""

    def test_every_field_has_an_other_value(self):
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert fields == set(_OTHER) | {"experiment", "out"}
        assert all(set(row) <= fields for row in SETTINGS.values())

    @pytest.mark.parametrize("command", list(SETTINGS))
    def test_command_reads_no_field_outside_its_row(self, command):
        # every field outside the row at a non-default value leaves the
        # command's whole result byte-identical
        row = SETTINGS[command]
        small = {k: v for k, v in (("points", 2), ("checks_n", 1)) if k in row}
        base = ExperimentConfig(experiment=command, **small)
        other = dataclasses.replace(
            base, **{k: _other_value(k) for k in _OTHER if k not in row})
        run = getattr(cli, "cmd_" + command.replace("-", "_"))
        assert repr(run(other)) == repr(run(base))

    @pytest.mark.parametrize("command", list(SETTINGS))
    def test_config_takes_the_row_keys(self, command, tmp_path, monkeypatch):
        row = SETTINGS[command]
        config = {k: (str(tmp_path / "out") if k == "out" else _OTHER[k]) for k in row}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        class Ran(Exception):
            pass

        def record(cfg):
            raise Ran(cfg)  # stops main before it reads a result

        monkeypatch.setattr(cli, "cmd_" + command.replace("-", "_"), record)
        with pytest.raises(Ran) as ran:
            main([command, "--config", str(path)])
        assert {k: getattr(ran.value.args[0], k) for k in row} == {
            k: (config[k] if k == "out" else _other_value(k)) for k in row}

    @pytest.mark.parametrize(
        "command, key",
        [(command, key) for command, row in SETTINGS.items()
         for key in ["experiment", *_OTHER] if key not in row],
    )
    def test_config_rejects_other_keys(self, command, key, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: _OTHER.get(key, command)}))
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {command} reads no config key '{key}'\n"
        assert not out.exists()

    @staticmethod
    def _flags(text: str) -> set[str]:
        return set(re.findall(r"--[a-z]+", text)) - {"--help"}

    def _offered(self, command, capsys) -> set[str]:
        with pytest.raises(SystemExit):
            main([command, "--help"])
        return self._flags(capsys.readouterr().out.split("\n\n")[0])  # the usage lines

    @pytest.mark.parametrize("command", list(SETTINGS))
    def test_flags_follow_the_row(self, command, capsys):
        row = SETTINGS[command]
        want = {"--config", "--out"} | {f"--{k}" for k in ("seed", "jobs", "points") if k in row}
        want |= {"--quick"} if command == "validate" else set()
        assert self._offered(command, capsys) == want

    @pytest.mark.parametrize(
        "argv", [["threshold-vs-da", "--preset", "brubaker2022"], ["ebit-rate", "--seed", "3"],
                 ["validate", "--jobs", "2"], ["device-run", "--preset", "brubaker2022"],
                 ["ebit-rate", "--preset", "brubaker2022"], ["threshold-vs-da", "--seed", "1"],
                 ["device-run", "--seed", "1"], ["threshold-vs-loss", "--jobs", "2"]],
    )
    def test_other_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", list(SETTINGS))
    def test_docs_name_the_offered_settings(self, command, capsys):
        # the README and cli synopses, and the README's table of config keys
        offered = self._offered(command, capsys)
        readme = README.read_text()
        for doc in (readme, cli.__doc__):
            lines = [line for line in doc.splitlines()
                     if line.strip().startswith(f"gausslink {command} ")]
            assert len(lines) == 1, lines
            assert self._flags(lines[0]) == offered
        [row] = [line for line in readme.splitlines() if line.startswith(f"| `{command}` |")]
        assert re.findall(r"`(\w+)`", row.split("|")[2]) == list(SETTINGS[command])


class TestLinspace:
    """The device-run, threshold-vs-loss and loss-split grids, without numpy."""

    @pytest.mark.parametrize("start", [0.0, 0.3])
    @pytest.mark.parametrize("stop", [0, 1e-9, 3, 6, 7.3, 40, 1e3])
    @pytest.mark.parametrize("num", [1, 2, 3, 13, 201, 1000])
    def test_is_numpy_linspace_bit_for_bit(self, start, stop, num):
        grid = _linspace(start, stop, num)
        assert all(type(x) is float for x in grid)
        assert [x.hex() for x in grid] == [x.hex() for x in np.linspace(start, stop, num).tolist()]

    @pytest.mark.parametrize("stop, num", [(5e-324, 3), (1e-321, 1000), (-5e-324, 7)])
    def test_an_underflowing_step_too(self, stop, num):
        # step == 0, where numpy scales i / (num - 1) by stop - start
        grid = _linspace(0.0, stop, num)
        assert [x.hex() for x in grid] == [x.hex() for x in np.linspace(0.0, stop, num).tolist()]


class TestSizeBounds:
    """Each size a run allocates by is bounded above, and a setting beyond
    its bound exits 2 before a grid, a point or a draw is built."""

    @pytest.mark.parametrize(
        "command, config, argv, message",
        [
            ("device-run", {}, ["--points", "1000000000"], "points must be >= 1 and at most 100000"),
            ("device-run", {"points": 10**28}, [], "points must be >= 1 and at most 100000"),
            ("threshold-vs-loss", {}, ["--points", "100001"], "points must be >= 1 and at most 100000"),
            ("threshold-vs-loss", {"points": 10**28}, [], "points must be >= 1 and at most 100000"),
            ("threshold-vs-da", {}, ["--points", "50001"],
             "points x len(d_b_values) must be at most 100000, got 100002"),
            ("threshold-vs-da", {"points": 20001, "d_b_values": [1, 2, 3, 4, 5]}, [],
             "points x len(d_b_values) must be at most 100000, got 100005"),
            ("device-run", {"squeezing_db": list(range(17))}, [], "squeezing_db must be 1 to 16 values"),
            ("validate", {"checks_n": 10**7}, [], "checks_n must be an integer >= 1, at most 10**6"),
            ("ebit-rate", {"caps": {"d_a": 1e6, "d_b": 1e6, "tau_a": 1, "tau_b": 1, "n_th": 0},
                           "fiber_km": 0, "bandwidth_hz": 1e308}, [],
             "bandwidth_hz must be >= 0 and at most 1e15 Hz"),
        ],
        ids=["points-flag", "points-config", "loss-points-flag", "loss-points-config",
             "da-grid-flag", "da-grid-config", "squeezing-values", "checks_n", "bandwidth"],
    )
    def test_beyond_a_bound_is_config_error(self, command, config, argv, message, tmp_path, capsys,
                                            monkeypatch):
        def ran(name):
            return lambda *args, **kwargs: pytest.fail(f"{name} ran")

        for name in ("_linspace", "_map_points", "_threshold_cells", "_worst_draw",
                     "optimize_cooperativities"):
            monkeypatch.setattr(experiments, name, ran(name))
        monkeypatch.setattr(np, "geomspace", ran("geomspace"))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert main([command, "--config", str(path)] + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}") and len(err.splitlines()) == 1, err

    @pytest.mark.parametrize(
        "command, config",
        [("threshold-vs-loss", {"points": 100_000}),
         ("threshold-vs-da", {"points": 50_000, "d_b_values": [1, 2]}),
         ("device-run", {"squeezing_db": list(range(16))}),
         ("validate", {"checks_n": 10**6}),
         ("ebit-rate", {"bandwidth_hz": 1e15})],
    )
    def test_the_bounds_themselves_pass(self, command, config):
        cfg = ExperimentConfig(experiment=command, **{
            k: tuple(v) if isinstance(v, list) else v for k, v in config.items()})
        experiments._check_settings(cfg, command)


#: Edge values of the config fuzz: numbers (zero, +-1, the least
#: subnormal, the largest double, 2**64), lists of them, and values of
#: no setting's type (a string, null, an empty list, an object)
_NUMBER = st.sampled_from([0, 1, -1, 0.5, 5e-324, 1e308, -1e308, 2**64])
_EDGE_VALUE = st.one_of(
    _NUMBER,
    st.lists(_NUMBER, min_size=1, max_size=3),
    st.sampled_from(["1", None, [], [None], {"d_a": 1}]),
)
#: caps objects: each field a cap's edge, with all three rates or none
_EDGE_CAPS = st.builds(
    lambda caps, rates: {**caps, **rates},
    st.fixed_dictionaries({k: st.sampled_from([0, 5e-324, 0.5, 1, 1e6, 1e12, -1, 1e308])
                           for k in _CAPS}),
    st.one_of(st.just({}), st.fixed_dictionaries({k: _NUMBER for k in ("kappa_a", "kappa_b", "gamma_m")})),
)


def _edge_setting(key):
    """Edge values for a setting: three in four of its default's shape (a
    number, a list of numbers, caps), so that some configs run."""
    default = getattr(ExperimentConfig(), key)
    if key == "points":
        shaped = st.sampled_from([1, 2, 5])
    elif key == "caps":
        shaped = _EDGE_CAPS
    elif isinstance(default, tuple):
        shaped = st.lists(_NUMBER, min_size=1, max_size=3)
    else:
        shaped = _NUMBER
    return st.integers(0, 3).flatmap(lambda i: shaped if i else _EDGE_VALUE)


#: Each setting at a largest edge, the one explicit draw of every
#: command: at these caps ebit-rate's 19.9 e-bits times 1e308 Hz would
#: overflow to inf
_LARGEST = {
    "caps": {"d_a": 1e6, "d_b": 1e6, "tau_a": 1, "tau_b": 1, "n_th": 0}, "fiber_km": 0,
    "loss_db_per_km": 0, "bandwidth_hz": 1e308, "points": 5, "checks_n": 1, "squeezing_db": [868],
    "d_a_range": [1e12, 1e12], "d_b_values": [1e12], "r": 100, "d_b_loss": 1e11,
    "loss_db_max": 1e308, "taue_db_max": 3000, "seed": 2**64 - 1, "jobs": 1, "tau_a": 1, "tau_b": 1,
}
#: A nan, inf or Infinity token in an output
_NON_FINITE = re.compile(r"(?<![a-z])(nan|-?inf(inity)?)(?![a-z])", re.I)


class TestConfigFuzz:
    """No JSON config lets an exception escape main, and no successful run
    prints a value that is not finite."""

    @pytest.mark.parametrize("command", list(SETTINGS))
    def test_edge_configs_exit_cleanly(self, command):
        # points stays at 5 or fewer and checks_n at 1 or invalid, so that
        # a run is quick; out is a path in a fresh directory or null
        row = SETTINGS[command]
        forced = {"points": _edge_setting("points").filter(lambda v: not (type(v) is int and v > 5)),
                  "checks_n": _edge_setting("checks_n").filter(lambda v: not (type(v) is int and v > 1))}
        strategies = {k: _edge_setting(k) for k in row if k not in forced and k != "out"}
        config = st.fixed_dictionaries(
            {k: forced[k] for k in row if k in forced},
            optional={**strategies, "out": st.sampled_from([None, "out"])})

        @settings(max_examples=15 if command == "validate" else 150, deadline=None,
                  derandomize=True, database=None)
        @given(config)
        @example({k: v for k, v in _LARGEST.items() if k in row})
        def run(config):
            with tempfile.TemporaryDirectory() as folder:
                if config.get("out"):
                    config["out"] = os.path.join(folder, "out")
                path = os.path.join(folder, "cfg.json")
                with open(path, "w") as fh:
                    json.dump(config, fh)
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main([command, "--config", path])
                assert code in (0, 1, 2), (config, code)
                if code == 2:
                    assert stderr.getvalue().startswith("config error: "), (config, stderr.getvalue())
                if code == 0:
                    texts = [stdout.getvalue()]
                    if config.get("out"):
                        with open(config["out"]) as fh:
                            texts.append(fh.read())
                    for text in texts:
                        # threshold-vs-loss's slopes are NaN where the fit
                        # window holds fewer than two distinct tau_a
                        lines = [line for line in text.splitlines() if not line.startswith("# slope_")]
                        assert not _NON_FINITE.search("\n".join(lines)), (config, text)

        run()
