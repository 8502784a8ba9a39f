import dataclasses
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rabsim
from rabsim import cli, dynamics, hilbert, models
from rabsim.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    ScenarioConfig,
    ValidationError,
    cyclic_to_angular,
    main,
    parse_config,
    read_csv,
)
from rabsim.models import GateKind

# Small, fast parameter set for end-to-end runs: shorter gate window via a
# lower omega/Omega_m ratio and the coarsest legal step.
FAST = ["--omega-ratio", "5", "--dt-divisor", "50"]

#: The ``run`` block of every sidecar.
RUN_RECORD = {
    "rabsim_version": rabsim.__version__,
    "numpy_version": np.__version__,
    "python_version": platform.python_version(),
}


def _subprocess_env() -> dict:
    """The environment of a ``python -m rabsim`` child that imports this rabsim."""
    src = Path(cli.__file__).resolve().parents[1]
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(src) + (os.pathsep + path if path else ""))


def test_unit_conversion_round_numbers():
    np.testing.assert_allclose(cyclic_to_angular(2.0, 1e6), 2.0 * np.pi * 2e6)
    np.testing.assert_allclose(cyclic_to_angular(1.5, 1e3), 2.0 * np.pi * 1.5e3)


class TestParseConfig:
    def test_operating_point_defaults(self):
        config = parse_config(["gate-fidelity"])
        assert config.omega_m_mhz == 2.0
        assert config.omega_ratio == 7.5
        assert config.gamma_khz == 1.5
        params = config.drive_params()
        np.testing.assert_allclose(params.v / params.omega_m, 14.9111, atol=5e-5)

    def test_population_scenario_defaults_to_no_decay(self):
        config = parse_config(["rab-populations"])
        assert config.gamma_khz == 0.0

    def test_cnot_rri_resolution(self):
        config = parse_config(["gate-fidelity", "--omega-ratio", "7.5", "--gate", "cnot"])
        params = config.drive_params()
        np.testing.assert_allclose(params.v / params.omega_m, 14.8667, atol=5e-5)

    def test_v_override(self):
        config = parse_config(["gate-fidelity", "--v-over-om", "15"])
        assert config.drive_params().v == 15.0 * config.drive_params().omega_m

    def test_all_offending_fields_reported(self):
        with pytest.raises(ValidationError) as err:
            parse_config(["gate-fidelity", "--omega-m-mhz", "0", "--dt-divisor", "2",
                          "--gamma-khz", "-1"])
        message = str(err.value)
        assert "omega_m_mhz" in message
        assert "dt_divisor" in message
        assert "gamma_khz" in message

    def test_config_file_and_flag_precedence(self, tmp_path):
        config_file = tmp_path / "run.conf"
        config_file.write_text(
            "# comment line\n"
            "omega_ratio = 6.0   # inline comment\n"
            "dt_divisor = 100\n"
            "gate = cnot\n"
        )
        config = parse_config(
            ["gate-fidelity", "--config", str(config_file), "--dt-divisor", "120"]
        )
        assert config.omega_ratio == 6.0
        assert config.dt_divisor == 120  # flag wins over file
        assert config.gate is GateKind.CNOT

    # grid_n was the fidelity quadrature size; the average is now exact.
    @pytest.mark.parametrize("key", ["not_a_key", "grid_n"])
    def test_config_file_unknown_key(self, key, tmp_path, capsys):
        config_file = tmp_path / "bad.conf"
        config_file.write_text(f"{key} = 8\n")
        assert main(["gate-fidelity", "--config", str(config_file)]) == EXIT_VALIDATION
        assert f"unknown config key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, default, from_file, from_flag", [
        ("gate", GateKind.CZ, GateKind.CNOT, GateKind.CZ),
        ("omega_m_mhz", 2.0, 3.0, 2.5),
        ("omega_ratio", 7.5, 6.0, 7.0),
        ("gamma_khz", 1.5, 1.0, 0.5),
        ("v_over_om", None, 14.0, 16.0),
        ("dt_divisor", dynamics.DEFAULT_DT_DIVISOR, 100, 120),
        ("out", "gate_fidelity.csv", "file.csv", "flag.csv"),
    ])
    def test_flag_overrides_file_overrides_scenario_default(
            self, key, default, from_file, from_flag, tmp_path):
        def text(value):
            return value.value if isinstance(value, GateKind) else str(value)

        config_file = tmp_path / "run.conf"
        config_file.write_text(f"{key} = {text(from_file)}\n")
        flag = ["--" + key.replace("_", "-"), text(from_flag)]
        assert getattr(parse_config(["gate-fidelity"]), key) == default
        with_file = ["gate-fidelity", "--config", str(config_file)]
        assert getattr(parse_config(with_file), key) == from_file
        assert getattr(parse_config([*with_file, *flag]), key) == from_flag
        assert getattr(parse_config([*flag, *with_file]), key) == from_flag

    def test_config_file_keys_are_the_scenario_fields(self):
        names = {f.name for f in dataclasses.fields(ScenarioConfig)} - {"scenario"}
        assert set(cli._CONFIG_FILE_KEYS) == names

    @pytest.mark.parametrize("spelling", ["cnot", "CNOT", "Cnot"])
    def test_gate_is_read_in_any_case_from_flag_and_file(self, spelling, tmp_path):
        config_file = tmp_path / "run.conf"
        config_file.write_text(f"gate = {spelling}\n")
        assert parse_config(["gate-fidelity", "--gate", spelling]).gate is GateKind.CNOT
        assert parse_config(["gate-fidelity", "--config", str(config_file)]).gate is GateKind.CNOT

    def test_config_file_bad_value(self, tmp_path):
        config_file = tmp_path / "bad.conf"
        config_file.write_text("dt_divisor = many\n")
        with pytest.raises(ValidationError, match="bad value"):
            parse_config(["gate-fidelity", "--config", str(config_file)])


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ["no-such-scenario"],
        # The retired quadrature size.
        ["gate-fidelity", "--grid-n", "16"],
    ])
    def test_unknown_scenario_or_flag_is_usage_error(self, argv, capsys):
        assert main(argv) == EXIT_VALIDATION
        capsys.readouterr()

    @pytest.mark.parametrize("gate", ["xyz", ""])
    def test_unknown_gate_exits_2_from_flag_or_file(self, gate, tmp_path, capsys):
        assert main(["gate-fidelity", "--gate", gate]) == EXIT_VALIDATION
        assert "--gate" in capsys.readouterr().err
        config_file = tmp_path / "run.conf"
        config_file.write_text(f"gate = {gate}\n")
        assert main(["gate-fidelity", "--config", str(config_file)]) == EXIT_VALIDATION
        assert "gate must be 'cz' or 'cnot'" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["result.json", "nested/result.json"])
    def test_out_that_is_its_own_sidecar_is_validation_error(self, name, tmp_path, capsys):
        out = tmp_path / name
        out.parent.mkdir(exist_ok=True)
        assert main(["rab-populations", *FAST, "--out", str(out)]) == EXIT_VALIDATION
        assert "sidecar" in capsys.readouterr().err
        assert list(tmp_path.rglob("*.*")) == []

    @pytest.mark.parametrize("make, code", [
        (lambda path: None, EXIT_IO),  # missing
        (lambda path: path.mkdir(), EXIT_IO),  # a directory
        (lambda path: path.write_bytes(b"gate = c\xffz\n"), EXIT_VALIDATION),  # not UTF-8
    ], ids=["missing", "directory", "not-utf8"])
    def test_config_file_errors_take_the_documented_exit_code(
            self, make, code, tmp_path, capsys):
        config_file = tmp_path / "run.conf"
        make(config_file)
        out = tmp_path / "x.csv"
        assert main(["rab-populations", "--config", str(config_file),
                     "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err.startswith("rabsim: ") and err.count("\n") == 1
        assert str(config_file) in err
        assert not out.exists()

    def test_zero_drive_rejected(self, capsys):
        code = main(["gate-fidelity", "--gate", "cz", "--gamma-khz", "0",
                     "--omega-m-mhz", "0"])
        assert code == EXIT_VALIDATION
        assert "omega_m_mhz" in capsys.readouterr().err

    def test_heatmap_with_decay_rejected(self, capsys):
        code = main(["heatmap", "--gamma-khz", "1.0"])
        assert code == EXIT_VALIDATION
        capsys.readouterr()

    def test_unwritable_output_is_io_error(self, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "x.csv"
        code = main(["rab-populations", *FAST, "--out", str(out)])
        assert code == EXIT_IO
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["fidelity-vs-gamma", "--gamma-khz", "nan"],
        ["gate-fidelity", "--gamma-khz", "inf"],
        ["rab-populations", "--omega-ratio", "inf"],
        ["rab-populations", "--omega-m-mhz", "nan"],
        ["gate-fidelity", "--v-over-om", "inf"],
        # Finite, but omega_m^2 overflows while matching V.
        ["rab-populations", "--omega-m-mhz", "1e300"],
    ])
    def test_non_finite_input_is_validation_error(self, argv, tmp_path, capsys):
        assert main([*argv, "--out", str(tmp_path / "x.csv")]) == EXIT_VALIDATION
        assert "invalid configuration" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv", [
        # omega_m^2 overflows: the gate time rounds to zero.
        ["rab-populations", "--omega-m-mhz", "1e150", "--v-over-om", "15"],
        # omega_m^2 underflows: the gate time divides by zero.
        ["rab-populations", "--omega-m-mhz", "1e-300"],
    ])
    def test_gate_time_out_of_range_is_validation_error(self, argv, tmp_path, capsys):
        assert main([*argv, "--out", str(tmp_path / "x.csv")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "invalid configuration" in err
        assert "omega_m_mhz" in err and "omega_ratio" in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("key", ["v_max", "w_min"])
    def test_non_finite_heatmap_extent_is_validation_error(self, key, tmp_path, capsys):
        config_file = tmp_path / "heat.conf"
        config_file.write_text(f"{key} = inf\n")
        code = main(["heatmap", "--config", str(config_file), "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_VALIDATION
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        *([scenario, "--v-over-om", "1e300"] for scenario in cli.SCENARIOS),
        ["rab-populations", "--omega-ratio", "1e12"],
        ["gate-fidelity", "--omega-ratio", "1e12"],
    ])
    def test_lattice_beyond_the_index_range_is_validation_error(self, argv, tmp_path, capsys):
        # Finite inputs whose step lattice outgrows numpy's index integers:
        # TimeGrid rejects the lattice before anything is allocated.
        assert main([*argv, "--out", str(tmp_path / "x.csv")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("rabsim: the lattice of m = ") and err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

    def test_out_of_memory_exits_3_with_one_line(self, tmp_path, monkeypatch, capsys):
        def too_large(config):
            raise MemoryError("Unable to allocate 194. TiB for an array")

        monkeypatch.setitem(cli._RUNNERS, "rab-populations", too_large)
        code = main(["rab-populations", "--out", str(tmp_path / "x.csv")])
        assert code == cli.EXIT_INTEGRATOR
        assert capsys.readouterr().err == (
            "rabsim: out of memory: Unable to allocate 194. TiB for an array\n")
        assert not (tmp_path / "x.csv").exists()

    def test_nan_dynamics_maps_to_exit_3(self, tmp_path, monkeypatch, capsys):
        generator = cli.dynamics._generator

        def nan_generator(*args, **kwargs):
            a0, a1, parity = generator(*args, **kwargs)
            return a0 * np.nan, a1, parity

        monkeypatch.setattr(cli.dynamics, "_generator", nan_generator)
        code = main(["rab-populations", *FAST, "--out", str(tmp_path / "x.csv")])
        assert code == cli.EXIT_INTEGRATOR
        assert "drifted by nan" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["gate-fidelity", "--gamma-khz", "1e30"],
        ["fidelity-vs-gamma", "--gamma-khz", "1e300"],
    ])
    def test_diverging_run_exits_3_with_one_line(self, argv, tmp_path, capsys):
        # The maps overflow to inf and NaN; the health gate names the drift,
        # and no numpy warning escapes, in-process or on stderr.
        argv = [*argv, "--out", str(tmp_path / "x.csv")]
        assert main(argv) == cli.EXIT_INTEGRATOR
        assert "drifted by nan" in capsys.readouterr().err
        result = subprocess.run([sys.executable, "-m", "rabsim", *argv], env=_subprocess_env(),
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == cli.EXIT_INTEGRATOR
        assert result.stderr.startswith("rabsim: ") and result.stderr.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_arithmetic_error_maps_to_exit_3(self, tmp_path, monkeypatch, capsys):
        def overflow(*args, **kwargs):
            raise OverflowError("numerical result out of range")

        monkeypatch.setattr("rabsim.cli.dynamics.propagate_density", overflow)
        code = main(["rab-populations", *FAST, "--out", str(tmp_path / "x.csv")])
        assert code == cli.EXIT_INTEGRATOR
        assert "out of range" in capsys.readouterr().err

    def test_integrator_health_maps_to_exit_3(self, tmp_path, monkeypatch, capsys):
        from rabsim.dynamics import IntegratorHealthError

        def broken(*args, **kwargs):
            raise IntegratorHealthError("norm drifted")

        monkeypatch.setattr("rabsim.cli.dynamics.propagate_density", broken)
        out = tmp_path / "x.csv"
        code = main(["rab-populations", *FAST, "--out", str(out)])
        assert code == cli.EXIT_INTEGRATOR
        capsys.readouterr()

    @pytest.mark.parametrize("make", [lambda path: None, lambda path: path.write_text("")],
                             ids=["missing", "a file"])
    def test_out_directory_is_checked_before_the_run(self, make, tmp_path, monkeypatch,
                                                     capsys):
        def run(config):
            raise AssertionError("the scenario ran")

        monkeypatch.setitem(cli._RUNNERS, "heatmap", run)
        make(tmp_path / "nodir")
        before = list(tmp_path.iterdir())
        assert main(["heatmap", "--out", str(tmp_path / "nodir" / "x.csv")]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("rabsim: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == before

    def test_failed_convergence_check_writes_neither_file(self, tmp_path, monkeypatch, capsys):
        from rabsim.dynamics import IntegratorHealthError

        def broken(*args, **kwargs):
            raise IntegratorHealthError("norm drifted on the dt/2 run")

        monkeypatch.setattr("rabsim.cli.dynamics.convergence_check", broken)
        out = tmp_path / "x.csv"
        assert main(["rab-populations", *FAST, "--out", str(out)]) == cli.EXIT_INTEGRATOR
        assert "dt/2 run" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_sidecar_takes_the_csv_with_it(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        out.with_suffix(".json").mkdir()
        assert main(["rab-populations", *FAST, "--out", str(out)]) == EXIT_IO
        assert capsys.readouterr().err.startswith("rabsim: ")
        assert not out.exists()


class TestScenarios:
    def test_rab_populations_end_to_end(self, tmp_path):
        out = tmp_path / "pop.csv"
        assert main(["rab-populations", *FAST, "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["t_us", "p_11", "p_rr"]
        assert rows[0][0] == 0.0
        assert rows[0][1] == 1.0  # starts in |11>
        assert np.max(rows[:, 2]) >= 0.95
        sidecar = json.loads(out.with_suffix(".json").read_text())
        assert sidecar["scenario"] == "rab-populations"
        assert "v_rad_per_s" in sidecar["resolved_angular"]
        assert "dt_halving_delta_p_rr" in sidecar["convergence"]
        assert sidecar["wall_time_s"] > 0
        assert sidecar["run"] == RUN_RECORD

    def test_rab_populations_convergence_is_the_delta_of_two_runs(self, tmp_path):
        out = tmp_path / "pop.csv"
        assert main(["rab-populations", "--out", str(out)]) == EXIT_OK
        sidecar = json.loads(out.with_suffix(".json").read_text())
        params = parse_config(["rab-populations"]).drive_params()
        grid = dynamics.TimeGrid.build(params, models.gate_time(params))
        rho0 = hilbert.projector(hilbert.G1, hilbert.G1)
        p_rr, p_rr_halved = (dynamics.propagate_density(params, rho0, g).final_state[8, 8].real
                             for g in (grid, grid.halved()))
        delta = sidecar["convergence"]["dt_halving_delta_p_rr"]
        assert abs(delta - abs(p_rr - p_rr_halved)) <= 1e-12

    def test_rab_populations_deterministic_output(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["rab-populations", *FAST, "--out", str(out_a)]) == EXIT_OK
        assert main(["rab-populations", *FAST, "--out", str(out_b)]) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_gate_fidelity_end_to_end(self, tmp_path):
        out = tmp_path / "fid.csv"
        code = main(["gate-fidelity", *FAST, "--out", str(out)])
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["t_us", "fbar"]
        assert np.all(rows[:, 1] <= 1.0 + 1e-9)
        sidecar = json.loads(out.with_suffix(".json").read_text())
        assert 0.0 <= sidecar["final_fbar"] <= 1.0 + 1e-9
        # The fidelity is read at the pulse end, the envelope node after T.
        omega = sidecar["resolved_angular"]["omega_rad_per_s"]
        t_end = sidecar["grid"]["t_end_s"]
        assert sidecar["gate_time_s"] <= t_end < sidecar["gate_time_s"] + np.pi / omega
        assert rows[-1, 0] == pytest.approx(t_end * 1e6)
        # The average is exact: no quadrature size and no convergence record.
        assert "grid_n" not in sidecar["config"] and "convergence" not in sidecar
        assert sidecar["resolved_angular"]["v_over_omega_m"] == pytest.approx(
            2 * 5 - 2 / (3 * 5)
        )
        assert sidecar["run"] == RUN_RECORD

    def test_heatmap_end_to_end(self, tmp_path):
        config_file = tmp_path / "small.conf"
        config_file.write_text(
            "v_min = 9.5\nv_max = 10.5\nw_min = 5.0\nw_max = 5.5\nresolution = 3\n"
        )
        out = tmp_path / "heat.csv"
        code = main(["heatmap", "--dt-divisor", "50", "--config", str(config_file),
                     "--out", str(out)])
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["v_over_om", "w_over_om", "p_rr"]
        assert len(rows) == 9  # long form, one row per cell
        sidecar = json.loads(out.with_suffix(".json").read_text())
        assert sidecar["failed_cells"] == 0
        # The worst norm loss of the sweep, next to the gain threshold of
        # its cell gate: RK4 truncation at divisor 50 loses more than that.
        health = sidecar["health"]
        assert health["norm_gain_tol"] == 1e-6
        assert 1e-6 < health["max_norm_loss"] < 1e-3
        assert sidecar["run"] == RUN_RECORD
        # The sweep's lattice: the V ceiling gives the column of omega = 5
        # Omega_m 106 steps per period, and the two others 100.
        assert sidecar["sweep_lattice"] == [{"m": 106, "columns": 1}, {"m": 100, "columns": 2}]
        # The grid block is the convergence probe's: the ridge time at the
        # configured operating point.
        angular = sidecar["resolved_angular"]
        assert sidecar["grid"]["t_end_s"] == pytest.approx(
            np.pi * angular["omega_rad_per_s"] / angular["omega_m_rad_per_s"] ** 2, rel=1e-12
        )

    def test_fidelity_vs_gamma_end_to_end(self, tmp_path):
        config_file = tmp_path / "sweep.conf"
        config_file.write_text("gamma_points = 3\n")
        out = tmp_path / "sweep.csv"
        code = main(["fidelity-vs-gamma", *FAST,
                     "--config", str(config_file), "--out", str(out)])
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["gamma_khz", "fbar_final"]
        assert len(rows) == 3
        np.testing.assert_allclose(rows[:, 0], [0.0, 1.0, 2.0])
        fbars = rows[:, 1]
        assert all(b <= a + 1e-6 for a, b in zip(fbars, fbars[1:]))
        sidecar = json.loads(out.with_suffix(".json").read_text())
        assert sidecar["run"] == RUN_RECORD

    def test_fidelity_vs_gamma_sidecar_records_its_instants(self, tmp_path):
        config_file = tmp_path / "sweep.conf"
        config_file.write_text("gamma_points = 2\n")
        out = tmp_path / "sweep.csv"
        code = main(["fidelity-vs-gamma", *FAST,
                     "--config", str(config_file), "--out", str(out)])
        assert code == EXIT_OK
        # The fidelities belong to the pulse end, the envelope node after T.
        sidecar = json.loads(out.with_suffix(".json").read_text())
        omega = sidecar["resolved_angular"]["omega_rad_per_s"]
        grid = sidecar["grid"]
        assert sidecar["gate_time_s"] <= grid["t_end_s"] < sidecar["gate_time_s"] + np.pi / omega
        assert grid["n_steps"] * grid["dt_s"] == pytest.approx(grid["t_end_s"], rel=1e-12)
        assert grid["dt_s"] <= 2.0 * np.pi / (2.0 * omega) / 50.0 * (1.0 + 1e-12)


def test_readme_lists_the_flags_and_file_only_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    options = cli._build_parser()._actions
    flags = {s for action in options for s in action.option_strings} - {"-h", "--help"}
    sentence = re.search(r"Flags:(.*?)\.\n", readme, re.S).group(1)
    assert set(re.findall(r"`(--[a-z-]+)`", sentence)) == flags
    file_only = re.search(r"\.\s([^.]*) are file-only keys", readme).group(1)
    flag_fields = {action.dest for action in options if action.option_strings}
    assert set(re.findall(r"`([a-z_]+)`", file_only)) == set(cli._CONFIG_FILE_KEYS) - flag_fields


def test_python_m_rabsim_runs_without_warning():
    env = _subprocess_env()
    result = subprocess.run([sys.executable, "-m", "rabsim", "--help"], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0
    assert "usage: rabsim" in result.stdout
    assert "RuntimeWarning" not in result.stderr
    # A config-file error takes its exit code (I/O: 4) and one message line.
    result = subprocess.run(
        [sys.executable, "-m", "rabsim", "rab-populations", "--config", "missing.conf"],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == EXIT_IO
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("rabsim: ") and "missing.conf" in result.stderr


# numpy imports some of its modules on first use, inside the solve: the
# first plain np.unique(x) imports numpy.ma, about 10 ms in a fresh
# interpreter.  A small run of each scenario must load no numpy module that
# the import of rabsim.cli did not.
@pytest.mark.parametrize("scenario", cli.SCENARIOS)
def test_a_run_imports_no_numpy_module(scenario, tmp_path):
    env = _subprocess_env()
    conf = tmp_path / "small.conf"
    conf.write_text("resolution = 2\ngamma_points = 2\n")
    argv = [scenario, *FAST, "--config", str(conf), "--out", str(tmp_path / "out.csv")]
    probe = ("import json, sys\n"
             "from rabsim import cli\n"
             "before = set(sys.modules)\n"
             "code = cli.main(json.loads(sys.argv[1]))\n"
             "print(json.dumps([code, sorted(set(sys.modules) - before)]))\n")
    result = subprocess.run([sys.executable, "-c", probe, json.dumps(argv)], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    code, loaded = json.loads(result.stdout)
    assert code == EXIT_OK
    assert [name for name in loaded if name.split(".")[0] == "numpy"] == []


def test_csv_is_written_as_savetxt_writes_it(tmp_path):
    table = np.array([[np.nan, np.inf, -0.0], [-np.inf, 0.0, 1e300],
                      [1.0 / 3.0, -2.5e-7, 123456789012345.0]])
    path, reference = tmp_path / "x.csv", tmp_path / "ref.csv"
    cli._write_csv(path, ["a", "b", "c"], table)
    with reference.open("w", newline="") as fh:
        np.savetxt(fh, table, fmt="%.12g", delimiter=",", header="a,b,c", comments="",
                   newline="\r\n")
    assert path.read_bytes() == reference.read_bytes()


def test_csv_round_trip(tmp_path):
    path = tmp_path / "x.csv"
    cli._write_csv(path, ["a", "b"], [(1.0, 2.5e-7), (3.123456789012, 4.0)])
    header, rows = read_csv(path)
    assert header == ["a", "b"]
    np.testing.assert_allclose(rows, [[1.0, 2.5e-7], [3.123456789012, 4.0]], rtol=1e-12)
