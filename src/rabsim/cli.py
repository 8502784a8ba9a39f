"""Scenario runner: named experiments mapped onto the analysis layer.

Scenarios
---------
rab-populations    |11>/|rr> population inversion under the matched drive
heatmap            |rr> population over the (V, omega) plane
gate-fidelity      time-resolved average gate fidelity for CZ or CNOT
fidelity-vs-gamma  final average fidelity across a range of decay rates

Every run writes one CSV (documented per-scenario column contract) plus a
JSON sidecar with the fully resolved parameters in angular units, the
integration step, convergence deltas, wall time and the versions that made
the run; a failed run writes neither.  Rates cross the CLI boundary in cyclic units (MHz / kHz) to match
how they are usually quoted; all internal math is angular, and the
conversion happens in exactly one place (:func:`cyclic_to_angular`).

Exit codes: 0 success, 2 validation/usage error (including non-finite
input and a config file's content), 3 integrator health error or another
arithmetic failure, 4 I/O error (including a config file that cannot be
read and an ``out`` directory that does not exist).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
import warnings
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import analysis, dynamics, hilbert, models
from .dynamics import IntegratorHealthError, TimeGrid
from .models import DriveParams, GateKind, PerturbativeRegimeWarning

SCENARIOS = ("rab-populations", "heatmap", "gate-fidelity", "fidelity-vs-gamma")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INTEGRATOR = 3
EXIT_IO = 4


class ValidationError(ValueError):
    """One or more configuration fields failed validation."""


def cyclic_to_angular(value: float, scale: float) -> float:
    """Convert a cyclic frequency to angular units: value * scale * 2*pi.

    ``scale`` is the unit prefix (1e6 for MHz, 1e3 for kHz).  This is the
    single conversion site between CLI units and internal rad/s.
    """
    return 2.0 * math.pi * value * scale


@dataclass
class ScenarioConfig:
    """Fully resolved configuration for one scenario run."""

    scenario: str
    gate: GateKind = GateKind.CZ
    omega_m_mhz: float = 2.0
    omega_ratio: float = 7.5
    gamma_khz: float = 0.0
    v_over_om: float | None = None
    dt_divisor: int = dynamics.DEFAULT_DT_DIVISOR
    # heatmap extent (units of Omega_m) and cells per axis
    v_min: float = 10.0
    v_max: float = 20.0
    w_min: float = 5.0
    w_max: float = 10.0
    resolution: int = 60
    # fidelity-vs-gamma sweep: gamma_khz is the sweep maximum
    gamma_points: int = 9
    out: str = ""

    def drive_params(self) -> DriveParams:
        omega_m = cyclic_to_angular(self.omega_m_mhz, 1e6)
        return DriveParams.from_ratio(
            omega_m, self.omega_ratio, gamma=cyclic_to_angular(self.gamma_khz, 1e3),
            gate=self.gate, v=None if self.v_over_om is None else self.v_over_om * omega_m)


# Per-scenario defaults where they differ from the dataclass baseline: the
# population and heatmap scenarios are decay-free, the fidelity scenarios
# use the 1.5 kHz operating point, and the gamma sweep reads gamma_khz as
# its maximum (default 2 kHz).
_SCENARIO_GAMMA_DEFAULTS = {
    "rab-populations": 0.0,
    "heatmap": 0.0,
    "gate-fidelity": 1.5,
    "fidelity-vs-gamma": 2.0,
}

# Every field of ScenarioConfig but the scenario is a config-file key, read
# as a float unless it has a reader here.
_NON_FLOAT_READERS = {"gate": str.lower, "dt_divisor": int, "resolution": int,
                      "gamma_points": int, "out": str}
_CONFIG_FILE_KEYS = {f.name: _NON_FLOAT_READERS.get(f.name, float)
                     for f in fields(ScenarioConfig) if f.name != "scenario"}


def _read_config_file(path: str) -> dict:
    """Parse a flat ``key = value`` file; ``#`` starts a comment."""
    values: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_FILE_KEYS:
            raise ValidationError(f"{path}:{lineno}: unknown config key {key!r}")
        caster = _CONFIG_FILE_KEYS[key]
        try:
            values[key] = caster(value)
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return values


def _build_parser() -> argparse.ArgumentParser:
    # Options left out of argv are left out of the namespace, so that only
    # the flags given override the config file.
    parser = argparse.ArgumentParser(
        prog="rabsim",
        description="Two-atom Rydberg antiblockade and gate-fidelity scenarios.",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("scenario", choices=SCENARIOS, help="the scenario to run")
    parser.add_argument("--gate", type=str.lower, choices=[g.value for g in GateKind])
    parser.add_argument("--omega-m-mhz", type=float,
                        help="peak Rabi amplitude, cyclic MHz (default 2)")
    parser.add_argument("--omega-ratio", type=float,
                        help="modulation frequency over Omega_m (default 7.5)")
    parser.add_argument("--gamma-khz", type=float,
                        help="decay rate, cyclic kHz (fidelity-vs-gamma: sweep maximum)")
    parser.add_argument("--v-over-om", type=float,
                        help="override the RRI strength, units of Omega_m "
                             "(default: matched condition for the gate)")
    parser.add_argument("--dt-divisor", type=int,
                        help="integration steps per fastest period "
                             f"(default {dynamics.DEFAULT_DT_DIVISOR})")
    parser.add_argument("--out", type=str, help="output CSV path")
    parser.add_argument("--config", type=str,
                        help="flat key = value config file; flags override it")
    return parser


def parse_config(argv=None) -> ScenarioConfig:
    """Resolve a ScenarioConfig from argv: flags > config file > defaults."""
    flags = vars(_build_parser().parse_args(argv))
    scenario = flags["scenario"]
    values = {"gamma_khz": _SCENARIO_GAMMA_DEFAULTS[scenario],
              "out": scenario.replace("-", "_") + ".csv"}
    if "config" in flags:
        values.update(_read_config_file(flags.pop("config")))
    values.update(flags)
    if "gate" in values:
        values["gate"] = _parse_gate(values["gate"])
    config = ScenarioConfig(**values)
    _validate(config)
    return config


def _parse_gate(value: str) -> GateKind:
    try:
        return GateKind(value)
    except ValueError:
        raise ValidationError(f"gate must be 'cz' or 'cnot', got {value!r}") from None


def _validate(config: ScenarioConfig) -> None:
    problems = [
        f"{name} must be finite (got {getattr(config, name)})"
        for name, caster in _CONFIG_FILE_KEYS.items()
        if caster is float and getattr(config, name) is not None
        and not math.isfinite(getattr(config, name))
    ]
    if not config.omega_m_mhz > 0:
        problems.append(f"omega_m_mhz must be > 0 (got {config.omega_m_mhz})")
    if not config.omega_ratio > 0:
        problems.append(f"omega_ratio must be > 0 (got {config.omega_ratio})")
    if config.gamma_khz < 0:
        problems.append(f"gamma_khz must be >= 0 (got {config.gamma_khz})")
    if config.v_over_om is not None and config.v_over_om < 0:
        problems.append(f"v_over_om must be >= 0 (got {config.v_over_om})")
    if config.dt_divisor < dynamics.MIN_STEPS_PER_PERIOD:
        problems.append(
            f"dt_divisor must be >= {dynamics.MIN_STEPS_PER_PERIOD} (got {config.dt_divisor})"
        )
    if config.scenario == "heatmap":
        if not (0 < config.v_min < config.v_max):
            problems.append(f"need 0 < v_min < v_max (got {config.v_min}, {config.v_max})")
        if not (0 < config.w_min < config.w_max):
            problems.append(f"need 0 < w_min < w_max (got {config.w_min}, {config.w_max})")
        if config.resolution < 2:
            problems.append(f"resolution must be >= 2 (got {config.resolution})")
        if config.gamma_khz != 0.0:
            problems.append("heatmap requires gamma_khz = 0")
    if config.scenario == "fidelity-vs-gamma" and config.gamma_points < 2:
        problems.append(f"gamma_points must be >= 2 (got {config.gamma_points})")
    if not config.out:
        problems.append("out path must not be empty")
    elif Path(config.out).suffix == ".json":
        problems.append(f"out must not be its own JSON sidecar (got {config.out!r})")
    if not problems:
        # Finite fields can still combine into unusable angular parameters:
        # an overflowing omega, a matched V below zero, or a gate time that
        # overflows or underflows.
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PerturbativeRegimeWarning)
                t_end = models.pulse_end_time(config.drive_params())
            if not 0.0 < t_end < math.inf:
                raise ArithmeticError(f"gate time {t_end:g} s is not in (0, inf)")
        except (ValueError, ArithmeticError) as exc:
            problems.append(
                f"parameters do not resolve (omega_m_mhz = {config.omega_m_mhz:g}, "
                f"omega_ratio = {config.omega_ratio:g}): {exc}"
            )
    if problems:
        raise ValidationError("invalid configuration: " + "; ".join(problems))


def _write_csv(path: Path, header: list[str], table) -> None:
    """Write the rows of ``table`` (one column per header name) as CSV, each
    value to 12 significant digits, with one string format over the whole
    table."""
    table = np.asarray(table, dtype=float)
    row = ",".join(["%.12g"] * table.shape[1]) + "\r\n"
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.write(row * len(table) % tuple(table.ravel().tolist()))


def read_csv(path) -> tuple[list[str], np.ndarray]:
    """Read back a CSV written by this tool: (header, float matrix)."""
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(x) for x in row] for row in reader if row]
    return header, np.array(rows)


def _run_record() -> dict:
    """Versions of the code that made the run."""
    from . import __version__  # the package has finished loading by now

    return {
        "rabsim_version": __version__,
        "numpy_version": np.__version__,
        "python_version": "{}.{}.{}".format(*sys.version_info[:3]),
    }


def _base_payload(config: ScenarioConfig, params: DriveParams, grid: TimeGrid) -> dict:
    return {
        "run": _run_record(),
        "scenario": config.scenario,
        "config": {k: (v.value if isinstance(v, GateKind) else v)
                   for k, v in asdict(config).items()},
        "resolved_angular": {
            "omega_m_rad_per_s": params.omega_m,
            "omega_rad_per_s": params.omega,
            "v_rad_per_s": params.v,
            "v_over_omega_m": params.v / params.omega_m,
            "gamma_rad_per_s": params.gamma,
        },
        "gate": params.gate.value,
        "grid": {
            "dt_s": grid.dt,
            "n_steps": grid.n_steps,
            "t_end_s": grid.t_end,
            "sample_stride": grid.sample_stride,
        },
    }


def _p_rr_convergence(params: DriveParams, trajectory, grid: TimeGrid) -> dict:
    """The dt-halving record of P_rr = rho[8, 8] at the end of ``trajectory``."""
    check = dynamics.convergence_check(params, trajectory, grid,
                                       lambda rho: float(np.real(rho[8, 8])))
    return {"dt_halving_delta_p_rr": check.delta, "passed": check.passed}


def _scenario_grid(config: ScenarioConfig, params: DriveParams) -> TimeGrid:
    """The lattice that the runner of ``config``'s scenario integrates on
    under ``params``, and that its sidecar records: the window ends at the
    gate time (``rab-populations``), at the pulse end (the fidelity
    scenarios; the decay sweep stores only its final sample), or at the
    heatmap's instant pi omega/Omega_m^2 (``heatmap``: the convergence
    probe at the operating point, while the sweep runs its columns in
    groups that share a lattice in drive-phase time, which the sidecar's
    ``sweep_lattice`` block records)."""
    if config.scenario == "heatmap":
        t_end = math.pi * params.omega / (params.omega_m * params.omega_m)
    elif config.scenario == "rab-populations":
        t_end = models.gate_time(params)
    else:
        t_end = models.pulse_end_time(params)
    stride = 10**9 if config.scenario == "fidelity-vs-gamma" else None
    return TimeGrid.build(params, t_end, dt_divisor=config.dt_divisor, sample_stride=stride)


def _run_rab_populations(config: ScenarioConfig):
    params = config.drive_params()
    grid = _scenario_grid(config, params)
    rho0 = hilbert.projector(hilbert.G1, hilbert.G1)
    traj = dynamics.propagate_density(params, rho0, grid)
    p11 = traj.basis_populations(hilbert.index_of(hilbert.G1, hilbert.G1))
    prr = traj.basis_populations(hilbert.index_of(hilbert.RYD, hilbert.RYD))
    return params, grid, {"t_us": traj.times * 1e6, "p_11": p11, "p_rr": prr}, {
        "convergence": _p_rr_convergence(params, traj, grid),
        "peak_p_rr": float(np.max(prr)),
    }


def _run_heatmap(config: ScenarioConfig):
    params = config.drive_params()
    # Convergence probe at the configured operating point, on a grid built
    # before the sweep so that a lattice too long to index fails first; the
    # sidecar's grid block records it.
    ridge_grid = _scenario_grid(config, params)
    grid_result = analysis.sweep_heatmap(
        params,
        v_range=(config.v_min, config.v_max),
        w_range=(config.w_min, config.w_max),
        resolution=config.resolution,
        dt_divisor=config.dt_divisor,
    )
    v, w = np.meshgrid(grid_result.v_axis, grid_result.w_axis, indexing="ij")
    probe = dynamics.propagate_density(
        params, hilbert.projector(hilbert.G1, hilbert.G1),
        replace(ridge_grid, sample_stride=10**9),
    )
    columns = {"v_over_om": v.ravel(), "w_over_om": w.ravel(), "p_rr": grid_result.p_rr.ravel()}
    return params, ridge_grid, columns, {
        "convergence": _p_rr_convergence(params, probe, ridge_grid),
        "failed_cells": int(np.count_nonzero(~np.isfinite(grid_result.p_rr))),
        "sweep_lattice": [{"m": m, "columns": n} for m, n in grid_result.lattices],
        "health": {"max_norm_loss": grid_result.max_norm_loss,
                   "norm_gain_tol": analysis.NORM_GAIN_TOL},
    }


def _run_gate_fidelity(config: ScenarioConfig):
    params = config.drive_params()
    grid = _scenario_grid(config, params)
    report = analysis.fidelity_time_series(params, grid)
    # final_fbar belongs to the pulse end grid.t_end_s, not to gate_time_s.
    return params, grid, {"t_us": report.times * 1e6, "fbar": report.fbar}, {
        "gate_time_s": models.gate_time(params),
        "final_fbar": report.final_fbar,
    }


def _run_fidelity_vs_gamma(config: ScenarioConfig):
    params = config.drive_params().with_gamma(0.0)
    # The grid every gamma point runs on; fidelities belong to its t_end_s.
    grid = _scenario_grid(config, params)
    gamma_khz_values = np.linspace(0.0, config.gamma_khz, config.gamma_points)
    gammas = [cyclic_to_angular(g, 1e3) for g in gamma_khz_values]
    fbars = [f for _, f in analysis.fidelity_vs_gamma(params, gammas,
                                                       dt_divisor=config.dt_divisor)]
    return params, grid, {"gamma_khz": gamma_khz_values, "fbar_final": fbars}, {
        "gate_time_s": models.gate_time(params),
        "fbar_final": {f"{g:.6g}": f for g, f in zip(gamma_khz_values, fbars)},
    }


# Each runner returns (params, grid, columns, extras): the parameters and
# grid of the sidecar's base payload, the CSV as an ordered
# {header: column} mapping, and the sidecar entries of its own scenario.
_RUNNERS = {
    "rab-populations": _run_rab_populations,
    "heatmap": _run_heatmap,
    "gate-fidelity": _run_gate_fidelity,
    "fidelity-vs-gamma": _run_fidelity_vs_gamma,
}


def run_scenario(config: ScenarioConfig) -> int:
    """Execute the configured scenario, then write the CSV and JSON sidecar.

    Both files are written once the run has finished, and a sidecar that
    cannot be written takes the CSV with it, so a failed run leaves neither.
    An ``out`` whose directory does not exist fails before the run.
    """
    out = Path(config.out)
    if not out.parent.is_dir():
        raise OSError(f"cannot write {out}: {out.parent} is not a directory")
    started = time.perf_counter()
    params, grid, columns, extras = _RUNNERS[config.scenario](config)
    _write_csv(out, list(columns), np.column_stack(list(columns.values())))
    payload = {**_base_payload(config, params, grid), **extras, "csv": str(out),
               "wall_time_s": time.perf_counter() - started}
    try:
        out.with_suffix(".json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    except OSError:
        out.unlink(missing_ok=True)
        raise
    return EXIT_OK


def main(argv=None) -> int:
    try:
        return run_scenario(parse_config(argv))
    except SystemExit as exc:  # argparse: --help and usage errors
        return int(exc.code) if exc.code is not None else EXIT_VALIDATION
    except ValueError as exc:  # validation, including a config file's content
        code, message = EXIT_VALIDATION, exc
    except (IntegratorHealthError, ArithmeticError) as exc:
        code, message = EXIT_INTEGRATOR, exc
    except MemoryError as exc:  # a run too large for this machine
        code, message = EXIT_INTEGRATOR, f"out of memory: {exc}"
    except OSError as exc:
        code, message = EXIT_IO, exc
    print(f"rabsim: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
