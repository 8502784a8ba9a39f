"""rabsim's public surface: what the CLI, the benchmark and the oracles read."""

import ast
import dataclasses
import inspect
import sys
from pathlib import Path

import rabsim
from rabsim import analysis, cli, dynamics, hilbert, models


def test_public_surface():
    for name in rabsim.__all__:
        assert hasattr(rabsim, name), name
    # The stepwise reference lives in the tests, and one Hamiltonian serves
    # both gates.
    for module in (rabsim, dynamics, models):
        for name in ("lindblad_rhs", "hamiltonian_cz", "hamiltonian_cnot"):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    # Steps are formed from the RK4 kernels; plain RK4 is the tests' reference.
    assert not hasattr(dynamics, "_rk4_steps")
    # The real-coordinate operators are read off the Hermitian basis.
    assert not hasattr(hilbert, "real_superoperator")
    assert not hasattr(dynamics, "_add_sandwich")
    build = inspect.signature(dynamics.TimeGrid.build).parameters
    assert "dt" not in build and "t_start" not in build
    # sample_stride alone sets the stored samples.
    assert "max_samples" not in build
    # TimeGrid is the lattice that is integrated; no second grid is derived.
    assert [f.name for f in dataclasses.fields(dynamics.TimeGrid)] == [
        "t_end", "omega", "m", "sample_stride"]
    # One rule sizes every lattice: steps_per_period, from the drive.
    assert not hasattr(dynamics, "fastest_angular_frequency")
    for name in ("stroboscopic_grid", "_period_lattice", "_sample_lattice", "_SampleLattice"):
        assert not hasattr(dynamics, name), name
        assert not hasattr(rabsim, name), name
    # One estimator tells the integration error of what a run writes, from
    # a coarser run: the dt/2 checker and its report are gone, and a
    # trajectory does not carry its step.
    for module in (rabsim, dynamics):
        for name in ("convergence_check", "ConvergenceReport"):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert "dt" not in [f.name for f in dataclasses.fields(dynamics.Trajectory)]
    assert not hasattr(cli, "_p_rr_convergence")
    assert rabsim.richardson_error is dynamics.richardson_error
    public = ["IntegratorHealthError", "steps_per_period", "TimeGrid", "Trajectory",
              "ProcessMap", "propagate_state", "propagate_density", "propagate_process",
              "richardson_error"]
    assert [name for name, obj in vars(dynamics).items()
            if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == dynamics.__name__] == public
    # The package exports every one of them but the lattice rule.
    assert {name for name in rabsim.__all__
            if getattr(getattr(rabsim, name), "__module__", None) == dynamics.__name__
            } == set(public) - {"steps_per_period"}
    # One default step divisor, in the library and on the command line.
    defaults = [
        build["dt_divisor"].default,
        inspect.signature(analysis.sweep_heatmap).parameters["dt_divisor"].default,
        inspect.signature(analysis.fidelity_vs_gamma).parameters["dt_divisor"].default,
        cli.ScenarioConfig(scenario="heatmap").dt_divisor,
    ]
    assert defaults == [dynamics.DEFAULT_DT_DIVISOR] * 4


def test_the_package_imports_only_the_standard_library_and_numpy():
    # numpy is the one dependency that pyproject.toml declares, and every
    # scenario runs in one process.
    allowed = (set(sys.stdlib_module_names) | {"numpy"}) - {"concurrent", "multiprocessing"}
    seen = set()
    for path in sorted(Path(rabsim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in allowed, f"{path.name} imports {name}"
                seen.add(top)
    assert "numpy" in seen
