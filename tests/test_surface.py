"""rabsim's public surface: what the CLI, the benchmark and the oracles read."""

import inspect

import rabsim
from rabsim import analysis, cli, dynamics, models


def test_public_surface():
    for name in rabsim.__all__:
        assert hasattr(rabsim, name), name
    # The stepwise reference lives in the tests, and one Hamiltonian serves
    # both gates.
    for module in (rabsim, dynamics, models):
        for name in ("lindblad_rhs", "hamiltonian_cz", "hamiltonian_cnot"):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    build = inspect.signature(dynamics.TimeGrid.build).parameters
    assert "dt" not in build and "t_start" not in build
    # One default step divisor, in the library and on the command line.
    defaults = [
        build["dt_divisor"].default,
        inspect.signature(analysis.sweep_heatmap).parameters["dt_divisor"].default,
        inspect.signature(analysis.fidelity_vs_gamma).parameters["dt_divisor"].default,
        cli.ScenarioConfig(scenario="heatmap").dt_divisor,
    ]
    assert defaults == [dynamics.DEFAULT_DT_DIVISOR] * 4
