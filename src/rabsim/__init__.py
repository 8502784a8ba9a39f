"""rabsim: two-atom Rydberg antiblockade dynamics and gate-fidelity toolkit.

A harmonically modulated resonant drive on |1> <-> |r> opens a second-order
|11> <-> |rr> channel when the Rydberg-Rydberg interaction matches twice the
modulation frequency.  This package builds the corresponding Hamiltonians,
propagates Schrodinger/Lindblad dynamics, derives the effective second-order
model, and evaluates CZ/CNOT average gate fidelities and parameter sweeps.
"""

from . import analysis, cli, dynamics, hilbert, models
from .analysis import (
    FidelityReport,
    HeatmapGrid,
    average_gate_fidelity,
    fidelity_time_series,
    fidelity_vs_gamma,
    population,
    single_atom_oracle,
    sweep_heatmap,
)
from .dynamics import (
    IntegratorHealthError,
    ProcessMap,
    TimeGrid,
    Trajectory,
    convergence_check,
    propagate_density,
    propagate_process,
    propagate_state,
)
from .models import (
    DegenerateFrequencyError,
    DriveParams,
    GateKind,
    HarmonicTerm,
    PerturbativeRegimeWarning,
    analytic_state,
    collapse_operators,
    derive_effective_hamiltonian,
    drive_envelope,
    effective_hamiltonian,
    gate_time,
    hamiltonian,
    pulse_end_time,
    rotating_frame_harmonics,
    rri_condition,
    target_unitary,
)

__version__ = "0.1.0"

__all__ = [
    "analysis",
    "cli",
    "dynamics",
    "hilbert",
    "models",
    "DriveParams",
    "GateKind",
    "HarmonicTerm",
    "FidelityReport",
    "HeatmapGrid",
    "ProcessMap",
    "TimeGrid",
    "Trajectory",
    "DegenerateFrequencyError",
    "IntegratorHealthError",
    "PerturbativeRegimeWarning",
    "analytic_state",
    "average_gate_fidelity",
    "collapse_operators",
    "convergence_check",
    "derive_effective_hamiltonian",
    "drive_envelope",
    "effective_hamiltonian",
    "fidelity_time_series",
    "fidelity_vs_gamma",
    "gate_time",
    "hamiltonian",
    "population",
    "propagate_density",
    "propagate_process",
    "propagate_state",
    "pulse_end_time",
    "rotating_frame_harmonics",
    "rri_condition",
    "single_atom_oracle",
    "sweep_heatmap",
    "target_unitary",
]
