"""Observables and sweep-level quantities.

Populations, the exact single-atom pulse-area oracle, the average gate
fidelity over product input states, and the two parameter sweeps
(antiblockade heatmap, fidelity versus decay rate).

The average fidelity integral runs over product states
(cos a |0> + sin a |1>) (x) (cos b |0> + sin b |1>) with (a, b) uniform on
[0, 2pi)^2.  Because the master equation is linear in the density matrix,
one process-map propagation (16 basis matrices) serves every (a, b).  The
target U keeps the qubit subspace, so only the 4x4 qubit block of each image
enters (the process map keeps no more, as real coordinates of Hermitian
matrices), and all samples of a trajectory are evaluated together.  The
integrand is quartic in the input amplitudes c, so the average needs only
the moments E[c_i c_j c_k c_l], which factor into one average per angle:
E[cos^4] = E[sin^4] = 3/8, E[cos^2 sin^2] = 1/8, and 0 for an odd power of
either.  They are taken in closed form, so the average is exact.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import dynamics, hilbert, models
from .dynamics import ProcessMap, TimeGrid
from .hilbert import QUBIT_INDICES
from .models import DriveParams, GateKind


@dataclass(frozen=True)
class FidelityReport:
    """Average gate fidelity, possibly time-resolved."""

    times: np.ndarray
    fbar: np.ndarray
    final_fbar: float


@dataclass(frozen=True)
class HeatmapGrid:
    """|rr> population over the (V, omega) plane at t = pi*omega/Omega_m^2.

    ``p_rr[i, j]`` belongs to ``v_axis[i]`` and ``w_axis[j]`` (both in units
    of Omega_m); failed cells hold NaN.  ``max_norm_loss`` is the largest
    1 - <psi|psi> over the cells that passed, the RK4 truncation that the
    gate on norm gain lets through (0 when no cell lost norm).
    ``lattices`` holds (m, columns) for each group of columns that ran as
    one batch on m steps per drive period, in the order of their first
    column.  ``p_rr_error`` is the integration error of the map, estimated
    (:func:`dynamics.richardson_error`) on the column of the largest omega
    by its run at ``coarse_m`` steps per period.
    """

    v_axis: np.ndarray
    w_axis: np.ndarray
    p_rr: np.ndarray
    max_norm_loss: float
    lattices: tuple[tuple[int, int], ...]
    p_rr_error: float
    coarse_m: int


#: A heatmap cell fails when its final <psi|psi> exceeds 1 by more than this.
NORM_GAIN_TOL = 1e-6


def population(rho: np.ndarray, phi: np.ndarray) -> float:
    """Population <phi| rho |phi> of the unit-norm state ``phi``."""
    phi = np.asarray(phi, dtype=complex)
    norm = np.linalg.norm(phi)
    if not abs(norm - 1.0) <= 1e-10:
        raise ValueError(f"phi must have unit norm, got {norm:.12f}")
    rho = np.asarray(rho)
    if not np.all(np.isfinite(rho)):
        raise ValueError("rho has a non-finite entry")
    value = complex(phi.conj() @ rho @ phi)
    if not abs(value.imag) <= 1e-10:
        raise ValueError(f"population has imaginary part {value.imag:.3e}")
    return float(value.real)


def single_atom_oracle(params: DriveParams, t: float) -> np.ndarray:
    """Exact propagator of one driven atom, in the (ground, rydberg) basis.

    The single-atom drive Hamiltonian commutes with itself at different
    times, so the propagator is a rotation by the accumulated pulse area
    theta(t) = (Omega_m/omega) * sin(omega t):

        [[cos(theta), -i sin(theta)], [-i sin(theta), cos(theta)]]

    Exact for every block of the CZ dynamics in which only one atom is
    driven (|01>/|0r> and |10>/|r0>).
    """
    if params.gate is not GateKind.CZ:
        raise ValueError("the pulse-area oracle applies to the single-drive (CZ) model")
    theta = (params.omega_m / params.omega) * math.sin(params.omega * t)
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _moment_tensor() -> np.ndarray:
    """E[c_i c_j c_k c_l] over the product inputs, shape (4, 4, 4, 4).

    The amplitudes c = (cos a cos b, cos a sin b, sin a cos b, sin a sin b)
    carry a sine of a in bit 1 of their index and a sine of b in bit 0, so
    each moment is the product of one per-angle average E[cos^(4-s) sin^s]
    per angle, with s the number of sines of that angle among i, j, k, l.
    """
    sines = np.indices((4, 4, 4, 4))
    per_angle = np.array([3.0, 0.0, 1.0, 0.0, 3.0]) / 8.0
    return per_angle[(sines >> 1).sum(axis=0)] * per_angle[(sines & 1).sum(axis=0)]


_MOMENTS = _moment_tensor()


def _fbar_of_images(images: np.ndarray, u: np.ndarray):
    """Average of <Psi| U^dag rho(t) U |Psi> over the product inputs Psi.

    ``images`` holds the real coordinates of the qubit blocks of the
    process images of the 16 Hermitian qubit basis matrices, shape
    (..., 4, 4, 4, 4) as in :attr:`ProcessMap.images`: one time, or several
    stacked on the leading axes, with one fidelity returned per leading
    index.  ``u`` must map the qubit subspace into itself; U|Psi> then lies
    in it, so the qubit block of each image is all that enters.  The
    coordinates are those of an orthonormal basis, so with
    |Psi><Psi| = sum_x coord_x(|Psi><Psi|) B_x the integrand is
    sum_xy coord_x(|Psi><Psi|) image(B_x)_y coord_y(U|Psi><Psi|U^dag): one
    real contraction of the images with the weight
    E[coord_x(|Psi><Psi|) coord_y(U|Psi><Psi|U^dag)].  The amplitudes c of
    Psi are real and the coordinates real-linear, so both factors are
    quadratic forms in c, read off the coordinates of the matrix units
    |q_i><q_j| and U|q_i><q_j|U^dag, and the weight takes the moments
    E[c_i c_j c_k c_l] between them.  Every image then costs one 256-term
    real sum, all of them in one call.
    """
    q = list(QUBIT_INDICES)
    u_qubit = u[np.ix_(q, q)]
    if not np.allclose(np.linalg.norm(u_qubit, axis=0), np.linalg.norm(u[:, q], axis=0)):
        raise ValueError("the target must map the qubit subspace into itself")
    units = np.eye(16).reshape(16, 4, 4)
    weight = (hilbert.real_coordinates(units).T @ _MOMENTS.reshape(16, 16)
              @ hilbert.real_coordinates(u_qubit @ units @ u_qubit.conj().T))
    # (sample, ij, ab) is a view of the stored blocks: nothing is copied.
    stack = images.reshape((-1, 16, 16))
    values = np.einsum("sxy,xy->s", stack, weight)
    return values[0] if images.ndim == 4 else values.reshape(images.shape[:-4])


def average_gate_fidelity(process: ProcessMap, u: np.ndarray) -> FidelityReport:
    """Average gate fidelity of the propagated process against the target ``u``,
    at the final time of the process map."""
    fbar = _fbar_of_images(process.images[-1], u)
    return FidelityReport(times=process.times[-1:], fbar=np.array([fbar]), final_fbar=fbar)


def fidelity_time_series(params: DriveParams, grid: TimeGrid) -> FidelityReport:
    """Average fidelity against the gate target at every sampled time.

    One process-map propagation supplies the images at all samples, and one
    vectorized call evaluates them all.
    """
    process = dynamics.propagate_process(params, grid)
    fbar = _fbar_of_images(process.images, models.target_unitary(params.gate))
    return FidelityReport(times=process.times, fbar=fbar, final_fbar=float(fbar[-1]))


def _heatmap_lattices(w_axis: np.ndarray, v_max: float, dt_divisor: int
                      ) -> list[tuple[np.ndarray, TimeGrid]]:
    """The groups of heatmap columns that run as one batch: the indices into
    ``w_axis`` (omega in units of Omega_m) of each group's columns, and its
    lattice in drive-phase time tau = omega t.

    Each column takes the m of :func:`dynamics.steps_per_period` at its
    omega, Omega_m = 1 and V = ``v_max``, as :meth:`TimeGrid.build` would
    give a run at that point: m = 2 ``dt_divisor`` for omega >= Omega_m/2
    unless V up to ``v_max`` Omega_m needs more.  The columns of one m share
    a lattice of the unit drive to the latest of their ends tau = pi
    omega^2/Omega_m^2, storing only its final sample.
    """
    m = dynamics.steps_per_period(w_axis, 1.0, v_max, dt_divisor)
    groups = []
    for steps in dict.fromkeys(m.tolist()):
        columns = np.flatnonzero(m == steps)
        # Squared by a product: the power of a huge float raises
        # OverflowError, where the product's inf is TimeGrid's to reject.
        w = float(np.max(w_axis[columns]))
        t_end = math.pi * (w * w)
        groups.append((columns, TimeGrid(t_end, 1.0, int(steps), sample_stride=10**9)))
    return groups


def sweep_heatmap(
    params: DriveParams,
    v_range: tuple[float, float] = (10.0, 20.0),
    w_range: tuple[float, float] = (5.0, 10.0),
    resolution: int = 60,
    *,
    dt_divisor: int = dynamics.DEFAULT_DT_DIVISOR,
) -> HeatmapGrid:
    """|rr> population at t = pi*omega/Omega_m^2 over a (V, omega) grid.

    ``params`` supplies Omega_m and the gate; ``v_range`` and ``w_range`` are
    in units of Omega_m.  Decay must be off (gamma = 0), so |11> stays pure
    and each cell is the Schrodinger run of its 9-vector, on the invariant
    block of |11> (4 amplitudes for CZ, 6 for CNOT).  The columns (fixed
    omega) are grouped by their lattice (:func:`_heatmap_lattices`: one
    group of m = 2 ``dt_divisor`` on the default extent), and each group
    runs in this process as one batch over V and omega, in drive-phase time
    tau = omega t, in which every column's drive has the period 2 pi: one
    pass of RK4 step maps of batches of 4x4 or 6x6 matrices serves all its
    columns, and each column ends at its own tau = pi omega^2/Omega_m^2 with
    one short step.  A cell whose final <psi|psi> exceeds 1 by more than
    :data:`NORM_GAIN_TOL`, or is not finite, comes back as NaN.  RK4
    truncation only loses norm, so the gate does not see it; the largest
    loss over the healthy cells is returned as ``max_norm_loss``.  The
    column of the largest omega runs once more on a coarser lattice, for
    the map's error estimate (``p_rr_error``).
    """
    if params.gamma != 0.0:
        raise ValueError("the antiblockade heatmap is defined for gamma = 0")
    if not all(0.0 < x < math.inf for x in (*v_range, *w_range)):
        raise ValueError("ranges must be finite and positive")
    if not (isinstance(resolution, numbers.Integral) and resolution >= 2):
        raise ValueError(f"resolution must be an integer >= 2, got {resolution!r}")
    v_axis = np.linspace(v_range[0], v_range[1], resolution)
    w_axis = np.linspace(w_range[0], w_range[1], resolution)
    groups = _heatmap_lattices(w_axis, float(np.max(v_axis)), dt_divisor)
    rows0 = hilbert.ket(hilbert.G1, hilbert.G1)[np.newaxis]

    def final_states(grid, columns):
        """The final states (columns, V, 9) of the columns ``columns`` on
        ``grid``, each at its own end."""
        w = w_axis[columns, np.newaxis]
        _, states = dynamics._propagate(params, rows0, grid, density=False,
                                        v=v_axis * params.omega_m, omega=w * params.omega_m,
                                        ends=math.pi * w**2)
        return states[-1, ..., 0, :]

    p_rr = np.empty((resolution, resolution))
    max_norm_loss = 0.0
    for columns, grid in groups:
        final = final_states(grid, columns)
        # Per-cell health.  Below its stability bound RK4 only loses norm,
        # by truncation (1.1e-4 of <psi|psi> on the default extent at
        # divisor 50), so a cell fails only on a norm gain or a non-finite
        # amplitude, which NaN trips.
        norm_change = np.sum(np.abs(final) ** 2, axis=-1) - 1.0
        bad = ~(norm_change <= NORM_GAIN_TOL)
        p_rr[:, columns] = np.where(bad, np.nan, np.abs(final[..., 8]) ** 2).T
        max_norm_loss = max(max_norm_loss, float(np.max(-norm_change[~bad], initial=0.0)))
    # The column of the largest omega has the fewest steps per period, as
    # m = max(2 divisor, 50 V_max/omega) falls while omega grows, and the
    # longest window, as tau_end = pi omega^2 grows: its error stands for
    # the map's.  It ends its group's window, on its group's lattice.
    last = int(np.argmax(w_axis))
    grid = next(grid for columns, grid in groups if last in columns)
    p_rr_error, coarse = dynamics.richardson_error(
        lambda g: np.abs(final_states(g, [last])[..., 8]) ** 2, grid, p_rr[:, last])
    return HeatmapGrid(v_axis=v_axis, w_axis=w_axis, p_rr=p_rr, max_norm_loss=max_norm_loss,
                       lattices=tuple((grid.m, len(columns)) for columns, grid in groups),
                       p_rr_error=p_rr_error, coarse_m=coarse.m)


def fidelity_vs_gamma(
    params: DriveParams,
    gammas,
    *,
    dt_divisor: int = dynamics.DEFAULT_DT_DIVISOR,
) -> list[tuple[float, float]]:
    """Final average fidelity at the end of the gate pulse, per decay rate.

    The pulse ends at :func:`models.pulse_end_time`, the first drive-envelope
    node at or after the gate time.  All rates share one grid (the decay
    rate sets neither the window nor the lattice) and one
    process-map propagation, batched over the rates
    (:func:`dynamics.propagate_process` with ``gamma=``): each invariant
    block of the process map takes m/2 RK4 step maps (400 at the default
    divisor) for all rates at once, in real arithmetic on the real
    coordinates of density matrices (for CNOT under decay, blocks of 45 and
    36 coordinates; a gamma = 0 point runs on the same blocks).  One call
    then evaluates the final fidelities of every rate.  Returns
    [(gamma, final_fbar), ...] in input order, and [] for no rate.
    """
    gammas = [float(g) for g in gammas]
    if not all(0.0 <= g < math.inf for g in gammas):
        raise ValueError(f"decay rates must be finite and >= 0, got {gammas}")
    if not gammas:
        return []
    grid = TimeGrid.build(params, models.pulse_end_time(params), dt_divisor=dt_divisor,
                          sample_stride=10**9)
    process = dynamics.propagate_process(params, grid, gamma=gammas)
    fbars = _fbar_of_images(process.images[-1], models.target_unitary(params.gate))
    return [(g, float(f)) for g, f in zip(gammas, fbars)]
