import functools
import math

import numpy as np
import pytest

from rabsim import dynamics, hilbert, models
from rabsim.hilbert import QUBIT_INDICES
from rabsim.models import DriveParams, GateKind

# One line per acceptance criterion, echoed into the terminal summary by the
# hook below so the PASS/FAIL verdicts survive output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)

# Operating point used throughout: Omega_m/2pi = 2 MHz, omega = 7.5 Omega_m,
# matched RRI strength, decay quoted in cyclic kHz times 2pi.
OMEGA_M = 2.0 * np.pi * 2.0e6
GAMMA_15KHZ = 2.0 * np.pi * 1.5e3
GAMMA_2KHZ = 2.0 * np.pi * 2.0e3


@pytest.fixture(scope="session")
def cz_params() -> DriveParams:
    return DriveParams.from_ratio(OMEGA_M, 7.5, gate=GateKind.CZ)


@pytest.fixture(scope="session")
def cnot_params() -> DriveParams:
    return DriveParams.from_ratio(OMEGA_M, 7.5, gate=GateKind.CNOT)


@pytest.fixture(scope="session")
def cz_decay_params() -> DriveParams:
    return DriveParams.from_ratio(OMEGA_M, 7.5, gamma=GAMMA_15KHZ, gate=GateKind.CZ)


@pytest.fixture(scope="session")
def cnot_decay_params() -> DriveParams:
    return DriveParams.from_ratio(OMEGA_M, 7.5, gamma=GAMMA_15KHZ, gate=GateKind.CNOT)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240917)


def random_hermitian(rng, scale=1.0):
    a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    return scale * (a + a.conj().T) / 2.0


def random_density(rng):
    a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def qubit_psi():
    """A pure state with weight on every qubit basis state."""
    psi = np.zeros(9, dtype=complex)
    psi[list(QUBIT_INDICES)] = [0.5, 0.5j, -0.5, 0.5]
    return psi


def product_amplitudes(grid_n):
    """Qubit amplitudes of the product inputs on the midpoint (a, b) grid,
    shape (grid_n^2, 4) ordered as (|00>, |01>, |10>, |11>).

    The midpoint rule is the oracle for the closed-form moments: it averages
    the degree-4 trigonometric integrand exactly from 5 points per axis.
    """
    centers = (np.arange(grid_n) + 0.5) * (2.0 * np.pi / grid_n)
    a, b = np.meshgrid(centers, centers, indexing="ij")
    a, b = a.ravel(), b.ravel()
    return np.stack([np.cos(a) * np.cos(b), np.cos(a) * np.sin(b),
                     np.sin(a) * np.cos(b), np.sin(a) * np.sin(b)], axis=1)


def reference_blocks(a0, a1, rows0) -> list[list[int]]:
    """Invariant blocks by a breadth-first search over the coupling graph.

    The coordinates reachable from the support of ``rows0`` (i is reached
    from j when A0 or A1 has an entry (i, j), for any batch entry of A0),
    split into connected components of the undirected graph, each sorted,
    in order of their smallest index.
    """
    dim = a1.shape[-1]
    coupled = np.any(np.asarray(a0).reshape(-1, dim, dim) != 0, axis=0) | (a1 != 0)
    reached = {c for c in range(dim) if np.any(np.asarray(rows0)[..., c] != 0)}
    front = list(reached)
    while front:
        j = front.pop()
        for i in range(dim):
            if coupled[i, j] and i not in reached:
                reached.add(i)
                front.append(i)
    blocks, left = [], set(reached)
    while left:
        block = {min(left)}
        front = list(block)
        while front:
            i = front.pop()
            for k in left - block:
                if coupled[i, k] or coupled[k, i]:
                    block.add(k)
                    front.append(k)
        blocks.append(sorted(block))
        left -= block
    return blocks


# The step-by-step reference: the same model advanced one RK4 step at a
# time from H(t) and the collapse operators, not from the stroboscopic
# propagation of the superoperator generator that the package runs.


def lindblad_rhs(rho, h, ls):
    """Right-hand side of the Lindblad master equation for a Hermitian ``h``.

    Computes ``i(rho h - h rho) + 1/2 sum_k {2 L_k rho L_k^dag
    - [L_k^dag L_k rho + rho L_k^dag L_k]}``; the leading term equals the
    standard -i[h, rho].
    """
    out = 1j * (rho @ h - h @ rho)
    if len(ls):
        # Every L_k at once, on an axis of its own before the matrix axes.
        ops = np.asarray(ls)
        ops_dag = np.conj(np.swapaxes(ops, -1, -2))
        decay = np.sum(ops_dag @ ops, axis=0)
        rho_k = np.expand_dims(rho, -3)
        out += np.sum(ops @ rho_k @ ops_dag, axis=-3) - 0.5 * (decay @ rho + rho @ decay)
    return out


def schrodinger_rhs(params):
    """Right-hand side -i H(t) psi of the Schrodinger equation."""
    x = models.drive_structure(params.gate)
    omega_m, omega, v = params.omega_m, params.omega, params.v

    def rhs(t, psi):
        out = (omega_m * math.cos(omega * t)) * (x @ psi)
        out[..., 8] += v * psi[..., 8]
        return -1j * out

    return rhs


def rk4_steps(rhs, y0, t0, dt, n_steps):
    """Fixed-step classical RK4 from ``t0``: yield y after each of ``n_steps`` steps.

    y_next = y + dt/6 (k1 + 2 k2 + 2 k3 + k4), with the stages
    k1 = rhs(t, y), k2 = rhs(t + dt/2, y + dt/2 k1),
    k3 = rhs(t + dt/2, y + dt/2 k2) and k4 = rhs(t + dt, y + dt k3).  y keeps
    the dtype of ``y0`` (at least float64).
    """
    y = np.array(y0, dtype=np.result_type(y0, float))
    for step in range(n_steps):
        t = t0 + step * dt
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * dt, y + (0.5 * dt) * k1)
        k3 = rhs(t + 0.5 * dt, y + (0.5 * dt) * k2)
        k4 = rhs(t + dt, y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        yield y


def stepwise_lindblad(params):
    """Step-by-step Lindblad RHS built from the public operators, not from
    the superoperator generator the stroboscopic propagation uses."""
    collapse = models.collapse_operators(params.gamma)
    return lambda t, rho: lindblad_rhs(rho, models.hamiltonian(params, t), collapse)


def rk4_run(rhs, y0, grid, *, hermitize):
    """Step-by-step RK4 over the lattice of the grid, returning (sample
    times, samples).

    Each step is one step of :func:`rk4_steps`: ``grid.lattice_steps``
    steps of ``grid.dt``, then one of ``grid.delta`` when the window ends
    off the lattice.  With ``hermitize`` the state is replaced by its
    Hermitian part 0.5 (y + y^dagger) after each step.
    """
    sample_steps = grid.sample_steps
    samples = np.empty((len(sample_steps),) + np.shape(y0), dtype=complex)
    samples[0] = y = y0
    sample_pos = 1
    for step in range(1, grid.n_steps + 1):
        dt = grid.dt if step <= grid.lattice_steps else grid.delta
        y = next(rk4_steps(rhs, y, (step - 1) * grid.dt, dt, 1))
        if hermitize:
            y = 0.5 * (y + hilbert.dagger(y))
        if sample_pos < len(sample_steps) and step == sample_steps[sample_pos]:
            samples[sample_pos] = y
            sample_pos += 1
    return np.minimum(grid.dt * sample_steps, grid.t_end), samples


QUBIT_UNITS = [9 * a + b for a in QUBIT_INDICES for b in QUBIT_INDICES]


def hermitian_basis(n):
    """The orthonormal Hermitian basis of n x n matrices that the real
    coordinates refer to, shape (n*n, n, n), written out from its
    definition: |a><a| at n a + a, and for a < b (|a><b| + |b><a|)/sqrt2 at
    n a + b and i(|a><b| - |b><a|)/sqrt2 at n b + a."""
    basis = np.zeros((n * n, n, n), dtype=complex)
    r = math.sqrt(0.5)
    for a in range(n):
        basis[n * a + a, a, a] = 1.0
        for b in range(a + 1, n):
            basis[n * a + b, a, b] = basis[n * a + b, b, a] = r
            basis[n * b + a, a, b], basis[n * b + a, b, a] = 1j * r, -1j * r
    return basis


def matrices_of(coordinates):
    """Hermitian n x n matrices of real coordinates (..., n*n): sum_k x_k B_k."""
    n = math.isqrt(np.shape(coordinates)[-1])
    return np.tensordot(coordinates, hermitian_basis(n), axes=1)


def coordinates_of(matrices):
    """Real coordinates (..., n*n) of n x n matrices: Re tr(B_k X)."""
    n = np.shape(matrices)[-1]
    return np.einsum("kba,...ab->...k", hermitian_basis(n), matrices).real


def unit_images(rows):
    """Complex images (..., 4, 4, n, n) of the qubit matrix units |q_i><q_j|
    from the real images (..., 16, n*n) of the 16 Hermitian qubit basis
    matrices, by linearity: |q_i><q_j| = sum_k B_k[j, i] B_k over the
    basis of 4x4 matrices."""
    return np.einsum("kji,...kab->...ijab", hermitian_basis(4), matrices_of(rows))


def real_process(params, grid):
    """(times, rows) of the run that :func:`dynamics.propagate_process`
    makes, with every output coordinate kept and without its health gates:
    the real coordinates (n_samples, 16, 81) of the images of the 16
    Hermitian qubit basis matrices."""
    return dynamics._propagate(params, np.eye(81)[QUBIT_UNITS], grid, density=True)


def full_process(params, grid):
    """(times, images) of the 16 qubit matrix units with all 81 entries of
    every image, complex, shape (n_samples, 4, 4, 9, 9), read from
    :func:`real_process` by linearity: the images that the oracles compare
    in full, while ``ProcessMap.images`` keeps only the real coordinates of
    their qubit blocks."""
    times, rows = real_process(params, grid)
    return times, unit_images(rows)


def qubit_coordinates(rows):
    """The real coordinates (..., 4, 4, 4, 4) of the qubit blocks that
    ``ProcessMap.images`` keeps, from real images (..., 16, 81)."""
    rows = np.asarray(rows)
    return rows[..., QUBIT_UNITS].reshape(rows.shape[:-2] + (4, 4, 4, 4))


def qubit_block(matrices):
    """The 4x4 qubit block of 9x9 matrices on the last two axes."""
    q = list(QUBIT_INDICES)
    return np.asarray(matrices)[..., q, :][..., q]


def apply_process(images, rho0):
    """Image of a 9x9 initial matrix supported on the qubit subspace, by
    linearity: its 4x4 qubit block weighs the basis images (..., 4, 4, 9, 9)."""
    return np.einsum("ij,...ijab->...ab", qubit_block(rho0), images)


# The cached stepwise reference of the propagator tests: one RK4 run per
# drive, decay rate and initial state, on the lattice of STEPWISE_M steps a
# drive period over STEPWISE_PERIODS periods, every lattice step kept.  A
# run on a TimeGrid of that m reads its samples from it.
STEPWISE_M = 100
STEPWISE_PERIODS = 3.75


def stepwise_start(kind):
    """Initial rows (c, d) of the propagator runs of ``kind``: a pure state
    with weight on every qubit basis state (1, 9), a random density matrix
    on all nine levels as its real coordinates (1, 81), or the real
    coordinates of the 16 Hermitian qubit basis matrices (16, 81)."""
    if kind == "state":
        return qubit_psi()[np.newaxis]
    if kind == "density":
        return coordinates_of(random_density(np.random.default_rng(20240917)))[np.newaxis]
    return np.eye(81)[QUBIT_UNITS]


def _stepwise_problem(params, kind):
    """(rhs, y0) of the reference of ``kind``: the Schrodinger equation on the
    9-vector, or the Lindblad equation on the complex matrices of the rows."""
    rows0 = stepwise_start(kind)
    if kind == "state":
        return schrodinger_rhs(params), rows0[0]
    return stepwise_lindblad(params), matrices_of(rows0)


@functools.cache
def _stepwise_lattice(params, kind):
    """Every lattice step of the reference run of ``kind``, read-only."""
    rhs, y0 = _stepwise_problem(params, kind)
    dt = 2.0 * np.pi / params.omega / STEPWISE_M
    lattice = np.stack([y0, *rk4_steps(rhs, y0, 0.0, dt, round(STEPWISE_PERIODS * STEPWISE_M))])
    lattice.flags.writeable = False
    return lattice


def stepwise_samples(params, kind, grid):
    """The stepwise reference of ``kind`` under ``params`` at
    ``grid.sample_steps``: a 9-vector for states, complex 9x9 matrices
    (c, 9, 9) otherwise.

    The lattice steps are read from one cached :func:`rk4_steps` run over
    STEPWISE_PERIODS periods, formed the first time it is asked for; an
    off-lattice end is the last lattice step of the window advanced by one
    reference step of ``grid.delta``.
    """
    assert (grid.m, grid.omega) == (STEPWISE_M, params.omega)
    assert grid.t_end <= STEPWISE_PERIODS * 2.0 * np.pi / params.omega * (1.0 + 1e-12)
    lattice = _stepwise_lattice(params, kind)
    samples = lattice[np.minimum(grid.sample_steps, grid.lattice_steps)]
    if grid.delta:
        rhs = _stepwise_problem(params, kind)[0]
        [samples[-1]] = rk4_steps(rhs, lattice[grid.lattice_steps],
                                  grid.lattice_steps * grid.dt, grid.delta, 1)
    return samples
