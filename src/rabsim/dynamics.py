"""Time propagation: Schrodinger, Lindblad and process-map evolution.

The drive Omega_m cos(omega t) is periodic with P = 2 pi/omega and V|rr><rr|
is static, so every equation of motion here has the form
dy/dt = (A0 + cos(omega t) A1) y: A = -iH on complex 9-vectors for pure
states, and otherwise the 81x81 Liouvillian on the real coordinates of the
density matrix (:func:`hilbert.real_coordinates`: rho_aa at index 9a + a,
and for a < b sqrt2 Re rho_ab at 9a + b and sqrt2 Im rho_ab at 9b + a).  The
Lindblad generator maps Hermitian matrices to Hermitian matrices, so on
these coordinates it is a real matrix, and density matrices and process
maps propagate in real arithmetic.  States enter and leave the coordinates
by index gathers at the edges of a run.

Every drive and decay term changes the Rydberg count n_r by exactly one, so
the parity Pi = diag((-1)^n_r) (on the density coordinates,
(-1)^(n_r(a) + n_r(b)) at indices 9a + b and 9b + a) gives Pi A0 Pi = A0 and
Pi A1 Pi = -A1.  As cos(omega (t + P/2)) =
-cos(omega t), A(t + P/2) = Pi A(t) Pi: the second half of every drive
period is the first half conjugated by a sign flip.

The propagation is stroboscopic, on the lattice of a :class:`TimeGrid`: m
steps of h = P/m per drive period, m even.  It integrates half a drive
period once with fixed-step classical RK4 (generator evaluated at the step
edges and midpoint) into Phi(P/2), and keeps on the way the prefix map
Phi(s) at each in-period offset s that a sample reads.  On rows,
Phi(P) = G G with G = Phi(P/2) Pi; a state at kP + s is y(kP) Phi(s) for
s < P/2 and y(kP) G Phi(s - P/2) Pi after that.  A window that ends off the
step lattice is read at its last lattice step and advanced to t_end by one
plain RK4 step of the remainder on its rows, so every run ends exactly at
t_end.  Each invariant block (below) thus takes at most m/2 RK4 steps of
P/m, plus at most one short step, however long the window.  The prefix
maps that samples read sit in one stack, at full width; the samples are
one batched product of its kept columns, cut once after the pass, with the
starts y(kP) and y(kP) G, both factors gathered per sample, and the short
step reads its full-width map from the same stack.  In exact arithmetic
this is the same product of RK4 step maps as stepping through the lattice
and then the short step, which the step-by-step references of the tests
do.

Each step is applied as its map.  On rows (y' = y B with B = A^T =
b0 + c(t) b1), one RK4 step of h from t is y -> y M with

    M = I + h/6 (B1 + 4 B2 + B4) + h^2/6 (B1 B2 + B2^2 + B2 B4)
          + h^3/12 (B1 B2^2 + B2^2 B4) + h^4/24 B1 B2^2 B4

for B1, B2, B4 the generator at t, t + h/2 and t + h.  In it c1 = c(t)
appears at most once, c2 = c(t + h/2) at most twice and c4 = c(t + h) at
most once, so M = sum c1^a c2^b c4^e K_abe over twelve fixed kernels K.
They are formed once per block and step size from the 30 words of length
1 to 4 in (h b0, h b1) (:func:`_rk4_kernels`).  The step maps of a pass are
then one product of cosine monomials with the kernels per chunk of steps
(:func:`_step_maps`): 12 d^2 multiply-adds a step on a block of d.

The pass multiplies its step maps in order, one product a step, and keeps
the prefix map at each offset that a sample reads; it stops at the last
offset read when no sample needs Phi(P/2).  The period starts y(kP) are
formed only for the periods that samples read, each gap between two of them
crossed by the binary powers Phi(P)^(2^b) of its bits, each power squared
once when first needed: about 2 log2 K products for K periods instead of K.
A run that reads every period takes one product per period, and every
run's prefix maps are those of a plain pass.

Each run is restricted to the coordinates its initial states can reach and
split into the invariant blocks of the generator: the connected components
of its coupling graph, between which A(t) has no entry at any t.  Every
block propagates on its own.  Under decay the 81 coordinates of a process
map split into 25 + 2x20 + 8 + 2x4 for CZ and 45 + 36 for CNOT (the real
and imaginary parts of a coherence share a block); |11><11| without decay
reaches one block of 16, and the pure |11> of a heatmap one of 4
amplitudes (CZ) or 6 (CNOT).  A run may keep only some output coordinates:
the stack of maps is cut to them once, after the pass, and the samples are
formed from the cut.  A process map keeps 21 of the 81, the qubit block and
the diagonal.

A0 is linear in the static rates V and gamma, and a run may carry a batch
of them on leading axes of A0: the decay sweep runs its rates that way, in
one process-map run whose blocks are those of the whole batch (a gamma = 0
entry runs on the decay blocks).  A batch may also run over the drive
frequency, in drive-phase time tau = omega t: there
dy/dtau = (A0 + cos(tau) A1) y/omega has the period 2 pi for every omega,
so omega becomes a batch axis of A0 and A1, and every entry shares the
lattice of m steps of 2 pi/m and the cosines of its steps.  Each entry may
then end at its own tau, in a run that stores only its final state: the
pass stops at the offsets of every entry's end, the period starts are
formed for every entry's last period and gathered per entry, and one
batched short step takes each entry's remainder.  The heatmap runs each
group of columns that share m this way, over V and omega at once.  Each
block takes the batch a slice of its first axis at a time, so that the
twelve kernels of a slice stay within 2**16 elements: two rates a slice on
the CNOT block of 45, and five omega columns of 60 V values each (two for
CNOT) in a default heatmap.

Runs are deterministic, so step-halving convergence checks stay meaningful.
Density matrices are Hermitian by construction but never renormalized, so
trace drift stays visible as a health metric (the Lindblad generator is
exactly traceless, so drift only reflects rounding).  Every health gate is
written as ``not (x <= tol)`` so that a NaN trips it.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import hilbert, models
from .hilbert import DIM, QUBIT_INDICES
from .models import DriveParams

#: Hard ceiling on the integration step: at least this many steps per period
#: of the fastest angular frequency in the model.
MIN_STEPS_PER_PERIOD = 50

#: Steps per fastest period unless a caller asks otherwise, in the library
#: and on the command line alike.  It is finer than the ceiling because over
#: a full CZ gate window (about 112.5 periods of 2*omega) the ceiling leaves
#: ~1e-4 norm damping on the fastest eigencomponent, while 400 keeps norm
#: drift and eigenvalue negativity below 1e-8.
DEFAULT_DT_DIVISOR = 400

#: Default cap on stored samples per trajectory.
MAX_SAMPLES_DEFAULT = 2000


class IntegratorHealthError(RuntimeError):
    """Propagation drifted outside its health bounds; use a smaller dt."""


def fastest_angular_frequency(params: DriveParams) -> float:
    """Fastest angular scale of the model: max(V, 2*omega, Omega_m)."""
    return max(params.v, 2.0 * params.omega, params.omega_m)


@dataclass(frozen=True)
class TimeGrid:
    """The step lattice of one run from 0 to ``t_end``: ``m`` steps of
    h = P/m (``dt``) per drive period P = 2 pi/``omega``, m even so that P/2
    falls on a step.

    The run takes ``lattice_steps`` steps of h, the last one at or before
    ``t_end`` (within 1e-9 of a step), and then, when the window ends off
    the lattice, one step of the remainder ``delta`` < h to ``t_end``
    (``delta`` is 0 otherwise).  ``n_steps`` counts both, and
    ``sample_steps`` indexes them.  Construct through :meth:`build`, which
    sizes m from the model's fastest frequency and enforces the step
    ceiling.  Direct construction skips the ceiling check (used by tests
    that deliberately under-resolve).  ``m`` must be an even integer >= 2
    and ``sample_stride`` an integer >= 1 (a bool is neither).
    """

    t_end: float
    omega: float
    m: int
    sample_stride: int = 1

    def __post_init__(self) -> None:
        for name in ("t_end", "omega"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        for name in ("m", "sample_stride"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not (self.m >= 2 and self.m % 2 == 0):
            raise ValueError(f"m must be even and >= 2, got {self.m}")
        if not self.sample_stride >= 1:
            raise ValueError(f"sample_stride must be >= 1, got {self.sample_stride}")
        # Step indices are numpy integers: a longer lattice cannot be indexed.
        steps, limit = self.t_end / self.dt, np.iinfo(np.intp).max
        if not (self.m <= limit and steps < limit):
            raise ValueError(f"the lattice of m = {self.m:.6g} steps per drive period takes "
                             f"{steps:.6g} steps to t_end; both must be below {limit}")

    @classmethod
    def build(
        cls,
        params: DriveParams,
        t_end: float,
        *,
        dt_divisor: int = DEFAULT_DT_DIVISOR,
        sample_stride: int | None = None,
    ) -> "TimeGrid":
        """Lattice from 0 to ``t_end`` under the drive of ``params``, with a
        step no longer than (fastest period)/dt_divisor.

        That step is first shortened to the longest one that lands on
        ``t_end`` in whole steps, and m is the even number at or above the
        drive period over it: h = P/m never exceeds the requested step, and
        equals the shortened one when that divides P/2.  Without
        ``sample_stride``, every ceil(n_steps/:data:`MAX_SAMPLES_DEFAULT`)-th
        step of the lattice is stored.  A non-finite or non-positive
        ``t_end``, and a ``dt_divisor`` that is not finite or lies below the
        ceiling of :data:`MIN_STEPS_PER_PERIOD` steps per fastest period, are
        rejected.
        """
        if not 0.0 < t_end < math.inf:
            raise ValueError(f"t_end must be finite and > 0, got {t_end}")
        if not MIN_STEPS_PER_PERIOD <= dt_divisor < math.inf:
            raise ValueError(
                f"dt_divisor must be finite and >= {MIN_STEPS_PER_PERIOD}, got {dt_divisor}"
            )
        dt = 2.0 * math.pi / fastest_angular_frequency(params) / dt_divisor
        dt = t_end / max(1, math.ceil(t_end / dt * (1.0 - 1e-12)))
        m = max(1, math.ceil(2.0 * math.pi / params.omega / dt * (1.0 - 1e-9)))
        grid = cls(t_end, params.omega, m + m % 2)
        if sample_stride is None:
            sample_stride = max(1, math.ceil(grid.n_steps / MAX_SAMPLES_DEFAULT))
        return replace(grid, sample_stride=sample_stride)

    @property
    def dt(self) -> float:
        """The lattice step h = P/m."""
        return 2.0 * math.pi / self.omega / self.m

    @functools.cached_property
    def lattice_steps(self) -> int:
        return math.floor(self.t_end / self.dt + 1e-9)

    @functools.cached_property
    def delta(self) -> float:
        delta = self.t_end - self.lattice_steps * self.dt
        return 0.0 if self.lattice_steps and abs(delta) <= 1e-9 * self.dt else delta

    @property
    def n_steps(self) -> int:
        return self.lattice_steps + (self.delta > 0)

    def halved(self) -> "TimeGrid":
        """Same window on the lattice of half the step, m -> 2m (for
        convergence checks)."""
        return replace(self, m=2 * self.m, sample_stride=2 * self.sample_stride)

    @property
    def sample_steps(self) -> np.ndarray:
        """Step indices at which states are stored (always includes the last)."""
        steps = np.arange(0, self.n_steps + 1, self.sample_stride)
        if steps[-1] != self.n_steps:
            steps = np.append(steps, self.n_steps)
        return steps


@dataclass(frozen=True)
class Trajectory:
    """Sampled states along one propagation.

    ``states`` has shape (n_samples, 9) for state vectors or
    (n_samples, 9, 9) for density matrices, aligned with ``times``; ``dt``
    is the lattice step of the grid it ran on (:attr:`TimeGrid.dt`).
    """

    times: np.ndarray
    states: np.ndarray
    dt: float

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def basis_populations(self, index: int) -> np.ndarray:
        """Population of the basis state ``index`` at every sample."""
        if self.states.ndim == 2:
            return np.abs(self.states[:, index]) ** 2
        return np.real(self.states[:, index, index])


@dataclass(frozen=True)
class ConvergenceReport:
    """Step-halving comparison of one scalar observable."""

    value: float
    value_halved: float
    delta: float
    passed: bool


@dataclass(frozen=True)
class ProcessMap:
    """Linear action of the dynamics on the qubit subspace, read back on it.

    Everything is in real coordinates of Hermitian matrices
    (:func:`hilbert.real_coordinates`, on the 4x4 qubit block with rows and
    columns q = 00, 01, 10, 11).  ``images[s, i, j]`` holds, at entry
    [a, b], the real coordinate at 4a + b of the qubit block of the
    propagated basis matrix of index 4i + j at sample ``s``: |q_i><q_i|,
    (|q_i><q_j| + |q_j><q_i|)/sqrt2 for i < j, i(|q_j><q_i| - |q_i><q_j|)/sqrt2
    for i > j.  Entries on the Rydberg levels are not kept.  The qubit block
    of the map applied to any Hermitian qubit-subspace initial matrix
    follows by linearity from its real coordinates.
    """

    times: np.ndarray
    images: np.ndarray  # (n_samples, 4, 4, 4, 4), float64


#: Powers (a, b, e) of (c1, c2, c4) that kernel 6a + 2b + e carries.
_KERNEL_POWERS = np.indices((2, 3, 2)).reshape(3, -1)

#: Elements that the RK4 kernels of one batch slice of one block may hold.
_KERNEL_BUDGET = 2**16

#: Steps whose cosine monomials :func:`_step_maps` forms at a time.
_STEP_WINDOW = 4096


def _rk4_kernels(b0: np.ndarray, b1: np.ndarray, h: float) -> np.ndarray:
    """The 12 kernels (12, ..., d, d) of an RK4 step of ``h`` on rows under
    y' = y (b0 + c(t) b1): the step map from t is the sum over k of
    c1^a c2^b c4^e K_k, with (a, b, e) = ``_KERNEL_POWERS[:, k]`` and c1, c2
    and c4 the values of c at t, t + h/2 and t + h.  ``b0`` may carry leading
    batch axes, and the kernels take them.

    Each kernel is a sum of the 30 words of length 1 to 4 in X = h b0 and
    Y = h b1.  They are formed with 22 matrix products instead of one per
    word: with h B_i = X + c_i Y, the step map of the module docstring
    splits by its first factor into M = h B1 R + Q, with
    R = I/6 + h B2/6 + (h B2)^2/12 + (h B2)^2 h B4/24 and
    Q = 2R + 2I/3 + h B2/3 + h B4/6 + h^2 B2 B4/6.  So the kernels with
    a = 1 are Y R and those with a = 0 are (X + 2I) R plus the rest of Q,
    each at the powers (b, e) of (c2, c4).
    """
    x, y = h * b0, h * b1
    shape = np.broadcast_shapes(x.shape, y.shape)
    eye = np.eye(shape[-1])
    xy, yx = x @ y, y @ x
    # (h B2)^2 at the powers b = 0, 1, 2 of c2.
    squares = np.stack(np.broadcast_arrays(x @ x, xy + yx, y @ y))
    # R at (b, e) is squares[b] @ factors[e], plus the linear terms at e = 0.
    factors = np.stack(np.broadcast_arrays(eye / 12 + x / 24, y / 24))
    kernels = np.empty((2, 3, 2) + shape, dtype=squares.dtype)
    lift = x + 2 * eye
    for b, linear in enumerate(((eye + x) / 6, y / 6, 0.0)):
        r = squares[b] @ factors
        r[0] += linear
        np.matmul(lift, r, out=kernels[0, b])
        np.matmul(y, r, out=kernels[1, b])
    kernels[0, 0, 0] += 2 / 3 * eye + x / 2 + squares[0] / 6
    kernels[0, 1, 0] += y / 3 + yx / 6
    kernels[0, 0, 1] += (y + xy) / 6
    kernels[0, 1, 1] += squares[2] / 6
    return kernels.reshape((12,) + shape)


def _step_maps(kernels: np.ndarray, omega: float, t0: float, h: float, n_steps: int):
    """Yield the RK4 step maps of ``n_steps`` steps of ``h`` from ``t0``
    under c(t) = cos(omega t), in order, from the kernels of
    :func:`_rk4_kernels` for that ``h``: y after step k is y before it times
    map k.  They come in chunks (r, ..., d, d) of r consecutive maps.

    A chunk of r = max(2, 2**16 // kernels.size) steps is the cosine
    monomials of its steps contracted with the kernels in one product, so
    that each product stays below the size at which OpenBLAS starts a
    second thread, which on these small blocks burns more CPU than it
    saves.  Each product takes at least two steps: OpenBLAS hands a one-row
    product to another kernel, which rounds differently, and with two or
    more every map is the same whatever batch its kernels carry, so that a
    batched run reproduces the unbatched runs of its entries bit for bit.
    Complex kernels are contracted as their real and imaginary parts side
    by side.

    The monomials c1^a c2^b c4^e are the outer product of [1, c1],
    [1, c2, c2 c2] and [1, c4], in kernel order 6a + 2b + e, and not powers:
    libm's ``pow`` of a negative base costs over ten times a product, and
    half the cosines of a half-period pass are negative.  They are formed
    per window of whole chunks of at most ``_STEP_WINDOW`` steps (one chunk
    when a chunk is longer), so that a pass of any length holds the
    cosines of one window at a time; a window's step times are the same
    floats as those of one array over the whole pass.
    """
    flat = kernels.reshape(len(kernels), -1)
    if np.iscomplexobj(flat):
        flat = flat.view(np.float64)
    rows = max(2, 2**16 // kernels.size)
    window = rows * max(1, _STEP_WINDOW // rows)
    for first in range(0, n_steps, window):
        t = t0 + h * np.arange(first, min(first + window, n_steps))
        c1, c2, c4 = np.cos(omega * np.stack([t, t + 0.5 * h, t + h]))
        # Axes (a, b, e): [1, c2, c2 c2] at a = e = 0, times c1 at a = 1,
        # then all of it times c4 at e = 1.
        monomials = np.empty((len(t), 2, 3, 2))
        powers = monomials[:, 0, :, 0]
        powers[:, 0], powers[:, 1] = 1.0, c2
        np.multiply(c2, c2, out=powers[:, 2])
        np.multiply(c1[:, np.newaxis], powers, out=monomials[:, 1, :, 0])
        np.multiply(monomials[..., 0], c4[:, np.newaxis, np.newaxis], out=monomials[..., 1])
        monomials = monomials.reshape(len(t), -1)
        for start in range(0, len(t), rows):
            chunk = monomials[start:start + rows] @ flat
            yield chunk.view(kernels.dtype).reshape((-1,) + kernels.shape[1:])


@functools.cache
def _density_terms(gate) -> np.ndarray:
    """The density generator's terms per unit rate on the real coordinates of
    rho, stacked and read-only: the dissipator at gamma = 1, -i[X, rho] for
    the drive structure X of ``gate``, and -i[|rr><rr|, rho].

    Each term is applied to the 81 Hermitian basis matrices
    (:func:`hilbert.hermitian_matrices` of the coordinate units), and the
    real coordinates of the images are read back as its columns: column k
    is the term applied to basis matrix k.  Every term maps Hermitian
    matrices to Hermitian matrices, so these columns are the whole term.
    """
    basis = hilbert.hermitian_matrices(np.eye(DIM * DIM))
    collapse = models.collapse_operators(1.0)
    half_rate = 0.5 * sum(hilbert.dagger(op) @ op for op in collapse)
    rr = hilbert.projector(hilbert.RYD, hilbert.RYD)
    # One term at a time, in one buffer of images: fewer live temporaries
    # leave the heap smaller for the propagation that follows.
    terms = np.empty((3, DIM * DIM, DIM * DIM))
    images = -(half_rate @ basis)
    images -= basis @ half_rate
    for op in collapse:
        images += op @ basis @ hilbert.dagger(op)
    terms[0] = hilbert.real_coordinates(images).T
    for term, x in zip(terms[1:], (models.drive_structure(gate), rr)):
        np.matmul(x, basis, out=images)
        images -= basis @ x
        images *= -1j
        term[...] = hilbert.real_coordinates(images).T
    terms.flags.writeable = False
    return terms


def _generator(params, *, density: bool, v=None, gamma=None, omega=None
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A0, A1, parity) with the equation of motion dy/dt = (A0 + cos(omega t) A1) y.

    A0 is linear in the static rates, and ``v`` and ``gamma`` may replace
    ``params.v`` and ``params.gamma`` by arrays of them, which give A0
    their broadcast shape as leading batch axes: the decay sweep runs its
    process map over its rates that way.  ``omega``, an array of drive
    frequencies, puts the equation in drive-phase time tau = omega t,
    dy/dtau = (A0 + cos(tau) A1) y/omega, whose drive has the period 2 pi
    for every omega: both terms are divided by it, and its shape joins the
    batch axes of both.  A heatmap runs |11> over its V axis and its
    omega axis that way.  For pure states y is the 9-vector and
    A(t) = -i H(t), complex;
    they carry no decay, so ``gamma`` is rejected there.  For density
    matrices y holds the real coordinates of rho
    (:func:`hilbert.real_coordinates`) and A(t) is the real 81x81
    Liouvillian on them, with the decay in A0: the Lindblad generator maps
    Hermitian matrices to Hermitian matrices.  It is assembled from the
    per-gate terms of :func:`_density_terms`, scaled by gamma, Omega_m and
    V.  ``parity`` is the diagonal of Pi, (-1)^n_r on the 9 basis states and
    (-1)^(n_r(a) + n_r(b)) at index 9a + b (and so at 9b + a) of the
    density coordinates; it gives Pi A0 Pi = A0 and Pi A1 Pi = -A1.
    """
    is_rydberg = (np.arange(hilbert.N_LEVELS) == hilbert.RYD).astype(int)
    parity = (-1.0) ** np.add.outer(is_rydberg, is_rydberg).ravel()
    v = np.asarray(params.v if v is None else v)
    if not density:
        if gamma is not None:
            raise ValueError("pure states carry no decay: only the density generator "
                             "batches over gamma")
        h0 = np.zeros(v.shape + (DIM, DIM), dtype=complex)
        h0[..., 8, 8] = v
        a0 = -1j * h0
        a1 = (-1j * params.omega_m) * models.drive_structure(params.gate)
    else:
        gamma = np.asarray(params.gamma if gamma is None else gamma)
        decay, drive, rr = _density_terms(params.gate)
        a0 = gamma[..., np.newaxis, np.newaxis] * decay + v[..., np.newaxis, np.newaxis] * rr
        a1 = params.omega_m * drive
        parity = np.outer(parity, parity).ravel()
    if omega is not None:
        omega = np.asarray(omega)[..., np.newaxis, np.newaxis]
        a0, a1 = a0 / omega, a1 / omega
    return a0, a1, parity


def _closure(links: np.ndarray, seed: np.ndarray) -> np.ndarray:
    """Smallest superset of the boolean mask ``seed`` that holds every
    coordinate i with links[i, j] for some j in it."""
    while True:
        grown = seed | np.any(links[:, seed], axis=1)
        if np.array_equal(grown, seed):
            return seed
        seed = grown


def _blocks(a0: np.ndarray, a1: np.ndarray, rows0: np.ndarray) -> list[np.ndarray]:
    """Index arrays of the invariant blocks that the states of ``rows0`` live in.

    First the reachable set: the smallest coordinate subspace that holds
    every state and that A(t) maps into itself for all t and every batch
    entry.  Outside it the solution stays exactly zero.  The reachable set is
    then split into the connected components of the undirected coupling
    graph (A0 != 0) | (A1 != 0): no entry of A couples two components, so
    each evolves on its own.  Blocks come in order of their smallest index.
    On the real density coordinates, under decay, the 16 Hermitian qubit
    basis matrices split into 25 + 2x20 + 8 + 2x4 coordinates for CZ and
    45 + 36 for CNOT; |11><11| without decay reaches one block of 16, and
    the dark state |00> one of 1.  The state |11>, batched over V and omega
    as in a heatmap, reaches one block of 4 amplitudes for CZ and 6 for CNOT.
    """
    links = (a0 != 0) | (a1 != 0)
    links = np.any(links, axis=tuple(range(links.ndim - 2)))
    left = _closure(links, np.any(rows0 != 0, axis=tuple(range(rows0.ndim - 1))))
    coupled = (links | links.T) & left & left[:, None]
    blocks = []
    while left.any():
        block = _closure(coupled, np.arange(len(left)) == np.argmax(left))
        blocks.append(np.flatnonzero(block))
        left = left & ~block
    return blocks


# A diverging run overflows to inf and NaN quietly: the health gates of the
# propagators judge its output.
@np.errstate(over="ignore", invalid="ignore")
def _stroboscopic_run(a0, a1, parity, rows0: np.ndarray, grid: TimeGrid, columns=None,
                      ends=None):
    """Propagate under dy/dt = (A0 + cos(omega t) A1) y, omega = ``grid.omega``,
    by half drive periods on the lattice of ``grid``.

    ``rows0`` holds the initial states as rows, shape (..., c, d), and
    ``a0`` and ``a1`` may carry leading batch axes that broadcast with those
    of ``rows0`` into the batch axes ... of the output.  Per block, the
    batch runs a slice of its first axis at a time, sized so that the
    slice's twelve RK4 kernels hold at most :data:`_KERNEL_BUDGET` elements:
    the run's peak memory then stays that of a few entries however long the
    batch.  ``parity`` is the
    diagonal of Pi: A0 may couple only coordinates of equal parity and A1
    only coordinates of opposite parity, so that Pi A0 Pi = A0 and
    Pi A1 Pi = -A1; a generator with another pattern raises ``ValueError``.
    The coordinates are split into the invariant blocks of :func:`_blocks`,
    and each block propagates on its own, with only the rows of ``rows0``
    that have support in it, into its part of one (n_samples, ..., c, k)
    output; coordinates outside every block stay zero.  Under decay a
    process map thus runs on blocks of 25 + 2x20 + 8 + 2x4 (CZ) or 45 + 36
    (CNOT) coordinates instead of 81.  The run is real when the generator
    and ``rows0`` are (density coordinates) and complex otherwise (states):
    every map, start and sample takes their common dtype.  Within a block,
    half a period is integrated once with RK4, as the product of its step
    maps (:func:`_step_maps`), into Phi(P/2), and
    Phi(P) = G G with G = Phi(P/2) Pi.  A state at kP + s is y(kP) Phi(s) for
    s < P/2 and y(kP) G Phi(s - P/2) Pi otherwise, so the samples need
    Phi(s) only for s < P/2: the same pass stacks Phi(s) at each offset s
    that a sample reads, and the samples are one batched product of their
    origins y(kP) or y(kP) G with the kept columns of their maps, both
    gathered from the stacks.  The pass multiplies the step maps in order;
    the starts y(kP) are formed only for the periods that samples read, by
    binary powers of Phi(P), so a run that stores only its final sample
    makes a few products per doubling of the window.  A window that ends off
    the lattice is read at its last lattice step and advanced to t_end by
    one plain RK4 step of ``grid.delta`` on its rows (:func:`_rk4_step`),
    from its full-width map in the same stack.

    ``ends``, an array of end times that broadcasts with the batch axes of
    A0 and A1, gives each batch entry its own window on the lattice of
    ``grid``: entry e ends where ``replace(grid, t_end=ends[e])`` would, at
    or before ``grid.t_end``, and the run stores its initial and final
    states only, so ``grid`` must store no other sample.  The pass then
    stops at the offsets of every entry's end, the starts are formed for
    every entry's last period and gathered per entry, and the short steps
    are one batched step of each entry's remainder.

    ``columns`` (an index array into the d coordinates) keeps only those
    output coordinates, k = len(columns) of them in that order; None keeps
    all d, as ``np.arange(d)``.  The stack of prefix maps is cut to them
    once, after the pass, so a sample costs c x d x k multiply-adds instead
    of c x d x d, and a block with no kept coordinate is not propagated.

    Returns (times, samples) at ``grid.sample_steps``; with ``ends``, the
    times have shape (2,) + ``ends.shape``, 0 and each entry's end.
    """
    same = parity[:, np.newaxis] == parity
    # abs(x) > 0 is False for NaN: a non-finite generator is left to the
    # health gates of the propagators.
    if np.any(np.abs(a0[..., ~same]) > 0) or np.any(np.abs(a1[..., same]) > 0):
        raise ValueError(
            "the generator lacks the glide symmetry of the drive: A0 must couple only "
            "coordinates of equal parity and A1 only coordinates of opposite parity"
        )
    batch = np.broadcast_shapes(a0.shape[:-2], a1.shape[:-2])
    if ends is None:
        # An off-lattice end is read at the last lattice step and ends at t_end.
        times = np.minimum(grid.sample_steps, grid.lattice_steps) * grid.dt
        times[-1] = grid.t_end
    else:
        if len(grid.sample_steps) != 2:
            raise ValueError("a run with an end per entry stores only its final sample")
        ends = np.asarray(ends, dtype=float)
        times = np.stack(np.broadcast_arrays(0.0, ends))
    columns = np.arange(rows0.shape[-1]) if columns is None else columns
    rows0 = np.broadcast_to(rows0, np.broadcast_shapes(batch, rows0.shape[:-2])
                            + rows0.shape[-2:])
    out = np.zeros((len(times),) + rows0.shape[:-1] + (len(columns),),
                   dtype=np.result_type(a0, a1, rows0))
    # The slices cut the first batch axis: axis ``lead`` of the rows and of
    # the ends, and axis 0 of A0 or A1 where they carry it.  The ends take
    # one axis per batch axis of the rows, the first at its full length.
    lead = rows0.ndim - 2 - len(batch)
    if ends is not None:
        ends = ends.reshape((1,) * (rows0.ndim - 2 - ends.ndim) + ends.shape)
        if batch:
            ends = np.broadcast_to(ends, ends.shape[:lead] + batch[:1] + ends.shape[lead + 1:])
    n = batch[0] if batch else 1
    for block in _blocks(a0, a1, rows0):
        # Which of the kept coordinates the block holds, where they go in
        # the output (kept) and which of its own coordinates they are (local).
        position = np.full(rows0.shape[-1], -1)
        position[block] = np.arange(len(block))
        local = position[columns]
        kept = np.flatnonzero(local >= 0)
        if not len(kept):
            continue
        support = np.any(rows0[..., block] != 0, axis=tuple(range(rows0.ndim - 2)) + (-1,))
        rows, cut = np.flatnonzero(support)[:, np.newaxis], block[:, np.newaxis]
        per_entry = _KERNEL_POWERS.shape[1] * len(block) ** 2 * math.prod(batch[1:])
        size = max(1, _KERNEL_BUDGET // per_entry)
        for start in range(0, n, size):
            part = (slice(start, start + size),) if batch else ()
            at = (slice(None),) * lead + part
            terms = (a[part] if a.ndim - 2 == len(batch) and len(a) > 1 else a
                     for a in (a0, a1))
            # One block's part of one slice at a time, written straight
            # into the output.
            out[(slice(None),) + at][..., rows, kept] = _stroboscopic_core(
                *(term[..., cut, block] for term in terms), parity[block],
                rows0[at][..., rows, block], grid, local[kept],
                None if ends is None else ends[at],
            )
    return times, out


def _rk4_step(rows: np.ndarray, b0, b1, omega: float, t, h) -> np.ndarray:
    """One classical RK4 step of ``h`` from ``t`` of ``rows`` under
    y' = y (b0 + cos(omega t) b1): four generator products, the generator
    taken at t, t + h/2 and t + h.  ``b0`` may carry leading batch axes that
    broadcast with those of ``rows``, and ``t`` and ``h`` may be arrays, one
    entry per batch entry of ``rows``."""
    t, h = (np.asarray(x)[..., np.newaxis, np.newaxis] for x in (t, h))
    start, mid, end = (b0 + np.cos(omega * s) * b1 for s in (t, t + 0.5 * h, t + h))
    k1 = rows @ start
    k2 = (rows + (0.5 * h) * k1) @ mid
    k3 = (rows + (0.5 * h) * k2) @ mid
    k4 = (rows + h * k3) @ end
    return rows + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _gather(stack: np.ndarray, index: np.ndarray) -> np.ndarray:
    """stack[index[s, e], e] for every s and every batch entry e: ``index``
    (n, ...) has one axis per batch axis of the stack's matrices, of size 1
    where the entries take the same element, or none when they all do."""
    if index.ndim == 1:
        return stack[index]
    return np.take_along_axis(stack, index[..., np.newaxis, np.newaxis], axis=0)


def _stroboscopic_core(a0, a1, parity, rows0: np.ndarray, grid: TimeGrid, columns: np.ndarray,
                       ends=None):
    """Samples (n_samples, ..., c, k) of one run on the lattice of ``grid``:
    the coordinates ``columns``, an index array, of the d it runs on.
    ``ends``, with one axis per batch axis of ``rows0``, ends each entry at
    its own time, and every run ends at ``grid.t_end`` without it
    (:func:`_stroboscopic_run`)."""
    half, h, d = grid.m // 2, grid.dt, a0.shape[-1]
    dtype = np.result_type(a0, a1, rows0)
    b0, b1 = np.swapaxes(a0, -1, -2), np.swapaxes(a1, -1, -2)
    batch = np.broadcast_shapes(a0.shape[:-2], a1.shape[:-2])
    # The lattice step of each sample, with one axis per axis of the ends,
    # and the remainder that the last one takes off the lattice, from the
    # lattice time t_last.
    ends = np.asarray(grid.t_end if ends is None else ends)
    own = [replace(grid, t_end=end) for end in ends.ravel().tolist()]
    lattice = np.reshape([g.lattice_steps for g in own], ends.shape)
    delta = np.reshape([g.delta for g in own], ends.shape)
    steps = np.minimum(grid.sample_steps.reshape((-1,) + (1,) * ends.ndim), lattice)
    t_last = ends - delta
    # A sample is step j of period k and continues from the state y(kP) at
    # the start of it.
    k, j = np.divmod(steps, grid.m)
    # Step j >= m/2 of a period is step j - m/2 of its glided second half.
    glide = j >= half
    j = np.where(glide, j - half, j)
    # The full-width prefix maps Phi(j h) at the offsets that the samples
    # read, in one stack whose batch axes line up with the starts'; the
    # identity at offset 0.
    read, which = np.unique(j, return_inverse=True)
    which = which.reshape(j.shape)
    ones = (1,) * (rows0.ndim - 2 - len(batch))
    maps = np.empty((len(read),) + ones + batch + (d, d), dtype=dtype)
    maps[read == 0] = np.eye(d, dtype=dtype)
    stacked = dict(zip(read.tolist(), maps))
    # One pass over half a period (or up to the last offset read, when no
    # sample needs the half-period map) fills the stack, one step at a time.
    needs_half = k[-1].any() or glide.any()
    last = half if needs_half else int(read[-1])
    prefix = np.broadcast_to(np.eye(d, dtype=dtype), batch + (d, d))
    done = 0
    for chunk in _step_maps(_rk4_kernels(b0, b1, h), grid.omega, 0.0, h, last):
        for step in chunk:
            prefix = prefix @ step
            done += 1
            if done in stacked:
                stacked[done][...] = prefix
    # The period starts y(kP) that the samples of any entry read, each gap
    # between two of them crossed by the powers Phi(P)^(2^b) of its bits
    # (each squared once, when first needed), and stacked after them
    # y(kP) G for the samples in a second half.
    if needs_half:
        glide_map = prefix * parity
        powers = [glide_map @ glide_map]
    periods, slot = np.unique(k, return_inverse=True)
    starts = np.empty((len(periods),) + rows0.shape, dtype=dtype)
    y, at = np.asarray(rows0, dtype=dtype), 0
    for i, period in enumerate(periods.tolist()):
        gap, at = period - at, period
        for bit in range(gap.bit_length()):
            if bit == len(powers):
                powers.append(powers[-1] @ powers[-1])
            if gap >> bit & 1:
                y = y @ powers[bit]
        starts[i] = y
    origin = slot.reshape(k.shape) + len(starts) * glide
    if glide.any():
        starts = np.concatenate([starts, starts @ glide_map])
    # Each sample is its origin times the kept columns of its map, both
    # gathered per entry, a chunk of samples per product so that the
    # gathered copies stay small.
    kept = np.take(maps, columns, axis=-1)
    out = np.empty((len(k),) + rows0.shape[:-1] + (len(columns),), dtype=dtype)
    chunk = max(1, 2**13 // kept[0].size)
    for a in range(0, len(out), chunk):
        np.matmul(_gather(starts, origin[a:a + chunk]), _gather(kept, which[a:a + chunk]),
                  out=out[a:a + chunk])
    out[glide if glide.ndim == 1 else np.broadcast_to(glide, out.shape[:-2])] *= parity[columns]
    if delta.any():
        # An off-lattice end: the last sample is formed again from the
        # full-width map of its stack, takes one RK4 step of the remainder
        # on its rows, and is cut afterwards.
        y = _gather(starts, origin[-1:])[0] @ _gather(maps, which[-1:])[0]
        y[np.broadcast_to(glide[-1], y.shape[:-2])] *= parity
        out[-1] = _rk4_step(y, b0, b1, grid.omega, t_last, delta)[..., columns]
    return out


def _propagate(params, rows0: np.ndarray, grid: TimeGrid, *, density: bool, v=None,
               gamma=None, omega=None, ends=None, columns=None):
    """(times, samples) of :func:`_stroboscopic_run` under the generator of
    ``params`` (:func:`_generator`), on a grid of its drive: a grid whose
    ``omega`` is not ``params.omega`` raises ``ValueError``.  With ``omega``,
    an array of drive frequencies, the run is in drive-phase time, on a grid
    of the unit drive (``grid.omega`` = 1)."""
    drive = params.omega if omega is None else 1.0
    if grid.omega != drive:
        name = "params.omega" if omega is None else "the unit drive of drive-phase time"
        raise ValueError(f"the grid is for the drive omega = {grid.omega}, not {name} = {drive}")
    return _stroboscopic_run(*_generator(params, density=density, v=v, gamma=gamma, omega=omega),
                             rows0, grid, columns, ends)


def propagate_state(params: DriveParams, psi0: np.ndarray, grid: TimeGrid) -> Trajectory:
    """Schrodinger propagation of a pure state under the gate Hamiltonian.

    Raises :class:`IntegratorHealthError` when the final norm drifts from
    unity by more than 1e-6 (a well-resolved run stays within 1e-8).
    """
    psi0 = np.asarray(psi0, dtype=complex)
    norm = np.linalg.norm(psi0)
    if not abs(norm - 1.0) <= 1e-10:
        raise ValueError(f"initial state norm is {norm:.12f}, expected 1")
    times, rows = _propagate(params, psi0[np.newaxis], grid, density=False)
    states = rows[:, 0]
    drift = abs(np.linalg.norm(states[-1]) - 1.0)
    if not drift <= 1e-6:
        raise IntegratorHealthError(
            f"state norm drifted by {drift:.3e} (> 1e-6); reduce dt "
            f"(current dt = {grid.dt:.3e} s)"
        )
    return Trajectory(times=times, states=states, dt=grid.dt)


def _propagate_rho(params: DriveParams, rho0: np.ndarray, grid: TimeGrid):
    """Density-matrix samples (times, (n_samples, 9, 9)), Hermitian by
    construction: the run is on the real coordinates of rho."""
    rows0 = hilbert.real_coordinates(rho0)[np.newaxis]
    times, rows = _propagate(params, rows0, grid, density=True)
    return times, hilbert.hermitian_matrices(rows[:, 0])


def propagate_density(params: DriveParams, rho0: np.ndarray, grid: TimeGrid) -> Trajectory:
    """Lindblad propagation of a density matrix.

    The run is on the real coordinates of rho, so every sampled state is
    Hermitian; each is health-checked: trace drift beyond 1e-6, a
    non-finite entry or an eigenvalue below -1e-6 raises
    :class:`IntegratorHealthError`.  The eigenvalues are taken on the
    principal block of the levels that hold a nonzero entry at some sample;
    the others contribute exact zeros.

    The eigenvalue gate first factors every sample's block shifted by
    s = 1e-6 - 1e-12 in one batched Cholesky call, which costs a fraction of
    the eigenvalues.  It succeeds only if each block + s I is positive
    definite up to its rounding, a few 1e-15 on these blocks of norm about 1,
    so every eigenvalue lies above -1e-6 and the gate passes.  When it fails,
    the eigenvalues are taken as above and decide; the 1e-12 keeps the
    Cholesky pass strictly inside the eigenvalues' own pass, so the verdict
    and the reported eigenvalue are those of the eigenvalues alone.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    hilbert.check_density_matrix(rho0)
    times, states = _propagate_rho(params, rho0, grid)
    drift = np.max(np.abs(np.einsum("sii->s", states) - 1.0))
    if not drift <= 1e-6:
        raise IntegratorHealthError(
            f"density trace drifted by {drift:.3e} (> 1e-6); reduce dt"
        )
    if not np.all(np.isfinite(states)):
        raise IntegratorHealthError("density matrix became non-finite; reduce dt")
    # A level whose row is zero at every sample adds an exact zero
    # eigenvalue, so only the block of the other levels is checked.
    support = np.flatnonzero(np.any(states, axis=0).any(axis=1))
    block = states[:, support[:, np.newaxis], support]
    try:
        np.linalg.cholesky(block + (1e-6 - 1e-12) * np.eye(len(support)))
    except np.linalg.LinAlgError:
        min_eig = float(np.min(np.linalg.eigvalsh(block),
                               initial=0.0 if len(support) < DIM else math.inf))
        if not min_eig >= -1e-6:
            raise IntegratorHealthError(
                f"density matrix developed eigenvalue {min_eig:.3e} (< -1e-6); reduce dt"
            ) from None
    return Trajectory(times=times, states=states, dt=grid.dt)


def propagate_process(params: DriveParams, grid: TimeGrid, *, gamma=None) -> ProcessMap:
    """Propagate the 16 Hermitian basis matrices of the qubit subspace in one run.

    They are the real coordinate units at the indices of the qubit matrix
    units (:func:`hilbert.real_coordinates`): |q_i><q_i|,
    (|q_i><q_j| + |q_j><q_i|)/sqrt2 for i < j and
    i(|q_j><q_i| - |q_i><q_j|)/sqrt2 for i > j, and their images are real.
    Of each image the run keeps only the coordinates that are read: its 16
    on the 4x4 qubit block, which the fidelity reads and ``images``
    returns, and its five non-qubit diagonal entries, which with the
    block's diagonal give the trace that the drift gate checks at every
    sample.  The finiteness gate reads those 21 coordinates: every
    invariant block of the run holds the unit it starts from, so a NaN
    anywhere in a block reaches a kept coordinate.

    ``gamma``, a 1-D array of decay rates in rad/s, replaces
    ``params.gamma``: the units then run once for all rates, broadcast
    over them as a batch axis of the generator (:func:`_generator`), and
    ``images`` has shape (n_samples, n_rates, 4, 4, 4, 4), the rates in
    input order.  An empty array, or a rate that is negative or not
    finite, raises ``ValueError`` before any propagation.  Both gates judge
    every rate, and their message names the worst one.
    """
    rates = np.array([params.gamma]) if gamma is None else np.asarray(gamma, dtype=float)
    if not (rates.ndim == 1 and rates.size and np.all((rates >= 0.0) & (rates < math.inf))):
        raise ValueError(
            f"gamma must be a non-empty 1-D array of finite decay rates >= 0, got {gamma}"
        )
    units = [DIM * a + b for a in QUBIT_INDICES for b in QUBIT_INDICES]
    diagonals = [(DIM + 1) * a for a in range(DIM) if a not in QUBIT_INDICES]
    times, rows = _propagate(params, np.eye(DIM * DIM)[units], grid, density=True,
                             gamma=rates, columns=np.array(units + diagonals))
    shape = (len(times), len(rates), 4, 4)
    images = rows[..., :len(units)].reshape(shape + (4, 4))
    # The Lindblad increments are exactly traceless, so the image of unit
    # (i, j) keeps the unit's trace delta_ij; drift flags a broken run.  Each
    # gate takes its worst over the samples and units of every rate.
    traces = np.einsum("srijaa->srij", images) + rows[..., len(units):].sum(axis=-1).reshape(
        shape)
    drift = np.max(np.abs(traces - np.eye(4)), axis=(0, 2, 3))
    worst = int(np.argmax(np.where(np.isnan(drift), math.inf, drift)))
    if not drift[worst] <= 1e-6:
        raise IntegratorHealthError(
            f"process-basis trace drifted by {drift[worst]:.3e} (> 1e-6) at gamma = "
            f"{rates[worst]:.6g} rad/s; reduce dt"
        )
    finite = np.all(np.isfinite(rows), axis=(0, 2, 3))
    if not finite.all():
        raise IntegratorHealthError(
            f"process images became non-finite at gamma = {rates[np.argmin(finite)]:.6g} "
            "rad/s; reduce dt"
        )
    return ProcessMap(times=times, images=images if gamma is not None else images[:, 0])


def convergence_check(
    params: DriveParams,
    trajectory: Trajectory,
    grid: TimeGrid,
    observable,
) -> ConvergenceReport:
    """Compare ``observable`` of the final state at dt and at dt/2.

    ``trajectory`` is the density-matrix run on ``grid`` that the caller
    already holds (:func:`propagate_density`); only the run at dt/2, on
    ``grid.halved()`` (2m steps per period) from its first state, is
    propagated here.  ``observable`` maps a 9x9 density matrix to a float.
    The check passes when the two values agree within 1e-6.  Health gates
    are skipped on the dt/2 run: the point of the check is to measure the
    error of whatever grid it is handed, including deliberately coarse ones.
    A trajectory that does not end at ``grid.t_end`` with step ``grid.dt``
    raises ``ValueError``.
    """
    if not (trajectory.times[-1] == grid.t_end and trajectory.dt == grid.dt):
        raise ValueError("the trajectory was not propagated on the grid it is checked on")
    halved = replace(grid.halved(), sample_stride=10**9)
    final_halved = _propagate_rho(params, trajectory.states[0], halved)[1][-1]
    value, value_halved = (float(observable(rho))
                           for rho in (trajectory.final_state, final_halved))
    delta = abs(value - value_halved)
    return ConvergenceReport(
        value=value,
        value_halved=value_halved,
        delta=delta,
        passed=delta <= 1e-6,
    )
