"""Hamiltonians, collapse operators and effective models for the two-atom system.

The physical setting: both atoms are driven resonantly on |1> <-> |r> with a
harmonically modulated Rabi frequency Omega(t) = Omega_m * cos(omega*t), and
the doubly excited state |rr> carries a Rydberg-Rydberg interaction (RRI)
shift V.  When V is matched to twice the modulation frequency (minus a small
Stark correction), the modulation opens a resonant second-order channel
|11> <-> |rr> -- an antiblockade -- which drives the CZ gate.  Adding a
counter-phased drive on |0>_2 <-> |r>_2 turns the same mechanism into a CNOT.

All rates and frequencies are angular (rad/s).  A value quoted as "f MHz"
in cyclic units enters as ``2*pi*f*1e6``.
"""

from __future__ import annotations

import enum
import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import hilbert
from .hilbert import G0, G1, RYD, DIM


class GateKind(enum.Enum):
    """Which drive configuration is active: single drive (CZ) or dual (CNOT)."""

    CZ = "cz"
    CNOT = "cnot"


class PerturbativeRegimeWarning(UserWarning):
    """The modulation frequency is not well above the drive amplitude."""


class DegenerateFrequencyError(ValueError):
    """A harmonic term sits at (or too close to) zero frequency."""


@dataclass(frozen=True)
class DriveParams:
    """Drive and decay parameters, all in angular units (rad/s).

    Attributes
    ----------
    omega_m : float
        Peak Rabi amplitude of the modulated drive.
    omega : float
        Modulation (oscillation) angular frequency of the Rabi envelope.
    v : float
        RRI strength, the energy shift of |rr>.
    gamma : float
        Total decay rate out of |r> per atom; each of the two branches
        |r> -> |0> and |r> -> |1> decays at gamma/2.
    gate : GateKind
        Drive configuration.
    """

    omega_m: float
    omega: float
    v: float
    gamma: float = 0.0
    gate: GateKind = GateKind.CZ

    def __post_init__(self) -> None:
        problems = []
        if not 0.0 < self.omega_m < math.inf:
            problems.append(f"omega_m must be finite and > 0, got {self.omega_m}")
        if not 0.0 < self.omega < math.inf:
            problems.append(f"omega must be finite and > 0, got {self.omega}")
        if not 0.0 <= self.v < math.inf:
            problems.append(f"v must be finite and >= 0, got {self.v}")
        if not 0.0 <= self.gamma < math.inf:
            problems.append(f"gamma must be finite and >= 0, got {self.gamma}")
        if problems:
            raise ValueError("; ".join(problems))
        if self.omega < 5.0 * self.omega_m:
            warnings.warn(
                f"omega/omega_m = {self.omega / self.omega_m:.3g} < 5; the "
                "second-order (antiblockade) description assumes omega >> omega_m/2",
                PerturbativeRegimeWarning,
                stacklevel=2,
            )

    @classmethod
    def from_ratio(
        cls,
        omega_m: float,
        omega_ratio: float,
        gamma: float = 0.0,
        gate: GateKind = GateKind.CZ,
        v: float | None = None,
    ) -> "DriveParams":
        """Build params from omega = omega_ratio * omega_m, resolving v from
        the gate's RRI matching condition when not given explicitly."""
        omega = omega_ratio * omega_m
        if v is None:
            v = rri_condition(omega_m, omega, gate)
        return cls(omega_m=omega_m, omega=omega, v=v, gamma=gamma, gate=gate)

    def with_gamma(self, gamma: float) -> "DriveParams":
        return replace(self, gamma=gamma)


@dataclass(frozen=True)
class HarmonicTerm:
    """One harmonic component of a rotated Hamiltonian.

    The term contributes ``op * exp(-1j*freq*t) + op^dagger * exp(+1j*freq*t)``.
    ``freq`` may be positive, negative or zero; zero-frequency terms are static.
    """

    op: np.ndarray
    freq: float


def drive_envelope(params: DriveParams, t) -> float | np.ndarray:
    """Instantaneous Rabi amplitude Omega_m * cos(omega * t), in rad/s."""
    return params.omega_m * np.cos(params.omega * t)


def _lowering_operator(gate: GateKind) -> np.ndarray:
    """Sum of single-atom lowering operators entering the drive.

    CZ: |1><r| on each atom.  CNOT: the same plus a counter-phased
    |0><r| on atom 2 (Rabi frequency -Omega(t)).
    """
    down = hilbert.embed_single_atom(hilbert.transition(G1, RYD), 1)
    down = down + hilbert.embed_single_atom(hilbert.transition(G1, RYD), 2)
    if gate is GateKind.CNOT:
        down = down - hilbert.embed_single_atom(hilbert.transition(G0, RYD), 2)
    return down


@functools.cache
def drive_structure(gate: GateKind) -> np.ndarray:
    """Hermitian drive operator X with H(t) = Omega(t) * X + V |rr><rr|,
    formed once per gate and read-only."""
    down = _lowering_operator(gate)
    x = down + hilbert.dagger(down)
    x.flags.writeable = False
    return x


def hamiltonian(params: DriveParams, t: float) -> np.ndarray:
    """Interaction-picture Hamiltonian Omega(t) * X + V |rr><rr| of ``params.gate``.

    X is :func:`drive_structure`: |1>_1<r| + |1>_2<r| + h.c. for CZ, minus
    the counter-phased |0>_2<r| + h.c. for CNOT.  Hermitian for all t.
    """
    h = drive_envelope(params, t) * drive_structure(params.gate)
    h[8, 8] += params.v
    return h


def rri_condition(omega_m: float, omega: float, gate: GateKind) -> float:
    """RRI strength that makes the |11> <-> |rr> channel resonant.

    The bare matching point is V = 2*omega; the drive Stark-shifts |rr> by
    2*Omega_m^2/(3*omega) (CZ) or Omega_m^2/omega (CNOT), and the returned
    value absorbs that shift so the effective coupling is purely off-diagonal.
    Squares are products, so an overflow gives inf (which DriveParams then
    rejects) instead of raising OverflowError.
    """
    if omega <= 0:
        raise ValueError(f"omega must be > 0, got {omega}")
    if gate is GateKind.CZ:
        return 2.0 * omega - 2.0 * omega_m * omega_m / (3.0 * omega)
    return 2.0 * omega - omega_m * omega_m / omega


def collapse_operators(gamma: float) -> list[np.ndarray]:
    """The four decay channels sqrt(gamma/2) |0 or 1>_j <r|, embedded 9x9."""
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    rate = math.sqrt(gamma / 2.0)
    return [
        rate * hilbert.embed_single_atom(hilbert.transition(G0, RYD), 1),
        rate * hilbert.embed_single_atom(hilbert.transition(G1, RYD), 1),
        rate * hilbert.embed_single_atom(hilbert.transition(G0, RYD), 2),
        rate * hilbert.embed_single_atom(hilbert.transition(G1, RYD), 2),
    ]


def target_unitary(gate: GateKind) -> np.ndarray:
    """Ideal gate on the qubit subspace, extended as identity on |r> states.

    CZ flips the sign of |11>; CNOT swaps |10> and |11>.  The extension to
    the five Rydberg-containing basis states is the identity: the average
    fidelity only samples qubit-subspace inputs, so any unitary extension
    gives the same value and identity is the canonical choice.
    """
    u = np.eye(DIM, dtype=complex)
    i10 = hilbert.index_of(G1, G0)
    i11 = hilbert.index_of(G1, G1)
    if gate is GateKind.CZ:
        u[i11, i11] = -1.0
    else:
        u[i10, i10] = 0.0
        u[i11, i11] = 0.0
        u[i10, i11] = 1.0
        u[i11, i10] = 1.0
    return u


def effective_hamiltonian(params: DriveParams) -> np.ndarray:
    """Closed-form second-order effective Hamiltonian at the matched RRI.

    CZ:   (Omega_m^2 / 2 omega) |11><rr| + h.c.
    CNOT: (Omega_m^2 / 2 omega) (|11> - |10>)<rr| + h.c.

    All diagonal entries vanish: the |rr> Stark shift is absorbed into the
    matched V of :func:`rri_condition`.
    """
    g = params.omega_m * params.omega_m / (2.0 * params.omega)
    h = np.zeros((DIM, DIM), dtype=complex)
    i10 = hilbert.index_of(G1, G0)
    i11 = hilbert.index_of(G1, G1)
    irr = hilbert.index_of(RYD, RYD)
    h[i11, irr] = g
    if params.gate is GateKind.CNOT:
        h[i10, irr] = -g
    return h + hilbert.dagger(h)


def gate_time(params: DriveParams, n: int = 1) -> float:
    """Duration of the n-th complete gate window.

    CZ: 2*(2n-1)*pi*omega/Omega_m^2 (|11> -> -|11>).
    CNOT: sqrt(2)*(2n-1)*pi*omega/Omega_m^2 (|10> <-> |11| swap).
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    base = (2 * n - 1) * math.pi * params.omega / (params.omega_m * params.omega_m)
    return 2.0 * base if params.gate is GateKind.CZ else math.sqrt(2.0) * base


def pulse_end_time(params: DriveParams, n: int = 1) -> float:
    """Instant at which the n-th gate pulse is switched off.

    The first node k*pi/omega of the drive envelope at or after
    :func:`gate_time`.  There the accumulated single-atom pulse area
    theta(t) = (Omega_m/omega) sin(omega t) is zero, so no driven atom is
    left partly in |r>; at :func:`gate_time` itself theta can sit at its
    maximum Omega_m/omega.  A gate time already on a node (omega*T/pi an
    integer to a relative 1e-9) ends on that node, not on the next one.
    """
    t_gate = gate_time(params, n)
    node = math.pi / params.omega
    k = math.ceil(t_gate / node * (1.0 - 1e-9))
    return max(t_gate, k * node)


def analytic_state(params: DriveParams, initial: int, t: float) -> np.ndarray:
    """State at time t under the effective (matched-RRI) dynamics.

    CZ from |11>:  cos(g t)|11> - i sin(g t)|rr> with g = Omega_m^2/(2 omega).
    CNOT from |11> or |10>, with theta = Omega_m^2 t / (2 sqrt(2) omega):

        |11> -> cos^2(theta)|11> - (i/sqrt(2)) sin(2 theta)|rr> + sin^2(theta)|10>
        |10> -> cos^2(theta)|10> + (i/sqrt(2)) sin(2 theta)|rr> + sin^2(theta)|11>

    ``initial`` is the linear basis index (|11> = 4, |10> = 3).
    """
    i10 = hilbert.index_of(G1, G0)
    i11 = hilbert.index_of(G1, G1)
    irr = hilbert.index_of(RYD, RYD)
    psi = np.zeros(DIM, dtype=complex)
    if params.gate is GateKind.CZ:
        if initial != i11:
            raise ValueError("CZ analytic evolution is defined for initial |11> only")
        arg = params.omega_m * params.omega_m * t / (2.0 * params.omega)
        psi[i11] = math.cos(arg)
        psi[irr] = -1j * math.sin(arg)
        return psi
    if initial not in (i10, i11):
        raise ValueError("CNOT analytic evolution is defined for initial |10> or |11>")
    theta = params.omega_m * params.omega_m * t / (2.0 * math.sqrt(2.0) * params.omega)
    stay, swap = (i11, i10) if initial == i11 else (i10, i11)
    rr_sign = -1.0 if initial == i11 else +1.0
    psi[stay] = math.cos(theta) ** 2
    psi[swap] = math.sin(theta) ** 2
    psi[irr] = rr_sign * 1j / math.sqrt(2.0) * math.sin(2.0 * theta)
    return psi


def rotating_frame_harmonics(params: DriveParams) -> list[HarmonicTerm]:
    """Harmonic decomposition of the drive in the frame rotating with the RRI.

    Rotating with exp(i V t |rr><rr|) puts the phase exp(-i V t) on every
    drive matrix element whose source column is |rr>.  Splitting the lowering
    operator D into its |rr> column D_V and the rest D_0, the cosine envelope
    (Omega_m/2)(e^{i omega t} + e^{-i omega t}) yields four terms:

        (Omega_m/2 * D_0,        omega)
        (Omega_m/2 * D_0^dag,    omega)
        (Omega_m/2 * D_V,        V + omega)
        (Omega_m/2 * D_V,        V - omega)

    Summing ``op * e^{-i freq t} + h.c.`` over the list reconstructs the
    rotated Hamiltonian exactly at every t.  Each (matrix element, signed
    frequency) combination appears in exactly one term.
    """
    if params.omega_m == 0.0:
        return []
    down = _lowering_operator(params.gate)
    p_rr = hilbert.projector(RYD, RYD)
    down_v = down @ p_rr
    down_0 = down - down_v
    half = params.omega_m / 2.0
    return [
        HarmonicTerm(half * down_0, params.omega),
        HarmonicTerm(half * hilbert.dagger(down_0), params.omega),
        HarmonicTerm(half * down_v, params.v + params.omega),
        HarmonicTerm(half * down_v, params.v - params.omega),
    ]


#: Relative tolerance of :func:`derive_effective_hamiltonian`: two
#: frequencies within it are resonant, and one within it of zero is static.
RESONANCE_RTOL = 1e-9


def derive_effective_hamiltonian(terms: list[HarmonicTerm]) -> np.ndarray:
    """Second-order time-averaged Hamiltonian of a list of harmonic terms.

    Keeps the static part of the second-order expansion: every resonant pair
    (freq_m == freq_n within :data:`RESONANCE_RTOL` relatively) contributes

        (1/2) (1/freq_m + 1/freq_n) * [op_m^dagger, op_n]

    Terms with negative frequency are first normalized to (op^dagger, -freq),
    which leaves their time dependence unchanged, so the result does not
    depend on the caller's sign convention.  A frequency within
    :data:`RESONANCE_RTOL` of zero (relative to the largest magnitude
    present) raises :class:`DegenerateFrequencyError`: static terms must be
    split off before calling.
    """
    h_eff = np.zeros((DIM, DIM), dtype=complex)
    if not terms:
        return h_eff
    ops: list[np.ndarray] = []
    freqs: list[float] = []
    for term in terms:
        op = np.asarray(term.op, dtype=complex)
        freq = float(term.freq)
        if freq < 0.0:
            op, freq = hilbert.dagger(op), -freq
        ops.append(op)
        freqs.append(freq)
    freq_scale = max(freqs)
    cutoff = RESONANCE_RTOL * freq_scale
    low = [f for f in freqs if f <= cutoff]
    if low:
        raise DegenerateFrequencyError(
            f"harmonic frequency {low[0]:.3e} is within {RESONANCE_RTOL:g} of zero "
            f"(scale {freq_scale:.3e}); split static terms off before deriving"
        )
    for op_m, freq_m in zip(ops, freqs):
        for op_n, freq_n in zip(ops, freqs):
            if abs(freq_m - freq_n) <= RESONANCE_RTOL * max(freq_m, freq_n):
                weight = 0.5 * (1.0 / freq_m + 1.0 / freq_n)
                h_eff += weight * hilbert.commutator(hilbert.dagger(op_m), op_n)
    return h_eff
