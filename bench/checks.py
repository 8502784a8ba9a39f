"""Correctness checks on the scenario outputs, made apart from rabsim.

Every reference value here is computed from the operating point alone:
closed forms (the identity-against-CZ fidelity, the envelope nodes, the
first-order decay law, the effective two-level oscillation) or an
independent propagation of the exact three-level reduction of the heatmap
dynamics.  Nothing is compared against a stored copy of earlier output.

Each check returns a :class:`Verdict`: the number of operations the round
attempted (one scenario invocation plus one per fidelity sample, gamma
point or heatmap cell) and the set of those that failed, with a message
for each failure.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Operating point shared by every workload, in angular units (rad/s).
OMEGA_M = 2.0 * math.pi * 2.0e6
OMEGA = 7.5 * OMEGA_M
GAMMA_CZ = 2.0 * math.pi * 1.5e3
GAMMA_SWEEP_MAX = 2.0 * math.pi * 2.0e3
GAMMA_POINTS = 9
T_CZ = 2.0 * math.pi * OMEGA / OMEGA_M**2
T_CNOT = math.sqrt(2.0) * math.pi * OMEGA / OMEGA_M**2

#: Operation key of the scenario invocation itself.
SCENARIO = "scenario"


@dataclass
class Verdict:
    """Outcome of checking one round: attempted operations and failures."""

    attempted: int
    failed: set = field(default_factory=set)
    messages: list = field(default_factory=list)

    def fail(self, op, message: str) -> None:
        self.failed.add(op)
        self.messages.append(message)


def read_table(path) -> np.ndarray:
    """Float rows of a scenario CSV, without its header."""
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        width = len(next(reader))
        rows = [[float(x) for x in row] for row in reader if row]
    return np.array(rows, dtype=float).reshape(len(rows), width)


def read_sidecar(csv_path) -> dict:
    return json.loads(Path(csv_path).with_suffix(".json").read_text())


def decay_law(gamma: float, t_gate: float) -> float:
    """First-order average fidelity under decay: 1 - gamma*T/4.

    |rr> decays at 2*gamma and the gate's bright state spends half of T in
    |rr>; averaging its weight (1/4 over product inputs) gives gamma*T/4.
    """
    return 1.0 - gamma * t_gate / 4.0


def check_gate_cz(table: np.ndarray, sidecar: dict) -> Verdict:
    """Time-resolved CZ fidelity from t = 0 to the pulse end."""
    t = table[:, 0] * 1e-6
    fbar = table[:, 1]
    verdict = Verdict(attempted=1 + len(fbar))
    if len(fbar) < 2:
        verdict.fail(SCENARIO, f"only {len(fbar)} fidelity samples")
        return verdict
    if t[0] != 0.0 or abs(fbar[0] - 9.0 / 16.0) > 1e-9:
        # 9/16: the identity against CZ averaged over real product states,
        # E[(1 - 2 sin^2 a sin^2 b)^2] with E[sin^2] = 1/2, E[sin^4] = 3/8.
        verdict.fail(("sample", 0), f"first row t={t[0]}, F={fbar[0]!r}, expected 0 and 9/16")
    for s in np.flatnonzero(~((fbar >= 0.0) & (fbar <= 1.0 + 1e-6))):
        verdict.fail(("sample", int(s)), f"F = {fbar[s]!r} outside [0, 1] at sample {s}")
    if not np.all(np.diff(t) > 0):
        verdict.fail(SCENARIO, "sample times are not strictly increasing")
    t_end, f_end = t[-1], fbar[-1]
    node_phase = math.sin(OMEGA * t_end)
    if not (abs(node_phase) < 1e-6 and T_CZ * (1 - 1e-12) <= t_end < T_CZ + math.pi / OMEGA):
        verdict.fail(SCENARIO, f"t_end = {t_end!r} s is not the first envelope node at or "
                               f"after T = {T_CZ!r} s (sin(omega t_end) = {node_phase:.2e})")
    law = decay_law(GAMMA_CZ, T_CZ)
    if not (abs(f_end - law) <= 1e-3 and abs(f_end - 0.9915) <= 0.01):
        verdict.fail(("sample", len(fbar) - 1),
                     f"final F = {f_end!r}: decay law 1 - gamma T/4 = {law:.6f} (+- 1e-3), "
                     "paper 0.9915 +- 0.01")
    if abs(sidecar.get("final_fbar", math.nan) - f_end) > 1e-9:
        verdict.fail(SCENARIO, "sidecar final_fbar disagrees with the last CSV row")
    return verdict


def check_gamma_sweep_cnot(table: np.ndarray) -> Verdict:
    """Final CNOT fidelity at GAMMA_POINTS decay rates from 0 to the maximum."""
    verdict = Verdict(attempted=1 + GAMMA_POINTS)
    expected_khz = np.linspace(0.0, GAMMA_SWEEP_MAX / (2e3 * math.pi), GAMMA_POINTS)
    if table.shape != (GAMMA_POINTS, 2) or np.max(np.abs(table[:, 0] - expected_khz)) > 1e-9:
        verdict.fail(SCENARIO, f"expected the gamma column {expected_khz.tolist()}")
        return verdict
    gammas = 2.0 * math.pi * 1e3 * table[:, 0]
    fbar = table[:, 1]
    if not fbar[0] >= 0.999:
        verdict.fail(("point", 0), f"F(0) = {fbar[0]!r} < 0.999")
    for k in range(1, GAMMA_POINTS):
        if not fbar[k] <= fbar[k - 1]:
            verdict.fail(("point", k), f"F rises with gamma at point {k}: "
                                       f"{fbar[k - 1]!r} -> {fbar[k]!r}")
    for k, (gamma, f) in enumerate(zip(gammas, fbar)):
        law = decay_law(gamma, T_CNOT)
        if not abs(f - law) <= 1e-3:
            verdict.fail(("point", k), f"F({table[k, 0]} kHz) = {f!r}, law {law:.6f} +- 1e-3")
    drop, expected = fbar[0] - fbar[-1], GAMMA_SWEEP_MAX * T_CNOT / 4.0
    if not abs(drop - expected) <= 0.05 * expected:
        verdict.fail(SCENARIO, f"drop F(0) - F(max) = {drop!r}, expected "
                               f"gamma_max T/4 = {expected:.6f} +- 5%")
    return verdict


def three_level_p_rr(v: np.ndarray, omega: np.ndarray, t_end: np.ndarray,
                     steps_per_period: int = 64) -> np.ndarray:
    """|rr> population of the exact three-level reduction, batched over cells.

    From |11> the decay-free dynamics stay in {|11>, (|1r>+|r1>)/sqrt2,
    |rr>}, a ladder with coupling sqrt2 Omega_m cos(omega t) on both links
    and energy V on |rr>.  Propagated with the fourth-order commutator-free
    Magnus scheme (two exponentials per step, each by eigendecomposition):
    a different model and a different integrator from rabsim's 9-level RK4.
    ``v``, ``omega`` and ``t_end`` are per cell, in rad/s and s.
    """
    v, omega, t_end = (np.asarray(x, dtype=float) for x in (v, omega, t_end))
    fastest = np.maximum(v, 2.0 * omega)
    n_steps = int(np.max(np.ceil(t_end * fastest / (2.0 * math.pi) * steps_per_period)))
    dt = t_end / n_steps
    root3 = math.sqrt(3.0)
    c1, c2 = 0.5 - root3 / 6.0, 0.5 + root3 / 6.0
    a1, a2 = (3.0 - 2.0 * root3) / 12.0, (3.0 + 2.0 * root3) / 12.0
    cells = len(v)
    ladder = np.zeros((3, 3))
    ladder[0, 1] = ladder[1, 0] = ladder[1, 2] = ladder[2, 1] = math.sqrt(2.0) * OMEGA_M
    diag = np.zeros((cells, 3, 3))
    diag[:, 2, 2] = v

    def exp_step(weight_a, weight_b, t):
        # exp(-i dt (weight_a H(t + c1 dt) + weight_b H(t + c2 dt)))
        envelope = weight_a * np.cos(omega * (t + c1 * dt)) + weight_b * np.cos(omega * (t + c2 * dt))
        h = envelope[:, None, None] * ladder + (weight_a + weight_b) * diag
        energies, vectors = np.linalg.eigh(h)
        phases = np.exp(-1j * dt[:, None] * energies)
        return np.einsum("cij,cj,ckj->cik", vectors, phases, vectors)

    psi = np.zeros((cells, 3), dtype=complex)
    psi[:, 0] = 1.0
    for step in range(n_steps):
        t = step * dt
        psi = np.einsum("cij,cj->ci", exp_step(a2, a1, t), psi)
        psi = np.einsum("cij,cj->ci", exp_step(a1, a2, t), psi)
    return np.abs(psi[:, 2]) ** 2


def heatmap_axes(extent: dict) -> tuple[np.ndarray, np.ndarray]:
    n = extent["resolution"]
    return (np.linspace(extent["v_min"], extent["v_max"], n),
            np.linspace(extent["w_min"], extent["w_max"], n))


def heatmap_oracle(extent: dict, cells) -> np.ndarray:
    """Independent |rr> populations at t = pi omega / Omega_m^2 for (i, j) cells."""
    v_axis, w_axis = heatmap_axes(extent)
    v = np.array([v_axis[i] for i, _ in cells]) * OMEGA_M
    w = np.array([w_axis[j] for _, j in cells]) * OMEGA_M
    return three_level_p_rr(v, w, math.pi * w / OMEGA_M**2)


def check_heatmap(table: np.ndarray, extent: dict, cells, oracle: np.ndarray) -> Verdict:
    """|rr> population over the (V, omega) plane, long-form rows (V, omega, P)."""
    n = extent["resolution"]
    verdict = Verdict(attempted=1 + n * n)
    v_axis, w_axis = heatmap_axes(extent)
    if table.shape != (n * n, 3):
        verdict.fail(SCENARIO, f"expected {n * n} rows of (V, omega, P), got {table.shape}")
        return verdict
    if (np.max(np.abs(table[:, 0] - np.repeat(v_axis, n))) > 1e-9
            or np.max(np.abs(table[:, 1] - np.tile(w_axis, n))) > 1e-9):
        verdict.fail(SCENARIO, "cell coordinates are not the requested V and omega axes")
        return verdict
    p_rr = table[:, 2].reshape(n, n)
    for i, j in zip(*np.nonzero(~((p_rr >= 0.0) & (p_rr <= 1.0)))):
        verdict.fail(("cell", int(i), int(j)), f"P_rr = {p_rr[i, j]!r} at cell ({i}, {j})")
    dv = v_axis[1] - v_axis[0]
    for j, w in enumerate(w_axis):
        column = np.where(np.isnan(p_rr[:, j]), -np.inf, p_rr[:, j])
        i = int(np.argmax(column))
        ridge = 2.0 * w - 2.0 / (3.0 * w)
        if not abs(v_axis[i] - ridge) <= dv * (1 + 1e-9):
            verdict.fail(("cell", i, j), f"column omega = {w:.4f}: argmax V = {v_axis[i]:.4f} "
                                         f"is over one cell from the ridge V = {ridge:.4f}")
    for (i, j), expected in zip(cells, oracle):
        if not abs(p_rr[i, j] - expected) <= 1e-4:
            verdict.fail(("cell", i, j), f"cell ({i}, {j}): P_rr = {p_rr[i, j]!r}, "
                                         f"three-level reduction {expected!r} (+- 1e-4)")
    return verdict


def check_populations(table: np.ndarray) -> Verdict:
    """|11>/|rr> populations over one gate window from |11>, gamma = 0."""
    verdict = Verdict(attempted=1)
    if table.ndim != 2 or table.shape[0] < 2 or table.shape[1] != 3:
        verdict.fail(SCENARIO, f"expected rows of (t, P_11, P_rr), got {table.shape}")
        return verdict
    t = table[:, 0] * 1e-6
    p_rr = table[:, 2]
    # Effective two-level oscillation |11> <-> |rr> at g = Omega_m^2 / (2 omega).
    effective = np.sin(OMEGA_M**2 * t / (2.0 * OMEGA)) ** 2
    deviation = float(np.max(np.abs(p_rr - effective)))
    if not deviation <= 0.05:
        verdict.fail(SCENARIO, f"max |P_rr - sin^2(Omega_m^2 t / 2 omega)| = {deviation!r} > 0.05")
    if not np.max(p_rr) >= 0.95:
        verdict.fail(SCENARIO, f"peak P_rr = {np.max(p_rr)!r} < 0.95")
    if not abs(t[-1] - T_CZ) <= 1e-12 * T_CZ:
        verdict.fail(SCENARIO, f"window ends at {t[-1]!r} s, expected T = {T_CZ!r} s")
    return verdict
