"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria 2, 3 and the
absolute-fidelity clauses of 4 assert the stated bounds at the end of the gate
pulse: the first drive-envelope node at or after the gate time T
(:func:`rabsim.models.pulse_end_time`), where no driven atom is left partly
in |r>.  Criterion 4 checks the decay damage against the first-order law
drop = gamma * T / 4.  The measured values, and the fidelity maxima over the
last few envelope periods, are printed for inspection.
"""

import math
import time

import numpy as np

import conftest
from rabsim import analysis, dynamics, hilbert, models
from rabsim.analysis import average_gate_fidelity, fidelity_vs_gamma, sweep_heatmap
from rabsim.dynamics import TimeGrid
from rabsim.hilbert import G0, G1, RYD
from rabsim.models import DriveParams, GateKind
from conftest import GAMMA_15KHZ, GAMMA_2KHZ, OMEGA_M

SCENARIO_DIVISOR = 400

_cache: dict = {}


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print("\n" + line)
    conftest.ACCEPTANCE_LINES.append(line)


def _fig2b_trajectory(cz_params):
    if "fig2b" not in _cache:
        grid = TimeGrid.build(
            cz_params, models.gate_time(cz_params), dt_divisor=SCENARIO_DIVISOR
        )
        _cache["fig2b"] = dynamics.propagate_density(
            cz_params, hilbert.projector(G1, G1), grid
        )
    return _cache["fig2b"]


def test_criterion_1_antiblockade_transfer(cz_params):
    """Population transfer |11> -> |rr> at t = pi*omega/Omega_m^2, gamma = 0."""
    started = time.perf_counter()
    t_peak = np.pi * cz_params.omega / cz_params.omega_m**2
    peak_grid = TimeGrid.build(cz_params, t_peak, dt_divisor=SCENARIO_DIVISOR)
    peak = dynamics.propagate_density(
        cz_params, hilbert.projector(G1, G1), peak_grid
    ).basis_populations(8)[-1]

    traj = _fig2b_trajectory(cz_params)
    analytic = np.sin(cz_params.omega_m**2 * traj.times / (2.0 * cz_params.omega)) ** 2
    deviation = float(np.max(np.abs(traj.basis_populations(8) - analytic)))
    elapsed = time.perf_counter() - started

    ok = peak >= 0.95 and deviation <= 0.05 and elapsed <= 5.0
    _report(1, ok, f"P_rr(peak) = {peak:.4f} (>= 0.95), "
                   f"max |P_rr - sin^2| = {deviation:.4f} (<= 0.05), "
                   f"runtime {elapsed:.1f}s (<= 5s)")
    assert peak >= 0.95
    assert deviation <= 0.05
    assert elapsed <= 5.0


def _gate_fidelity_series(gate: GateKind):
    params = DriveParams.from_ratio(OMEGA_M, 7.5, gamma=GAMMA_15KHZ, gate=gate)
    grid = TimeGrid.build(params, models.pulse_end_time(params), dt_divisor=SCENARIO_DIVISOR)
    started = time.perf_counter()
    process = dynamics.propagate_process(params, grid)
    u = models.target_unitary(gate)
    report = average_gate_fidelity(process, u)
    elapsed = time.perf_counter() - started
    fbar_t = np.array([analysis._fbar_of_images(img, u) for img in process.images])
    return params, process.times, fbar_t, report, elapsed


def test_criterion_2_cz_fidelity():
    """Average CZ fidelity with gamma = 2pi*1.5 kHz at the end of the gate pulse,
    the first envelope node at or after T = 2*pi*omega/Omega_m^2."""
    params, times, fbar_t, report, elapsed = _gate_fidelity_series(GateKind.CZ)
    t_end = times[-1]
    envelope = float(np.max(fbar_t[times > t_end - 3 * 2 * np.pi / params.omega]))
    rises = report.final_fbar > fbar_t[np.argmin(np.abs(times - t_end / 4))]
    ok = abs(report.final_fbar - 0.9915) <= 0.01 and elapsed <= 60.0 and rises
    _report(2, ok, f"F(t_end) = {report.final_fbar:.4f} (target 0.9915 +- 0.01), "
                   f"envelope max near t_end = {envelope:.4f}, "
                   f"rises toward t_end = {rises}, runtime {elapsed:.1f}s (<= 60s)")
    assert elapsed <= 60.0
    assert rises
    assert abs(report.final_fbar - 0.9915) <= 0.01


def test_criterion_3_cnot_fidelity():
    """Average CNOT fidelity with gamma = 2pi*1.5 kHz at the end of the gate pulse,
    the first envelope node at or after T = sqrt(2)*pi*omega/Omega_m^2."""
    params, times, fbar_t, report, elapsed = _gate_fidelity_series(GateKind.CNOT)
    envelope = float(np.max(fbar_t[times > times[-1] - 3 * 2 * np.pi / params.omega]))
    ok = abs(report.final_fbar - 0.9935) <= 0.01 and elapsed <= 60.0
    _report(3, ok, f"F(t_end) = {report.final_fbar:.4f} (target 0.9935 +- 0.01), "
                   f"envelope max near t_end = {envelope:.4f}, runtime {elapsed:.1f}s (<= 60s)")
    assert elapsed <= 60.0
    assert abs(report.final_fbar - 0.9935) <= 0.01


def test_criterion_4_decay_robustness():
    """Final fidelity across gamma in [0, 2pi*2 kHz] for both gates.

    |rr> decays at 2*gamma, and over the gate window |11> (CZ) or the bright
    state (|11> - |10>)/sqrt(2) (CNOT) spends on average half of T in |rr>.
    Averaged over product inputs this costs gamma * T / 4 of fidelity to
    first order, and the drop at the largest rate must match that law.
    """
    started = time.perf_counter()
    gammas = np.linspace(0.0, GAMMA_2KHZ, 9)
    clauses = {}
    details = []
    for gate in (GateKind.CZ, GateKind.CNOT):
        params = DriveParams.from_ratio(OMEGA_M, 7.5, gate=gate)
        points = fidelity_vs_gamma(params, gammas, dt_divisor=SCENARIO_DIVISOR)
        fbars = np.array([f for _, f in points])
        drop = fbars[0] - fbars[-1]
        monotone = bool(np.all(np.diff(fbars) <= 1e-6))
        # Linearity of the decay damage: straight-line residual vs total drop.
        fit = np.polyval(np.polyfit(gammas, fbars, 1), gammas)
        residual = float(np.max(np.abs(fbars - fit)))
        linear = residual <= 0.1 * max(drop, 1e-12)
        expected_drop = gammas[-1] * models.gate_time(params) / 4.0
        clauses[f"{gate.value}-drop"] = abs(drop - expected_drop) <= 0.05 * expected_drop
        clauses[f"{gate.value}-floor"] = fbars[-1] >= 0.985
        clauses[f"{gate.value}-monotone"] = monotone
        clauses[f"{gate.value}-linear"] = linear
        details.append(
            f"{gate.value}: F(0) = {fbars[0]:.4f}, F(2kHz) = {fbars[-1]:.4f}, "
            f"drop = {drop:.4f} (gamma*T/4 = {expected_drop:.4f} +- 5%), "
            f"monotone = {monotone}, "
            f"linear residual = {residual:.1e}"
        )
    elapsed = time.perf_counter() - started
    clauses["runtime"] = elapsed <= 600.0
    ok = all(clauses.values())
    failing = [name for name, passed in clauses.items() if not passed]
    _report(4, ok, "; ".join(details) + f"; runtime {elapsed:.0f}s (<= 600s)"
            + (f"; failing clauses: {failing}" if failing else ""))
    assert not failing, f"failing clauses: {failing}"


def test_criterion_5_ridge_coincidence(cz_params):
    """Heatmap argmax_V P_rr tracks V = 2*omega - 2*Omega_m^2/(3*omega)."""
    started = time.perf_counter()
    grid = sweep_heatmap(cz_params, v_range=(10.0, 20.0), w_range=(5.0, 10.0),
                         resolution=60, dt_divisor=50)
    elapsed = time.perf_counter() - started
    worst = 0
    for j, w in enumerate(grid.w_axis):
        ridge_v = 2.0 * w - 2.0 / (3.0 * w)
        idx_star = int(np.argmin(np.abs(grid.v_axis - ridge_v)))
        idx_max = int(np.nanargmax(grid.p_rr[:, j]))
        worst = max(worst, abs(idx_max - idx_star))
    failed_cells = int(np.count_nonzero(~np.isfinite(grid.p_rr)))
    ok = worst <= 1 and elapsed <= 900.0 and failed_cells == 0
    _report(5, ok, f"worst argmax offset = {worst} cells (<= 1), "
                   f"failed cells = {failed_cells}, runtime {elapsed:.0f}s (<= 900s)")
    assert failed_cells == 0
    assert worst <= 1
    assert elapsed <= 900.0


def test_criterion_6_effective_hamiltonian_derivation():
    """Second-order derivation reproduces the closed-form coefficients at V = 2*omega."""
    omega = 7.5 * OMEGA_M
    params = DriveParams(omega_m=OMEGA_M, omega=omega, v=2.0 * omega)
    h_eff = models.derive_effective_hamiltonian(models.rotating_frame_harmonics(params))
    g = OMEGA_M**2 / (2.0 * omega)
    stark = 2.0 * OMEGA_M**2 / (3.0 * omega)
    coupling_err = abs(h_eff[4, 8] - g) / g
    stark_err = abs(h_eff[8, 8] - stark) / stark
    qubit_stark = max(abs(h_eff[q, q]) for q in hilbert.QUBIT_INDICES)
    bound = 1e-12 * OMEGA_M**2 / omega
    ok = coupling_err <= 1e-10 and stark_err <= 1e-10 and qubit_stark <= bound
    _report(6, ok, f"coupling rel err = {coupling_err:.1e} (<= 1e-10), "
                   f"Stark rel err = {stark_err:.1e} (<= 1e-10), "
                   f"qubit Stark = {qubit_stark:.1e} (<= {bound:.1e})")
    assert coupling_err <= 1e-10
    assert stark_err <= 1e-10
    assert qubit_stark <= bound


def test_criterion_7_oracle_suite(cz_params, cz_decay_params):
    """Independent oracles: pulse area, linearity, health, RK4 order, decay law."""
    results = {}

    # (a) single-atom pulse-area oracle.
    grid = TimeGrid.build(cz_params, models.gate_time(cz_params),
                          dt_divisor=SCENARIO_DIVISOR, max_samples=60)
    traj = dynamics.propagate_state(cz_params, hilbert.ket(G0, G1), grid)
    oracle_dev = 0.0
    for k, t in enumerate(traj.times):
        u = analysis.single_atom_oracle(cz_params, t)
        expected = np.zeros(9, dtype=complex)
        expected[1], expected[2] = u[0, 0], u[1, 0]
        oracle_dev = max(oracle_dev, float(np.max(np.abs(traj.states[k] - expected))))
    results["a-oracle"] = oracle_dev <= 1e-6

    # (b) process map against direct propagation on an 8x8 input grid.
    params = cz_decay_params
    short = TimeGrid.build(params, models.gate_time(params) / 8.0, dt_divisor=100,
                           sample_stride=10**9)
    process = dynamics.propagate_process(params, short)
    _, full_images = conftest.full_process(params, short)
    u_cz = models.target_unitary(GateKind.CZ)
    f_map = analysis._fbar_of_images(process.images[-1], u_cz)
    total = 0.0
    image_dev = 0.0
    for amps in conftest.product_amplitudes(8):
        psi = np.zeros(9, dtype=complex)
        psi[list(hilbert.QUBIT_INDICES)] = amps
        rho0 = np.outer(psi, psi.conj())
        direct = dynamics.propagate_density(params, rho0, short).final_state
        image_dev = max(image_dev, float(np.max(np.abs(
            conftest.apply_process(full_images[-1], rho0) - direct))))
        phi = u_cz @ psi
        total += float((phi.conj() @ direct @ phi).real)
    f_dev = abs(f_map - total / 64.0)
    results["b-linearity"] = f_dev <= 1e-8 and image_dev <= 1e-8

    # (c) trace and positivity health on headline-scenario trajectories.
    fig2b = _fig2b_trajectory(cz_params)
    psi = np.zeros(9, dtype=complex)
    psi[list(hilbert.QUBIT_INDICES)] = 0.5
    decay_grid = TimeGrid.build(params, models.gate_time(params),
                                dt_divisor=SCENARIO_DIVISOR)
    decay_traj = dynamics.propagate_density(params, np.outer(psi, psi.conj()), decay_grid)
    trace_drift = max(
        float(np.max(np.abs(np.einsum("sii->s", t.states) - 1.0)))
        for t in (fig2b, decay_traj)
    )
    min_eig = min(float(np.min(np.linalg.eigvalsh(t.states))) for t in (fig2b, decay_traj))
    results["c-health"] = trace_drift <= 1e-8 and min_eig >= -1e-8

    # (d) RK4 order under step halving against a dt/8 reference.
    def final_state(g):
        return conftest.rk4_run(
            conftest.schrodinger_rhs(cz_params), hilbert.ket(G1, G1), g, hermitize=False,
        )[1][-1]

    coarse = TimeGrid.build(cz_params, 1.875e-6, dt_divisor=50, sample_stride=10**9)
    reference = final_state(coarse.halved().halved().halved())
    factor = (np.linalg.norm(final_state(coarse) - reference)
              / np.linalg.norm(final_state(coarse.halved()) - reference))
    results["d-rk4-order"] = 12.0 <= factor <= 20.0

    # (e) pure-decay law with the Hamiltonian switched off.
    decay_params = DriveParams(omega_m=1e-3, omega=1.0, v=0.0, gamma=GAMMA_15KHZ)
    t_end = 1e-4
    # About 2000 steps: m even and at least the period over t_end/2000.
    m = 2 * math.ceil(np.pi / decay_params.omega / (t_end / 2000))
    decay = dynamics.propagate_density(
        decay_params, hilbert.projector(RYD, RYD), TimeGrid(t_end, decay_params.omega, m, 20),
    )
    law_dev = float(np.max(np.abs(
        decay.basis_populations(8) - np.exp(-2.0 * decay_params.gamma * decay.times)
    )))
    results["e-decay-law"] = law_dev <= 1e-6

    ok = all(results.values())
    failing = [k for k, v in results.items() if not v]
    _report(7, ok, f"oracle dev = {oracle_dev:.1e} (<= 1e-6), "
                   f"linearity dev = {f_dev:.1e}/{image_dev:.1e} (<= 1e-8), "
                   f"trace drift = {trace_drift:.1e} (<= 1e-8), "
                   f"min eig = {min_eig:.1e} (>= -1e-8), "
                   f"RK4 factor = {factor:.1f} (in [12, 20]), "
                   f"decay-law dev = {law_dev:.1e} (<= 1e-6)")
    assert not failing, f"failing clauses: {failing}"


def test_criterion_8_analytic_cnot_evolution(cnot_params):
    """Full CNOT dynamics track the three-amplitude closed form within 0.05."""
    grid = TimeGrid.build(cnot_params, models.gate_time(cnot_params),
                          dt_divisor=SCENARIO_DIVISOR)
    worst = 0.0
    for initial in (hilbert.index_of(G1, G1), hilbert.index_of(G1, G0)):
        traj = dynamics.propagate_state(
            cnot_params, hilbert.ket(*divmod(initial, 3)), grid
        )
        for k, t in enumerate(traj.times):
            reference = models.analytic_state(cnot_params, initial, t)
            for idx in (3, 4, 8):
                dev = abs(abs(traj.states[k][idx]) ** 2 - abs(reference[idx]) ** 2)
                worst = max(worst, float(dev))
    ok = worst <= 0.05
    _report(8, ok, f"max population deviation from closed form = {worst:.4f} (<= 0.05)")
    assert worst <= 0.05
