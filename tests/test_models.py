import numpy as np
import pytest

from rabsim import hilbert, models
from rabsim.hilbert import G0, G1, RYD
from rabsim.models import (
    DriveParams,
    GateKind,
    PerturbativeRegimeWarning,
    analytic_state,
    collapse_operators,
    drive_envelope,
    effective_hamiltonian,
    gate_time,
    hamiltonian,
    pulse_end_time,
    rri_condition,
    target_unitary,
)
from conftest import OMEGA_M

I10 = hilbert.index_of(G1, G0)
I11 = hilbert.index_of(G1, G1)
IRR = hilbert.index_of(RYD, RYD)


class TestDriveParams:
    def test_rejects_nonpositive_rates(self):
        with pytest.raises(ValueError, match="omega_m"):
            DriveParams(omega_m=0.0, omega=1.0, v=1.0)
        with pytest.raises(ValueError, match="omega"):
            DriveParams(omega_m=1.0, omega=-1.0, v=1.0)
        with pytest.raises(ValueError, match="gamma"):
            DriveParams(omega_m=1.0, omega=10.0, v=1.0, gamma=-0.1)

    def test_warns_outside_perturbative_regime(self):
        with pytest.warns(PerturbativeRegimeWarning):
            DriveParams(omega_m=1.0, omega=3.0, v=6.0)

    def test_no_warning_at_operating_ratio(self, recwarn):
        DriveParams.from_ratio(OMEGA_M, 7.5)
        assert not [w for w in recwarn if issubclass(w.category, PerturbativeRegimeWarning)]

    def test_from_ratio_resolves_matched_v(self):
        p = DriveParams.from_ratio(OMEGA_M, 7.5, gate=GateKind.CNOT)
        assert p.v == rri_condition(OMEGA_M, 7.5 * OMEGA_M, GateKind.CNOT)


class TestDriveEnvelope:
    def test_peak_at_zero(self, cz_params):
        assert drive_envelope(cz_params, 0.0) == cz_params.omega_m

    def test_zero_at_quarter_period(self, cz_params):
        t = 0.5 * np.pi / cz_params.omega
        assert abs(drive_envelope(cz_params, t)) <= 1e-15 * cz_params.omega_m

    def test_minus_peak_at_half_period(self, cz_params):
        t = np.pi / cz_params.omega
        np.testing.assert_allclose(drive_envelope(cz_params, t), -cz_params.omega_m)


class TestHamiltonians:
    def test_cz_rri_term_only_when_envelope_vanishes(self, cz_params):
        t = 0.5 * np.pi / cz_params.omega
        h = hamiltonian(cz_params, t)
        expected = cz_params.v * hilbert.projector(RYD, RYD)
        assert np.max(np.abs(h - expected)) <= 1e-9 * cz_params.omega_m

    def test_cz_rr_diagonal_is_v(self, cz_params, rng):
        for t in rng.uniform(0.0, 1e-5, 5):
            assert hamiltonian(cz_params, t)[IRR, IRR] == cz_params.v

    def test_cz_drive_matrix_element(self, cz_params, rng):
        ir1 = hilbert.index_of(RYD, G1)
        for t in rng.uniform(0.0, 1e-5, 5):
            h = hamiltonian(cz_params, t)
            np.testing.assert_allclose(
                h[ir1, I11], cz_params.omega_m * np.cos(cz_params.omega * t)
            )

    def test_cnot_extra_drive_sign(self, cnot_params, rng):
        i1r = hilbert.index_of(G1, RYD)
        ir1 = hilbert.index_of(RYD, G1)
        for t in rng.uniform(0.0, 1e-5, 5):
            h = hamiltonian(cnot_params, t)
            env = cnot_params.omega_m * np.cos(cnot_params.omega * t)
            np.testing.assert_allclose(h[i1r, I10], -env)
            np.testing.assert_allclose(h[ir1, I11], +env)

    @pytest.mark.parametrize("gate", [GateKind.CZ, GateKind.CNOT])
    def test_hermitian_at_random_times(self, gate, rng):
        p = DriveParams.from_ratio(OMEGA_M, 7.5, gate=gate)
        for t in rng.uniform(0.0, 1e-5, 20):
            h = hamiltonian(p, t)
            assert np.max(np.abs(h - h.conj().T)) <= 1e-14 * np.abs(h).max()

    def test_cz_state_00_fully_decoupled(self, cz_params, rng):
        # The drive only touches |1> <-> |r|, so |00> sits in its own block.
        for t in rng.uniform(0.0, 1e-5, 5):
            h = hamiltonian(cz_params, t)
            assert np.max(np.abs(h[0, :])) == 0
            assert np.max(np.abs(h[:, 0])) == 0


    @pytest.mark.parametrize("gate", [GateKind.CZ, GateKind.CNOT])
    def test_drive_structure_is_formed_once_and_read_only(self, gate):
        x = models.drive_structure(gate)
        assert models.drive_structure(gate) is x and not x.flags.writeable
        with pytest.raises(ValueError):
            x[0, 0] = 1.0
        # A Hamiltonian built from it is a new array, free to change.
        params = DriveParams.from_ratio(OMEGA_M, 7.5, gate=gate)
        h = hamiltonian(params, 0.0)
        h[IRR, IRR] -= params.v
        assert np.array_equal(h, OMEGA_M * x)

class TestRriCondition:
    def test_cz_value_at_operating_point(self):
        v = rri_condition(OMEGA_M, 7.5 * OMEGA_M, GateKind.CZ)
        np.testing.assert_allclose(v / OMEGA_M, 14.9111, atol=5e-5)

    def test_cnot_value_at_operating_point(self):
        v = rri_condition(OMEGA_M, 7.5 * OMEGA_M, GateKind.CNOT)
        np.testing.assert_allclose(v / OMEGA_M, 14.8667, atol=5e-5)

    @pytest.mark.parametrize("gate", [GateKind.CZ, GateKind.CNOT])
    def test_weak_drive_limit(self, gate):
        omega = 10.0
        np.testing.assert_allclose(rri_condition(1e-8, omega, gate), 2.0 * omega)

    def test_strictly_below_twice_omega_and_ordering(self):
        omega = 7.5 * OMEGA_M
        v_cz = rri_condition(OMEGA_M, omega, GateKind.CZ)
        v_cnot = rri_condition(OMEGA_M, omega, GateKind.CNOT)
        assert v_cz < 2.0 * omega
        assert v_cnot < 2.0 * omega
        assert v_cz > v_cnot


class TestCollapseOperators:
    def test_zero_rate_gives_zero_operators(self):
        for op in collapse_operators(0.0):
            assert np.max(np.abs(op)) == 0

    def test_total_decay_operator(self):
        gamma = 2.0 * np.pi * 1.5e3
        ls = collapse_operators(gamma)
        total = sum(op.conj().T @ op for op in ls)
        p_r = hilbert.transition(RYD, RYD)
        expected = gamma * (np.kron(p_r, np.eye(3)) + np.kron(np.eye(3), p_r))
        np.testing.assert_allclose(total, expected, atol=1e-12 * gamma)

    def test_each_operator_has_three_entries(self):
        gamma = 4.0
        for op in collapse_operators(gamma):
            nonzero = np.abs(op[np.abs(op) > 0])
            assert len(nonzero) == 3
            np.testing.assert_allclose(nonzero, np.sqrt(gamma / 2.0))

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            collapse_operators(-1.0)


class TestTargetUnitary:
    def test_cz_signs(self):
        u = target_unitary(GateKind.CZ)
        qubit = [u[q, q] for q in hilbert.QUBIT_INDICES]
        np.testing.assert_array_equal(qubit, [1, 1, 1, -1])

    def test_cnot_swaps_10_11(self):
        u = target_unitary(GateKind.CNOT)
        np.testing.assert_allclose(u @ hilbert.ket(G1, G0), hilbert.ket(G1, G1))
        np.testing.assert_allclose(u @ hilbert.ket(G1, G1), hilbert.ket(G1, G0))

    @pytest.mark.parametrize("gate", [GateKind.CZ, GateKind.CNOT])
    def test_unitary_and_identity_on_rydberg_states(self, gate):
        u = target_unitary(gate)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(9), atol=1e-15)
        for idx in (2, 5, 6, 7, 8):
            np.testing.assert_allclose(u @ np.eye(9)[idx], np.eye(9)[idx])


class TestEffectiveHamiltonian:
    def test_cz_coupling(self, cz_params):
        he = effective_hamiltonian(cz_params)
        g = cz_params.omega_m**2 / (2.0 * cz_params.omega)
        np.testing.assert_allclose(he[I11, IRR], g)

    def test_cnot_coupling_signs(self, cnot_params):
        he = effective_hamiltonian(cnot_params)
        g = cnot_params.omega_m**2 / (2.0 * cnot_params.omega)
        np.testing.assert_allclose(he[I10, IRR], -g)
        np.testing.assert_allclose(he[I11, IRR], +g)

    @pytest.mark.parametrize("gate", [GateKind.CZ, GateKind.CNOT])
    def test_diagonal_vanishes(self, gate):
        he = effective_hamiltonian(DriveParams.from_ratio(OMEGA_M, 7.5, gate=gate))
        assert np.max(np.abs(np.diag(he))) == 0

    def test_cnot_bright_dark_structure(self, cnot_params):
        he = effective_hamiltonian(cnot_params)
        g = cnot_params.omega_m**2 / (2.0 * cnot_params.omega)
        dark = (hilbert.ket(G1, G1) + hilbert.ket(G1, G0)) / np.sqrt(2.0)
        bright = (hilbert.ket(G1, G1) - hilbert.ket(G1, G0)) / np.sqrt(2.0)
        assert np.max(np.abs(he @ dark)) <= 1e-14 * g
        np.testing.assert_allclose(
            hilbert.ket(RYD, RYD).conj() @ he @ bright, np.sqrt(2.0) * g
        )


class TestAnalyticState:
    def test_cz_initial_condition(self, cz_params):
        np.testing.assert_allclose(analytic_state(cz_params, I11, 0.0), hilbert.ket(G1, G1))

    def test_cz_full_transfer_time(self, cz_params):
        t = np.pi * cz_params.omega / cz_params.omega_m**2
        psi = analytic_state(cz_params, I11, t)
        np.testing.assert_allclose(psi, -1j * hilbert.ket(RYD, RYD), atol=1e-12)

    def test_cz_sign_flip_at_gate_time(self, cz_params):
        psi = analytic_state(cz_params, I11, gate_time(cz_params))
        np.testing.assert_allclose(psi, -hilbert.ket(G1, G1), atol=1e-12)

    def test_cz_equal_populations_at_eighth_period(self, cz_params):
        # cos^2 = sin^2 = 1/2 when the oscillation argument reaches pi/4.
        t = 0.5 * np.pi * cz_params.omega / cz_params.omega_m**2
        psi = analytic_state(cz_params, I11, t)
        np.testing.assert_allclose(abs(psi[I11]) ** 2, 0.5)
        np.testing.assert_allclose(abs(psi[IRR]) ** 2, 0.5)

    def test_cnot_swap_at_gate_time(self, cnot_params):
        t = gate_time(cnot_params)
        np.testing.assert_allclose(
            analytic_state(cnot_params, I11, t), hilbert.ket(G1, G0), atol=1e-12
        )
        np.testing.assert_allclose(
            analytic_state(cnot_params, I10, t), hilbert.ket(G1, G1), atol=1e-12
        )

    @pytest.mark.parametrize("gate,initial", [
        (GateKind.CZ, I11),
        (GateKind.CNOT, I11),
        (GateKind.CNOT, I10),
    ])
    def test_unit_norm_at_random_times(self, gate, initial, rng):
        p = DriveParams.from_ratio(OMEGA_M, 7.5, gate=gate)
        for t in rng.uniform(0.0, 4.0 * gate_time(p), 25):
            norm = np.linalg.norm(analytic_state(p, initial, t))
            assert abs(norm - 1.0) <= 1e-12

    def test_unsupported_initial_states(self, cz_params, cnot_params):
        with pytest.raises(ValueError):
            analytic_state(cz_params, I10, 0.0)
        with pytest.raises(ValueError):
            analytic_state(cnot_params, 0, 0.0)


class TestGateTime:
    def test_cz_gate_time(self, cz_params):
        np.testing.assert_allclose(gate_time(cz_params), 3.75e-6)

    def test_cnot_gate_time(self, cnot_params):
        np.testing.assert_allclose(
            gate_time(cnot_params), np.sqrt(2.0) * np.pi * cnot_params.omega / OMEGA_M**2
        )

    def test_higher_windows(self, cz_params):
        np.testing.assert_allclose(gate_time(cz_params, n=2), 3.0 * gate_time(cz_params))


class TestPulseEndTime:
    @pytest.mark.parametrize("gate", [GateKind.CZ, GateKind.CNOT])
    @pytest.mark.parametrize("n", [1, 2])
    def test_first_envelope_node_at_or_after_gate_time(self, gate, n):
        p = DriveParams.from_ratio(OMEGA_M, 7.5, gate=gate)
        t_gate, t_end = gate_time(p, n), pulse_end_time(p, n)
        assert t_gate <= t_end < t_gate + np.pi / p.omega
        nodes = p.omega * t_end / np.pi
        assert abs(nodes - round(nodes)) <= 1e-9

    # omega*T/pi is 112 at omega = sqrt(56) Omega_m (n = 1) and 216 at
    # omega = 6 Omega_m (n = 2); the latter evaluates to 216.00000000000003.
    @pytest.mark.parametrize("ratio, n", [(np.sqrt(56.0), 1), (6.0, 2)])
    def test_commensurate_gate_time_unchanged(self, ratio, n):
        p = DriveParams.from_ratio(OMEGA_M, ratio, gate=GateKind.CZ)
        np.testing.assert_allclose(pulse_end_time(p, n), gate_time(p, n), rtol=1e-12)
