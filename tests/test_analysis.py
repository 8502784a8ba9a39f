import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rabsim import analysis, dynamics, hilbert, models
from rabsim.analysis import (
    average_gate_fidelity,
    fidelity_time_series,
    fidelity_vs_gamma,
    population,
    single_atom_oracle,
    sweep_heatmap,
)
from rabsim.dynamics import ProcessMap, TimeGrid
from rabsim.hilbert import G0, G1, RYD
from rabsim.models import DriveParams, GateKind
from conftest import (
    GAMMA_15KHZ, OMEGA_M, QUBIT_UNITS, coordinates_of, hermitian_basis, product_amplitudes,
    qubit_coordinates, rk4_run, unit_images,
)


def stub_process(images_final, t_end=1.0):
    """ProcessMap with prescribed final images (for fidelity-only tests)."""
    return ProcessMap(times=np.array([t_end]), images=images_final[np.newaxis])


def conjugation_images(u):
    """Real coordinates of the qubit blocks of the images of the Hermitian
    qubit basis matrices under rho -> u rho u^dagger, as in
    ``ProcessMap.images``."""
    basis = hermitian_basis(9)[QUBIT_UNITS]
    return qubit_coordinates(coordinates_of(u @ basis @ u.conj().T))


class TestPopulation:
    def test_projector(self):
        assert population(hilbert.projector(G1, G1), hilbert.ket(G1, G1)) == 1.0

    def test_maximally_mixed(self):
        for m in range(3):
            for n in range(3):
                np.testing.assert_allclose(
                    population(np.eye(9) / 9.0, hilbert.ket(m, n)), 1.0 / 9.0
                )

    def test_equal_split_of_analytic_state(self, cz_params):
        # Oscillation argument (Omega_m^2/2 omega) t reaches pi/4 here.
        t = 0.5 * np.pi * cz_params.omega / cz_params.omega_m**2
        psi = models.analytic_state(cz_params, 4, t)
        rho = np.outer(psi, psi.conj())
        np.testing.assert_allclose(population(rho, hilbert.ket(G1, G1)), 0.5)
        np.testing.assert_allclose(population(rho, hilbert.ket(RYD, RYD)), 0.5)

    @pytest.mark.parametrize("scale", [2.0, np.nan])
    def test_rejects_unnormalized_probe(self, scale):
        with pytest.raises(ValueError, match="norm"):
            population(np.eye(9) / 9.0, scale * hilbert.ket(G0, G0))

    def test_rejects_large_imaginary_part(self):
        rho = np.zeros((9, 9), dtype=complex)
        rho[4, 4] = 1.0 + 1e-6j
        with pytest.raises(ValueError, match="imaginary"):
            population(rho, hilbert.ket(G1, G1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_rho(self, bad):
        rho = hilbert.projector(G1, G1)
        rho[0, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            population(rho, hilbert.ket(G1, G1))


class TestSingleAtomOracle:
    def test_identity_at_envelope_nodes(self, cz_params):
        for k in range(1, 4):
            u = single_atom_oracle(cz_params, k * np.pi / cz_params.omega)
            np.testing.assert_allclose(u, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("ratio", [7.5, np.sqrt(56.0)])
    @pytest.mark.parametrize("n", [1, 2])
    def test_identity_at_pulse_end(self, ratio, n):
        p = DriveParams.from_ratio(OMEGA_M, ratio, gate=GateKind.CZ)
        u = single_atom_oracle(p, models.pulse_end_time(p, n))
        np.testing.assert_allclose(u, np.eye(2), atol=1e-12)

    def test_peak_leakage_value(self, cz_params):
        t = 0.5 * np.pi / cz_params.omega
        u = single_atom_oracle(cz_params, t)
        leak = abs(u[1, 0]) ** 2
        np.testing.assert_allclose(leak, np.sin(1.0 / 7.5) ** 2, rtol=1e-12)
        np.testing.assert_allclose(leak, 0.01767, atol=5e-6)

    def test_unitary(self, cz_params, rng):
        for t in rng.uniform(0.0, 1e-5, 20):
            u = single_atom_oracle(cz_params, t)
            np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-14)

    def test_cnot_unsupported(self, cnot_params):
        with pytest.raises(ValueError):
            single_atom_oracle(cnot_params, 0.0)


class TestAverageGateFidelity:
    def test_perfect_gate_scores_unity(self):
        u = models.target_unitary(GateKind.CZ)
        process = stub_process(conjugation_images(u))
        report = average_gate_fidelity(process, u)
        np.testing.assert_allclose(report.final_fbar, 1.0, atol=1e-12)

    @pytest.mark.parametrize("gate", [GateKind.CZ, GateKind.CNOT])
    def test_identity_process_against_gate(self, gate):
        process = stub_process(conjugation_images(np.eye(9, dtype=complex)))
        report = average_gate_fidelity(process, models.target_unitary(gate))
        # CZ: (1 - 2 sin^2 a sin^2 b)^2 averages to 9/16 over the torus; CNOT
        # gives the same, |<Psi|CNOT|Psi>|^2 = (1 - sin^2 a (1 - sin 2b))^2.
        assert abs(report.final_fbar - 9.0 / 16.0) <= 1e-15


def fbar_full_block(images, u, grid_n):
    """The midpoint rule on whole 9x9 images: the reference for the qubit block."""
    amps = product_amplitudes(grid_n)
    phi = amps.astype(complex) @ u[:, list(hilbert.QUBIT_INDICES)].T
    rho_t = np.einsum("pi,pj,ijab->pab", amps, amps, images)
    return np.einsum("pa,pab,pb->p", phi.conj(), rho_t, phi).real.mean()


class TestQubitBlockContraction:
    @pytest.mark.parametrize("gate", [GateKind.CZ, GateKind.CNOT])
    @pytest.mark.parametrize("grid_n", [8, 16])
    @pytest.mark.parametrize("complex_target", [False, True])
    def test_matches_full_images(self, rng, gate, grid_n, complex_target):
        u = models.target_unitary(gate)
        if complex_target:  # still maps the qubit subspace into itself
            u = u * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 9))
        # Random real images of the Hermitian basis matrices: any
        # Hermiticity-preserving map, the class a Lindblad process map is in.
        rows = rng.standard_normal((5, 16, 81))
        stacked = analysis._fbar_of_images(qubit_coordinates(rows), u)
        assert stacked.shape == (5,)
        for row, value in zip(rows, stacked):
            assert abs(value - fbar_full_block(unit_images(row), u, grid_n)) <= 1e-12
            assert abs(analysis._fbar_of_images(qubit_coordinates(row), u) - value) <= 1e-12

    def test_rejects_target_leaving_the_qubit_subspace(self):
        u = np.eye(9, dtype=complex)
        u[:, [4, 8]] = u[:, [8, 4]]  # sends |11> to |rr>
        with pytest.raises(ValueError, match="qubit subspace"):
            analysis._fbar_of_images(conjugation_images(np.eye(9, dtype=complex)), u)


@pytest.mark.parametrize("grid_n, exact", [(4, False), (5, True), (8, True), (16, True), (32, True)])
def test_moments_match_the_midpoint_rule(grid_n, exact):
    amps = product_amplitudes(grid_n)
    midpoint = np.einsum("pi,pj,pk,pl->ijkl", amps, amps, amps, amps) / len(amps)
    deviation = np.max(np.abs(analysis._MOMENTS - midpoint))
    # 4 points per axis alias the cos 4a term of the integrand.
    assert bool(deviation <= 1e-15) == exact


def test_importing_rabsim_leaves_the_process_pool_unloaded():
    src = Path(analysis.__file__).resolve().parents[1]
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(src) + (os.pathsep + path if path else ""))
    probe = "import sys, rabsim; print('concurrent.futures.process' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


@pytest.fixture(scope="module")
def short_series(cz_decay_params):
    grid = TimeGrid.build(
        cz_decay_params, models.gate_time(cz_decay_params) / 16.0,
        dt_divisor=100, sample_stride=15,
    )
    return grid, fidelity_time_series(cz_decay_params, grid)


@pytest.fixture(scope="module")
def gamma_sweep():
    # Smaller omega/Omega_m ratio keeps the gate window short for a
    # unit-level check; the operating-point sweep runs in acceptance.
    params = DriveParams.from_ratio(OMEGA_M, 5.0, gate=GateKind.CNOT)
    gammas = [0.0, 2 * np.pi * 1e3, 2 * np.pi * 2e3]
    return gammas, fidelity_vs_gamma(params, gammas, dt_divisor=100)


class TestFidelityTimeSeries:
    def test_initial_value_matches_identity_process(self, short_series):
        _, report = short_series
        process = stub_process(conjugation_images(np.eye(9, dtype=complex)))
        at_zero = average_gate_fidelity(process, models.target_unitary(GateKind.CZ))
        np.testing.assert_allclose(report.fbar[0], at_zero.final_fbar, atol=1e-12)

    def test_final_value_matches_single_time_evaluation(self, short_series, cz_decay_params):
        grid, report = short_series
        process = dynamics.propagate_process(cz_decay_params, grid)
        single = average_gate_fidelity(process, models.target_unitary(GateKind.CZ))
        assert abs(report.final_fbar - single.final_fbar) <= 1e-12

    def test_values_stay_in_unit_interval(self, short_series):
        _, report = short_series
        assert np.all(report.fbar >= 0.0)
        assert np.all(report.fbar <= 1.0 + 1e-9)


class TestSweepHeatmap:
    def test_operating_cell_reaches_antiblockade(self, cz_params):
        # 3x3 sweep whose center cell is the matched operating point.
        v_star = cz_params.v / OMEGA_M
        grid = sweep_heatmap(
            cz_params,
            v_range=(v_star - 0.5, v_star + 0.5),
            w_range=(7.0, 8.0),
            resolution=3,
            dt_divisor=100,
        )
        assert grid.p_rr[1, 1] >= 0.95
        assert grid.p_rr.shape == (3, 3)
        assert np.all(grid.p_rr <= 1.0 + 1e-9)

    def test_rejects_decay(self, cz_decay_params):
        with pytest.raises(ValueError, match="gamma"):
            sweep_heatmap(cz_decay_params)

    def test_rejects_bad_ranges(self, cz_params):
        with pytest.raises(ValueError):
            sweep_heatmap(cz_params, v_range=(-1.0, 2.0))
        with pytest.raises(ValueError):
            sweep_heatmap(cz_params, resolution=1)

    @pytest.mark.parametrize("dt_divisor", [49, np.nan, np.inf])
    def test_names_a_bad_dt_divisor(self, cz_params, dt_divisor):
        with pytest.raises(ValueError, match="dt_divisor"):
            sweep_heatmap(cz_params, resolution=2, dt_divisor=dt_divisor)

    @pytest.mark.parametrize("resolution", [2.5, np.nan, 1])
    def test_names_a_bad_resolution(self, cz_params, resolution):
        with pytest.raises(ValueError, match="resolution"):
            sweep_heatmap(cz_params, resolution=resolution)

    @staticmethod
    def _sweep_with_final_state(cz_params, monkeypatch, perturb):
        """3x3 CZ sweep in which ``perturb`` edits, in place, the final
        states (omega, 9) of the middle cell (V = 14.5) of every column in
        the batched output."""
        run = dynamics._stroboscopic_run

        def perturbed(*args, **kwargs):
            times, states = run(*args, **kwargs)
            perturb(states[-1, :, 1, 0])
            return times, states

        monkeypatch.setattr(dynamics, "_stroboscopic_run", perturbed)
        return sweep_heatmap(cz_params, v_range=(14.0, 15.0), w_range=(7.0, 8.0),
                             resolution=3, dt_divisor=400)

    def test_nan_cell_trips_its_gates(self, cz_params, monkeypatch):
        def one_nan(psi):  # one amplitude only, and not the |rr> one
            psi[:, hilbert.index_of(G1, RYD)] = np.nan

        grid = self._sweep_with_final_state(cz_params, monkeypatch, one_nan)
        assert np.all(np.isnan(grid.p_rr[1]))
        assert np.all(np.isfinite(grid.p_rr[[0, 2]]))

    def test_norm_gain_trips_the_gate(self, cz_params, monkeypatch):
        def gain(psi):
            psi *= 1.0 + 1e-5

        grid = self._sweep_with_final_state(cz_params, monkeypatch, gain)
        assert np.all(np.isnan(grid.p_rr[1]))
        assert np.all(np.isfinite(grid.p_rr[[0, 2]]))

    def test_norm_loss_passes_and_is_reported(self, cz_params, monkeypatch):
        plain = sweep_heatmap(cz_params, v_range=(14.0, 15.0), w_range=(7.0, 8.0),
                              resolution=3, dt_divisor=400)
        assert 0.0 <= plain.max_norm_loss <= 1e-8

        def loss(psi):
            psi *= 1.0 - 1e-5

        grid = self._sweep_with_final_state(cz_params, monkeypatch, loss)
        np.testing.assert_allclose(grid.p_rr[1], plain.p_rr[1] * (1.0 - 1e-5) ** 2, rtol=1e-12)
        assert np.array_equal(grid.p_rr[[0, 2]], plain.p_rr[[0, 2]])
        assert grid.max_norm_loss == pytest.approx(1.0 - (1.0 - 1e-5) ** 2, rel=1e-3)

    # RK4 truncation only loses norm, by more than the gain threshold on
    # these grids (up to 1.1e-4 of <psi|psi> at divisor 50), and must fail no
    # cell: the default extent at the smallest divisor, and the extent and
    # divisor of the benchmark's heatmap.
    @pytest.mark.parametrize("gate", list(GateKind))
    @pytest.mark.parametrize("resolution, dt_divisor", [(60, 50), (10, 100)])
    def test_truncation_loss_fails_no_cell(self, gate, resolution, dt_divisor):
        params = DriveParams.from_ratio(OMEGA_M, 7.5, gate=gate)
        grid = sweep_heatmap(params, v_range=(10.0, 20.0), w_range=(5.0, 10.0),
                             resolution=resolution, dt_divisor=dt_divisor)
        assert not np.any(np.isnan(grid.p_rr))
        assert grid.max_norm_loss > analysis.NORM_GAIN_TOL

    @pytest.mark.parametrize("gate", list(GateKind))
    def test_cells_match_density_runs(self, gate):
        params = DriveParams.from_ratio(OMEGA_M, 7.5, gate=gate)
        grid = sweep_heatmap(params, v_range=(14.0, 16.0), w_range=(7.0, 8.0),
                             resolution=3, dt_divisor=400)
        # One group on m = 2 x divisor steps per drive period.
        assert grid.lattices == ((800, 3),)
        for j, w in enumerate(grid.w_axis):
            omega = w * OMEGA_M
            # Each cell on its group's lattice, in the time of its own drive.
            column_grid = TimeGrid(np.pi * omega / OMEGA_M**2, omega, 800, 10**9)
            for i, v in enumerate(grid.v_axis):
                cell = DriveParams(omega_m=OMEGA_M, omega=omega, v=v * OMEGA_M, gate=gate)
                rho = dynamics.propagate_density(cell, hilbert.projector(G1, G1),
                                                 column_grid).final_state
                assert abs(grid.p_rr[i, j] - rho[8, 8].real) <= 1e-8

    # The default extent on one lattice, its 20 columns in two or three
    # kernel slices (CZ, CNOT), and an extent that the V ceiling splits
    # into two groups: the column of omega = 5 Omega_m, where V up to
    # 12 Omega_m needs 120 steps per period, and the five others on 100.
    @pytest.mark.parametrize("gate", list(GateKind))
    @pytest.mark.parametrize("v_range, resolution, dt_divisor, lattices", [
        ((10.0, 20.0), 20, 400, ((800, 20),)),
        ((10.0, 12.0), 6, 50, ((120, 1), (100, 5))),
    ], ids=["one-group", "two-groups"])
    def test_cells_match_per_column_runs(self, gate, v_range, resolution, dt_divisor,
                                         lattices):
        params = DriveParams.from_ratio(OMEGA_M, 7.5, gate=gate)
        grid = sweep_heatmap(params, v_range=v_range, w_range=(5.0, 10.0),
                             resolution=resolution, dt_divisor=dt_divisor)
        assert grid.lattices == lattices
        m_of = np.repeat([m for m, _ in lattices], [n for _, n in lattices])
        rows0 = hilbert.ket(G1, G1)[np.newaxis]
        for j, w in enumerate(grid.w_axis):
            # The column alone, in real time, on the lattice of its group.
            column = DriveParams(omega_m=OMEGA_M, omega=w * OMEGA_M, v=0.0, gate=gate)
            lattice = TimeGrid(np.pi * column.omega / OMEGA_M**2, column.omega, int(m_of[j]),
                               10**9)
            _, states = dynamics._propagate(column, rows0, lattice, density=False,
                                            v=grid.v_axis * OMEGA_M)
            p_rr = np.abs(states[-1, :, 0, 8]) ** 2
            assert np.max(np.abs(grid.p_rr[:, j] - p_rr)) <= 1e-12

    @pytest.mark.parametrize("gate", list(GateKind))
    def test_cells_match_the_stepwise_reference(self, gate):
        # Two cells of the benchmark's sweep, in two columns, against plain
        # RK4 steps over the column's lattice in real time.
        params = DriveParams.from_ratio(OMEGA_M, 7.5, gate=gate)
        grid = sweep_heatmap(params, v_range=(10.0, 20.0), w_range=(5.0, 10.0),
                             resolution=10, dt_divisor=100)
        assert grid.lattices == ((200, 10),)
        for i, j in [(7, 2), (3, 8)]:
            cell = DriveParams(omega_m=OMEGA_M, omega=grid.w_axis[j] * OMEGA_M,
                               v=grid.v_axis[i] * OMEGA_M, gate=gate)
            lattice = TimeGrid(np.pi * cell.omega / OMEGA_M**2, cell.omega, 200, 10**9)
            assert lattice.delta > 0.0

            def rhs(t, psi):
                return -1j * (models.hamiltonian(cell, t) @ psi)

            _, states = rk4_run(rhs, hilbert.ket(G1, G1), lattice, hermitize=False)
            assert abs(grid.p_rr[i, j] - abs(states[-1, 8]) ** 2) <= 1e-10

    @pytest.mark.parametrize("gate, bound", [(GateKind.CZ, 9.2e-8), (GateKind.CNOT, 3.5e-8)])
    def test_drive_sized_lattice_holds_where_v_reaches_ten_omega(self, gate, bound):
        # On the default extent V <= 4 omega, and the worst cell at divisor
        # 400 is off by 9.2e-8 (CZ) and 3.5e-8 (CNOT) against 4m.  V up to
        # 10 omega runs on the same m = 800, and its cells stay within that
        # bound of the run on 2m.
        params = DriveParams.from_ratio(OMEGA_M, 7.5, gate=gate)
        runs = [sweep_heatmap(params, v_range=(10.0, 50.0), w_range=(5.0, 10.0),
                              resolution=12, dt_divisor=divisor) for divisor in (400, 800)]
        assert [run.lattices for run in runs] == [((800, 12),), ((1600, 12),)]
        assert np.max(np.abs(runs[0].p_rr - runs[1].p_rr)) <= bound

    def test_v_ceiling_splits_the_columns_into_groups(self):
        # At divisor 50, V up to 20 Omega_m sets m = even ceil(1000/omega)
        # per column below omega = 10 Omega_m: the default 60 columns fall
        # into 46 groups, from m = 200 at omega = 5 Omega_m to 100 at 10.
        w_axis = np.linspace(5.0, 10.0, 60)
        groups = analysis._heatmap_lattices(w_axis, 20.0, 50)
        assert len(groups) == 46
        assert np.array_equal(np.concatenate([columns for columns, _ in groups]),
                              np.arange(60))
        assert (groups[0][1].m, groups[-1][1].m) == (200, 100)
        for columns, grid in groups:
            assert np.all(grid.m >= 50 * 20.0 / w_axis[columns] * (1.0 - 1e-9))
            assert (grid.omega, grid.t_end) == (1.0, np.pi * w_axis[columns[-1]] ** 2)
        # At divisor 100 and above the drive sets m for every column.
        for divisor in (100, 400):
            [(columns, grid)] = analysis._heatmap_lattices(w_axis, 20.0, divisor)
            assert (len(columns), grid.m) == (60, 2 * divisor)

    def test_rejects_non_finite_ranges(self, cz_params):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                sweep_heatmap(cz_params, v_range=(10.0, bad))


class TestFidelityVsGamma:
    RATES = list(np.linspace(0.0, 2.0 * np.pi * 2e3, 9))

    @pytest.fixture
    def runs(self, monkeypatch):
        """The gamma arguments of every propagate_process call, through the
        module attribute that the benchmark's spans wrap."""
        calls = []
        run = dynamics.propagate_process

        def recorded(*args, **kwargs):
            calls.append(kwargs.get("gamma"))
            return run(*args, **kwargs)

        monkeypatch.setattr(dynamics, "propagate_process", recorded)
        return calls

    @pytest.fixture(params=[GateKind.CZ, GateKind.CNOT])
    def params(self, request):
        return DriveParams.from_ratio(OMEGA_M, 7.5, gamma=GAMMA_15KHZ, gate=request.param)

    def test_gate_fidelity_at_scenario_resolution(self, params):
        target = {GateKind.CZ: 0.9911, GateKind.CNOT: 0.9935}[params.gate]
        [(_, fbar)] = analysis.fidelity_vs_gamma(params, [params.gamma], dt_divisor=400)
        assert abs(fbar - target) <= 1e-4

    def test_returns_input_order(self, gamma_sweep):
        gammas, points = gamma_sweep
        assert [g for g, _ in points] == gammas

    def test_fidelity_decreases_with_decay(self, gamma_sweep):
        _, points = gamma_sweep
        fbars = [f for _, f in points]
        assert all(b <= a + 1e-6 for a, b in zip(fbars, fbars[1:]))

    def test_rejects_negative_rates(self, cz_params, runs):
        with pytest.raises(ValueError):
            fidelity_vs_gamma(cz_params, [-1.0])
        assert runs == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_rates(self, cz_params, bad, runs):
        with pytest.raises(ValueError, match="finite"):
            fidelity_vs_gamma(cz_params, [0.0, bad])
        assert runs == []

    def test_empty_sweep_is_empty(self, cz_params, runs):
        assert fidelity_vs_gamma(cz_params, []) == []
        assert runs == []

    # The operating point at the benchmark's divisor, gamma = 0 included.
    @pytest.mark.parametrize("gate", list(GateKind))
    def test_one_batched_run_matches_the_per_rate_runs(self, gate, runs, monkeypatch):
        params = DriveParams.from_ratio(OMEGA_M, 7.5, gate=gate)
        grid = TimeGrid.build(params, models.pulse_end_time(params), dt_divisor=50,
                              sample_stride=10**9)
        target = models.target_unitary(gate)
        single = [average_gate_fidelity(dynamics.propagate_process(params.with_gamma(g), grid),
                                        target).final_fbar for g in self.RATES]
        del runs[:]
        points = fidelity_vs_gamma(params, self.RATES, dt_divisor=50)
        assert len(runs) == 1 and list(runs[0]) == self.RATES
        assert [g for g, _ in points] == self.RATES
        fbars = np.array([f for _, f in points])
        assert all(type(f) is float for _, f in points)
        assert np.max(np.abs(fbars - single)) <= 1e-13
        # One rate per slice.
        monkeypatch.setattr(dynamics, "_KERNEL_BUDGET", 1)
        sliced = np.array([f for _, f in fidelity_vs_gamma(params, self.RATES, dt_divisor=50)])
        assert np.max(np.abs(sliced - fbars)) <= 1e-13

    def test_sweep_memory_stays_bounded(self):
        # The batch is sliced so that its RK4 kernels stay small: the traced
        # peak of the 9-rate CNOT sweep read 0.67 MB per rate in series,
        # 4.74 MB with the batch unsliced and 1.84 MB sliced.
        params = DriveParams.from_ratio(OMEGA_M, 7.5, gate=GateKind.CNOT)
        dynamics._density_terms(params.gate)
        fidelity_vs_gamma(params, self.RATES[:2], dt_divisor=50)
        tracemalloc.start()
        try:
            fidelity_vs_gamma(params, self.RATES, dt_divisor=50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5e6
