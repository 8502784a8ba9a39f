import json
import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from rabsim import analysis, cli, dynamics, hilbert, models
from rabsim.dynamics import (
    IntegratorHealthError,
    TimeGrid,
    convergence_check,
    propagate_density,
    propagate_process,
    propagate_state,
)
from rabsim.hilbert import G0, G1, RYD
from rabsim.models import DriveParams, GateKind
from conftest import (
    GAMMA_15KHZ, OMEGA_M, QUBIT_UNITS, STEPWISE_M, apply_process, basis_image_terms,
    coordinates_of, full_process, lindblad_rhs, matrices_of, qubit_coordinates, qubit_psi,
    random_density, random_hermitian, reference_blocks, rk4_run, rk4_steps, stepwise_lindblad,
    stepwise_samples, stepwise_start, unsplit_core,
)


class TestTimeGrid:
    @pytest.mark.parametrize("gate", list(GateKind))
    @pytest.mark.parametrize("dt_divisor", [50, 400])
    def test_build_takes_two_steps_per_divisor_at_the_matched_point(self, gate, dt_divisor):
        # The drive sets m: dt_divisor steps per period of 2 omega, on a
        # window that does not end on the lattice.
        params = DriveParams.from_ratio(OMEGA_M, 7.5, gate=gate)
        grid = TimeGrid.build(params, 1.000001e-6, dt_divisor=dt_divisor)
        assert grid.m == 2 * dt_divisor and grid.delta > 0.0

    def test_build_hits_t_end_exactly(self, cz_params):
        grid = TimeGrid.build(cz_params, 3.75e-6, dt_divisor=400)
        assert grid.delta == 0.0
        np.testing.assert_allclose(grid.n_steps * grid.dt, 3.75e-6, rtol=1e-15)

    # (omega, V) in units of Omega_m: the matched point, the V floor at
    # either end of the default heatmap extent, and Omega_m > 2 omega.
    @pytest.mark.parametrize("w, v", [(7.5, 15.0), (7.5, 18.1), (5.0, 20.0), (10.0, 20.0),
                                      (0.3, 0.6)])
    @pytest.mark.parametrize("dt_divisor", [50, 400])
    @pytest.mark.filterwarnings("ignore::rabsim.models.PerturbativeRegimeWarning")
    def test_build_and_the_heatmap_take_the_same_m(self, w, v, dt_divisor):
        params = DriveParams(omega_m=OMEGA_M, omega=w * OMEGA_M, v=v * OMEGA_M)
        [(_, lattice)] = analysis._heatmap_lattices(np.array([w]), v, dt_divisor)
        assert TimeGrid.build(params, 1e-6, dt_divisor=dt_divisor).m == lattice.m

    def test_build_rejects_coarse_divisor(self, cz_params):
        with pytest.raises(ValueError, match="dt_divisor"):
            TimeGrid.build(cz_params, 1e-6, dt_divisor=10)

    @pytest.mark.parametrize("t_end", [np.inf, np.nan, 0.0, -1e-6])
    def test_build_names_a_bad_t_end(self, cz_params, t_end):
        with pytest.raises(ValueError, match="t_end"):
            TimeGrid.build(cz_params, t_end)

    @pytest.mark.parametrize("dt_divisor", [np.nan, np.inf])
    def test_build_names_a_non_finite_dt_divisor(self, cz_params, dt_divisor):
        with pytest.raises(ValueError, match="dt_divisor"):
            TimeGrid.build(cz_params, 1e-6, dt_divisor=dt_divisor)

    def test_direct_construction_bypasses_ceiling(self):
        # A drive period of 1 in 4 steps.
        grid = TimeGrid(1.0, 2.0 * np.pi, 4, 1)
        assert (grid.dt, grid.n_steps) == (0.25, 4)

    def test_basic_invariants_enforced(self):
        with pytest.raises(ValueError):
            TimeGrid(1.0, -2.0 * np.pi, 10, 1)
        with pytest.raises(ValueError):
            TimeGrid(-0.5, 2.0 * np.pi, 10, 1)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 2.0 * np.pi, 10, 0)

    @pytest.mark.parametrize("m, sample_stride", [(np.nan, 1), (10, np.nan), (0.5, 1),
                                                  (0, 1), (10, 0)])
    def test_step_counts_below_one_or_nan_rejected(self, m, sample_stride):
        with pytest.raises(ValueError, match="^(m|sample_stride) must be"):
            TimeGrid(1.0, 2.0 * np.pi, m, sample_stride)

    def test_odd_steps_per_period_rejected(self):
        # Half a drive period must fall on a step.
        with pytest.raises(ValueError, match="^m must be even"):
            TimeGrid(1.0, 2.0 * np.pi, 11)

    # A fractional step count sampled past t_end and then backwards.
    @pytest.mark.parametrize("args, name", [
        ((1.0, 2.0 * np.pi, 2.5), "m"),
        ((1.0, 2.0 * np.pi, 10, 2.5), "sample_stride"),
        ((1.0, 2.0 * np.pi, True), "m"),
        ((1.0, 2.0 * np.pi, 10, np.True_), "sample_stride"),
        ((1.0, 2.0 * np.pi, 10.0), "m"),
    ])
    def test_non_integral_or_bool_step_counts_rejected(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            TimeGrid(*args)

    def test_numpy_integer_step_counts_accepted(self):
        grid = TimeGrid(1.0, 2.0 * np.pi, np.int64(10), np.int32(3))
        assert grid.sample_steps.tolist() == [0, 3, 6, 9, 10]

    @pytest.mark.parametrize("t_end, omega", [(np.nan, 1e-9), (1.0, np.nan), (np.inf, 0.1)])
    def test_non_finite_window_rejected(self, t_end, omega):
        with pytest.raises(ValueError, match="finite"):
            TimeGrid(t_end, omega, 10)

    def test_sample_steps_include_endpoint(self, cz_params):
        grid = TimeGrid(1.0, 2.0 * np.pi, 10, 3)
        assert grid.sample_steps[0] == 0
        assert grid.sample_steps[-1] == 10
        times = grid.dt * grid.sample_steps
        assert np.all(np.diff(times) > 0)

    def test_off_lattice_end_is_the_remainder(self, cz_params):
        t_end = 3.37123 * 2.0 * np.pi / cz_params.omega
        grid = TimeGrid.build(cz_params, t_end, dt_divisor=50)
        assert 0.0 < grid.delta < grid.dt
        assert grid.n_steps == grid.lattice_steps + 1
        np.testing.assert_allclose(grid.lattice_steps * grid.dt + grid.delta, t_end, rtol=1e-15)

    def test_halved_halves_the_step_off_the_lattice(self):
        # The heatmap's probe at divisor 50: its window ends half a step
        # past the lattice of m = 100, and the halved lattice is m = 200, at
        # exactly half the step.
        params = cli.parse_config(["heatmap"]).drive_params()
        grid = TimeGrid.build(params, np.pi * params.omega / params.omega_m**2, dt_divisor=50)
        halved = grid.halved()
        assert grid.delta > 0.0
        assert (grid.m, halved.m) == (100, 200)
        assert halved.dt == grid.dt / 2
        assert (halved.t_end, halved.omega) == (grid.t_end, grid.omega)

    def test_default_sampling_caps_storage(self, cz_params):
        grid = TimeGrid.build(cz_params, 3.75e-6, dt_divisor=400)
        assert len(grid.sample_steps) <= 2002


OPERATING_POINT = ["--omega-m-mhz", "2", "--omega-ratio", "7.5"]


# The lattice of every scenario default and of the four workloads of
# bench/run.py: the grid that the sidecar records, always on the lattice.
# Then two columns of the default 60x60 heatmap, each at its own end on the
# lattice of its group in drive-phase time: m = 2 x divisor for every
# column, which ends off its lattice.
@pytest.mark.parametrize("argv, column, m, n_steps, delta_over_h", [
    (["rab-populations"], None, 800, 45000, 0.0),
    (["gate-fidelity", "--gate", "cz"], None, 800, 45200, 0.0),
    (["gate-fidelity", "--gate", "cnot"], None, 800, 32000, 0.0),
    (["fidelity-vs-gamma", "--gate", "cz"], None, 800, 45200, 0.0),
    (["fidelity-vs-gamma", "--gate", "cnot"], None, 800, 32000, 0.0),
    (["heatmap", "--gate", "cz"], None, 800, 22500, 0.0),
    (["heatmap", "--gate", "cnot"], None, 800, 22500, 0.0),
    (["gate-fidelity", *OPERATING_POINT, "--gate", "cz", "--gamma-khz", "1.5",
      "--dt-divisor", "50"], None, 100, 5650, 0.0),
    (["fidelity-vs-gamma", *OPERATING_POINT, "--gate", "cnot", "--gamma-khz", "2",
      "--dt-divisor", "50"], None, 100, 4000, 0.0),
    (["heatmap", *OPERATING_POINT, "--gamma-khz", "0", "--dt-divisor", "100"], None, 200, 5625,
     0.0),
    (["rab-populations", *OPERATING_POINT, "--gamma-khz", "0"], None, 800, 45000, 0.0),
    (["heatmap", "--gate", "cz"], 21, 800, 18386, 0.5214018960004514),
    (["heatmap", "--gate", "cnot"], 41, 800, 28728, 0.37719046250189875),
], ids=["rab-populations", "gate-fidelity-cz", "gate-fidelity-cnot", "fidelity-vs-gamma-cz",
        "fidelity-vs-gamma-cnot", "heatmap-cz", "heatmap-cnot", "bench-gate-cz",
        "bench-gamma-sweep-cnot", "bench-heatmap", "bench-populations",
        "heatmap-cz-column-21", "heatmap-cnot-column-41"])
def test_scenario_lattice(argv, column, m, n_steps, delta_over_h):
    config = cli.parse_config(argv)
    params = config.drive_params()
    if column is None:
        grid = cli._scenario_grid(config, params)
    else:
        # The column's end, tau = pi omega^2/Omega_m^2, on its group's lattice.
        axis = np.linspace(config.w_min, config.w_max, config.resolution)
        [grid] = [grid for columns, grid in
                  analysis._heatmap_lattices(axis, config.v_max, config.dt_divisor)
                  if column in columns]
        grid = replace(grid, t_end=np.pi * axis[column] ** 2)
    assert (grid.m, grid.n_steps) == (m, n_steps)
    assert grid.delta == pytest.approx(delta_over_h * grid.dt, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("argv", [
    ["rab-populations"], ["gate-fidelity", "--gate", "cnot"],
    ["fidelity-vs-gamma", "--gate", "cz"], ["heatmap", "--gate", "cnot"],
], ids=lambda argv: argv[0])
def test_runners_integrate_on_the_scenario_grid(argv, tmp_path, monkeypatch):
    # Every grid a small run propagates on, in order: the scenario's grid
    # first (the heatmap's groups of columns come before its probe, one
    # grid each), and then the convergence check's halved grid where there
    # is one.
    conf = tmp_path / "small.conf"
    conf.write_text("dt_divisor = 50\ngamma_points = 2\nresolution = 2\n")
    argv = argv + ["--config", str(conf), "--out", str(tmp_path / "out.csv")]
    grids, propagate = [], dynamics._propagate

    def recorded(params, rows0, grid, **kwargs):
        grids.append(grid)
        return propagate(params, rows0, grid, **kwargs)

    monkeypatch.setattr(dynamics, "_propagate", recorded)
    assert cli.main(argv) == 0
    config = cli.parse_config(argv)
    params = config.drive_params()
    grid = cli._scenario_grid(config, params)
    if config.scenario == "heatmap":
        # At divisor 50 the V ceiling puts the two columns on m = 200 and 100.
        groups = analysis._heatmap_lattices(np.array([config.w_min, config.w_max]),
                                            config.v_max, config.dt_divisor)
        assert [grid.m for _, grid in groups] == [200, 100]
        assert grids[:2] == [grid for _, grid in groups]
        grids = grids[2:]
    # The heatmap's probe stores only its final sample.
    assert replace(grids[0], sample_stride=grid.sample_stride) == grid
    if config.scenario in ("rab-populations", "heatmap"):
        assert grids[1:] == [replace(grid.halved(), sample_stride=10**9)]
    else:
        assert len(grids) == 1
    sidecar = json.loads((tmp_path / "out.json").read_text())["grid"]
    assert (sidecar["t_end_s"], sidecar["n_steps"]) == (grid.t_end, grid.n_steps)


class TestLindbladRhs:
    def test_maximally_mixed_is_stationary_without_decay(self, rng):
        h = random_hermitian(rng)
        rhs = lindblad_rhs(np.eye(9) / 9.0, h, [])
        assert np.max(np.abs(rhs)) <= 1e-15 * np.abs(h).max()

    def test_double_excitation_decays_at_2gamma(self):
        gamma = 2.0 * np.pi * 1.5e3
        rhs = lindblad_rhs(
            hilbert.projector(RYD, RYD), np.zeros((9, 9)), models.collapse_operators(gamma)
        )
        np.testing.assert_allclose(rhs[8, 8].real, -2.0 * gamma, rtol=1e-12)

    def test_trace_preserved(self, rng):
        rho = random_density(rng)
        h = random_hermitian(rng)
        ls = [rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)) for _ in range(3)]
        rhs = lindblad_rhs(rho, h, ls)
        assert abs(np.trace(rhs)) <= 1e-12 * np.abs(rhs).max()


class TestPropagateState:
    def test_dark_state_is_stationary(self, cz_params):
        # |00> is untouched by the |1> <-> |r> drive.
        grid = TimeGrid.build(cz_params, 1e-6, dt_divisor=50)
        traj = propagate_state(cz_params, hilbert.ket(G0, G0), grid)
        assert np.max(np.abs(traj.states - hilbert.ket(G0, G0))) <= 1e-12

    def test_antiblockade_transfer_at_peak(self, cz_params):
        t_peak = np.pi * cz_params.omega / cz_params.omega_m**2
        grid = TimeGrid.build(cz_params, t_peak, dt_divisor=400)
        traj = propagate_state(cz_params, hilbert.ket(G1, G1), grid)
        assert traj.basis_populations(8)[-1] >= 0.95

    def test_single_atom_block_matches_pulse_area_oracle(self, cz_params):
        grid = TimeGrid.build(cz_params, 3.75e-6, dt_divisor=400, sample_stride=750)
        traj = propagate_state(cz_params, hilbert.ket(G0, G1), grid)
        for k, t in enumerate(traj.times):
            u = analysis.single_atom_oracle(cz_params, t)
            expected = np.zeros(9, dtype=complex)
            expected[hilbert.index_of(G0, G1)] = u[0, 0]
            expected[hilbert.index_of(G0, RYD)] = u[1, 0]
            assert np.max(np.abs(traj.states[k] - expected)) <= 1e-6

    def test_rejects_unnormalized_initial_state(self, cz_params):
        grid = TimeGrid.build(cz_params, 1e-7)
        with pytest.raises(ValueError, match="norm"):
            propagate_state(cz_params, 2.0 * hilbert.ket(G1, G1), grid)

    def test_norm_drift_raises_health_error(self, cz_params):
        # The ceiling step over a full gate window accumulates ~1e-4 norm loss.
        grid = TimeGrid.build(cz_params, models.gate_time(cz_params), dt_divisor=50)
        with pytest.raises(IntegratorHealthError, match="norm"):
            propagate_state(cz_params, hilbert.ket(G1, G1), grid)

    def test_a_grid_of_another_drive_is_rejected(self, cz_params):
        grid = TimeGrid.build(cz_params, 1e-7, dt_divisor=50)
        traj = propagate_density(cz_params, hilbert.projector(G1, G1), grid)
        other = DriveParams.from_ratio(OMEGA_M, 5.0)
        runs = [
            lambda: propagate_state(other, hilbert.ket(G1, G1), grid),
            lambda: propagate_density(other, hilbert.projector(G1, G1), grid),
            lambda: propagate_process(other, grid),
            lambda: convergence_check(other, traj, grid, lambda rho: 0.0),
        ]
        for run in runs:
            with pytest.raises(ValueError, match="not params.omega"):
                run()

    def test_deterministic(self, cz_params):
        grid = TimeGrid.build(cz_params, 5e-7, dt_divisor=100)
        a = propagate_state(cz_params, hilbert.ket(G1, G1), grid)
        b = propagate_state(cz_params, hilbert.ket(G1, G1), grid)
        assert np.array_equal(a.states, b.states)


class TestPropagateDensity:
    def test_unitary_limit_preserves_purity(self, cz_params):
        grid = TimeGrid.build(cz_params, models.gate_time(cz_params), dt_divisor=400)
        traj = propagate_density(cz_params, hilbert.projector(G1, G1), grid)
        purity = np.einsum("sij,sji->s", traj.states, traj.states).real
        assert np.max(np.abs(purity - 1.0)) <= 1e-8

    def test_matches_state_propagation_without_decay(self, cz_params):
        grid = TimeGrid.build(cz_params, 1.875e-6, dt_divisor=400, sample_stride=563)
        traj_rho = propagate_density(cz_params, hilbert.projector(G1, G1), grid)
        traj_psi = propagate_state(cz_params, hilbert.ket(G1, G1), grid)
        for idx in range(9):
            np.testing.assert_allclose(
                traj_rho.basis_populations(idx),
                traj_psi.basis_populations(idx),
                atol=1e-8,
            )

    def test_decay_law_without_hamiltonian(self):
        # Negligible drive: the pulse area over the run is ~1e-7, so the
        # dynamics reduce to pure two-atom decay, P_rr(t) = exp(-2 gamma t).
        params = DriveParams(omega_m=1e-3, omega=1.0, v=0.0, gamma=GAMMA_15KHZ)
        t_end = 1e-4
        # About 2000 steps: m even and at least the period over t_end/2000.
        m = 2 * math.ceil(np.pi / params.omega / (t_end / 2000))
        grid = TimeGrid(t_end, params.omega, m, 20)
        traj = propagate_density(params, hilbert.projector(RYD, RYD), grid)
        expected = np.exp(-2.0 * params.gamma * traj.times)
        assert np.max(np.abs(traj.basis_populations(8) - expected)) <= 1e-6

    def test_rejects_invalid_initial_matrix(self, cz_params):
        grid = TimeGrid.build(cz_params, 1e-7)
        with pytest.raises(ValueError):
            propagate_density(cz_params, np.eye(9), grid)

    # A trace-one matrix with one negative eigenvalue, on 2 of the 9 levels,
    # on 4 and on all 9; every other level is exactly zero at every sample.
    @pytest.mark.parametrize("levels", [[4, 8], [4, 5, 7, 8], list(range(9))])
    def test_eigenvalue_gate_reports_the_minimum_of_the_whole_matrix(
            self, cz_params, levels, rng, monkeypatch):
        q, _ = np.linalg.qr(rng.standard_normal((len(levels),) * 2)
                            + 1j * rng.standard_normal((len(levels),) * 2))
        spectrum = rng.uniform(0.1, 1.0, len(levels))
        spectrum[0] = -3.7e-5
        rho = np.zeros((9, 9), dtype=complex)
        rho[np.ix_(levels, levels)] = (q * (spectrum / spectrum.sum())) @ q.conj().T
        rho0 = hilbert.projector(G1, G1)
        monkeypatch.setattr(dynamics, "_propagate_rho",
                            lambda params, rho0, grid: (np.array([0.0, 1e-7]),
                                                        np.stack([rho0, rho])))
        with pytest.raises(IntegratorHealthError, match="eigenvalue") as error:
            propagate_density(cz_params, rho0, TimeGrid.build(cz_params, 1e-7))
        reported = float(str(error.value).split("eigenvalue ")[1].split()[0])
        assert reported == pytest.approx(np.min(np.linalg.eigvalsh(rho)), rel=1e-3)
        assert reported == pytest.approx(-3.7e-5 / spectrum.sum(), rel=1e-3)

    def test_healthy_run_never_takes_eigenvalues(self, monkeypatch):
        config = cli.parse_config(["rab-populations"])
        params = config.drive_params()
        grid = cli._scenario_grid(config, params)

        eigvalsh = np.linalg.eigvalsh

        # The initial matrix's check takes its eigenvalues; the gate's would
        # be one batched call over the samples.
        def unbatched_only(a):
            assert np.ndim(a) == 2, "eigenvalues taken of the samples of a healthy run"
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", unbatched_only)
        traj = propagate_density(params, hilbert.projector(G1, G1), grid)
        assert traj.times[-1] == grid.t_end

    # A diagonal block on four levels, so that its eigenvalues are exact: one
    # on each side of -1e-6, one at it, and one between it and the Cholesky
    # shift 1e-6 - 1e-12, where only the eigenvalues decide.
    @pytest.mark.parametrize("lowest, passes, diagonalized", [
        (-5e-7, True, False), (-1e-6 + 1e-13, True, True), (-1e-6, True, True),
        (-1.000001e-6, False, True), (-2e-6, False, True)])
    def test_eigenvalue_gate_at_its_threshold(
            self, cz_params, lowest, passes, diagonalized, monkeypatch):
        rho = np.zeros((9, 9), dtype=complex)
        rho[[4, 5, 7, 8], [4, 5, 7, 8]] = [lowest, 0.25, 0.25, 0.5 - lowest]
        rho0 = hilbert.projector(G1, G1)
        monkeypatch.setattr(dynamics, "_propagate_rho",
                            lambda params, rho0, grid: (np.array([0.0, 1e-7]),
                                                        np.stack([rho0, rho])))
        calls, eigvalsh = [], np.linalg.eigvalsh

        def counted(a):
            # The gate's call is the batched one over the samples.
            if np.ndim(a) == 3:
                calls.append(a)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        grid = TimeGrid.build(cz_params, 1e-7)
        if passes:
            propagate_density(cz_params, rho0, grid)
        else:
            with pytest.raises(IntegratorHealthError) as error:
                propagate_density(cz_params, rho0, grid)
            assert str(error.value) == (
                f"density matrix developed eigenvalue {lowest:.3e} (< -1e-6); reduce dt")
        assert bool(calls) == diagonalized

    def test_unstable_step_raises_health_error(self, cz_params):
        # 4 steps per drive period: 25x the step ceiling's P/100, over 60 periods.
        period = 2.0 * np.pi / cz_params.omega
        assert TimeGrid.build(cz_params, period, dt_divisor=50).m == 100
        grid = TimeGrid(60.0 * period, cz_params.omega, 4, 50)
        with pytest.raises(IntegratorHealthError):
            propagate_density(cz_params, hilbert.projector(G1, G1), grid)


class TestRk4Order:
    def test_error_reduction_factor(self, cz_params):
        # Halving dt must shrink the propagator's final-state error by ~2^4
        # against its own run at dt/8 on the antiblockade scenario.
        psi0 = hilbert.ket(G1, G1)[np.newaxis]

        def final_state(grid):
            return dynamics._propagate(cz_params, psi0, grid, density=False)[1][-1]

        coarse = TimeGrid.build(cz_params, 1.875e-6, dt_divisor=50, sample_stride=10**9)
        reference = final_state(coarse.halved().halved().halved())
        err_coarse = np.linalg.norm(final_state(coarse) - reference)
        err_half = np.linalg.norm(final_state(coarse.halved()) - reference)
        assert 12.0 <= err_coarse / err_half <= 20.0


class TestRk4Kernels:
    """Step maps formed from the twelve kernels against plain RK4 steps of
    the identity rows under y' = y (b0 + cos(omega t) b1)."""

    @staticmethod
    def _max_relative_deviation(b0, b1, omega, t0, h, n_steps):
        kernels = dynamics._rk4_kernels(b0, b1, h)
        assert kernels.shape == (12,) + np.broadcast_shapes(b0.shape, b1.shape)
        # The maps come in chunks of consecutive steps.
        maps = np.concatenate(list(dynamics._step_maps(kernels, omega, t0, h, n_steps)))
        assert len(maps) == n_steps

        def rhs(t, rows):
            return rows @ (b0 + math.cos(omega * t) * b1)

        eye = np.broadcast_to(np.eye(b1.shape[-1]), kernels.shape[1:])
        deviation = 0.0
        for k, step_map in enumerate(maps):
            [reference] = rk4_steps(rhs, eye, t0 + k * h, h, 1)
            deviation = max(deviation,
                            np.max(np.abs(step_map - reference)) / np.max(np.abs(reference)))
        return deviation

    # h ||b|| near 1, where every order of the step map counts.  The 40
    # steps are one chunk of the real 7x7 kernels and two of the batched
    # complex ones.
    @pytest.mark.parametrize("t0", [0.0, 0.7318])
    def test_random_real_generator(self, rng, t0):
        b0, b1 = rng.normal(size=(2, 7, 7))
        assert self._max_relative_deviation(b0, b1, 2.3, t0, 0.11, 40) <= 1e-13

    @pytest.mark.parametrize("t0", [0.0, -3.1416])
    def test_complex_generator_batched_over_v(self, rng, t0):
        b0 = rng.normal(size=(5, 6, 6)) + 1j * rng.normal(size=(5, 6, 6))
        b1 = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        assert self._max_relative_deviation(b0, b1, 2.3, t0, 0.09, 40) <= 1e-13

    def test_short_step(self, rng):
        # A single step of a fraction of h, alone in its chunk.
        b0, b1 = rng.normal(size=(2, 5, 5))
        assert self._max_relative_deviation(b0, b1, 2.3, 1.234, 0.11 * 0.3712, 1) <= 1e-13

    def test_lindblad_generator(self, cz_decay_params):
        a0, a1, _ = dynamics._generator(cz_decay_params, density=True)
        h = 2.0 * np.pi / (2.0 * cz_decay_params.omega) / 50
        assert self._max_relative_deviation(a0.T, a1.T, cz_decay_params.omega, 3.7e-7, h,
                                            5) <= 1e-13


class TestStepMaps:
    """The cosine monomials of the step maps and their windows."""

    @staticmethod
    def _kernels(rng, d):
        b0 = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return dynamics._rk4_kernels(b0, rng.normal(size=(d, d)), 0.01)

    @staticmethod
    def _maps(kernels, omega, t0, h, n_steps):
        return np.concatenate(list(dynamics._step_maps(kernels, omega, t0, h, n_steps)))

    def test_monomials_match_powers_over_a_half_period(self, rng):
        # Over half a drive period the cosines change sign, where the
        # products and np.power can round apart by an ulp.
        kernels, omega, n_steps = self._kernels(rng, 5), 2.3, 400
        h = math.pi / omega / n_steps
        t = h * np.arange(n_steps)
        cosines = np.cos(omega * np.stack([t, t + 0.5 * h, t + h]))
        assert np.any(cosines < 0) and np.any(cosines > 0)
        monomials = np.prod(np.power(cosines[:, :, np.newaxis],
                                     dynamics._KERNEL_POWERS[:, np.newaxis]), axis=0)
        reference = np.einsum("sk,k...->s...", monomials, kernels)
        maps = self._maps(kernels, omega, 0.0, h, n_steps)
        assert np.max(np.abs(maps - reference)) <= 1e-15 * np.max(np.abs(reference))

    # d = 1 has chunks longer than the window, so one chunk a window; d = 32
    # has chunks of 5 steps, where a window of 4,096 steps would end on a
    # one-row product, which rounds differently.
    @pytest.mark.parametrize("d", [1, 4, 32])
    def test_windows_match_the_one_shot_form(self, rng, d, monkeypatch):
        kernels = dynamics._rk4_kernels(*rng.normal(size=(2, d, d)), 0.01)
        rows = max(2, 2**16 // kernels.size)
        window = rows * max(1, dynamics._STEP_WINDOW // rows)
        args = (kernels, 2.3, 0.377, math.pi / 2.3 / 500, window + 3)
        windowed, at = np.empty((window + 3,) + kernels.shape[1:]), 0
        for chunk in dynamics._step_maps(*args):
            windowed[at:at + len(chunk)] = chunk
            at += len(chunk)
        monkeypatch.setattr(dynamics, "_STEP_WINDOW", 10 * window)
        at = 0
        for chunk in dynamics._step_maps(*args):
            assert np.array_equal(chunk, windowed[at:at + len(chunk)])
            at += len(chunk)
        assert at == len(windowed)

    @pytest.mark.parametrize("n_steps", [1, 2, 3, 9, 10, 11, 41])
    def test_maps_are_the_same_whatever_the_batch(self, rng, n_steps):
        # The chunk shortens as the batch grows: 218 steps on one 5x5 block,
        # 5 on 40 entries and 2 on 400.  A pass that ends one step past a
        # chunk, or takes one step, still multiplies two rows or more, and
        # each entry's maps are bit for bit those of the entry alone.
        single = dynamics._rk4_kernels(*rng.normal(size=(2, 5, 5)), 0.01)
        alone = self._maps(single, 2.3, 0.1, 0.01, n_steps)
        for batch in (2, 40, 400):
            kernels = np.ascontiguousarray(np.broadcast_to(single[:, np.newaxis],
                                                           (12, batch, 5, 5)))
            chunks = list(dynamics._step_maps(kernels, 2.3, 0.1, 0.01, n_steps))
            assert n_steps == 1 or min(len(chunk) for chunk in chunks) >= 2
            maps = np.concatenate(chunks)
            assert np.array_equal(maps, np.broadcast_to(alone[:, np.newaxis], maps.shape))

    def test_first_chunk_of_a_long_pass_allocates_one_window(self, rng):
        # 10**6 steps: forming them all at once would take over 100 MB, and
        # yet a broken window stays far from exhausting memory.
        kernels = self._kernels(rng, 4)
        tracemalloc.start()
        try:
            maps = dynamics._step_maps(kernels, 2.3, 0.0, 1e-3, 10**6)
            first = next(maps)
            peak = tracemalloc.get_traced_memory()[1]
            maps.close()
        finally:
            tracemalloc.stop()
        assert first.shape == (max(2, 2**16 // kernels.size), 4, 4)
        assert peak < 2**20

class TestShortStep:
    """The RK4 step of the remainder that ends an off-lattice window, taken
    on the rows, against one plain RK4 step of the reference."""

    @staticmethod
    def _relative_deviation(rows, b0, b1, omega, t, h):
        def rhs(s, y):
            return y @ (b0 + math.cos(omega * s) * b1)

        [reference] = rk4_steps(rhs, rows, t, h, 1)
        step = dynamics._rk4_step(rows, b0, b1, omega, t, h)
        assert step.shape == reference.shape
        return np.max(np.abs(step - reference)) / np.max(np.abs(reference))

    @pytest.mark.parametrize("t", [1.234, -0.5])
    def test_random_real_generator(self, rng, t):
        b0, b1 = rng.normal(size=(2, 5, 5))
        rows = rng.normal(size=(3, 5))
        assert self._relative_deviation(rows, b0, b1, 2.3, t, 0.11 * 0.3712) <= 1e-13

    def test_complex_generator_batched_over_v(self, rng):
        b0 = rng.normal(size=(4, 6, 6)) + 1j * rng.normal(size=(4, 6, 6))
        b1 = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        rows = rng.normal(size=(4, 2, 6)) + 1j * rng.normal(size=(4, 2, 6))
        assert self._relative_deviation(rows, b0, b1, 2.3, 0.7318, 0.09) <= 1e-13

    def test_lindblad_generator(self, cz_decay_params, rng):
        a0, a1, _ = dynamics._generator(cz_decay_params, density=True)
        h = 0.43 * 2.0 * np.pi / (2.0 * cz_decay_params.omega) / 50
        rows = coordinates_of(random_density(rng))[np.newaxis]
        assert self._relative_deviation(rows, a0.T, a1.T, cz_decay_params.omega, 3.7e-7,
                                        h) <= 1e-13


class TestProcessMap:
    def test_identity_map_without_drive_or_decay(self):
        stub = SimpleNamespace(omega_m=0.0, omega=1.0, v=3.0, gamma=0.0, gate=GateKind.CZ)
        grid = TimeGrid(1.0, 1.0, 630, 100)
        process = propagate_process(stub, grid)
        assert process.images.dtype == np.float64
        np.testing.assert_allclose(process.images[-1], np.eye(16).reshape(4, 4, 4, 4),
                                   atol=1e-14)

    def test_reconstruction_matches_direct_propagation(self, cz_decay_params):
        params = cz_decay_params
        grid = TimeGrid.build(params, models.gate_time(params) / 8.0, dt_divisor=100,
                              sample_stride=10**9)
        _, images = full_process(params, grid)
        amps = np.array([np.cos(np.pi / 4) * np.cos(np.pi / 4),
                         np.cos(np.pi / 4) * np.sin(np.pi / 4),
                         np.sin(np.pi / 4) * np.cos(np.pi / 4),
                         np.sin(np.pi / 4) * np.sin(np.pi / 4)])
        psi = np.zeros(9, dtype=complex)
        psi[list(hilbert.QUBIT_INDICES)] = amps
        rho0 = np.outer(psi, psi.conj())
        direct = propagate_density(params, rho0, grid).final_state
        assert np.max(np.abs(apply_process(images[-1], rho0) - direct)) <= 1e-8

    def test_images_preserve_trace_of_unit_trace_inputs(self, cz_decay_params):
        grid = TimeGrid.build(cz_decay_params, 5e-7, dt_divisor=100, sample_stride=10**9)
        _, images = full_process(cz_decay_params, grid)
        for i in range(4):
            assert abs(np.trace(images[-1][i, i]) - 1.0) <= 1e-8

    def test_images_respect_daggering(self, cz_decay_params):
        grid = TimeGrid.build(cz_decay_params, 5e-7, dt_divisor=100, sample_stride=10**9)
        _, images = full_process(cz_decay_params, grid)
        final = images[-1]
        for i in range(4):
            for j in range(4):
                assert np.max(np.abs(final[i, j] - final[j, i].conj().T)) <= 1e-12


class TestRateBatch:
    """propagate_process(..., gamma=rates) runs every rate in one batch."""

    RATES = np.linspace(0.0, 2.0 * np.pi * 2e3, 9)

    @pytest.fixture(params=[GateKind.CZ, GateKind.CNOT])
    def params(self, request):
        return DriveParams.from_ratio(OMEGA_M, 7.5, gate=request.param)

    def test_batch_matches_the_per_rate_runs(self, params, monkeypatch):
        # Glided second halves, and an off-lattice end.
        grid = TimeGrid.build(params, 3.37123 * 2.0 * np.pi / params.omega, dt_divisor=50,
                              sample_stride=7)
        assert np.any(grid.sample_steps % grid.m >= grid.m // 2) and grid.delta > 0
        single = np.stack([propagate_process(params.with_gamma(g), grid).images
                           for g in self.RATES], axis=1)
        batched = propagate_process(params, grid, gamma=self.RATES)
        assert batched.images.shape == (len(batched.times), 9, 4, 4, 4, 4)
        assert np.max(np.abs(batched.images - single)) <= 1e-13
        # The whole batch, gamma = 0 included, runs on the blocks under decay.
        assert [len(b) for b in dynamics._blocks(
            *dynamics._generator(params, density=True, gamma=self.RATES)[:2],
            _qubit_rows())] == [len(b) for b in dynamics._blocks(
                *dynamics._generator(params.with_gamma(1.0), density=True)[:2], _qubit_rows())]
        # One rate per slice.
        monkeypatch.setattr(dynamics, "_KERNEL_BUDGET", 1)
        sliced = propagate_process(params, grid, gamma=self.RATES)
        assert np.max(np.abs(sliced.images - batched.images)) <= 1e-13

    def test_slices_hold_the_kernels_within_the_budget(self, params, monkeypatch):
        # Kernels of 12 d^2 per rate: for CNOT's block of 45, two rates a
        # slice; the last slice holds the odd one.
        sizes = []
        kernels = dynamics._rk4_kernels

        def recorded(b0, b1, h):
            out = kernels(b0, b1, h)
            sizes.append(out.shape[:2] + (out.size,))
            return out

        monkeypatch.setattr(dynamics, "_rk4_kernels", recorded)
        grid = TimeGrid.build(params, 2e-7, dt_divisor=50, sample_stride=10**9)
        propagate_process(params, grid, gamma=self.RATES)
        assert all(size <= dynamics._KERNEL_BUDGET for _, _, size in sizes)
        if params.gate is GateKind.CNOT:
            assert [rates for _, rates, _ in sizes] == [2, 2, 2, 2, 1, 4, 4, 1]

    def test_a_two_axis_batch_matches_its_entries(self, params, monkeypatch):
        # A (gamma, V) batch, one gamma a slice.
        monkeypatch.setattr(dynamics, "_KERNEL_BUDGET", 1)
        gamma = self.RATES[[0, 4, 8], np.newaxis]
        v = np.array([10.0, 20.0]) * OMEGA_M
        grid = TimeGrid.build(params, 2e-7, dt_divisor=50, sample_stride=10**9)
        a0, a1, parity = dynamics._generator(params, density=True, v=v, gamma=gamma)
        _, batched = dynamics._stroboscopic_run(a0, a1, parity, _qubit_rows(), grid)
        assert batched.shape == (2, 3, 2, 16, 81)
        for i, j in np.ndindex(3, 2):
            _, single = dynamics._stroboscopic_run(a0[i, j], a1, parity, _qubit_rows(), grid)
            assert np.max(np.abs(batched[:, i, j] - single)) <= 1e-13

    @pytest.mark.parametrize("gamma", [[], [[1.0]], [-1.0], [0.0, np.nan], [np.inf]])
    def test_bad_rates_are_rejected_before_propagation(self, params, gamma, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("propagated")

        monkeypatch.setattr(dynamics, "_propagate", fail)
        grid = TimeGrid.build(params, 2e-7, dt_divisor=50)
        with pytest.raises(ValueError, match="gamma must be"):
            propagate_process(params, grid, gamma=gamma)

    def test_gates_judge_every_rate(self, params):
        # At divisor 50, 1e12 rad/s puts gamma h near 670, far beyond RK4's
        # stability bound: that rate, and only that one, blows up.
        grid = TimeGrid.build(params, 2e-7, dt_divisor=50, sample_stride=10**9)
        assert 1e12 * grid.dt == pytest.approx(667, rel=0.01)
        healthy = list(self.RATES)
        propagate_process(params, grid, gamma=healthy)
        # The unbatched run names its rate too.
        for run, gamma in [(params, healthy + [1e12]), (params.with_gamma(1e12), None)]:
            with np.errstate(all="ignore"), pytest.raises(IntegratorHealthError,
                                                          match=r"at gamma = 1e\+12 rad/s"):
                propagate_process(run, grid, gamma=gamma)


class TestConvergenceCheck:
    def test_passes_at_scenario_resolution(self, cz_params):
        t_end = 1.875e-6
        grid = TimeGrid.build(cz_params, t_end, dt_divisor=400, sample_stride=10**9)
        traj = propagate_density(cz_params, hilbert.projector(G1, G1), grid)
        report = convergence_check(cz_params, traj, grid, lambda rho: float(np.real(rho[8, 8])))
        assert report.passed
        assert report.delta <= 1e-6
        assert report.value == float(np.real(traj.final_state[8, 8]))

    def test_stationary_observable_has_zero_delta(self, cz_params):
        grid = TimeGrid.build(cz_params, 1e-7, dt_divisor=50)
        traj = propagate_density(cz_params, hilbert.projector(G0, G0), grid)
        report = convergence_check(cz_params, traj, grid, lambda rho: float(np.real(rho[0, 0])))
        assert report.delta == 0.0

    def test_reports_failure_on_deliberately_coarse_grid(self, cz_params):
        # 12 steps per drive period, 8.3x the step ceiling's P/100: must
        # report a failing delta, not raise.
        grid = TimeGrid(1.875e-6, cz_params.omega, 12, 10**9)
        traj = propagate_density(cz_params, hilbert.projector(G1, G1), grid)
        report = convergence_check(cz_params, traj, grid, lambda rho: float(np.real(rho[8, 8])))
        assert not report.passed
        assert report.delta > 1e-6

    def test_rejects_a_trajectory_from_another_grid(self, cz_params):
        grid = TimeGrid.build(cz_params, 1e-7, dt_divisor=50)
        traj = propagate_density(cz_params, hilbert.projector(G1, G1), grid)
        with pytest.raises(ValueError, match="not propagated on the grid"):
            convergence_check(cz_params, traj, grid.halved(), lambda rho: 0.0)


def test_amplitude_never_reaches_rr_from_00(cz_params):
    grid = TimeGrid.build(cz_params, 1e-6, dt_divisor=100)
    traj = propagate_state(cz_params, hilbert.ket(G0, G0), grid)
    assert np.max(np.abs(traj.states[:, 8])) <= 1e-10


@pytest.mark.parametrize("gate", [GateKind.CZ, GateKind.CNOT])
@pytest.mark.parametrize("gamma", [0.0, GAMMA_15KHZ, 3e6])
def test_density_generator_is_the_lindbladian_on_coordinates(gate, gamma, rng):
    # The generator that the density runs read, against the Lindblad
    # right-hand side on complex rho, at instants spread over a drive period.
    params = DriveParams.from_ratio(OMEGA_M, 7.5, gamma=gamma, gate=gate)
    a0, a1, _ = dynamics._generator(params, density=True)
    collapse = models.collapse_operators(gamma)
    rho = random_hermitian(rng)
    for t in np.array([0.0, 0.3, 0.8]) * 2.0 * np.pi / params.omega:
        found = (a0 + math.cos(params.omega * t) * a1) @ hilbert.real_coordinates(rho)
        expected = coordinates_of(lindblad_rhs(rho, models.hamiltonian(params, t), collapse))
        assert np.max(np.abs(found - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("gate", [GateKind.CZ, GateKind.CNOT])
def test_density_terms_match_the_basis_images(gate):
    # The closed form (superoperators conjugated by the coordinates) against
    # the terms applied to the 81 basis matrices by matrix products: they
    # round apart by at most 2**-51, two ulps of an entry near 1.
    terms = dynamics._density_terms(gate)
    assert terms.shape == (3, 81, 81) and terms.flags.c_contiguous
    assert not terms.flags.writeable
    assert np.max(np.abs(terms - basis_image_terms(gate))) <= 2.0**-51


class TestStroboscopicLattice:
    def test_times_of_an_unaligned_window(self, cz_params):
        # The window is no whole number of steps of P/m, so it ends with one
        # step shorter than that.
        t_end = 3.37123 * 2.0 * np.pi / cz_params.omega
        grid = TimeGrid.build(cz_params, t_end, dt_divisor=50, sample_stride=3)
        assert grid.dt == 2.0 * np.pi / cz_params.omega / 100
        assert 0.0 < grid.delta < grid.dt
        traj = propagate_state(cz_params, hilbert.ket(G0, G1), grid)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == grid.t_end
        assert np.all(np.diff(traj.times) > 0)
        assert traj.dt == grid.dt
        # The single-driven-atom block is known in closed form at every sample.
        for t, state in zip(traj.times, traj.states):
            u = analysis.single_atom_oracle(cz_params, t)
            assert abs(state[hilbert.index_of(G0, G1)] - u[0, 0]) <= 1e-6
            assert abs(state[hilbert.index_of(G0, RYD)] - u[1, 0]) <= 1e-6

    def test_odd_raw_step_count_takes_the_finer_even_step(self):
        # V sets the step: 50 steps per 2 pi/V give 120.7 steps per drive
        # period, which rounds up to an odd 121.
        params = DriveParams(omega_m=OMEGA_M, omega=7.5 * OMEGA_M, v=18.1 * OMEGA_M,
                             gamma=GAMMA_15KHZ, gate=GateKind.CZ)
        period = 2.0 * np.pi / params.omega
        assert math.ceil(dynamics.MIN_STEPS_PER_PERIOD * params.v / params.omega) == 121
        grid = TimeGrid.build(params, 3.5 * period, dt_divisor=50, sample_stride=7)
        assert grid.m == 122
        assert (grid.n_steps, grid.delta) == (3 * 122 + 61, 0.0)
        rho0 = _qubit_rho()
        traj = propagate_density(params, rho0, grid)
        assert traj.dt == grid.dt
        times, reference = rk4_run(stepwise_lindblad(params), rho0, grid, hermitize=True)
        np.testing.assert_allclose(traj.times, times, rtol=1e-12)
        assert np.max(np.abs(traj.states - reference)) <= 1e-10


class TestGeneratorParity:
    """A(t + P/2) = Pi A(t) Pi: every generator conjugates exactly under the
    parity, and a run refuses one that does not."""

    @pytest.mark.parametrize("gate", list(GateKind))
    @pytest.mark.parametrize("gamma", [0.0, GAMMA_15KHZ])
    @pytest.mark.parametrize("density, v", [(False, None), (True, None),
                                            (False, np.linspace(10.0, 20.0, 3) * OMEGA_M)])
    def test_parity_conjugation_is_exact(self, gate, gamma, density, v):
        params = DriveParams.from_ratio(OMEGA_M, 7.5, gamma=gamma, gate=gate)
        a0, a1, parity = dynamics._generator(params, density=density, v=v)
        # Density generators act on the real coordinates of rho.
        expected = np.float64 if density else np.complex128
        assert a0.dtype == a1.dtype == expected
        flip = parity[:, np.newaxis] * parity
        assert np.array_equal(flip * a0, a0)
        assert np.array_equal(flip * a1, -a1)

    @pytest.mark.parametrize("term", ["A0 across parities", "A1 within a parity"])
    def test_generator_without_the_symmetry_is_rejected(self, cz_params, term):
        a0, a1, parity = dynamics._generator(cz_params, density=True)
        # rho_{00,00} and sqrt2 Im rho_{00,0r}: opposite parity.
        i, j = 0, 9 * hilbert.index_of(G0, RYD)
        if term == "A0 across parities":
            a0 = a0.copy()
            a0[i, j] = 1.0
        else:
            a1 = a1.copy()
            a1[i, i] = 1.0
        grid = TimeGrid.build(cz_params, 1e-7, dt_divisor=50)
        with pytest.raises(ValueError, match="glide symmetry"):
            dynamics._stroboscopic_run(a0, a1, parity, _qubit_rows(), grid)


# The windows of the matrix below, in drive periods: shorter than one step,
# in a first half, in a second half, whole periods, a quarter, on a
# half-period node and in a later second half, on the lattice and off it.
MATRIX_WINDOWS = [0.004, 0.3, 0.37123, 0.4, 0.8, 0.81234, 3.0, 3.25, 3.3, 3.37123, 3.5, 3.75]

# The coordinates a run may keep: the process map's 21 (the qubit blocks
# and the diagonal) and 30 scattered ones of the 81, which miss one of the
# six blocks of the CZ map under decay, or 4 scattered amplitudes of a state.
KEPT_COLUMNS = {
    "state": [np.random.default_rng(0).permutation(9)[:4]],
    "process": [np.array(QUBIT_UNITS + [10 * a for a in (2, 5, 6, 7, 8)]),
                np.random.default_rng(0).permutation(81)[:30]],
}


class TestStepwiseMatrix:
    """Every path of the stroboscopic propagation against the cached stepwise
    reference (:func:`conftest.stepwise_samples`), on the lattice of m = 100.

    Per gate, decay rate, kind of run and window, every sample of the run
    that keeps every coordinate matches the reference, within 1e-10 for
    states and 1e-12 for the real coordinates of density matrices and
    process maps, and so does the last sample of a run that stores only
    that one.  States and density matrices run through their public
    propagators, and the process map keeps the qubit blocks of the full run
    within 1e-14.  For a state and for a process map under decay, the runs
    that the package batches, a run batched over V reproduces the runs of
    its entries, and a run that keeps only some coordinates, batched or
    not, those coordinates of the run that keeps them all, within 1e-14.
    """

    @staticmethod
    def _as_reference(kind, rows):
        """Samples (..., c, d) of a run in the form of the reference: the
        9-vector of a state, or complex 9x9 matrices of real coordinates."""
        return rows[..., 0, :] if kind == "state" else matrices_of(rows)

    @pytest.mark.parametrize("periods", MATRIX_WINDOWS)
    @pytest.mark.parametrize("kind, gamma", [
        ("state", 0.0), ("density", 0.0), ("density", GAMMA_15KHZ), ("process", 0.0),
        ("process", GAMMA_15KHZ)], ids=["state", "density", "density-decay", "process",
                                        "process-decay"])
    @pytest.mark.parametrize("gate", list(GateKind), ids=lambda gate: gate.value)
    def test_run_matches_the_stepwise_reference(self, gate, kind, gamma, periods):
        params = DriveParams.from_ratio(OMEGA_M, 7.5, gamma=gamma, gate=gate)
        grid = TimeGrid(periods * 2.0 * np.pi / params.omega, params.omega, STEPWISE_M, 7)
        density, rows0 = kind != "state", stepwise_start(kind)
        tol = 1e-12 if density else 1e-10
        reference = stepwise_samples(params, kind, grid)

        def run(grid, rows0=rows0, v=None, **kwargs):
            return dynamics._propagate(params, rows0, grid, density=density, v=v, **kwargs)

        if kind == "state":
            traj = propagate_state(params, rows0[0], grid)
            times, full = traj.times, traj.states[:, np.newaxis]
        elif kind == "density":
            traj = propagate_density(params, matrices_of(rows0[0]), grid)
            times, full = traj.times, hilbert.real_coordinates(traj.states)[:, np.newaxis]
        else:
            times, full = run(grid)
            images = propagate_process(params, grid).images
            assert images.shape == (len(times), 4, 4, 4, 4)
            assert np.max(np.abs(images - qubit_coordinates(full))) <= 1e-14
        assert full.dtype == (np.float64 if density else np.complex128)
        assert times[-1] == grid.t_end
        np.testing.assert_allclose(times, np.minimum(grid.dt * grid.sample_steps, grid.t_end),
                                   rtol=1e-12)
        assert np.max(np.abs(self._as_reference(kind, full) - reference)) <= tol
        if density:
            # The real coordinates rest on this: the image of a Hermitian
            # matrix stays Hermitian.
            assert np.max(np.abs(reference - hilbert.dagger(reference))) <= 1e-12
        # The last sample alone, of the initial rows and their negatives
        # stacked on a leading batch axis.
        last_times, last = run(replace(grid, sample_stride=10**9), np.stack([rows0, -rows0]))
        assert np.array_equal(last_times, [0.0, grid.t_end])
        assert np.array_equal(last[:, 1], -last[:, 0])
        assert np.max(np.abs(self._as_reference(kind, last[-1, 0]) - reference[-1])) <= tol
        # The package batches states (a heatmap column, over V) and process
        # maps under decay (the decay sweep, over its rates, keeping 21
        # coordinates): those two runs cross batches with kept coordinates.
        if kind == "density" or (kind == "process" and not gamma):
            return
        # Batched over V, the operating point first.
        v = params.v * np.array([1.0, 1.3])
        _, batched = run(grid, v=v)
        entries = np.stack([full, run(grid, v=v[1])[1]], axis=1)
        assert batched.shape == entries.shape
        assert np.max(np.abs(batched - entries)) <= 1e-14
        for columns in KEPT_COLUMNS[kind]:
            kept_times, kept = run(grid, columns=columns)
            assert np.array_equal(kept_times, times)
            _, kept_batched = run(grid, v=v, columns=columns)
            for found, whole in [(kept, full), (kept_batched, batched)]:
                assert found.shape == whole.shape[:-1] + (len(columns),)
                assert np.max(np.abs(found - whole[..., columns])) <= 1e-14


class TestHalfPeriodWork:
    """Each invariant block forms m/2 RK4 step maps of h, plus at most one
    shorter step that ends an off-lattice window.  A group of blocks of one
    shape forms them in one call, on its group axis."""

    @pytest.fixture
    def rk4_calls(self, monkeypatch):
        # (step, count) of the lattice step maps and of the short steps,
        # once per block of the group that forms them.
        calls = []
        step_maps, rk4_step = dynamics._step_maps, dynamics._rk4_step

        def counted(kernels, omega, t0, h, n_steps):
            calls.extend([(h, n_steps)] * kernels.shape[-3])
            return step_maps(kernels, omega, t0, h, n_steps)

        def counted_step(rows, b0, b1, omega, t, h):
            calls.extend([(h, 1)] * rows.shape[-3])
            return rk4_step(rows, b0, b1, omega, t, h)

        monkeypatch.setattr(dynamics, "_step_maps", counted)
        monkeypatch.setattr(dynamics, "_rk4_step", counted_step)
        return calls

    @staticmethod
    def _steps(params, grid, rows0, calls, *, density):
        """RK4 step maps the calls form on ``grid``'s lattice, after
        checking that each block formed m/2 of them plus at most one shorter
        step."""
        a0, a1, _ = dynamics._generator(params, density=density)
        blocks = len(dynamics._blocks(a0, a1, rows0))
        on_lattice = [n for dt, n in calls if dt == grid.dt]
        short = [n for dt, n in calls if dt < grid.dt]
        assert len(on_lattice) + len(short) == len(calls)
        assert on_lattice == [grid.m // 2] * blocks
        assert len(short) <= blocks and set(short) <= {1}
        return sum(on_lattice) + sum(short)

    def test_time_resolved_cz_process_map(self, cz_decay_params, rk4_calls):
        grid = TimeGrid.build(cz_decay_params, models.pulse_end_time(cz_decay_params),
                              dt_divisor=50)
        assert len(grid.sample_steps) > 1000
        analysis.fidelity_time_series(cz_decay_params, grid)
        assert self._steps(cz_decay_params, grid, _qubit_rows(), rk4_calls, density=True) == 300

    def test_default_rab_populations_run(self, tmp_path, rk4_calls):
        assert cli.main(["rab-populations", "--out", str(tmp_path / "pop.csv")]) == 0
        params = cli.parse_config(["rab-populations"]).drive_params()
        grid = TimeGrid.build(params, models.gate_time(params))
        rows0 = coordinates_of(hilbert.projector(G1, G1))[np.newaxis]
        # The trajectory on the grid, and the convergence check's run at
        # dt/2; both windows end on the lattice.
        h = grid.dt
        whole = self._steps(params, grid, rows0,
                            [c for c in rk4_calls if c[0] == h], density=True)
        halved = self._steps(params, grid.halved(), rows0,
                             [c for c in rk4_calls if c[0] != h], density=True)
        assert (whole, halved) == (400, 800)

    def test_off_lattice_window(self, cz_params, rk4_calls):
        grid = TimeGrid.build(cz_params, 3.37123 * 2.0 * np.pi / cz_params.omega,
                              dt_divisor=50, sample_stride=3)
        psi = hilbert.ket(G0, G1)
        propagate_state(cz_params, psi, grid)
        assert self._steps(cz_params, grid, psi[np.newaxis], rk4_calls, density=False) \
            == grid.m // 2 + 1

    def test_halved_run_of_an_off_lattice_probe(self, rk4_calls):
        # The heatmap's convergence probe window on a lattice of m = 102,
        # off which it ends, as it does off the halved one.  The check's run
        # takes m steps of exactly dt/2 per block, half the period of 2m,
        # and one short step.
        params = cli.parse_config(["heatmap", "--dt-divisor", "50"]).drive_params()
        grid = TimeGrid(np.pi * params.omega / params.omega_m**2, params.omega, 102,
                        sample_stride=10**9)
        assert grid.delta > 0.0 and grid.halved().delta > 0.0
        rho0 = hilbert.projector(G1, G1)
        traj = propagate_density(params, rho0, grid)
        rk4_calls.clear()
        convergence_check(params, traj, grid, lambda rho: float(np.real(rho[8, 8])))
        assert grid.halved().dt == grid.dt / 2
        assert self._steps(params, grid.halved(), coordinates_of(rho0)[np.newaxis], rk4_calls,
                           density=True) == grid.m + 1


class TestFinalStateRuns:
    """A run that stores only its final sample forms the same step products
    as a run that stores every sample, but crosses K whole drive periods by
    binary powers of Phi(P) instead of one period at a time; both must end
    on the same state, bit for bit for K <= 1, where the two runs form the
    same products, and within 1e-13 beyond.  The window ends at in-period
    offset 0, 3 or m/2 of period K, on the lattice or a fraction of a step
    past it.  The steps are coarse (m of 14 to 50 per period) to keep the
    runs small; no health gate is crossed."""

    PERIODS = [0, 1, 2, 3, 4, 5, 7, 8]

    @staticmethod
    def _windows(params, m, periods, off_lattice):
        """(grid storing every sample, the same grid storing only its last)."""
        h = 2.0 * np.pi / params.omega / m
        for offset in (0, 3, m // 2):
            steps = periods * m + offset + (0.37 if off_lattice else 0.0)
            if steps:
                grid = TimeGrid(steps * h, params.omega, m)
                yield offset, grid, replace(grid, sample_stride=10**9)

    @staticmethod
    def _assert_same_end(final, every, offset, periods=None):
        if periods is not None and periods <= 1:
            assert np.array_equal(final, every), f"offset {offset}"
        else:
            scale = np.max(np.abs(every))
            assert np.max(np.abs(final - every)) <= 1e-13 * scale, f"offset {offset}"

    @pytest.mark.parametrize("off_lattice", [False, True], ids=["on-lattice", "off-lattice"])
    @pytest.mark.parametrize("periods", PERIODS)
    def test_state_batched_over_v(self, cz_params, periods, off_lattice):
        v = np.array([10.0, 15.0, 20.0]) * OMEGA_M
        rows0 = np.broadcast_to(hilbert.ket(G1, G1), (len(v), 1, 9))
        for offset, every, final in self._windows(cz_params, 22, periods, off_lattice):
            _, full = dynamics._propagate(cz_params, rows0, every, density=False, v=v)
            times, last = dynamics._propagate(cz_params, rows0, final, density=False, v=v)
            assert times[-1] == every.t_end and len(last) == 2
            self._assert_same_end(last[-1], full[-1], offset, periods)

    @pytest.mark.parametrize("off_lattice", [False, True], ids=["on-lattice", "off-lattice"])
    @pytest.mark.parametrize("periods", PERIODS)
    def test_density_matrix(self, cz_decay_params, periods, off_lattice):
        # The block of |11><11| holds 16 coordinates; at m = 50 its 25 step
        # maps per pass come in two chunks.
        rho0 = hilbert.projector(G1, G1)
        for offset, every, final in self._windows(cz_decay_params, 50, periods, off_lattice):
            _, full = dynamics._propagate_rho(cz_decay_params, rho0, every)
            _, last = dynamics._propagate_rho(cz_decay_params, rho0, final)
            self._assert_same_end(last[-1], full[-1], offset, periods)

    @pytest.mark.parametrize("off_lattice", [False, True], ids=["on-lattice", "off-lattice"])
    @pytest.mark.parametrize("periods", PERIODS)
    def test_process_map_batched_over_rates(self, cnot_decay_params, periods, off_lattice):
        rates = np.array([0.0, GAMMA_15KHZ, 4.0 * GAMMA_15KHZ])
        for offset, every, final in self._windows(cnot_decay_params, 14, periods, off_lattice):
            full = propagate_process(cnot_decay_params, every, gamma=rates).images
            last = propagate_process(cnot_decay_params, final, gamma=rates).images
            self._assert_same_end(last[-1], full[-1], offset, periods)


    def test_an_end_per_entry(self, cz_params, monkeypatch):
        # Every window above at once, in drive-phase time tau = omega t: a
        # batch over omega and V whose entries each end at their own tau,
        # one omega a kernel slice, against each omega's run alone on its
        # own window in real time.
        m = 22
        ends = np.array([grid.t_end * cz_params.omega
                         for off_lattice in (False, True) for periods in self.PERIODS
                         for _, grid, _ in self._windows(cz_params, m, periods, off_lattice)])
        omega = cz_params.omega * np.linspace(0.8, 1.2, len(ends))[:, np.newaxis]
        v = np.array([10.0, 20.0]) * OMEGA_M
        rows0 = hilbert.ket(G1, G1)[np.newaxis]
        grid = TimeGrid(float(np.max(ends)), 1.0, m, 10**9)
        monkeypatch.setattr(dynamics, "_KERNEL_BUDGET", 1)
        times, last = dynamics._propagate(cz_params, rows0, grid, density=False, v=v,
                                          omega=omega, ends=ends[:, np.newaxis])
        assert np.array_equal(times, [np.zeros((len(ends), 1)), ends[:, np.newaxis]])
        for e, end in enumerate(ends):
            entry = DriveParams(omega_m=OMEGA_M, omega=float(omega[e, 0]), v=0.0)
            own = TimeGrid(end / entry.omega, entry.omega, m, 10**9)
            _, alone = dynamics._propagate(entry, rows0, own, density=False, v=v)
            self._assert_same_end(last[-1, e], alone[-1], e)
        with pytest.raises(ValueError, match="unit drive"):
            dynamics._propagate(cz_params, rows0, own, density=False, v=v, omega=omega,
                                ends=ends[:, np.newaxis])
        with pytest.raises(ValueError, match="only its final sample"):
            dynamics._propagate(cz_params, rows0, replace(grid, sample_stride=1),
                                density=False, v=v, omega=omega, ends=ends[:, np.newaxis])


class TestPeriodStarts:
    """The period starts y0 Phi^k by batched binary powers, on a batch of
    three entries and a group of two, against the forms they replace."""

    @pytest.fixture
    def problem(self, rng):
        # Phi a random orthogonal map scaled by 0.999, as a period map of a
        # lossy run; rows (c = 4) on a (3, 2) batch and group.
        q, _ = np.linalg.qr(rng.normal(size=(3, 2, 6, 6)))
        return rng.normal(size=(3, 2, 4, 6)), 0.999 * q

    @staticmethod
    def _gap_crossing(y0, period_map, periods):
        """The starts by crossing each gap between two read periods with the
        powers Phi^(2^b) of its bits, each squared when first needed."""
        powers, y, at, starts = [period_map], y0, 0, []
        for period in periods.tolist():
            gap, at = period - at, period
            for bit in range(gap.bit_length()):
                if bit == len(powers):
                    powers.append(powers[-1] @ powers[-1])
                if gap >> bit & 1:
                    y = y @ powers[bit]
            starts.append(y)
        return np.stack(starts)

    def test_a_final_only_run_makes_the_same_products(self, problem):
        # Its initial and final samples read periods 0 and K.
        y0, period_map = problem
        for k in range(130):
            periods = np.unique([0, k])
            assert np.array_equal(dynamics._period_starts(y0, period_map, periods),
                                  self._gap_crossing(y0, period_map, periods)), k

    def test_every_period_agrees_with_the_sequential_product(self, problem):
        y0, period_map = problem
        periods = np.arange(57)
        starts = dynamics._period_starts(y0, period_map, periods)
        sequential = self._gap_crossing(y0, period_map, periods)
        scale = np.max(np.abs(sequential), axis=(-2, -1), keepdims=True)
        assert np.max(np.abs(starts - sequential) / scale) <= 1e-13


class TestHealthGatesTripOnNan:
    """A NaN anywhere in the dynamics must fail the gates, not pass them."""

    @pytest.fixture
    def nan_params(self):
        return SimpleNamespace(omega_m=OMEGA_M, omega=7.5 * OMEGA_M, v=np.nan,
                               gamma=0.0, gate=GateKind.CZ)

    @pytest.fixture
    def grid(self, cz_params):
        return TimeGrid.build(cz_params, 2e-7, dt_divisor=50)

    def test_state_norm_gate(self, nan_params, grid):
        with pytest.raises(IntegratorHealthError, match="norm"):
            propagate_state(nan_params, hilbert.ket(G1, G1), grid)

    def test_density_gates(self, nan_params, grid):
        with pytest.raises(IntegratorHealthError):
            propagate_density(nan_params, hilbert.projector(G1, G1), grid)

    def test_process_trace_gate(self, nan_params, grid):
        with pytest.raises(IntegratorHealthError, match="trace"):
            propagate_process(nan_params, grid)

    def test_nan_initial_state_is_rejected(self, cz_params, grid):
        psi = hilbert.ket(G1, G1)
        psi[0] = np.nan
        with pytest.raises(ValueError, match="norm"):
            propagate_state(cz_params, psi, grid)


def _qubit_rows():
    """The real coordinates of the 16 Hermitian qubit basis matrices, as rows."""
    return np.eye(81)[QUBIT_UNITS]


def _qubit_rho():
    psi = qubit_psi()
    return np.outer(psi, psi.conj())


class TestInvariantBlocks:
    """The run splits exactly into the disconnected blocks of the generator."""

    @pytest.fixture(params=[GateKind.CZ, GateKind.CNOT])
    def params(self, request):
        return DriveParams.from_ratio(OMEGA_M, 7.5, gamma=GAMMA_15KHZ, gate=request.param)

    # Process units, one density matrix, and one pure state batched over V
    # as in a heatmap column.
    @pytest.fixture(params=["process", "density", "batched"])
    def problem(self, request, params):
        if request.param == "process":
            return (*dynamics._generator(params, density=True), _qubit_rows())
        if request.param == "density":
            return (*dynamics._generator(params, density=True),
                    coordinates_of(_qubit_rho())[np.newaxis])
        a0, a1, parity = dynamics._generator(params, density=False,
                                             v=np.linspace(10.0, 20.0, 3) * OMEGA_M)
        return a0, a1, parity, np.broadcast_to(qubit_psi(), (3, 1, 9))

    def test_blocks_partition_the_reachable_set(self, problem):
        a0, a1, _, rows0 = problem
        blocks = dynamics._blocks(a0, a1, rows0)
        assert [block.tolist() for block in blocks] == reference_blocks(a0, a1, rows0)
        reach = np.concatenate(blocks)
        assert len(set(reach.tolist())) == len(reach)
        outside = np.setdiff1d(np.arange(a1.shape[-1]), reach)
        # Nothing leaves the reachable set, and no entry of A0 (any batch
        # entry) or A1 joins two blocks.
        for a in (a0, a1):
            assert np.all(a[..., outside[:, np.newaxis], reach] == 0)
            for i, left in enumerate(blocks):
                for right in blocks[i + 1:]:
                    assert np.all(a[..., left[:, np.newaxis], right] == 0)
                    assert np.all(a[..., right[:, np.newaxis], left] == 0)

    def test_block_sizes_under_decay(self, params):
        sizes = sorted((len(b) for b in dynamics._blocks(
            *dynamics._generator(params, density=True)[:2], _qubit_rows())), reverse=True)
        expected = {GateKind.CZ: [25, 20, 20, 8, 4, 4], GateKind.CNOT: [45, 36]}
        assert sizes == expected[params.gate]

    def test_11_without_decay_reaches_one_block_of_16(self, cz_params, cnot_params):
        rho0 = coordinates_of(hilbert.projector(G1, G1))[np.newaxis]
        a0, a1, _ = dynamics._generator(cz_params, density=True)
        assert [len(b) for b in dynamics._blocks(a0, a1, rho0)] == [16]
        # A heatmap column runs the pure |11>, batched over V: one block of
        # 4 amplitudes for CZ, 6 for CNOT.
        rows0 = np.broadcast_to(hilbert.ket(G1, G1), (4, 1, 9))
        for params, size in [(cz_params, 4), (cnot_params, 6)]:
            a0, a1, _ = dynamics._generator(params, density=False,
                                            v=np.linspace(10.0, 20.0, 4) * OMEGA_M)
            assert [len(b) for b in dynamics._blocks(a0, a1, rows0)] == [size]

    def test_density_generator_batches_over_its_rates(self, params):
        # Each entry of a (gamma, V) batch is the generator of its own rates.
        gamma = np.array([0.0, 1.0, 2.0])[:, np.newaxis] * GAMMA_15KHZ
        v = np.array([10.0, 20.0]) * OMEGA_M
        a0, a1, parity = dynamics._generator(params, density=True, v=v, gamma=gamma)
        assert a0.shape == (3, 2, 81, 81)
        for i, j in np.ndindex(3, 2):
            entry = DriveParams(omega_m=params.omega_m, omega=params.omega, v=v[j],
                                gamma=gamma[i, 0], gate=params.gate)
            single = dynamics._generator(entry, density=True)
            assert np.array_equal(a0[i, j], single[0])
            assert np.array_equal(a1, single[1]) and np.array_equal(parity, single[2])

    def test_pure_generator_takes_no_gamma(self, cz_params):
        with pytest.raises(ValueError, match="no decay"):
            dynamics._generator(cz_params, density=False, gamma=np.array([0.0, 1.0]))

    # Whole drive periods, and a window ending 0.3 into a period.
    @pytest.mark.parametrize("periods", [3.0, 3.3])
    def test_blockwise_run_matches_the_unsplit_core(self, problem, params, periods):
        a0, a1, parity, rows0 = problem
        grid = TimeGrid.build(params, periods * 2.0 * np.pi / params.omega, dt_divisor=50,
                              sample_stride=7)
        times, out = dynamics._stroboscopic_run(a0, a1, parity, rows0, grid)
        reach = np.sort(np.concatenate(dynamics._blocks(a0, a1, rows0)))
        unsplit = unsplit_core(a0[..., reach[:, np.newaxis], reach],
                               a1[reach[:, np.newaxis], reach], parity[reach],
                               rows0[..., reach], grid)
        assert times[-1] == grid.t_end and len(times) == len(unsplit)
        assert np.max(np.abs(out[..., reach] - unsplit)) <= 1e-12
        assert not np.any(np.delete(out, reach, axis=-1))

    @pytest.mark.parametrize("rates", [None, np.array([0.5, 1.0, 2.0])],
                             ids=["one-rate", "three-rates"])
    @pytest.mark.parametrize("kept", [False, True], ids=["all", "kept"])
    def test_a_grouped_run_equals_its_per_block_runs(self, params, rates, kept):
        # A process map with every output coordinate, or with the 21 that
        # propagate_process keeps, on an off-lattice window that reads
        # both halves of its periods.  Each block runs alone when the rows
        # of the others are zero.  At m = 102 the half-period pass takes 51
        # steps, and a group of two takes chunks of half the length.
        grid = TimeGrid(3.37123 * 2.0 * np.pi / params.omega, params.omega, 102, 7)
        assert grid.delta > 0
        a0, a1, parity = dynamics._generator(
            params, density=True, gamma=None if rates is None else rates * GAMMA_15KHZ)
        rows0 = _qubit_rows()
        columns = np.array(QUBIT_UNITS + [10 * a for a in (2, 5, 6, 7, 8)]) if kept else None
        _, grouped = dynamics._stroboscopic_run(a0, a1, parity, rows0, grid, columns)
        alone = np.zeros_like(grouped)
        for block in dynamics._blocks(a0, a1, rows0):
            own = np.any(rows0[:, block] != 0, axis=1)[:, np.newaxis]
            alone += dynamics._stroboscopic_run(a0, a1, parity, rows0 * own, grid, columns)[1]
        assert np.array_equal(grouped, alone)

    def test_one_core_call_per_group(self, params, monkeypatch):
        # CZ's 20-blocks (4 support rows and 4 kept coordinates each) and its
        # 4-blocks (1 and 1) run as two groups: four calls for six blocks.
        # The run forms its schedule once, and a density run, which keeps
        # every coordinate in order, reads its stacks uncut.
        calls = {"core": [], "schedule": 0}
        core, schedule = dynamics._stroboscopic_core, dynamics._schedule

        def counted_core(*args):
            calls["core"].append((args[0].shape[-3:], args[5]))
            return core(*args)

        def counted_schedule(*args):
            calls["schedule"] += 1
            return schedule(*args)

        monkeypatch.setattr(dynamics, "_stroboscopic_core", counted_core)
        monkeypatch.setattr(dynamics, "_schedule", counted_schedule)
        grid = TimeGrid.build(params, 2e-7, dt_divisor=50)
        propagate_process(params, grid)
        groups = {GateKind.CZ: [(1, 25), (2, 20), (1, 8), (2, 4)],
                  GateKind.CNOT: [(1, 45), (1, 36)]}[params.gate]
        assert [shape[:2] for shape, _ in calls["core"]] == groups
        assert calls["schedule"] == 1
        calls["core"].clear()
        propagate_density(params, _qubit_rho(), grid)
        assert calls["core"] and all(columns is None for _, columns in calls["core"])

    def test_blocks_are_cached_read_only(self, params, monkeypatch):
        a0, a1, _ = dynamics._generator(params, density=True)
        blocks = dynamics._blocks(a0, a1, _qubit_rows())
        with pytest.raises(ValueError, match="read-only"):
            blocks[0][0] = 1

        def fail(*args):
            raise AssertionError("the closure loops ran again")

        # The same coupling pattern at other rates, and the same support.
        monkeypatch.setattr(dynamics, "_closure", fail)
        again = dynamics._blocks(*dynamics._generator(params.with_gamma(2.0 * params.gamma),
                                                      density=True)[:2], 3.0 * _qubit_rows())
        assert all(x is y for x, y in zip(again, blocks)) and len(again) == len(blocks)

    @staticmethod
    def _nan_in_smallest_block(monkeypatch, rows0, **generator_kwargs):
        """Make _generator put a NaN on the diagonal of the smallest block
        that ``rows0`` reaches, and return that block."""
        generator = dynamics._generator
        a0, a1, _ = generator(**generator_kwargs)
        block = min(dynamics._blocks(a0, a1, rows0), key=len)

        def nan_generator(*args, **kwargs):
            a0, a1, parity = generator(*args, **kwargs)
            a0 = a0.copy()
            a0[..., block[0], block[0]] = np.nan
            return a0, a1, parity

        monkeypatch.setattr(dynamics, "_generator", nan_generator)
        return block

    def test_nan_in_one_block_trips_the_process_gate(self, params, monkeypatch):
        block = self._nan_in_smallest_block(monkeypatch, _qubit_rows(), params=params,
                                            density=True)
        # A block of coherences only: the trace gate cannot see it.
        assert not set(block.tolist()) & {10 * a for a in range(9)}
        grid = TimeGrid.build(params, 2e-7, dt_divisor=50)
        a0, a1, parity = dynamics._generator(params, density=True)
        _, rows = dynamics._stroboscopic_run(a0, a1, parity, _qubit_rows(), grid)
        assert 0 < np.isnan(rows).any(axis=(0, 1)).sum() <= len(block)
        assert np.all(np.isfinite(np.delete(rows, block, axis=-1)))
        with pytest.raises(IntegratorHealthError, match="non-finite"):
            propagate_process(params, grid)

    def test_nan_in_one_block_trips_the_density_gate(self, params, monkeypatch):
        rho0 = _qubit_rho()
        block = self._nan_in_smallest_block(monkeypatch, coordinates_of(rho0)[np.newaxis],
                                            params=params, density=True)
        assert not set(block.tolist()) & {10 * a for a in range(9)}
        grid = TimeGrid.build(params, 2e-7, dt_divisor=50)
        with pytest.raises(IntegratorHealthError, match="non-finite"):
            propagate_density(params, rho0, grid)

    def test_nan_in_one_block_trips_the_norm_gate(self, cz_params, monkeypatch):
        psi = qubit_psi()
        block = self._nan_in_smallest_block(monkeypatch, psi[np.newaxis], params=cz_params,
                                            density=False)
        assert block.tolist() == [hilbert.index_of(G0, G0)]
        grid = TimeGrid.build(cz_params, 2e-7, dt_divisor=50)
        with pytest.raises(IntegratorHealthError, match="norm"):
            propagate_state(cz_params, psi, grid)
