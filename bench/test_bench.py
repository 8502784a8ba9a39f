"""The benchmark's own tests: each check accepts a real output and rejects a
perturbed one, the oracle agrees with a fine-step rabsim run, the layer
arithmetic is right and the metric tables match BENCHMARK.json.

    python3 -m pytest bench/test_bench.py

The real outputs come from one round of each workload at its benchmark
size, so the module takes about a minute on two cores.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import run
import tracing

TEST_SEED = -1  # output directories apart from any benchmark run's


@pytest.fixture(scope="module")
def real():
    """Workload name -> (run, table, sidecar) of one real round."""
    cache = {}

    def get(name):
        if name not in cache:
            bench_run = run.Run(name, TEST_SEED, trace=False)
            record = bench_run.round(trace=False, threads=len(os.sched_getaffinity(0)))
            assert record is not None, bench_run.messages
            table = checks.read_table(bench_run.csv)
            cache[name] = (bench_run, table, checks.read_sidecar(bench_run.csv))
        return cache[name]

    return get


class TestGateCz:
    def test_real_output_passes(self, real):
        _, table, sidecar = real("gate-cz")
        verdict = checks.check_gate_cz(table, sidecar)
        assert verdict.failed == set(), verdict.messages
        assert verdict.attempted == 1 + len(table)

    def test_wrong_initial_fidelity(self, real):
        _, table, sidecar = real("gate-cz")
        bad = table.copy()
        bad[0, 1] = 0.6
        assert checks.check_gate_cz(bad, sidecar).failed == {("sample", 0)}

    def test_end_off_the_envelope_node(self, real):
        _, table, sidecar = real("gate-cz")
        bad = table.copy()
        # A quarter envelope period past the node: still after the previous sample.
        bad[-1, 0] += 0.25 * math.pi / checks.OMEGA * 1e6
        assert np.all(np.diff(bad[:, 0]) > 0)
        assert checks.SCENARIO in checks.check_gate_cz(bad, sidecar).failed

    def test_decay_dropped(self, real):
        _, table, sidecar = real("gate-cz")
        bad = table.copy()
        bad[-1, 1] += checks.GAMMA_CZ * checks.T_CZ / 4.0
        sidecar = dict(sidecar, final_fbar=bad[-1, 1])
        assert checks.check_gate_cz(bad, sidecar).failed == {("sample", len(bad) - 1)}

    def test_nan_sample(self, real):
        _, table, sidecar = real("gate-cz")
        bad = table.copy()
        bad[100, 1] = math.nan
        assert checks.check_gate_cz(bad, sidecar).failed == {("sample", 100)}


class TestGammaSweep:
    def test_real_output_passes(self, real):
        _, table, _ = real("gamma-sweep-cnot")
        verdict = checks.check_gamma_sweep_cnot(table)
        assert verdict.failed == set(), verdict.messages
        assert verdict.attempted == 1 + checks.GAMMA_POINTS

    def test_fidelity_rises(self, real):
        _, table, _ = real("gamma-sweep-cnot")
        bad = table.copy()
        bad[[3, 4], 1] = bad[[4, 3], 1]
        assert ("point", 4) in checks.check_gamma_sweep_cnot(bad).failed

    def test_decay_silently_dropped(self, real):
        # What a NaN decay rate produces: the gamma = 0 fidelity in every row.
        _, table, _ = real("gamma-sweep-cnot")
        bad = table.copy()
        bad[:, 1] = bad[0, 1]
        failed = checks.check_gamma_sweep_cnot(bad).failed
        assert checks.SCENARIO in failed and ("point", checks.GAMMA_POINTS - 1) in failed

    def test_drop_ten_percent_too_large(self, real):
        _, table, _ = real("gamma-sweep-cnot")
        bad = table.copy()
        bad[:, 1] = bad[0, 1] - 1.1 * (bad[0, 1] - bad[:, 1])
        assert checks.SCENARIO in checks.check_gamma_sweep_cnot(bad).failed


class TestHeatmap:
    def _check(self, bench_run, table):
        return checks.check_heatmap(table, run.HEATMAP_EXTENT, bench_run.cells, bench_run.oracle)

    def test_real_output_passes(self, real):
        bench_run, table, _ = real("heatmap")
        verdict = self._check(bench_run, table)
        assert verdict.failed == set(), verdict.messages
        assert verdict.attempted == 1 + run.HEATMAP_EXTENT["resolution"] ** 2

    def _cell_row(self, i, j):
        return i * run.HEATMAP_EXTENT["resolution"] + j

    def test_nan_and_out_of_range_cells(self, real):
        bench_run, table, _ = real("heatmap")
        bad = table.copy()
        bad[self._cell_row(0, 5), 2] = math.nan
        bad[self._cell_row(1, 5), 2] = 1.2
        failed = self._check(bench_run, bad).failed
        assert {("cell", 0, 5), ("cell", 1, 5)} <= failed

    def test_ridge_moved(self, real):
        bench_run, table, _ = real("heatmap")
        n = run.HEATMAP_EXTENT["resolution"]
        bad = table.copy()
        bad[self._cell_row(n - 1, 2), 2] = 0.99
        assert ("cell", n - 1, 2) in self._check(bench_run, bad).failed

    def test_sampled_cell_off_by_5e_4(self, real):
        bench_run, table, _ = real("heatmap")
        i, j = bench_run.cells[1]
        bad = table.copy()
        bad[self._cell_row(i, j), 2] += 5e-4
        assert self._check(bench_run, bad).failed == {("cell", i, j)}


class TestPopulations:
    def test_real_output_passes(self, real):
        _, table, _ = real("populations")
        verdict = checks.check_populations(table)
        assert verdict.failed == set(), verdict.messages
        assert verdict.attempted == 1

    def test_off_the_effective_oscillation(self, real):
        _, table, _ = real("populations")
        bad = table.copy()
        bad[len(bad) // 3, 2] += 0.06
        assert checks.check_populations(bad).failed == {checks.SCENARIO}

    def test_incomplete_transfer(self, real):
        _, table, _ = real("populations")
        bad = table.copy()
        bad[:, 2] = np.minimum(bad[:, 2], 0.94)
        assert checks.check_populations(bad).failed == {checks.SCENARIO}


def test_three_level_oracle_matches_fine_rabsim_run():
    """The reduction and its integrator against rabsim's 9-level RK4 at dt/8."""
    sys.path.insert(0, str(run.SRC))
    from rabsim import dynamics, hilbert, models
    from rabsim.dynamics import TimeGrid

    omega, v = 10.0 * checks.OMEGA_M, 20.0 * checks.OMEGA_M
    t_end = math.pi * omega / checks.OMEGA_M**2
    params = models.DriveParams(omega_m=checks.OMEGA_M, omega=omega, v=v)
    grid = TimeGrid.build(params, t_end, dt_divisor=400, sample_stride=10**9)
    reference = dynamics.propagate_density(params, hilbert.projector(1, 1), grid).states[-1][8, 8]
    oracle = checks.three_level_p_rr(np.array([v]), np.array([omega]), np.array([t_end]))
    assert abs(oracle[0] - reference.real) < 1e-6


def test_layer_self_times_and_counts():
    spans = [
        {"name": "cli.run_scenario", "start": 0.0, "end": 10.0, "parent": None, "counts": {}},
        {"name": "analysis.fidelity_time_series", "start": 1.0, "end": 9.0, "parent": 0,
         "counts": {"samples": 4}},
        {"name": "dynamics.propagate_process", "start": 1.5, "end": 6.5, "parent": 1,
         "counts": {"steps": 100, "trajectory_bytes": 2e6}},
        {"name": "models.target_unitary", "start": 6.5, "end": 7.0, "parent": 1, "counts": {}},
        {"name": "models.gate_time", "start": 6.6, "end": 6.7, "parent": 3, "counts": {}},
    ]
    layers = tracing.layer_metrics(spans)
    assert layers["dynamics.propagate_process.s"] == 5.0
    assert layers["dynamics.propagate_process.us_per_step"] == 5e4
    assert layers["analysis.fidelity.s"] == 2.5
    assert layers["analysis.fidelity.us_per_sample"] == 2.5e6 / 4
    assert layers["cli.self.s"] == 2.0
    assert layers["models.s"] == 0.5
    assert layers["dynamics.grid_steps"] == 100
    assert layers["dynamics.trajectory_mb"] == 2.0


def test_metric_tables_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_the_program():
    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "gate-cz", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert done.stdout == ""
