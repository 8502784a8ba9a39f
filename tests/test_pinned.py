"""Pinned outputs of the four benchmark command lines.

Each command is a workload of ``bench/run.py`` at its operating point
(Omega_m/2pi = 2 MHz, omega = 7.5 Omega_m), with the file-only keys it
passes in a config file.  The values were recorded at commit b0d5a51 from
the CSV each command writes, as printed to 12 significant digits, and each
holds to 1e-10.  A change of the integrator's arithmetic may move them by
its rounding, about 1e-12; a change that moves one by more than 1e-10
changes its pin here, with its reason.
"""

import numpy as np
import pytest

from rabsim import cli

TOLERANCE = 1e-10

OPERATING_POINT = ["--omega-m-mhz", "2", "--omega-ratio", "7.5"]


def _run(tmp_path, scenario, flags, config=None):
    """The (header, rows) of the CSV that one command line writes."""
    argv = [scenario, *OPERATING_POINT, *flags, "--out", str(tmp_path / "out.csv")]
    if config:
        conf = tmp_path / "scenario.conf"
        conf.write_text("".join(f"{key} = {value}\n" for key, value in config.items()))
        argv += ["--config", str(conf)]
    assert cli.main(argv) == 0
    return cli.read_csv(tmp_path / "out.csv")


def test_gate_cz_final_fidelity(tmp_path):
    # gate-fidelity --gate cz --gamma-khz 1.5 --dt-divisor 50
    header, rows = _run(tmp_path, "gate-fidelity",
                        ["--gate", "cz", "--gamma-khz", "1.5", "--dt-divisor", "50"])
    assert header == ["t_us", "fbar"] and len(rows) == 1885
    assert rows[-1, 0] == pytest.approx(3.76666666667, abs=1e-10)
    assert abs(rows[-1, 1] - 0.99107322326) <= TOLERANCE


def test_gamma_sweep_cnot_fidelities(tmp_path):
    # fidelity-vs-gamma --gate cnot --gamma-khz 2 --dt-divisor 50,
    # config gamma_points = 9
    header, rows = _run(tmp_path, "fidelity-vs-gamma",
                        ["--gate", "cnot", "--gamma-khz", "2", "--dt-divisor", "50"],
                        {"gamma_points": 9})
    assert header == ["gamma_khz", "fbar_final"]
    assert np.array_equal(rows[:, 0], np.linspace(0.0, 2.0, 9))
    pinned = [0.999752546148, 0.998692716362, 0.997637025286, 0.996585452644,
              0.995537978267, 0.9944945821, 0.993455244199, 0.992419944728, 0.99138866396]
    assert np.max(np.abs(rows[:, 1] - pinned)) <= TOLERANCE


def test_heatmap_cells(tmp_path):
    # heatmap --gamma-khz 0 --dt-divisor 100, config v_min = 10, v_max = 20,
    # w_min = 5, w_max = 10, resolution = 10
    header, rows = _run(tmp_path, "heatmap", ["--gamma-khz", "0", "--dt-divisor", "100"],
                        {"v_min": 10.0, "v_max": 20.0, "w_min": 5.0, "w_max": 10.0,
                         "resolution": 10})
    assert header == ["v_over_om", "w_over_om", "p_rr"] and len(rows) == 100
    cells = {(round(v, 6), round(w, 6)): p for v, w, p in rows}
    # Both corners on the ridge V = 2 omega, and the ridge cell between them.
    pinned = {(10.0, 5.0): 0.621331716428, (15.555556, 7.777778): 0.630507073709,
              (20.0, 10.0): 0.624418372646}
    for cell, value in pinned.items():
        assert abs(cells[cell] - value) <= TOLERANCE, cell


def test_populations_peak(tmp_path):
    # rab-populations --gamma-khz 0
    header, rows = _run(tmp_path, "rab-populations", ["--gamma-khz", "0"])
    assert header == ["t_us", "p_11", "p_rr"] and len(rows) == 1958
    peak = int(np.argmax(rows[:, 2]))
    assert rows[peak, 0] == pytest.approx(1.88408333333, abs=1e-10)
    assert abs(rows[peak, 2] - 0.995987549863) <= TOLERANCE
