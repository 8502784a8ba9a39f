"""Pinned outputs of the four benchmark command lines and of the eight
scenario defaults.

Each benchmark command is a workload of ``bench/run.py`` at its operating
point (Omega_m/2pi = 2 MHz, omega = 7.5 Omega_m), with the file-only keys it
passes in a config file; its values were recorded at commit b0d5a51.  The
scenario defaults are each scenario with only ``--gate``, at the same
operating point and divisor 400; their values were recorded at commit
e4bba93.  ``rab-populations`` at its defaults is the ``populations``
workload.  Every value is read from the CSV its command writes, as printed
to 12 significant digits, and holds to 1e-10.  A change of the integrator's
arithmetic may move them by its rounding, about 1e-12; a change that moves
one by more than 1e-10 changes its pin here, with its reason.
"""

import numpy as np
import pytest

from rabsim import cli

TOLERANCE = 1e-10

OPERATING_POINT = ["--omega-m-mhz", "2", "--omega-ratio", "7.5"]


def _run(tmp_path, argv, config=None):
    """The (header, rows) of the CSV that one command line writes."""
    argv = [*argv, "--out", str(tmp_path / "out.csv")]
    if config:
        conf = tmp_path / "scenario.conf"
        conf.write_text("".join(f"{key} = {value}\n" for key, value in config.items()))
        argv += ["--config", str(conf)]
    assert cli.main(argv) == 0
    return cli.read_csv(tmp_path / "out.csv")


def test_gate_cz_final_fidelity(tmp_path):
    # gate-fidelity --gate cz --gamma-khz 1.5 --dt-divisor 50
    header, rows = _run(tmp_path, ["gate-fidelity", *OPERATING_POINT,
                                   "--gate", "cz", "--gamma-khz", "1.5", "--dt-divisor", "50"])
    assert header == ["t_us", "fbar"] and len(rows) == 1885
    assert rows[-1, 0] == pytest.approx(3.76666666667, abs=1e-10)
    assert abs(rows[-1, 1] - 0.99107322326) <= TOLERANCE


def test_gamma_sweep_cnot_fidelities(tmp_path):
    # fidelity-vs-gamma --gate cnot --gamma-khz 2 --dt-divisor 50,
    # config gamma_points = 9
    header, rows = _run(tmp_path, ["fidelity-vs-gamma", *OPERATING_POINT,
                                   "--gate", "cnot", "--gamma-khz", "2", "--dt-divisor", "50"],
                        {"gamma_points": 9})
    assert header == ["gamma_khz", "fbar_final"]
    assert np.array_equal(rows[:, 0], np.linspace(0.0, 2.0, 9))
    pinned = [0.999752546148, 0.998692716362, 0.997637025286, 0.996585452644,
              0.995537978267, 0.9944945821, 0.993455244199, 0.992419944728, 0.99138866396]
    assert np.max(np.abs(rows[:, 1] - pinned)) <= TOLERANCE


def test_heatmap_cells(tmp_path):
    # heatmap --gamma-khz 0 --dt-divisor 100, config v_min = 10, v_max = 20,
    # w_min = 5, w_max = 10, resolution = 10
    header, rows = _run(tmp_path,
                        ["heatmap", *OPERATING_POINT, "--gamma-khz", "0", "--dt-divisor", "100"],
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
    header, rows = _run(tmp_path, ["rab-populations", *OPERATING_POINT, "--gamma-khz", "0"])
    assert header == ["t_us", "p_11", "p_rr"] and len(rows) == 1958
    peak = int(np.argmax(rows[:, 2]))
    assert rows[peak, 0] == pytest.approx(1.88408333333, abs=1e-10)
    assert abs(rows[peak, 2] - 0.995987549863) <= TOLERANCE


@pytest.mark.parametrize("gate, samples, t_end, pinned", [
    ("cz", 1967, 3.76666666667, 0.991099816681),
    ("cnot", 2001, 2.66666666667, 0.993475837124),
])
def test_default_gate_fidelity(tmp_path, gate, samples, t_end, pinned):
    # gate-fidelity --gate <gate>
    header, rows = _run(tmp_path, ["gate-fidelity", "--gate", gate])
    assert header == ["t_us", "fbar"] and len(rows) == samples
    assert rows[-1, 0] == pytest.approx(t_end, abs=1e-10)
    assert abs(rows[-1, 1] - pinned) <= TOLERANCE


@pytest.mark.parametrize("gate, pinned", [
    ("cz", [0.999905273839, 0.998417218731, 0.99693743166, 0.995465854935, 0.994002431317,
            0.992547104015, 0.991099816681, 0.989660513411, 0.988229138737]),
    ("cnot", [0.999773483193, 0.998713595574, 0.997657846859, 0.996606216767, 0.995558685134,
              0.994515231901, 0.993475837124, 0.992440480965, 0.991409143698]),
])
def test_default_gamma_sweep(tmp_path, gate, pinned):
    # fidelity-vs-gamma --gate <gate>
    header, rows = _run(tmp_path, ["fidelity-vs-gamma", "--gate", gate])
    assert header == ["gamma_khz", "fbar_final"]
    assert np.array_equal(rows[:, 0], np.linspace(0.0, 2.0, 9))
    assert np.max(np.abs(rows[:, 1] - pinned)) <= TOLERANCE


def test_default_cnot_populations_peak(tmp_path):
    # rab-populations --gate cnot.  At e4bba93 this run took m = 802 steps
    # per drive period, the even step count that landed its window on
    # t_end, and stored 1995 rows with the peak 0.496996851138 at 1.34995843724
    # us.  One lattice rule gives m = 800 and 1990 rows, so the samples fall
    # at other instants: the peak sample moved, while the final P_rr moved
    # by 7e-12.
    header, rows = _run(tmp_path, ["rab-populations", "--gate", "cnot"])
    assert header == ["t_us", "p_11", "p_rr"] and len(rows) == 1990
    peak = int(np.argmax(rows[:, 2]))
    assert rows[peak, 0] == pytest.approx(1.34933333333, abs=1e-10)
    assert abs(rows[peak, 2] - 0.496962907103) <= TOLERANCE


@pytest.mark.parametrize("gate, pinned", [
    ("cz", [0.621326393567, 0.633085719848, 0.624396916109]),
    ("cnot", [0.0777193949217, 0.0679136518399, 0.0612062889065]),
])
def test_default_heatmap_cells(tmp_path, gate, pinned):
    # heatmap --gate <gate>: 60x60 cells, V over [10, 20] and omega over
    # [5, 10] Omega_m.  Both corners on the ridge V = 2 omega, among them
    # V = 20, omega = 10, and the ridge cell (29, 29) between them.
    header, rows = _run(tmp_path, ["heatmap", "--gate", gate])
    assert header == ["v_over_om", "w_over_om", "p_rr"] and len(rows) == 3600
    cells = rows[[0, 29 * 60 + 29, 3599]]
    assert np.allclose(cells[:, :2], [[10.0, 5.0], [14.9152542373, 7.45762711864], [20.0, 10.0]],
                       rtol=0.0, atol=1e-10)
    assert np.max(np.abs(cells[:, 2] - pinned)) <= TOLERANCE
