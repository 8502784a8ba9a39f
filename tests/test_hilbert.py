import numpy as np
import pytest

from rabsim import hilbert
from rabsim.analysis import population
from rabsim.hilbert import G0, G1, RYD
from conftest import coordinates_of, matrices_of, random_hermitian


def test_basis_index_mapping():
    assert hilbert.index_of(G1, G1) == 4
    assert hilbert.index_of(RYD, RYD) == 8
    assert hilbert.index_of(G0, RYD) == 2
    assert [hilbert.index_of(m, n) for m in range(3) for n in range(3)] == list(range(9))


def test_ket_basis_vectors():
    np.testing.assert_array_equal(hilbert.ket(G1, G1), np.eye(9)[4])
    np.testing.assert_array_equal(hilbert.ket(RYD, RYD), np.eye(9)[8])
    assert hilbert.ket(G0, G1).conj() @ hilbert.ket(G1, G0) == 0


def test_kets_orthonormal():
    kets = np.array([hilbert.ket(m, n) for m in range(3) for n in range(3)])
    gram = kets.conj() @ kets.T
    assert np.max(np.abs(gram - np.eye(9))) <= 1e-14


def test_index_of_rejects_bad_levels():
    with pytest.raises(ValueError):
        hilbert.index_of(3, 0)


def test_embed_transition_moves_one_atom():
    lower1 = hilbert.embed_single_atom(hilbert.transition(G1, RYD), 1)
    np.testing.assert_allclose(lower1 @ hilbert.ket(RYD, G0), hilbert.ket(G1, G0))


def test_embed_identity():
    np.testing.assert_array_equal(hilbert.embed_single_atom(np.eye(3), 1), np.eye(9))
    np.testing.assert_array_equal(hilbert.embed_single_atom(np.eye(3), 2), np.eye(9))


def test_embed_projector_product_is_double_projector():
    p1 = hilbert.embed_single_atom(hilbert.transition(RYD, RYD), 1)
    p2 = hilbert.embed_single_atom(hilbert.transition(RYD, RYD), 2)
    np.testing.assert_allclose(p1 @ p2, hilbert.projector(RYD, RYD))


def test_embed_rejects_bad_input():
    with pytest.raises(ValueError):
        hilbert.embed_single_atom(np.eye(2), 1)
    with pytest.raises(ValueError):
        hilbert.embed_single_atom(np.eye(3), 3)


def test_embeds_on_different_atoms_commute(rng):
    for _ in range(10):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        comm = hilbert.commutator(
            hilbert.embed_single_atom(a, 1), hilbert.embed_single_atom(b, 2)
        )
        assert np.max(np.abs(comm)) <= 1e-14 * max(1.0, np.abs(a).max() * np.abs(b).max())


def test_commutator_identities(rng):
    a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    assert np.max(np.abs(hilbert.commutator(a, a))) == 0
    assert np.max(np.abs(hilbert.commutator(np.eye(9), a))) <= 1e-15 * np.abs(a).max()


def test_commutator_lowering_raising():
    # [|1><r| (x) I, |r><1| (x) I] = (|1><1| - |r><r|) (x) I, from 3x3 algebra.
    lower = hilbert.embed_single_atom(hilbert.transition(G1, RYD), 1)
    raise_ = hilbert.embed_single_atom(hilbert.transition(RYD, G1), 1)
    small = hilbert.transition(G1, RYD) @ hilbert.transition(RYD, G1) \
        - hilbert.transition(RYD, G1) @ hilbert.transition(G1, RYD)
    expected = np.kron(small, np.eye(3))
    np.testing.assert_allclose(hilbert.commutator(lower, raise_), expected, atol=1e-15)


def test_basis_projector_populations():
    for m in range(3):
        for n in range(3):
            rho = hilbert.projector(m, n)
            for mm in range(3):
                for nn in range(3):
                    expected = 1.0 if (m, n) == (mm, nn) else 0.0
                    assert population(rho, hilbert.ket(mm, nn)) == expected


def test_check_density_matrix_accepts_valid():
    hilbert.check_density_matrix(np.eye(9) / 9.0)
    hilbert.check_density_matrix(hilbert.projector(G1, G1))


@pytest.mark.parametrize(
    "rho, message",
    [
        (np.eye(9) / 9.0 + 1e-8 * np.triu(np.ones((9, 9)), 1) * 1j, "Hermitian"),
        (np.eye(9) / 8.0, "trace"),
        (np.diag([1.1, -0.1] + [0.0] * 7), "semidefinite"),
        (np.eye(3) / 3.0, "9x9"),
        (np.diag([np.nan] + [0.125] * 8), "non-finite"),
    ],
)
def test_check_density_matrix_rejects(rho, message):
    with pytest.raises(ValueError, match=message):
        hilbert.check_density_matrix(rho)


def test_coordinates_are_those_of_the_hermitian_basis(rng):
    rho = random_hermitian(rng)
    x = hilbert.real_coordinates(rho)
    assert x.dtype == np.float64
    assert np.max(np.abs(x - coordinates_of(rho))) <= 1e-15
    assert np.max(np.abs(hilbert.hermitian_matrices(x) - rho)) <= 1e-15
    assert np.max(np.abs(matrices_of(x) - rho)) <= 1e-15
