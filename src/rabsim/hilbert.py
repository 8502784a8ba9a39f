"""Fixed 9-dimensional Hilbert space of two three-level atoms.

Each atom has two ground states |0>, |1> and one Rydberg state |r>, with
level indices 0, 1, 2.  The two-atom basis state |mn> (atom 1 in m, atom 2
in n) sits at linear index ``3*m + n``, so the ordering is

    |00> |01> |0r> |10> |11> |1r> |r0> |r1> |rr>
      0    1    2    3    4    5    6    7    8

This ordering is a module constant; every operator and serialized matrix in
the package depends on it.  All operators are dense complex128 9x9 arrays.
"""

from __future__ import annotations

import numpy as np

# Single-atom level indices.
G0, G1, RYD = 0, 1, 2

N_LEVELS = 3
DIM = N_LEVELS * N_LEVELS

# Linear indices of the qubit (computational) subspace |00>, |01>, |10>, |11>.
QUBIT_INDICES = (0, 1, 3, 4)


def index_of(m: int, n: int) -> int:
    """Linear index of the two-atom basis state |mn>."""
    if not (0 <= m < N_LEVELS and 0 <= n < N_LEVELS):
        raise ValueError(f"level indices must be in 0..2, got ({m}, {n})")
    return N_LEVELS * m + n


def ket(m: int, n: int) -> np.ndarray:
    """Unit basis vector |mn> as a length-9 complex array."""
    psi = np.zeros(DIM, dtype=complex)
    psi[index_of(m, n)] = 1.0
    return psi


def projector(m: int, n: int) -> np.ndarray:
    """Rank-1 projector |mn><mn|."""
    psi = ket(m, n)
    return np.outer(psi, psi.conj())


def transition(a: int, b: int) -> np.ndarray:
    """Single-atom operator |a><b| as a 3x3 matrix."""
    op = np.zeros((N_LEVELS, N_LEVELS), dtype=complex)
    op[a, b] = 1.0
    return op


def embed_single_atom(op: np.ndarray, atom: int) -> np.ndarray:
    """Embed a 3x3 single-atom operator into the two-atom space.

    Returns ``op (x) I`` for atom 1 and ``I (x) op`` for atom 2, in the
    fixed basis ordering.
    """
    op = np.asarray(op, dtype=complex)
    if op.shape != (N_LEVELS, N_LEVELS):
        raise ValueError(f"expected a 3x3 operator, got shape {op.shape}")
    eye = np.eye(N_LEVELS, dtype=complex)
    if atom == 1:
        return np.kron(op, eye)
    if atom == 2:
        return np.kron(eye, op)
    raise ValueError(f"atom must be 1 or 2, got {atom}")


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose (on the last two axes for stacked operators)."""
    return np.conjugate(np.swapaxes(a, -1, -2))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix commutator ``a @ b - b @ a``."""
    return a @ b - b @ a


# Real coordinates of Hermitian n x n matrices, on the row-major indices of
# vec(X): x[n a + a] = X_aa, and for a < b, x[n a + b] = sqrt2 Re X_ab and
# x[n b + a] = sqrt2 Im X_ab.  They are the coefficients of X on the
# orthonormal basis |a><a|, (|a><b| + |b><a|)/sqrt2 at n a + b and
# i(|a><b| - |b><a|)/sqrt2 at n b + a, so the matrix unit |a><b| of vec(X)
# and the basis matrix of its index share the index, and X -> x is an
# isometry of the Frobenius norm.


def _hermitian_pairs(n: int):
    """(swap, upper, lower) over the n*n row-major indices: the index of the
    transposed entry, and the masks of the entries above and below the
    diagonal."""
    a, b = np.divmod(np.arange(n * n), n)
    return n * b + a, a < b, a > b


def real_coordinates(matrices: np.ndarray) -> np.ndarray:
    """Real coordinates (..., n*n) of Hermitian matrices (..., n, n)."""
    matrices = np.asarray(matrices)
    n = matrices.shape[-1]
    flat = matrices.reshape(matrices.shape[:-2] + (n * n,))
    swap, upper, lower = _hermitian_pairs(n)
    return np.where(lower, flat[..., swap].imag, flat.real) * np.where(upper | lower,
                                                                       np.sqrt(2.0), 1.0)


def hermitian_matrices(coordinates: np.ndarray) -> np.ndarray:
    """Hermitian matrices (..., n, n) of real coordinates (..., n*n)."""
    n = round(np.sqrt(coordinates.shape[-1]))
    swap, upper, lower = _hermitian_pairs(n)
    r = np.sqrt(0.5)
    index = np.arange(n * n)
    out = np.empty(coordinates.shape, dtype=complex)
    # Off the diagonal, a pair's real part sits at its upper index and its
    # imaginary part at its lower one.
    picked = np.take(coordinates, np.where(lower, swap, index), axis=-1)
    np.multiply(picked, np.where(upper | lower, r, 1.0), out=out.real)
    np.take(coordinates, np.where(upper, swap, index), axis=-1, out=picked, mode="clip")
    np.multiply(picked, np.where(upper, r, np.where(lower, -r, 0.0)), out=out.imag)
    return out.reshape(coordinates.shape[:-1] + (n, n))


#: Tolerances of :func:`check_density_matrix`: the largest entry of
#: rho - rho^dagger, the distance of the trace from 1, and how far below zero
#: the smallest eigenvalue may lie.
HERM_TOL = 1e-10
TRACE_TOL = 1e-8
EIG_TOL = 1e-8


def check_density_matrix(rho: np.ndarray) -> None:
    """Validate the density-matrix invariants, raising ValueError on failure.

    Checks finiteness, Hermiticity (max entry of rho - rho^dagger within
    :data:`HERM_TOL`), unit trace within :data:`TRACE_TOL` and positive
    semidefiniteness (smallest eigenvalue >= -:data:`EIG_TOL`).
    """
    rho = np.asarray(rho)
    if rho.shape != (DIM, DIM):
        raise ValueError(f"density matrix must be 9x9, got shape {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise ValueError("density matrix has a non-finite entry")
    herm_err = float(np.max(np.abs(rho - dagger(rho))))
    if not herm_err <= HERM_TOL:
        raise ValueError(f"density matrix not Hermitian: max deviation {herm_err:.3e}")
    trace_err = abs(np.trace(rho) - 1.0)
    if not trace_err <= TRACE_TOL:
        raise ValueError(f"density matrix trace off unity by {trace_err:.3e}")
    min_eig = float(np.linalg.eigvalsh(0.5 * (rho + dagger(rho)))[0])
    if not min_eig >= -EIG_TOL:
        raise ValueError(f"density matrix not positive semidefinite: min eigenvalue {min_eig:.3e}")
