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


def real_superoperator(s: np.ndarray) -> np.ndarray:
    """Real part of T s T^dagger, for s acting on the row-major vec(X) of
    n x n matrices (last two axes n*n x n*n) and T the unitary that takes
    vec(X) to the real coordinates of a Hermitian X.

    For a Hermiticity-preserving s (a Lindblad generator) T s T^dagger is
    real, the matrix of s on the real coordinates.  For any s and real
    coordinates x, y, Re(y . T s T^dagger x) is this real matrix's form, so
    a real contraction with it reads the real part of a complex one.  Built
    by gathers over the transposed index pairs: T has two entries per row.
    """
    n = round(np.sqrt(s.shape[-1]))
    swap, upper, lower = _hermitian_pairs(n)
    # T y = scale * (w_self * y + w_swap * y[swap]), scale 1/sqrt2 off the
    # diagonal; the scales enter once per side, as exact products.
    w_self = np.where(lower, 1j, 1.0)
    w_swap = np.where(upper, 1.0, np.where(lower, -1j, 0.0))
    rows = w_self[:, np.newaxis] * s
    swapped = s[..., swap, :]
    swapped *= w_swap[:, np.newaxis]
    rows += swapped
    both = rows * w_self.conj()
    np.take(rows, swap, axis=-1, out=swapped, mode="clip")
    swapped *= w_swap.conj()
    both += swapped
    off = upper | lower
    both *= np.where(off[:, np.newaxis] & off, 0.5,
                     np.where(off[:, np.newaxis] | off, np.sqrt(0.5), 1.0))
    return np.ascontiguousarray(both.real)


def check_density_matrix(
    rho: np.ndarray,
    *,
    herm_tol: float = 1e-10,
    trace_tol: float = 1e-8,
    eig_tol: float = 1e-8,
) -> None:
    """Validate the density-matrix invariants, raising ValueError on failure.

    Checks finiteness, Hermiticity (max entry of rho - rho^dagger within
    ``herm_tol``), unit trace within ``trace_tol`` and positive
    semidefiniteness (smallest eigenvalue >= -``eig_tol``).
    """
    rho = np.asarray(rho)
    if rho.shape != (DIM, DIM):
        raise ValueError(f"density matrix must be 9x9, got shape {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise ValueError("density matrix has a non-finite entry")
    herm_err = float(np.max(np.abs(rho - dagger(rho))))
    if not herm_err <= herm_tol:
        raise ValueError(f"density matrix not Hermitian: max deviation {herm_err:.3e}")
    trace_err = abs(np.trace(rho) - 1.0)
    if not trace_err <= trace_tol:
        raise ValueError(f"density matrix trace off unity by {trace_err:.3e}")
    min_eig = float(np.linalg.eigvalsh(0.5 * (rho + dagger(rho)))[0])
    if not min_eig >= -eig_tol:
        raise ValueError(f"density matrix not positive semidefinite: min eigenvalue {min_eig:.3e}")
