"""Minimal complex linear algebra for one- and two-qubit state vectors.

Two-qubit amplitudes use the fixed index convention ``index = 2*a + b``
where ``a`` labels qubit A (the left tensor factor) and ``b`` labels
qubit B.  Every other module inherits this convention; a 4-vector
``psi`` therefore reshapes to the 2x2 coefficient matrix
``M[a, b] = psi[2*a + b]``, which makes the partial traces

    rho_A = M @ M^dagger        (trace over B)
    rho_B = M^T @ conj(M)       (trace over A)

:func:`_kernel` is the one place these traces are computed, for one vector
or a stack, in real arithmetic in ``einsum``'s unfused order (see
:func:`_columns`).  Norm 1 is not required: unnormalized images are traced
as they are.  Two reduced pairs are compared through their entries:
:func:`frobenius_distances` is the one rule that turns entry differences
into the Frobenius distances of rho_A and rho_B.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .errors import InvalidInputError

# Default tolerance of matrix-equality assertions; closed-form
# comparisons at double precision land far below it.
TOL_EQUALITY = 1e-10

# The floats that determine a pair of Hermitian matrices with real diagonals;
# each matrix holds its off-diagonal twice, so the Frobenius norm of a pair
# difference is the norm of the entry difference times ENTRY_WEIGHTS.
ENTRY_LABELS = (
    "rhoA.re00", "rhoA.re11", "rhoA.re01", "rhoA.im01",
    "rhoB.re00", "rhoB.re11", "rhoB.re01", "rhoB.im01",
)
ENTRY_WEIGHTS = np.array([1.0, 1.0, np.sqrt(2), np.sqrt(2), 1.0, 1.0, np.sqrt(2), np.sqrt(2)])
# Row k sums the squared weighted entry differences of rho_A (k = 0) or rho_B (k = 1)
_SQUARED_WEIGHTS = np.kron(np.eye(2), ENTRY_WEIGHTS[:4] ** 2)


def _columns(slots) -> np.ndarray:
    """Gather columns for :func:`_kernel` of slots (matrix, i, j, imag): parts of rho_A[i, j] or rho_B[i, j].

    A slot sums over the traced index t = 0, 1 the real part x + y or the imaginary part
    x - y of u conj(v), u = psi[l], v = psi[r]: x = ur*vr, y = ui*vi or x = ui*vr, y = ur*vi.
    That is ``einsum``'s order, unfused (numpy's complex multiply fuses on some hosts).
    Columns index the real view (re psi_0, im psi_0, ...) as left x, left y, right x, right y.
    """
    blocks = ([], [], [], [])
    for t in (0, 1):
        for matrix, i, j, imag in slots:
            l, r = (2 * i + t, 2 * j + t) if matrix == 0 else (2 * t + i, 2 * t + j)
            for block, col in zip(blocks, (2 * l + imag, 2 * l + 1 - imag, 2 * r, 2 * r + 1)):
                block.append(col)
    return np.array(sum(blocks, []))


# (columns, imaginary slots) for the float views of both matrices, and for ENTRY_LABELS
_SLOTS = list(product((0, 1), repeat=4))
_MATRICES = _columns(_SLOTS), slice(1, None, 2)
_ENTRIES = _columns([_SLOTS[k] for k in (0, 6, 2, 3, 8, 14, 10, 11)]), slice(3, None, 4)


def _kernel(psi, columns: np.ndarray, imag: slice) -> np.ndarray:
    """The slots of a :func:`_columns` table for every vector, (slots, N); + 0.0 as ``einsum`` sums from +0."""
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim not in (1, 2) or psi.shape[-1] != 4:
        raise InvalidInputError(f"expected 4-component state vectors, got shape {psi.shape}")
    real = psi.view(float).reshape(-1, 8)
    if not np.logical_and.reduce(np.isfinite(real), axis=None):
        raise InvalidInputError("state vector contains non-finite components")
    n = len(columns) // 8
    g = np.ascontiguousarray(real.T)[columns]
    p = np.multiply(g[: 4 * n], g[4 * n :], out=g[: 4 * n])
    x, y = p[: 2 * n], p[2 * n :]
    np.negative(y[imag], out=y[imag])  # x + (-y) is x - y, bit for bit
    terms = np.add(x, y, out=x)
    out = terms[:n] + terms[n:]
    out += 0.0
    return out


def reduced_entries(psi) -> np.ndarray:
    """The entries ENTRY_LABELS of :func:`reduced_pair`, bit for bit: shape (8,) or (N, 8)."""
    psi = np.asarray(psi)
    return _kernel(psi, *_ENTRIES).T.reshape(psi.shape[:-1] + (8,))


def frobenius_distances(diff) -> np.ndarray:
    """The rho_A and rho_B Frobenius norms, (2,) or (2, N), of ENTRY_LABELS differences (8,) or (8, N)."""
    return np.sqrt(_SQUARED_WEIGHTS @ (diff * diff))


def reduced_pair(psi) -> tuple[np.ndarray, np.ndarray]:
    """``(rho_A, rho_B)`` of a two-qubit pure state, or of a stack of them.

    ``psi`` has shape (4,) or (N, 4); the result, (2, 2) or (N, 2, 2) each, is
    rho_A = Tr_B |psi><psi| with entry ``(a, a') = sum_b psi[2a+b] conj(psi[2a'+b])``
    and rho_B = Tr_A |psi><psi| with entry ``(b, b') = sum_a psi[2a+b] conj(psi[2a+b'])``.
    Each is Hermitian and PSD, with trace equal to <psi|psi>.
    """
    psi = np.asarray(psi)
    rows = _kernel(psi, *_MATRICES).reshape(2, 8, -1).transpose(0, 2, 1)
    rho = np.ascontiguousarray(rows).view(complex).reshape((2,) + psi.shape[:-1] + (2, 2))
    return rho[0], rho[1]


def mat_distance(a, b) -> float:
    """Frobenius distance between two 2x2 matrices.

    Symmetric, and zero exactly when the matrices are equal; used as the
    equality metric for reduced-state comparisons.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return float(np.linalg.norm(a - b))
