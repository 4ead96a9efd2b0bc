"""Minimal complex linear algebra for one- and two-qubit state vectors.

Two-qubit amplitudes use the fixed index convention ``index = 2*a + b``
where ``a`` labels qubit A (the left tensor factor) and ``b`` labels
qubit B.  Every other module inherits this convention; a 4-vector
``psi`` therefore reshapes to the 2x2 coefficient matrix
``M[a, b] = psi[2*a + b]``, which makes the partial traces

    rho_A = M @ M^dagger        (trace over B)
    rho_B = M^T @ conj(M)       (trace over A)

:func:`reduced_entries` is the one place these traces are computed, for one
vector or a stack, in real arithmetic in ``einsum``'s unfused order, and
:func:`reduced_pair` reads both matrices off its entries.  Which amplitude
products make each entry is the one table ``ENTRY_PAIRS``, which
``analysis.constraint_planes`` reads too.  Norm 1 is not required:
unnormalized images are traced as they are.  Two reduced pairs are compared
through their entries: :func:`frobenius_distances` is the one rule that turns
entry differences into the Frobenius distances of rho_A and rho_B.
"""

from __future__ import annotations

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

# Entry k is the real part, or for the ENTRY_IMAG (im01) entries the imaginary part, of
# sum_t psi[l] conj(psi[r]) over the amplitude rows (l, r) = ENTRY_PAIRS[k, t]
ENTRY_PAIRS = np.array([
    [[0, 0], [1, 1]], [[2, 2], [3, 3]], [[0, 2], [1, 3]], [[0, 2], [1, 3]],
    [[0, 0], [2, 2]], [[1, 1], [3, 3]], [[0, 1], [2, 3]], [[0, 1], [2, 3]],
])
ENTRY_IMAG = slice(3, None, 4)
# Rows (4, t, k) of the float view (re psi_0, im psi_0, ...) whose products reduced_entries sums:
# psi[l] conj(psi[r]) has real part x + y, x = re l * re r, y = im l * im r, and imaginary part
# x - y, x = im l * re r, y = re l * im r; the rows are those of left x, left y, right x, right y
_COLUMNS = 2 * ENTRY_PAIRS.T[[0, 0, 1, 1]] + np.array([0, 1, 0, 1])[:, None, None]
_COLUMNS[:2, :, ENTRY_IMAG] ^= 1
# The float views of rho_A and rho_B as columns of the entries, the lower off-diagonals' imaginary
# parts (8, 9) and a zero (10); einsum gives 0.0 - im01 there: -im01, but +0.0 for a zero
_MATRIX_PARTS = np.array([[0, 10, 2, 3, 2, 8, 1, 10], [4, 10, 6, 7, 6, 9, 5, 10]])


def reduced_entries(psi) -> np.ndarray:
    """The entries ENTRY_LABELS of ``(rho_A, rho_B)`` for one vector or a stack: shape (8,) or (N, 8).

    Computed in real arithmetic in ``einsum``'s order, unfused (numpy's complex multiply fuses on some
    hosts), so bit for bit as ``einsum`` gives them: the products x and y of the :data:`_COLUMNS` rows,
    x + y or x + (-y) for each t, their sum over t, and + 0.0 as ``einsum`` sums from +0.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim not in (1, 2) or psi.shape[-1] != 4:
        raise InvalidInputError(f"expected 4-component state vectors, got shape {psi.shape}")
    real = np.ascontiguousarray(psi).view(float).reshape(-1, 8)  # no copy unless psi is strided
    if not np.logical_and.reduce(np.isfinite(real), axis=None):
        raise InvalidInputError("state vector contains non-finite components")
    g = np.ascontiguousarray(real.T)[_COLUMNS]
    x, y = np.multiply(g[:2], g[2:], out=g[:2])
    np.negative(y[:, ENTRY_IMAG], out=y[:, ENTRY_IMAG])  # x + (-y) is x - y, bit for bit
    terms = np.add(x, y, out=x)
    out = terms[0] + terms[1]
    out += 0.0
    return out.T.reshape(psi.shape[:-1] + (8,))


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
    entries = reduced_entries(psi)
    parts = np.concatenate([entries, 0.0 - entries[..., ENTRY_IMAG], np.zeros(entries.shape[:-1] + (1,))], axis=-1)
    rho = np.take(parts, _MATRIX_PARTS, axis=-1).view(complex).reshape(entries.shape[:-1] + (2, 2, 2))
    return rho[..., 0, :, :], rho[..., 1, :, :]
