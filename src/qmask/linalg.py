"""Minimal complex linear algebra for one- and two-qubit state vectors.

Two-qubit amplitudes use the fixed index convention ``index = 2*a + b``
where ``a`` labels qubit A (the left tensor factor) and ``b`` labels
qubit B.  Every other module inherits this convention; a 4-vector
``psi`` therefore reshapes to the 2x2 coefficient matrix
``M[a, b] = psi[2*a + b]``, which makes the partial traces

    rho_A = M @ M^dagger        (trace over B)
    rho_B = M^T @ conj(M)       (trace over A)

:func:`trace_into` is the one place these traces are computed, in real
arithmetic in ``einsum``'s unfused order, into buffers its caller passes;
:func:`reduced_entries` validates one vector or a stack and runs it, and
:func:`reduced_pair` reads both matrices off its entries.  Which amplitude
products make each entry is the one table ``ENTRY_PAIRS``, from which the
kernel's tables are derived and which ``analysis.constraint_planes`` reads
too.  Norm 1 is not required:
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
# The terms the entries sum: the real part of psi[l] conj(psi[r]) for each distinct pair (l, r) of
# ENTRY_PAIRS, then the imaginary part for each distinct pair of the im01 entries.  _TERMS[t, k] is the
# term that pair t of entry k reads.
_RE_PAIRS, _TERMS = np.unique(ENTRY_PAIRS.reshape(-1, 2), axis=0, return_inverse=True)
_IM_PAIRS, _IM_TERMS = np.unique(ENTRY_PAIRS[ENTRY_IMAG].reshape(-1, 2), axis=0, return_inverse=True)
_TERMS = _TERMS.reshape(8, 2)
_TERMS[ENTRY_IMAG] = len(_RE_PAIRS) + _IM_TERMS.reshape(2, 2)
_TERMS = _TERMS.T.ravel()
# Rows of the parts (re psi_0, im psi_0, re psi_1, ...) whose products, left half times right half, are
# each term's x, then each term's y: x = re l * re r and y = im l * im r for a real part, x = im l * re r
# and y = re l * im r for an imaginary part; each of the 24 is a distinct product of two parts
_FACTORS = np.concatenate([
    2 * _RE_PAIRS[:, 0], 2 * _IM_PAIRS[:, 0] + 1, 2 * _RE_PAIRS[:, 0] + 1, 2 * _IM_PAIRS[:, 0],
    2 * _RE_PAIRS[:, 1], 2 * _IM_PAIRS[:, 1], 2 * _RE_PAIRS[:, 1] + 1, 2 * _IM_PAIRS[:, 1] + 1,
])
# The float views of rho_A and rho_B as columns of the entries, the lower off-diagonals' imaginary
# parts (8, 9) and a zero (10); einsum gives 0.0 - im01 there: -im01, but +0.0 for a zero
_MATRIX_PARTS = np.array([[0, 10, 2, 3, 2, 8, 1, 10], [4, 10, 6, 7, 6, 9, 5, 10]])


def trace_into(parts: np.ndarray, out: np.ndarray, work: np.ndarray) -> None:
    """Write the entries ENTRY_LABELS of ``(rho_A, rho_B)``, (8, n), into ``out``: the one kernel.

    ``parts`` (8, n) holds re psi_0, im psi_0, re psi_1, ... of n vectors, and ``work`` is (48, n) scratch.
    Each of the 24 distinct products is formed once (:data:`_FACTORS`); then, bit for bit as ``einsum``
    gives them and unfused (numpy's complex multiply fuses on some hosts), each term x + y or x - y,
    which is x + (-y), the sum of the two terms of each entry (:data:`_TERMS`), and + 0.0 as ``einsum``
    sums from +0.
    """
    # mode="clip" lets take write into ``work`` unbuffered; every index is in range
    parts.take(_FACTORS, axis=0, out=work, mode="clip")
    x, y = np.multiply(work[:24], work[24:], out=work[:24]).reshape(2, 12, -1)
    terms = work[24:36]
    np.add(x[:8], y[:8], out=terms[:8])
    np.subtract(x[8:], y[8:], out=terms[8:])
    halves = terms.take(_TERMS, axis=0, out=work[:16], mode="clip")
    np.add(halves[:8], halves[8:], out=out)
    np.add(out, 0.0, out=out)


def reduced_entries(psi) -> np.ndarray:
    """The entries ENTRY_LABELS of ``(rho_A, rho_B)`` for one vector or a stack: shape (8,) or (N, 8).

    Computed by :func:`trace_into`, bit for bit as ``einsum`` gives them.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim not in (1, 2) or psi.shape[-1] != 4:
        raise InvalidInputError(f"expected 4-component state vectors, got shape {psi.shape}")
    real = np.ascontiguousarray(psi).view(float).reshape(-1, 8)  # no copy unless psi is strided
    if not np.logical_and.reduce(np.isfinite(real), axis=None):
        raise InvalidInputError("state vector contains non-finite components")
    out = np.empty((8, real.shape[0]))
    trace_into(real.T, out, np.empty((48, real.shape[0])))
    return out.T.reshape(psi.shape[:-1] + (8,))


def frobenius_distances(diff, out=None) -> np.ndarray:
    """The rho_A and rho_B Frobenius norms, (2,) or (2, N), of ENTRY_LABELS differences (8,) or (8, N).

    Given ``out``, the norms are written there and ``diff`` is left holding its squares.
    """
    squares = np.multiply(diff, diff, out=None if out is None else diff)
    return np.sqrt(np.matmul(_SQUARED_WEIGHTS, squares, out=out), out=out)


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
