"""Minimal complex linear algebra for one- and two-qubit state vectors.

Two-qubit amplitudes use the fixed index convention ``index = 2*a + b``
where ``a`` labels qubit A (the left tensor factor) and ``b`` labels
qubit B.  Every other module inherits this convention; a 4-vector
``psi`` therefore reshapes to the 2x2 coefficient matrix
``M[a, b] = psi[2*a + b]``, which makes the partial traces

    rho_A = M @ M^dagger        (trace over B)
    rho_B = M^T @ conj(M)       (trace over A)

:func:`reduced_pair` is the one place these traces are computed, for a
single vector or a stack of them.  State vectors are plain complex
ndarrays of shape (2,) or (4,); reduced density matrices are (2, 2)
ndarrays.  Norm-1 is deliberately not required: general linear
operators map unit vectors to unnormalized images and the traces here
must report that faithfully.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

# Default tolerance of matrix-equality assertions; closed-form
# comparisons at double precision land far below it.
TOL_EQUALITY = 1e-10


def reduced_pair(psi) -> tuple[np.ndarray, np.ndarray]:
    """Both reduced matrices of a two-qubit pure state, or of a stack of them.

    ``psi`` has shape (4,) or (N, 4); the result is ``(rho_A, rho_B)``
    with shape (2, 2) or (N, 2, 2), where rho_A = Tr_B |psi><psi| has
    entry ``(a, a') = sum_b psi[2a+b] conj(psi[2a'+b])`` and
    rho_B = Tr_A |psi><psi| has entry ``(b, b') = sum_a psi[2a+b] conj(psi[2a+b'])``.
    Each is Hermitian and PSD, with trace equal to <psi|psi>.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim not in (1, 2) or psi.shape[-1] != 4:
        raise InvalidInputError(f"expected 4-component state vectors, got shape {psi.shape}")
    if not np.all(np.isfinite(psi.view(float))):
        raise InvalidInputError("state vector contains non-finite components")
    m = psi.reshape(-1, 2, 2)
    mc = m.conj()
    rho_a = np.einsum("nab,ncb->nac", m, mc)
    rho_b = np.einsum("nab,nac->nbc", m, mc)
    shape = psi.shape[:-1] + (2, 2)
    return rho_a.reshape(shape), rho_b.reshape(shape)


def mat_distance(a, b) -> float:
    """Frobenius distance between two 2x2 matrices.

    Symmetric, and zero exactly when the matrices are equal; used as the
    equality metric for reduced-state comparisons.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return float(np.linalg.norm(a - b))
