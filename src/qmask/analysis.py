"""Maskable-set analysis of arbitrary single-qubit-to-two-qubit linear operators.

An operator is given by eight complex coefficients,

    |0> -> a0|00> + a1|01> + c0|10> + c1|11>
    |1> -> b0|00> + b1|01> + d0|10> + d1|11>,

or equivalently by the B-side sub-vectors mu0 = (a0, a1), mu1 = (c0, c1)
attached to the image of |0>, and nu0 = (b0, b1), nu1 = (d0, d1) for |1>.
Every array path takes one layout: the 4x2 matrix M = [[a0, b0], [a1, b1],
[c0, d0], [c1, d1]], whose columns are the images of |0> and |1> in the
2a+b amplitude order, or a (..., 4, 2) stack of such matrices.

Each real entry function of the two raw reduced matrices (diagonals,
real and imaginary parts of the upper off-diagonal, for rho_A and
rho_B) is an affine function of the Bloch point p = (X, Y, Z): with M the
4x2 matrix and s the input state, an entry sum_t psi[l_t] conj(psi[r_t]),
its rows (l_t, r_t) read from ``linalg.ENTRY_PAIRS`` as the reduced-state
kernel reads them, is s^dagger G s with G = sum_t outer(conj(M[r_t]), M[l_t]),
and since s s^dagger = (I + p . sigma)/2 it equals (tr G + p . tr(G sigma))/2.
The largest set of input states sharing both reduced matrices with an
anchor state is therefore the sphere cut by up to eight anchored
planes: a spherical circle, a pair of points, or a single point --
never the full sphere for a nonzero operator, which is asserted at
runtime.

Raw means unnormalized: membership compares the direct traces of the
mapped vector with no renormalization, so non-isometric operators are
analyzed exactly as their images come out.  Both conventions coincide
on isometries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bloch import (
    AngleState, Circle, MaskableClass, PointPair, SinglePoint,
    angles_to_bloch, cut_sphere, distance_to_circle, point_distances,
)
from .errors import InvalidInputError, InvariantViolationError
from .linalg import ENTRY_IMAG, ENTRY_LABELS, ENTRY_PAIRS

# Rank decisions on the stacked constraint normals use this absolute
# singular-value threshold after row normalization.
RANK_TOL = 1e-9

# I, X, Y, Z transposed, so that tr(G sigma) = sum(G * sigma^T)
_PAULI_T = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, 1j], [-1j, 0]], [[1, 0], [0, -1]]])

# Gram-matrix allowance for :attr:`GeneralLinearOp.is_isometry`.
ISOMETRY_TOL = 1e-12

# Both product-form residuals, at unit scale, must stay below this.
PRODUCT_FORM_TOL = 1e-10


def apply_matrix(m: np.ndarray, x, y) -> np.ndarray:
    """Image cos(x/2) m[:, 0] + e^{iy} sin(x/2) m[:, 1] of the state |(x, y)>: the angles' broadcast shape
    (floats or arrays) plus a trailing axis of 4 amplitudes; a (k, 4, 2) stack broadcasts against it."""
    w0 = np.cos(x / 2.0)
    w1 = np.exp(1j * y) * np.sin(x / 2.0)
    return w0[..., None] * m[..., 0] + w1[..., None] * m[..., 1]


def _blocks(m: np.ndarray) -> np.ndarray:
    """The sub-vectors [[mu0, nu0], [mu1, nu1]] of a 4x2 operator matrix, as a new (2, 2, 2) array."""
    return m.reshape(2, 2, 2).swapaxes(1, 2).copy()


@dataclass(frozen=True)
class GeneralLinearOp:
    """An arbitrary nonzero linear map from one qubit into two.

    The eight coefficient fields are stored once more, at construction, as the
    read-only 4x2 :attr:`matrix` that every array path reads; maskers are the
    operators whose :attr:`is_isometry` holds.

    The maskable set does not change when the operator is scaled, so it is
    decided at unit scale: the read-only :attr:`unit` is ``matrix / 2**exponent``,
    with 2**exponent the largest power of two not above the largest coefficient
    modulus.  The division is exact, and it keeps the quadratic reduced-matrix
    entries clear of under- and overflow.  A modulus that overflows, from parts
    that do not, is at least 2**1024, so the exponent is then taken from |m/2|.
    Like :attr:`matrix`, both take no part in equality, hashing or ``repr``.
    """

    a0: complex
    a1: complex
    b0: complex
    b1: complex
    c0: complex
    c1: complex
    d0: complex
    d1: complex
    matrix: np.ndarray = field(init=False, repr=False, compare=False)
    unit: np.ndarray = field(init=False, repr=False, compare=False)
    exponent: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.array([self.a0, self.b0, self.a1, self.b1, self.c0, self.d0, self.c1, self.d1], complex).reshape(4, 2)
        peak = np.abs(m.view(float)).max()  # of the real and imaginary parts, NaN if one is NaN
        if not math.isfinite(peak):
            raise InvalidInputError("operator coefficients must be finite")
        if peak == 0.0:
            raise InvalidInputError("the zero operator has no maskable-set analysis")
        modulus = np.abs(m).max()
        e = math.frexp(modulus)[1] - 1 if math.isfinite(modulus) else math.frexp(np.abs(m / 2).max())[1]
        for name, value in ("matrix", m), ("unit", np.ldexp(m.view(float), -e).view(complex)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "exponent", e)

    @property
    def coefficients(self) -> np.ndarray:
        """a0, a1, b0, b1, c0, c1, d0, d1: the sub-vectors mu0, nu0, mu1, nu1 of the module docstring,
        read from the matrix as (2, 2, 2) blocks [A-side half][column][B amplitude]."""
        return _blocks(self.matrix).ravel()

    @property
    def is_isometry(self) -> bool:
        """Whether the Gram matrix m^dagger m is the identity within ISOMETRY_TOL in every entry.

        An exponent of 1 or more means an entry of modulus 2 or more, whose column's squared norm, at least 4,
        fails the test; the Gram matrix, which could overflow, is formed only otherwise.
        """
        m = self.matrix
        return self.exponent < 1 and bool(np.abs(m.conj().T @ m - np.eye(2)).max() <= ISOMETRY_TOL)

    def apply(self, x, y) -> np.ndarray:
        """Image of the state |(x, y)>; see :func:`apply_matrix`."""
        return apply_matrix(self.matrix, x, y)

    @classmethod
    def from_matrix(cls, m) -> "GeneralLinearOp":
        """The operator of a 4x2 matrix, columns the images of |0> and |1>."""
        m = np.asarray(m, dtype=complex)
        if m.shape != (4, 2):
            raise InvalidInputError(f"operator matrix must be 4x2, got shape {m.shape}")
        return cls(*_blocks(m).ravel().tolist())

    @classmethod
    def from_isometry(cls, iso) -> "GeneralLinearOp":
        """An operator with the matrix of ``iso``; a masker already is one, so this copies it."""
        return cls.from_matrix(iso.matrix)


def _squared_norm(m: np.ndarray) -> float:
    """Squared Frobenius norm of a 4x2 matrix, summed in :attr:`~GeneralLinearOp.coefficients` order."""
    return float(np.sum(np.abs(_blocks(m).ravel()) ** 2))


def operator_scale(op: GeneralLinearOp) -> float:
    """Squared Frobenius norm of the 4x2 coefficient matrix.

    Entry functions are quadratic forms in the coefficients, so this is the natural magnitude unit
    for constraint rows and tolerance scaling (2-norm of the stacked constraint matrix stays below
    ~0.7x this).  Raises InvalidInputError when the sum overflows or underflows.
    """
    with np.errstate(over="ignore"):
        scale = _squared_norm(op.matrix)
    if not math.isfinite(scale):
        raise InvalidInputError("operator too large: its squared norm overflows")
    if scale < np.finfo(float).tiny:
        raise InvalidInputError("operator too small: its squared norm underflows")
    return scale


@dataclass(frozen=True, eq=False)
class AffineConstraint:
    """One real entry function as n . (X, Y, Z) + r over the Bloch sphere."""

    n: np.ndarray
    r: float
    label: str = ""


# --- maskable-set classification -------------------------------------------


def constraint_planes(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (8, 3) normals and 8 offsets of the entry functions of a 4x2 matrix, rows as ENTRY_LABELS.

    Row k is (tr G + p . tr(G sigma))/2 (see the module docstring), real part, or
    imaginary part for the im01 rows; exact when the products and sums are.
    """
    traces = np.einsum("kti,ktj,aij->ka", m[ENTRY_PAIRS[..., 1]].conj(), m[ENTRY_PAIRS[..., 0]], _PAULI_T) / 2.0
    planes = traces.real.copy()
    planes[ENTRY_IMAG] = traces.imag[ENTRY_IMAG]
    return planes[:, 1:], planes[:, 0]


def extract_constraints(op: GeneralLinearOp) -> list[AffineConstraint]:
    """The 8 affine entry functions of :func:`constraint_planes` as labelled constraints."""
    operator_scale(op)  # first, so an operator whose squared norm over- or underflows raises
    normals, r = constraint_planes(op.matrix)
    return [AffineConstraint(n, float(ri), label) for n, ri, label in zip(normals, r, ENTRY_LABELS)]


def maskable_set(op: GeneralLinearOp, anchor: AngleState) -> MaskableClass:
    """Classify the largest state set sharing the anchor's raw reduced pair.

    The set does not change when the operator is scaled, so it is computed
    from the operator's :attr:`~GeneralLinearOp.unit` matrix.  The anchored planes n_i . p = n_i . p0
    (rows normalized, rows below the noise floor dropped) cut the sphere at
    RANK_TOL, and a Circle or PointPair cut is the set.  Anything else, a cut
    within sqrt(2 * RANK_TOL) of a single point included, is the anchor alone.
    """
    m = op.unit
    normals = constraint_planes(m)[0]
    p0 = angles_to_bloch(anchor)
    row_norms = np.linalg.norm(normals, axis=1)
    floor = 1e-12 * _squared_norm(m)
    keep = normals[row_norms > floor] / row_norms[row_norms > floor, None]
    if keep.size == 0:
        raise InvariantViolationError(
            "all entry functions are constant: a nonzero operator cannot mask the full sphere"
        )
    hit = cut_sphere(keep, keep @ p0, RANK_TOL)
    return hit if isinstance(hit, (Circle, PointPair)) else SinglePoint(p0)


def class_distance(mask_class: MaskableClass, points) -> np.ndarray:
    """Euclidean distance from Bloch points (..., 3) to a classified maskable set, shape (...)."""
    p = np.asarray(points, dtype=float)
    if isinstance(mask_class, SinglePoint):
        return point_distances(p, mask_class.point)
    if isinstance(mask_class, PointPair):
        return np.minimum(point_distances(p, mask_class.p1), point_distances(p, mask_class.p2))
    if isinstance(mask_class, Circle):
        return distance_to_circle(mask_class.circle, p)
    raise InvalidInputError(f"not a maskable-set class: {mask_class!r}")


# --- product-form diagnosis -------------------------------------------------


@dataclass(frozen=True)
class ProductFormReport:
    """Degenerate-factorization test of an operator.

    An operator whose images both factor through the same first-qubit
    vector, |0> -> (|0> + lam |1>) x mu0 and |1> -> (|0> + lam |1>) x nu0,
    is characterized by vanishing cross inner products between the mu and
    nu sub-vectors (orthogonality residual) together with matching Gram
    data within each family (norm residual).  ``lam`` is recovered when
    the factorization holds and the mu0/nu0 pair is nonzero.
    """

    orthogonality_residual: float
    norm_residual: float
    is_product_form: bool
    lam: complex | None = None


def product_form_diagnosis(op: GeneralLinearOp) -> ProductFormReport:
    """Decided on the :attr:`~GeneralLinearOp.unit` matrix; the residuals are scaled back by 4**exponent exactly.

    Raises InvalidInputError when a residual overflows as it is scaled back.
    """
    m, e = op.unit, op.exponent
    (mu0, nu0), (mu1, nu1) = _blocks(m)
    cross = [
        np.vdot(nu0, mu0),
        np.vdot(nu1, mu1),
        np.vdot(nu1, mu0),
        np.vdot(nu0, mu1),
    ]
    gram = [
        np.vdot(mu1, mu0) - np.vdot(nu1, nu0),
        np.vdot(mu0, mu0) - np.vdot(nu0, nu0),
        np.vdot(mu1, mu1) - np.vdot(nu1, nu1),
    ]
    orth = float(max(abs(z) for z in cross))
    norm = float(max(abs(z) for z in gram))
    is_product = orth < PRODUCT_FORM_TOL and norm < PRODUCT_FORM_TOL
    lam = None
    if is_product:
        denom = float(np.vdot(mu0, mu0).real + np.vdot(nu0, nu0).real)
        if denom > PRODUCT_FORM_TOL:
            lam = complex((np.vdot(mu0, mu1) + np.vdot(nu0, nu1)) / denom)
    try:
        return ProductFormReport(math.ldexp(orth, 2 * e), math.ldexp(norm, 2 * e), is_product, lam)
    except OverflowError as exc:
        raise InvalidInputError("operator too large: its product-form residuals overflow") from exc

