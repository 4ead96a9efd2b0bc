"""Explicit qubit maskers and their maskable circles.

A masker is the two-parameter family of 4x2 isometries S(alpha, theta)
acting as

    |0> -> |0>|u0> + |1>|u1>,    |1> -> |0>|v0> + |1>|v1>

with

    u0 =  (1/sqrt2) cos(a/2) e^{i(t + pi/4)} (|0> + |1>)
    u1 =  (1/sqrt2) sin(a/2) e^{i(t - pi/4)} (|0> - |1>)
    v0 = -(1/sqrt2) sin(a/2) e^{ i pi/4}     (|0> + |1>)
    v1 =  (1/sqrt2) cos(a/2) e^{-i pi/4}     (|0> - |1>)

Applied to |(x, y)> the reduced states depend on the input only through
the scalar invariant

    hbar(x, y) = cos(a) cos(x) - sin(a) sin(x) cos(y - t)

namely rho_A = diag(1/2 + hbar/2, 1/2 - hbar/2) and rho_B = I/2 +
(hbar/2)(|0><1| + |1><0|).  The set where hbar is constant is a
spherical circle, so every spherical circle on the Bloch sphere is
masked by the member of the family sharing its plane normal.  A finite
set of states can be masked exactly when its Bloch points lie on one
circle, that is, are coplanar; any one, two or three states are.
:func:`masker_for_states` fits that plane to any number of states and
reports how far the worst point lies from it.

The masker is represented by its 4x2 isometry matrix, whose columns
are the images of |0> and |1>, not by a unitary dilation on the full
two-qubit space: with the ancilla input fixed, the 4x2 isometry is the
faithful object.  It is a :class:`~qmask.analysis.GeneralLinearOp` whose
``is_isometry`` holds, so maskers and arbitrary operators share one type
and one layout; a scheme of k maskers is built as one (k, 4, 2) stack
of those matrices by :func:`masker_matrices`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .bloch import (
    TWO_PI,
    AngleState,
    AngleStates,
    SphericalCircle,
    angles_to_bloch,
    canonical_mask_params,
    circle_from_mask_params,
    circle_through_points,
    real_number,
)
from .analysis import GeneralLinearOp, apply_matrix
from .errors import InvalidInputError, check_positive_finite
from .linalg import TOL_EQUALITY, frobenius_distances, reduced_entries


@dataclass(frozen=True, init=False)
class MaskerParams:
    """Masker family parameters, alpha in [0, pi) and theta in [0, 2pi), validated and set once in ``__init__``."""

    alpha: float
    theta: float

    def __init__(self, alpha: float, theta: float):
        a = alpha if type(alpha) is float else real_number(alpha)
        t = theta if type(theta) is float else real_number(theta)
        if not (0.0 <= a < np.pi and 0.0 <= t < TWO_PI):  # NaN fails too
            if not (math.isfinite(a) and math.isfinite(t)):
                raise InvalidInputError("masker parameters must be finite")
            if not (0.0 <= a < np.pi):
                raise InvalidInputError(f"alpha={a!r} outside [0, pi)")
            raise InvalidInputError(f"theta={t!r} outside [0, 2*pi)")
        # frozen: the fields are set once, past the dataclass's __setattr__
        self.__dict__["alpha"] = a
        self.__dict__["theta"] = t


@dataclass(frozen=True)
class MaskReport:
    """Outcome of a masking verification over a state set.

    ``ok`` holds exactly when both reduced-state deviations stay within
    the tolerance; ``witness`` names the first offending pair otherwise.
    """

    ok: bool
    max_deviation_a: float
    max_deviation_b: float
    witness: tuple[AngleState, AngleState] | None = None


def hbar(params: MaskerParams, s: AngleState) -> float:
    """The masking invariant cos(a) cos(x) - sin(a) sin(x) cos(y - t).

    Always in [-1, 1]; equals the dot product of the Bloch point with
    the plane normal of :func:`maskable_circle`.
    """
    return float(
        np.cos(params.alpha) * np.cos(s.x)
        - np.sin(params.alpha) * np.sin(s.x) * np.cos(s.y - params.theta)
    )


def masker_matrices(alpha, theta) -> np.ndarray:
    """The (k, 4, 2) stack of the masker matrices for length-k ``alpha``, ``theta``, each an isometry by
    its closed form."""
    a, t = np.asarray([alpha, theta], dtype=float)[:, :, None]
    ca, sa = np.cos(a / 2.0), np.sin(a / 2.0)
    # [[u0, v0], [u1, v1]] of the module docstring before their (|0> + |1>) or (|0> - |1>), which the signs apply
    phase = t * [1.0, 0.0, 1.0, 0.0] + [np.pi / 4, np.pi / 4, -np.pi / 4, -np.pi / 4]
    amplitudes = np.sqrt(2.0) / 2.0 * np.concatenate([ca, -sa, sa, ca], axis=1) * np.exp(1j * phase)
    return amplitudes.reshape(-1, 2, 2).repeat(2, axis=1) * np.array([[1.0], [1.0], [1.0], [-1.0]], dtype=complex)


def build_masker(params: MaskerParams) -> GeneralLinearOp:
    """The 4x2 isometry of one (alpha, theta) masker; see :func:`masker_matrices`."""
    return GeneralLinearOp.from_matrix(masker_matrices([params.alpha], [params.theta])[0])


def predicted_reduced(params: MaskerParams, s: AngleState) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form reduced pair (rho_A, rho_B) of the masked state.

    rho_A = diag(1/2 + h/2, 1/2 - h/2) and rho_B = I/2 + (h/2) X with
    h = hbar(params, s); both are Hermitian, trace one and PSD.
    """
    h = hbar(params, s)
    rho_a = np.array([[0.5 + h / 2.0, 0.0], [0.0, 0.5 - h / 2.0]], dtype=complex)
    rho_b = np.array([[0.5, h / 2.0], [h / 2.0, 0.5]], dtype=complex)
    return rho_a, rho_b


def maskable_circle(params: MaskerParams, anchor: AngleState) -> SphericalCircle:
    """The spherical circle of states this masker hides alongside the anchor."""
    return circle_from_mask_params(params.alpha, params.theta, hbar(params, anchor))


def verify_mask(op: GeneralLinearOp, states: Sequence[AngleState], tol: float = TOL_EQUALITY) -> MaskReport:
    """Check that all states produce identical reduced pairs under the operator, read as the ``xs`` and ``ys``
    of an :class:`~qmask.bloch.AngleStates`, into which any other sequence of states is read first.

    Every state is compared against the first (identity of marginals is
    transitive, so O(n) comparisons suffice); deviations are Frobenius
    distances, computed on the operator's ``unit`` matrix and scaled back by
    4**exponent exactly.  Raises InvalidInputError unless tol is a positive
    finite number, and when a deviation overflows as it is scaled back.
    """
    check_positive_finite(tol, f"tol={tol}")
    if not states:
        raise InvalidInputError("verify_mask needs at least one state")
    if not isinstance(states, AngleStates):
        states = AngleStates([s.x for s in states], [s.y for s in states])
    entries = reduced_entries(apply_matrix(op.unit, states.xs, states.ys))
    with np.errstate(over="ignore"):
        dev_a, dev_b = np.ldexp(frobenius_distances((entries - entries[0]).T), 2 * op.exponent)
    max_a, max_b = float(dev_a.max()), float(dev_b.max())
    if not math.isfinite(max(max_a, max_b)):
        raise InvalidInputError("operator too large: its reduced-state deviations overflow")
    ok = max_a <= tol and max_b <= tol
    offenders = np.flatnonzero((dev_a[1:] > tol) | (dev_b[1:] > tol))
    witness = (states[0], states[1 + int(offenders[0])]) if offenders.size else None
    return MaskReport(ok=ok, max_deviation_a=max_a, max_deviation_b=max_b, witness=witness)


def masker_for_states(states: list[AngleState]) -> tuple[MaskerParams, float, float]:
    """A masker for a non-empty list of states, its invariant level and the margin of its plane fit.

    The masker shares the normal of the least-squares circle of the states' Bloch points
    (:func:`~qmask.bloch.circle_through_points`) and the level is that circle's canonical offset.  A set of
    states can be masked exactly when its points lie on one circle: two points' invariants differ by at most
    twice the margin, so each deviation :func:`verify_mask` reports is at most sqrt(2) times it.  An empty
    list is InvalidInputError, from the fit.
    """
    circle, margin = circle_through_points([angles_to_bloch(s) for s in states])
    alpha, theta, cval = canonical_mask_params(circle)
    return MaskerParams(alpha, theta), cval, margin
