"""Multi-masker secret sharing with geometric decoding.

Alice encodes a message (x0, y0) as the state |(x0, y0)> and masks it
once per receiver, each time with a different masker from the
(alpha, theta) family.  Receiver k gets only the B-side reduced state
of their copy together with the (public) masker parameters.  One share
reveals nothing beyond a spherical circle the message must lie on: its
reduced state is I/2 + (c_k/2)(|0><1| + |1><0|) with c_k the masker's
invariant at the message, so the circle is the invariant's level set.

A scheme is encoded as one (k, 4, 2) stack of masker matrices; receivers
check their shares as one array and cut the sphere by all share planes
at once.  Depending on the scheme geometry the survivors are a unique
point (the message), a point pair that no number of further shares can
split (all-vertical schemes), or the whole circle when every share
repeats one constraint.

The decode tolerance bounds what is checked: each share's structure
must hold within it, and a candidate must lie within it of every share
plane.  Noise on an entry of rho_B moves that share's level by up to
twice the noise, so noise within the tolerance need not decode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import apply_matrix
from .bloch import (
    AngleState,
    Circle,
    Empty,
    SinglePoint,
    SphericalCircle,
    bloch_to_angles,
    canonical_planes,
    cut_sphere,
    mask_normals,
)
from .errors import CorruptShareError, InvalidInputError, InvalidSchemeError, check_positive_finite
from .linalg import reduced_pair
from .masking import MaskerParams, masker_matrices

DECODE_TOL = 1e-8


@dataclass(frozen=True)
class Scheme:
    """An ordered list of maskers Alice applies, one per receiver."""

    maskers: tuple[MaskerParams, ...]
    label: str = ""

    def __post_init__(self):
        maskers = tuple(self.maskers)
        if not maskers:
            raise InvalidSchemeError("a scheme needs at least one masker")
        object.__setattr__(self, "maskers", maskers)

    def __len__(self):
        return len(self.maskers)


@dataclass(frozen=True, eq=False)
class Share:
    """One receiver's holdings: masker parameters plus their reduced state.

    Honest shares have rho_b Hermitian with unit trace, both diagonal
    entries 1/2 and a real off-diagonal entry; that structure is forced
    by the masker family and is enforced when the share is consumed, not
    here, so tampered shares remain representable and detectable.
    """

    masker: MaskerParams
    rho_b: np.ndarray


def encode(message: AngleState, scheme: Scheme) -> list[Share]:
    """Mask the message with the scheme's maskers, built as one (k, 4, 2) stack, and collect the B-side shares."""
    m = masker_matrices(*np.array([(p.alpha, p.theta) for p in scheme.maskers]).T)
    _, rho_b = reduced_pair(apply_matrix(m, message.x, message.y))
    return [Share(masker=p, rho_b=r) for p, r in zip(scheme.maskers, rho_b)]


def _share_planes(shares: list[Share], tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Check all shares as one array; normals (k, 3) and levels c = 2 Re(rho_b[0,1]) of their level sets.
    tol must be positive and finite.  The first share that is not a finite 2x2 matrix, is off the masking structure by more than tol,
    or has |c| > 1 + tol raises CorruptShareError with its index; c is then clipped to [-1, 1]."""
    check_positive_finite(tol, f"tol={tol}")
    rhos = [np.asarray(s.rho_b, dtype=complex) for s in shares]
    # a wrong shape is reported as a non-finite matrix, with the same message
    rho = np.array([r if r.shape == (2, 2) else np.full((2, 2), np.nan) for r in rhos])
    malformed = ~np.isfinite(rho.view(float)).all(axis=(1, 2))
    rho[malformed] = 0.5  # keeps inf - inf out of the structure checks
    problems = [
        np.abs(rho[:, 0, 0] - 0.5),
        np.abs(rho[:, 1, 1] - 0.5),
        np.abs(rho[:, 0, 1] - rho[:, 1, 0].conj()),
        np.abs(rho[:, 0, 1].imag),
    ]
    worst = np.max(problems, axis=0)
    c = 2.0 * rho[:, 0, 1].real
    bad = malformed | (worst > tol) | (np.abs(c) > 1.0 + tol)
    if np.count_nonzero(bad):
        i = int(np.argmax(bad))
        if malformed[i]:
            raise CorruptShareError("share reduced state must be a finite 2x2 matrix", i)
        if worst[i] > tol:
            raise CorruptShareError(
                "share reduced state violates the masking structure "
                f"(worst deviation {worst[i]:.3e})",
                i,
            )
        raise CorruptShareError(f"share off-diagonal implies impossible level {float(c[i])!r}", i)
    alpha, theta = np.array([(s.masker.alpha, s.masker.theta) for s in shares]).T
    return mask_normals(alpha, theta), np.clip(c, -1.0, 1.0)


def share_constraint(share: Share, tol: float = DECODE_TOL) -> SphericalCircle:
    """The spherical circle one share pins the message to; the one-share case of :func:`_share_planes`."""
    normals, levels = _share_planes([share], tol)
    return SphericalCircle(normals[0], float(levels[0]))


# --- decoding ----------------------------------------------------------------


@dataclass(frozen=True)
class Unique:
    state: AngleState


@dataclass(frozen=True)
class TwoCandidates:
    first: AngleState
    second: AngleState


@dataclass(frozen=True, eq=False)
class AmbiguousCircle:
    circle: SphericalCircle


@dataclass(frozen=True)
class Inconsistent:
    pass


DecodeResult = Unique | TwoCandidates | AmbiguousCircle | Inconsistent


def decode(shares: list[Share], tol: float = DECODE_TOL) -> DecodeResult:
    """Check the shares as one array, cut the sphere by all their planes at once, classify what survives.

    One :func:`~qmask.bloch.cut_sphere` call makes the result independent
    of the share order.  Each share's structure is checked within
    ``tol``, and a candidate survives within ``tol`` of every share
    plane; noise on an entry of a share moves its level by up to twice
    that noise, so noise within ``tol`` need not decode.  A cut within
    sqrt(2 * tol) of one point, such as noisy tangent share circles,
    decodes Unique.  Inconsistent is a result, not an error: shares
    whose planes meet on the sphere nowhere within ``tol`` give it.
    """
    if not shares:
        raise InvalidInputError("decode needs at least one share")
    hit = cut_sphere(*canonical_planes(*_share_planes(shares, tol)), tol)
    if isinstance(hit, Circle):
        return AmbiguousCircle(hit.circle)
    if isinstance(hit, SinglePoint):
        return Unique(bloch_to_angles(hit.point))
    if isinstance(hit, Empty):
        return Inconsistent()
    first, second = sorted((bloch_to_angles(hit.p1), bloch_to_angles(hit.p2)), key=lambda s: (s.x, s.y))
    return TwoCandidates(first, second)


# --- preset schemes -----------------------------------------------------------


def fig1_axes() -> Scheme:
    """Three maskers pinning cos x, sin x cos y and sin x sin y in turn.

    Any three cooperating receivers recover the full Bloch point, so the
    message decodes uniquely everywhere off the poles.
    """
    return Scheme(
        (
            MaskerParams(0.0, 0.0),
            MaskerParams(np.pi / 2, 0.0),
            MaskerParams(np.pi / 2, np.pi / 2),
        ),
        label="fig1_axes",
    )


def _family(label: str, least: int, n: int, maskers) -> Scheme:
    """The scheme ``label:n`` of a lazy iterable of maskers, made only once n is at least ``least`` and its
    (n, 4, 2) complex stack, 128 * n bytes, is one numpy can size; InvalidSchemeError otherwise, naming the
    family by the label's last word."""
    if n < least:
        raise InvalidSchemeError(f"the {label.rpartition('_')[2]} family needs n >= {least}")
    if 128 * int(n) > np.iinfo(np.intp).max:
        raise InvalidSchemeError(f"scheme too large: n={n!r} maskers exceed an array's size limit")
    return Scheme(maskers, label=f"{label}:{n}")


def fig3_pole(n: int) -> Scheme:
    """Maskers (k*pi/n, 0) for k = 1..n-1; their circles through the north
    pole are pairwise tangent there, so any two shares of the message
    (0, 0) decode it uniquely."""
    return _family("fig3_pole", 3, n, (MaskerParams(k * np.pi / n, 0.0) for k in range(1, n)))


def fig2_vertical(n: int) -> Scheme:
    """Maskers (pi/2, k*pi/n) for k = 0..n-1, all with vertical circles.

    Every pair of the circles crosses in the same two points, the
    message and its Z-reflection, so no number of shares can decide
    between them.
    """
    return _family("fig2_vertical", 4, n, (MaskerParams(np.pi / 2, k * np.pi / n) for k in range(n)))


def general(n: int) -> Scheme:
    """Maskers (k*pi/n, k*pi/n) for k = 1..n-1.

    Three shares decode uniquely when their plane normals have full
    rank.  For even n the shares k, n/2 and n - k never do: n_k + n_{n-k}
    is parallel to n_{n/2}, so all three planes stay parallel to one line
    and a generic message only narrows to two candidates.  At n = 4 that
    is the only triple (n1 - n2 + n3 = 0).  A check of every n up to 41
    finds no other rank-deficient triple.
    """
    return _family("general", 4, n, (MaskerParams(k * np.pi / n, k * np.pi / n) for k in range(1, n)))


def preset_schemes() -> dict[str, str]:
    """Names and descriptions of the built-in scheme families."""
    return {
        "fig1_axes": "three axis maskers; any message decodes uniquely",
        "fig3_pole:N": "N-1 circles tangent at the north pole (N >= 3); two shares decode (0, 0)",
        "fig2_vertical:N": "N vertical circles (N >= 4); every subset leaves two candidates",
        "general:N": (
            "N-1 maskers (k*pi/N, k*pi/N) (N >= 4); three shares decode for N >= 5, "
            "except k, N/2, N-k for even N, which leave two candidates"
        ),
    }


def preset_scheme(spec: str) -> Scheme:
    """Resolve a scheme name such as ``fig1_axes`` or ``fig3_pole:8``."""
    name, _, arg = spec.partition(":")
    if name == "fig1_axes":
        if arg:
            raise InvalidSchemeError("fig1_axes takes no size argument")
        return fig1_axes()
    factories = {"fig3_pole": fig3_pole, "fig2_vertical": fig2_vertical, "general": general}
    if name not in factories:
        raise InvalidSchemeError(f"unknown scheme {spec!r}; presets: {sorted(factories) + ['fig1_axes']}")
    if not arg:
        raise InvalidSchemeError(f"scheme {name!r} needs a size, e.g. {name}:8")
    try:
        n = int(arg)
    except ValueError as exc:
        raise InvalidSchemeError(f"bad scheme size {arg!r}") from exc
    return factories[name](n)
