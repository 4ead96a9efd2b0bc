"""Bloch-sphere geometry: angle coordinates, spherical circles, plane cuts.

A pure qubit state is parametrized as

    |(x, y)> = cos(x/2) |0> + e^{iy} sin(x/2) |1>,   x in [0, pi], y in [0, 2pi)

and sits on the unit sphere at (X, Y, Z) = (sin x cos y, sin x sin y, cos x),
so |0> is the north pole and |1> the south pole.  Both poles use the
canonical representative y = 0, which makes (x, y) <-> sphere a bijection.

A spherical circle is the intersection of a plane ``n . p = c`` (unit
normal n, |c| <= 1) with the unit sphere.  Because (n, c) and (-n, -c)
describe the same point set, circles are stored in a canonical
orientation: c > 0, or when c is essentially zero, first nonzero normal
component positive.  All circle-equality tests compare canonical forms.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import EmptyCircleError, InvalidInputError

TWO_PI = 2.0 * np.pi

# Orientation tie-break threshold for |c| ~ 0; double-precision geometry
# noise at unit scale sits far below it.
CANON_EPS = 1e-12


@dataclass(frozen=True, init=False)
class AngleState:
    """A pure qubit state in Bloch angle coordinates (x, y).

    The one ``__init__`` validates and sets each field once.  Range bounds
    are enforced there: coordinates inside x in [0, pi], y in [0, 2pi)
    take one test, and only the others are checked for finiteness and
    sub-epsilon excursions.  Exact poles (x = 0 or x = pi) are
    canonicalized to y = 0.
    """

    x: float
    y: float

    def __init__(self, x: float, y: float):
        x = (x if type(x) is float else real_number(x)) + 0.0  # clears negative zeros
        y = (y if type(y) is float else real_number(y)) + 0.0
        if not (0.0 <= x <= np.pi and 0.0 <= y < TWO_PI):  # NaN fails too
            if not (math.isfinite(x) and math.isfinite(y)):
                raise InvalidInputError("angle coordinates must be finite")
            # absorb sub-epsilon range excursions from upstream arithmetic
            if -1e-12 <= x < 0.0:
                x = 0.0
            if np.pi < x <= np.pi + 1e-12:
                x = float(np.pi)
            if -1e-12 <= y < 0.0:
                y = 0.0
            if TWO_PI <= y <= TWO_PI + 1e-12:
                y = 0.0
            if not (0.0 <= x <= np.pi):
                raise InvalidInputError(f"x={x!r} outside [0, pi]")
            if not (0.0 <= y < TWO_PI):
                raise InvalidInputError(f"y={y!r} outside [0, 2*pi)")
        if x == 0.0 or x == np.pi:
            y = 0.0
        # frozen: the fields are set once, past the dataclass's __setattr__
        self.__dict__["x"] = x
        self.__dict__["y"] = y


@dataclass(frozen=True, eq=False, init=False)
class AngleStates(Sequence):
    """A read-only sequence of states held as two float arrays, ``xs`` and ``ys``, with no object per state.
    Every pair gets the fields :class:`AngleState` gives it: pairs inside x in [0, pi], y in [0, 2pi) take one
    vectorized test and only the others go through ``AngleState``, in index order, for its absorptions and its
    errors; then exact poles get y = 0.  An index gives an ``AngleState``, a slice an ``AngleStates``."""

    xs: np.ndarray
    ys: np.ndarray

    def __init__(self, xs, ys):
        x, y = (real_array(v).reshape(-1) + 0.0 for v in (xs, ys))  # fresh arrays, negative zeros cleared
        if x.shape != y.shape:
            raise InvalidInputError(f"expected as many x as y coordinates, got {x.size} and {y.size}")
        for k in np.flatnonzero(~((0.0 <= x) & (x <= np.pi) & (0.0 <= y) & (y < TWO_PI))).tolist():  # NaN too
            s = AngleState(x[k], y[k])
            x[k], y[k] = s.x, s.y
        y[(x == 0.0) | (x == np.pi)] = 0.0
        for a in (x, y):
            a.setflags(write=False)
        self.__dict__.update(xs=x, ys=y)

    def __len__(self) -> int:
        return len(self.xs)

    def __getitem__(self, index):
        return (AngleStates if isinstance(index, slice) else AngleState)(self.xs[index], self.ys[index])

    def __iter__(self):
        return map(AngleState, self.xs.tolist(), self.ys.tolist())


def real_number(value) -> float:
    """``float(value)``, the one reading rule for the real scalars the public functions take; a complex number,
    Python's or numpy's, is InvalidInputError, as :func:`real_array` rejects a complex array."""
    if isinstance(value, float) or not isinstance(value, (complex, np.complexfloating)):
        return float(value)
    raise InvalidInputError(f"expected a real number, got {type(value).__name__}")


def real_array(values) -> np.ndarray:
    """``values`` as a float array: the one reading rule for the real stacks the public functions take.

    InvalidInputError unless numpy reads them as one array of bool, integer or float numbers, so a
    complex array is rejected rather than cut to its real parts.  A float64 array comes back as itself.
    """
    try:
        a = np.asarray(values)
    except (TypeError, ValueError) as exc:  # a ragged stack, say
        raise InvalidInputError(f"expected an array of real numbers: {exc}") from exc
    if a.dtype.kind not in "biuf":
        raise InvalidInputError(f"expected real numbers, got an array of {a.dtype}")
    return a.astype(float, copy=False)


def _norms(p: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, rounded as the 1-D ``np.linalg.norm`` rounds them."""
    return np.sqrt(p[..., None, :] @ p[..., :, None])[..., 0, 0]


def column_norms(d0, d1, d2) -> np.ndarray:
    """Euclidean norms of the rows (d0, d1, d2) as sqrt((d0^2 + d1^2) + d2^2): ``np.linalg.norm(axis=-1)`` bit for bit."""
    return np.sqrt((np.square(d0) + np.square(d1)) + np.square(d2))


def point_distances(p, q) -> np.ndarray:
    """Euclidean distances from points (..., 3) to the point q, shape (...), taken column by column."""
    return column_norms(*(p[..., k] - q[k] for k in range(3)))


def bloch_points(xs, ys) -> np.ndarray:
    """Points (sin x cos y, sin x sin y, cos x) of broadcast angles, shape + (3,), one coordinate a block."""
    return trig_points(np.sin(xs), np.cos(xs), np.cos(ys), np.sin(ys))


def trig_points(sin_x, cos_x, cos_y, sin_y) -> np.ndarray:
    """The points of :func:`bloch_points` from the sines and cosines of their angles: its one formula."""
    px = sin_x * cos_y
    points = np.empty((3,) + px.shape)
    points[0], points[1], points[2] = px, sin_x * sin_y, cos_x
    return points.transpose((*range(1, points.ndim), 0))


def bloch_angles(points) -> tuple[np.ndarray, np.ndarray]:
    """Angle coordinates (xs, ys) of a unit 3-vector or an (N, 3) stack; inverse of bloch_points.

    Every point must be unit within 1e-9.  ys is mapped into [0, 2pi), and
    points within 1e-12 of a pole come back as the exact pole with y = 0.
    """
    p = real_array(points)
    if p.ndim not in (1, 2) or p.shape[-1] != 3:
        raise InvalidInputError("expected a 3-vector or an (N, 3) stack of them")
    norms = _norms(p)
    off = ~(np.abs(norms - 1.0) <= 1e-9)  # also flags non-finite points
    if np.count_nonzero(off):  # cheaper than .any() on a single point
        raise InvalidInputError(f"point is not on the unit sphere: |p| = {float(np.extract(off, norms)[0])}")
    # atan2 of the transverse radius keeps full precision near the poles, where
    # arccos(Z) cannot resolve polar angles below ~1e-8.  Below 1e-12 the azimuth
    # is rounding noise: masks (cheaper than np.where) zero the radius and y.
    transverse = np.hypot(p[..., 0], p[..., 1])
    pole = transverse < 1e-12
    ys = np.arctan2(p[..., 1], p[..., 0]) % TWO_PI
    return np.arctan2(transverse * ~pole, p[..., 2]), ys * ~(pole | (ys >= TWO_PI))


def angles_to_bloch(s: AngleState) -> np.ndarray:
    """Unit sphere point of a state; see :func:`bloch_points`."""
    return bloch_points(s.x, s.y)


def bloch_to_angles(p) -> AngleState:
    """The state at one unit 3-vector; see :func:`bloch_angles`."""
    if np.shape(p) != (3,):
        raise InvalidInputError("expected a 3-vector")
    return AngleState(*bloch_angles(p))


def canonical_planes(normals: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Planes ``n . p = c`` ((k, 3) normals) as unit normals and offsets in [-1, 1], in the canonical
    orientation of the module docstring; a plane is flipped as a whole, normal and offset, so each keeps its
    point set, also where |c| <= CANON_EPS and the normal decides."""
    norms = _norms(normals)
    if np.count_nonzero(norms < 1e-12):
        raise InvalidInputError("circle normal must be nonzero")
    n = normals / norms[:, None]
    c = offsets / norms
    off = np.abs(c) > 1.0 + 1e-12
    if np.count_nonzero(off):
        raise EmptyCircleError(f"plane offset {float(np.extract(off, c)[0])} misses the unit sphere")
    c = np.minimum(np.maximum(c, -1.0), 1.0)
    tie = np.abs(c) <= CANON_EPS
    # 4 s0 + 2 s1 + s2 has the sign of the first nonzero s_i in {-1, 0, 1}
    first = (np.sign(n) * (np.abs(n) > CANON_EPS)) @ [4.0, 2.0, 1.0]
    flip = np.where(tie, first, c) < 0.0
    return np.where(flip[:, None], -n, n) + 0.0, np.where(flip, -c, c) + 0.0  # + 0.0 clears -0.0


@dataclass(frozen=True, eq=False)
class SphericalCircle:
    """Plane-sphere intersection: unit normal ``n`` and offset ``c`` with |c| <= 1.

    Construction normalizes and canonicalizes the orientation, so two
    SphericalCircle values describe the same point set exactly when
    their fields agree (up to float tolerance); compare with
    :func:`circles_equal`.
    """

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        n = real_array(self.normal)
        c = real_number(self.offset)
        if n.shape != (3,) or not np.isfinite(n).all() or not np.isfinite(c):
            raise InvalidInputError("circle requires a finite 3-vector normal and finite offset")
        (n,), (c,) = canonical_planes(n[None], np.array([c]))
        n.setflags(write=False)
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "offset", float(c))

    @property
    def radius(self) -> float:
        return float(np.sqrt(max(0.0, 1.0 - self.offset**2)))

    @property
    def center(self) -> np.ndarray:
        """Center of the circle in 3-space (foot of the plane)."""
        return self.offset * self.normal

    def plane_residual(self, p):
        """|n . p - c| for a 3-vector or an (N, 3) stack of them."""
        p = real_array(p)
        return np.abs(p @ self.normal - self.offset)

    def __repr__(self):
        n = self.normal
        return f"SphericalCircle(n=({n[0]:.6g}, {n[1]:.6g}, {n[2]:.6g}), c={self.offset:.6g})"


def circles_equal(a: SphericalCircle, b: SphericalCircle, tol: float = 1e-9) -> bool:
    """Whether two canonical circles describe the same point set."""
    if np.linalg.norm(a.normal - b.normal) <= tol and abs(a.offset - b.offset) <= tol:
        return True
    # opposite orientation can survive canonicalization only in the |c| ~ 0 tie-break zone
    return np.linalg.norm(a.normal + b.normal) <= tol and abs(a.offset + b.offset) <= tol


def distance_to_circle(circle: SphericalCircle, p) -> np.ndarray:
    """Euclidean 3-space distance from points (..., 3) to the circle's point set, shape (...).

    A degenerate point circle reduces to plain point distance.
    """
    p = real_array(p)
    height = p @ circle.normal
    rho = column_norms(*(p[..., k] - height * circle.normal[k] for k in range(3)))
    return np.sqrt((height - circle.offset) ** 2 + (rho - circle.radius) ** 2)


def circle_from_mask_params(alpha: float, theta: float, cval: float) -> SphericalCircle:
    """The level set {p : cos(a) Z - sin(a) cos(t) X - sin(a) sin(t) Y = cval}.

    This is the spherical circle carved out by holding the masking
    invariant of the (alpha, theta) family at the value ``cval``.
    """
    alpha, theta, cval = real_number(alpha), real_number(theta), real_number(cval)
    if not (math.isfinite(alpha) and math.isfinite(theta) and math.isfinite(cval)):
        raise InvalidInputError("mask parameters must be finite")
    if abs(cval) > 1.0 + 1e-12:
        raise EmptyCircleError(f"level value {cval} outside [-1, 1]: empty circle")
    return SphericalCircle(mask_normals(alpha, theta), min(max(cval, -1.0), 1.0))


def mask_normals(alpha, theta) -> np.ndarray:
    """Level-set normals (-sin a cos t, -sin a sin t, cos a): shape (3,) for floats, (k, 3) for arrays."""
    sa = np.sin(alpha)
    return np.array([-sa * np.cos(theta), -sa * np.sin(theta), np.cos(alpha)]).T


def canonical_mask_params(circle: SphericalCircle) -> tuple[float, float, float]:
    """Invert :func:`circle_from_mask_params` up to canonical orientation.

    Returns (alpha, theta, cval) with alpha in [0, pi) and theta in
    [0, 2pi) whose level circle at cval is the given one.  Horizontal
    planes (normal along +-Z) come back with alpha = 0 and theta = 0;
    great circles (cval ~ 0) pick the representative with theta in [0, pi).
    """
    n = circle.normal
    c = circle.offset
    # the (alpha, theta) normals exclude -Z; flip orientation to reach it
    if n[2] < -1.0 + 1e-15 and np.hypot(n[0], n[1]) < 1e-15:
        n, c = -n, -c
    rho = np.hypot(n[0], n[1])
    if rho < 1e-15:
        alpha, theta = 0.0, 0.0
    else:
        alpha = float(np.arctan2(rho, n[2]))
        theta = float(np.arctan2(-n[1], -n[0]) % TWO_PI)
    # great circles: both orientations parametrize the same point set;
    # use the one with theta in [0, pi)
    if abs(c) <= CANON_EPS and theta >= np.pi:
        alpha = float(np.pi - alpha)
        theta = float(theta - np.pi)
        c = -c
    return alpha, theta, float(c) + 0.0


def circle_through_points(points) -> tuple[SphericalCircle, float]:
    """The least-squares circle of a (k, 3) stack of unit points, k >= 1, and its margin.

    The fitted plane ``n . p = c`` passes through the points' centroid, and its normal is the last
    right-singular vector of the centred points; the margin is the largest |n . p - c|, and the circle is that
    plane as :class:`SphericalCircle` orients it.  Points on one circle, and so any one, two or three points,
    give a margin of rounding size; the margin is reported, not decided on.  Anything but a finite stack, or
    points whose centring overflows, is InvalidInputError.
    """
    p = real_array(points)
    if p.ndim != 2 or p.shape[1] != 3 or not len(p):
        raise InvalidInputError(f"expected a (k, 3) stack of points with k >= 1, got shape {p.shape}")
    with np.errstate(all="ignore"):  # a non-finite point, or a centring that overflows, is caught below
        centroid = p.mean(axis=0)
        centred = p - centroid
    if not np.isfinite(centred).all():
        raise InvalidInputError("points must be finite, and so must their differences from their centroid")
    normal = np.linalg.svd(centred)[2][-1]
    return SphericalCircle(normal, normal @ centroid), float(np.abs(centred @ normal).max())


# --- the sphere cut by a stack of planes -------------------------------------


@dataclass(frozen=True, eq=False)
class Circle:
    circle: SphericalCircle


@dataclass(frozen=True, eq=False)
class PointPair:
    p1: np.ndarray
    p2: np.ndarray


@dataclass(frozen=True, eq=False)
class SinglePoint:
    point: np.ndarray


@dataclass(frozen=True)
class Empty:
    pass


MaskableClass = SinglePoint | PointPair | Circle


def _polish(start: np.ndarray, normals: np.ndarray, offsets: np.ndarray, tol: float) -> np.ndarray:
    """Gauss-Newton steps on the planes plus the sphere, from ``start``.

    Directions with singular values at or below ``tol`` are dropped, not
    inverted: planes that agree within ``tol`` would only amplify noise.
    """
    q = start
    for _ in range(8):
        jac = np.vstack([normals, q])
        residual = np.append(offsets - normals @ q, (1.0 - q @ q) / 2.0)
        u, s, vt = np.linalg.svd(jac, full_matrices=False)
        keep = s > tol
        step = vt[keep].T @ ((u[:, keep].T @ residual) / s[keep])
        q = q + step
        if np.linalg.norm(step) < 1e-15:
            break
    return q / np.linalg.norm(q)


def cut_sphere(normals, offsets, tol: float) -> MaskableClass | Empty:
    """The unit sphere cut by the planes ``normals[i] . p = offsets[i]``.

    ``normals`` is a (k, 3) stack of unit rows, sorted first so the
    result is bit-identical for every row order.  One SVD ranks it: if
    the second singular value is at most ``tol``, the cut is the
    least-squares plane n . p = c (Empty if some plane lies further than
    ``tol`` from it).  Otherwise the two strongest directions fix a line
    with foot point q, and its sphere crossings survive when within
    ``tol`` of every plane; only if none does are they polished, checked
    again and merged within 1e-6.  A cut whose squared radius, 1 - c^2 or
    1 - |q|^2, is at most 2 * tol is its foot point alone: offsets off by
    tol move either by at most 2 |q| tol <= 2 tol.  Two points are
    ordered by (X, Y, Z), coordinates within 1e-9 counting as equal.
    """
    normals = real_array(normals).reshape(-1, 3)
    offsets = real_array(offsets).reshape(-1)
    # a canonical row order makes every rounding error independent of the input order
    order = np.lexsort((offsets, normals[:, 2], normals[:, 1], normals[:, 0]))
    normals, offsets = normals[order], offsets[order]
    u, s, vt = np.linalg.svd(normals)
    proj = u.T @ offsets
    if len(s) < 2 or s[1] <= tol:
        c = float(proj[0] / s[0])
        if abs(c) > 1.0 + tol or np.abs(offsets - (normals @ vt[0]) * c).max() > tol:
            return Empty()
        if 1.0 - c * c <= 2.0 * tol:
            return SinglePoint(np.copysign(1.0, c) * vt[0])
        return Circle(SphericalCircle(vt[0], min(max(c, -1.0), 1.0)))
    q = vt[:2].T @ (proj[:2] / s[:2])
    disc = 1.0 - q @ q
    if disc <= 2.0 * tol:
        candidates = [q / np.sqrt(q @ q)]
    else:
        t = np.sqrt(disc) * vt[2]
        candidates = [q + t, q - t]

    def worst_residual(p):
        return np.abs(p @ normals.T - offsets).max(axis=-1)

    points = [p for p, r in zip(candidates, worst_residual(np.array(candidates))) if r <= tol]
    if not points:
        for p in candidates:
            p = _polish(p, normals, offsets, tol)
            if worst_residual(p) <= tol and all(np.linalg.norm(p - r) > 1e-6 for r in points):
                points.append(p)
    if not points:
        return Empty()
    if len(points) == 1:
        return SinglePoint(points[0])
    # order by the first coordinate that tells them apart, so rounding cannot flip a mirror pair
    pa, pb = points
    i = int(np.argmax(np.abs(pa - pb) > 1e-9))
    return PointPair(pa, pb) if pa[i] < pb[i] else PointPair(pb, pa)


def sample_circle(circle: SphericalCircle, k: int) -> AngleStates:
    """k points uniformly spaced by central angle around the circle, as one :class:`AngleStates`.

    ``k`` must be an integer of at least 1 whose (k, 3) points, 24 * k
    bytes, numpy can size: past that it is InvalidInputError, before any
    array is made.  Every sample satisfies the plane equation to within
    1e-10.  Point circles (radius 0) return k copies of their single point.
    """
    if not (isinstance(k, Integral) and k >= 1):
        raise InvalidInputError(f"need at least one sample, and an integer count of them, got k={k!r}")
    if 24 * int(k) > np.iinfo(np.intp).max:  # the bytes of the (k, 3) points
        raise InvalidInputError(f"too many samples: k={k!r} points exceed an array's size limit")
    n = circle.normal
    r = circle.radius
    # orthonormal frame in the circle's plane, seeded off the smallest normal component
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(n)))] = 1.0
    e1 = axis - (axis @ n) * n
    e1 /= np.linalg.norm(e1)
    (n0, n1, n2), (a0, a1, a2) = n.tolist(), e1.tolist()
    e2 = np.array([n1 * a2 - n2 * a1, n2 * a0 - n0 * a2, n0 * a1 - n1 * a0])  # n x e1, as np.cross rounds it
    phi = TWO_PI * np.arange(k) / k
    p = circle.center + r * (np.cos(phi)[:, None] * e1 + np.sin(phi)[:, None] * e2)
    p /= _norms(p)[:, None]
    return AngleStates(*bloch_angles(p))
