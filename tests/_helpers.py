"""Shared random generators for the test suite, and reference copies of rules the library states once."""

import math

import numpy as np
from hypothesis import strategies as st

from qmask import AngleState, GeneralLinearOp, InvalidInputError, MaskerParams, angles_to_bloch


def random_state(rng, margin=0.0):
    """A random angle state, optionally kept away from the poles."""
    return AngleState(rng.uniform(margin, np.pi - margin), rng.uniform(0.0, 2 * np.pi))


def sphere_state(rng):
    """A state uniform on the Bloch sphere."""
    return AngleState(float(np.arccos(rng.uniform(-1.0, 1.0))), rng.uniform(0.0, 2 * np.pi))


def grid_points(grid):
    """Flattened x and y coordinates of all nx*ny nodes of a GridSpec, x-major: the tests' reference grid."""
    gx, gy = np.meshgrid(grid.xs, grid.ys, indexing="ij")
    return gx.ravel(), gy.ravel()


def random_params(rng):
    return MaskerParams(rng.uniform(0.0, np.pi), rng.uniform(0.0, 2 * np.pi))


def random_op(rng, scale=1.0):
    coeffs = scale * (rng.normal(size=8) + 1j * rng.normal(size=8))
    return GeneralLinearOp(*coeffs)


def planted_product_op(rng, lam=None):
    """An operator factoring as (|0> + lam |1>) tensor a state-dependent vector.

    mu0 is random; nu0 is its phase-rotated orthogonal complement with the
    same norm, which is exactly the structure the product-form test detects.
    """
    if lam is None:
        lam = complex(rng.normal(), rng.normal())
    mu0 = rng.normal(size=2) + 1j * rng.normal(size=2)
    nu0 = np.exp(1j * rng.uniform(0, 2 * np.pi)) * np.array(
        [-np.conj(mu0[1]), np.conj(mu0[0])]
    )
    return (
        GeneralLinearOp(
            mu0[0], mu0[1], nu0[0], nu0[1],
            lam * mu0[0], lam * mu0[1], lam * nu0[0], lam * nu0[1],
        ),
        lam,
    )


def identity_embedding():
    """|0> -> |00>, |1> -> |01>: rho_B reproduces the input state exactly."""
    return GeneralLinearOp(1, 0, 0, 1, 0, 0, 0, 0)


def rank_two_op(rng):
    """A real-coefficient operator whose constraint stack has rank two.

    Real coefficients confine the constraint normals to the X-Z plane
    plus a Y component that vanishes under two bilinear conditions; d0
    and d1 are solved from those, leaving a mirror-symmetric operator
    that cannot tell y from -y.
    """
    while True:
        a0, a1, b0, b1, c0, c1 = rng.normal(size=6)
        m = np.array([[a0, a1], [c1, -c0]])
        rhs = np.array([c0 * b0 + c1 * b1, b1 * a0 - a1 * b0])
        if abs(np.linalg.det(m)) < 1e-3:
            continue
        d0, d1 = np.linalg.solve(m, rhs)
        return GeneralLinearOp(a0, a1, b0, b1, c0, c1, d0, d1)


def f01_symbolic(op):
    """Closed-form plane coefficients of the upper off-diagonal of rho_A.

    Writing that entry as p*Z + q*X + h*Y + r over the Bloch sphere,

        p = (<mu1|mu0> - <nu1|nu0>)/2
        q = (<nu1|mu0> + <mu1|nu0>)/2
        h = i (<mu1|nu0> - <nu1|mu0>)/2
        r = (<mu1|mu0> + <nu1|nu0>)/2

    A hand derivation of rows re01 and im01 of ``constraint_planes``,
    kept as an independent reference for testing.
    """
    (mu0, nu0), (mu1, nu1) = op.coefficients.reshape(2, 2, 2)
    p = (np.vdot(mu1, mu0) - np.vdot(nu1, nu0)) / 2.0
    q = (np.vdot(nu1, mu0) + np.vdot(mu1, nu0)) / 2.0
    h = 1j * (np.vdot(mu1, nu0) - np.vdot(nu1, mu0)) / 2.0
    r = (np.vdot(mu1, mu0) + np.vdot(nu1, nu0)) / 2.0
    return complex(p), complex(q), complex(h), complex(r)


def well_separated_triple(rng, min_dist=0.1):
    while True:
        states = [random_state(rng) for _ in range(3)]
        pts = [angles_to_bloch(s) for s in states]
        dists = [np.linalg.norm(pts[i] - pts[j]) for i in range(3) for j in range(i + 1, 3)]
        if min(dists) > min_dist:
            return states


# --- the state rules, as written when each class checked its fields after the generated __init__ set them ---

TWO_PI = 2.0 * np.pi


def reference_angle_fields(x, y):
    """The (x, y) fields AngleState's rules give the arguments: the earlier ``__post_init__``, verbatim."""
    x = float(x) + 0.0  # clears negative zeros
    y = float(y) + 0.0
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
    return x, y


def reference_masker_fields(alpha, theta):
    """The (alpha, theta) fields MaskerParams' rules give the arguments: the earlier ``__post_init__``, verbatim."""
    a, t = float(alpha), float(theta)
    if not (np.isfinite(a) and np.isfinite(t)):
        raise InvalidInputError("masker parameters must be finite")
    if not (0.0 <= a < np.pi):
        raise InvalidInputError(f"alpha={a!r} outside [0, pi)")
    if not (0.0 <= t < TWO_PI):
        raise InvalidInputError(f"theta={t!r} outside [0, 2*pi)")
    return a, t


# The edges of both classes' ranges and absorptions, with their float neighbours; then the non-finite
# values and arguments that are not Python floats
EDGE_FLOATS = [
    0.0, -0.0, -1e-12, -1.1e-12, np.pi, np.pi + 1e-12, np.pi + 1.1e-12, TWO_PI, TWO_PI + 1e-12, TWO_PI - 1e-12,
    math.nextafter(0.0, -1.0), math.nextafter(np.pi, 4.0), math.nextafter(np.pi, 0.0), math.nextafter(TWO_PI, 0.0),
    math.nextafter(-1e-12, 0.0), math.nextafter(-1e-12, -1.0), math.nextafter(np.pi + 1e-12, 4.0),
    math.nextafter(TWO_PI + 1e-12, 7.0), 1.0, 5e-324, 1e308,
]
EDGE_ARGS = EDGE_FLOATS + [
    math.nan, math.inf, -math.inf,
    0, 1, 3, 4, 7, -1, 10**400, True, False,
    np.float64(-0.0), np.float64(np.pi), np.float64(math.nan), np.float32(1.5), np.float32(-0.0), np.int64(2),
    np.bool_(True), "1.0", None,
]


# Any float, the edges and floats within 3e-12 of them, small ints and numpy scalars
edge_or_any = st.one_of(
    st.floats(),
    st.sampled_from(EDGE_ARGS),
    st.sampled_from(EDGE_FLOATS).flatmap(lambda e: st.floats(-3e-12, 3e-12).map(lambda d: e + d)),
    st.integers(-8, 8),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
)


def field_bits(build, *args):
    """Each field's type and exact bits (the sign of zero included) that ``build(*args)`` gives, or the
    type and message of the exception it raises."""
    try:
        fields = build(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return tuple((type(v), v.hex()) for v in fields)
