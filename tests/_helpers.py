"""Shared random generators for the test suite."""

import numpy as np

from qmask import AngleState, GeneralLinearOp, MaskerParams, angles_to_bloch


def random_state(rng, margin=0.0):
    """A random angle state, optionally kept away from the poles."""
    return AngleState(rng.uniform(margin, np.pi - margin), rng.uniform(0.0, 2 * np.pi))


def sphere_state(rng):
    """A state uniform on the Bloch sphere."""
    return AngleState(float(np.arccos(rng.uniform(-1.0, 1.0))), rng.uniform(0.0, 2 * np.pi))


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
