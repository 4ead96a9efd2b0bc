from fractions import Fraction

import numpy as np
import pytest

from qmask import (
    AngleState,
    Circle,
    GeneralLinearOp,
    InvalidInputError,
    MaskerParams,
    PointPair,
    SinglePoint,
    SphericalCircle,
    angles_to_bloch,
    bloch_points,
    build_masker,
    circles_equal,
    class_distance,
    constraint_planes,
    extract_constraints,
    maskable_circle,
    maskable_set,
    operator_scale,
    predicted_reduced,
    product_form_diagnosis,
    reduced_pair,
)
from _helpers import (
    f01_symbolic,
    identity_embedding,
    planted_product_op,
    random_op,
    random_params,
    random_state,
    rank_two_op,
)


def test_zero_operator_rejected():
    with pytest.raises(InvalidInputError):
        GeneralLinearOp(0, 0, 0, 0, 0, 0, 0, 0)
    with pytest.raises(InvalidInputError):
        GeneralLinearOp(np.nan, 0, 0, 0, 0, 0, 0, 1)


def test_operator_matrix_is_built_once_and_read_only():
    op = GeneralLinearOp(1, 2j, 3, 4, 5, 6, 7, 8)
    assert op.matrix is op.matrix and not op.matrix.flags.writeable
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 0.0
    # columns are the images of |0> and |1>; coefficients read the a0..d1 order back
    assert np.array_equal(op.matrix, [[1, 3], [2j, 4], [5, 7], [6, 8]])
    assert np.array_equal(op.coefficients, [1, 2j, 3, 4, 5, 6, 7, 8])
    assert np.array_equal(op.apply(0.0, 0.0), op.matrix[:, 0]) and np.allclose(op.apply(np.pi, 0.0), op.matrix[:, 1])


def test_operator_from_matrix_round_trip():
    op = random_op(np.random.default_rng(21))
    back = GeneralLinearOp.from_matrix(op.matrix)
    assert back == op and hash(back) == hash(op)
    assert GeneralLinearOp.from_isometry(op) == op
    with pytest.raises(InvalidInputError, match="4x2"):
        GeneralLinearOp.from_matrix(op.matrix.T)


def test_operator_takes_parts_up_to_the_float_maximum():
    # the finiteness test reads the real and imaginary parts, so |a0| overflowing is not "not finite"
    big = np.finfo(float).max
    op = GeneralLinearOp(complex(big, big), 0, 0, 0, 0, 0, 0, -big)
    assert op.matrix[0, 0] == complex(big, big)
    with pytest.raises(InvalidInputError, match="overflows"):
        operator_scale(op)
    for bad in (complex(np.nan, 1.0), complex(1.0, np.inf), -np.inf):
        with pytest.raises(InvalidInputError, match="must be finite"):
            GeneralLinearOp(bad, 0, 0, 0, 0, 0, 0, 1)


def test_reduced_pair_raw_matches_masker_closed_form():
    rng = np.random.default_rng(0)
    for _ in range(100):
        params, s = random_params(rng), random_state(rng)
        op = build_masker(params)
        rho_a, rho_b = reduced_pair(op.apply(s.x, s.y))
        pa, pb = predicted_reduced(params, s)
        assert np.abs(rho_a - pa).max() < 1e-12
        assert np.abs(rho_b - pb).max() < 1e-12


def test_reduced_pair_raw_identity_embedding():
    op = identity_embedding()
    s = AngleState(1.1, 0.7)
    rho_a, rho_b = reduced_pair(op.apply(s.x, s.y))
    assert np.allclose(rho_a, np.diag([1.0, 0.0]))
    vec = np.array([np.cos(s.x / 2), np.exp(1j * s.y) * np.sin(s.x / 2)])
    assert np.allclose(rho_b, np.outer(vec, vec.conj()))


def test_reduced_pair_raw_unnormalized_convention():
    op = GeneralLinearOp(2, 0, 0, 0, 0, 0, 0, 0)
    x = np.pi / 3
    rho_a, _ = reduced_pair(op.apply(x, 0.0))
    assert abs(np.trace(rho_a).real - 4 * np.cos(x / 2) ** 2) < 1e-12


def test_constraints_single_direction_for_masker():
    op = build_masker(MaskerParams(0.0, 0.0))
    normals = constraint_planes(op.matrix)[0]
    for n in normals:
        if np.linalg.norm(n) > 1e-10:
            unit = n / np.linalg.norm(n)
            assert np.linalg.norm(np.cross(unit, [0, 0, 1])) < 1e-10


def test_constraints_f01_symbolic_cross_check():
    rng = np.random.default_rng(1)
    for _ in range(300):
        op = random_op(rng)
        constraints = extract_constraints(op)
        p, q, h, r = f01_symbolic(op)
        re_row, im_row = constraints[2], constraints[3]
        assert np.abs(re_row.n - [q.real, h.real, p.real]).max() < 1e-12
        assert abs(re_row.r - r.real) < 1e-12
        assert np.abs(im_row.n - [q.imag, h.imag, p.imag]).max() < 1e-12
        assert abs(im_row.r - r.imag) < 1e-12


def _fraction_planes(m):
    """Exact (normals, offsets) of the entry functions of the 4x2 matrix m, in Fractions.

    With psi = m s, an entry of rho_A sums psi[2i+t] conj(psi[2j+t]) over t, one of rho_B
    psi[2t+i] conj(psi[2t+j]), and psi[l] conj(psi[r]) = sum_ab m[l, a] conj(m[r, b]) s_a conj(s_b).
    """
    re = [[Fraction(z.real) for z in row] for row in m]
    im = [[Fraction(z.imag) for z in row] for row in m]

    def term(l, r, a, b):  # m[l, a] conj(m[r, b]) as (real, imaginary)
        return re[l][a] * re[r][b] + im[l][a] * im[r][b], im[l][a] * re[r][b] - re[l][a] * im[r][b]

    rows = []
    for index in (lambda i, t: 2 * i + t, lambda i, t: 2 * t + i):  # rho_A, rho_B
        for i, j, part in ((0, 0, 0), (1, 1, 0), (0, 1, 0), (0, 1, 1)):
            k = {
                (a, b): [sum(v) for v in zip(*(term(index(i, t), index(j, t), a, b) for t in (0, 1)))]
                for a in (0, 1) for b in (0, 1)
            }
            # s_0 conj(s_0) = (1 + Z)/2, s_1 conj(s_1) = (1 - Z)/2, s_1 conj(s_0) = (X + iY)/2
            x = [k[1, 0][c] + k[0, 1][c] for c in (0, 1)]
            y = [k[0, 1][1] - k[1, 0][1], k[1, 0][0] - k[0, 1][0]]  # i (k10 - k01)
            z = [k[0, 0][c] - k[1, 1][c] for c in (0, 1)]
            r = [k[0, 0][c] + k[1, 1][c] for c in (0, 1)]
            rows.append([v[part] / 2 for v in (x, y, z, r)])
    rows = np.array(rows, dtype=object)
    return rows[:, :3], rows[:, 3]


def test_constraint_planes_are_exact_on_dyadic_operators():
    # components k/64 keep every product and sum of the closed form exact in floating point
    rng = np.random.default_rng(7)
    for _ in range(200):
        c = rng.integers(-64, 65, size=(2, 8)) / 64
        op = GeneralLinearOp(*(c[0] + 1j * c[1]))
        normals, offsets = constraint_planes(op.matrix)
        ref_normals, ref_offsets = _fraction_planes(op.matrix)
        assert np.array_equal(normals, ref_normals) and np.array_equal(offsets, ref_offsets)


def test_constraints_reproduce_entry_functions():
    rng = np.random.default_rng(2)
    for _ in range(50):
        op = random_op(rng)
        constraints = extract_constraints(op)
        for _ in range(20):
            s = random_state(rng)
            p = angles_to_bloch(s)
            rho_a, rho_b = reduced_pair(op.apply(s.x, s.y))
            values = [
                rho_a[0, 0].real, rho_a[1, 1].real, rho_a[0, 1].real, rho_a[0, 1].imag,
                rho_b[0, 0].real, rho_b[1, 1].real, rho_b[0, 1].real, rho_b[0, 1].imag,
            ]
            for c, v in zip(constraints, values):
                assert abs(p @ c.n + c.r - v) < 1e-10


def test_constraints_identity_embedding_structure():
    constraints = extract_constraints(identity_embedding())
    # rho_A is constant, so its four rows carry no direction
    for c in constraints[:4]:
        assert np.linalg.norm(c.n) < 1e-12
    normals = np.vstack([c.n for c in constraints[4:]])
    assert np.linalg.matrix_rank(normals, tol=1e-9) == 3


def test_maskable_set_masker_gives_its_circle():
    rng = np.random.default_rng(3)
    for _ in range(100):
        params, anchor = random_params(rng), random_state(rng)
        op = build_masker(params)
        got = maskable_set(op, anchor)
        expected = maskable_circle(params, anchor)
        if expected.radius < 1e-9:
            assert isinstance(got, SinglePoint)
        else:
            assert isinstance(got, Circle)
            assert circles_equal(got.circle, expected, tol=1e-9)


def test_maskable_set_identity_embedding_single_point():
    anchor = AngleState(1.0, 2.0)
    got = maskable_set(identity_embedding(), anchor)
    assert isinstance(got, SinglePoint)
    assert np.linalg.norm(got.point - angles_to_bloch(anchor)) < 1e-12


def test_maskable_set_rank_two_gives_mirror_pair():
    rng = np.random.default_rng(4)
    for _ in range(20):
        op = rank_two_op(rng)
        anchor = AngleState(rng.uniform(0.3, np.pi - 0.3), rng.uniform(0.3, np.pi - 0.3))
        got = maskable_set(op, anchor)
        assert isinstance(got, PointPair)
        p0 = angles_to_bloch(anchor)
        mirror = p0 * np.array([1.0, -1.0, 1.0])
        assert min(
            np.linalg.norm(got.p1 - mirror) + np.linalg.norm(got.p2 - p0),
            np.linalg.norm(got.p2 - mirror) + np.linalg.norm(got.p1 - p0),
        ) < 1e-9
        # both points carry identical raw reduced pairs
        ra1, rb1 = reduced_pair(op.apply(anchor.x, anchor.y))
        s2 = AngleState(anchor.x, 2 * np.pi - anchor.y)
        ra2, rb2 = reduced_pair(op.apply(s2.x, s2.y))
        assert np.abs(ra1 - ra2).max() < 1e-12
        assert np.abs(rb1 - rb2).max() < 1e-12


def test_maskable_set_random_never_full_sphere():
    rng = np.random.default_rng(5)
    for _ in range(300):
        got = maskable_set(random_op(rng), random_state(rng))
        assert isinstance(got, (SinglePoint, PointPair, Circle))


def test_maskable_set_anchor_always_member():
    rng = np.random.default_rng(6)
    ops = [random_op(rng) for _ in range(30)]
    ops += [build_masker(random_params(rng)) for _ in range(10)]
    ops += [planted_product_op(rng)[0] for _ in range(10)]
    for op in ops:
        anchor = random_state(rng)
        got = maskable_set(op, anchor)
        assert class_distance(got, angles_to_bloch(anchor)) < 1e-9


def test_class_distance_to_a_point_pair_is_the_nearer_point():
    pair = PointPair(np.array([1.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0]))
    points = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [-0.6, 0.8, 0.0]])
    assert np.allclose(class_distance(pair, points), [0.0, 0.0, np.sqrt(2.0), np.sqrt(0.8)], rtol=0, atol=1e-15)


def test_class_distance_rejects_what_is_not_a_class():
    circle = SphericalCircle(np.array([0.0, 0.0, 1.0]), 0.5)
    with pytest.raises(InvalidInputError, match="not a maskable-set class"):
        class_distance(circle, np.array([0.0, 0.0, 1.0]))


@pytest.mark.parametrize("shape", [(), (1,), (5,), (2, 3)])
def test_class_distance_keeps_the_points_leading_shape(shape):
    rng = np.random.default_rng(12)
    points = bloch_points(rng.uniform(0.0, np.pi, shape), rng.uniform(0.0, 2 * np.pi, shape))
    rows = points.reshape(-1, 3)
    classes = [
        SinglePoint(bloch_points(1.0, 2.0)),
        PointPair(bloch_points(0.3, 1.0), bloch_points(2.0, 4.0)),
        Circle(SphericalCircle(np.array([0.0, 0.6, 0.8]), 0.5)),
    ]
    for mask_class in classes:
        d = class_distance(mask_class, points)
        assert np.shape(d) == shape  # a (1, 3) stack gives (1,), one 3-vector a scalar
        by_row = [class_distance(mask_class, p) for p in rows]
        assert np.allclose(np.reshape(d, -1), by_row, rtol=0, atol=1e-15)


def test_maskable_set_scale_invariant_class():
    rng = np.random.default_rng(7)
    for scale in (1e-3, 1.0, 1e3):
        op = random_op(rng, scale=scale)
        anchor = random_state(rng)
        assert isinstance(maskable_set(op, anchor), SinglePoint)


def _class_parts(mask_class):
    """The class's points, or its circle's normal with the offset appended."""
    if isinstance(mask_class, Circle):
        return [np.append(mask_class.circle.normal, mask_class.circle.offset)]
    if isinstance(mask_class, PointPair):
        return [mask_class.p1, mask_class.p2]
    return [mask_class.point]


def _b_rotated(op, u):
    """The operator followed by the unitary ``u`` on qubit B."""
    return GeneralLinearOp.from_matrix(
        np.column_stack([(col.reshape(2, 2) @ u.T).ravel() for col in op.matrix.T])
    )


def test_maskable_set_metamorphic_scale_phase_and_b_unitary():
    # the maskable set of k*op is that of op for every nonzero complex k, and
    # a unitary on qubit B leaves both reduced-pair equalities unchanged
    rng = np.random.default_rng(8)
    ops = [random_op(rng), rank_two_op(rng), build_masker(random_params(rng))]
    factors = (1e-300, 1e-150, 1e-100, 1e100, 1e150, 1e300, np.exp(0.7j), 3 - 4j)
    for op in ops:
        anchor = random_state(rng, margin=0.3)
        ref = maskable_set(op, anchor)
        u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        variants = [GeneralLinearOp.from_matrix(k * op.matrix) for k in factors]
        for got in [maskable_set(v, anchor) for v in variants + [_b_rotated(op, u)]]:
            assert type(got) is type(ref)
            want, have = _class_parts(ref), _class_parts(got)
            err = min(
                max(np.abs(a - b).max() for a, b in zip(want, order))
                for order in (have, have[::-1])
            )
            assert err < 1e-9


@pytest.mark.parametrize(
    "op, factor",
    [
        (GeneralLinearOp(1.5e308 * (1 + 1j), 0, 0, 0, 0, 0, 0, 0), 2.0**-1000),
        (GeneralLinearOp(3e-310, 0, 0, 1e-310j, 0, 2e-310, -1e-310, 0), 2.0**1000),
    ],
    ids=["modulus_overflows", "subnormal"],
)
def test_maskable_set_at_the_ends_of_the_float_range(op, factor):
    # a power-of-two multiple has the same unit-scale matrix, so exactly the same set
    anchor = AngleState(1.2, 2.5)
    got = maskable_set(op, anchor)
    ref = maskable_set(GeneralLinearOp.from_matrix(factor * op.matrix), anchor)
    assert type(got) is type(ref)
    assert all(np.array_equal(a, b) for a, b in zip(_class_parts(got), _class_parts(ref)))


def test_maskable_set_invariant_under_b_unitaries():
    # (I x U_B) op has the reduced pairs of op up to the unitary U_B on rho_B, so the same
    # maskable set, for operators of every class
    rng = np.random.default_rng(9)
    for trial in range(50):
        kind = trial % 4
        if kind == 0:
            op = random_op(rng)
        elif kind == 1:
            op = build_masker(random_params(rng))
        elif kind == 2:
            op = rank_two_op(rng)
        else:
            op = planted_product_op(rng)[0]
        anchor = random_state(rng)
        u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        ref, got = maskable_set(op, anchor), maskable_set(_b_rotated(op, u), anchor)
        assert type(got) is type(ref), trial
        if isinstance(ref, Circle):
            assert circles_equal(got.circle, ref.circle), trial
        else:
            want, have = _class_parts(ref), _class_parts(got)
            err = min(max(np.linalg.norm(a - b) for a, b in zip(want, order)) for order in (have, have[::-1]))
            assert err <= 1e-9, (trial, err)


def test_product_form_masker_rejected():
    for alpha in np.linspace(0.0, np.pi, 20, endpoint=False):
        op = build_masker(MaskerParams(alpha, 1.0))
        report = product_form_diagnosis(op)
        assert not report.is_product_form
        if 0.01 < alpha:
            # cross inner products carry sin(alpha)/2
            assert abs(report.orthogonality_residual - np.sin(alpha) / 2) < 1e-12


def test_product_form_planted_detected():
    rng = np.random.default_rng(8)
    for _ in range(100):
        op, lam = planted_product_op(rng)
        report = product_form_diagnosis(op)
        assert report.is_product_form
        assert report.orthogonality_residual < 1e-12
        assert report.norm_residual < 1e-12
        assert abs(report.lam - lam) < 1e-10


def test_product_form_spec_example_lambda():
    rng = np.random.default_rng(9)
    op, lam = planted_product_op(rng, lam=0.3 + 0.1j)
    report = product_form_diagnosis(op)
    assert report.is_product_form and abs(report.lam - (0.3 + 0.1j)) < 1e-10


def test_product_form_degenerate_single_coefficient():
    # |0> -> |00>, |1> -> 0 does factorize, but its sub-vector norms differ
    # (1 vs 0), so the Gram-matching criterion rejects it: this operator's
    # rho_A still varies with x, unlike a true masking-degenerate map
    report = product_form_diagnosis(GeneralLinearOp(1, 0, 0, 0, 0, 0, 0, 0))
    assert not report.is_product_form
    assert report.orthogonality_residual == 0.0
    assert abs(report.norm_residual - 1.0) < 1e-15


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_product_form_rejects_an_overflowing_modulus():
    # a0 = 1.5e308 (1 + i) has finite parts, but its norm residual |a0|^2 overflows: invalid input, not inf
    with pytest.raises(InvalidInputError, match="^operator too large: its product-form residuals overflow$"):
        product_form_diagnosis(GeneralLinearOp(1.5e308 * (1 + 1j), 0, 0, 0, 0, 0, 0, 0))


def test_product_form_verdict_scale_invariant():
    # k * op factors exactly when op does, with the same lam, for every nonzero complex k
    rng = np.random.default_rng(12)
    ops = [planted_product_op(rng)[0], identity_embedding(), random_op(rng)]
    for op in ops:
        ref = product_form_diagnosis(op)
        for k in (1e-160, 1e-150, 1e150, 1e-100j):
            got = product_form_diagnosis(GeneralLinearOp.from_matrix(k * op.matrix))
            assert got.is_product_form == ref.is_product_form
            assert (got.lam is None) == (ref.lam is None)
            if ref.lam is not None:
                assert abs(got.lam - ref.lam) <= 1e-12 * max(1.0, abs(ref.lam))


def test_operator_scale_rejects_overflow():
    with pytest.raises(InvalidInputError, match="overflows"):
        operator_scale(GeneralLinearOp(1e160, 0, 0, 0, 0, 0, 0, 0))

def test_operator_scale():
    assert operator_scale(GeneralLinearOp(1, 0, 0, 1, 0, 0, 0, 0)) == 2.0
    iso_op = build_masker(MaskerParams(0.9, 4.0))
    assert abs(operator_scale(iso_op) - 2.0) < 1e-12
