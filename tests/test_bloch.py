import dataclasses
import math
import pickle
import re
import warnings
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmask import (
    AngleState,
    AngleStates,
    Circle,
    Empty,
    EmptyCircleError,
    InvalidInputError,
    MaskerParams,
    PointPair,
    SinglePoint,
    SphericalCircle,
    angles_to_bloch,
    bloch_angles,
    bloch_points,
    bloch_to_angles,
    canonical_mask_params,
    circle_from_mask_params,
    circle_through_points,
    circles_equal,
    class_distance,
    cut_sphere,
    distance_to_circle,
    maskable_circle,
    sample_circle,
)
from qmask.bloch import CANON_EPS, TWO_PI, column_norms, point_distances, real_array
from _helpers import EDGE_ARGS, EDGE_FLOATS, edge_or_any, field_bits, reference_angle_fields

angles_x = st.floats(min_value=0.0, max_value=np.pi)
angles_y = st.floats(min_value=0.0, max_value=2 * np.pi, exclude_max=True)
# circles with |c| <= 0.95, about unit normals drawn far from zero
_circles = st.builds(
    SphericalCircle,
    st.tuples(*[st.floats(-1, 1)] * 3).filter(lambda v: np.linalg.norm(v) > 1e-3).map(lambda v: v / np.linalg.norm(v)),
    st.floats(-0.95, 0.95),
)


# --- angle state and conversions -------------------------------------------


def angle_fields(x, y):
    s = AngleState(x, y)
    return s.x, s.y


def test_angle_state_rules_at_the_edges():
    # the one __init__ gives every pair of edge arguments the fields, or the error, of the earlier rules
    for x in EDGE_ARGS:
        for y in EDGE_ARGS:
            assert field_bits(angle_fields, x, y) == field_bits(reference_angle_fields, x, y), (x, y)


@given(edge_or_any, edge_or_any)
def test_angle_state_rules_are_the_earlier_rules(x, y):
    assert field_bits(angle_fields, x, y) == field_bits(reference_angle_fields, x, y)


def test_angle_state_is_a_frozen_dataclass():
    s = AngleState(x=1.25, y=np.float64(2.5))
    assert s == AngleState(1.25, 2.5) and hash(s) == hash(AngleState(1.25, 2.5)) and s != AngleState(1.25, 2.0)
    assert repr(s) == "AngleState(x=1.25, y=2.5)"
    back = pickle.loads(pickle.dumps(s))
    assert back == s and (type(back.x), type(back.y)) == (float, float)
    # replace runs the one __init__: its rules hold for the new fields
    assert dataclasses.replace(s, x=np.pi) == AngleState(np.pi, 0.0)
    assert dataclasses.replace(s, y=-1e-13).y == 0.0
    with pytest.raises(InvalidInputError, match=r"^x=4\.0 outside \[0, pi\]$"):
        dataclasses.replace(s, x=4.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.x = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        del s.y
    assert [f.name for f in dataclasses.fields(s)] == ["x", "y"] and dataclasses.astuple(s) == (1.25, 2.5)


EDGE = 1e-12


@pytest.mark.parametrize(
    "x, y, want",
    [
        (-EDGE, 1.0, (0.0, 0.0)),  # x absorbed to the north pole, where y is 0
        (np.pi + EDGE, 1.0, (np.pi, 0.0)),  # x absorbed to the south pole
        (1.0, -EDGE, (1.0, 0.0)),
        (1.0, TWO_PI + EDGE, (1.0, 0.0)),
        (1.0, TWO_PI, (1.0, 0.0)),
    ],
)
def test_angle_state_absorbs_excursions_up_to_1e_12(x, y, want):
    s = AngleState(x, y)
    assert (s.x, s.y) == want


@pytest.mark.parametrize(
    "x, y, message",
    [
        (np.nextafter(-EDGE, -1.0), 1.0, r"outside \[0, pi\]"),
        (np.nextafter(np.pi + EDGE, 4.0), 1.0, r"outside \[0, pi\]"),
        (1.0, np.nextafter(-EDGE, -1.0), r"outside \[0, 2\*pi\)"),
        (1.0, np.nextafter(TWO_PI + EDGE, 7.0), r"outside \[0, 2\*pi\)"),
    ],
)
def test_angle_state_rejects_excursions_just_beyond_1e_12(x, y, message):
    with pytest.raises(InvalidInputError, match=message):
        AngleState(x, y)


def test_angle_state_validation():
    with pytest.raises(InvalidInputError):
        AngleState(-0.5, 0.0)
    with pytest.raises(InvalidInputError):
        AngleState(0.5, 7.0)
    with pytest.raises(InvalidInputError):
        AngleState(np.nan, 0.0)


def test_angle_state_pole_canonicalization():
    assert AngleState(0.0, 1.23).y == 0.0
    assert AngleState(np.pi, 5.0).y == 0.0
    assert AngleState(1.0, 1.23).y == 1.23


def test_angle_state_clears_negative_zeros():
    s = AngleState(-0.0, -0.0)
    assert math.copysign(1.0, s.x) == 1.0 and math.copysign(1.0, s.y) == 1.0
    assert math.copysign(1.0, AngleState(0.5, -0.0).y) == 1.0
    assert math.copysign(1.0, bloch_to_angles([0.6, -0.0, 0.8]).y) == 1.0


@pytest.mark.parametrize("read, kind", [
    (lambda: AngleState(1j, 0), "complex"),
    (lambda: AngleState(np.complex128(1 + 1j), 0), "complex128"),
    (lambda: AngleState(0.5, np.complex64(0.25)), "complex64"),
    (lambda: MaskerParams(np.complex128(0.5), 0.1), "complex128"),
    (lambda: circle_from_mask_params(0.3, 0.2, 0.1j), "complex"),
    (lambda: SphericalCircle([0, 0, 1], 0.5j), "complex"),
], ids=["angle_state", "angle_state_numpy", "angle_state_complex64", "masker_params", "mask_params", "circle"])
def test_complex_scalars_are_invalid_input(read, kind):
    # the scalar readers reject a complex number as real_array rejects a complex array, where they raised a
    # bare TypeError or cut a numpy complex to its real part with a ComplexWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match=f"^expected a real number, got {kind}$"):
            read()


def _angle_states_fields(x, y):
    s = AngleStates([x], [y])
    return s.xs.item(0), s.ys.item(0)


def test_angle_states_rules_at_the_edges():
    # the arrays hold, for every pair of edge floats, the fields AngleState gives it, or raise its error
    for x in EDGE_FLOATS + [math.nan, math.inf, -math.inf]:
        for y in EDGE_FLOATS + [math.nan, -math.inf]:
            assert field_bits(_angle_states_fields, x, y) == field_bits(angle_fields, x, y), (x, y)


_near_edges = st.sampled_from([0.0, np.pi, TWO_PI]).flatmap(lambda e: st.floats(-2e-12, 2e-12).map(lambda d: e + d))
_x_coords = st.floats(0.0, np.pi) | st.sampled_from([-0.0, 0.0, np.pi]) | _near_edges | st.sampled_from(EDGE_FLOATS)
_y_coords = st.floats(0.0, TWO_PI, exclude_max=True) | st.sampled_from([-0.0, 0.0]) | _near_edges | st.just(math.nan)


@settings(max_examples=300)
@given(st.lists(st.tuples(_x_coords, _y_coords), max_size=10))
def test_angle_states_are_the_states_of_each_pair(pairs):
    # element by element the bits of [AngleState(x, y), ...], or the error of the first pair that raises
    xs, ys = np.array(pairs).reshape(-1, 2).T
    try:
        want = [(s.x.hex(), s.y.hex()) for s in (AngleState(x, y) for x, y in pairs)]
    except InvalidInputError as exc:
        with pytest.raises(InvalidInputError, match=f"^{re.escape(str(exc))}$"):
            AngleStates(xs, ys)
        return
    got = AngleStates(xs, ys)
    assert [(x.hex(), y.hex()) for x, y in zip(got.xs.tolist(), got.ys.tolist())] == want
    assert [(s.x.hex(), s.y.hex()) for s in got] == want and got.xs.dtype == got.ys.dtype == np.float64


def test_angle_states_is_a_read_only_sequence():
    # the poles at 0 and 2 are one state, whose first index is 0
    xs, ys = np.array([0.0, 1.0, -0.0, np.pi, 2.0]), np.array([1.0, 2.0, 3.0, 4.0, -1e-13])
    states = AngleStates(xs, ys)
    want = [AngleState(x, y) for x, y in zip(xs, ys)]
    assert isinstance(states, Sequence) and len(states) == 5 and states
    assert list(states) == want and all(type(s.x) is type(s.y) is float for s in states)
    assert [states[k] for k in range(-5, 5)] == want + want
    with pytest.raises(IndexError):
        states[5]
    for part in (states[1:4], states[::-2], states[7:]):
        assert isinstance(part, AngleStates)
    assert list(states[1:4]) == want[1:4] and list(states[::-2]) == want[::-2] and len(states[7:]) == 0
    assert list(reversed(states)) == want[::-1] and AngleState(np.pi, 0.0) in states and states.index(want[2]) == 0
    # the arrays are the states' own: read-only, and copies that leave the caller's arrays as they were
    for array in (states.xs, states.ys):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        states.xs = xs
    assert math.copysign(1.0, xs[2]) == -1.0 and ys[0] == 1.0 and ys[4] == -1e-13
    assert states == states and states != AngleStates(xs, ys)  # identity, as for the other array holders
    with pytest.raises(InvalidInputError, match="^expected as many x as y coordinates, got 2 and 3$"):
        AngleStates([1.0, 1.0], [1.0, 1.0, 1.0])
    with pytest.raises(InvalidInputError, match="^expected real numbers, got an array of complex128$"):
        AngleStates([1.0j], [1.0])


def test_angles_to_bloch_poles():
    assert np.allclose(angles_to_bloch(AngleState(0.0, 0.0)), [0, 0, 1])
    assert np.allclose(angles_to_bloch(AngleState(np.pi, 0.0)), [0, 0, -1])


def test_angles_to_bloch_reference_point():
    p = angles_to_bloch(AngleState(np.pi / 3, np.pi / 4))
    # sin(pi/3) cos(pi/4) = sqrt(3)/2 * sqrt(2)/2
    assert np.allclose(p, [0.6123724356957945, 0.6123724356957945, 0.5], atol=1e-15)


def test_bloch_to_angles_basics():
    s = bloch_to_angles(np.array([0.0, 0.0, 1.0]))
    assert (s.x, s.y) == (0.0, 0.0)
    s = bloch_to_angles(np.array([1.0, 0.0, 0.0]))
    assert abs(s.x - np.pi / 2) < 1e-15 and s.y == 0.0
    s = bloch_to_angles(np.array([0.6123724356957945, 0.6123724356957945, 0.5]))
    assert abs(s.x - np.pi / 3) < 1e-9 and abs(s.y - np.pi / 4) < 1e-9


def test_bloch_to_angles_rejects_non_unit():
    with pytest.raises(InvalidInputError):
        bloch_to_angles(np.array([0.5, 0.0, 0.0]))


def test_bloch_to_angles_snaps_noise_to_pole():
    # transverse components at rounding-noise level carry no azimuth
    s = bloch_to_angles(np.array([3e-16, -2e-16, 1.0]))
    assert (s.x, s.y) == (0.0, 0.0)
    s = bloch_to_angles(np.array([-1e-14, 3e-15, -1.0]))
    assert (s.x, s.y) == (np.pi, 0.0)


def test_bloch_angles_stack_equals_rows():
    rng = np.random.default_rng(12)
    p = rng.normal(size=(300, 3))
    # rows 0-19 near the north pole, 20-39 near the south pole; in each
    # half the first ten have a transverse radius below the 1e-12 cut
    u = p[:40, :2] / np.linalg.norm(p[:40, :2], axis=1)[:, None]
    p[:40, :2] = u * np.tile(np.repeat([1e-17, 5e-13, 2e-12, 1e-9], 5), 2)[:, None]
    p[:40, 2] = np.repeat([1.0, -1.0], 20)
    # azimuths just below 2pi, the first ten rounding up to 2pi itself
    p[40:60, 0] = np.abs(p[40:60, 0])
    p[40:60, 1] = -p[40:60, 0] * np.repeat([1e-17, 1e-16, 1e-15, 1e-12], 5)
    p /= np.linalg.norm(p, axis=1)[:, None]
    xs, ys = bloch_angles(p)
    rows = [bloch_to_angles(row) for row in p]
    assert np.array_equal(xs, [s.x for s in rows]) and np.array_equal(ys, [s.y for s in rows])
    assert ((0.0 <= ys) & (ys < TWO_PI)).all()
    assert (xs[:10] == 0.0).all() and (xs[20:30] == np.pi).all()
    assert (xs[10:20] > 0.0).all() and (xs[30:40] < np.pi).all()
    assert (ys[:10] == 0.0).all() and (ys[20:30] == 0.0).all()
    assert (ys[40:50] == 0.0).all() and (ys[50:60] > 6.28).all()


def test_bloch_angles_rejects_one_non_unit_row():
    p = np.tile([0.6, 0.0, 0.8], (5, 1))
    p[3] *= 1.0 + 1e-8
    with pytest.raises(InvalidInputError):
        bloch_angles(p)
    p[3] = [np.nan, 0.0, 1.0]
    with pytest.raises(InvalidInputError):
        bloch_angles(p)


@given(angles_x, angles_y)
def test_round_trip_from_angles(x, y):
    s = AngleState(x, y)
    back = bloch_to_angles(angles_to_bloch(s))
    assert np.linalg.norm(angles_to_bloch(back) - angles_to_bloch(s)) < 1e-9


@given(st.tuples(*[st.floats(-1, 1)] * 3).filter(lambda v: np.linalg.norm(v) > 1e-3))
def test_round_trip_from_sphere(v):
    p = np.array(v) / np.linalg.norm(v)
    assert np.linalg.norm(angles_to_bloch(bloch_to_angles(p)) - p) < 1e-9


# --- circles ----------------------------------------------------------------


def test_circle_canonicalization():
    c = SphericalCircle(np.array([0.0, 0.0, -2.0]), -1.0)
    assert np.allclose(c.normal, [0, 0, 1]) and c.offset == 0.5
    # near-zero offset ties break on the first nonzero normal component
    c = SphericalCircle(np.array([0.0, -1.0, 0.0]), 0.0)
    assert np.allclose(c.normal, [0, 1, 0]) and c.offset == 0.0


@pytest.mark.parametrize("c", [1e-12, -1e-12, 5e-13, -5e-13, 0.0, -0.0, 0.3, -0.3])
def test_flipping_a_plane_keeps_its_point_set(c):
    # (-n, -c) and (n, c) are one plane; in the tie zone |c| <= CANON_EPS the normal decides the
    # orientation, and the offset must flip with it, or the stored plane moves by 2|c|
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        a, b = SphericalCircle(-n, -c), SphericalCircle(n, c)
        assert np.array_equal(a.normal, b.normal) and a.offset == b.offset, (n, c)
        back = circle_from_mask_params(*canonical_mask_params(b))
        assert circles_equal(back, b, tol=1e-15), (n, c)
        if abs(c) < CANON_EPS:  # inside the tie zone, so rounding cannot carry |c| past its edge: the same fields
            assert np.abs(back.normal - b.normal).max() <= 1e-15 and abs(back.offset - b.offset) <= 1e-15, (n, c)


_Z = np.array([0.0, 0.6, 0.8]) + 1e-3j  # a complex 3-vector: its real parts are a unit point


@pytest.mark.parametrize("read", [
    bloch_angles,
    bloch_to_angles,
    lambda z: circle_through_points(np.stack([z, z.conj()])),
    lambda z: SphericalCircle(z, 0.5),
    lambda z: SphericalCircle(z.tolist(), 0.5),
    lambda z: SphericalCircle([0.0, 0.0, 1.0], 0.5).plane_residual(z),
    lambda z: distance_to_circle(SphericalCircle([0.0, 0.0, 1.0], 0.5), z),
    lambda z: class_distance(SinglePoint(np.array([0.0, 0.0, 1.0])), z),
    lambda z: cut_sphere(z[None], [0.5], 1e-8),
    lambda z: cut_sphere([[0.0, 0.0, 1.0]], z[:1], 1e-8),
], ids=["bloch_angles", "bloch_to_angles", "circle_through_points", "circle", "circle_list", "plane_residual",
        "distance_to_circle", "class_distance", "cut_sphere_normals", "cut_sphere_offsets"])
def test_complex_input_is_invalid_input(read):
    # numpy cuts a complex array to its real parts with a ComplexWarning (an error under the suite's
    # filter) and raises a bare TypeError on a list of complex numbers: both are invalid input instead
    for z in (_Z, np.array([0.0, 0.0, 1.0j])):
        with pytest.raises(InvalidInputError, match="^expected real numbers, got an array of complex128$"):
            read(z)


def test_real_arrays_are_read_without_a_copy():
    points = np.array([[0.0, 0.6, 0.8]])
    assert real_array(points) is points
    for values in ([[0, 1, 0]], np.array([[False, True, False]]), np.array([[0, 1, 0]], dtype=np.float32)):
        got = real_array(values)
        assert got.dtype == np.float64 and np.array_equal(got, [[0.0, 1.0, 0.0]])
    for values in (["a", "b"], [None], [[0.0, 1.0], [0.0]]):
        with pytest.raises(InvalidInputError, match="^expected "):
            real_array(values)


def test_circle_offset_bound():
    with pytest.raises(EmptyCircleError):
        SphericalCircle(np.array([0.0, 0.0, 1.0]), 1.5)
    with pytest.raises(EmptyCircleError):
        circle_from_mask_params(0.3, 0.1, 1.0001)


def test_circle_from_mask_params_horizontal():
    circle = circle_from_mask_params(0.0, 0.0, np.cos(np.pi / 3))
    assert np.allclose(circle.normal, [0, 0, 1])
    assert abs(circle.offset - 0.5) < 1e-15


def test_circle_from_mask_params_vertical():
    for theta in (0.0, 1.0, 4.5):
        circle = circle_from_mask_params(np.pi / 2, theta, 0.3)
        assert abs(circle.normal[2]) < 1e-15


def test_circle_from_mask_params_membership():
    x0, y0 = np.pi / 3, np.pi / 4
    h = np.cos(np.pi / 4) * np.cos(x0) - np.sin(np.pi / 4) * np.sin(x0) * np.cos(y0 - np.pi / 4)
    circle = circle_from_mask_params(np.pi / 4, np.pi / 4, h)
    assert circle.plane_residual(angles_to_bloch(AngleState(x0, y0))) <= 1e-12


def test_canonical_mask_params_horizontal():
    alpha, theta, cval = canonical_mask_params(SphericalCircle(np.array([0.0, 0.0, 1.0]), 0.5))
    assert (alpha, theta, cval) == (0.0, 0.0, 0.5)


def test_canonical_mask_params_great_circle_picks_theta_below_pi():
    alpha, theta, cval = canonical_mask_params(SphericalCircle(np.array([0.0, 1.0, 0.0]), 0.0))
    assert abs(alpha - np.pi / 2) < 1e-15
    assert abs(theta - np.pi / 2) < 1e-15
    assert cval == 0.0


def test_canonical_mask_params_flips_a_minus_z_normal():
    # the canonical orientation keeps c >= 0, so a circle below the equator has normal -Z
    circle = SphericalCircle(np.array([0.0, 0.0, 1.0]), -0.5)
    assert np.array_equal(circle.normal, [0.0, 0.0, -1.0]) and circle.offset == 0.5
    assert canonical_mask_params(circle) == (0.0, 0.0, -0.5)
    assert circles_equal(circle_from_mask_params(0.0, 0.0, -0.5), circle, tol=0.0)


@pytest.mark.parametrize("c", [0.0, 0.3])
@pytest.mark.parametrize("pole", [1.0, -1.0])
def test_canonical_mask_params_alpha_below_pi_near_the_poles(pole, c):
    # normals within rho of a pole, azimuths on both sides of pi (which the great-circle flip
    # mirrors): alpha stays in [0, pi) without any clamp, and the parameters give the circle back
    for rho in np.logspace(-15, -12, 31):
        for phi in (0.3, np.pi - 1e-9, np.pi + 1e-9, 4.0, 2 * np.pi - 0.3):
            n = np.array([rho * np.cos(phi), rho * np.sin(phi), pole * np.sqrt(1.0 - rho * rho)])
            circle = SphericalCircle(n, c)
            alpha, theta, cval = canonical_mask_params(circle)
            assert 0.0 <= alpha < np.pi and 0.0 <= theta < 2 * np.pi
            assert circles_equal(circle_from_mask_params(alpha, theta, cval), circle, tol=1e-12)


def test_canonical_mask_params_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        c = rng.uniform(-0.999, 0.999)
        circle = SphericalCircle(n, c)
        alpha, theta, cval = canonical_mask_params(circle)
        assert 0.0 <= alpha < np.pi and 0.0 <= theta < 2 * np.pi
        again = circle_from_mask_params(alpha, theta, cval)
        assert circles_equal(circle, again, tol=1e-9)


def test_circle_through_points_great_circle():
    circle, margin = circle_through_points(
        [np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0]), np.array([1.0, 0.0, 0.0])]
    )
    assert np.allclose(np.abs(circle.normal), [0, 1, 0])
    assert circle.offset == 0.0
    assert margin < 1e-15


def test_circle_through_points_shared_latitude():
    z = np.cos(1.1)
    r = np.sin(1.1)
    pts = [np.array([r * np.cos(t), r * np.sin(t), z]) for t in (0.3, 2.0, 4.0)]
    circle, margin = circle_through_points(pts)
    alpha, theta, cval = canonical_mask_params(circle)
    assert abs(alpha) < 1e-12
    assert abs(cval - z) < 1e-12
    assert margin < 1e-15


def test_circle_through_points_recovers_planted():
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = rng.normal(size=3)
        circle = SphericalCircle(n / np.linalg.norm(n), rng.uniform(-0.95, 0.95))
        samples = sample_circle(circle, 3)
        if min(
            np.linalg.norm(angles_to_bloch(a) - angles_to_bloch(b))
            for i, a in enumerate(samples)
            for b in samples[i + 1 :]
        ) < 1e-6:
            continue
        rebuilt, margin = circle_through_points([angles_to_bloch(s) for s in samples])
        assert circles_equal(circle, rebuilt, tol=1e-9)
        assert margin < 1e-13


def test_empty_circle_messages_print_plain_floats():
    with pytest.raises(EmptyCircleError, match=r"plane offset 1\.5 misses"):
        SphericalCircle(np.array([0.0, 0.0, 2.0]), 3.0)
    with pytest.raises(EmptyCircleError, match=r"level value 1\.5 outside"):
        circle_from_mask_params(0.1, 0.2, np.float64(1.5))

def test_circle_through_points_degenerate():
    # coincident points, and points 2e-8 apart on one great circle, lie on many circles: the fit returns one of
    # them, with a margin of rounding size, where the three-point rule raised
    p, q = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])
    near = [np.array([np.cos(phi), np.sin(phi), 0.0]) for phi in (0.0, 2e-8, 4e-8)]
    for points in ([p, p, q], [p, p, p], near):
        circle, margin = circle_through_points(points)
        assert margin <= 1e-15


@settings(max_examples=300)
@given(_circles, st.integers(3, 60))
def test_sampled_circle_points_fit_within_rounding(circle, k):
    points = np.array([angles_to_bloch(s) for s in sample_circle(circle, k)])
    _, margin = circle_through_points(points)
    # a sample within 1e-12 of a pole is snapped to it, off its circle's plane by as much; the least-squares plane's
    # worst distance is at most sqrt(k) times the samples' own worst distance from the plane they came from
    assert margin <= 1e-14 + np.sqrt(k) * np.abs(points @ circle.normal - circle.offset).max()


@settings(max_examples=300)
@given(_circles, st.integers(4, 60), st.data(), st.floats(1e-6, 0.1))
def test_a_sample_moved_off_its_circle_shows_in_the_margin(circle, k, data, d):
    # one of k evenly spaced samples moved along the sphere to plane distance d, towards the equator
    points = np.array([angles_to_bloch(s) for s in sample_circle(circle, k)])
    n, c = circle.normal, circle.offset
    i = data.draw(st.integers(0, k - 1))
    u = points[i] - (points[i] @ n) * n
    height = c - d if c > 0 else c + d
    points[i] = height * n + np.sqrt(1.0 - height**2) * u / np.linalg.norm(u)
    _, margin = circle_through_points(points)
    assert margin >= d / 5


@pytest.mark.parametrize("points", [
    [], np.zeros((0, 3)), np.zeros(3), np.zeros((2, 2)), np.zeros((2, 4)), np.zeros((2, 3, 1)), [[0, 0, 1], [1, 0]],
    [[0.0, 0.0, np.nan]], [[0.0, 0.0, np.inf]], [[1.5e308, 0, 0], [1.5e308, 0, 0]], [[1.7e308, 0, 0], [-1.7e308, 0, 0], [-1.7e308, 0, 0]],
    "abc", [[None, 0, 1]], None,
])
def test_circle_through_points_needs_a_finite_stack(points):
    # never numpy's LinAlgError or its conversion errors, and never a warning
    with pytest.raises(InvalidInputError):
        circle_through_points(points)


@pytest.mark.parametrize("shape", [(), (2,), (4,), (2, 2), (2, 3, 3)])
def test_bloch_angles_rejects_bad_shapes(shape):
    with pytest.raises(InvalidInputError, match="3-vector or an"):
        bloch_angles(np.zeros(shape))


@pytest.mark.parametrize("p", [[0.0, 1.0], [[0.0, 0.0, 1.0]], np.zeros((2, 3))])
def test_bloch_to_angles_takes_one_3_vector(p):
    with pytest.raises(InvalidInputError, match="^expected a 3-vector$"):
        bloch_to_angles(p)


@pytest.mark.parametrize(
    "normal, offset, message",
    [
        ([0.0, 0.0, 0.0], 0.0, "circle normal must be nonzero"),
        ([0.0, np.nan, 1.0], 0.0, "finite 3-vector normal"),
        ([0.0, np.inf, 1.0], 0.0, "finite 3-vector normal"),
        ([0.0, 0.0, 1.0], np.nan, "finite offset"),
        ([0.0, 0.0, 1.0], -np.inf, "finite offset"),
    ],
)
def test_circle_rejects_invalid_planes(normal, offset, message):
    with pytest.raises(InvalidInputError, match=message):
        SphericalCircle(np.array(normal), offset)


def test_circle_repr_shows_the_canonical_plane():
    assert repr(SphericalCircle(np.array([0.0, 0.0, -2.0]), -1.0)) == "SphericalCircle(n=(0, 0, 1), c=0.5)"


@pytest.mark.parametrize("args", [(np.nan, 0.0, 0.5), (0.3, np.nan, 0.5), (0.3, 0.1, np.nan), (np.inf, 0.0, 0.5)])
def test_circle_from_mask_params_rejects_non_finite(args):
    with pytest.raises(InvalidInputError, match="mask parameters must be finite"):
        circle_from_mask_params(*args)


def test_sample_circle_needs_a_sample():
    circle = SphericalCircle(np.array([0.0, 0.0, 1.0]), 0.5)
    with pytest.raises(InvalidInputError, match="at least one sample"):
        sample_circle(circle, 0)


@pytest.mark.parametrize("k", [10**20, 2**62, np.int64(2**62)])
def test_sample_circle_rejects_a_count_numpy_cannot_represent(k):
    # 24 * k bytes of (k, 3) points past the largest array size: invalid input before any array is made
    circle = SphericalCircle(np.array([0.0, 0.0, 1.0]), 0.5)
    with pytest.raises(InvalidInputError, match=re.escape(f"too many samples: k={k!r} points exceed")):
        sample_circle(circle, k)


@pytest.mark.parametrize("k", [2.5, 3.0, np.float64(3.0), "3", None])
def test_sample_circle_needs_an_integer_count(k):
    # k = 2.5 gave 3 points at 0, 0.8 pi and 1.6 pi, not uniformly spaced; k = "3" a bare TypeError
    circle = SphericalCircle(np.array([0.0, 0.0, 1.0]), 0.5)
    with pytest.raises(InvalidInputError, match=re.escape(f"integer count of them, got k={k!r}")):
        sample_circle(circle, k)
    assert len(sample_circle(circle, np.int64(3))) == 3


# --- intersections ------------------------------------------------------------


def cut_pair(c1, c2):
    """The sphere cut by the planes of two circles."""
    return cut_sphere(np.vstack([c1.normal, c2.normal]), [c1.offset, c2.offset], 1e-9)


def test_intersect_tangent_at_pole():
    c1 = circle_from_mask_params(np.pi / 8, 0.0, np.cos(np.pi / 8))
    c2 = circle_from_mask_params(np.pi / 4, 0.0, np.cos(np.pi / 4))
    hit = cut_pair(c1, c2)
    assert isinstance(hit, SinglePoint)
    assert np.linalg.norm(hit.point - np.array([0, 0, 1])) < 1e-9


def test_intersect_vertical_pair():
    anchor = AngleState(np.pi / 6, np.pi / 4)
    p0 = angles_to_bloch(anchor)
    c1 = circle_from_mask_params(np.pi / 2, 0.3, float(-np.sin(np.pi / 6) * np.cos(np.pi / 4 - 0.3)))
    c2 = circle_from_mask_params(np.pi / 2, 1.9, float(-np.sin(np.pi / 6) * np.cos(np.pi / 4 - 1.9)))
    hit = cut_pair(c1, c2)
    assert isinstance(hit, PointPair)
    expected = {tuple(np.round(p0, 9)), tuple(np.round(angles_to_bloch(AngleState(5 * np.pi / 6, np.pi / 4)), 9))}
    got = {tuple(np.round(hit.p1, 9)), tuple(np.round(hit.p2, 9))}
    assert got == expected


def test_intersect_coincident_and_empty():
    c = circle_from_mask_params(0.4, 1.0, 0.2)
    assert isinstance(cut_pair(c, c), Circle)
    other = circle_from_mask_params(0.4, 1.0, 0.7)
    assert isinstance(cut_pair(c, other), Empty)


def test_intersect_disjoint_tilted():
    # two small caps on opposite sides
    c1 = SphericalCircle(np.array([0.0, 0.0, 1.0]), 0.95)
    c2 = SphericalCircle(np.array([0.0, 0.0, -1.0]), 0.95)
    assert isinstance(cut_pair(c1, c2), Empty)


@pytest.mark.parametrize("angle", [1e-5, 1e-6, 1e-7, 1e-8, 3e-9])
def test_intersect_tiny_plane_angles_stay_accurate(angle):
    # planes separated by angles below ~1e-8 defeat the naive 1 - dot^2
    # denominator; both circles pass through a common point, which must
    # come back in the intersection to near machine precision
    p0 = angles_to_bloch(AngleState(1.1, 2.4))
    n1 = np.array([0.3, -0.5, 0.81])
    n1 /= np.linalg.norm(n1)
    axis = np.cross(n1, [0.0, 0.0, 1.0])
    axis /= np.linalg.norm(axis)
    n2 = n1 + angle * np.cross(axis, n1)
    n2 /= np.linalg.norm(n2)
    c1 = SphericalCircle(n1, float(n1 @ p0))
    c2 = SphericalCircle(n2, float(n2 @ p0))
    hit = cut_pair(c1, c2)
    assert isinstance(hit, (PointPair, SinglePoint))
    pts = [hit.point] if isinstance(hit, SinglePoint) else [hit.p1, hit.p2]
    best = min(np.linalg.norm(p - p0) for p in pts)
    assert best < 1e-16 / angle + 1e-9
    # the achievable residual degrades with conditioning: circle data at
    # ~1e-16 precision locates the far crossing only to ~1e-16/angle
    allowance = 1e-9 + 1e-15 / angle
    for p in pts:
        assert abs(np.linalg.norm(p) - 1.0) < allowance
        assert c1.plane_residual(p) < allowance and c2.plane_residual(p) < allowance



@pytest.mark.parametrize("tol", [1e-4, 1e-9])
@pytest.mark.parametrize("k, kind", [(1.5, SinglePoint), (3.0, PointPair)])
def test_cut_line_collapses_within_twice_tol(tol, k, kind):
    # two planes whose common line has squared radius 1 - |q|^2 = k * tol:
    # at most 2 * tol the cut is the line's foot point, above it two crossings
    r = np.sqrt(1.0 - k * tol)
    rot, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))
    normals = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]) @ rot.T
    hit = cut_sphere(normals, [r, 0.0], tol)
    assert isinstance(hit, kind)
    if kind is SinglePoint:
        assert np.abs(hit.point - rot[:, 0]).max() < 1e-12
    else:
        assert np.linalg.norm(hit.p1 - hit.p2) == pytest.approx(2 * np.sqrt(k * tol), rel=1e-6)


@pytest.mark.parametrize("tol", [1e-4, 1e-9])
@pytest.mark.parametrize("k, kind", [(1.5, SinglePoint), (3.0, Circle)])
def test_cut_plane_collapses_within_twice_tol(tol, k, kind):
    # one plane with squared radius 1 - c^2 = k * tol, on either side of 2 * tol
    n = np.array([0.3, -0.5, 0.81]) / np.linalg.norm([0.3, -0.5, 0.81])
    for sign in (1.0, -1.0):
        hit = cut_sphere(sign * n[None, :], [sign * np.sqrt(1.0 - k * tol)], tol)
        assert isinstance(hit, kind)
        if kind is SinglePoint:
            assert np.abs(hit.point - n).max() < 1e-12
        else:
            assert circles_equal(hit.circle, SphericalCircle(n, np.sqrt(1.0 - k * tol)), tol=1e-12)


@given(
    st.tuples(*[st.floats(-1, 1)] * 3).filter(lambda v: np.linalg.norm(v) > 1e-2),
    st.tuples(*[st.floats(-1, 1)] * 3).filter(lambda v: np.linalg.norm(v) > 1e-2),
    st.floats(-0.9, 0.9),
    st.floats(-0.9, 0.9),
)
def test_intersect_symmetric_and_on_both(n1, n2, c1, c2):
    a = SphericalCircle(np.array(n1) / np.linalg.norm(n1), c1)
    b = SphericalCircle(np.array(n2) / np.linalg.norm(n2), c2)
    ab = cut_pair(a, b)
    ba = cut_pair(b, a)
    assert type(ab) is type(ba)
    if isinstance(ab, PointPair):
        for p in (ab.p1, ab.p2, ba.p1, ba.p2):
            assert abs(np.linalg.norm(p) - 1.0) < 1e-9
            assert a.plane_residual(p) < 1e-9
            assert b.plane_residual(p) < 1e-9
        assert np.allclose(ab.p1, ba.p1, atol=1e-9)


# --- sampling ------------------------------------------------------------------


def test_sample_equator():
    samples = sample_circle(SphericalCircle(np.array([0.0, 0.0, 1.0]), 0.0), 4)
    ys = [s.y for s in samples]
    assert all(abs(s.x - np.pi / 2) < 1e-12 for s in samples)
    assert np.allclose(ys, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2], atol=1e-12)


def test_sample_point_circle():
    samples = sample_circle(SphericalCircle(np.array([0.0, 0.0, 1.0]), 1.0), 3)
    assert len(samples) == 3
    assert all((s.x, s.y) == (0.0, 0.0) for s in samples)


def _sample_circle_reference(circle, k):
    """The per-point loop that sample_circle replaced, kept as its reference."""
    n = circle.normal
    r = circle.radius
    if r < 1e-9:
        pole = circle.offset * n
        pole /= np.linalg.norm(pole)
        return [bloch_to_angles(pole)] * k
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(n)))] = 1.0
    e1 = axis - (axis @ n) * n
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(n, e1)
    out = []
    for j in range(k):
        phi = TWO_PI * j / k
        p = circle.center + r * (np.cos(phi) * e1 + np.sin(phi) * e2)
        p /= np.linalg.norm(p)
        out.append(bloch_to_angles(p))
    return out


@given(
    st.sampled_from([0.0]) | st.floats(min_value=0.0, max_value=np.pi, exclude_max=True),
    angles_y,
    st.sampled_from([0.0, np.pi]) | angles_x,
    angles_y,
    st.integers(1, 400),
)
def test_sample_circle_matches_per_point_reference(alpha, theta, x, y, k):
    # alpha = 0 with a pole anchor gives a point circle
    circle = maskable_circle(MaskerParams(alpha, theta), AngleState(x, y))
    got = sample_circle(circle, k)
    want = _sample_circle_reference(circle, k)
    assert [(s.x.hex(), s.y.hex()) for s in got] == [(s.x.hex(), s.y.hex()) for s in want]


def test_sample_circle_residuals():
    rng = np.random.default_rng(11)
    for _ in range(50)[:50]:
        circle = SphericalCircle(rng.normal(size=3), rng.uniform(-0.99, 0.99))
        for s in sample_circle(circle, 100):
            assert circle.plane_residual(angles_to_bloch(s)) < 1e-10


def test_distance_to_circle():
    equator = SphericalCircle(np.array([0.0, 0.0, 1.0]), 0.0)
    assert distance_to_circle(equator, np.array([1.0, 0.0, 0.0])) < 1e-15
    assert abs(distance_to_circle(equator, np.array([0.0, 0.0, 1.0])) - np.sqrt(2)) < 1e-12


def test_distance_to_circle_keeps_the_points_leading_shape():
    equator = SphericalCircle(np.array([0.0, 0.0, 1.0]), 0.0)
    assert distance_to_circle(equator, np.array([[0.0, 0.0, 1.0]])).shape == (1,)
    d = distance_to_circle(equator, bloch_points(np.array([[0.0], [np.pi / 2]]), np.array([0.0, 1.0, 2.0])))
    assert d.shape == (2, 3)
    assert np.allclose(d, [[np.sqrt(2)] * 3, [0.0] * 3], rtol=0, atol=1e-15)


def signed_bits(a):
    """Each float's bit pattern, so -0.0 and +0.0 differ."""
    return np.asarray(a, dtype=float).view(np.int64)


def awkward_rows(rng, n):
    """(n, 3) floats: zeros of both signs, subnormals, magnitudes up to ~1e150, whose squares stay finite."""
    rows = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-170, 150, size=(n, 3))
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e150, -1e150, 1.0])
    pick = rng.random((n, 3)) < 0.3
    rows[pick] = rng.choice(special, np.count_nonzero(pick))
    return rows


def test_column_norms_are_the_linalg_norms_bit_for_bit():
    # sqrt((d0^2 + d1^2) + d2^2) is np.linalg.norm(axis=-1) exactly, for C and F layouts alike;
    # the other order, d0^2 + (d1^2 + d2^2), is not
    rng = np.random.default_rng(27)
    rows = awkward_rows(rng, 5000)
    for p in (rows, np.asfortranarray(rows), bloch_points(rng.uniform(0, 4, 5000), rng.uniform(0, 7, 5000))):
        ref = np.linalg.norm(p, axis=-1)
        assert np.array_equal(signed_bits(column_norms(p[:, 0], p[:, 1], p[:, 2])), signed_bits(ref))
        for q in (p[17], np.array([-0.0, 5e-324, 1e150])):
            assert np.array_equal(signed_bits(point_distances(p, q)), signed_bits(np.linalg.norm(p - q, axis=-1)))
    assert np.array_equal(signed_bits(point_distances(rows[3], rows[4])), signed_bits(np.linalg.norm(rows[3] - rows[4])))
    plain = rng.normal(size=(5000, 3))
    right_first = np.sqrt(np.square(plain[:, 0]) + (np.square(plain[:, 1]) + np.square(plain[:, 2])))
    assert not np.array_equal(right_first, np.linalg.norm(plain, axis=-1))


def test_distance_to_circle_is_the_linalg_norm_formula_bit_for_bit():
    rng = np.random.default_rng(28)
    for _ in range(20):
        normal = rng.normal(size=3)
        circle = SphericalCircle(normal / np.linalg.norm(normal), rng.uniform(-0.99, 0.99))
        for p in (awkward_rows(rng, 500), bloch_points(rng.uniform(0, 4, 500), rng.uniform(0, 7, 500))):
            height = p @ circle.normal
            rho = np.linalg.norm(p - height[..., None] * circle.normal, axis=-1)
            ref = np.sqrt((height - circle.offset) ** 2 + (rho - circle.radius) ** 2)
            assert np.array_equal(signed_bits(distance_to_circle(circle, p)), signed_bits(ref))


def test_bloch_points_broadcast_the_angles():
    xs, ys = np.linspace(0.1, 3.0, 4), np.linspace(0.0, 6.0, 5)
    assert bloch_points(1.0, 2.0).shape == (3,)
    assert bloch_points(xs, 2.0).shape == (4, 3)
    grid = bloch_points(xs[:, None], ys)
    assert grid.shape == (4, 5, 3)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    assert np.array_equal(grid, bloch_points(gx, gy))
    assert np.array_equal(grid[:, 2], bloch_points(xs, ys[2]))
    assert np.allclose(grid[3, 4], [np.sin(3.0) * np.cos(6.0), np.sin(3.0) * np.sin(6.0), np.cos(3.0)], rtol=0, atol=1e-15)


def test_circles_equal_across_the_orientation_tie_break():
    # a component above CANON_EPS decides a's orientation; in b it sits below it, so the next one decides
    a = SphericalCircle(np.array([2e-12, -0.6, 0.8]), 1e-13)
    b = SphericalCircle(np.array([-5e-13, 0.6, -0.8]), -1e-13)
    assert np.linalg.norm(a.normal - b.normal) > 1.0
    assert circles_equal(a, b) and circles_equal(b, a)
    assert not circles_equal(a, b, tol=1e-13)
