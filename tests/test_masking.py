import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given

from qmask import (
    AngleState,
    DegenerateInputError,
    GeneralLinearOp,
    InvalidInputError,
    MaskerParams,
    angles_to_bloch,
    build_masker,
    hbar,
    maskable_circle,
    masker_for_states,
    predicted_reduced,
    reduced_pair,
    sample_circle,
    verify_mask,
)
from qmask.masking import masker_matrices
from _helpers import (
    EDGE_ARGS,
    edge_or_any,
    field_bits,
    random_params,
    random_state,
    reference_masker_fields,
    well_separated_triple,
)


def masker_fields(alpha, theta):
    p = MaskerParams(alpha, theta)
    return p.alpha, p.theta


def test_params_rules_at_the_edges():
    # the one __init__ gives every pair of edge arguments the fields, or the error, of the earlier rules
    for a in EDGE_ARGS:
        for t in EDGE_ARGS:
            assert field_bits(masker_fields, a, t) == field_bits(reference_masker_fields, a, t), (a, t)


@given(edge_or_any, edge_or_any)
def test_params_rules_are_the_earlier_rules(a, t):
    assert field_bits(masker_fields, a, t) == field_bits(reference_masker_fields, a, t)


def test_params_are_a_frozen_dataclass():
    p = MaskerParams(alpha=np.float64(0.5), theta=2)
    assert p == MaskerParams(0.5, 2.0) and hash(p) == hash(MaskerParams(0.5, 2.0)) and p != MaskerParams(0.5, 1.0)
    assert repr(p) == "MaskerParams(alpha=0.5, theta=2.0)"
    back = pickle.loads(pickle.dumps(p))
    assert back == p and (type(back.alpha), type(back.theta)) == (float, float)
    # replace runs the one __init__: its rules hold for the new fields
    assert dataclasses.replace(p, theta=1.0) == MaskerParams(0.5, 1.0)
    with pytest.raises(InvalidInputError, match=r"^alpha=4\.0 outside \[0, pi\)$"):
        dataclasses.replace(p, alpha=4.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.alpha = 0.25
    assert [f.name for f in dataclasses.fields(p)] == ["alpha", "theta"]


def test_params_validation():
    with pytest.raises(InvalidInputError):
        MaskerParams(np.pi, 0.0)
    with pytest.raises(InvalidInputError):
        MaskerParams(0.5, -0.1)
    for a, t in ((np.nan, 0.0), (0.5, np.inf)):
        with pytest.raises(InvalidInputError, match="masker parameters must be finite"):
            MaskerParams(a, t)


def test_hbar_examples():
    assert abs(hbar(MaskerParams(0.0, 0.0), AngleState(1.1, 2.2)) - np.cos(1.1)) < 1e-15
    assert abs(hbar(MaskerParams(np.pi / 2, 0.0), AngleState(np.pi / 2, 0.0)) + 1.0) < 1e-15
    # cos(pi/4) cos(pi/3) - sin(pi/4) sin(pi/3)
    value = hbar(MaskerParams(np.pi / 4, np.pi / 4), AngleState(np.pi / 3, np.pi / 4))
    assert abs(value - (-0.2588190451025207)) < 1e-12


def test_hbar_matches_circle_normal():
    rng = np.random.default_rng(0)
    for _ in range(100):
        params, s = random_params(rng), random_state(rng)
        circle = maskable_circle(params, s)
        h = hbar(params, s)
        assert abs(h) <= 1.0 + 1e-12
        assert circle.plane_residual(angles_to_bloch(s)) < 1e-12


def test_build_masker_alpha_zero_product_images():
    iso = build_masker(MaskerParams(0.0, 0.0))
    # sin(0) kills u1 and v0: |0> image lives on A=|0>, |1> image on A=|1>
    assert np.abs(iso.matrix[2:, 0]).max() == 0.0
    assert np.abs(iso.matrix[:2, 1]).max() == 0.0


def test_build_masker_half_magnitudes():
    iso = build_masker(MaskerParams(np.pi / 2, 0.0))
    assert np.allclose(np.abs(iso.matrix), 0.5)


def test_isometry_condition_grid():
    for alpha in np.linspace(0.0, np.pi, 25, endpoint=False):
        for theta in np.linspace(0.0, 2 * np.pi, 25, endpoint=False):
            iso = build_masker(MaskerParams(alpha, theta))
            gram = iso.matrix.conj().T @ iso.matrix
            assert np.abs(gram - np.eye(2)).max() < 1e-12


def test_masker_stack_is_isometric_and_equals_each_masker():
    # masker_matrices runs no Gram test: the closed form is the guarantee, pinned here for a stack of k = 1600
    alpha, theta = (g.ravel() for g in np.meshgrid(
        np.linspace(0.0, np.pi, 40, endpoint=False), np.linspace(0.0, 2 * np.pi, 40, endpoint=False)))
    stack = masker_matrices(alpha, theta)
    assert stack.shape == (1600, 4, 2)
    gram = stack.conj().swapaxes(-1, -2) @ stack
    assert np.abs(gram - np.eye(2)).max(axis=(-2, -1)).max() <= 1e-12
    singles = np.stack([build_masker(MaskerParams(a, t)).matrix for a, t in zip(alpha, theta)])
    assert singles.tobytes() == stack.tobytes()


def test_isometry42_rejects_non_isometry():
    op = GeneralLinearOp.from_matrix(np.column_stack([np.array([1, 0, 0, 0], dtype=complex), np.array([1, 0, 0, 0], dtype=complex)]))
    assert op.is_isometry is False
    op = GeneralLinearOp.from_matrix(np.column_stack([np.array([2, 0, 0, 0], dtype=complex), np.array([0, 1, 0, 0], dtype=complex)]))
    assert op.is_isometry is False


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("build", [
    lambda: GeneralLinearOp.from_matrix(1e160 * build_masker(MaskerParams(1.1, 0.7)).matrix),
    lambda: GeneralLinearOp(1.5e308 * (1 + 1j), 0, 0, 0, 0, 0, 0, 0),
], ids=["masker_1e160", "modulus_overflows"])
def test_isometry_test_rejects_a_large_operator_without_forming_its_gram_matrix(build):
    # the Gram matrix of 1e160 times a masker overflowed with a warning; an entry of modulus 2 or more fails anyway
    op = build()
    assert op.exponent >= 1 and op.is_isometry is False


def test_apply_masker_basis_and_superposition():
    iso = build_masker(MaskerParams(1.0, 2.0))
    assert np.allclose(iso.apply(0.0, 0.0), iso.matrix[:, 0])
    assert np.allclose(iso.apply(np.pi, 0.0), iso.matrix[:, 1])
    psi = build_masker(MaskerParams(0.0, 0.0)).apply(np.pi / 2, 0.0)
    iso0 = build_masker(MaskerParams(0.0, 0.0))
    assert np.allclose(psi, (iso0.matrix[:, 0] + iso0.matrix[:, 1]) / np.sqrt(2))
    assert abs(np.vdot(psi, psi) - 1.0) < 1e-14


def test_predicted_reduced_extremes():
    rho_a, rho_b = predicted_reduced(MaskerParams(0.0, 0.0), AngleState(np.pi / 2, 0.3))
    assert np.allclose(rho_a, np.eye(2) / 2) and np.allclose(rho_b, np.eye(2) / 2)
    rho_a, rho_b = predicted_reduced(MaskerParams(0.0, 0.0), AngleState(0.0, 0.0))
    assert np.allclose(rho_a, np.diag([1.0, 0.0]))
    assert np.allclose(rho_b, np.full((2, 2), 0.5))
    assert np.allclose(sorted(np.linalg.eigvalsh(rho_b)), [0.0, 1.0])


def test_reduced_matches_closed_form():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        params, s = random_params(rng), random_state(rng)
        psi = build_masker(params).apply(s.x, s.y)
        rho_a, rho_b = predicted_reduced(params, s)
        assert np.linalg.norm(reduced_pair(psi)[0] - rho_a) < 1e-12
        assert np.linalg.norm(reduced_pair(psi)[1] - rho_b) < 1e-12


def test_maskable_circle_examples():
    circle = maskable_circle(MaskerParams(0.0, 0.0), AngleState(np.pi / 3, np.pi / 4))
    assert np.allclose(circle.normal, [0, 0, 1]) and abs(circle.offset - 0.5) < 1e-15
    anchor = AngleState(np.pi / 6, np.pi / 4)
    vert = maskable_circle(MaskerParams(np.pi / 2, np.pi / 4), anchor)
    assert abs(vert.normal[2]) < 1e-12
    assert vert.plane_residual(angles_to_bloch(anchor)) < 1e-12
    gamma3 = maskable_circle(MaskerParams(np.pi / 2, 0.0), AngleState(np.pi / 3, np.pi / 4))
    assert gamma3.plane_residual(angles_to_bloch(AngleState(np.pi / 3, np.pi / 4))) < 1e-12


def test_verify_mask_on_circle_samples():
    params = MaskerParams(np.pi / 4, np.pi / 4)
    circle = maskable_circle(params, AngleState(np.pi / 3, np.pi / 4))
    report = verify_mask(build_masker(params), sample_circle(circle, 50), tol=1e-10)
    assert report.ok and report.witness is None
    assert report.max_deviation_a < 1e-12 and report.max_deviation_b < 1e-12


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("j", [-530, -500, 250, 500, 530])
def test_verify_mask_scales_its_deviations_exactly(j):
    # computed at unit scale and scaled back by 4**j: the exact deviations, where at raw scale the entries
    # under- or overflowed (1e150 times the masker gave inf with an overflow warning)
    params = MaskerParams(1.1, 0.7)
    states = sample_circle(maskable_circle(params, AngleState(1.0, 1.0)), 360)
    base = verify_mask(build_masker(params), states)
    report = verify_mask(GeneralLinearOp.from_matrix(2.0**j * build_masker(params).matrix), states)
    assert report.max_deviation_a == np.ldexp(base.max_deviation_a, 2 * j)
    assert report.max_deviation_b == np.ldexp(base.max_deviation_b, 2 * j)


@pytest.mark.filterwarnings("error")
def test_verify_mask_rejects_deviations_that_overflow():
    params = MaskerParams(1.1, 0.7)
    states = sample_circle(maskable_circle(params, AngleState(1.0, 1.0)), 360)
    op = GeneralLinearOp.from_matrix(2.0**1000 * build_masker(params).matrix)
    with pytest.raises(InvalidInputError, match="^operator too large: its reduced-state deviations overflow$"):
        verify_mask(op, states)


def test_verify_mask_detects_mismatch():
    states = [AngleState(np.pi / 4, 0.0), AngleState(np.pi / 2, 0.0)]
    report = verify_mask(build_masker(MaskerParams(0.0, 0.0)), states, tol=1e-10)
    assert not report.ok
    assert report.witness == (states[0], states[1])
    # rho_A diagonals differ by (cos(pi/4) - cos(pi/2))/2 each
    expected = abs(np.cos(np.pi / 4) - np.cos(np.pi / 2)) / np.sqrt(2)
    assert abs(report.max_deviation_a - expected) < 1e-12
    assert abs(report.max_deviation_b - expected) < 1e-12


def test_verify_mask_single_state():
    report = verify_mask(build_masker(MaskerParams(1.0, 1.0)), [AngleState(0.5, 0.5)])
    assert report.ok


def test_verify_mask_rejects_empty():
    with pytest.raises(InvalidInputError):
        verify_mask(build_masker(MaskerParams(1.0, 1.0)), [])


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
def test_verify_mask_rejects_a_tolerance_that_is_not_positive_and_finite(tol):
    # a NaN tol reported ok=False with no witness, and an infinite one passed any states
    states = [AngleState(0.5, 0.5), AngleState(2.0, 1.0)]
    with pytest.raises(InvalidInputError, match=f"tol={tol} must be a positive finite number"):
        verify_mask(build_masker(MaskerParams(0.0, 0.0)), states, tol=tol)


def test_verify_mask_separation_scales_with_invariant_gap():
    params = MaskerParams(0.7, 1.3)
    s1, s2 = AngleState(0.4, 2.0), AngleState(2.0, 5.0)
    gap = abs(hbar(params, s1) - hbar(params, s2))
    report = verify_mask(build_masker(params), [s1, s2], tol=gap / np.sqrt(2) - 1e-12)
    assert not report.ok
    assert abs(report.max_deviation_a - gap / np.sqrt(2)) < 1e-12


def test_masker_for_states_axes():
    states = [AngleState(0.0, 0.0), AngleState(np.pi, 0.0), AngleState(np.pi / 2, 0.0)]
    params, cval = masker_for_states(*states)
    assert abs(cval) < 1e-12
    assert verify_mask(build_masker(params), states, tol=1e-10).ok


def test_masker_for_states_shared_latitude():
    x = 1.234
    states = [AngleState(x, y) for y in (0.2, 2.5, 5.0)]
    params, cval = masker_for_states(*states)
    assert abs(params.alpha) < 1e-12
    assert abs(cval - np.cos(x)) < 1e-12


def test_masker_for_states_random_triples():
    rng = np.random.default_rng(2)
    for _ in range(200):
        states = well_separated_triple(rng)
        params, _ = masker_for_states(*states)
        assert verify_mask(build_masker(params), states, tol=1e-10).ok


def test_masker_for_states_degenerate():
    s = AngleState(0.3, 0.4)
    with pytest.raises(DegenerateInputError):
        masker_for_states(s, s, AngleState(1.0, 1.0))


def test_verify_mask_witness_is_first_offender():
    # states[1:3] share the first state's circle; states[3] and states[4] do not
    params = MaskerParams(0.0, 0.0)
    x = np.pi / 3
    states = [AngleState(x, 0.1), AngleState(x, 2.0), AngleState(x, 4.0),
              AngleState(2.0, 1.0), AngleState(0.5, 1.0)]
    report = verify_mask(build_masker(params), states, tol=1e-10)
    assert not report.ok
    assert report.witness == (states[0], states[3])
