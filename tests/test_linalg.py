import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qmask import (
    AngleState,
    InvalidInputError,
    MaskerParams,
    build_masker,
    reduced_pair,
    sample_circle,
    maskable_circle,
)
from qmask.linalg import frobenius_distances, reduced_entries

BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def test_partial_trace_b_product_state():
    rho = reduced_pair(np.array([1, 0, 0, 0], dtype=complex))[0]
    assert np.allclose(rho, np.diag([1.0, 0.0]))


def test_partial_trace_b_bell_state():
    assert np.allclose(reduced_pair(BELL)[0], np.eye(2) / 2)


def test_partial_trace_a_product_state():
    rho = reduced_pair(np.array([0, 1, 0, 0], dtype=complex))[1]
    assert np.allclose(rho, np.diag([0.0, 1.0]))


def test_partial_trace_a_bell_state():
    assert np.allclose(reduced_pair(BELL)[1], np.eye(2) / 2)


def test_masked_equator_state_is_maximally_mixed():
    # the invariant of the (0, 0) masker vanishes on the equator, so the
    # closed form predicts exactly I/2 on the A side
    psi = build_masker(MaskerParams(0.0, 0.0)).apply(np.pi / 2, 0.0)
    assert np.abs(reduced_pair(psi)[0] - np.eye(2) / 2).max() < 1e-12


def test_masked_state_b_offdiagonal_is_half_invariant():
    iso = build_masker(MaskerParams(0.0, 0.0))
    for x, y in [(0.3, 1.0), (1.2, 4.0), (2.8, 0.5)]:
        rho_b = reduced_pair(iso.apply(x, y))[1]
        assert abs(rho_b[0, 1] - np.cos(x) / 2) < 1e-12
        assert abs(rho_b[1, 0] - np.cos(x) / 2) < 1e-12


def test_mat_distance_vanishes_on_equal_invariant_states():
    params = MaskerParams(0.9, 2.0)
    iso = build_masker(params)
    circle = maskable_circle(params, AngleState(1.0, 0.3))
    samples = sample_circle(circle, 7)
    ref = reduced_pair(iso.apply(samples[0].x, samples[0].y))[0]
    for s in samples[1:]:
        assert np.linalg.norm(reduced_pair(iso.apply(s.x, s.y))[0] - ref) < 1e-12


@pytest.mark.parametrize("bad", [np.array([1, np.nan, 0, 0]), np.array([np.inf, 0, 0, 0])])
def test_non_finite_input_rejected(bad):
    with pytest.raises(InvalidInputError):
        reduced_pair(bad.astype(complex))[0]
    with pytest.raises(InvalidInputError):
        reduced_pair(bad.astype(complex))[1]


def test_wrong_shape_rejected():
    with pytest.raises(InvalidInputError):
        reduced_pair(np.array([1, 0], dtype=complex))[0]


finite = st.floats(min_value=-5, max_value=5)


@given(st.tuples(*[finite] * 8))
def test_trace_consistency_and_psd(parts):
    psi = np.array(parts[:4]) + 1j * np.array(parts[4:])
    norm_sq = float(np.vdot(psi, psi).real)
    rho_a, rho_b = reduced_pair(psi)
    for rho in (rho_a, rho_b):
        assert abs(np.trace(rho).real - norm_sq) < 1e-12 * max(1.0, norm_sq)
        assert np.abs(rho - rho.conj().T).max() < 1e-12 * max(1.0, norm_sq)
        assert np.linalg.eigvalsh(rho).min() > -1e-12 * max(1.0, norm_sq)


@given(st.tuples(*[finite] * 8), finite, finite)
def test_partial_trace_scaling(parts, lam_re, lam_im):
    psi = np.array(parts[:4]) + 1j * np.array(parts[4:])
    lam = complex(lam_re, lam_im)
    scale = abs(lam) ** 2
    bound = 1e-12 * max(1.0, scale * float(np.vdot(psi, psi).real))
    assert np.abs(reduced_pair(lam * psi)[0] - scale * reduced_pair(psi)[0]).max() < bound
    assert np.abs(reduced_pair(lam * psi)[1] - scale * reduced_pair(psi)[1]).max() < bound


@given(st.lists(st.tuples(*[finite] * 8), min_size=1, max_size=8))
def test_reduced_pair_batch_equals_rows(rows):
    parts = np.array(rows)
    psi = parts[:, :4] + 1j * parts[:, 4:]
    rho_a, rho_b = reduced_pair(psi)
    assert rho_a.shape == rho_b.shape == (len(rows), 2, 2)
    for i, row in enumerate(psi):
        row_a, row_b = reduced_pair(row)
        assert np.array_equal(rho_a[i], row_a) and np.array_equal(rho_b[i], row_b)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_reduced_pair_batch_rejects_non_finite(bad):
    psi = np.ones((3, 4), dtype=complex)
    psi[2, 1] = bad
    with pytest.raises(InvalidInputError):
        reduced_pair(psi)


@pytest.mark.parametrize("shape", [(3, 2), (3, 8), (2, 2, 4), (4, 1), ()])
def test_reduced_pair_batch_rejects_bad_shape(shape):
    with pytest.raises(InvalidInputError):
        reduced_pair(np.zeros(shape, dtype=complex))


def einsum_pair(psi):
    """The einsum formulation the kernel replaced: the bitwise reference."""
    psi = np.asarray(psi, dtype=complex)
    m = psi.reshape(-1, 2, 2)
    mc = m.conj()
    shape = psi.shape[:-1] + (2, 2)
    return np.einsum("nab,ncb->nac", m, mc).reshape(shape), np.einsum("nab,nac->nbc", m, mc).reshape(shape)


def einsum_entries(psi):
    """The ENTRY_LABELS entries read off the einsum reference."""
    parts = []
    for rho in einsum_pair(psi):
        parts += [rho[..., 0, 0].real, rho[..., 1, 1].real, rho[..., 0, 1].real, rho[..., 0, 1].imag]
    return np.stack(parts, axis=-1)


def bitwise_equal(a, b):
    a, b = np.asarray(a).view(float), np.asarray(b).view(float)
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


# zeros of both signs, subnormals, and magnitudes whose squares stay finite
component = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324]),
    st.floats(min_value=-1e150, max_value=1e150, allow_nan=False),
)
vectors = st.tuples(*[component] * 8).map(lambda c: np.array(c[:4]) + 1j * np.array(c[4:]))


@given(st.one_of(vectors, st.lists(vectors, min_size=1, max_size=12).map(np.array)))
def test_kernel_matches_einsum_bitwise(psi):
    ref_a, ref_b = einsum_pair(psi)
    rho_a, rho_b = reduced_pair(psi)
    assert bitwise_equal(rho_a, ref_a) and bitwise_equal(rho_b, ref_b)
    assert bitwise_equal(reduced_entries(psi), einsum_entries(psi))
    for rho in (rho_a, rho_b):
        assert np.all(rho[..., 1, 0] == rho[..., 0, 1].conj())
        diagonal = np.stack([rho[..., 0, 0].imag, rho[..., 1, 1].imag])
        assert np.all(diagonal == 0.0) and not np.signbit(diagonal).any()


def negative_zeros(a):
    a = np.asarray(a).view(float)
    return np.count_nonzero((a == 0) & np.signbit(a))


def test_kernel_emits_no_negative_zero():
    # every product in Re rho_A[0, 1] is -0.0, from a signed zero or an underflow
    psi = np.array([[-0.0 - 0.0j, 5e-324 - 5e-324j, 1.0 + 1.0j, -5e-324 + 5e-324j]])
    assert negative_zeros(einsum_pair(psi)) == 0
    assert negative_zeros(reduced_entries(psi)) == 0
    assert negative_zeros(reduced_pair(psi)) == 0


def test_frobenius_distances_are_the_matrix_norms():
    rng = np.random.default_rng(21)
    psi = rng.normal(size=(50, 4)) + 1j * rng.normal(size=(50, 4))
    entries = reduced_entries(psi)
    d = frobenius_distances((entries - entries[0]).T)
    assert d.shape == (2, 50)
    for k, rho in enumerate(reduced_pair(psi)):
        reference = np.linalg.norm(rho - rho[0], axis=(1, 2))
        assert np.allclose(d[k], reference, rtol=1e-15, atol=0)
    assert np.allclose(frobenius_distances(entries[7] - entries[0]), d[:, 7], rtol=1e-15, atol=0)
