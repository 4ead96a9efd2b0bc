import re
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qmask import (
    AmbiguousCircle,
    AngleState,
    CorruptShareError,
    Empty,
    Inconsistent,
    InvalidInputError,
    InvalidSchemeError,
    MaskerParams,
    Scheme,
    Share,
    TwoCandidates,
    Unique,
    angles_to_bloch,
    build_masker,
    circles_equal,
    decode,
    encode,
    fig1_axes,
    fig2_vertical,
    fig3_pole,
    general,
    predicted_reduced,
    preset_scheme,
    preset_schemes,
    reduced_pair,
    share_constraint,
)
from qmask import protocol
from qmask.bloch import CANON_EPS, mask_normals
from _helpers import random_params, random_state

maskers = st.builds(
    MaskerParams,
    st.floats(0.0, np.pi, exclude_max=True),
    st.floats(0.0, 2 * np.pi, exclude_max=True),
)


def states_close(a: AngleState, b: AngleState, tol=1e-8) -> bool:
    return bool(np.linalg.norm(angles_to_bloch(a) - angles_to_bloch(b)) <= tol)


def candidate_set(result):
    if isinstance(result, Unique):
        return [result.state]
    if isinstance(result, TwoCandidates):
        return [result.first, result.second]
    return []


# --- encode / share constraints ------------------------------------------------


def test_encode_pole_family_offdiagonals():
    shares = encode(AngleState(0.0, 0.0), fig3_pole(8))
    assert len(shares) == 7
    for k, share in enumerate(shares, start=1):
        assert abs(share.rho_b[0, 1] - np.cos(k * np.pi / 8) / 2) < 1e-12


def test_encode_zero_information_share():
    share, = encode(AngleState(np.pi / 2, 0.0), Scheme((MaskerParams(0.0, 0.0),)))
    assert np.abs(share.rho_b - np.eye(2) / 2).max() < 1e-12


def test_encode_matches_closed_form():
    rng = np.random.default_rng(0)
    for _ in range(100):
        params, message = random_params(rng), random_state(rng)
        share, = encode(message, Scheme((params,)))
        _, rho_b = predicted_reduced(params, message)
        assert np.abs(share.rho_b - rho_b).max() < 1e-12


def test_share_constraint_horizontal():
    share, = encode(AngleState(np.pi / 3, 1.9), Scheme((MaskerParams(0.0, 0.0),)))
    circle = share_constraint(share)
    assert np.allclose(circle.normal, [0, 0, 1])
    assert abs(circle.offset - 0.5) < 1e-12


def test_share_constraint_great_circle():
    share = Share(MaskerParams(0.3, 0.7), np.eye(2, dtype=complex) / 2)
    circle = share_constraint(share)
    assert circle.offset == 0.0


def test_share_constraint_contains_message():
    rng = np.random.default_rng(1)
    for _ in range(100):
        params, message = random_params(rng), random_state(rng)
        share, = encode(message, Scheme((params,)))
        assert share_constraint(share).plane_residual(angles_to_bloch(message)) < 1e-10


def test_share_constraint_rejects_tampering():
    share = Share(
        MaskerParams(0.3, 0.7),
        np.array([[0.5, 0.7j], [-0.7j, 0.5]], dtype=complex),
    )
    with pytest.raises(CorruptShareError) as excinfo:
        share_constraint(share)
    assert excinfo.value.index == 0


def test_share_constraint_rejects_bad_trace():
    share = Share(MaskerParams(0.3, 0.7), np.array([[0.9, 0.1], [0.1, 0.1]], dtype=complex))
    with pytest.raises(CorruptShareError):
        share_constraint(share)


angles = st.floats(0.0, 2 * np.pi, exclude_max=True)
edge_maskers = st.builds(
    MaskerParams,
    st.one_of(st.just(0.0), st.just(np.pi / 2), st.floats(0.0, np.pi, exclude_max=True)),
    st.one_of(st.just(float(np.nextafter(2 * np.pi, 0.0))), angles),
)


@given(
    st.one_of(st.just(0.0), st.just(np.pi), st.floats(0.0, np.pi)),
    angles,
    st.lists(edge_maskers, min_size=1, max_size=8),
    st.booleans(),
)
def test_stacked_encode_and_decode_equal_the_single_share_path(x, y, params, tie):
    if tie:
        # a vertical masker (pi/2, t) at y = t + pi/2 puts the level within CANON_EPS of 0
        params[0] = MaskerParams(np.pi / 2, params[0].theta)
        y = (params[0].theta + np.pi / 2) % (2 * np.pi)
    message = AngleState(x, y)
    shares = encode(message, Scheme(tuple(params)))
    for p, share in zip(params, shares):
        assert np.array_equal(share.rho_b, reduced_pair(build_masker(p).apply(message.x, message.y))[1])
    circles = [share_constraint(s) for s in shares]
    if tie:
        assert abs(circles[0].offset) <= CANON_EPS
    planes = []

    def record(normals, offsets, tol):
        planes.append((normals, offsets))
        return Empty()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocol, "cut_sphere", record)
        decode(shares)
    normals, offsets = planes[0]
    assert normals.tobytes() == np.array([c.normal for c in circles]).tobytes()
    assert offsets.tobytes() == np.array([c.offset for c in circles]).tobytes()


def _tampered(share, delta):
    return Share(share.masker, share.rho_b + delta)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        ({2: lambda s: Share(s.masker, np.eye(3) / 3)}, "share reduced state must be a finite 2x2 matrix"),
        ({6: lambda s: _tampered(s, np.array([[0.0, np.nan], [0.0, 0.0]]))},
         "share reduced state must be a finite 2x2 matrix"),
        ({4: lambda s: _tampered(s, np.array([[3e-3, 0.0], [0.0, 0.0]]))},
         "share reduced state violates the masking structure (worst deviation 3.000e-03)"),
        ({3: lambda s: _tampered(s, np.array([[0.0, 2e-3j], [0.0, 0.0]])),
          6: lambda s: _tampered(s, np.array([[0.0, 0.0], [0.0, 7e-3]]))},
         "share reduced state violates the masking structure (worst deviation 2.000e-03)"),
        ({5: lambda s: Share(s.masker, np.array([[0.5, 0.6], [0.6, 0.5]], dtype=complex))},
         "share off-diagonal implies impossible level 1.2"),
    ],
    ids=["3x3", "nan", "tampered", "two_tampered", "level"],
)
def test_decode_names_the_first_corrupt_share_among_valid_ones(corrupt, message):
    shares = encode(AngleState(1.1, 2.3), general(9))
    assert len(shares) == 8
    shares = [corrupt[k](s) if k in corrupt else s for k, s in enumerate(shares)]
    with pytest.raises(CorruptShareError, match=f"^{re.escape(message)}$") as excinfo:
        decode(shares)
    assert excinfo.value.index == min(corrupt)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, 0.0])
def test_share_checks_reject_a_tolerance_that_is_not_positive_and_finite(tol):
    shares = encode(AngleState(1.1, 2.3), fig1_axes())
    for check in (lambda: decode(shares, tol=tol), lambda: share_constraint(shares[0], tol=tol)):
        with pytest.raises(InvalidInputError, match=f"^tol={tol} must be a positive finite number$") as excinfo:
            check()
        assert not isinstance(excinfo.value, CorruptShareError)


# --- decode ---------------------------------------------------------------------


def test_decode_axes_scheme_unique():
    rng = np.random.default_rng(2)
    for _ in range(40):
        message = AngleState(rng.uniform(1e-3, np.pi - 1e-3), rng.uniform(1e-3, 2 * np.pi - 1e-3))
        result = decode(encode(message, fig1_axes()))
        assert isinstance(result, Unique)
        assert states_close(result.state, message)


@pytest.mark.parametrize("y0", [np.pi - 1e-6, np.pi + 1e-6, 1e-3, 2 * np.pi - 1e-3])
def test_decode_axes_scheme_near_mirror_plane(y0):
    # messages near the XZ-plane make two share circles nearly tangent;
    # candidate refinement must still recover full precision
    message = AngleState(np.pi / 3, y0)
    result = decode(encode(message, fig1_axes()))
    assert isinstance(result, Unique)
    assert states_close(result.state, message, tol=1e-9)


def test_decode_pole_scheme_any_two_shares():
    for n in (3, 5, 8):
        shares = encode(AngleState(0.0, 0.0), fig3_pole(n))
        for pair in combinations(shares, 2):
            result = decode(list(pair))
            assert isinstance(result, Unique)
            assert states_close(result.state, AngleState(0.0, 0.0))


def test_decode_vertical_scheme_two_candidates_forever():
    message = AngleState(np.pi / 6, np.pi / 4)
    mirror = AngleState(np.pi - np.pi / 6, np.pi / 4)
    for n in (4, 6):
        shares = encode(message, fig2_vertical(n))
        for size in range(2, len(shares) + 1):
            for subset in combinations(shares, size):
                result = decode(list(subset))
                assert isinstance(result, TwoCandidates)
                got = candidate_set(result)
                assert states_close(got[0], message) and states_close(got[1], mirror)


def test_decode_single_share_ambiguous():
    message = AngleState(0.8, 0.9)
    shares = encode(message, fig1_axes())
    result = decode(shares[:1])
    assert isinstance(result, AmbiguousCircle)
    assert result.circle.plane_residual(angles_to_bloch(message)) < 1e-10


def test_decode_duplicate_masker_coincident_then_resolves():
    message = AngleState(1.2, 2.3)
    scheme = Scheme((MaskerParams(0.0, 0.0), MaskerParams(0.0, 0.0), MaskerParams(np.pi / 2, 0.0), MaskerParams(np.pi / 2, np.pi / 2)))
    result = decode(encode(message, scheme))
    assert isinstance(result, Unique)
    assert states_close(result.state, message)


def test_decode_inconsistent_from_conflicting_shares():
    s1 = Share(MaskerParams(0.0, 0.0), np.array([[0.5, 0.2], [0.2, 0.5]], dtype=complex))
    s2 = Share(MaskerParams(0.0, 0.0), np.array([[0.5, 0.4], [0.4, 0.5]], dtype=complex))
    assert isinstance(decode([s1, s2]), Inconsistent)


def test_decode_inconsistent_point_filtering():
    message = AngleState(1.0, 2.0)
    shares = encode(message, fig1_axes())
    bogus = Share(MaskerParams(0.0, 0.0), np.array([[0.5, -0.45], [-0.45, 0.5]], dtype=complex))
    assert isinstance(decode(shares + [bogus]), Inconsistent)


def test_decode_requires_shares():
    with pytest.raises(InvalidInputError):
        decode([])


def test_decode_order_independent():
    message = AngleState(1.1, 0.6)
    shares = encode(message, general(5))[:3]
    reference = sorted((s.x, s.y) for s in candidate_set(decode(shares)))
    for perm in permutations(shares):
        got = sorted((s.x, s.y) for s in candidate_set(decode(list(perm))))
        assert np.allclose(reference, got, atol=1e-9)


@given(
    st.floats(0.0, np.pi),
    st.floats(0.0, 2 * np.pi, exclude_max=True),
    st.lists(maskers, min_size=2, max_size=4),
)
def test_decode_same_for_every_share_order(x, y, params):
    shares = encode(AngleState(x, y), Scheme(tuple(params)))
    reference = decode(shares)
    want = [angles_to_bloch(s) for s in candidate_set(reference)]
    for perm in permutations(shares):
        got = decode(list(perm))
        assert type(got) is type(reference)
        for a, b in zip(want, [angles_to_bloch(s) for s in candidate_set(got)]):
            assert np.abs(a - b).max() < 1e-12
        if isinstance(got, AmbiguousCircle):
            assert circles_equal(got.circle, reference.circle, tol=1e-12)


def test_decode_admits_noise_within_tol():
    # honest shares whose off-diagonals carry noise of 1e-5 still decode
    # under tol = 1e-4, whatever the message
    rng = np.random.default_rng(9)
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    for _ in range(50):
        message = random_state(rng)
        shares = [
            Share(s.masker, s.rho_b + rng.normal(scale=1e-5) * flip)
            for s in encode(message, general(8))
        ]
        result = decode(shares, tol=1e-4)
        assert isinstance(result, Unique)
        assert states_close(result.state, message, tol=1e-3)


def test_decode_noisy_tangent_pole_shares_unique():
    # any two fig3_pole:8 share circles touch only at the message (0, 0);
    # noise of 1e-5 can split the touch into a crossing ~2 sqrt(1e-5) wide,
    # which lies within sqrt(2 * tol) of the foot point and decodes Unique
    rng = np.random.default_rng(10)
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    message = AngleState(0.0, 0.0)
    shares = encode(message, fig3_pole(8))
    for _ in range(50):
        pair = rng.choice(len(shares), size=2, replace=False)
        noisy = [Share(shares[j].masker, shares[j].rho_b + rng.normal(scale=1e-5) * flip) for j in pair]
        result = decode(noisy, tol=1e-4)
        assert isinstance(result, Unique)
        assert states_close(result.state, message, tol=1e-3)

def test_decode_monotone_in_shares():
    rng = np.random.default_rng(4)
    for _ in range(20):
        message = random_state(rng, margin=0.2)
        maskers = tuple(random_params(rng) for _ in range(4))
        shares = encode(message, Scheme(maskers))
        prev = None
        for k in range(1, 5):
            result = decode(shares[:k])
            if isinstance(result, AmbiguousCircle):
                continue
            current = candidate_set(result)
            assert current, "true message can never be filtered out"
            if prev is not None:
                for c in current:
                    assert any(states_close(c, p, tol=1e-7) for p in prev)
            prev = current
        assert any(states_close(message, c) for c in prev)


@pytest.mark.parametrize("delta", [1e-5, 1e-7, 1e-8, 3e-9, 1.5e-9, 1e-10])
def test_decode_robust_to_nearly_duplicate_maskers(delta):
    # two shares whose maskers differ by delta pin nearly the same circle;
    # honest shares must never decode Inconsistent, and the message must
    # survive at full precision whatever the separation scale
    message = AngleState(1.1, 2.4)
    scheme = Scheme(
        (MaskerParams(0.8, 1.0), MaskerParams(0.8, 1.0 + delta), MaskerParams(2.0, 4.0))
    )
    result = decode(encode(message, scheme))
    assert isinstance(result, (Unique, TwoCandidates))
    assert any(states_close(c, message) for c in candidate_set(result))


def test_decode_soundness_random_schemes():
    rng = np.random.default_rng(5)
    for _ in range(50):
        message = random_state(rng, margin=0.1)
        shares = encode(message, Scheme(tuple(random_params(rng) for _ in range(3))))
        for share in shares:
            assert share_constraint(share).plane_residual(angles_to_bloch(message)) < 1e-10
        result = decode(shares)
        cands = candidate_set(result)
        if cands:
            assert any(states_close(message, c) for c in cands)


# --- presets ---------------------------------------------------------------------


def test_preset_families():
    scheme = fig3_pole(8)
    assert [m.alpha for m in scheme.maskers] == pytest.approx(
        [k * np.pi / 8 for k in range(1, 8)]
    )
    assert all(m.theta == 0.0 for m in scheme.maskers)
    scheme = fig2_vertical(8)
    assert all(abs(m.alpha - np.pi / 2) < 1e-15 for m in scheme.maskers)
    assert [m.theta for m in scheme.maskers] == pytest.approx(
        [k * np.pi / 8 for k in range(8)]
    )


def test_preset_minimums():
    with pytest.raises(InvalidSchemeError):
        fig3_pole(2)
    with pytest.raises(InvalidSchemeError):
        fig2_vertical(3)
    with pytest.raises(InvalidSchemeError):
        general(3)
    with pytest.raises(InvalidSchemeError):
        Scheme(())


_PRESET_SIZE_ERRORS = {
    "fig3_pole:2": "the pole family needs n >= 3",
    "fig2_vertical:3": "the vertical family needs n >= 4",
    "general:3": "the general family needs n >= 4",
    **{f"{name}:{n}": f"scheme too large: n={n} maskers exceed an array's size limit"
       for name in ("fig3_pole", "fig2_vertical", "general") for n in (10**20, 2**62)},
}


@pytest.mark.parametrize("spec, message", _PRESET_SIZE_ERRORS.items(), ids=list(_PRESET_SIZE_ERRORS))
def test_preset_sizes_are_checked_before_any_masker_is_made(monkeypatch, spec, message):
    # a size whose (n, 4, 2) stack, 128 * n bytes, numpy cannot hold used to make maskers one by one until
    # memory ran out; the first one made fails the test here instead
    def made(*args):
        raise AssertionError("a masker was made")

    monkeypatch.setattr(protocol, "MaskerParams", made)
    with pytest.raises(InvalidSchemeError, match=f"^{re.escape(message)}$"):
        preset_scheme(spec)


def test_general_five_decodes_from_any_three():
    message = AngleState(1.1, 2.2)
    shares = encode(message, general(5))
    for trio in combinations(shares, 3):
        result = decode(list(trio))
        assert isinstance(result, Unique)
        assert states_close(result.state, message)


def test_general_four_leaves_two_candidates():
    # the three plane normals of this family are linearly dependent
    # (n1 - n2 + n3 = 0), so all three circles share both intersection
    # points and three shares cannot decide between them
    message = AngleState(1.1, 2.2)
    result = decode(encode(message, general(4)))
    assert isinstance(result, TwoCandidates)
    assert any(states_close(c, message) for c in candidate_set(result))


def test_preset_scheme_parsing():
    assert preset_scheme("fig1_axes").label == "fig1_axes"
    assert len(preset_scheme("fig3_pole:6")) == 5
    with pytest.raises(InvalidSchemeError):
        preset_scheme("fig3_pole")
    with pytest.raises(InvalidSchemeError):
        preset_scheme("nope:3")
    with pytest.raises(InvalidSchemeError):
        preset_scheme("fig3_pole:x")
    with pytest.raises(InvalidSchemeError, match="fig1_axes takes no size argument"):
        preset_scheme("fig1_axes:3")
    assert set(preset_schemes()) == {"fig1_axes", "fig3_pole:N", "fig2_vertical:N", "general:N"}


@pytest.mark.parametrize("n", range(5, 11))
def test_general_triples_decode_by_rank(n):
    # for even n the shares k, n/2, n-k have rank-2 normals (n_k + n_{n-k}
    # is parallel to n_{n/2}); every other triple has full rank
    message = AngleState(1.1, 2.2)
    shares = encode(message, general(n))
    for trio in combinations(range(1, n), 3):
        result = decode([shares[k - 1] for k in trio])
        if n % 2 == 0 and trio[1] == n // 2 and trio[0] + trio[2] == n:
            assert isinstance(result, TwoCandidates), trio
            assert any(states_close(c, message) for c in candidate_set(result)), trio
        else:
            assert isinstance(result, Unique), trio
            assert states_close(result.state, message), trio


def test_general_rank_deficient_triples_are_exactly_k_half_mirror():
    # general()'s docstring: up to n = 41 the only triples of plane normals without full rank are k, n/2, n - k
    for n in range(4, 42):
        params = general(n).maskers
        normals = mask_normals(np.array([p.alpha for p in params]), np.array([p.theta for p in params]))
        trios = np.array(list(combinations(range(1, n), 3)))
        sigma3 = np.linalg.svd(normals[trios - 1], compute_uv=False)[:, 2]
        deficient = {tuple(t) for t in trios[sigma3 <= 1e-9].tolist()}
        expected = {(k, n // 2, n - k) for k in range(1, n // 2)} if n % 2 == 0 else set()
        assert deficient == expected, n
        # the gap is wide: rounding noise on one side, a clear rank on the other
        assert sigma3[sigma3 <= 1e-9].max(initial=0.0) <= 1e-12 and sigma3[sigma3 > 1e-9].min(initial=np.inf) >= 1e-6, n
