"""Acceptance suite: each core guarantee checked at its stated tolerance.

Every test prints one PASS line on success, so running with ``pytest -s``
(or reading captured output) gives a per-criterion scoreboard.
"""

import json
import subprocess
import sys
from itertools import combinations

import numpy as np

from qmask import (
    AngleState,
    Circle,
    GeneralLinearOp,
    GridSpec,
    MaskerParams,
    PointPair,
    SinglePoint,
    angles_to_bloch,
    build_masker,
    class_distance,
    default_kappa,
    decode,
    encode,
    extract_constraints,
    fig1_axes,
    fig2_vertical,
    fig3_pole,
    grid_deviations,
    maskable_circle,
    maskable_set,
    masker_for_states,
    operator_scale,
    predicted_reduced,
    product_form_diagnosis,
    reduced_pair,
    sample_circle,
    verify_mask,
)
from qmask.protocol import TwoCandidates, Unique
from _helpers import f01_symbolic, planted_product_op, random_op, random_params, random_state, well_separated_triple

ENTRY_WEIGHTS = np.array([1.0, 1.0, np.sqrt(2), np.sqrt(2), 1.0, 1.0, np.sqrt(2), np.sqrt(2)])


def report(n, text):
    print(f"ACCEPTANCE {n} PASS - {text}")


def test_criterion_1_isometry_grid():
    worst = 0.0
    for alpha in np.linspace(0.0, np.pi, 50, endpoint=False):
        for theta in np.linspace(0.0, 2 * np.pi, 50, endpoint=False):
            s = build_masker(MaskerParams(alpha, theta)).matrix
            worst = max(worst, np.abs(s.conj().T @ s - np.eye(2)).max())
    assert worst < 1e-12
    report(1, f"masker isometry on a 50x50 parameter grid, worst |S+S - I| = {worst:.2e}")


def test_criterion_2_closed_form_reduced_states():
    rng = np.random.default_rng(20)
    worst_pair = worst_closed = 0.0
    for _ in range(1000):
        params, anchor = random_params(rng), random_state(rng)
        iso = build_masker(params)
        circle = maskable_circle(params, anchor)
        samples = sample_circle(circle, 20)
        ref = None
        for s in samples:
            psi = iso.apply(s.x, s.y)
            rho_a, rho_b = reduced_pair(psi)
            pa, pb = predicted_reduced(params, s)
            worst_closed = max(worst_closed, np.linalg.norm(rho_a - pa), np.linalg.norm(rho_b - pb))
            if ref is None:
                ref = (rho_a, rho_b)
            else:
                worst_pair = max(
                    worst_pair, np.linalg.norm(rho_a - ref[0]), np.linalg.norm(rho_b - ref[1])
                )
    assert worst_pair < 1e-10
    assert worst_closed < 1e-12
    report(
        2,
        "closed-form reduced states over 1000 random maskers x 20 circle samples, "
        f"pairwise {worst_pair:.2e}, closed-form {worst_closed:.2e}",
    )


def test_criterion_3_any_three_states_maskable():
    rng = np.random.default_rng(30)
    for _ in range(1000):
        states = well_separated_triple(rng)
        params, _ = masker_for_states(*states)
        result = verify_mask(build_masker(params), states, tol=1e-10)
        assert result.ok, (states, result)
    report(3, "1000 random well-separated state triples masked by their common masker at 1e-10")


def test_criterion_4_offdiagonal_plane_coefficients():
    rng = np.random.default_rng(40)
    worst = 0.0
    for _ in range(1000):
        op = random_op(rng)
        constraints = extract_constraints(op)
        p, q, h, r = f01_symbolic(op)
        worst = max(
            worst,
            np.abs(constraints[2].n - [q.real, h.real, p.real]).max(),
            abs(constraints[2].r - r.real),
            np.abs(constraints[3].n - [q.imag, h.imag, p.imag]).max(),
            abs(constraints[3].r - r.imag),
        )
    assert worst < 1e-12
    report(4, f"closed-form planes vs symbolic off-diagonal coefficients, 1000 ops, worst {worst:.2e}")


def _predicted_deviation(constraints, points, p0):
    """Deviation the affine constraints predict: the analytic counterpart
    of the oracle's direct reduced-matrix comparison."""
    normals = np.vstack([c.n for c in constraints])
    rows = (points - p0) @ (normals * ENTRY_WEIGHTS[:, None]).T
    dev_a = np.linalg.norm(rows[:, :4], axis=1)
    dev_b = np.linalg.norm(rows[:, 4:], axis=1)
    return np.maximum(dev_a, dev_b)


def test_criterion_5_oracle_vs_classification():
    rng = np.random.default_rng(50)
    grid = GridSpec(200, 400)
    h = grid.spacing
    ops = []
    for _ in range(60):
        ops.append(random_op(rng))
    for _ in range(20):
        ops.append(GeneralLinearOp.from_isometry(build_masker(random_params(rng))))
    for _ in range(20):
        ops.append(planted_product_op(rng)[0])
    checked = 0
    for op in ops:
        anchor = random_state(rng)
        mask_class = maskable_set(op, anchor)
        if isinstance(mask_class, Circle) and mask_class.circle.radius < 0.15:
            anchor = AngleState(np.pi / 2, rng.uniform(0, 2 * np.pi))
            mask_class = maskable_set(op, anchor)
        p0 = angles_to_bloch(anchor)
        scale = operator_scale(op)
        tol = default_kappa(op) * h

        xs, ys = grid.points()
        dev = grid_deviations(op, anchor, grid)
        points = np.column_stack([np.sin(xs) * np.cos(ys), np.sin(xs) * np.sin(ys), np.cos(xs)])
        flagged = dev <= tol

        # (a) the analytic constraints predict the same membership, away
        # from the knife edge of the threshold
        constraints = extract_constraints(op)
        predicted = _predicted_deviation(constraints, points, p0) <= tol
        margin = np.abs(dev - tol) > 1e-9 * max(1.0, scale)
        assert not np.any((flagged != predicted) & margin), "oracle and constraint flags disagree"

        # (b) completeness: every node within one grid spacing of the set is flagged
        dist = np.atleast_1d(class_distance(mask_class, points))
        assert np.all(flagged[dist <= h * (1 - 1e-9)]), "node within one spacing left unflagged"

        # (c) soundness: flagged nodes sit inside the tolerance band around the set
        normals = np.vstack([c.n for c in constraints]) * ENTRY_WEIGHTS[:, None]
        svals = np.linalg.svd(normals, compute_uv=False)
        if isinstance(mask_class, Circle):
            rank = 1
            trans = np.sqrt(1.0 + 4.0 / mask_class.circle.radius ** 2)
        elif isinstance(mask_class, PointPair):
            rank = 2
            row_norms = np.linalg.norm(np.vstack([c.n for c in constraints]), axis=1)
            keep = np.vstack([c.n for c in constraints])[row_norms > 1e-12 * scale]
            keep /= np.linalg.norm(keep, axis=1)[:, None]
            _, _, vt = np.linalg.svd(keep)
            d = np.cross(vt[0], vt[1])
            d /= np.linalg.norm(d)
            trans = 1.0 + 1.0 / max(abs(float(p0 @ d)), 1e-3)
        else:
            rank = 3
            trans = 1.0
        sigma = svals[rank - 1]
        outer = h + np.sqrt(2.0) * tol / sigma * trans
        assert np.all(dist[flagged] <= outer), "flagged node outside the tolerance band"
        checked += 1
    assert checked == 100
    report(5, "grid oracle vs analytic classification on 100 operators at 200x400, zero disagreements")


def test_criterion_6_never_full_sphere_and_measure_scaling():
    rng = np.random.default_rng(60)
    for _ in range(10000):
        mask_class = maskable_set(random_op(rng), random_state(rng))
        assert isinstance(mask_class, (SinglePoint, PointPair, Circle))

    resolutions = [50, 100, 200, 400]
    circle_op = GeneralLinearOp.from_isometry(build_masker(MaskerParams(np.pi / 4, np.pi / 4)))
    from qmask import masked_fraction_scaling

    circle_rows = masked_fraction_scaling(circle_op, AngleState(np.pi / 3, np.pi / 4), resolutions)
    circle_ratios = [b / a for (_, a), (_, b) in zip(circle_rows, circle_rows[1:])]
    assert all(0.3 <= r <= 0.7 for r in circle_ratios), circle_ratios

    point_op = GeneralLinearOp(1, 0, 0, 1, 0, 0, 0, 0)
    point_rows = masked_fraction_scaling(point_op, AngleState(1.2, 2.0), resolutions)
    point_ratios = [b / a for (_, a), (_, b) in zip(point_rows, point_rows[1:])]
    assert all(0.15 <= r <= 0.35 for r in point_ratios), point_ratios
    report(
        6,
        "no full-sphere class in 10000 random operators; per-doubling fraction ratios "
        f"circle={['%.3f' % r for r in circle_ratios]}, point={['%.3f' % r for r in point_ratios]}",
    )


def _bloch_close(a: AngleState, b: AngleState, tol=1e-8):
    return np.linalg.norm(angles_to_bloch(a) - angles_to_bloch(b)) <= tol


def test_criterion_7_secret_sharing_scenarios():
    rng = np.random.default_rng(70)
    # axes scheme: unique decode across the open rectangle, including
    # messages almost on the mirror plane of the first two circles
    messages = [
        AngleState(rng.uniform(1e-3, np.pi - 1e-3), rng.uniform(1e-3, 2 * np.pi - 1e-3))
        for _ in range(25)
    ]
    messages += [AngleState(np.pi / 3, np.pi - 1e-6), AngleState(2.0, 1e-4)]
    for message in messages:
        result = decode(encode(message, fig1_axes()))
        assert isinstance(result, Unique)
        assert _bloch_close(result.state, message)

    for n in (3, 8):
        shares = encode(AngleState(0.0, 0.0), fig3_pole(n))
        for pair in combinations(shares, 2):
            result = decode(list(pair))
            assert isinstance(result, Unique)
            assert _bloch_close(result.state, AngleState(0.0, 0.0))

    for n in (4, 8):
        x0, y0 = np.pi / 6, np.pi / 4
        shares = encode(AngleState(x0, y0), fig2_vertical(n))
        subsets = list(combinations(range(n), 2)) + list(combinations(range(n), 3)) + [tuple(range(n))]
        for subset in subsets:
            result = decode([shares[i] for i in subset])
            assert isinstance(result, TwoCandidates), "vertical scheme must never decode uniquely"
            assert _bloch_close(result.first, AngleState(x0, y0))
            assert _bloch_close(result.second, AngleState(np.pi - x0, y0))
    report(7, "secret sharing: axes scheme unique, pole scheme from any 2 shares, vertical scheme two candidates")


def test_criterion_8_product_form_diagnosis():
    rng = np.random.default_rng(80)
    worst_lam = 0.0
    for _ in range(200):
        op, lam = planted_product_op(rng)
        diag = product_form_diagnosis(op)
        assert diag.is_product_form
        worst_lam = max(worst_lam, abs(diag.lam - lam))
    assert worst_lam < 1e-10

    for alpha in np.linspace(1e-3, np.pi - 1e-3, 50):
        for theta in (0.0, 2.1):
            op = GeneralLinearOp.from_isometry(build_masker(MaskerParams(alpha, theta)))
            assert not product_form_diagnosis(op).is_product_form
    report(8, f"200 planted product operators detected (lambda within {worst_lam:.2e}); all maskers rejected")


def _run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "qmask.cli", *argv], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_criterion_9_cli_round_trip_and_determinism(tmp_path):
    cases = [
        ("fig1_axes", (1.0472, 0.7854), None),
        ("fig3_pole:5", (0.0, 0.0), 2),
        ("general:6", (1.1, 2.2), 3),
    ]
    for scheme, (x, y), take in cases:
        out_dir = tmp_path / scheme.replace(":", "_")
        code, out, err = _run_cli(
            "share", "--scheme", scheme, "--x", str(x), "--y", str(y), "--out", str(out_dir)
        )
        assert code == 0, err
        paths = json.loads(out)["shares"]
        use = paths[:take] if take else paths
        code, out, err = _run_cli("decode", *use)
        assert code == 0, err
        doc = json.loads(out)
        assert doc["result"] == "unique"
        got = AngleState(doc["state"]["x"], doc["state"]["y"])
        assert _bloch_close(got, AngleState(x, y))

    # byte-identical reruns
    mask_args = ("mask", "--alpha", "0.77", "--theta", "3.21", "--x", "1.9", "--y", "4.4")
    assert _run_cli(*mask_args)[1] == _run_cli(*mask_args)[1]
    dir_a, dir_b = tmp_path / "det_a", tmp_path / "det_b"
    for d in (dir_a, dir_b):
        code, _, err = _run_cli(
            "share", "--scheme", "fig2_vertical:6", "--x", "0.5", "--y", "0.25", "--out", str(d)
        )
        assert code == 0, err
    files_a, files_b = sorted(dir_a.iterdir()), sorted(dir_b.iterdir())
    assert [p.name for p in files_a] == [p.name for p in files_b]
    for pa, pb in zip(files_a, files_b):
        assert pa.read_bytes() == pb.read_bytes()
    report(9, "CLI share/decode round trips recover the message; reruns byte-identical")
