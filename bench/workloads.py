"""The four benchmark workloads: seeded inputs, one op each, and per-op checks.

Ops drive the public qmask API the way the CLI command bodies do and
serialise with ``qmask.documents`` the document that command would
emit.  Every library call goes through the module attribute at call
time (``analysis.maskable_set``), so the traced run sees it wrapped.

A check returns ``OK``, ``FAIL`` (the op raised or an exact-input
output is wrong) or ``MISS`` (a noisy-share decode that did not land on
the message or was rejected; noisy shares are outside what the protocol
promises, so misses are measured, not counted as failures).  A check
gets ``None`` for the output of an op that raised a qmask error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qmask import analysis, bloch, crosscheck, masking, oracle, protocol
from qmask import documents as docs

OK, FAIL, MISS = "ok", "fail", "miss"

SCAN = 200  # analyze --scan 200: a 200 x 400 grid, 80k nodes
CIRCLE_SAMPLES = 360  # the circle command's default --samples
CLASS_TOL = 1e-9  # anchor-to-class distance, and circle equality
PLANE_TOL = 1e-10  # sample_circle's documented plane residual
DECODE_EXACT_TOL = 1e-8  # acceptance criterion 7's Bloch distance
NOISE_SIGMA = 1e-5  # Gaussian noise on the off-diagonal of a noisy rho_B
NOISE_DECODE_TOL = 1e-4  # decode tol for noisy shares, 10 sigma
NOISE_ACCEPT = 1e-3  # Bloch distance a noisy decode must land within
RANK_TOL = 1e-9  # singular-value cut for the rank of the chosen normals
PRESETS = ("fig1_axes", "fig3_pole:8", "fig2_vertical:8", "general:8", "general:40")


def _anchor(rng) -> bloch.AngleState:
    """A state uniform on the Bloch sphere."""
    return bloch.AngleState(float(np.arccos(rng.uniform(-1.0, 1.0))), rng.uniform(0.0, 2 * np.pi))


def _params(rng) -> masking.MaskerParams:
    return masking.MaskerParams(rng.uniform(0.0, np.pi), rng.uniform(0.0, 2 * np.pi))


def _bloch_distance(a: bloch.AngleState, b: bloch.AngleState) -> float:
    return float(np.linalg.norm(bloch.angles_to_bloch(a) - bloch.angles_to_bloch(b)))


# --- classify and crosscheck --------------------------------------------------


@dataclass(frozen=True)
class OperatorCase:
    family: str  # general | masker | rank_two | product
    op: analysis.GeneralLinearOp
    anchor: bloch.AngleState
    params: masking.MaskerParams | None = None


EXPECTED_CLASS = {
    "general": analysis.SinglePoint,
    "masker": analysis.Circle,
    "rank_two": analysis.PointPair,
    "product": analysis.SinglePoint,
}


def _rank_two_op(rng) -> analysis.GeneralLinearOp:
    """Real coefficients with d0, d1 solved so the constraint stack has rank two."""
    while True:
        a0, a1, b0, b1, c0, c1 = rng.normal(size=6)
        m = np.array([[a0, a1], [c1, -c0]])
        if abs(np.linalg.det(m)) < 1e-3:
            continue
        d0, d1 = np.linalg.solve(m, np.array([c0 * b0 + c1 * b1, b1 * a0 - a1 * b0]))
        return analysis.GeneralLinearOp(a0, a1, b0, b1, c0, c1, d0, d1)


def _product_op(rng) -> analysis.GeneralLinearOp:
    """Both images factor as (|0> + lam |1>) x (a B-side vector)."""
    lam = complex(rng.normal(), rng.normal())
    mu0 = rng.normal(size=2) + 1j * rng.normal(size=2)
    nu0 = np.exp(1j * rng.uniform(0, 2 * np.pi)) * np.array([-np.conj(mu0[1]), np.conj(mu0[0])])
    return analysis.GeneralLinearOp(*mu0, *nu0, *(lam * mu0), *(lam * nu0))


def operator_cases(rng, count: int) -> list[OperatorCase]:
    cases = []
    for i in range(count):
        family = ("general", "masker", "rank_two", "product")[i % 4]
        params = None
        if family == "general":
            op = analysis.GeneralLinearOp(*(rng.normal(size=8) + 1j * rng.normal(size=8)))
        elif family == "masker":
            params = _params(rng)
            op = analysis.GeneralLinearOp.from_isometry(masking.build_masker(params))
        elif family == "rank_two":
            op = _rank_two_op(rng)
        else:
            op = _product_op(rng)
        cases.append(OperatorCase(family, op, _anchor(rng), params))
    return cases


def _class_doc(mask_class) -> dict:
    if isinstance(mask_class, analysis.Circle):
        alpha, theta, cval = bloch.canonical_mask_params(mask_class.circle)
        return {
            "class": "circle",
            "circle": docs.circle_to_doc(mask_class.circle),
            "mask_params": {"alpha": alpha, "theta": theta, "cval": cval},
        }
    if isinstance(mask_class, analysis.SinglePoint):
        return {
            "class": "single_point",
            "point": [float(v) for v in mask_class.point],
            "state": docs.state_to_doc(bloch.bloch_to_angles(mask_class.point)),
        }
    return {
        "class": "point_pair",
        "points": [[float(v) for v in mask_class.p1], [float(v) for v in mask_class.p2]],
        "states": [
            docs.state_to_doc(bloch.bloch_to_angles(mask_class.p1)),
            docs.state_to_doc(bloch.bloch_to_angles(mask_class.p2)),
        ],
    }


def analyze(case: OperatorCase, scan: int | None):
    """The analyze command body: classify, constraints, diagnosis, optional oracle."""
    mask_class = analysis.maskable_set(case.op, case.anchor)
    constraints = analysis.extract_constraints(case.op)
    diag = analysis.product_form_diagnosis(case.op)
    doc = {
        "anchor": docs.state_to_doc(case.anchor),
        "maskable_set": _class_doc(mask_class),
        "constraints": [{"label": c.label, "n": [float(v) for v in c.n], "r": c.r} for c in constraints],
        "product_form": {
            "orthogonality_residual": diag.orthogonality_residual,
            "norm_residual": diag.norm_residual,
            "is_product_form": diag.is_product_form,
            "lambda": None if diag.lam is None else {"re": diag.lam.real, "im": diag.lam.imag},
        },
    }
    if scan:
        doc["oracle"] = crosscheck.agreement_report(case.op, case.anchor, oracle.GridSpec(nx=scan, ny=2 * scan))
    return mask_class, diag, doc, docs.dump(doc)


def check_analyze(case: OperatorCase, out) -> str:
    if out is None:
        return FAIL
    mask_class, diag, doc, _ = out
    if "oracle" in doc and doc["oracle"]["agreement"] != "OK":
        return FAIL
    if not isinstance(mask_class, EXPECTED_CLASS[case.family]):
        return FAIL
    if diag.is_product_form != (case.family == "product"):
        return FAIL
    if analysis.class_distance(mask_class, bloch.angles_to_bloch(case.anchor)) > CLASS_TOL:
        return FAIL
    if case.params is not None:
        expected = masking.maskable_circle(case.params, case.anchor)
        if not bloch.circles_equal(mask_class.circle, expected, tol=CLASS_TOL):
            return FAIL
    return OK


# --- secret sharing -----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SharingCase:
    scheme: protocol.Scheme
    message: bloch.AngleState
    subset: tuple[int, ...]
    noise: np.ndarray | None  # one real off-diagonal offset per share
    two_candidates: bool  # the chosen normals have rank 2 (and the scheme is not the pole one)


def sharing_cases(rng, count: int) -> list[SharingCase]:
    schemes = [protocol.preset_scheme(spec) for spec in PRESETS]
    cases = []
    for i in range(count):
        scheme = schemes[i % len(schemes)]
        pole = scheme.label.startswith("fig3_pole")
        message = bloch.AngleState(0.0, 0.0) if pole else _anchor(rng)
        n = len(scheme)
        k = 2 if pole else int(rng.integers(3, n + 1))
        subset = tuple(sorted(int(j) for j in rng.choice(n, size=k, replace=False)))
        noise = rng.normal(scale=NOISE_SIGMA, size=n) if i % 4 == 3 else None
        # masker plane normals, written out here rather than taken from qmask
        normals = np.array([
            [-np.sin(m.alpha) * np.cos(m.theta), -np.sin(m.alpha) * np.sin(m.theta), np.cos(m.alpha)]
            for m in (scheme.maskers[j] for j in subset)
        ])
        rank = int(np.sum(np.linalg.svd(normals, compute_uv=False) > RANK_TOL))
        cases.append(SharingCase(scheme, message, subset, noise, rank == 2 and not pole))
    return cases


def share_and_decode(case: SharingCase):
    """Encode, round-trip every share through its file format, decode a subset."""
    shares = protocol.encode(case.message, case.scheme)
    if case.noise is not None:
        shares = [
            protocol.Share(s.masker, s.rho_b + e * np.array([[0.0, 1.0], [1.0, 0.0]]))
            for s, e in zip(shares, case.noise)
        ]
    held = [
        docs.share_from_doc(docs.load_text(docs.dump(docs.share_to_doc(s)), where="share"), where="share")
        for s in shares
    ]
    tol = protocol.DECODE_TOL if case.noise is None else NOISE_DECODE_TOL
    result = protocol.decode([held[j] for j in case.subset], tol=tol)
    if isinstance(result, protocol.Unique):
        doc = {"result": "unique", "state": docs.state_to_doc(result.state)}
    elif isinstance(result, protocol.TwoCandidates):
        doc = {"result": "two_candidates", "states": [docs.state_to_doc(result.first), docs.state_to_doc(result.second)]}
    elif isinstance(result, protocol.AmbiguousCircle):
        doc = {"result": "ambiguous_circle", "circle": docs.circle_to_doc(result.circle)}
    else:
        doc = {"result": "inconsistent"}
    return result, docs.dump(doc)


def check_sharing(case: SharingCase, out) -> str:
    if out is None:
        return FAIL if case.noise is None else MISS
    result, _ = out
    tol = DECODE_EXACT_TOL if case.noise is None else NOISE_ACCEPT
    if case.two_candidates:
        hit = isinstance(result, protocol.TwoCandidates) and min(
            _bloch_distance(result.first, case.message), _bloch_distance(result.second, case.message)
        ) <= tol
    else:
        hit = isinstance(result, protocol.Unique) and _bloch_distance(result.state, case.message) <= tol
    if hit:
        return OK
    return FAIL if case.noise is None else MISS


# --- circle plot --------------------------------------------------------------


@dataclass(frozen=True)
class CircleCase:
    params: masking.MaskerParams
    anchor: bloch.AngleState


def circle_cases(rng, count: int) -> list[CircleCase]:
    return [CircleCase(_params(rng), _anchor(rng)) for _ in range(count)]


def circle_plot(case: CircleCase):
    circle = masking.maskable_circle(case.params, case.anchor)
    samples = bloch.sample_circle(circle, CIRCLE_SAMPLES)
    report = masking.verify_mask(masking.build_masker(case.params), samples)
    return circle, samples, report


def check_circle(case: CircleCase, out) -> str:
    if out is None:
        return FAIL
    circle, samples, report = out
    points = np.array([bloch.angles_to_bloch(s) for s in samples])
    ok = report.ok and len(samples) == CIRCLE_SAMPLES and circle.plane_residual(points).max() <= PLANE_TOL
    return OK if ok else FAIL


def circle_text(out) -> str:
    circle, samples, report = out
    return docs.dump({
        "circle": docs.circle_to_doc(circle),
        "samples": [[s.x, s.y] for s in samples],
        "verify": {"ok": report.ok, "max_deviation_a": report.max_deviation_a, "max_deviation_b": report.max_deviation_b},
    })


# --- registry -----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    make_inputs: object  # (rng, count) -> list of cases
    op: object  # case -> output
    check: object  # (case, output) -> OK | FAIL | MISS
    text: object  # output -> the serialised result fed to the digest
    pool: int  # distinct inputs; a run makes whole passes over them


# Pools are sized so a 20 s run makes ~30 or more passes, which is what
# lets each input's best time escape slow phases of a shared machine.
# crosscheck and circle_plot ops cost about the same whatever the input,
# so their pools are small; the other two keep ten inputs beyond their
# p90.  secret_sharing's pool is a multiple of 20, so every preset meets
# both the exact and the noisy slice equally often.
WORKLOADS = {
    "crosscheck": Workload(operator_cases, lambda c: analyze(c, SCAN), check_analyze, lambda o: o[3], 8),
    "classify": Workload(operator_cases, lambda c: analyze(c, None), check_analyze, lambda o: o[3], 100),
    "secret_sharing": Workload(sharing_cases, share_and_decode, check_sharing, lambda o: o[1], 200),
    "circle_plot": Workload(circle_cases, circle_plot, check_circle, circle_text, 16),
}
