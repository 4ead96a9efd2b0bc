import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from qmask import GeneralLinearOp, MaskerParams, build_masker
from qmask import documents as docs
from qmask import protocol
from qmask.cli import main
from _helpers import identity_embedding, random_op, rank_two_op


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_operator(path, op):
    path.write_text(docs.dump(docs.operator_to_doc(op)), encoding="utf-8")
    return str(path)


def test_mask_command_reference_values(capsys):
    code, out, _ = run(capsys, "mask", "--alpha", "0", "--theta", "0", "--x", "1.0471975511965976", "--y", "0.7853981633974483")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["hbar"] - 0.5) < 1e-12
    rho_a = docs.matrix_from_doc(doc["rho_a"])
    assert abs(rho_a[0, 0] - 0.75) < 1e-12 and abs(rho_a[1, 1] - 0.25) < 1e-12
    # reported rho_A is the partial trace of the reported psi
    psi = np.array([complex(re, im) for re, im in doc["psi"]])
    m = psi.reshape(2, 2)
    assert np.abs(m @ m.conj().T - rho_a).max() < 1e-12


def test_mask_command_pole(capsys):
    code, out, _ = run(capsys, "mask", "--alpha", "0", "--theta", "0", "--x", "0", "--y", "0")
    assert code == 0
    assert json.loads(out)["hbar"] == 1.0


def test_mask_state_file(tmp_path, capsys):
    state = tmp_path / "state.json"
    state.write_text(docs.dump({"x": 0.5, "y": 0.25}), encoding="utf-8")
    code, out, _ = run(capsys, "mask", "--alpha", "0.5", "--theta", "1.5", "--state", str(state))
    assert code == 0
    assert json.loads(out)["state"] == {"x": 0.5, "y": 0.25}


def test_mask_rejects_both_state_forms(tmp_path, capsys):
    state = tmp_path / "state.json"
    state.write_text(docs.dump({"x": 0.5, "y": 0.25}), encoding="utf-8")
    code, _, err = run(capsys, "mask", "--alpha", "0", "--theta", "0", "--state", str(state), "--x", "1", "--y", "1")
    assert code == 1 and "not both" in err


def test_circle_command_csv(tmp_path, capsys):
    csv_path = tmp_path / "circle.csv"
    code, out, _ = run(
        capsys, "circle", "--alpha", "0", "--theta", "0",
        "--x", "1.0471975511965976", "--y", "0.7853981633974483",
        "--samples", "360", "--csv", str(csv_path),
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "x,y,X,Y,Z"
    assert len(lines) == 361
    zs = [float(line.split(",")[4]) for line in lines[1:]]
    assert max(abs(z - 0.5) for z in zs) < 1e-12


def test_circle_command_single_sample(tmp_path, capsys):
    csv_path = tmp_path / "one.csv"
    code, out, _ = run(
        capsys, "circle", "--alpha", "0.9", "--theta", "2.0", "--x", "1.1", "--y", "0.3",
        "--samples", "1", "--csv", str(csv_path),
    )
    assert code == 0
    doc = json.loads(out)
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 2
    x, y, bx, by, bz = map(float, lines[1].split(","))
    circle = docs.circle_from_doc(doc["circle"])
    assert circle.plane_residual(np.array([bx, by, bz])) < 1e-10


def test_analyze_masker_circle(tmp_path, capsys):
    op = GeneralLinearOp.from_isometry(build_masker(MaskerParams(0.0, 0.0)))
    op_path = write_operator(tmp_path / "op.json", op)
    code, out, _ = run(capsys, "analyze", "--operator", op_path, "--x", "1.0", "--y", "2.0")
    assert code == 0
    doc = json.loads(out)
    assert doc["maskable_set"]["class"] == "circle"
    assert abs(doc["maskable_set"]["mask_params"]["alpha"]) < 1e-9
    assert len(doc["constraints"]) == 8
    assert doc["product_form"]["is_product_form"] is False


def test_analyze_identity_embedding(tmp_path, capsys):
    op_path = write_operator(tmp_path / "op.json", identity_embedding())
    code, out, _ = run(capsys, "analyze", "--operator", op_path, "--x", "1.0", "--y", "2.0")
    assert code == 0
    doc = json.loads(out)
    assert doc["maskable_set"]["class"] == "single_point"
    assert abs(doc["maskable_set"]["state"]["x"] - 1.0) < 1e-9


def test_analyze_with_oracle_scan(tmp_path, capsys):
    rng = np.random.default_rng(0)
    op = GeneralLinearOp(*(rng.normal(size=8) + 1j * rng.normal(size=8)))
    op_path = write_operator(tmp_path / "op.json", op)
    code, out, _ = run(capsys, "analyze", "--operator", op_path, "--x", "1.2", "--y", "2.5", "--scan", "100")
    assert code == 0
    doc = json.loads(out)
    assert doc["oracle"]["agreement"] == "OK"
    assert doc["oracle"]["flagged"] >= 1


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def _rank_two_found_op():
    rng = np.random.default_rng(11)
    random_op(rng), random_op(rng)
    return rank_two_op(rng)


@pytest.mark.parametrize(
    "op, x, scan",
    [
        (build_masker(MaskerParams(0.0, 0.0)), "0", "50"),  # masker (0, 0) at the pole: sigma_3 = 0
        (_rank_two_found_op(), "1.5707963267948966", "37"),  # rank two: sigma_3 is rounding noise
    ],
    ids=["pole_masker", "rank_two"],
)
def test_analyze_scan_tangent_single_point_band(tmp_path, capsys, op, x, scan):
    # a single point whose constraint stack has rank below three is a tangent cut; its band
    # must stay finite and cover every flagged node, without a division by zero
    op_path = write_operator(tmp_path / "op.json", op)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, _ = run(capsys, "analyze", "--operator", op_path, "--x", x, "--y", "0", "--scan", scan)
    assert code == 0
    doc = _strict_json(out)
    assert doc["maskable_set"]["class"] == "single_point"
    oracle = doc["oracle"]
    assert np.isfinite(oracle["band_bound"])
    assert oracle["band_bound"] >= oracle["max_distance_to_class"]
    assert oracle["agreement"] == "OK"


def test_analyze_rejects_zero_operator(tmp_path, capsys):
    doc = {k: {"re": 0.0, "im": 0.0} for k in docs.OPERATOR_KEYS}
    path = tmp_path / "zero.json"
    path.write_text(docs.dump(doc), encoding="utf-8")
    code, _, err = run(capsys, "analyze", "--operator", str(path), "--x", "1", "--y", "1")
    assert code == 1 and "zero operator" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze"],
        ["analyze", "--scan", "40"],
        ["scan", "--fractions", "10,20,40"],
        ["scan"],
        ["scan", "--tol", "1"],
        ["scan", "--fractions", "10,20", "--kappa", "1"],
    ],
)
def test_overflowing_operator_is_invalid_input(tmp_path, capsys, argv):
    # the squared norm of a 1e160-scale operator overflows and that of a 1e-165-scale one
    # underflows; neither may reach stdout as NaN, Infinity or a verdict at tolerance 0,
    # also where --tol or --kappa is given and the default tolerance is not needed.  The
    # modulus of a0 = 1.5e308 (1 + i) overflows too, and a 1e-310-scale operator is subnormal
    rng = np.random.default_rng(3)
    z = rng.normal(size=8) + 1j * rng.normal(size=8)
    cases = (
        (GeneralLinearOp(*(1e160 * z)), "overflows"),
        (GeneralLinearOp(*(1e-165 * z)), "underflows"),
        (GeneralLinearOp(1.5e308 * (1 + 1j), 0, 0, 0, 0, 0, 0, 0), "overflows"),
        (GeneralLinearOp(*(1e-310 * z)), "underflows"),
    )
    for op, word in cases:
        path = write_operator(tmp_path / "op.json", op)
        code, out, err = run(capsys, argv[0], "--operator", path, "--x", "1.2", "--y", "2.5", *argv[1:])
        assert code == 1 and out == ""
        assert word in err

def test_scan_command(tmp_path, capsys):
    op = GeneralLinearOp.from_isometry(build_masker(MaskerParams(0.0, 0.0)))
    op_path = write_operator(tmp_path / "op.json", op)
    csv_path = tmp_path / "hits.csv"
    code, out, _ = run(
        capsys, "scan", "--operator", op_path, "--x", "1.0471975511965976", "--y", "0.5",
        "--nx", "100", "--ny", "200", "--csv", str(csv_path),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["flagged"] > 0
    lines = csv_path.read_text().splitlines()
    assert len(lines) == doc["flagged"] + 1


def test_scan_fractions_mode(tmp_path, capsys):
    op_path = write_operator(tmp_path / "op.json", identity_embedding())
    code, out, _ = run(
        capsys, "scan", "--operator", op_path, "--x", "1.2", "--y", "2.0",
        "--fractions", "50,100,200",
    )
    assert code == 0
    doc = json.loads(out)
    fr = [row["fraction"] for row in doc["fractions"]]
    assert len(fr) == 3 and fr[2] < fr[0]


# input errors of the operator commands; a zero or empty option value is checked, not read as the option's absence
@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", "--x", "1.2", "--y", "2.5", "--scan", "0"], "grid needs at least 2 points per axis"),
        (["scan", "--x", "1.2", "--y", "2.5", "--fractions", ""], "--fractions must be comma-separated integers"),
        (["scan", "--x", "1.2", "--y", "2.5", "--fractions", "10,a"], "--fractions must be comma-separated integers"),
        (["analyze", "--x", "1.2"], "state required: --state FILE or both --x and --y (radians)"),
        (["scan", "--x", "1.2", "--y", "2.5", "--kappa", "1000"], "--kappa applies only with --fractions"),
        (["scan", "--x", "1.2", "--y", "2.5", "--fractions", "10,20", "--tol", "1"], "--tol applies only without --fractions"),
        (["scan", "--x", "1.2", "--y", "2.5", "--fractions", "10,20", "--nx", "5", "--ny", "3"], "--nx applies only without --fractions"),
        (["scan", "--x", "1.2", "--y", "2.5", "--fractions", "10,20", "--ny", "3"], "--ny applies only without --fractions"),
    ],
    ids=[
        "scan_zero", "fractions_empty", "fractions_not_integers", "x_without_y",
        "kappa_without_fractions", "tol_with_fractions", "nx_with_fractions", "ny_with_fractions",
    ],
)
def test_operator_command_option_errors(tmp_path, capsys, argv, message):
    op_path = write_operator(tmp_path / "op.json", identity_embedding())
    code, out, err = run(capsys, *argv, "--operator", op_path)
    assert (code, out, err) == (1, "", f"qmask: error: {message}\n")


def test_scan_fractions_write_no_csv(tmp_path, capsys):
    op_path = write_operator(tmp_path / "op.json", identity_embedding())
    csv_path = tmp_path / "hits.csv"
    argv = ["scan", "--operator", op_path, "--x", "1.2", "--y", "2.5", "--fractions", "10,20", "--csv", str(csv_path)]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", "qmask: error: --csv applies only without --fractions\n")
    assert not csv_path.exists()


def test_circle_command_needs_a_sample(capsys):
    code, out, err = run(capsys, "circle", "--alpha", "0.9", "--theta", "2.0", "--x", "1.1", "--y", "0.3", "--samples", "0")
    assert (code, out, err) == (1, "", "qmask: error: --samples must be at least 1\n")


def test_scheme_file_without_maskers(tmp_path, capsys):
    scheme_path = tmp_path / "scheme.json"
    scheme_path.write_text(docs.dump({"label": "custom"}), encoding="utf-8")
    code, out, err = run(capsys, "share", "--scheme", str(scheme_path), "--x", "0.8", "--y", "2.6", "--out", str(tmp_path))
    assert (code, out, err) == (1, "", f"qmask: error: scheme ({scheme_path}): expected {{label, maskers: [...]}}\n")


def test_state_and_share_documents_must_be_objects(tmp_path, capsys):
    path = tmp_path / "array.json"
    path.write_text("[1.0, 2.0]", encoding="utf-8")
    code, out, err = run(capsys, "mask", "--alpha", "0", "--theta", "0", "--state", str(path))
    assert (code, out, err) == (1, "", "qmask: error: state: expected a JSON object, got list\n")
    code, out, err = run(capsys, "decode", str(path))
    assert (code, out, err) == (1, "", f"qmask: error: {path}: share: expected a JSON object, got list\n")


def test_share_decode_round_trip(tmp_path, capsys):
    out_dir = tmp_path / "shares"
    code, out, _ = run(
        capsys, "share", "--scheme", "fig1_axes", "--x", "1.0472", "--y", "0.7854",
        "--out", str(out_dir),
    )
    assert code == 0
    paths = json.loads(out)["shares"]
    assert len(paths) == 3
    code, out, _ = run(capsys, "decode", *paths)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"] == "unique"
    assert abs(doc["state"]["x"] - 1.0472) < 1e-8
    assert abs(doc["state"]["y"] - 0.7854) < 1e-8


def test_share_decode_vertical_two_candidates(tmp_path, capsys):
    out_dir = tmp_path / "shares"
    code, out, _ = run(
        capsys, "share", "--scheme", "fig2_vertical:8",
        "--x", str(np.pi / 6), "--y", str(np.pi / 4), "--out", str(out_dir),
    )
    paths = json.loads(out)["shares"]
    for subset in ([0, 1], [2, 5], [0, 3, 6], list(range(8))):
        code, out, _ = run(capsys, "decode", *[paths[i] for i in subset])
        assert code == 0
        doc = json.loads(out)
        assert doc["result"] == "two_candidates"
        xs = sorted(s["x"] for s in doc["states"])
        assert abs(xs[0] - np.pi / 6) < 1e-8 and abs(xs[1] - 5 * np.pi / 6) < 1e-8


def test_share_with_scheme_file(tmp_path, capsys):
    scheme_doc = {
        "label": "custom",
        "maskers": [
            {"alpha": 0.0, "theta": 0.0},
            {"alpha": np.pi / 2, "theta": 0.0},
            {"alpha": np.pi / 2, "theta": np.pi / 2},
        ],
    }
    scheme_path = tmp_path / "scheme.json"
    scheme_path.write_text(docs.dump(scheme_doc), encoding="utf-8")
    out_dir = tmp_path / "shares"
    code, out, _ = run(capsys, "share", "--scheme", str(scheme_path), "--x", "0.8", "--y", "2.6", "--out", str(out_dir))
    assert code == 0
    doc = json.loads(out)
    assert doc["scheme"] == "custom"
    code, out, _ = run(capsys, "decode", *doc["shares"])
    assert json.loads(out)["result"] == "unique"


def test_circle_vertical_family_csv(tmp_path, capsys):
    # vertical circles keep the anchor's plane: the X cos(t) + Y sin(t)
    # combination is constant along each sampled circle
    theta = 0.9
    csv_path = tmp_path / "vert.csv"
    code, out, _ = run(
        capsys, "circle", "--alpha", str(np.pi / 2), "--theta", str(theta),
        "--x", "0.6", "--y", "1.1", "--samples", "90", "--csv", str(csv_path),
    )
    assert code == 0
    rows = [list(map(float, line.split(","))) for line in csv_path.read_text().splitlines()[1:]]
    level = [bx * np.cos(theta) + by * np.sin(theta) for _, _, bx, by, _ in rows]
    assert max(level) - min(level) < 1e-10
    zs = [bz for *_, bz in rows]
    assert max(zs) > 0.5 and min(zs) < -0.5


def test_decode_single_share_ambiguous(tmp_path, capsys):
    out_dir = tmp_path / "shares"
    _, out, _ = run(capsys, "share", "--scheme", "fig3_pole:4", "--x", "0", "--y", "0", "--out", str(out_dir))
    paths = json.loads(out)["shares"]
    code, out, _ = run(capsys, "decode", paths[0])
    assert code == 0
    assert json.loads(out)["result"] == "ambiguous_circle"


@pytest.mark.parametrize("x", ["0", "3.141592653589793"])
def test_decode_single_share_of_pole_unique(tmp_path, capsys, x):
    # the fig1_axes masker (0, 0) pins cos x; at a pole its level circle is the pole itself
    out_dir = tmp_path / "shares"
    _, out, _ = run(capsys, "share", "--scheme", "fig1_axes", "--x", x, "--y", "0", "--out", str(out_dir))
    code, out, _ = run(capsys, "decode", json.loads(out)["shares"][0])
    assert code == 0
    assert json.loads(out) == {"result": "unique", "state": {"x": float(x), "y": 0.0}}

def test_decode_corrupt_share_names_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        docs.dump({"alpha": 0.0, "theta": 0.0, "rho_b": [[[0.5, 0], [0, 0.7]], [[0, -0.7], [0.5, 0]]]}),
        encoding="utf-8",
    )
    code, _, err = run(capsys, "decode", str(bad))
    assert code == 1
    assert "bad.json" in err


def test_decode_rejects_a_3x3_share_naming_its_file(tmp_path, capsys):
    bad = tmp_path / "share_3x3.json"
    row = [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0]]
    bad.write_text(docs.dump({"alpha": 0.0, "theta": 0.0, "rho_b": [row, row, row]}), encoding="utf-8")
    code, out, err = run(capsys, "decode", str(bad))
    assert (code, out) == (1, "")
    assert err == f"qmask: error: {bad}: share.rho_b: expected a 2x2 array of [re, im] pairs\n"


def _share_files(tmp_path, capsys, scheme):
    _, out, _ = run(capsys, "share", "--scheme", scheme, "--x", "1.1", "--y", "2.3", "--out", str(tmp_path / "shares"))
    return json.loads(out)["shares"]


def _tamper(path, delta):
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    doc["rho_b"][0][0][0] += delta
    Path(path).write_text(docs.dump(doc), encoding="utf-8")


def test_decode_names_the_file_of_the_first_corrupt_share(tmp_path, capsys):
    paths = _share_files(tmp_path, capsys, "general:9")
    assert len(paths) == 8
    _tamper(paths[4], 3e-3)
    message = "share reduced state violates the masking structure (worst deviation {})"
    code, out, err = run(capsys, "decode", *paths)
    assert (code, out) == (1, "")
    assert err == f"qmask: error: {paths[4]}: {message.format('3.000e-03')}\n"
    _tamper(paths[2], 7e-3)
    code, out, err = run(capsys, "decode", *paths)
    assert (code, out) == (1, "")
    assert err == f"qmask: error: {paths[2]}: {message.format('7.000e-03')}\n"


def test_decode_checks_each_share_once(tmp_path, capsys, monkeypatch):
    from qmask import cli as cli_module

    paths = _share_files(tmp_path, capsys, "general:9")
    one_share_checks, array_checks = [], []
    share_constraint, share_planes = protocol.share_constraint, protocol._share_planes

    def counting_share_constraint(share, tol=protocol.DECODE_TOL):
        one_share_checks.append(share)
        return share_constraint(share, tol)

    def counting_share_planes(shares, tol):
        array_checks.append(len(shares))
        return share_planes(shares, tol)

    monkeypatch.setattr(protocol, "share_constraint", counting_share_constraint)
    monkeypatch.setattr(cli_module, "share_constraint", counting_share_constraint, raising=False)
    monkeypatch.setattr(protocol, "_share_planes", counting_share_planes)
    code, out, _ = run(capsys, "decode", *paths)
    assert code == 0 and json.loads(out)["result"] == "unique"
    assert one_share_checks == [] and array_checks == [len(paths)]


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "decode", "does-not-exist.json")
    assert code == 2


def test_malformed_json_diagnostics(tmp_path, capsys):
    bad = tmp_path / "mangled.json"
    bad.write_text('{\n "alpha": ,\n}', encoding="utf-8")
    code, _, err = run(capsys, "decode", str(bad))
    assert code == 1
    assert "line 2" in err


def test_invariant_violation_exit_code(tmp_path, capsys, monkeypatch):
    from qmask import InvariantViolationError
    from qmask import cli as cli_module

    def boom(op, anchor):
        raise InvariantViolationError("forced for the exit-code contract")

    monkeypatch.setattr(cli_module, "maskable_set", boom)
    op_path = write_operator(tmp_path / "op.json", identity_embedding())
    code, _, err = run(capsys, "analyze", "--operator", op_path, "--x", "1", "--y", "1")
    assert code == 3
    assert "invariant" in err


def test_qmask_tol_env_override(tmp_path, capsys, monkeypatch):
    slightly_off = tmp_path / "off.json"
    slightly_off.write_text(
        docs.dump({"alpha": 0.0, "theta": 0.0, "rho_b": [[[0.52, 0], [0.1, 0]], [[0.1, 0], [0.48, 0]]]}),
        encoding="utf-8",
    )
    code, _, err = run(capsys, "decode", str(slightly_off))
    assert code == 1  # default tolerance rejects it
    monkeypatch.setenv("QMASK_TOL", "0.1")
    code, out, _ = run(capsys, "decode", str(slightly_off))
    assert code == 0
    assert json.loads(out)["result"] == "ambiguous_circle"
    monkeypatch.setenv("QMASK_TOL", "banana")
    code, _, err = run(capsys, "decode", str(slightly_off))
    assert code == 1 and "QMASK_TOL" in err


# no comparison with NaN holds, every one with inf does, and no honest share is within 0 or less
@pytest.mark.parametrize(
    "argv, shown",
    [
        (["decode", "--tol", "nan"], "tol=nan"),
        (["decode", "--tol", "inf"], "tol=inf"),
        (["decode", "--tol", "-1"], "tol=-1.0"),
        (["decode", "--tol", "0"], "tol=0.0"),
        (["scan", "--tol", "nan"], "tol=nan"),
        (["scan", "--fractions", "10,20", "--kappa", "nan"], "kappa=nan"),
    ],
    ids=["decode_nan", "decode_inf", "decode_negative", "decode_zero", "scan_nan", "fractions_kappa_nan"],
)
def test_tolerance_options_must_be_positive_and_finite(tmp_path, capsys, argv, shown):
    if argv[0] == "decode":
        argv = argv + _share_files(tmp_path, capsys, "fig1_axes")
    else:
        op_path = write_operator(tmp_path / "op.json", identity_embedding())
        argv = argv + ["--operator", op_path, "--x", "1.2", "--y", "2.5"]
        if "--fractions" not in argv:
            argv += ["--nx", "10", "--ny", "20"]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"qmask: error: {shown} must be a positive finite number\n")


@pytest.mark.parametrize("raw", ["nan", "inf", "-1", "0"])
def test_qmask_tol_must_be_positive_and_finite(tmp_path, capsys, monkeypatch, raw):
    paths = _share_files(tmp_path, capsys, "fig1_axes")
    monkeypatch.setenv("QMASK_TOL", raw)
    code, out, err = run(capsys, "decode", *paths)
    assert (code, out, err) == (1, "", f"qmask: error: QMASK_TOL={raw!r} must be a positive finite number\n")


def test_presets_command(capsys):
    code, out, _ = run(capsys, "presets")
    assert code == 0
    presets = json.loads(out)
    assert "fig1_axes" in presets
    assert "except k, N/2, N-k for even N" in presets["general:N"]


def test_deterministic_output(tmp_path, capsys):
    args = ("mask", "--alpha", "0.7", "--theta", "4.1", "--x", "2.2", "--y", "0.9")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second

    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    for d in (dir_a, dir_b):
        run(capsys, "share", "--scheme", "general:6", "--x", "1.1", "--y", "2.2", "--out", str(d))
    for pa, pb in zip(sorted(dir_a.iterdir()), sorted(dir_b.iterdir())):
        assert pa.read_bytes() == pb.read_bytes()


def test_out_flag_writes_file(tmp_path, capsys):
    out_file = tmp_path / "mask.json"
    code, out, _ = run(capsys, "mask", "--alpha", "0", "--theta", "0", "--x", "1", "--y", "1", "--out", str(out_file))
    assert code == 0 and out == ""
    assert json.loads(out_file.read_text())["hbar"] == pytest.approx(np.cos(1.0))


def test_analyze_rank_two_operator_point_pair_document(tmp_path, capsys):
    # a real operator cannot tell y from -y: the anchor shares its reduced pair with its mirror image
    op_path = write_operator(tmp_path / "op.json", rank_two_op(np.random.default_rng(5)))
    code, out, _ = run(capsys, "analyze", "--operator", op_path, "--x", "1.1", "--y", "2.3")
    assert code == 0
    mask_set = json.loads(out)["maskable_set"]
    assert mask_set["class"] == "point_pair" and len(mask_set["points"]) == 2
    states = sorted((s["x"], s["y"]) for s in mask_set["states"])
    assert np.allclose(states, [(1.1, 2.3), (1.1, 2 * np.pi - 2.3)], atol=1e-9)
    for point, s in zip(mask_set["points"], mask_set["states"]):
        x, y = s["x"], s["y"]
        assert np.allclose(point, [np.sin(x) * np.cos(y), np.sin(x) * np.sin(y), np.cos(x)], atol=1e-12)


def test_decode_shares_of_two_messages_inconsistent(tmp_path, capsys):
    first = _share_files(tmp_path / "first", capsys, "fig1_axes")
    _, out, _ = run(capsys, "share", "--scheme", "fig1_axes", "--x", "0.4", "--y", "5.0", "--out", str(tmp_path / "second"))
    second = json.loads(out)["shares"]
    code, out, err = run(capsys, "decode", first[0], first[1], second[2])
    assert (code, err) == (0, "")
    assert json.loads(out) == {"result": "inconsistent"}


@pytest.mark.parametrize("argv", [["no-such-command"], ["mask", "--alpha", "0"], ["decode", "--tol", "abc", "x.json"]])
def test_usage_errors_exit_1(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert re.match(r"qmask( \w+)?: error: ", capsys.readouterr().err.splitlines()[-1])


HUGE = 10**400  # json.dumps writes its 401 digits, and json.loads reads them back as an int no float holds


def _assert_clean_error(code, out, err, field):
    assert (code, out) == (1, "")
    assert err.startswith("qmask: error: ") and field in err and "Traceback" not in err


def test_decode_share_with_huge_integer_alpha(tmp_path, capsys):
    path = _share_files(tmp_path, capsys, "fig1_axes")[0]
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    Path(path).write_text(json.dumps({**doc, "alpha": HUGE}), encoding="utf-8")
    code, out, err = run(capsys, "decode", path)
    prefix = f"qmask: error: {path}: share: field 'alpha' must be a number, got "
    _assert_clean_error(code, out, err, prefix)
    assert len(err) <= len(prefix) + 41  # the echoed value is cut to 40 characters, then the newline


def test_mask_state_file_with_huge_integer(tmp_path, capsys):
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"x": 1.0, "y": -HUGE}), encoding="utf-8")
    code, out, err = run(capsys, "mask", "--alpha", "0", "--theta", "0", "--state", str(state))
    _assert_clean_error(code, out, err, "state: field 'y' must be a number")


def test_analyze_operator_file_with_huge_integer(tmp_path, capsys):
    op_path = write_operator(tmp_path / "op.json", identity_embedding())
    doc = json.loads(Path(op_path).read_text(encoding="utf-8"))
    doc["b1"]["im"] = HUGE
    Path(op_path).write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "analyze", "--operator", op_path, "--x", "1.0", "--y", "2.0")
    _assert_clean_error(code, out, err, "operator.b1: field 'im' must be a number")
