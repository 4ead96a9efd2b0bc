import contextlib
import io
import json
import math
import os
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmask import AngleState, GeneralLinearOp, GridSpec, MaskerParams, SphericalCircle, build_masker, operator_scale
from qmask import documents as docs
from qmask import protocol
from qmask.cli import main
from _helpers import identity_embedding, planted_product_op, random_op, rank_two_op


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
    circle = SphericalCircle(np.array(doc["circle"]["n"]), doc["circle"]["c"])
    assert circle.plane_residual(np.array([bx, by, bz])) < 1e-10


def test_analyze_masker_circle(tmp_path, capsys):
    op = build_masker(MaskerParams(0.0, 0.0))
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
    op = build_masker(MaskerParams(0.0, 0.0))
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


def test_scan_fractions_kappa_whose_tolerance_overflows(tmp_path, capsys):
    # 1e308 is finite, but 1e308 times the spacing of the 2 x 4 grid is not: the message names --kappa's value
    op_path = write_operator(tmp_path / "op.json", identity_embedding())
    argv = ["scan", "--operator", op_path, "--x", "1.2", "--y", "2.5", "--fractions", "2,4", "--kappa", "1e308"]
    code, out, err = run(capsys, *argv)
    message = "kappa=1e+308 times the spacing at resolution 2 must be a positive finite number"
    assert (code, out, err) == (1, "", f"qmask: error: {message}\n")


@pytest.mark.parametrize("args", [
    ["circle", "--alpha", "1", "--theta", "1", "--x", "1", "--y", "1", "--samples", str(10**20), "--csv", "{d}/c.csv"],
    ["scan", "--operator", "{op}", "--x", "1", "--y", "1", "--nx", str(10**20)],
    ["scan", "--operator", "{op}", "--x", "1", "--y", "1", "--nx", str(2**62), "--ny", "3"],
    ["analyze", "--operator", "{op}", "--x", "1", "--y", "1", "--scan", str(10**20)],
    ["scan", "--operator", "{op}", "--x", "1", "--y", "1", "--fractions", f"2,{10**20}"],
], ids=["circle_samples", "scan_nx", "scan_nx_2_62", "analyze_scan", "scan_fractions"])
def test_a_size_numpy_cannot_represent_is_invalid_input(tmp_path, capsys, args):
    # each ended in numpy's "Maximum allowed size exceeded" or "array is too big" and a traceback
    op_path = write_operator(tmp_path / "op.json", build_masker(MaskerParams(1.1, 0.7)))
    code, out, err = run(capsys, *(a.format(d=tmp_path, op=op_path) for a in args))
    assert (code, out) == (1, "") and re.fullmatch(r"qmask: error: (grid too large|too many samples): [^\n]*\n", err)
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize(
    "exc, line",
    [
        (MemoryError(), "qmask: error: out of memory\n"),
        (MemoryError("Unable to allocate 9.31 GiB"), "qmask: error: out of memory: Unable to allocate 9.31 GiB\n"),
    ],
)
def test_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch, exc, line):
    # a grid too large for the machine's memory exits 1 with qmask's own message, not a traceback
    def allocate(*args):
        raise exc

    monkeypatch.setattr(GridSpec, "live_nodes", allocate)
    op_path = write_operator(tmp_path / "op.json", identity_embedding())
    code, out, err = run(capsys, "analyze", "--operator", op_path, "--x", "1.2", "--y", "2.5", "--scan", "50")
    assert (code, out, err) == (1, "", line)


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
    assert (code, out, err) == (1, "", f"qmask: error: {scheme_path}: scheme: expected {{label, maskers: [...]}}\n")


@pytest.mark.parametrize("label, kind", [({"a": [1e400]}, "dict"), (3, "int"), (None, "NoneType"), (["x"], "list")])
def test_scheme_label_must_be_a_string(tmp_path, capsys, label, kind):
    scheme_path = tmp_path / "scheme.json"
    scheme_path.write_text(json.dumps({"label": label, "maskers": [{"alpha": 0.0, "theta": 0.0}]}), encoding="utf-8")
    out_dir = tmp_path / "shares"
    code, out, err = run(capsys, "share", "--scheme", str(scheme_path), "--x", "0.8", "--y", "2.6", "--out", str(out_dir))
    assert (code, out, err) == (1, "", f"qmask: error: {scheme_path}: scheme.label: expected a string, got {kind}\n")
    assert not out_dir.exists()


def test_scheme_label_defaults_to_the_file_stem(tmp_path, capsys):
    scheme_path = tmp_path / "my_scheme.json"
    scheme_path.write_text(json.dumps({"maskers": [{"alpha": 0.0, "theta": 0.0}]}), encoding="utf-8")
    code, out, _ = run(capsys, "share", "--scheme", str(scheme_path), "--x", "0.8", "--y", "2.6", "--out", str(tmp_path))
    assert code == 0 and json.loads(out)["scheme"] == "my_scheme"


def test_state_and_share_documents_must_be_objects(tmp_path, capsys):
    path = tmp_path / "array.json"
    path.write_text("[1.0, 2.0]", encoding="utf-8")
    code, out, err = run(capsys, "mask", "--alpha", "0", "--theta", "0", "--state", str(path))
    assert (code, out, err) == (1, "", f"qmask: error: {path}: state: expected a JSON object, got list\n")
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


def test_out_writes_the_bytes_stdout_gets(tmp_path, capsys):
    # every command with --out FILE writes there exactly what it prints without it, and prints nothing
    op_path = write_operator(tmp_path / "op.json", build_masker(MaskerParams(1.1, 0.7)))
    shares = _share_files(tmp_path, capsys, "fig1_axes")
    state = ["--x", "1.0", "--y", "2.0"]
    commands = [
        ["mask", "--alpha", "0.7", "--theta", "4.1", *state],
        ["circle", "--alpha", "0.9", "--theta", "2.0", *state, "--samples", "5"],
        ["analyze", "--operator", op_path, *state, "--scan", "20"],
        ["decode", *shares],
        ["presets"],
    ]
    for argv in commands:
        code, printed, err = run(capsys, *argv)
        assert (code, err) == (0, "") and printed
        out_file = tmp_path / f"{argv[0]}.json"
        assert run(capsys, *argv, "--out", str(out_file)) == (0, "", "")
        assert out_file.read_bytes() == printed.encode("utf-8"), argv[0]


TOO_LARGE = "qmask: error: operator too large for a spacing-tied tolerance: 16x its squared norm overflows\n"


@pytest.mark.parametrize(
    "argv",
    [["analyze", "--scan", "2"], ["analyze", "--scan", "200"], ["scan"], ["scan", "--fractions", "2,4,8"]],
    ids=["analyze_scan_2", "analyze_scan_200", "scan", "scan_fractions"],
)
@pytest.mark.parametrize("lg", [1019.9, 1021.0, 1022.8, 1023.5])
def test_operators_near_the_float_maximum(tmp_path, capsys, argv, lg):
    # from an operator scale of 2**1020 on, 16x the scale overflows and no spacing-tied tolerance is
    # sure to stay finite: one invalid-input message, never a warning, an inf or an invariant violation
    rng = np.random.default_rng(4)
    z = rng.normal(size=8) + 1j * rng.normal(size=8)
    op = GeneralLinearOp(*(z / np.linalg.norm(z) * 2.0 ** (lg / 2)))
    assert np.log2(operator_scale(op)) == pytest.approx(lg)
    path = write_operator(tmp_path / "op.json", op)
    code, out, err = run(capsys, argv[0], "--operator", path, "--x", "1.2", "--y", "2.5", *argv[1:])
    if lg < 1020:
        assert (code, err) == (0, "") and _strict_json(out)
    else:
        assert (code, out, err) == (1, "", TOO_LARGE)


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


@pytest.mark.parametrize(
    "reader, argv",
    [
        ("share", ["decode", "{file}"]),
        ("operator", ["analyze", "--operator", "{file}", "--x", "1.0", "--y", "2.0"]),
        ("scheme", ["share", "--scheme", "{file}", "--x", "1.0", "--y", "2.0", "--out", "{dir}"]),
        ("state", ["mask", "--alpha", "0", "--theta", "0", "--state", "{file}"]),
    ],
)
def test_a_file_that_is_not_utf8_is_invalid_input(tmp_path, capsys, reader, argv):
    path = tmp_path / "utf16.json"
    path.write_bytes(b'\xff\xfe{\x00}\x00')  # a UTF-16 byte order mark and "{}"
    argv = [a.format(file=path, dir=tmp_path / "out") for a in argv]
    code, out, err = run(capsys, *argv)
    reason = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    assert (code, out, err) == (1, "", f"qmask: error: {path}: {reader}: not UTF-8 text: {reason}\n")


_OPERATOR = docs.operator_to_doc(identity_embedding())
_3X3 = [[[0.5, 0.0]] * 3] * 3
INPUT_ARGV = {
    "state": ["mask", "--alpha", "0", "--theta", "0", "--state", "{file}"],
    "operator": ["analyze", "--operator", "{file}", "--x", "1.0", "--y", "2.0"],
    "scheme": ["share", "--scheme", "{file}", "--x", "1.0", "--y", "2.0", "--out", "{dir}"],
    "share": ["decode", "{file}"],
}


@pytest.mark.parametrize(
    "kind, content, message",
    [
        ("state", '{"x": 1.0,', "state: line 1, column 11: Expecting property name enclosed in double quotes"),
        ("state", "[1.0, 2.0]", "state: expected a JSON object, got list"),
        ("state", '{"x": "a", "y": 0.3}', "state: field 'x' must be a number, got 'a'"),
        ("state", '{"x": 5.0, "y": 0.3}', "x=5.0 outside [0, pi]"),
        ("operator", json.dumps({k: v for k, v in _OPERATOR.items() if k != "c1"}), "operator: missing field 'c1'"),
        ("operator", json.dumps(dict.fromkeys(_OPERATOR, {"re": 0.0, "im": 0.0})),
         "the zero operator has no maskable-set analysis"),
        ("scheme", '{"label": "x"}', "scheme: expected {label, maskers: [...]}"),
        ("scheme", '{"maskers": [{"alpha": "a", "theta": 0.0}]}', "scheme.maskers[0]: field 'alpha' must be a number, got 'a'"),
        ("scheme", '{"maskers": [{"alpha": 9.0, "theta": 0.0}]}', "alpha=9.0 outside [0, pi)"),
        ("scheme", '{"label": 3, "maskers": [{"alpha": 0.0, "theta": 0.0}]}', "scheme.label: expected a string, got int"),
        ("share", '{"alpha": 0.0,', "share: line 1, column 15: Expecting property name enclosed in double quotes"),
        ("share", json.dumps({"alpha": 0.0, "theta": 0.0, "rho_b": _3X3}),
         "share.rho_b: expected a 2x2 array of [re, im] pairs"),
        ("share", b'\xff\xfe{\x00}\x00',
         "share: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ],
    ids=["state_syntax", "state_not_object", "state_bad_field", "state_x_out_of_range", "operator_missing_field",
         "operator_zero", "scheme_no_maskers", "scheme_bad_masker_field", "scheme_masker_out_of_range",
         "scheme_label_not_string", "share_syntax", "share_3x3", "share_not_utf8"],
)
def test_every_input_file_error_names_the_file_once(tmp_path, capsys, kind, content, message):
    path = tmp_path / f"{kind}.json"
    path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    argv = [a.format(file=path, dir=tmp_path / "out") for a in INPUT_ARGV[kind]]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"qmask: error: {path}: {message}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, err",
    [
        (["--x", "-1e-13"], ""),
        (["--alpha", "-1e-13"], "qmask: error: alpha=-1e-13 outside [0, pi)\n"),
        (["--x", "-1.5E+0"], "qmask: error: x=-1.5 outside [0, pi]\n"),
    ],
    ids=["x_absorbed", "alpha_out_of_range", "x_capital_exponent"],
)
def test_negative_numbers_with_an_exponent_are_values(capsys, argv, err):
    # argparse's own negative-number pattern has no exponent and would read -1e-13 as an option
    flags = {"--alpha": "0", "--theta": "0", "--x": "1", "--y": "1"} | dict([argv])
    code, out, got = run(capsys, "mask", *[t for kv in flags.items() for t in kv])
    assert (code, got) == (1 if err else 0, err)
    if not err:
        assert json.loads(out)["state"]["x"] == 0.0
        assert run(capsys, "mask", *[f"{k}={v}" for k, v in flags.items()]) == (0, out, "")


@pytest.mark.parametrize("token", ["-inf", "-Infinity", "-INF", "-nan", "-NaN"])
def test_negative_non_finite_spellings_are_values(capsys, token):
    # float() reads these after a minus sign; a digits-only pattern read them as options
    code, out, err = run(capsys, "mask", "--alpha", "0", "--theta", "0", "--x", token, "--y", "1")
    assert (code, out, err) == (1, "", "qmask: error: angle coordinates must be finite\n")


@pytest.mark.parametrize(
    "token, err",
    [("-1_0e-1_4", ""), ("-.5e-13", ""), ("-1.", "qmask: error: x=-1.0 outside [0, pi]\n")],
    ids=["digit_underscores", "leading_point", "trailing_point"],
)
def test_every_negative_float_spelling_is_a_value(capsys, token, err):
    # as float() reads them: the first two are absorbed to x = 0, the third is out of range, none is an option
    code, out, got = run(capsys, "mask", "--alpha", "0", "--theta", "0", "--x", token, "--y", "1")
    assert (code, got) == (1 if err else 0, err)
    if not err:
        assert json.loads(out)["state"]["x"] == 0.0


def _near(*centres):
    return [c + d for c in centres for d in (0.0, 1e-12, -1e-12, 1.1e-12, -1.1e-12)]


# each range's ends, 1e-12 (absorbed) and 1.1e-12 (rejected) beyond them, tiny negatives and large values
EDGE_ANGLES = _near(0.0, np.pi, 2 * np.pi) + [-0.0, -1e-13, 5e-324, -5e-324, 1e300, -1e300, 1.7976931348623157e308]
angle_tokens = st.one_of(
    st.sampled_from(EDGE_ANGLES), st.floats(-1.0, 7.0), st.floats(allow_nan=False, allow_infinity=False)
).map(repr)


def _main_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@given(st.sampled_from([["mask"], ["circle", "--samples", "3"]]), angle_tokens, angle_tokens, angle_tokens, angle_tokens)
def test_numeric_flags_keep_the_cli_contract(command, alpha, theta, x, y):
    argv = [*command, "--alpha", alpha, "--theta", theta, "--x", x, "--y", y]
    code, out, err = first = _main_captured(argv)
    assert code in (0, 1) and "Traceback" not in err
    if code == 0:
        assert err == "" and isinstance(_strict_json(out), dict)
    else:
        assert out == "" and re.fullmatch(r"qmask: error: [^\n]*\n", err)
    assert _main_captured(argv) == first


# --- the CLI contract over generated input files and flags --------------------

# operator coefficients: plain values and magnitudes near 2**+-1022, the square roots of those (so the
# operator scale |M|_F^2 lands there), the least subnormal, the largest float, NaN and inf
COEFFS = [0.0, 1.0, -0.5, 2.0**1022, -(2.0**1022), 2.0**-1022, 2.0**511, 2.0**-511, 5e-324, 1.7976931348623157e308,
          math.nan, math.inf]
SCALES = [1.0, 2.0**511, 2.0**-511, 2.0**510.4, 2.0**-537, 2.0**1022, 2.0**-1022, math.inf]
_reals = st.one_of(st.floats(-2.0, 2.0), st.sampled_from(COEFFS))
_angles = st.one_of(st.sampled_from(EDGE_ANGLES + [math.nan, math.inf, -math.inf]), st.floats(-1.0, 7.0))
_valid_angles = st.tuples(st.floats(0.0, np.pi), st.floats(0.0, 2 * np.pi, exclude_max=True))
_angle_pairs = st.one_of(_valid_angles, st.tuples(_angles, _angles))
# now and then a size numpy cannot represent, which is invalid input before any array is made; never a size
# between those and the small ones, which would really be allocated
_HUGE_SIZES = [10**20, 2**62]


def _sizes(top):
    """Integers from -1 to ``top`` and, one time in four, a size from _HUGE_SIZES."""
    return st.integers(0, 3).flatmap(lambda k: st.sampled_from(_HUGE_SIZES) if k == 0 else st.integers(-1, top))


_small_ints = _sizes(9).map(str)
# QMASK_TOL as decode reads it: unset, valid, not positive, not finite, underflowing to 0, not a number
_QMASK_TOLS = [None, "1e-6", "0", "-1", "nan", "inf", "1e-400", "banana", ""]
# file contents that are no document of any kind: truncated, not an object, not UTF-8
_BROKEN = [b'{"x": 1.0,', b"[1.0, 2.0]", b"", b"\xff\xfe{\x00}\x00", b'{"a0": {"re": 1e999999, "im": 0}}']
_PRESETS = ["fig1_axes", "fig1_axes:3", "fig3_pole:3", "fig3_pole:6", "fig2_vertical:4", "fig2_vertical:7",
            "general:5", "general:8", "general:2", "nope:3", "general"]


def _document(draw, good: dict) -> bytes:
    """``good`` written with NaN and Infinity allowed, or a broken file now and then."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(_BROKEN))
    return json.dumps(good).encode("utf-8")


@st.composite
def _operator_file(draw) -> bytes:
    kind = draw(st.sampled_from(["coefficients", "masker", "rank_two", "product"]))
    rng = np.random.default_rng(draw(st.integers(0, 3)))
    if kind == "coefficients":
        coeffs = [complex(draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))) for _ in range(8)]
        if draw(st.booleans()):
            coeffs[draw(st.integers(0, 7))] = complex(draw(_reals), draw(_reals))
    elif kind == "masker":
        alpha, theta = draw(_valid_angles)
        coeffs = build_masker(MaskerParams(alpha % np.pi, theta)).coefficients.tolist()
    else:
        coeffs = (rank_two_op(rng) if kind == "rank_two" else planted_product_op(rng)[0]).coefficients.tolist()
    # on Python floats, so a product past the float range is inf, without a warning
    scale = draw(st.one_of(st.just(1.0), st.sampled_from(SCALES)))
    doc = {k: {"re": c.real * scale, "im": c.imag * scale} for k, c in zip(docs.OPERATOR_KEYS, coeffs)}
    return _document(draw, doc)


@st.composite
def _state_args(draw, files: dict) -> list[str]:
    x, y = draw(_angle_pairs)
    if draw(st.booleans()):
        files["state.json"] = _document(draw, {"x": x, "y": y})
        return ["--state", "{d}/state.json"]
    return ["--x", repr(x), "--y", repr(y)]


@st.composite
def _share_args(draw, files: dict) -> list[str]:
    message = AngleState(*draw(_valid_angles))
    scheme = protocol.preset_scheme(draw(st.sampled_from(["fig1_axes", "fig3_pole:4", "fig2_vertical:5", "general:6"])))
    shares = protocol.encode(message, scheme)[: draw(st.integers(1, 5))]
    flawed = draw(st.integers(-1, len(shares) - 1))  # the one share that may be flawed, if any
    names = []
    for k, share in enumerate(shares):
        doc = docs.share_to_doc(share)
        flaw = draw(st.sampled_from(["noise", "corrupt", "3x3", "1x2", "nan", "alpha"])) if k == flawed else None
        if flaw == "noise":
            doc["rho_b"][0][1][0] += draw(st.sampled_from([1e-9, 1e-6, 1e-3]))
        elif flaw == "corrupt":
            doc["rho_b"][0][0][0] = 0.9
        elif flaw in ("3x3", "1x2"):
            doc["rho_b"] = _3X3 if flaw == "3x3" else [[[0.5, 0.0], [0.0, 0.0]]]
        elif flaw == "nan":
            doc["rho_b"][1][0][1] = math.nan
        elif flaw == "alpha":
            doc["alpha"] = draw(_angles)
        names.append(f"share_{k}.json")
        files[names[-1]] = _document(draw, doc)
    return [f"{{d}}/{name}" for name in names]


@st.composite
def cli_cases(draw) -> tuple[list[str], dict, str | None]:
    """An argv, with ``{d}`` for a fresh directory, the files to write there first and the QMASK_TOL to set,
    None for unset."""
    files: dict[str, bytes] = {}
    qmask_tol = None
    command = draw(st.sampled_from(["mask", "circle", "analyze", "scan", "share", "decode", "presets"]))
    alpha, theta = draw(_angle_pairs)
    masker = ["--alpha", repr(alpha), "--theta", repr(theta)]
    if command in ("analyze", "scan"):
        files["op.json"] = draw(_operator_file())
    if command == "mask":
        argv = [command, *masker, *draw(_state_args(files))]
    elif command == "circle":
        argv = [command, *masker, *draw(_state_args(files)), "--samples", draw(_sizes(12).map(str))]
        argv += draw(st.sampled_from([[], ["--csv", "{d}/circle.csv"]]))
    elif command == "analyze":
        argv = [command, "--operator", "{d}/op.json", *draw(_state_args(files))]
        if draw(st.booleans()):
            argv += ["--scan", draw(_small_ints)]
    elif command == "scan":
        argv = [command, "--operator", "{d}/op.json", *draw(_state_args(files))]
        fractions = draw(st.booleans())
        if fractions:
            argv += ["--fractions", ",".join(map(str, draw(st.lists(_sizes(12), min_size=1, max_size=4))))]
        for flag, values, mode in (("--nx", _small_ints, False), ("--ny", _small_ints, False),
                                   ("--tol", _reals.map(repr), False), ("--csv", st.just("{d}/scan.csv"), False),
                                   ("--kappa", _reals.map(repr), True)):
            # a flag of the other mode now and then, which is invalid input
            if draw(st.integers(0, 9)) < (5 if mode == fractions else 1):
                argv += [flag, draw(values)]
    elif command == "share":
        scheme = draw(st.sampled_from(_PRESETS + ["{d}/scheme.json"]))
        if scheme.endswith(".json"):
            maskers = [{"alpha": draw(_angles), "theta": draw(_angles)} for _ in range(draw(st.integers(0, 5)))]
            files["scheme.json"] = _document(draw, {"label": "custom", "maskers": maskers})
        argv = [command, "--scheme", scheme, *draw(_state_args(files)), "--out", "{d}/shares"]
    elif command == "decode":
        argv = [command, *draw(_share_args(files))]
        if draw(st.booleans()):
            argv += ["--tol", repr(draw(_reals))]
        qmask_tol = draw(st.sampled_from(_QMASK_TOLS))
    else:
        argv = [command]
    return argv, files, qmask_tol


def _run_in(directory, argv):
    """main(argv) with ``{d}`` put for the directory: the exit code (a usage error's too), stdout, stderr and
    every file in the directory afterwards, by name."""
    argv = [a.format(d=directory) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    written = {str(p.relative_to(directory)): p.read_bytes() for p in sorted(Path(directory).rglob("*")) if p.is_file()}
    return code, out.getvalue(), err.getvalue(), written


@settings(max_examples=150)
@given(cli_cases())
def test_generated_commands_keep_the_cli_contract(case):
    # files, flags and QMASK_TOL at the edges: exit 0, 1 or 2, never a traceback, a warning of any kind or a
    # non-JSON stdout, and a second run gives the same bytes
    argv, files, qmask_tol = case
    with tempfile.TemporaryDirectory() as directory, mock.patch.dict(os.environ), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        os.environ.pop("QMASK_TOL", None)
        if qmask_tol is not None:
            os.environ["QMASK_TOL"] = qmask_tol
        for name, content in files.items():
            Path(directory, name).write_bytes(content)
        code, out, err, _ = first = _run_in(directory, argv)
        assert code in (0, 1, 2) and "Traceback" not in err
        if code == 0:
            assert err == "" and (out == "" or isinstance(_strict_json(out), dict))
        else:
            assert out == "" and re.fullmatch(r"qmask( \w+)?: (i/o )?error: [^\n]*\n", err), err
        assert _run_in(directory, argv) == first
    assert not caught, [str(w.message) for w in caught]
