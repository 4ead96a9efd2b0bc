"""Command-line interface: mask, circle, analyze, scan, share, decode, presets.

Angles are radians everywhere; degrees are not accepted.  Structured
inputs and outputs are JSON documents, plot point streams are CSV.
Every command is deterministic -- identical inputs produce byte-identical
outputs.

Exit codes: 0 success, 1 invalid input, 2 I/O error, 3 internal
invariant violation.  QMASK_TOL overrides the default verification
tolerance used when checking shares and filtering decode candidates.
Every tolerance, QMASK_TOL and the --tol and --kappa options alike, must
be a positive finite number.  scan takes --kappa only with --fractions, and
--tol, --csv, --nx and --ny only without it.

Every error from an input file (a state, operator, scheme or share file)
begins with that file's path, once.  decode reads every share file first,
then checks all shares at once and names the file of the first corrupt one.

The CLI parses arguments, calls the library, composes each command's
document from the documents module's formats and writes JSON, CSV and
share files.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import documents as docs
from .analysis import constraint_planes, maskable_set, operator_scale, product_form_diagnosis
from .bloch import AngleState, bloch_points, sample_circle
from .crosscheck import agreement_report
from .errors import CorruptShareError, InvalidInputError, InvariantViolationError, check_positive_finite
from .linalg import reduced_pair
from .masking import MaskerParams, build_masker, hbar, maskable_circle
from .oracle import GridSpec, default_kappa, grid_scan, masked_fraction_scaling
from .protocol import DECODE_TOL, Scheme, decode, encode, preset_scheme, preset_schemes


class _Parser(argparse.ArgumentParser):
    """argparse variant honoring the exit-code contract (usage errors are invalid input)."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _verification_tol() -> float:
    raw = os.environ.get("QMASK_TOL")
    if raw is None:
        return DECODE_TOL
    try:
        tol = float(raw)
    except ValueError as exc:
        raise InvalidInputError(f"QMASK_TOL={raw!r} is not a number") from exc
    check_positive_finite(tol, f"QMASK_TOL={raw!r}")
    return tol


def _read(path: str, kind: str, from_doc):
    """A ``kind`` file's UTF-8 text, parsed and converted by ``from_doc``: the one place an input file is
    named, each InvalidInputError raised again, of its type, with the path in front.  OSError propagates."""
    try:
        return from_doc(docs.load_text(Path(path).read_text(encoding="utf-8"), where=kind))
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path}: {kind}: not UTF-8 text: {exc}") from exc
    except InvalidInputError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _state_from_args(args) -> AngleState:
    if args.state is not None:
        if args.x is not None or args.y is not None:
            raise InvalidInputError("give either --state FILE or --x/--y, not both")
        return _read(args.state, "state", docs.state_from_doc)
    if args.x is None or args.y is None:
        raise InvalidInputError("state required: --state FILE or both --x and --y (radians)")
    return AngleState(args.x, args.y)


def _add_state_args(p: argparse.ArgumentParser):
    p.add_argument("--state", metavar="FILE", help="state document {x, y} (radians)")
    p.add_argument("--x", type=float, help="polar angle x in radians")
    p.add_argument("--y", type=float, help="azimuthal angle y in radians")


def _emit(args, text: str):
    if getattr(args, "out", None):
        Path(args.out).write_text(text, encoding="utf-8", newline="\n")
    else:
        sys.stdout.write(text)


def _csv_rows(states) -> str:
    xs = np.array([s.x for s in states])
    ys = np.array([s.y for s in states])
    rows = np.column_stack([xs, ys, bloch_points(xs, ys)]).tolist()
    return "x,y,X,Y,Z\n" + "".join("{:.17g},{:.17g},{:.17g},{:.17g},{:.17g}\n".format(*r) for r in rows)


# --- commands -----------------------------------------------------------------


def _cmd_mask(args) -> int:
    params = MaskerParams(args.alpha, args.theta)
    state = _state_from_args(args)
    psi = build_masker(params).apply(state.x, state.y)
    rho_a, rho_b = reduced_pair(psi)
    doc = {
        "masker": docs.masker_to_doc(params),
        "state": docs.state_to_doc(state),
        "hbar": hbar(params, state),
        "psi": docs.matrix_to_doc(psi),
        "rho_a": docs.matrix_to_doc(rho_a),
        "rho_b": docs.matrix_to_doc(rho_b),
    }
    _emit(args, docs.dump(doc))
    return 0


def _cmd_circle(args) -> int:
    params = MaskerParams(args.alpha, args.theta)
    anchor = _state_from_args(args)
    if args.samples < 1:
        raise InvalidInputError("--samples must be at least 1")
    circle = maskable_circle(params, anchor)
    samples = sample_circle(circle, args.samples)
    doc = {
        "masker": docs.masker_to_doc(params),
        "anchor": docs.state_to_doc(anchor),
        "circle": docs.circle_to_doc(circle),
        "hbar": hbar(params, anchor),
        "samples": args.samples,
    }
    _emit(args, docs.dump(doc))
    if args.csv:
        Path(args.csv).write_text(_csv_rows(samples), encoding="utf-8", newline="\n")
    return 0


def _cmd_analyze(args) -> int:
    op = _read(args.operator, "operator", docs.operator_from_doc)
    anchor = _state_from_args(args)
    mask_class = maskable_set(op, anchor)
    operator_scale(op)  # rejects an operator whose squared norm over- or underflows
    doc = {
        "anchor": docs.state_to_doc(anchor),
        "maskable_set": docs.class_to_doc(mask_class),
        "constraints": docs.constraints_to_doc(*constraint_planes(op.matrix)),
        "product_form": docs.product_form_to_doc(product_form_diagnosis(op)),
    }
    if args.scan is not None:
        doc["oracle"] = agreement_report(op, anchor, GridSpec(nx=args.scan, ny=2 * args.scan))
    _emit(args, docs.dump(doc))
    return 0


def _cmd_scan(args) -> int:
    fractions = args.fractions is not None
    options = (("--kappa", args.kappa, "with"), ("--tol", args.tol, "without"), ("--csv", args.csv, "without"),
               ("--nx", args.nx, "without"), ("--ny", args.ny, "without"))
    for option, value, mode in options:
        if value is not None and (mode == "with") != fractions:
            raise InvalidInputError(f"{option} applies only {mode} --fractions")
    op = _read(args.operator, "operator", docs.operator_from_doc)
    anchor = _state_from_args(args)
    if fractions:
        try:
            resolutions = [int(v) for v in args.fractions.split(",")]
        except ValueError as exc:
            raise InvalidInputError("--fractions must be comma-separated integers") from exc
        rows = masked_fraction_scaling(op, anchor, resolutions, kappa=args.kappa)
        doc = {
            "anchor": docs.state_to_doc(anchor),
            "kappa": args.kappa if args.kappa is not None else default_kappa(op),
            "fractions": [{"resolution": n, "fraction": f} for n, f in rows],
        }
        _emit(args, docs.dump(doc))
        return 0
    grid = GridSpec(nx=200 if args.nx is None else args.nx, ny=400 if args.ny is None else args.ny)
    tol = args.tol if args.tol is not None else default_kappa(op) * grid.spacing
    states = grid_scan(op, anchor, grid, tol)
    doc = {
        "anchor": docs.state_to_doc(anchor),
        "grid": {"nx": grid.nx, "ny": grid.ny},
        "tolerance": tol,
        "flagged": len(states),
        "fraction": float(len(states)) / (grid.nx * grid.ny),
    }
    _emit(args, docs.dump(doc))
    if args.csv:
        Path(args.csv).write_text(_csv_rows(states), encoding="utf-8", newline="\n")
    return 0


def _load_scheme(spec: str) -> Scheme:
    if spec.endswith(".json") or os.path.sep in spec:
        return _read(spec, "scheme", lambda doc: docs.scheme_from_doc(doc, label=Path(spec).stem))
    return preset_scheme(spec)


def _cmd_share(args) -> int:
    scheme = _load_scheme(args.scheme)
    message = _state_from_args(args)
    shares = encode(message, scheme)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    width = max(2, len(str(len(shares))))
    paths = []
    for i, share in enumerate(shares, start=1):
        path = out_dir / f"share_{i:0{width}d}.json"
        path.write_text(docs.dump(docs.share_to_doc(share)), encoding="utf-8", newline="\n")
        paths.append(str(path))
    sys.stdout.write(docs.dump({"scheme": scheme.label, "shares": paths}))
    return 0


def _cmd_decode(args) -> int:
    tol = args.tol if args.tol is not None else _verification_tol()
    shares = [_read(path, "share", docs.share_from_doc) for path in args.shares]
    try:
        result = decode(shares, tol=tol)
    except CorruptShareError as exc:
        raise CorruptShareError(f"{args.shares[exc.index]}: {exc}") from exc
    _emit(args, docs.dump(docs.decode_to_doc(result)))
    return 0


def _cmd_presets(args) -> int:
    _emit(args, docs.dump(preset_schemes()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qmask", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mask", help="apply a masker to a state; report psi, rho_A, rho_B")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--theta", type=float, required=True)
    _add_state_args(p)
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_mask)

    p = sub.add_parser("circle", help="maskable circle through an anchor, with CSV samples")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--theta", type=float, required=True)
    _add_state_args(p)
    p.add_argument("--samples", type=int, default=360)
    p.add_argument("--csv", metavar="FILE", help="write sampled x,y,X,Y,Z rows here")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_circle)

    p = sub.add_parser("analyze", help="classify an operator's maskable set")
    p.add_argument("--operator", metavar="FILE", required=True)
    _add_state_args(p)
    p.add_argument("--scan", type=int, metavar="N", help="cross-check on an N x 2N oracle grid")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("scan", help="brute-force grid scan of matching states")
    p.add_argument("--operator", metavar="FILE", required=True)
    _add_state_args(p)
    p.add_argument("--nx", type=int, help="grid points along x without --fractions (default 200)")
    p.add_argument("--ny", type=int, help="grid points along y without --fractions (default 400)")
    p.add_argument("--tol", type=float, help="override the spacing-derived tolerance")
    p.add_argument("--kappa", type=float, help="tolerance factor for --fractions mode")
    p.add_argument("--fractions", metavar="N1,N2,...", help="fraction-scaling ladder instead of one scan")
    p.add_argument("--csv", metavar="FILE", help="write matching x,y,X,Y,Z rows here")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("share", help="encode a message under a scheme, one share file per receiver")
    p.add_argument("--scheme", required=True, help="preset name (e.g. fig1_axes, fig3_pole:8) or JSON file")
    _add_state_args(p)
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(func=_cmd_share)

    p = sub.add_parser("decode", help="intersect share constraints and report the candidates")
    p.add_argument("shares", nargs="+", metavar="SHARE.json")
    p.add_argument("--tol", type=float, help="candidate filter tolerance (default QMASK_TOL or 1e-8)")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("presets", help="list the built-in scheme families")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_presets)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InvariantViolationError as exc:
        print(f"qmask: invariant violation: {exc}", file=sys.stderr)
        return 3
    except InvalidInputError as exc:
        print(f"qmask: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"qmask: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
