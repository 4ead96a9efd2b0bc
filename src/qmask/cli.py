"""Command-line interface: mask, circle, analyze, scan, share, decode, presets.

Angles are radians everywhere; degrees are not accepted.  Structured
inputs and outputs are JSON documents, plot point streams are CSV.
Every command is deterministic -- identical inputs produce byte-identical
outputs.

Exit codes: 0 success, 1 invalid input (a request too large for the
machine's memory too), 2 I/O error, 3 internal invariant violation.
Every value has one way in, a command-line option: no command reads
an environment variable.  A state is given by --x and --y.  decode checks
shares and filters candidates within --tol, by default DECODE_TOL.  Every
scan's tolerance is tied to the grid spacing h, tol = kappa * h, whether
one scan or a --fractions ladder; --kappa sets kappa in both modes, by
default default_kappa of the operator.  --csv, --nx and --ny apply only
without --fractions.  Both tolerances, and kappa times each spacing, must
be positive finite numbers.

Every error from an input file (an operator, scheme or share file)
begins with that file's path, once.  decode reads every share file first,
then checks all shares at once and names the file of the first corrupt one.

The CLI parses arguments, calls the library and composes each command's
document from the documents module's formats.  Each command returns its
document, having written its CSV or share files first; main dumps it and
writes it to --out, where the command has that option and it is given, or
to stdout.  One writer, _write, writes every file as UTF-8 with LF line ends.
"""

from __future__ import annotations

import argparse
import os
import re
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
    """argparse variant honoring the exit-code contract (usage errors are invalid input).

    Its negative-number pattern takes every spelling ``float()`` reads after a minus sign, exponents,
    digit underscores, ``inf``, ``infinity`` and ``nan`` in any case included, so ``--x -1e-13`` and
    ``--x -inf`` are values, not options; no qmask option starts with ``-`` and a digit, ``.``, ``i`` or ``n``.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        digits = r"\d(?:_?\d)*"
        self._negative_number_matcher = re.compile(
            rf"^-(?:(?:{digits}(?:\.(?:{digits})?)?|\.{digits})(?:[eE][+-]?{digits})?|(?i:inf(?:inity)?|nan))$"
        )

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read(path: str, kind: str, from_doc):
    """A ``kind`` file's UTF-8 text, parsed and converted by ``from_doc``: the one place an input file is
    named, each InvalidInputError raised again, of its type, with the path in front.  OSError propagates."""
    try:
        return from_doc(docs.load_text(Path(path).read_text(encoding="utf-8"), where=kind))
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path}: {kind}: not UTF-8 text: {exc}") from exc
    except InvalidInputError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _add_state_args(p: argparse.ArgumentParser):
    p.add_argument("--x", type=float, required=True, help="polar angle x in radians")
    p.add_argument("--y", type=float, required=True, help="azimuthal angle y in radians")


def _write(path, text: str) -> None:
    """The one place the CLI writes a file: UTF-8, LF line ends."""
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def _csv_rows(states) -> str:
    xs = np.array([s.x for s in states])
    ys = np.array([s.y for s in states])
    rows = np.column_stack([xs, ys, bloch_points(xs, ys)]).tolist()
    return "x,y,X,Y,Z\n" + "".join("{:.17g},{:.17g},{:.17g},{:.17g},{:.17g}\n".format(*r) for r in rows)


# --- commands -----------------------------------------------------------------


def _cmd_mask(args) -> dict:
    params = MaskerParams(args.alpha, args.theta)
    state = AngleState(args.x, args.y)
    psi = build_masker(params).apply(state.x, state.y)
    rho_a, rho_b = reduced_pair(psi)
    return {
        "masker": docs.masker_to_doc(params),
        "state": docs.state_to_doc(state),
        "hbar": hbar(params, state),
        "psi": docs.matrix_to_doc(psi),
        "rho_a": docs.matrix_to_doc(rho_a),
        "rho_b": docs.matrix_to_doc(rho_b),
    }


def _cmd_circle(args) -> dict:
    params = MaskerParams(args.alpha, args.theta)
    anchor = AngleState(args.x, args.y)
    if args.samples < 1:
        raise InvalidInputError("--samples must be at least 1")
    circle = maskable_circle(params, anchor)
    if args.csv:
        _write(args.csv, _csv_rows(sample_circle(circle, args.samples)))
    return {
        "masker": docs.masker_to_doc(params),
        "anchor": docs.state_to_doc(anchor),
        "circle": docs.circle_to_doc(circle),
        "hbar": hbar(params, anchor),
        "samples": args.samples,
    }


def _cmd_analyze(args) -> dict:
    op = _read(args.operator, "operator", docs.operator_from_doc)
    anchor = AngleState(args.x, args.y)
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
    return doc


def _cmd_scan(args) -> dict:
    fractions = args.fractions is not None
    for option, value in ("--csv", args.csv), ("--nx", args.nx), ("--ny", args.ny):
        if fractions and value is not None:
            raise InvalidInputError(f"{option} applies only without --fractions")
    op = _read(args.operator, "operator", docs.operator_from_doc)
    anchor = AngleState(args.x, args.y)
    if fractions:
        try:
            resolutions = [int(v) for v in args.fractions.split(",")]
        except ValueError as exc:
            raise InvalidInputError("--fractions must be comma-separated integers") from exc
        kappa = args.kappa if args.kappa is not None else default_kappa(op)
        rows = masked_fraction_scaling(op, anchor, resolutions, kappa)
        return {
            "anchor": docs.state_to_doc(anchor),
            "kappa": kappa,
            "fractions": [{"resolution": n, "fraction": f} for n, f in rows],
        }
    grid = GridSpec(nx=200 if args.nx is None else args.nx, ny=400 if args.ny is None else args.ny)
    kappa = args.kappa if args.kappa is not None else default_kappa(op)
    check_positive_finite(kappa, f"kappa={kappa}")
    tol = kappa * grid.spacing  # can over- or underflow where kappa does not; the error names the kappa given
    check_positive_finite(tol, f"kappa={kappa} times the spacing")
    states = grid_scan(op, anchor, grid, tol)
    if args.csv:
        _write(args.csv, _csv_rows(states))
    return {
        "anchor": docs.state_to_doc(anchor),
        "grid": {"nx": grid.nx, "ny": grid.ny},
        "tolerance": tol,
        "flagged": len(states),
        "fraction": float(len(states)) / (grid.nx * grid.ny),
    }


def _load_scheme(spec: str) -> Scheme:
    if spec.endswith(".json") or os.path.sep in spec:
        return _read(spec, "scheme", lambda doc: docs.scheme_from_doc(doc, label=Path(spec).stem))
    return preset_scheme(spec)


def _cmd_share(args) -> dict:
    scheme = _load_scheme(args.scheme)
    message = AngleState(args.x, args.y)
    shares = encode(message, scheme)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    width = max(2, len(str(len(shares))))
    paths = [str(out_dir / f"share_{i:0{width}d}.json") for i in range(1, len(shares) + 1)]
    for path, share in zip(paths, shares):
        _write(path, docs.dump(docs.share_to_doc(share)))
    return {"scheme": scheme.label, "shares": paths}


def _cmd_decode(args) -> dict:
    shares = [_read(path, "share", docs.share_from_doc) for path in args.shares]
    try:
        result = decode(shares, tol=args.tol)
    except CorruptShareError as exc:
        raise CorruptShareError(f"{args.shares[exc.index]}: {exc}") from exc
    return docs.decode_to_doc(result)


def _cmd_presets(args) -> dict:
    return preset_schemes()


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
    p.add_argument("--kappa", type=float, help="tol = kappa * grid spacing (default 2x the operator scale)")
    p.add_argument("--fractions", metavar="N1,N2,...", help="fraction-scaling ladder instead of one scan")
    p.add_argument("--csv", metavar="FILE", help="write matching x,y,X,Y,Z rows here")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("share", help="encode a message under a scheme, one share file per receiver")
    p.add_argument("--scheme", required=True, help="preset name (e.g. fig1_axes, fig3_pole:8) or JSON file")
    _add_state_args(p)
    p.add_argument("--out", required=True, metavar="DIR", dest="out_dir")
    p.set_defaults(func=_cmd_share)

    p = sub.add_parser("decode", help="intersect share constraints and report the candidates")
    p.add_argument("shares", nargs="+", metavar="SHARE.json")
    p.add_argument("--tol", type=float, default=DECODE_TOL, help="share and candidate tolerance (default %(default)g)")
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
        text = docs.dump(args.func(args))
        if getattr(args, "out", None):
            _write(args.out, text)
        else:
            sys.stdout.write(text)
        return 0
    except InvariantViolationError as exc:
        print(f"qmask: invariant violation: {exc}", file=sys.stderr)
        return 3
    except InvalidInputError as exc:
        print(f"qmask: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # e.g. an --scan grid too large for this machine
        print(f"qmask: error: out of memory: {exc}".removesuffix(": "), file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"qmask: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
