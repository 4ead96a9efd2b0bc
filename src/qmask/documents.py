"""JSON document formats: states, maskers, operators, shares, circles and schemes, and the
maskable-class, constraint, product-form and decode reports that the cli composes.  States
and circles are written, not read: no command takes one as a document (a state is given
by the --x and --y options).

Structured data travels as JSON; plot point streams travel as CSV (see
the cli module).  Floats are emitted with Python's shortest round-trip
representation, so every document reloads bit-identically; NaN and
infinity, which JSON lacks, are never written.  Writers are
deterministic: fixed key order, no timestamps, LF newlines.  Float
arrays enter a document as ``.tolist()`` of their float view.

:func:`dump` is one small recursive writer whose text is byte for byte
``json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"``:
the stdlib encodes an indented document in pure Python, at about twice
the cost.  Unlike the stdlib it rejects a non-string key (TypeError)
and does not look for cycles, since documents are trees.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _string
from math import isfinite
from typing import Any

import numpy as np

from .analysis import GeneralLinearOp, ProductFormReport
from .bloch import AngleState, Circle, SinglePoint, SphericalCircle, bloch_to_angles, canonical_mask_params
from .errors import InvalidInputError, InvariantViolationError
from .linalg import ENTRY_LABELS
from .masking import MaskerParams
from .protocol import AmbiguousCircle, Scheme, Share, TwoCandidates, Unique

OPERATOR_KEYS = ("a0", "a1", "b0", "b1", "c0", "c1", "d0", "d1")
_PADS = tuple("\n" + "  " * depth for depth in range(8))  # a newline and the indent of each depth


def _field(doc: dict, key: str, where: str) -> Any:
    if not isinstance(doc, dict):
        raise InvalidInputError(f"{where}: expected a JSON object, got {type(doc).__name__}")
    if key not in doc:
        raise InvalidInputError(f"{where}: missing field {key!r}")
    return doc[key]


def _number(value) -> bool:
    """Whether float() converts a document value: a float (NaN and infinity too; the readers' callers
    reject them) or an int, not a bool, below 2**1024 - 2**970, the least float() rounds past the largest float."""
    return isinstance(value, float) or (type(value) is int and abs(value) < 2**1024 - 2**970)


def _real(doc: dict, key: str, where: str) -> float:
    value = _field(doc, key, where)
    if not _number(value):
        got = repr(value)  # cut to 40 characters, so a huge value cannot flood the message
        got = got if len(got) <= 40 else got[:37] + "..."
        raise InvalidInputError(f"{where}: field {key!r} must be a number, got {got}")
    return float(value)


def _complex(doc: dict, key: str, where: str) -> complex:
    value = _field(doc, key, where)
    if not isinstance(value, dict):
        raise InvalidInputError(f"{where}: field {key!r} must be an object {{re, im}}")
    return complex(_real(value, "re", f"{where}.{key}"), _real(value, "im", f"{where}.{key}"))


def state_to_doc(s: AngleState) -> dict:
    return {"x": s.x, "y": s.y}


def masker_to_doc(m: MaskerParams) -> dict:
    return {"alpha": m.alpha, "theta": m.theta}


def masker_from_doc(doc: dict, where: str = "masker") -> MaskerParams:
    return MaskerParams(_real(doc, "alpha", where), _real(doc, "theta", where))


def operator_to_doc(op: GeneralLinearOp) -> dict:
    coeffs = op.coefficients
    return {k: {"re": c.real, "im": c.imag} for k, c in zip(OPERATOR_KEYS, coeffs)}


def operator_from_doc(doc: dict, where: str = "operator") -> GeneralLinearOp:
    return GeneralLinearOp(*(_complex(doc, k, where) for k in OPERATOR_KEYS))


def matrix_to_doc(m: np.ndarray) -> list:
    """A complex array as nested lists with an [re, im] pair for each entry: a 2x2 matrix is two rows of two."""
    m = np.ascontiguousarray(m, dtype=complex)
    return m.view(float).reshape(*m.shape, 2).tolist()


def matrix_from_doc(doc, where: str = "matrix") -> np.ndarray:
    """Exactly two rows of two [re, im] pairs of numbers, as a 2x2 complex matrix."""
    try:
        ((a, b), (c, d)), ((e, f), (g, h)) = doc
        parts = (a, b, c, d, e, f, g, h)
    except (TypeError, ValueError):
        parts = ()
    if not (parts and all(map(_number, parts))):
        raise InvalidInputError(f"{where}: expected a 2x2 array of [re, im] pairs")
    return np.array([[complex(a, b), complex(c, d)], [complex(e, f), complex(g, h)]])


def share_to_doc(share: Share) -> dict:
    return {**masker_to_doc(share.masker), "rho_b": matrix_to_doc(share.rho_b)}


def share_from_doc(doc: dict, where: str = "share") -> Share:
    masker = masker_from_doc(doc, where)
    return Share(masker=masker, rho_b=matrix_from_doc(_field(doc, "rho_b", where), f"{where}.rho_b"))


def circle_to_doc(circle: SphericalCircle) -> dict:
    return {"n": circle.normal.tolist(), "c": circle.offset}


def scheme_from_doc(doc: dict, label: str = "") -> Scheme:
    """A scheme document {label, maskers: [...]}, ``label`` the default label."""
    maskers = doc.get("maskers") if isinstance(doc, dict) else None
    if not isinstance(maskers, list) or not maskers:
        raise InvalidInputError("scheme: expected {label, maskers: [...]}")
    label = doc.get("label", label)
    if not isinstance(label, str):
        raise InvalidInputError(f"scheme.label: expected a string, got {type(label).__name__}")
    return Scheme(tuple(masker_from_doc(m, where=f"scheme.maskers[{i}]") for i, m in enumerate(maskers)), label=label)


def class_to_doc(mask_class) -> dict:
    """A :func:`~qmask.analysis.maskable_set` result: a Circle, a SinglePoint or else a PointPair."""
    if isinstance(mask_class, Circle):
        alpha, theta, cval = canonical_mask_params(mask_class.circle)
        return {
            "class": "circle",
            "circle": circle_to_doc(mask_class.circle),
            "mask_params": {"alpha": alpha, "theta": theta, "cval": cval},
        }
    if isinstance(mask_class, SinglePoint):
        return {
            "class": "single_point",
            "point": mask_class.point.tolist(),
            "state": state_to_doc(bloch_to_angles(mask_class.point)),
        }
    return {
        "class": "point_pair",
        "points": [mask_class.p1.tolist(), mask_class.p2.tolist()],
        "states": [state_to_doc(bloch_to_angles(p)) for p in (mask_class.p1, mask_class.p2)],
    }


def constraints_to_doc(normals: np.ndarray, offsets: np.ndarray) -> list:
    """The rows of :func:`~qmask.analysis.constraint_planes`, each labelled from ENTRY_LABELS."""
    return [{"label": label, "n": n, "r": r} for label, n, r in zip(ENTRY_LABELS, normals.tolist(), offsets.tolist())]


def product_form_to_doc(diag: ProductFormReport) -> dict:
    return {
        "orthogonality_residual": diag.orthogonality_residual,
        "norm_residual": diag.norm_residual,
        "is_product_form": diag.is_product_form,
        "lambda": None if diag.lam is None else {"re": diag.lam.real, "im": diag.lam.imag},
    }


def decode_to_doc(result) -> dict:
    """A :func:`~qmask.protocol.decode` result: Unique, TwoCandidates, AmbiguousCircle or else Inconsistent."""
    if isinstance(result, Unique):
        return {"result": "unique", "state": state_to_doc(result.state)}
    if isinstance(result, TwoCandidates):
        return {"result": "two_candidates", "states": [state_to_doc(result.first), state_to_doc(result.second)]}
    if isinstance(result, AmbiguousCircle):
        return {"result": "ambiguous_circle", "circle": circle_to_doc(result.circle)}
    return {"result": "inconsistent"}


def _pad(depth: int) -> str:
    return _PADS[depth] if depth < len(_PADS) else "\n" + "  " * depth


def _write(v, depth: int) -> str:
    """The JSON text of v at an indent depth; the stdlib's isinstance tests, so a subclass is written as its JSON type."""
    if isinstance(v, float):  # numpy's float64 among them
        if isfinite(v):
            return float.__repr__(v)
        raise ValueError(f"Out of range float values are not JSON compliant: {v!r}")
    if isinstance(v, str):
        return _string(v)
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        pad = _pad(depth + 1)
        return "[" + pad + ("," + pad).join([_write(x, depth + 1) for x in v]) + _pad(depth) + "]"
    if isinstance(v, dict):
        if not v:
            return "{}"
        pad = _pad(depth + 1)
        # _string raises TypeError on a key that is not a string
        items = [_string(k) + ": " + _write(x, depth + 1) for k, x in sorted(v.items())]
        return "{" + pad + ("," + pad).join(items) + _pad(depth) + "}"
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def dump(doc: Any) -> str:
    """Deterministic JSON text: sorted keys, two-space indent, LF newline at the end (see the module docstring).

    A NaN or infinity would make the text invalid JSON; it raises InvariantViolationError instead,
    as does an int too long for str().  A value JSON has no type for raises TypeError.
    """
    try:
        return _write(doc, 0) + "\n"
    except ValueError as exc:
        raise InvariantViolationError(f"document is not valid JSON: {exc}") from exc


def load_text(text: str, where: str = "document") -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{where}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an integer past the digit limit, or nesting too deep
        raise InvalidInputError(f"{where}: {exc}") from exc
