"""JSON document formats for states, maskers, operators, shares and circles.

Structured data travels as JSON; plot point streams travel as CSV (see
the cli module).  Floats are emitted with Python's shortest round-trip
representation, so every document reloads bit-identically; NaN and
infinity, which JSON lacks, are never written.  Writers are
deterministic: fixed key order, no timestamps, LF newlines.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .analysis import GeneralLinearOp
from .bloch import AngleState, SphericalCircle
from .errors import InvalidInputError, InvariantViolationError
from .masking import MaskerParams
from .protocol import Share

OPERATOR_KEYS = ("a0", "a1", "b0", "b1", "c0", "c1", "d0", "d1")
_ENCODER = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False)


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


def state_from_doc(doc: dict, where: str = "state") -> AngleState:
    return AngleState(_real(doc, "x", where), _real(doc, "y", where))


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
    return [[[float(m[i, j].real), float(m[i, j].imag)] for j in range(2)] for i in range(2)]


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
    return {"n": [float(v) for v in circle.normal], "c": circle.offset}


def circle_from_doc(doc: dict, where: str = "circle") -> SphericalCircle:
    n = _field(doc, "n", where)
    if not (isinstance(n, list) and len(n) == 3 and all(map(_number, n))):
        raise InvalidInputError(f"{where}: field 'n' must be a 3-element array of numbers")
    return SphericalCircle(np.array([float(v) for v in n]), _real(doc, "c", where))


def dump(doc: Any) -> str:
    """Deterministic JSON text: two-space indent, LF newline at the end, from one shared encoder.

    A NaN or infinity would make the text invalid JSON; it raises InvariantViolationError instead.
    """
    try:
        return _ENCODER.encode(doc) + "\n"
    except ValueError as exc:
        raise InvariantViolationError(f"document is not valid JSON: {exc}") from exc


def load_text(text: str, where: str = "document") -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{where}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an integer past the digit limit, or nesting too deep
        raise InvalidInputError(f"{where}: {exc}") from exc
