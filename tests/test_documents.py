import collections
import enum
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qmask import (
    AmbiguousCircle,
    AngleState,
    Circle,
    Inconsistent,
    InvalidInputError,
    InvariantViolationError,
    MaskerParams,
    PointPair,
    Scheme,
    SinglePoint,
    SphericalCircle,
    TwoCandidates,
    Unique,
    bloch_to_angles,
    build_masker,
    circle_from_mask_params,
    circles_equal,
    constraint_planes,
    encode,
    extract_constraints,
    maskable_set,
    product_form_diagnosis,
)
from qmask import documents as docs
from qmask.linalg import ENTRY_LABELS
from _helpers import planted_product_op, random_op, random_params, random_state, rank_two_op


def test_masker_round_trip_exact():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = random_params(rng)
        back = docs.masker_from_doc(docs.load_text(docs.dump(docs.masker_to_doc(m))))
        assert back == m


def test_operator_round_trip_exact():
    rng = np.random.default_rng(1)
    for _ in range(50):
        op = random_op(rng)
        back = docs.operator_from_doc(docs.load_text(docs.dump(docs.operator_to_doc(op))))
        assert np.array_equal(back.coefficients, op.coefficients)


def test_share_round_trip_exact():
    rng = np.random.default_rng(2)
    share, = encode(random_state(rng), Scheme((random_params(rng),)))
    back = docs.share_from_doc(docs.load_text(docs.dump(docs.share_to_doc(share))))
    assert back.masker == share.masker
    assert np.array_equal(back.rho_b, share.rho_b)


def test_circle_round_trip_exact():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = rng.normal(size=3)
        circle = SphericalCircle(n / np.linalg.norm(n), rng.uniform(-0.99, 0.99))
        doc = docs.load_text(docs.dump(docs.circle_to_doc(circle)))
        back = SphericalCircle(np.array(doc["n"]), doc["c"])
        assert np.array_equal(back.normal, circle.normal)
        assert back.offset == circle.offset


def test_dump_is_deterministic():
    doc = {"b": 1.0 / 3.0, "a": {"im": -0.1, "re": 2.0}}
    assert docs.dump(doc) == docs.dump({"a": {"re": 2.0, "im": -0.1}, "b": 1.0 / 3.0})
    assert docs.dump(doc).endswith("\n")


@pytest.mark.parametrize(
    "value",
    [float("inf"), -float("inf"), float("nan"), np.float64("nan"), np.float64("-inf")],
    ids=["inf", "-inf", "nan", "float64_nan", "float64_-inf"],
)
def test_dump_never_writes_nan_or_infinity(value):
    # JSON has no such numbers; emitting them would make the document unreadable to strict parsers
    for doc in (value, {"oracle": {"band_bound": value}}, [0.5, value], (1.0, value), {"b": ({"c": value},)}):
        with pytest.raises(InvariantViolationError, match="not valid JSON"):
            docs.dump(doc)


def stdlib_dump(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


# keys and strings with non-ASCII, quote, backslash and control characters
KEYS = st.text(st.sampled_from('az"\\\n\t\x00\x1f\x7f/é€😀'), max_size=4) | st.text(max_size=6)
FLOATS = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1.7e308, -1.7e308, np.finfo(float).max])
)
LEAVES = (
    FLOATS
    | FLOATS.map(np.float64)
    | st.integers(-(2**64), 2**64)
    | st.integers(-(10**400), 10**400)
    | st.booleans()
    | st.none()
    | KEYS
)
TREES = st.recursive(
    LEAVES,
    lambda kids: st.lists(kids, max_size=4) | st.lists(kids, max_size=3).map(tuple) | st.dictionaries(KEYS, kids, max_size=4),
    max_leaves=40,
)


@given(TREES)
def test_dump_is_the_stdlib_indented_text(doc):
    assert docs.dump(doc) == stdlib_dump(doc)


def test_dump_nests_deeper_than_its_cached_indents():
    doc = [{"k": [0.5, -0.0]}]
    for depth in range(20):
        doc = {"a": doc, "b": [depth, None, True, False, "é"]} if depth % 2 else [doc, ()]
    assert docs.dump(doc) == stdlib_dump(doc)


def test_dump_writes_a_subclass_as_its_json_type():
    class Level(enum.IntEnum):
        HIGH = 7

    class Label(str):
        pass

    pair = collections.namedtuple("pair", "re im")
    doc = collections.OrderedDict(z=[Level.HIGH, Label("é"), pair(np.float64(-0.0), 2.5)], a={Label("k"): True})
    assert docs.dump(doc) == stdlib_dump(doc)


@pytest.mark.parametrize("value", [{0.5}, np.int64(3), 1 + 2j, np.bool_(True)], ids=["set", "int64", "complex", "bool_"])
def test_dump_rejects_what_json_has_no_type_for(value):
    with pytest.raises(TypeError):
        stdlib_dump(value)
    for doc in (value, [value], {"a": value}):
        with pytest.raises(TypeError):
            docs.dump(doc)


@pytest.mark.parametrize("key", [1, None, True, 0.5])
def test_dump_rejects_keys_that_are_not_strings(key):
    # the stdlib would write such a key as a string; no qmask document has one
    with pytest.raises(TypeError):
        docs.dump({key: 0.0})


def test_float_arrays_enter_documents_as_their_float_view():
    # the floats of float(z.real), float(z.imag) per entry, signed zeros included (repr tells -0.0 from 0.0)
    m = np.array([[complex(0.5, -0.0), complex(-0.0, 1e-300)], [complex(5e-324, -1.7e308), complex(0.25, 0.0)]])
    assert repr(docs.matrix_to_doc(m)) == "[[[0.5, -0.0], [-0.0, 1e-300]], [[5e-324, -1.7e+308], [0.25, 0.0]]]"
    for a in (m.T, m[:, 1]):  # not contiguous
        pairs = [[float(z.real), float(z.imag)] for z in a.ravel()]
        assert repr(docs.matrix_to_doc(a)) == repr(pairs if a.ndim == 1 else [pairs[:2], pairs[2:]])


def test_missing_field_diagnostics():
    with pytest.raises(InvalidInputError, match="missing field 'theta'"):
        docs.masker_from_doc({"alpha": 1.0})
    with pytest.raises(InvalidInputError, match="must be a number"):
        docs.masker_from_doc({"alpha": "1.0", "theta": 2.0})
    with pytest.raises(InvalidInputError, match="operator.*missing field 'd1'"):
        docs.operator_from_doc({k: {"re": 1.0, "im": 0.0} for k in docs.OPERATOR_KEYS[:-1]})
    with pytest.raises(InvalidInputError, match="rho_b"):
        docs.share_from_doc({"alpha": 0.1, "theta": 0.2, "rho_b": [[1, 2], [3, 4]]})


def test_parse_error_line_column():
    with pytest.raises(InvalidInputError, match="line 2"):
        docs.load_text('{\n "x": ,\n}')


def test_operator_rejects_non_dict_complex():
    doc = {k: {"re": 0.0, "im": 0.0} for k in docs.OPERATOR_KEYS}
    doc["a0"] = 3.0
    with pytest.raises(InvalidInputError, match="a0"):
        docs.operator_from_doc(doc)


@pytest.mark.parametrize(
    "matrix",
    [
        [[[0.5, 0, 9], [0.1, 0], [7, 7]], [[0.1, 0], [0.5, 0]], [[1, 1]]],  # a third row, entry and component
        [[[0.5, 0], [0.1, 0], [0, 0]], [[0.1, 0], [0.5, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]]],  # 3x3
        [[[0.5, 0, 0], [0.1, 0]], [[0.1, 0], [0.5, 0]]],  # an [re, im, junk] triple
        [[[0.5, 0], [0.1, 0]]],  # one row
        [[[0.5, 0], [0.1, 0]], [[0.1, 0]]],  # a short row
        [[[0.5], [0.1, 0]], [[0.1, 0], [0.5, 0]]],  # a lone real part
        [[[0.5, "0"], [0.1, 0]], [[0.1, 0], [0.5, 0]]],  # a string
        [[[0.5, True], [0.1, 0]], [[0.1, 0], [0.5, 0]]],  # a boolean
        {"0": [[0.5, 0], [0.1, 0]], "1": [[0.1, 0], [0.5, 0]]},
        "ab",
        None,
    ],
)
def test_matrix_from_doc_accepts_only_two_rows_of_two_pairs(matrix):
    with pytest.raises(InvalidInputError, match=r"^share\.rho_b: expected a 2x2 array of \[re, im\] pairs$"):
        docs.matrix_from_doc(matrix, "share.rho_b")
    with pytest.raises(InvalidInputError, match="rho_b: expected a 2x2 array"):
        docs.share_from_doc({"alpha": 0.1, "theta": 0.2, "rho_b": matrix})


def test_matrix_from_doc_reads_integers_and_floats():
    m = docs.matrix_from_doc([[[1, 0], [0.25, -0.5]], [[0.25, 0.5], [0, 0]]])
    assert m.dtype == complex and np.array_equal(m, [[1, 0.25 - 0.5j], [0.25 + 0.5j, 0]])
    assert np.array_equal(docs.matrix_from_doc(docs.matrix_to_doc(m)), m)


def test_share_doc_is_the_masker_doc_plus_rho_b():
    share, = encode(AngleState(1.1, 2.3), Scheme((random_params(np.random.default_rng(4)),)))
    doc = docs.share_to_doc(share)
    assert doc == {**docs.masker_to_doc(share.masker), "rho_b": docs.matrix_to_doc(share.rho_b)}
    with pytest.raises(InvalidInputError, match="^share: field 'theta' must be a number, got None$"):
        docs.share_from_doc({**doc, "theta": None})


HUGE = 10**400  # a JSON integer literal that json.loads keeps as an int no float can hold


@pytest.mark.parametrize(
    "read, doc, message",
    [
        (docs.masker_from_doc, {"alpha": HUGE, "theta": 0.0}, "^masker: field 'alpha' must be a number"),
        (docs.masker_from_doc, {"alpha": 0.1, "theta": -HUGE}, "^masker: field 'theta' must be a number"),
        (
            docs.operator_from_doc,
            {**{k: {"re": 1.0, "im": 0.0} for k in docs.OPERATOR_KEYS}, "c1": {"re": 0.0, "im": HUGE}},
            r"^operator\.c1: field 'im' must be a number",
        ),
        (docs.share_from_doc, {"alpha": HUGE, "theta": 0.2, "rho_b": []}, "^share: field 'alpha' must be a number"),
    ],
)
def test_readers_reject_integers_beyond_the_float_range(read, doc, message):
    with pytest.raises(InvalidInputError, match=message):
        read(doc)


@pytest.mark.parametrize("value", [HUGE, "9" * 1000, [[0.5] * 100] * 100])
def test_reader_messages_echo_at_most_40_characters_of_the_value(value):
    with pytest.raises(InvalidInputError, match="^share: field 'alpha' must be a number, got ") as exc:
        docs.share_from_doc({"alpha": value, "theta": 0.2, "rho_b": []})
    assert len(str(exc.value)) <= len("share: field 'alpha' must be a number, got ") + 40


def test_matrix_from_doc_rejects_integers_beyond_the_float_range():
    with pytest.raises(InvalidInputError, match=r"^share\.rho_b: expected a 2x2 array of \[re, im\] pairs$"):
        docs.matrix_from_doc([[[0.5, 0], [HUGE, 0]], [[0.1, 0], [0.5, 0]]], "share.rho_b")


def test_readers_take_every_integer_a_float_holds():
    # float() rounds integers from 2**1024 - 2**970 on past the largest float, and those below to it
    edge, big = 2**1024 - 2**970, np.finfo(float).max
    doc = {**{k: {"re": 0, "im": 0} for k in docs.OPERATOR_KEYS}, "d1": {"re": edge - 1, "im": 1 - edge}}
    assert docs.operator_from_doc(doc).d1 == complex(big, -big)
    doc["d1"]["im"] = -edge
    with pytest.raises(InvalidInputError, match=r"^operator\.d1: field 'im' must be a number"):
        docs.operator_from_doc(doc)


@pytest.mark.parametrize("literal", ["1e400", "NaN", "-Infinity"])
def test_readers_keep_the_downstream_message_for_nan_and_infinity(literal):
    with pytest.raises(InvalidInputError, match="^masker parameters must be finite$"):
        docs.masker_from_doc(docs.load_text(f'{{"alpha": {literal}, "theta": 0}}'))


@pytest.mark.parametrize(
    "text, message",
    [('{"alpha": ' + "1" * 5000 + "}", "digits"), ("[" * 100_000, "recursion")],
    ids=["integer_beyond_the_digit_limit", "deep_nesting"],
)
def test_load_text_rejects_what_json_loads_cannot_hold(text, message):
    with pytest.raises(InvalidInputError, match=rf"^share \(s\.json\): .*{message}"):
        docs.load_text(text, where="share (s.json)")


# --- the report documents and the scheme reader ---------------------------------


def test_class_doc_of_a_circle_rebuilds_its_circle():
    mask_class = maskable_set(build_masker(MaskerParams(1.1, 0.7)), AngleState(1.0, 1.0))
    assert isinstance(mask_class, Circle)
    doc = docs.class_to_doc(mask_class)
    assert doc.keys() == {"class", "circle", "mask_params"} and doc["class"] == "circle"
    assert doc["circle"] == docs.circle_to_doc(mask_class.circle)
    assert doc["mask_params"].keys() == {"alpha", "theta", "cval"}
    assert circles_equal(circle_from_mask_params(**doc["mask_params"]), mask_class.circle, tol=1e-12)


def test_class_doc_of_a_single_point_and_a_point_pair():
    point = maskable_set(random_op(np.random.default_rng(5)), AngleState(1.0, 1.0))
    assert isinstance(point, SinglePoint)
    assert docs.class_to_doc(point) == {
        "class": "single_point",
        "point": point.point.tolist(),
        "state": docs.state_to_doc(bloch_to_angles(point.point)),
    }
    pair = maskable_set(rank_two_op(np.random.default_rng(5)), AngleState(1.0, 1.0))
    assert isinstance(pair, PointPair)
    assert docs.class_to_doc(pair) == {
        "class": "point_pair",
        "points": [pair.p1.tolist(), pair.p2.tolist()],
        "states": [docs.state_to_doc(bloch_to_angles(pair.p1)), docs.state_to_doc(bloch_to_angles(pair.p2))],
    }


def test_product_form_doc_has_a_lambda_only_for_a_product_operator():
    diag = product_form_diagnosis(random_op(np.random.default_rng(6)))
    assert docs.product_form_to_doc(diag) == {
        "orthogonality_residual": diag.orthogonality_residual,
        "norm_residual": diag.norm_residual,
        "is_product_form": False,
        "lambda": None,
    }
    op, lam = planted_product_op(np.random.default_rng(6))
    doc = docs.product_form_to_doc(product_form_diagnosis(op))
    assert doc["is_product_form"] is True and doc["lambda"].keys() == {"re", "im"}
    assert complex(doc["lambda"]["re"], doc["lambda"]["im"]) == pytest.approx(lam, rel=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_constraints_doc_is_the_plane_rows_in_entry_label_order(seed):
    op = random_op(np.random.default_rng(seed))
    normals, offsets = constraint_planes(op.matrix)
    doc = docs.constraints_to_doc(normals, offsets)
    assert [c["label"] for c in doc] == list(ENTRY_LABELS)
    # repr tells -0.0 from 0.0, so these compare bit for bit
    assert repr([c["n"] for c in doc]) == repr(normals.tolist())
    assert repr([c["r"] for c in doc]) == repr(offsets.tolist())
    assert all(type(v) is float for c in doc for v in (*c["n"], c["r"]))
    old = [{"label": c.label, "n": c.n.tolist(), "r": c.r} for c in extract_constraints(op)]
    assert repr(doc) == repr(old)


CIRCLE = SphericalCircle(np.array([0.0, 0.6, 0.8]), 0.25)


@pytest.mark.parametrize(
    "result, doc",
    [
        (Unique(AngleState(1.0, 2.0)), {"result": "unique", "state": {"x": 1.0, "y": 2.0}}),
        (
            TwoCandidates(AngleState(1.0, 2.0), AngleState(2.0, 2.0)),
            {"result": "two_candidates", "states": [{"x": 1.0, "y": 2.0}, {"x": 2.0, "y": 2.0}]},
        ),
        (AmbiguousCircle(CIRCLE), {"result": "ambiguous_circle", "circle": {"n": [0.0, 0.6, 0.8], "c": 0.25}}),
        (Inconsistent(), {"result": "inconsistent"}),
    ],
    ids=["unique", "two_candidates", "ambiguous_circle", "inconsistent"],
)
def test_decode_doc(result, doc):
    assert docs.decode_to_doc(result) == doc


MASKERS = [{"alpha": 0.3, "theta": 0.1}, {"alpha": 1.2, "theta": 2.0}]


def test_scheme_from_doc_reads_maskers_and_label():
    scheme = docs.scheme_from_doc({"label": "mine", "maskers": MASKERS}, label="file")
    assert scheme.label == "mine"
    assert scheme.maskers == (MaskerParams(0.3, 0.1), MaskerParams(1.2, 2.0))
    assert docs.scheme_from_doc({"maskers": MASKERS}, label="file").label == "file"
    assert docs.scheme_from_doc({"maskers": MASKERS}).label == ""


@pytest.mark.parametrize(
    "doc, message",
    [
        (MASKERS, r"^scheme: expected \{label, maskers: \[\.\.\.\]\}$"),
        ({"label": "x"}, r"^scheme: expected \{label, maskers: \[\.\.\.\]\}$"),
        ({"maskers": []}, r"^scheme: expected \{label, maskers: \[\.\.\.\]\}$"),
        ({"maskers": MASKERS[0]}, r"^scheme: expected \{label, maskers: \[\.\.\.\]\}$"),
        (
            {"maskers": [MASKERS[0], {"alpha": "a", "theta": 0.1}]},
            r"^scheme\.maskers\[1\]: field 'alpha' must be a number, got 'a'$",
        ),
        ({"maskers": [{"alpha": 0.3}]}, r"^scheme\.maskers\[0\]: missing field 'theta'$"),
        ({"label": {"a": [1e400]}, "maskers": MASKERS}, r"^scheme\.label: expected a string, got dict$"),
        ({"label": None, "maskers": MASKERS}, r"^scheme\.label: expected a string, got NoneType$"),
    ],
    ids=["not_an_object", "no_maskers", "empty_maskers", "maskers_not_a_list", "bad_masker_field",
         "missing_masker_field", "label_dict", "label_null"],
)
def test_scheme_from_doc_rejections(doc, message):
    with pytest.raises(InvalidInputError, match=message):
        docs.scheme_from_doc(doc, label="s")
