import numpy as np
import pytest

from qmask import (
    AngleState,
    InvalidInputError,
    InvariantViolationError,
    Scheme,
    SphericalCircle,
    encode,
)
from qmask import documents as docs
from _helpers import random_op, random_params, random_state


def test_state_round_trip_exact():
    for x, y in [(0.1, 0.2), (np.pi / 3, np.pi / 4), (1 / 3, 2 / 3), (3.14159, 6.28318)]:
        s = AngleState(x, y)
        text = docs.dump(docs.state_to_doc(s))
        back = docs.state_from_doc(docs.load_text(text))
        assert back.x == s.x and back.y == s.y


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
        back = docs.circle_from_doc(docs.load_text(docs.dump(docs.circle_to_doc(circle))))
        assert np.array_equal(back.normal, circle.normal)
        assert back.offset == circle.offset


def test_dump_is_deterministic():
    doc = {"b": 1.0 / 3.0, "a": {"im": -0.1, "re": 2.0}}
    assert docs.dump(doc) == docs.dump({"a": {"re": 2.0, "im": -0.1}, "b": 1.0 / 3.0})
    assert docs.dump(doc).endswith("\n")


@pytest.mark.parametrize("value", [float("inf"), -float("inf"), float("nan")])
def test_dump_never_writes_nan_or_infinity(value):
    # JSON has no such numbers; emitting them would make the document unreadable to strict parsers
    with pytest.raises(InvariantViolationError):
        docs.dump(value)
    with pytest.raises(InvariantViolationError):
        docs.dump({"oracle": {"band_bound": value}})


def test_missing_field_diagnostics():
    with pytest.raises(InvalidInputError, match="missing field 'y'"):
        docs.state_from_doc({"x": 1.0})
    with pytest.raises(InvalidInputError, match="must be a number"):
        docs.state_from_doc({"x": "1.0", "y": 2.0})
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
        (docs.state_from_doc, {"x": HUGE, "y": 0.0}, "^state: field 'x' must be a number"),
        (docs.masker_from_doc, {"alpha": 0.1, "theta": -HUGE}, "^masker: field 'theta' must be a number"),
        (
            docs.operator_from_doc,
            {**{k: {"re": 1.0, "im": 0.0} for k in docs.OPERATOR_KEYS}, "c1": {"re": 0.0, "im": HUGE}},
            r"^operator\.c1: field 'im' must be a number",
        ),
        (docs.share_from_doc, {"alpha": HUGE, "theta": 0.2, "rho_b": []}, "^share: field 'alpha' must be a number"),
        (docs.circle_from_doc, {"n": [0.0, 0.0, 1.0], "c": HUGE}, "^circle: field 'c' must be a number"),
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


@pytest.mark.parametrize("n", [["0", "0", "1"], [True, 0, 0], [0.0, HUGE, 1.0], [0.0, None, 1.0]])
def test_circle_from_doc_rejects_normals_that_are_not_numbers(n):
    with pytest.raises(InvalidInputError, match="^circle: field 'n' must be a 3-element array of numbers$"):
        docs.circle_from_doc({"n": n, "c": 0.5})


def test_circle_from_doc_reads_integer_normals():
    circle = docs.circle_from_doc({"n": [0, 0, 1], "c": 0})
    assert np.array_equal(circle.normal, [0.0, 0.0, 1.0]) and circle.offset == 0.0


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
    with pytest.raises(InvalidInputError, match="^angle coordinates must be finite$"):
        docs.state_from_doc(docs.load_text(f'{{"x": {literal}, "y": 0}}'))


@pytest.mark.parametrize(
    "text, message",
    [('{"alpha": ' + "1" * 5000 + "}", "digits"), ("[" * 100_000, "recursion")],
    ids=["integer_beyond_the_digit_limit", "deep_nesting"],
)
def test_load_text_rejects_what_json_loads_cannot_hold(text, message):
    with pytest.raises(InvalidInputError, match=rf"^share \(s\.json\): .*{message}"):
        docs.load_text(text, where="share (s.json)")
