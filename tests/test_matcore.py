import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadlab import matcore
from hadlab.matcore import (
    BlockConstantSpec,
    MatrixFormatError,
    MaxOrderError,
    PartitionedHadamard,
    block_constant,
    is_hadamard,
    kronecker,
    parse_sign_matrix,
    permute_negate,
    _parse_sign_lines,
    serialize_sign_matrix,
    walsh,
)
from conftest import W2_TEXT, W4_TEXT, W8_TEXT, random_sign_matrix


def test_walsh_trivial():
    assert np.array_equal(walsh(0), [[1]])
    assert np.array_equal(walsh(1), parse_sign_matrix(W2_TEXT))


def test_walsh_matches_reference_displays():
    assert serialize_sign_matrix(walsh(2)) == W4_TEXT
    assert serialize_sign_matrix(walsh(3)) == W8_TEXT
    assert walsh(3)[7, 7] == -1


def test_walsh_respects_max_order():
    with pytest.raises(MaxOrderError):
        walsh(13)
    with pytest.raises(MaxOrderError):
        walsh(5, max_order=16)
    assert walsh(4, max_order=16).shape == (16, 16)


def test_paley12_entries_and_orthogonality():
    h = matcore.paley12()
    assert h.shape == (12, 12)
    assert h[0, 0] == 1
    assert h[0, 1] == -1
    assert is_hadamard(h)


def test_paley12_serialization_roundtrip():
    h = matcore.paley12()
    text = serialize_sign_matrix(h)
    assert len(text.split("\n")) == 12
    assert text.split("\n")[0] == "+" + "-" * 11
    assert np.array_equal(parse_sign_matrix(text), h)


def test_kronecker_builds_walsh(w2, w4, w8):
    assert np.array_equal(kronecker(w2, w2), w4)
    assert np.array_equal(kronecker(w2, w4), w8)
    assert np.array_equal(kronecker([[1]], w8), w8)


def test_kronecker_associative():
    rng = np.random.default_rng(42)
    for _ in range(20):
        a = random_sign_matrix(rng, rng.integers(1, 4), rng.integers(1, 4))
        b = random_sign_matrix(rng, rng.integers(1, 4), rng.integers(1, 4))
        c = random_sign_matrix(rng, rng.integers(1, 4), rng.integers(1, 4))
        assert np.array_equal(kronecker(kronecker(a, b), c), kronecker(a, kronecker(b, c)))


def test_kronecker_size_overflow():
    with pytest.raises(MaxOrderError):
        kronecker(walsh(7), walsh(7))


@pytest.mark.parametrize("n", range(9))
def test_walsh_is_hadamard(n):
    assert is_hadamard(walsh(n))


def test_is_hadamard_rejects():
    assert not is_hadamard(np.ones((2, 2), dtype=np.int64))
    with pytest.raises(ValueError):
        is_hadamard(np.ones((2, 3), dtype=np.int64))
    with pytest.raises(MatrixFormatError):
        is_hadamard(np.zeros((2, 2)))


def test_block_constant_all_ones():
    m = block_constant(BlockConstantSpec.square([[1.0]], [3]))
    assert np.array_equal(m, np.ones((3, 3)))


def test_block_constant_block_diagonal():
    m = block_constant(BlockConstantSpec.square([[1, 0], [0, 1]], [2, 2]))
    expected = np.zeros((4, 4))
    expected[:2, :2] = 1
    expected[2:, 2:] = 1
    assert np.array_equal(m, expected)


def test_block_constant_s2_pattern_at_order_8():
    coeff = 2 / (np.sqrt(2) + np.sqrt(8))
    m = coeff * block_constant(BlockConstantSpec.square([[1, 0], [0, 1]], [3, 3]))
    assert m.shape == (6, 6)
    assert m[0, 0] == pytest.approx(0.4714045207910317, abs=1e-12)
    assert m[0, 3] == 0.0


def test_block_constant_size_mismatch():
    with pytest.raises(ValueError):
        BlockConstantSpec(((1.0, 2.0),), (1, 1), (1,))
    with pytest.raises(ValueError):
        BlockConstantSpec(((1.0,), (2.0,)), (1,), (1,))


def test_permute_negate_identity(w4):
    assert np.array_equal(permute_negate(w4), w4)
    assert np.array_equal(permute_negate(w4, row_perm=[0, 1, 2, 3]), w4)


def test_permute_negate_preserves_hadamard(w4):
    flipped = permute_negate(w4, row_signs=[-1, 1, 1, 1])
    assert is_hadamard(flipped)


def test_permute_negate_rejects_malformed(w4):
    with pytest.raises(ValueError):
        permute_negate(w4, row_perm=[0, 0, 1, 2])
    with pytest.raises(ValueError):
        permute_negate(w4, col_perm=[0, 1, 2])
    with pytest.raises(ValueError):
        permute_negate(w4, col_signs=[1, 2, 1, 1])


@pytest.mark.parametrize("name", ["walsh3", "paley12"])
def test_random_equivalence_moves_preserve_hadamard(name):
    h = matcore.catalog_matrix(name)
    n = h.shape[0]
    rng = np.random.default_rng(7)
    for _ in range(1000):
        moved = permute_negate(
            h,
            row_perm=rng.permutation(n),
            col_perm=rng.permutation(n),
            row_signs=rng.choice([-1, 1], size=n),
            col_signs=rng.choice([-1, 1], size=n),
        )
        assert is_hadamard(moved)


def test_column_reorder_realizes_r3_corner(w8):
    # columns 1,2,3,5,7,6,4,8 (1-based) put the invertible 3x3 pattern up front
    reordered = permute_negate(w8, col_perm=[0, 1, 2, 4, 6, 5, 3, 7])
    expected_a = np.array([[1, 1, 1], [1, -1, 1], [1, 1, -1]])
    assert np.array_equal(reordered[:3, :3], expected_a)
    expected_b = np.array([[1, 1, 1, 1, 1], [1, 1, -1, -1, -1], [1, -1, 1, -1, -1]])
    assert np.array_equal(reordered[:3, 3:], expected_b)


def test_parse_simple():
    assert np.array_equal(parse_sign_matrix("++\n+-"), walsh(1))
    assert np.array_equal(parse_sign_matrix("+ +\n+ -\n"), walsh(1))


def test_parse_errors():
    with pytest.raises(MatrixFormatError):
        parse_sign_matrix("+-\n-")
    with pytest.raises(MatrixFormatError):
        parse_sign_matrix("+x\n++")
    with pytest.raises(MatrixFormatError):
        parse_sign_matrix("   \n ")


@pytest.mark.parametrize(
    "text, message",
    [
        ("+x\n++", "invalid character 'x' on line 1"),
        ("++\n\n \n+0", "invalid character '0' on line 4"),  # blank lines count
        ("+-\n-\n+é", "invalid character 'é' on line 3"),  # before the ragged rows
        ("++\n+\r-", "invalid character '\\r' on line 2"),  # CR inside a row
        ("+-\n-", "ragged rows: all rows must have equal length"),
        ("+-\n \t\n+", "ragged rows: all rows must have equal length"),
        ("", "empty matrix text"),
        ("   \n \t\n", "empty matrix text"),
        ("\r\n\r\n", "empty matrix text"),
    ],
)
def test_parse_error_messages(text, message):
    with pytest.raises(MatrixFormatError) as exc:
        parse_sign_matrix(text)
    assert str(exc.value) == message


def test_parse_strips_other_whitespace_at_line_ends():
    assert np.array_equal(parse_sign_matrix("++\r\n+-\r\n"), walsh(1))
    assert np.array_equal(parse_sign_matrix("\x0c+ +\t\n\n+\t-\x0b"), walsh(1))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.text(alphabet="+-+-+- \t\n\rx", max_size=40))
def test_parse_equals_line_scan_reference(text):
    """The byte-level decoder returns what the line scan returns, or raises its message."""
    try:
        expected = _parse_sign_lines(text)
    except MatrixFormatError as exc:
        with pytest.raises(MatrixFormatError) as got:
            parse_sign_matrix(text)
        assert str(got.value) == str(exc)
    else:
        got = parse_sign_matrix(text)
        assert got.dtype == np.int64 and not got.flags.writeable
        assert np.array_equal(got, expected)


def test_parse_serialize_roundtrip_random():
    rng = np.random.default_rng(123)
    for _ in range(50):
        rows = int(rng.integers(1, 65))
        cols = int(rng.integers(1, 65))
        s = random_sign_matrix(rng, rows, cols)
        assert np.array_equal(parse_sign_matrix(serialize_sign_matrix(s)), s)


def test_sign_matrix_validation():
    with pytest.raises(MatrixFormatError):
        matcore.as_sign_matrix([[1, 0], [1, 1]])
    with pytest.raises(MatrixFormatError):
        matcore.as_sign_matrix([1, -1])
    with pytest.raises(ValueError):
        matcore.as_real_matrix([[np.nan, 1.0]])


def test_partitioned_hadamard_blocks(w8):
    part = PartitionedHadamard(w8, (0, 1, 2, 4), (0, 1, 2, 4))
    assert part.r == 4 and part.n == 8
    assert part.rows_d == (3, 5, 6, 7)
    # blocks reassemble the matrix under the induced permutation
    perm = list(part.rows_a) + list(part.rows_d)
    cperm = list(part.cols_a) + list(part.cols_d)
    rebuilt = np.block([[part.a, part.b], [part.c, part.d]])
    assert np.array_equal(rebuilt, w8[np.ix_(perm, cperm)])


def test_partitioned_hadamard_validation(w4):
    with pytest.raises(ValueError):
        PartitionedHadamard(w4, (0, 0), (0, 1))
    with pytest.raises(ValueError):
        PartitionedHadamard(w4, (0, 1), (0,))
    with pytest.raises(ValueError):
        PartitionedHadamard(w4, (0, 1, 2, 3), (0, 1, 2, 3))
    with pytest.raises(ValueError):
        PartitionedHadamard(w4, (0, 4), (0, 1))


def test_catalog():
    names = matcore.catalog_names()
    assert "walsh0" in names and "walsh12" in names and "paley12" in names
    assert np.array_equal(matcore.catalog_matrix("walsh3"), walsh(3))
    with pytest.raises(KeyError):
        matcore.catalog_matrix("paley16")


def test_format_float_roundtrip():
    rng = np.random.default_rng(5)
    for _ in range(200):
        x = float(rng.normal() * 10.0 ** float(rng.integers(-8, 8)))
        assert float(matcore.format_float(x)) == x


def test_json_dumps_deterministic_and_parseable():
    obj = {"a": 1.0 / 3.0, "b": [1, 2.5, True, None], "c": {"nested": "x"}}
    text = matcore.json_dumps(obj)
    assert text == matcore.json_dumps(obj)
    parsed = json.loads(text)
    assert parsed["a"] == pytest.approx(1 / 3, abs=0)
    assert parsed["b"] == [1, 2.5, True, None]


def test_json_float_lists_keep_their_bytes():
    assert matcore.json_dumps((0.1, 2.0, -3.5e-300)) == (
        "[\n  0.10000000000000001,\n  2,\n  -3.5000000000000002e-300\n]"
    )
    assert matcore.json_dumps([1, 2.5, True]) == "[\n  1,\n  2.5,\n  true\n]"
    nested = [[1.0, 2.0], [3.0, [0.5, 1e20]], [], {"a": [0.25]}]
    assert matcore.json_dumps(nested) == (
        "[\n  [\n    1,\n    2\n  ],\n  [\n    3,\n    [\n      0.5,\n      1e+20\n"
        "    ]\n  ],\n  [],\n  {\n    \"a\": [\n      0.25\n    ]\n  }\n]"
    )
    assert matcore.json_dumps({"data": [1.0 / 3, 2.0]}, significant=6) == (
        '{\n  "data": [\n    0.333333,\n    2\n  ]\n}'
    )


@pytest.mark.parametrize("significant", [17, 6, 1])
def test_json_float_lists_match_per_value_format(significant):
    values = [0.0, -0.0, 5e-324, 1e-320, 0.1, 1 / 3, -2.5, 1e16, 1e17, 123456789012345678.0]
    values += [float(x) for x in np.random.default_rng(7).normal(size=200) * 1e3]
    values.append(np.finfo(np.float64).max.item())
    pad = "\n    "
    expected = "[" + pad + ("," + pad).join(format(v, f".{significant}g") for v in values)
    assert matcore.json_dumps({"data": values}, significant=significant) == (
        "{\n  \"data\": " + expected + "\n  ]\n}"
    )


@pytest.mark.parametrize("bad", [[1.0, float("inf")], [float("nan")], (2.0, -float("inf"))])
def test_json_float_list_refuses_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        matcore.json_dumps(bad)


def _float_array_cases():
    rng = np.random.default_rng(3)
    tiny = np.finfo(np.float64).smallest_subnormal
    big = np.finfo(np.float64).max
    return {
        "duplicates": rng.choice([0.1, -1 / 3, 2.5e-8, 7.0, -0.0], size=500),
        "signed_zeros": np.array([0.0, -0.0, 1.0, -0.0, 0.0, -1.0, 0.0]),
        "extremes": np.array([tiny, -tiny, 3 * tiny, 1e-310, big, -big, big, tiny, 1e-300]),
        "distinct": rng.normal(size=300) * 1e3,
        "empty": np.zeros(0),
    }


@pytest.mark.parametrize("significant", [17, 6, 1])
@pytest.mark.parametrize("case", sorted(_float_array_cases()))
def test_json_float_array_matches_per_value_format(case, significant):
    """A float64 array renders, byte for byte, as its per-value formatting."""
    values = _float_array_cases()[case]
    pad = "\n    "
    if values.size:
        rendered = ("," + pad).join(format(v, f".{significant}g") for v in values.tolist())
        expected = "[" + pad + rendered + "\n  ]"
    else:
        expected = "[]"
    got = matcore.json_dumps({"data": values}, significant=significant)
    assert got == "{\n  \"data\": " + expected + "\n}"
    assert got == matcore.json_dumps({"data": values.tolist()}, significant=significant)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_json_float_array_refuses_non_finite(bad):
    values = np.tile([0.5, -0.25, 1.0], 4000)
    values[7777] = bad
    with pytest.raises(ValueError, match="cannot format non-finite value"):
        matcore.json_dumps({"data": values})


def test_real_matrix_json_roundtrip():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(3, 5))
    obj = matcore.real_matrix_to_json(m)
    assert isinstance(obj["data"], np.ndarray) and obj["data"].shape == (15,)
    assert not obj["data"].flags.writeable
    assert not np.shares_memory(obj["data"], m)
    text = matcore.json_dumps(obj)
    back = matcore.real_matrix_from_json(json.loads(text))
    assert np.array_equal(back, m)


def test_partitioned_hadamard_shares_blocks_and_factorizations(w8):
    part = PartitionedHadamard(w8, (0, 1, 2), (0, 1, 2))
    assert part.d is part.d and part.cols_d == (3, 4, 5, 6, 7)
    for block in (part.a, part.b, part.c, part.d):
        assert not block.flags.writeable
    assert part.svd_a is part.svd_a and part.polar_d is part.polar_d and part.gram is part.gram
    assert np.allclose(part.svd_a.singular_values, np.linalg.svd(part.a, compute_uv=False))
    assert np.allclose(part.polar_d.singular_values, np.linalg.svd(part.d, compute_uv=False))
    assert all(g.passed for g in part.gram)
