import numpy as np
import pytest

from hadlab import matcore
from hadlab.embed import DuplicateColumnsError, embed_distinct_columns, embed_general
from conftest import random_sign_matrix


def test_embed_single_negative_entry():
    emb = embed_distinct_columns(np.array([[-1]]))
    assert emb.host_order == 2
    assert emb.row_indices == (1,) and emb.col_indices == (1,)
    assert emb.to_json() == {"hostOrder": 2, "rows": [2], "cols": [2]}


def test_embed_w2(w2):
    emb = embed_distinct_columns(w2)
    assert emb.host_order == 4
    assert np.array_equal(emb.extract(), w2)


def test_embed_three_column_example():
    d = np.array([[1, 1, -1], [1, -1, -1], [1, 1, 1]], dtype=np.int64)
    emb = embed_distinct_columns(d)
    assert emb.host_order == 8
    assert emb.row_indices == (4, 2, 1)
    assert emb.col_indices == (0, 2, 6)
    assert np.array_equal(emb.extract(), d)


def test_embed_rejects_duplicate_columns():
    with pytest.raises(DuplicateColumnsError):
        embed_distinct_columns(np.ones((2, 2), dtype=np.int64))


def test_embed_general_all_ones():
    d = np.ones((2, 2), dtype=np.int64)
    emb = embed_general(d)
    assert emb.host_order == 8
    assert np.array_equal(emb.extract(), d)


def test_every_2x2_with_distinct_columns_sits_in_order_4():
    count = 0
    for bits in range(16):
        d = np.array(
            [
                [1 if bits >> 0 & 1 else -1, 1 if bits >> 1 & 1 else -1],
                [1 if bits >> 2 & 1 else -1, 1 if bits >> 3 & 1 else -1],
            ],
            dtype=np.int64,
        )
        if np.array_equal(d[:, 0], d[:, 1]):
            continue
        emb = embed_distinct_columns(d)
        assert emb.host_order == 4
        assert np.array_equal(emb.extract(), d)
        count += 1
    assert count == 12


def test_every_2x2_sits_in_order_8():
    for bits in range(16):
        d = np.array(
            [
                [1 if bits >> 0 & 1 else -1, 1 if bits >> 1 & 1 else -1],
                [1 if bits >> 2 & 1 else -1, 1 if bits >> 3 & 1 else -1],
            ],
            dtype=np.int64,
        )
        emb = embed_general(d)
        assert emb.host_order == 8
        assert np.array_equal(emb.extract(), d)


def test_general_subsumes_distinct_columns(w4):
    emb = embed_general(w4)
    assert emb.host_order == 2 ** (4 + 2)
    assert np.array_equal(emb.extract(), w4)


def test_duplicated_column_routing():
    rng = np.random.default_rng(19)
    d = random_sign_matrix(rng, 4)
    d[:, 2] = d[:, 0]
    emb = embed_general(d)
    assert emb.host_order == 2 ** (4 + 2)
    assert np.array_equal(emb.extract(), d)
    assert len(set(emb.col_indices)) == 4


def test_random_embeddings_exact():
    rng = np.random.default_rng(29)
    for _ in range(500):
        size = int(rng.integers(1, 7))
        d = random_sign_matrix(rng, size)
        emb = embed_general(d)
        assert emb.host_order == 2 ** (size + (size - 1).bit_length())
        assert np.array_equal(emb.extract(), d)
        cols = {tuple(d[:, j]) for j in range(size)}
        if len(cols) == size:
            emb2 = embed_distinct_columns(d)
            assert emb2.host_order == 2**size
            assert np.array_equal(emb2.extract(), d)


def test_hosts_are_walsh_matrices():
    d = np.array([[1, -1], [-1, -1]], dtype=np.int64)
    emb = embed_distinct_columns(d)
    assert np.array_equal(emb.host, matcore.walsh(2))


def test_embed_host_respects_max_order():
    d = np.array([[1, 1, -1], [1, -1, -1], [1, 1, 1]], dtype=np.int64)
    with pytest.raises(matcore.MaxOrderError, match="order 2\\^3 exceeds maximum order 4"):
        embed_distinct_columns(d, max_order=4)
    assert embed_distinct_columns(d, max_order=8).host_order == 8
    with pytest.raises(matcore.MaxOrderError, match="order 2\\^5 exceeds maximum order 16"):
        embed_general(d, max_order=16)
    assert embed_general(d, max_order=32).host_order == 32
