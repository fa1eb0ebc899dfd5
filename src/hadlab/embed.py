"""Embedding arbitrary sign matrices as submatrices of Walsh matrices.

Indexing a Walsh matrix of order 2^d by bit strings (most significant bit
first) gives entries (-1)**(x . y).  The rows indexed by the weight-1
strings e_1, ..., e_d read off the column bits directly, so every d x d
sign matrix with distinct columns sits inside the order-2^d Walsh matrix.
Duplicated columns are routed into separate copies provided by a Kronecker
factor whose first row is all ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import as_sign_matrix, walsh


class DuplicateColumnsError(ValueError):
    """The distinct-columns construction needs pairwise distinct columns."""


@dataclass(frozen=True, eq=False)
class Embedding:
    """A host Walsh matrix and the row/column indices at which the target
    appears entrywise exactly.  Indices are 0-based here, 1-based in JSON."""

    host: np.ndarray
    row_indices: tuple[int, ...]
    col_indices: tuple[int, ...]

    @property
    def host_order(self) -> int:
        return self.host.shape[0]

    def extract(self) -> np.ndarray:
        return self.host[np.ix_(self.row_indices, self.col_indices)]

    def to_json(self) -> dict:
        return {
            "hostOrder": self.host_order,
            "rows": [i + 1 for i in self.row_indices],
            "cols": [j + 1 for j in self.col_indices],
        }


def _column_bit_index(d: np.ndarray, j: int) -> int:
    """Walsh column index whose restriction to the probe rows equals column j:
    bit i is 0 where d[i, j] = +1 and 1 where d[i, j] = -1, MSB first."""
    y = 0
    for i in range(d.shape[0]):
        y = (y << 1) | (1 if d[i, j] < 0 else 0)
    return y


def _probe_rows(size: int) -> tuple[int, ...]:
    """Row indices of the weight-1 bit strings inside the order-2^size host."""
    return tuple(1 << (size - 1 - i) for i in range(size))


def embed_distinct_columns(d, max_order: int | None = None) -> Embedding:
    """Embed a square sign matrix with pairwise distinct columns into the
    Walsh matrix of order exactly 2^d.  ``max_order`` caps the host as in
    ``walsh``."""
    d = as_sign_matrix(d)
    if d.shape[0] != d.shape[1]:
        raise ValueError("target must be square")
    size = d.shape[0]
    cols = [_column_bit_index(d, j) for j in range(size)]
    if len(set(cols)) != size:
        raise DuplicateColumnsError("target has duplicate columns")
    host = walsh(size, max_order=max_order)
    emb = Embedding(host=host, row_indices=_probe_rows(size), col_indices=tuple(cols))
    if not np.array_equal(emb.extract(), d):
        raise AssertionError("embedding construction failed to reproduce the target")
    return emb


def embed_general(d, max_order: int | None = None) -> Embedding:
    """Embed an arbitrary square sign matrix into the Walsh matrix of order
    exactly 2^(d + ceil(log2 d)).  ``max_order`` caps the host as in ``walsh``.

    The k-th occurrence of a repeated column goes to the k-th copy of the
    probe block, which makes the column index list the lexicographically
    smallest valid choice.
    """
    d = as_sign_matrix(d)
    if d.shape[0] != d.shape[1]:
        raise ValueError("target must be square")
    size = d.shape[0]
    copy_exp = (size - 1).bit_length()  # ceil(log2 d), with d=1 -> 0
    host = walsh(size + copy_exp, max_order=max_order)
    block = 1 << size
    seen: dict[int, int] = {}
    cols = []
    for j in range(size):
        y = _column_bit_index(d, j)
        copy = seen.get(y, 0)
        seen[y] = copy + 1
        cols.append(copy * block + y)
    emb = Embedding(host=host, row_indices=_probe_rows(size), col_indices=tuple(cols))
    if not np.array_equal(emb.extract(), d):
        raise AssertionError("embedding construction failed to reproduce the target")
    return emb
