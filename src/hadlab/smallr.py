"""Closed-form complement factors for corner sizes r = 1, 2, 3.

The three invertible sign patterns (up to equivalence) admit fully explicit
E and S matrices, block-constant in the sense of BlockConstantSpec.  The
builders here assemble those matrices for a given order; the realization
helper permutes a catalog Hadamard matrix into the required normal form so
the closed forms can be cross-validated against the generic machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numlin
from .matcore import (
    BlockConstantSpec,
    PartitionedHadamard,
    block_constant,
    real_matrix_to_json,
    require_hadamard,
)

#: the invertible 3x3 pattern, first row/column all +
PATTERN_R3 = np.array([[1, 1, 1], [1, -1, 1], [1, 1, -1]], dtype=np.int64)


class PatternNotFoundError(LookupError):
    """No row/column rearrangement of the given matrix realizes the pattern."""


@dataclass(frozen=True, eq=False)
class SmallRForm:
    """Closed-form E and S for one of the small corner patterns."""

    r: int
    n: int
    e: np.ndarray
    s: np.ndarray
    block_sizes: tuple[int, ...]
    scalars: dict[str, float]

    @property
    def einf(self) -> float:
        return numlin.max_abs(self.e)

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "N": self.n,
            "blockSizes": list(self.block_sizes),
            "scalars": dict(self.scalars),
            "einf": self.einf,
            "E": real_matrix_to_json(self.e),
            "S": real_matrix_to_json(self.s),
        }


def _require_order(n: int, minimum: int, allow_two: bool = False) -> None:
    if allow_two and n == 2:
        return
    if n < minimum or n % 4 != 0:
        raise ValueError(f"invalid order {n}: need a multiple of 4 with N >= {minimum}")


def closed_form_r1(n: int) -> SmallRForm:
    """r = 1: E = S = the constant 1/(1 + sqrt(N)) on (N-1) x (N-1)."""
    _require_order(n, 4, allow_two=True)
    value = 1.0 / (1.0 + math.sqrt(n))
    e = block_constant(BlockConstantSpec.square([[value]], [n - 1]))
    return SmallRForm(r=1, n=n, e=e, s=e, block_sizes=(n - 1,), scalars={"entry": value})


def closed_form_r2(n: int) -> SmallRForm:
    """r = 2 with the Hadamard corner: E has [[1,1],[1,-1]] blocks of size
    N/2-1 scaled by 2/(2 + sqrt(2N)); S is block-diagonal scaled by
    2/(sqrt(2) + sqrt(N))."""
    _require_order(n, 4)
    m = n // 2 - 1
    e_coeff = 2.0 / (2.0 + math.sqrt(2 * n))
    s_coeff = 2.0 / (math.sqrt(2) + math.sqrt(n))
    e = e_coeff * block_constant(BlockConstantSpec.square([[1, 1], [1, -1]], [m, m]))
    s = s_coeff * block_constant(BlockConstantSpec.square([[1, 0], [0, 1]], [m, m]))
    return SmallRForm(
        r=2,
        n=n,
        e=e,
        s=s,
        block_sizes=(m, m),
        scalars={"eCoefficient": e_coeff, "sCoefficient": s_coeff},
    )


def closed_form_r3(n: int) -> SmallRForm:
    """r = 3 with the invertible corner pattern: block grids over sizes
    (N/4-1, N/4-1, N/4-1, N/4) scaled by 1/(sqrt(N) + 1), with

        x = (7 sqrt(N) + 6) / (3 sqrt(N) + 6)    y = (5 sqrt(N) + 6) / (...)
        z = (9 sqrt(N) + 10) / (3 sqrt(N) + 6)   t = (3 sqrt(N) + 2) / (...)

    so that ||E||_inf = 3/(sqrt(N) + 1).
    """
    _require_order(n, 8)
    rn = math.sqrt(n)
    den = 3 * rn + 6
    x = (7 * rn + 6) / den
    y = (5 * rn + 6) / den
    z = (9 * rn + 10) / den
    t = (3 * rn + 2) / den
    if not 3 > x > y > 1:
        raise AssertionError(f"scalar ordering violated at N={n}: x={x}, y={y}")
    q = n // 4
    sizes = (q - 1, q - 1, q - 1, q)
    coeff = 1.0 / (rn + 1.0)
    e = coeff * block_constant(
        BlockConstantSpec.square(
            [[x, y, y, 1], [y, -y, x, -1], [y, x, -y, -1], [1, -1, -1, -3]], sizes
        )
    )
    s = coeff * block_constant(
        BlockConstantSpec.square(
            [[z, t, t, -1], [t, z, -t, 1], [t, -t, z, 1], [-1, 1, 1, 3]], sizes
        )
    )
    return SmallRForm(
        r=3, n=n, e=e, s=s, block_sizes=sizes, scalars={"x": x, "y": y, "z": z, "t": t}
    )


def spectrum_t(r: int, n: int) -> np.ndarray:
    """Eigenvalue multiset (descending) of the PSD polar factor T of the
    complement: {sqrt(N) x (N-2), 1} for r = 1 and {sqrt(N) x (N-4),
    sqrt(2) x 2} for r = 2."""
    if r == 1:
        _require_order(n, 4, allow_two=True)
        eigs = [math.sqrt(n)] * (n - 2) + [1.0]
    elif r == 2:
        _require_order(n, 4)
        eigs = [math.sqrt(n)] * (n - 4) + [math.sqrt(2)] * 2
    else:
        raise ValueError("spectrum is tabulated for r in {1, 2} only")
    return np.array(sorted(eigs, reverse=True))


# --- realization of the normal-form patterns inside catalog matrices ----------


def normalize_first_row_col(h) -> np.ndarray:
    """Equivalent matrix (column then row negations) with all-+ first row and
    first column."""
    h = require_hadamard(h)
    g = h * np.where(h[0, :] > 0, 1, -1)[None, :]
    g = g * np.where(g[:, 0] > 0, 1, -1)[:, None]
    g.setflags(write=False)
    return g


def _signature_order(g: np.ndarray, axis_indices, probe_a: int, probe_b: int, axis: int):
    """Indices grouped by their sign signature on two probe rows/columns,
    in the order (+,+), (+,-), (-,+), (-,-)."""
    groups = {(1, 1): [], (1, -1): [], (-1, 1): [], (-1, -1): []}
    for k in axis_indices:
        sig = (g[probe_a, k], g[probe_b, k]) if axis == 1 else (g[k, probe_a], g[k, probe_b])
        groups[sig].append(k)
    ordered = groups[(1, 1)] + groups[(1, -1)] + groups[(-1, 1)] + groups[(-1, -1)]
    sizes = tuple(len(groups[s]) for s in [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    return ordered, sizes


def realize_type_pattern(h, r: int) -> PartitionedHadamard:
    """Rearrange a Hadamard matrix so its leading r x r corner is the
    invertible normal-form pattern, with the complementary rows and columns
    ordered into the block classes the closed forms expect.

    Raises PatternNotFoundError when no rearrangement works.
    """
    g = normalize_first_row_col(h)
    n = g.shape[0]
    if r == 1:
        return PartitionedHadamard(g, (0,), (0,))
    if r == 2:
        if n < 4:
            raise PatternNotFoundError(f"order {n} too small for the r=2 pattern")
        i = 1
        minus_cols = [j for j in range(1, n) if g[i, j] == -1]
        j = minus_cols[0]
        rest_cols = [c for c in range(1, n) if c != j]
        col_order = [0, j] + [c for c in rest_cols if g[i, c] == 1] + [
            c for c in rest_cols if g[i, c] == -1
        ]
        rest_rows = [k for k in range(1, n) if k != i]
        row_order = [0, i] + [k for k in rest_rows if g[k, j] == 1] + [
            k for k in rest_rows if g[k, j] == -1
        ]
        arranged = g[np.ix_(row_order, col_order)]
        return PartitionedHadamard(arranged, (0, 1), (0, 1))
    if r == 3:
        if n < 4 or n % 4 != 0:
            raise PatternNotFoundError(f"order {n} cannot carry the r=3 pattern")
        for i2 in range(1, n):
            for i3 in range(1, n):
                if i3 == i2:
                    continue
                cols2 = [j for j in range(1, n) if g[i2, j] == -1 and g[i3, j] == 1]
                cols3 = [j for j in range(1, n) if g[i2, j] == 1 and g[i3, j] == -1]
                if not cols2 or not cols3:
                    continue
                j2, j3 = cols2[0], cols3[0]
                rest_cols = [c for c in range(n) if c not in (0, j2, j3)]
                col_rest, col_sizes = _signature_order(g, rest_cols, i2, i3, axis=1)
                rest_rows = [k for k in range(n) if k not in (0, i2, i3)]
                row_rest, row_sizes = _signature_order(g, rest_rows, j2, j3, axis=0)
                q = n // 4
                if col_sizes != (q - 1, q - 1, q - 1, q) or row_sizes != col_sizes:
                    continue
                arranged = g[np.ix_([0, i2, i3] + row_rest, [0, j2, j3] + col_rest)]
                if not np.array_equal(arranged[:3, :3], PATTERN_R3):
                    continue
                return PartitionedHadamard(arranged, (0, 1, 2), (0, 1, 2))
        raise PatternNotFoundError(f"no r=3 pattern realization in this order-{n} matrix")
    raise ValueError("patterns are tabulated for r in {1, 2, 3} only")
