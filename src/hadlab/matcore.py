"""Sign-matrix value types, the Hadamard catalog, block-constant builders,
equivalence moves, and bit-exact text/JSON I/O.

All matrices are plain numpy arrays: ``int64`` with entries in {-1, +1} for
sign matrices, ``float64`` for real matrices.  Hadamard verification is
exact: every Gram product of a sign matrix is an integer matrix, computed by
``_sign_gram`` in single precision where each partial sum is represented
exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import numlin

#: Largest matrix order the constructors will build by default.
DEFAULT_MAX_ORDER = 4096

_W2 = np.array([[1, 1], [1, -1]], dtype=np.int64)

# The unique 12x12 Hadamard matrix (up to equivalence), hard-coded row by row.
_PALEY_12 = "\n".join(
    [
        "+-----------",
        "++-+---+++-+",
        "+++-+---+++-",
        "+-++-+---+++",
        "++-++-+---++",
        "+++-++-+---+",
        "++++-++-+---",
        "+-+++-++-+--",
        "+--+++-++-+-",
        "+---+++-++-+",
        "++---+++-++-",
        "+-+---+++-++",
    ]
)


class MatrixFormatError(ValueError):
    """Malformed sign-matrix text or entries outside {-1, +1}."""


class MaxOrderError(ValueError):
    """A construction would exceed the configured maximum order."""


def as_sign_matrix(entries) -> np.ndarray:
    """Validate and return a read-only int64 matrix with entries in {-1, +1}."""
    s = np.asarray(entries)
    if s.ndim != 2:
        raise MatrixFormatError(f"expected a 2-d array, got ndim={s.ndim}")
    if not np.issubdtype(s.dtype, np.number):
        raise MatrixFormatError(f"non-numeric dtype {s.dtype}")
    out = np.asarray(s, dtype=np.int64).copy()
    if not np.array_equal(out, s) or not np.all(np.abs(out) == 1):
        raise MatrixFormatError("entries must be exactly -1 or +1")
    out.setflags(write=False)
    return out


def as_real_matrix(entries) -> np.ndarray:
    """Validate and return a read-only float64 matrix with finite entries."""
    m = np.array(entries, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d array, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("entries must be finite (no NaN/Inf)")
    m.setflags(write=False)
    return m


def _sign_gram(s) -> np.ndarray:
    """The exact Gram matrix s @ s.T of a sign matrix, through float32 BLAS.

    Every partial sum of a product of two +-1 rows of length N is an integer
    of magnitude at most N, and float32 represents every integer up to 2^24
    exactly, so any summation order or fused multiply-add gives the exact
    integer.  N <= 2^24 holds for any sign matrix that fits in memory (int64
    storage of order 2^24 takes 2 PiB), so no fallback is needed.
    """
    f = np.asarray(s, dtype=np.float32)
    return f @ f.T


def _rows_orthogonal(s: np.ndarray) -> bool:
    """s @ s.T == N * I, exactly, for a square sign matrix its caller has
    already validated."""
    n = s.shape[0]
    return np.array_equal(_sign_gram(s), n * np.eye(n, dtype=np.float32))


def is_hadamard(s) -> bool:
    """Exact check that ``s`` is square with pairwise orthogonal rows,
    i.e. s @ s.T == N * I."""
    s = as_sign_matrix(s)
    n, cols = s.shape
    if n != cols:
        raise ValueError(f"matrix must be square, got {n}x{cols}")
    return _rows_orthogonal(s)


def require_hadamard(s) -> np.ndarray:
    """Return ``s`` as a validated sign matrix, raising if it is not Hadamard."""
    s = as_sign_matrix(s)
    if not is_hadamard(s):
        raise ValueError("matrix is not Hadamard (rows are not pairwise orthogonal)")
    return s


def walsh(n: int, max_order: int | None = None) -> np.ndarray:
    """The order-2^n Walsh matrix, the n-fold Kronecker power of [[+,+],[+,-]].

    Double indices are ordered lexicographically, so entry (x, y) for bit
    strings x, y (most significant bit first) is (-1)**(x . y).
    """
    if n < 0:
        raise ValueError("exponent must be >= 0")
    limit = DEFAULT_MAX_ORDER if max_order is None else max_order
    if 2**n > limit:
        raise MaxOrderError(f"order 2^{n} exceeds maximum order {limit}")
    w = np.array([[1]], dtype=np.int64)
    for _ in range(n):
        w = np.kron(w, _W2)
    w.setflags(write=False)
    return w


def paley12() -> np.ndarray:
    """The 12x12 Hadamard matrix: first row + followed by eleven -, with a
    circulant core."""
    return parse_sign_matrix(_PALEY_12)


def kronecker(h, k, max_order: int | None = None) -> np.ndarray:
    """Kronecker product of two sign matrices, double indices lexicographic:
    (h (x) k)[ia, jb] = h[i, j] * k[a, b]."""
    h = as_sign_matrix(h)
    k = as_sign_matrix(k)
    limit = DEFAULT_MAX_ORDER if max_order is None else max_order
    if h.shape[0] * k.shape[0] > limit or h.shape[1] * k.shape[1] > limit:
        raise MaxOrderError(
            f"product size {h.shape[0] * k.shape[0]}x{h.shape[1] * k.shape[1]} "
            f"exceeds maximum order {limit}"
        )
    out = np.kron(h, k)
    out.setflags(write=False)
    return out


def _check_permutation(perm, size: int, what: str) -> np.ndarray:
    p = np.asarray(perm, dtype=np.int64)
    if p.shape != (size,) or sorted(p.tolist()) != list(range(size)):
        raise ValueError(f"{what} is not a permutation of 0..{size - 1}")
    return p


def _check_signs(signs, size: int, what: str) -> np.ndarray:
    v = np.asarray(signs, dtype=np.int64)
    if v.shape != (size,) or not np.all(np.abs(v) == 1):
        raise ValueError(f"{what} must be {size} values in {{-1, +1}}")
    return v


def permute_negate(s, row_perm=None, col_perm=None, row_signs=None, col_signs=None) -> np.ndarray:
    """Apply a row/column permutation followed by row/column negations.

    Row i of the result is ``row_signs[i] * s[row_perm[i]]`` with columns
    treated the same way.  These are exactly the moves that preserve the
    Hadamard property.  ``None`` means the identity move.
    """
    s = as_sign_matrix(s)
    rows, cols = s.shape
    out = s.copy()
    if row_perm is not None:
        out = out[_check_permutation(row_perm, rows, "row_perm"), :]
    if col_perm is not None:
        out = out[:, _check_permutation(col_perm, cols, "col_perm")]
    if row_signs is not None:
        out = out * _check_signs(row_signs, rows, "row_signs")[:, None]
    if col_signs is not None:
        out = out * _check_signs(col_signs, cols, "col_signs")[None, :]
    out.setflags(write=False)
    return out


#: Byte classes of the sign-text fast path: 0 anything else, then '+', '-',
#: a space or tab (ignored), and the line feed.
_OTHER, _PLUS, _MINUS, _BLANK, _NEWLINE = range(5)
_BYTE_CLASS = np.zeros(256, dtype=np.uint8)
_BYTE_CLASS[[ord("+"), ord("-"), ord(" "), ord("\t"), ord("\n")]] = (
    _PLUS,
    _MINUS,
    _BLANK,
    _BLANK,
    _NEWLINE,
)


def parse_sign_matrix(text: str) -> np.ndarray:
    """Parse the sign-text format: one row per line of '+'/'-' characters,
    spaces inside a row ignored, blank lines skipped.

    Text made only of '+', '-', spaces, tabs and line feeds is decoded over
    its bytes at once; any other character sends it to the line scan, which
    reports the first invalid character or strips other whitespace at the
    ends of lines (a CR before each LF, say).
    """
    raw = np.frombuffer(text.encode(), dtype=np.uint8)
    cls = _BYTE_CLASS[raw]
    if (cls == _OTHER).any():
        return _parse_sign_lines(text)
    is_sign = cls <= _MINUS
    signs_before = np.cumsum(is_sign)
    line_ends = np.concatenate([signs_before[cls == _NEWLINE], signs_before[-1:]])
    widths = np.diff(line_ends, prepend=0)
    widths = widths[widths > 0]
    if not widths.size:
        raise MatrixFormatError("empty matrix text")
    if (widths != widths[0]).any():
        raise MatrixFormatError("ragged rows: all rows must have equal length")
    out = np.where(cls[is_sign] == _PLUS, 1, -1).astype(np.int64, copy=False)
    out = out.reshape(widths.size, int(widths[0]))
    out.setflags(write=False)
    return out


def _parse_sign_lines(text: str) -> np.ndarray:
    """The line-by-line reference parser behind parse_sign_matrix."""
    rows = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.replace(" ", "").replace("\t", "").strip()
        if not line:
            continue
        row = []
        for ch in line:
            if ch == "+":
                row.append(1)
            elif ch == "-":
                row.append(-1)
            else:
                raise MatrixFormatError(f"invalid character {ch!r} on line {lineno}")
        rows.append(row)
    if not rows:
        raise MatrixFormatError("empty matrix text")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise MatrixFormatError("ragged rows: all rows must have equal length")
    return as_sign_matrix(np.array(rows, dtype=np.int64))


def serialize_sign_matrix(s) -> str:
    """Render a sign matrix in the text format, LF-separated, no trailing newline."""
    s = as_sign_matrix(s)
    return "\n".join("".join("+" if v > 0 else "-" for v in row) for row in s)


def matrix_digest(s) -> str:
    """Short content hash of a sign matrix (stable across runs)."""
    return hashlib.sha256(serialize_sign_matrix(s).encode()).hexdigest()[:12]


@dataclass(frozen=True)
class BlockConstantSpec:
    """A k x l grid of values plus row/column block sizes describing a matrix
    that is constant on each rectangular block."""

    block_values: tuple[tuple[float, ...], ...]
    row_sizes: tuple[int, ...]
    col_sizes: tuple[int, ...]

    def __post_init__(self):
        values = tuple(tuple(float(v) for v in row) for row in self.block_values)
        object.__setattr__(self, "block_values", values)
        object.__setattr__(self, "row_sizes", tuple(int(m) for m in self.row_sizes))
        object.__setattr__(self, "col_sizes", tuple(int(m) for m in self.col_sizes))
        if any(m < 0 for m in self.row_sizes) or any(m < 0 for m in self.col_sizes):
            raise ValueError("block sizes must be >= 0")
        k = len(values)
        if k != len(self.row_sizes):
            raise ValueError(f"grid has {k} block rows but {len(self.row_sizes)} row sizes")
        widths = {len(row) for row in values}
        if len(widths) > 1:
            raise ValueError("ragged block-value grid")
        l = widths.pop() if widths else 0
        if l != len(self.col_sizes):
            raise ValueError(f"grid has {l} block cols but {len(self.col_sizes)} col sizes")

    @classmethod
    def square(cls, block_values, sizes) -> "BlockConstantSpec":
        """Square-diagonal shorthand: equal row and column size lists."""
        sizes = tuple(sizes)
        return cls(tuple(tuple(row) for row in block_values), sizes, sizes)


def block_constant(spec: BlockConstantSpec) -> np.ndarray:
    """Assemble the block-constant matrix described by ``spec``."""
    total_rows = sum(spec.row_sizes)
    total_cols = sum(spec.col_sizes)
    out = np.zeros((total_rows, total_cols), dtype=np.float64)
    row_offsets = np.concatenate([[0], np.cumsum(spec.row_sizes)])
    col_offsets = np.concatenate([[0], np.cumsum(spec.col_sizes)])
    for i, row in enumerate(spec.block_values):
        for j, value in enumerate(row):
            out[row_offsets[i] : row_offsets[i + 1], col_offsets[j] : col_offsets[j + 1]] = value
    out.setflags(write=False)
    return out


def _index_tuple(indices, n: int, what: str) -> tuple[int, ...]:
    idx = tuple(int(i) for i in indices)
    if len(set(idx)) != len(idx):
        raise ValueError(f"{what} contains duplicate indices")
    if any(i < 0 or i >= n for i in idx):
        raise ValueError(f"{what} indices must lie in 0..{n - 1}")
    return tuple(sorted(idx))


def _complement(idx: tuple[int, ...], n: int) -> tuple[int, ...]:
    return tuple(sorted(set(range(n)).difference(idx)))


@dataclass(frozen=True)
class GramIdentity:
    """Result of one exact integer block identity."""

    identity: str
    passed: bool
    max_deviation: float

    def to_json(self) -> dict:
        return {"identity": self.identity, "pass": self.passed, "maxDeviation": self.max_deviation}


_GRAM_NAMES = ("AAt+BBt=NI", "CCt+DDt=NI", "ACt+BDt=0", "AtA+CtC=NI")
#: The block Gram identities of every split of a Hadamard matrix: each block
#: of H H^t - N I = 0 and of H^t H - N I = 0 is exactly zero.
_HADAMARD_GRAM = tuple(GramIdentity(name, True, 0.0) for name in _GRAM_NAMES)


@dataclass(frozen=True, eq=False)
class PartitionedHadamard:
    """A square sign matrix together with a row subset and column subset that
    select the corner block A; B, C, D are the induced complementary blocks.

    Index sets are 0-based and stored sorted.  The matrix itself is only
    validated as a sign matrix here; operations whose contracts need
    orthogonal rows check ``gram``.  The read-only blocks are extracted at
    construction; the SVD of A, the polar decomposition of D and the Gram
    identities are computed on first use and shared by every consumer for
    as long as the part lives.
    """

    h: np.ndarray
    rows_a: tuple[int, ...]
    cols_a: tuple[int, ...]
    rows_d: tuple[int, ...] = field(init=False, repr=False)
    cols_d: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        h = as_sign_matrix(self.h)
        if h.shape[0] != h.shape[1]:
            raise ValueError(f"matrix must be square, got {h.shape[0]}x{h.shape[1]}")
        n = h.shape[0]
        rows = _index_tuple(self.rows_a, n, "rows_a")
        cols = _index_tuple(self.cols_a, n, "cols_a")
        if len(rows) != len(cols):
            raise ValueError("rows_a and cols_a must have the same size")
        if not 1 <= len(rows) < n:
            raise ValueError(f"corner size must satisfy 1 <= r < {n}")
        self._set_blocks(h, rows, cols)

    @classmethod
    def _from_checked(
        cls, h: np.ndarray, rows_a: tuple[int, ...], cols_a: tuple[int, ...], hadamard: bool
    ) -> "PartitionedHadamard":
        """A part whose inputs the caller has already validated: ``h`` is a
        read-only square sign matrix (``as_sign_matrix``) and the index tuples
        are sorted, distinct, in range and of one size 1 <= r < N.  Nothing is
        checked again.  ``hadamard`` is the caller's ``is_hadamard(h)``; when
        it holds, ``gram`` is the all-pass tuple without a product, which is
        exact, not an approximation."""
        part = object.__new__(cls)
        part._set_blocks(h, rows_a, cols_a)
        if hadamard:
            part.__dict__["gram"] = _HADAMARD_GRAM
        return part

    def _set_blocks(self, h: np.ndarray, rows: tuple[int, ...], cols: tuple[int, ...]) -> None:
        """Store the validated inputs and extract the four blocks from two row gathers."""
        n = h.shape[0]
        rows_d = _complement(rows, n)
        cols_d = _complement(cols, n)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "rows_a", rows)
        object.__setattr__(self, "cols_a", cols)
        object.__setattr__(self, "rows_d", rows_d)
        object.__setattr__(self, "cols_d", cols_d)
        top = h.take(rows, axis=0)
        bottom = h.take(rows_d, axis=0)
        blocks = {"_a": (top, cols), "_b": (top, cols_d), "_c": (bottom, cols), "_d": (bottom, cols_d)}
        for name, (row_block, col_idx) in blocks.items():
            block = row_block.take(col_idx, axis=1)
            block.setflags(write=False)
            object.__setattr__(self, name, block)

    @property
    def n(self) -> int:
        return self.h.shape[0]

    @property
    def r(self) -> int:
        return len(self.rows_a)

    @property
    def a(self) -> np.ndarray:
        return self._a

    @property
    def b(self) -> np.ndarray:
        return self._b

    @property
    def c(self) -> np.ndarray:
        return self._c

    @property
    def d(self) -> np.ndarray:
        return self._d

    @cached_property
    def svd_a(self) -> numlin.Svd:
        """The SVD of the corner A."""
        return numlin.svd(self.a)

    @cached_property
    def polar_d(self) -> numlin.PolarDecomposition:
        """The polar decomposition of the complement D, with D's singular values."""
        return numlin.polar(self.d)

    @cached_property
    def gram(self) -> tuple[GramIdentity, ...]:
        """The four block Gram identities of H H^t = H^t H = N I, exact
        (see ``_sign_gram``): AA^t+BB^t = NI, CC^t+DD^t = NI, AC^t+BD^t = 0,
        A^tA+C^tC = NI.  The first three are the blocks of H H^t = N I over
        the rows taken as rows_a then rows_d, so all four pass exactly when
        H is Hadamard."""
        n, r = self.n, self.r
        rows = _sign_gram(self.h[list(self.rows_a + self.rows_d)])
        rows.flat[:: n + 1] -= n
        cols = _sign_gram(self.h[:, list(self.cols_a)].T)
        cols.flat[:: r + 1] -= n
        checks = (rows[:r, :r], rows[r:, r:], rows[:r, r:], cols)
        out = []
        for name, resid in zip(_GRAM_NAMES, checks):
            dev = float(np.abs(resid).max())
            out.append(GramIdentity(name, dev == 0.0, dev))
        return tuple(out)


# --- catalog -----------------------------------------------------------------

_CATALOG_MAX_EXPONENT = 12


def catalog_names(max_order: int = DEFAULT_MAX_ORDER) -> tuple[str, ...]:
    """Names of the built-in Hadamard matrices within ``max_order``."""
    names = [f"walsh{n}" for n in range(_CATALOG_MAX_EXPONENT + 1) if 2**n <= max_order]
    if 12 <= max_order:
        names.append("paley12")
    return tuple(names)


def catalog_matrix(name: str, max_order: int | None = None) -> np.ndarray:
    """Look up a catalog matrix by name ('walsh<n>' or 'paley12')."""
    if name == "paley12":
        return paley12()
    if name.startswith("walsh"):
        try:
            n = int(name[len("walsh") :])
        except ValueError:
            raise KeyError(f"unknown catalog matrix {name!r}") from None
        if 0 <= n <= _CATALOG_MAX_EXPONENT:
            return walsh(n, max_order=max_order)
    raise KeyError(f"unknown catalog matrix {name!r}")


# --- JSON with deterministic full-precision floats ---------------------------


def format_float(value: float, significant: int = 17) -> str:
    """Format a finite float with the given number of significant digits."""
    x = float(value)
    if not math.isfinite(x):
        raise ValueError("cannot format non-finite value")
    return format(x, f".{significant}g")


def _emit_json(obj, out: list[str], indent: int, level: int, significant: int) -> None:
    pad = " " * (indent * (level + 1))
    closing = " " * (indent * level)
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(obj, significant))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {type(key)}")
            out.append(("," if i else "") + "\n" + pad + json.dumps(key) + ": ")
            _emit_json(value, out, indent, level + 1, significant)
        out.append("\n" + closing + "}")
    elif isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype == np.float64:
        out.append(_float_array_json(obj, pad, closing, significant))
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            out.append("[]")
            return
        if all(type(v) is float for v in obj):
            # plain float lists (matrix data) in one %-format call: "%.17g" % v
            # prints a float exactly as format(v, ".17g") does, so the bytes
            # are those of the loop below
            if not all(map(math.isfinite, obj)):
                raise ValueError("cannot format non-finite value")
            template = (",\n" + pad).join([f"%.{significant}g"] * len(obj))
            out.append("[\n" + pad + template % tuple(obj) + "\n" + closing + "]")
            return
        out.append("[")
        for i, value in enumerate(obj):
            out.append(("," if i else "") + "\n" + pad)
            _emit_json(value, out, indent, level + 1, significant)
        out.append("\n" + closing + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj)} to JSON")


def _float_array_json(a: np.ndarray, pad: str, closing: str, significant: int) -> str:
    """A 1-d float64 array as a JSON list, each distinct value formatted once.

    The values are keyed by their bits, so 0.0 and -0.0 stay apart and every
    entry prints exactly as format(v, f".{significant}g") prints it.  The
    closed-form factors have a few dozen distinct values among thousands of
    entries, so the formatting work follows the distinct values, not the
    entries.
    """
    if a.size == 0:
        return "[]"
    if not np.isfinite(a).all():
        raise ValueError("cannot format non-finite value")
    bits, inverse = np.unique(a.view(np.int64), return_inverse=True)
    uniques = bits.view(np.float64).tolist()
    # "%.17g" % v prints a float exactly as format(v, ".17g") does
    strings = ("\n".join([f"%.{significant}g"] * len(uniques)) % tuple(uniques)).split("\n")
    entries = np.array(strings, dtype=object)[inverse]
    return "[\n" + pad + (",\n" + pad).join(entries.tolist()) + "\n" + closing + "]"


def json_dumps(obj, indent: int = 2, significant: int = 17) -> str:
    """Deterministic JSON: insertion-ordered keys, floats printed with a fixed
    number of significant digits (17 round-trips doubles exactly)."""
    out: list[str] = []
    _emit_json(obj, out, indent, 0, significant)
    return "".join(out)


def real_matrix_to_json(m) -> dict:
    """Row-major JSON object {"rows", "cols", "data"} for a real matrix;
    ``data`` is a read-only 1-d float64 copy of the entries, which json_dumps
    renders without a round trip through a Python list."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("expected a 2-d array")
    data = m.flatten()
    data.setflags(write=False)
    return {"rows": m.shape[0], "cols": m.shape[1], "data": data}


def real_matrix_from_json(obj) -> np.ndarray:
    rows, cols = int(obj["rows"]), int(obj["cols"])
    data = np.asarray(obj["data"], dtype=np.float64)
    if data.shape != (rows * cols,):
        raise ValueError(f"data length {data.size} does not match {rows}x{cols}")
    return as_real_matrix(data.reshape(rows, cols))
