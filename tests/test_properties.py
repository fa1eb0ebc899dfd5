"""Property tests: every split property is invariant under the Hadamard
equivalence moves.

If H' = permute_negate(H, row_perm, col_perm, row_signs, col_signs), then
H'[i, j] = row_signs[i] * col_signs[j] * H[row_perm[i], col_perm[j]], so the
split (rows, cols) of H' has the blocks of the split (row_perm[rows],
col_perm[cols]) of H up to signed permutations.  Pol(P D Q) = P Pol(D) Q for
signed permutations P, Q, so category, verdict, norms, ||E||_inf and the
identity checks must all agree between the two.
"""

import importlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadlab import numlin
from hadlab.complement import CROSS_TOL, complement_polar
from hadlab.matcore import PartitionedHadamard, is_hadamard, paley12, permute_negate, walsh
from hadlab.scan import classify_split, scan

scan_module = importlib.import_module("hadlab.scan")  # the package exports a function `scan`

MATRICES = {"walsh3": walsh(3), "walsh4": walsh(4), "paley12": paley12()}

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=150, deadline=None, database=None)


@st.composite
def moved_splits(draw):
    """A catalog matrix, a random equivalence move and a random split."""
    h = MATRICES[draw(st.sampled_from(sorted(MATRICES)))]
    n = h.shape[0]
    signs = st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)
    move = (
        draw(st.permutations(range(n))),
        draw(st.permutations(range(n))),
        draw(signs),
        draw(signs),
    )
    r = draw(st.integers(1, n // 2))
    index_set = st.lists(st.integers(0, n - 1), min_size=r, max_size=r, unique=True)
    return h, move, draw(index_set), draw(index_set)


def _failure_kind(record):
    failure = record.verdict.failure
    return None if failure is None else failure.kind


def _identity_flags(record):
    return (
        tuple(g.passed for g in record.gram),
        record.sv_check.passed,
        record.det_check.passed,
    )


@PROPERTY_SETTINGS
@given(moved_splits())
def test_split_record_is_invariant_under_equivalence(case):
    h, move, rows, cols = case
    row_perm, col_perm, _, _ = move
    moved = classify_split(permute_negate(h, *move), rows, cols)
    base = classify_split(h, [row_perm[i] for i in rows], [col_perm[j] for j in cols])
    assert moved.category == base.category
    assert moved.verdict.status == base.verdict.status
    assert _failure_kind(moved) == _failure_kind(base)
    assert moved.a_norm == pytest.approx(base.a_norm, abs=1e-12)
    if base.einf is None:
        assert moved.einf is None
    else:
        assert moved.einf == pytest.approx(base.einf, abs=1e-12)
    assert _identity_flags(moved) == _identity_flags(base)


@PROPERTY_SETTINGS
@given(moved_splits())
def test_closed_form_matches_oracle_on_equivalents(case):
    h, move, rows, cols = case
    part = PartitionedHadamard(permute_negate(h, *move), rows, cols)
    if part.svd_a.singular or part.svd_a.singular_values[0] >= np.sqrt(part.n) - 1e-9:
        return
    factors = complement_polar(part)
    oracle = numlin.polar(part.d.astype(np.float64))
    assert numlin.max_abs(factors.u - oracle.u) <= CROSS_TOL
    assert numlin.max_abs(factors.t - oracle.t) <= CROSS_TOL


def _record_fields(record):
    """Everything a scan reads from a record, and the checks behind it."""
    return (
        record.category,
        record.verdict.to_json(),
        record.einf,
        record.cross_dev,
        record.gram,
        None if record.sv_check is None else record.sv_check.to_json(),
        record.det_check.to_json(),
        record.reason,
    )


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(moved_splits(), st.integers(0, 2**16))
def test_scan_records_equal_standalone_records(case, seed):
    """scan() validates H once and builds its parts without rechecking; each
    record it folds equals, bit for bit, the record of a fully validated
    standalone classify_split of the same split."""
    h, move, rows, _ = case
    moved = permute_negate(h, *move)
    records = []

    def capture(*args, **kwargs):
        records.append(classify_split(*args, **kwargs))
        return records[-1]

    with mock.patch.object(scan_module, "classify_split", capture):
        scan(moved, len(rows), limit=4, seed=seed)
    assert len(records) == 4
    for record in records:
        alone = classify_split(moved, record.rows_a, record.cols_a)
        assert _record_fields(record) == _record_fields(alone)


# --- exactness of the single-precision Gram products -------------------------

GRAM_SETTINGS = settings(derandomize=True, max_examples=120, deadline=None, database=None)
GRAM_MATRICES = {**MATRICES, "walsh5": walsh(5)}


def _int64_gram_reference(part):
    """The four block identities as plain int64 products: (name, passed, max |residual|)."""
    a, b, c, d = part.a, part.b, part.c, part.d
    n, r = part.n, part.r
    checks = [
        ("AAt+BBt=NI", a @ a.T + b @ b.T - n * np.eye(r, dtype=np.int64)),
        ("CCt+DDt=NI", c @ c.T + d @ d.T - n * np.eye(n - r, dtype=np.int64)),
        ("ACt+BDt=0", a @ c.T + b @ d.T),
        ("AtA+CtC=NI", a.T @ a + c.T @ c - n * np.eye(r, dtype=np.int64)),
    ]
    return [(name, bool(np.all(res == 0)), float(np.max(np.abs(res)))) for name, res in checks]


def _is_hadamard_reference(h):
    n = h.shape[0]
    return np.array_equal(h @ h.T, n * np.eye(n, dtype=np.int64))


@st.composite
def sign_matrix_splits(draw):
    """A random +-1 matrix, or an equivalent of a catalog Hadamard matrix with
    k flipped entries, and a random split of it."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 40))
        seed = draw(st.integers(0, 2**32 - 1))
        h = np.random.default_rng(seed).choice(np.array([-1, 1], dtype=np.int64), size=(n, n))
    else:
        base = GRAM_MATRICES[draw(st.sampled_from(sorted(GRAM_MATRICES)))]
        n = base.shape[0]
        signs = st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)
        h = np.array(
            permute_negate(
                base,
                draw(st.permutations(range(n))),
                draw(st.permutations(range(n))),
                draw(signs),
                draw(signs),
            )
        )
        for _ in range(draw(st.integers(0, 3))):
            h[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] *= -1
    r = draw(st.integers(1, n - 1))
    index_set = st.lists(st.integers(0, n - 1), min_size=r, max_size=r, unique=True)
    return h, draw(index_set), draw(index_set)


@GRAM_SETTINGS
@given(sign_matrix_splits())
def test_gram_identities_equal_int64_reference(case):
    h, rows, cols = case
    part = PartitionedHadamard(h, rows, cols)
    got = [(g.identity, g.passed, g.max_deviation) for g in part.gram]
    assert got == _int64_gram_reference(part)
    assert is_hadamard(h) == _is_hadamard_reference(h)


def test_gram_identities_exact_at_order_1024():
    h = np.array(walsh(10))
    h[5, 700] *= -1
    assert not is_hadamard(h)
    part = PartitionedHadamard(h, (1, 5, 9), (2, 3, 700))
    got = [(g.identity, g.passed, g.max_deviation) for g in part.gram]
    assert got == _int64_gram_reference(part)
    assert got == [
        ("AAt+BBt=NI", False, 2.0),
        ("CCt+DDt=NI", True, 0.0),
        ("ACt+BDt=0", False, 2.0),
        ("AtA+CtC=NI", False, 2.0),
    ]


# --- the closed form's few distinct values ------------------------------------

STRUCTURE_MATRICES = {"walsh4": walsh(4), "walsh5": walsh(5), "paley12": paley12()}
VALUE_TOL = 1e-12


@st.composite
def applicable_parts(draw):
    """A random equivalent of a catalog matrix and a random split of it where
    the closed form applies (A invertible, ||A|| < sqrt(N))."""
    h = STRUCTURE_MATRICES[draw(st.sampled_from(sorted(STRUCTURE_MATRICES)))]
    n = h.shape[0]
    signs = st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)
    moved = permute_negate(
        h, draw(st.permutations(range(n))), draw(st.permutations(range(n))), draw(signs), draw(signs)
    )
    r = draw(st.integers(1, 4))
    rng = draw(st.randoms(use_true_random=False))
    while True:
        part = PartitionedHadamard(moved, rng.sample(range(n), r), rng.sample(range(n), r))
        if not part.svd_a.singular and part.svd_a.singular_values[0] < np.sqrt(n) - 1e-9:
            return part


def _pattern_labels(patterns):
    """One integer label per row of ``patterns``; equal rows share a label."""
    return np.unique(patterns, axis=0, return_inverse=True)[1].ravel()


def _max_spread_by_key(values, keys):
    """The largest max - min of ``values`` over the entries sharing a key."""
    groups = np.unique(keys.ravel(), return_inverse=True)[1].ravel()
    high = np.full(groups.max() + 1, -np.inf)
    low = np.full(groups.max() + 1, np.inf)
    np.maximum.at(high, groups, values.ravel())
    np.minimum.at(low, groups, values.ravel())
    return float((high - low).max())


def _distinct_values(m):
    """The number of distinct entries of ``m`` after merging gaps <= VALUE_TOL."""
    return int(np.count_nonzero(np.diff(np.sort(m.ravel())) > VALUE_TOL)) + 1


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(applicable_parts())
def test_closed_form_factors_take_few_distinct_values(part):
    """E[i, j] = c_i^t X_A b_j depends only on the sign patterns of row i of C
    and column j of B, and S[j, l] = b_j^t Y_A b_l only on those of columns j
    and l of B, so E and S have at most 4^r distinct values however large d
    is; the JSON emitter formats each distinct value once."""
    factors = complement_polar(part)
    c_rows = _pattern_labels(part.c)
    b_cols = _pattern_labels(part.b.T)
    width = b_cols.max() + 1
    e_keys = c_rows[:, None] * width + b_cols[None, :]
    s_keys = b_cols[:, None] * width + b_cols[None, :]
    assert _max_spread_by_key(factors.e, e_keys) <= VALUE_TOL
    assert _max_spread_by_key(factors.s, s_keys) <= VALUE_TOL
    assert _distinct_values(factors.e) <= 4**part.r
    assert _distinct_values(factors.s) <= 4**part.r
