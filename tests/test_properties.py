"""Property tests: every split property is invariant under the Hadamard
equivalence moves.

If H' = permute_negate(H, row_perm, col_perm, row_signs, col_signs), then
H'[i, j] = row_signs[i] * col_signs[j] * H[row_perm[i], col_perm[j]], so the
split (rows, cols) of H' has the blocks of the split (row_perm[rows],
col_perm[cols]) of H up to signed permutations.  Pol(P D Q) = P Pol(D) Q for
signed permutations P, Q, so category, verdict, norms, ||E||_inf and the
identity checks must all agree between the two.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadlab import numlin
from hadlab.complement import CROSS_TOL, complement_polar
from hadlab.matcore import PartitionedHadamard, paley12, permute_negate, walsh
from hadlab.scan import classify_split

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
