import numpy as np
import pytest

from hadlab import complement, matcore, numlin
from hadlab.complement import (
    InapplicableSplitError,
    SingularBlockError,
    complement_polar,
    det_complement_check,
    gram_identities_check,
    singular_value_complement_check,
    xa_ya,
)
from hadlab.matcore import PartitionedHadamard
from hadlab.scan import enumerate_splits

A3 = np.array([[1, 1, 1], [1, -1, 1], [1, 1, -1]], dtype=np.int64)


@pytest.mark.parametrize("n", [2, 4, 8, 16, 36])
def test_xa_ya_scalar_corner(n):
    xa, ya = xa_ya(np.array([[1]]), n)
    expected = 1 / (1 + np.sqrt(n))
    assert xa[0, 0] == pytest.approx(expected, abs=1e-14)
    assert ya[0, 0] == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("r_exp", [1, 2])
def test_xa_ya_hadamard_corner(r_exp, w2, w4):
    a = w2 if r_exp == 1 else w4
    r = a.shape[0]
    n = 16
    xa, ya = xa_ya(a, n)
    assert numlin.max_abs(xa - a.T / (r + np.sqrt(r * n))) < 1e-12
    assert numlin.max_abs(ya - np.eye(r) / (np.sqrt(r) + np.sqrt(n))) < 1e-12


@pytest.mark.parametrize("n", [8, 16])
def test_xa_ya_r3_pattern(n):
    rn = np.sqrt(n)
    xa, _ = xa_ya(A3, n)
    a, b = rn, 2 * rn + 3
    expected = np.array([[a, b, b], [b, -b, a], [b, a, -b]]) / (3 * (rn + 1) * (rn + 2))
    assert numlin.max_abs(xa - expected) < 1e-12


def test_xa_ya_rejects_singular():
    with pytest.raises(SingularBlockError):
        xa_ya(np.ones((2, 2), dtype=np.int64), 8)


def test_xa_ya_rejects_small_order():
    with pytest.raises(ValueError):
        xa_ya(A3, 3)


def test_complement_polar_w2_corner(w2):
    f = complement_polar(PartitionedHadamard(w2, (0,), (0,)))
    value = 1 / (1 + np.sqrt(2))
    assert f.e[0, 0] == pytest.approx(value, abs=1e-14)
    assert f.s[0, 0] == pytest.approx(value, abs=1e-14)
    assert f.u[0, 0] == pytest.approx(-1.0, abs=1e-12)
    assert f.t[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_complement_polar_w4_first_entry(w4):
    f = complement_polar(PartitionedHadamard(w4, (0,), (0,)))
    assert numlin.max_abs(f.e - np.full((3, 3), 1 / 3)) < 1e-12


def test_complement_polar_w4_hadamard_corner(w4):
    f = complement_polar(PartitionedHadamard(w4, (0, 1), (0, 1)))
    w2f = np.array([[1.0, 1.0], [1.0, -1.0]])
    assert numlin.max_abs(f.e - w2f / (1 + np.sqrt(2))) < 1e-12
    assert numlin.max_abs(f.s - 2 / (2 + np.sqrt(2)) * np.eye(2)) < 1e-12
    assert numlin.max_abs(f.u - (-w2f / np.sqrt(2))) < 1e-12
    assert numlin.max_abs(f.t - np.sqrt(2) * np.eye(2)) < 1e-12


def test_complement_factor_identities(w8):
    part = PartitionedHadamard(w8, (0, 1, 2), (0, 1, 2))
    f = complement_polar(part)
    n, r = part.n, part.r
    d = n - r
    assert numlin.max_abs(f.e - part.c @ f.xa @ part.b) <= 1e-9
    assert numlin.max_abs(f.s - part.b.T @ f.ya @ part.b) <= 1e-9
    assert numlin.max_abs(f.u.T @ f.u - np.eye(d)) <= 1e-9
    assert numlin.max_abs(f.u @ f.t - part.d) <= 1e-9
    assert numlin.is_psd(f.t).is_psd


def test_complement_polar_rejects_singular_corner(w4):
    with pytest.raises(SingularBlockError):
        complement_polar(PartitionedHadamard(w4, (0, 1), (0, 2)))


def test_complement_polar_refuses_norm_boundary(w4):
    # the invertible 3x3 corner of the order-4 matrix has norm 2 = sqrt(N)
    part = PartitionedHadamard(w4, (0, 1, 2), (0, 1, 2))
    with pytest.raises(InapplicableSplitError):
        complement_polar(part)


def test_complement_polar_requires_hadamard(w8):
    bad = np.array([[1, 1], [1, 1]], dtype=np.int64)
    with pytest.raises(ValueError):
        complement_polar(PartitionedHadamard(bad, (0,), (0,)))
    # one flipped entry of D, outside the corner
    broken = np.array(w8)
    broken[6, 7] = -broken[6, 7]
    with pytest.raises(ValueError, match="not Hadamard"):
        complement_polar(PartitionedHadamard(broken, (0, 1, 2), (0, 1, 2)))


def _oracle_agreement(h, r, limit, seed):
    worst = 0.0
    checked = 0
    n = h.shape[0]
    for rows, cols in enumerate_splits(h, r, limit=limit, seed=seed):
        part = PartitionedHadamard(h, rows, cols)
        try:
            f = complement_polar(part)
        except (SingularBlockError, InapplicableSplitError):
            continue
        pol = numlin.polar(part.d.astype(float))
        worst = max(worst, numlin.max_abs(f.u - pol.u), numlin.max_abs(f.t - pol.t))
        checked += 1
    return worst, checked


@pytest.mark.parametrize(
    "matrix,r,limit",
    [
        ("walsh3", 1, None),
        ("walsh3", 2, 150),
        ("walsh3", 3, 150),
        ("walsh3", 4, 150),
        ("walsh4", 5, 100),
        ("paley12", 5, 100),
    ],
)
def test_closed_form_matches_oracle(matrix, r, limit):
    h = matcore.catalog_matrix(matrix)
    worst, checked = _oracle_agreement(h, r, limit, seed=1)
    assert checked > 0
    assert worst <= complement.CROSS_TOL


def test_gram_identities_pass_on_hadamard(w8, h12):
    for part in [
        PartitionedHadamard(w8, (0, 1), (2, 3)),
        PartitionedHadamard(h12, (0, 1, 2, 4, 5), (0, 1, 2, 4, 5)),
    ]:
        assert all(g.passed for g in gram_identities_check(part))


def test_gram_identities_catch_corruption(w8):
    corrupted = w8.copy()
    corrupted[3, 3] = -corrupted[3, 3]
    part = PartitionedHadamard(corrupted, (0, 1), (0, 1))
    assert not all(g.passed for g in gram_identities_check(part))


def test_sv_complement_w4_r1(w4):
    report = singular_value_complement_check(PartitionedHadamard(w4, (0,), (0,)))
    assert report.passed and report.removed_ones == 2
    sd = sorted(x for _, x in report.pairs)
    assert sd == pytest.approx([0.5, 1.0, 1.0], abs=1e-12)


def test_sv_complement_half_split(w8):
    report = singular_value_complement_check(PartitionedHadamard(w8, (0, 1, 2, 3), (0, 1, 2, 3)))
    assert report.removed_ones == 0
    assert report.passed


def test_sv_complement_h12_prop_split(h12):
    report = singular_value_complement_check(
        PartitionedHadamard(h12, (0, 1, 2, 4, 5), (0, 1, 2, 4, 5))
    )
    assert report.passed and report.max_deviation <= 1e-8


def test_sv_complement_requires_small_corner(w4):
    with pytest.raises(ValueError):
        singular_value_complement_check(PartitionedHadamard(w4, (0, 1, 2), (0, 1, 2)))


def test_det_complement_w4_r1(w4):
    report = det_complement_check(PartitionedHadamard(w4, (0,), (0,)))
    assert report.passed
    assert report.det_d_abs == pytest.approx(4.0, rel=1e-10)  # N^{N/2-1} at N=4


def test_det_complement_r2_at_order_8(w8):
    report = det_complement_check(PartitionedHadamard(w8, (0, 1), (0, 1)))
    assert report.passed
    assert report.det_d_abs == pytest.approx(128.0, rel=1e-9)  # 2 N^{N/2-2} at N=8


def test_det_complement_r3_pattern_at_order_8(w8):
    reordered = matcore.permute_negate(w8, col_perm=[0, 1, 2, 4, 6, 5, 3, 7])
    part = PartitionedHadamard(reordered, (0, 1, 2), (0, 1, 2))
    report = det_complement_check(part)
    assert report.passed
    assert report.det_a_abs == pytest.approx(4.0, rel=1e-10)
    assert report.det_d_abs == pytest.approx(32.0, rel=1e-9)  # |det A| * 8^{(5-3)/2}


@pytest.mark.parametrize("matrix", ["walsh3", "walsh4", "paley12"])
def test_complementarity_identities_random_splits(matrix):
    h = matcore.catalog_matrix(matrix)
    n = h.shape[0]
    rng = np.random.default_rng(99)
    for _ in range(200):
        r = int(rng.integers(1, n // 2 + 1))
        rows = tuple(sorted(rng.choice(n, size=r, replace=False).tolist()))
        cols = tuple(sorted(rng.choice(n, size=r, replace=False).tolist()))
        part = PartitionedHadamard(h, rows, cols)
        assert singular_value_complement_check(part).max_deviation <= 1e-8
        assert det_complement_check(part).relative_deviation <= 1e-6


def test_det_complement_in_log_space_past_float_range():
    # |det D| ~ sqrt(512)^509 overflows a double; the identity still checks
    part = PartitionedHadamard(matcore.walsh(9), (0, 1, 2), (0, 1, 2))
    report = det_complement_check(part)
    assert report.passed and report.relative_deviation <= 1e-9
    assert report.det_d_abs == np.inf and report.scaled_lhs == np.inf
    assert report.det_a_abs == pytest.approx(4.0, rel=1e-12)


def test_det_complement_log_deviation_equals_plain_ratio(w8):
    compared = 0
    for rows, cols in enumerate_splits(w8, 3, limit=60, seed=4):
        part = PartitionedHadamard(w8, rows, cols)
        if part.svd_a.singular:
            continue
        compared += 1
        report = det_complement_check(part)
        lhs = report.det_a_abs * 8.0 ** ((8 - 2 * part.r) / 2)
        plain = abs(lhs - report.det_d_abs) / max(lhs, report.det_d_abs)
        assert report.relative_deviation == pytest.approx(plain, abs=1e-14)
    assert compared >= 10
