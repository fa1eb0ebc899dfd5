import numpy as np
import pytest

from hadlab import ahp, matcore, numlin
from hadlab.ahp import NotOrthogonalError, ahm_check, ahp_check, kn_matrix, one_norm
from conftest import random_orthogonal, random_sign_matrix

# 4x4 complement with an exact polar zero: rows/cols {1,2,3,5} of the
# order-8 Walsh matrix
D_ZERO = np.array(
    [
        [1, -1, -1, 1],
        [-1, 1, -1, 1],
        [-1, -1, 1, 1],
        [1, 1, 1, -1],
    ],
    dtype=np.int64,
)


def _h12_counterexample():
    h12 = matcore.paley12()
    comp = (3, 6, 7, 8, 9, 10, 11)
    return h12[np.ix_(comp, comp)]


def test_one_norm_identity():
    assert one_norm(np.eye(3)) == pytest.approx(3.0)


def test_one_norm_hadamard_equality(w4):
    assert one_norm(w4 / 2.0) == pytest.approx(8.0, abs=1e-12)  # N sqrt(N) at N=4


def test_one_norm_kn_at_4():
    assert one_norm(kn_matrix(4) / 2.0) <= 8.0 + 1e-12


def test_kn_matrix_entries():
    k4 = kn_matrix(4)
    assert np.allclose(np.diag(k4), -1.0)
    assert k4[0, 1] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        kn_matrix(2)


@pytest.mark.parametrize("n", range(3, 17))
def test_kn_rescaled_is_orthogonal(n):
    u = kn_matrix(n) / np.sqrt(n)
    assert numlin.max_abs(u @ u.T - np.eye(n)) <= numlin.ORTHO_TOL


@pytest.mark.parametrize("n", range(3, 17))
def test_kn_family_is_ahm(n):
    verdict = ahm_check(kn_matrix(n))
    assert verdict.is_ahp
    assert verdict.strict


def test_hadamard_is_ahm(w8):
    verdict = ahm_check(w8.astype(float))
    assert verdict.is_ahp and verdict.strict


def test_ahm_zero_entry():
    # rescale the polar factor that carries an exact zero back to matrix form
    u = numlin.polar(D_ZERO.astype(float)).u
    verdict = ahm_check(2.0 * u)
    assert verdict.status == ahp.NOT_AHP
    assert verdict.failure.kind == "zero_entry"
    assert (verdict.failure.row, verdict.failure.col) == (3, 3)


def test_ahm_rejects_non_orthogonal():
    with pytest.raises(NotOrthogonalError):
        ahm_check(np.ones((3, 3)))


def test_ahp_kn_sign_pattern():
    s = np.sign(kn_matrix(5)).astype(np.int64)
    verdict = ahp_check(s)
    assert verdict.is_ahp


def test_ahp_zero_entry_counterexample():
    verdict = ahp_check(D_ZERO)
    assert verdict.status == ahp.NOT_AHP
    failure = verdict.failure
    assert failure.kind == "zero_entry"
    assert (failure.row, failure.col) == (3, 3)
    assert abs(failure.u_value) <= 1e-10
    assert not failure.borderline


def test_ahp_sign_mismatch_counterexample():
    d = _h12_counterexample()
    assert d[3, 4] == -1
    verdict = ahp_check(d)
    assert verdict.status == ahp.NOT_AHP
    failure = verdict.failure
    assert failure.kind == "sign_mismatch"
    assert (failure.row, failure.col) == (3, 4)
    assert 0.02 < failure.u_value < 0.04
    assert failure.s_value == -1


def test_ahp_singular_pattern():
    verdict = ahp_check(np.ones((3, 3), dtype=np.int64))
    assert verdict.status == ahp.SINGULAR
    assert verdict.failure is None


@pytest.mark.parametrize("name", ["walsh1", "walsh2", "walsh3", "walsh4", "walsh5", "paley12"])
def test_catalog_sign_patterns_are_ahp(name):
    verdict = ahp_check(matcore.catalog_matrix(name))
    assert verdict.is_ahp


def test_verdict_stable_under_zero_tol_scaling():
    for tol in (1e-9, 1e-8, 1e-7):
        v1 = ahp_check(D_ZERO, zero_tol=tol)
        assert v1.status == ahp.NOT_AHP and v1.failure.kind == "zero_entry"
        v2 = ahp_check(_h12_counterexample(), zero_tol=tol)
        assert v2.status == ahp.NOT_AHP and v2.failure.kind == "sign_mismatch"


def test_polar_hessian_psd_on_random_sign_matrices():
    rng = np.random.default_rng(41)
    checked = 0
    while checked < 500:
        n = int(rng.integers(2, 17))
        s = random_sign_matrix(rng, n)
        pol = numlin.polar(s.astype(float))
        if pol.singular:
            continue
        checked += 1
        assert numlin.is_psd(pol.u.T @ s).is_psd


def test_random_orthogonal_below_hadamard_bound():
    rng = np.random.default_rng(43)
    for _ in range(100):
        n = int(rng.integers(2, 17))
        u = random_orthogonal(rng, n)
        assert one_norm(u) < n * np.sqrt(n)


def test_verdict_json_uses_one_based_indices():
    verdict = ahp_check(D_ZERO)
    obj = verdict.to_json()
    assert obj["status"] == "NotAHP"
    assert obj["failure"]["row"] == 4 and obj["failure"]["col"] == 4
    assert obj["failure"]["kind"] == "zero_entry"


def _first_violation_loop(u, s, zero_tol):
    """Entry-by-entry reference for ahp._first_violation."""
    band_hi = ahp.ZERO_BAND_FACTOR * zero_tol
    for i in range(u.shape[0]):
        for j in range(u.shape[1]):
            if abs(u[i, j]) <= band_hi:
                return ("zero_entry", i, j, abs(u[i, j]) > zero_tol)
            if (u[i, j] > 0) != (s[i, j] > 0):
                return ("sign_mismatch", i, j, False)
    return None


def _as_tuple(failure):
    return None if failure is None else (failure.kind, failure.row, failure.col, failure.borderline)


def test_first_violation_sign_mismatch_before_zero_in_row_major_order():
    u = np.array([[0.5, -0.5, 0.5], [0.0, 0.5, 0.5]])
    s = np.ones((2, 3), dtype=np.int64)
    failure = ahp._first_violation(u, s, ahp.ZERO_TOL)
    assert (failure.kind, failure.row, failure.col) == ("sign_mismatch", 0, 1)
    assert failure.s_value == 1 and failure.u_value == -0.5


def test_first_violation_zero_band_wins_at_one_entry():
    # U_00 = 5e-7 lies in the zero band and also disagrees in sign with S_00 = -1
    u = np.array([[5e-7, 0.5], [0.5, -0.5]])
    s = np.array([[-1, 1], [1, -1]])
    failure = ahp._first_violation(u, s, ahp.ZERO_TOL)
    assert (failure.kind, failure.row, failure.col) == ("zero_entry", 0, 0)
    assert failure.borderline and failure.s_value is None


def test_first_violation_matches_entrywise_reference():
    rng = np.random.default_rng(5)
    for _ in range(300):
        u = rng.normal(size=(4, 5))
        u[rng.random(size=u.shape) < 0.1] = 0.0
        u[rng.random(size=u.shape) < 0.1] *= 1e-7
        s = np.where(u > 0, 1, -1)
        s[rng.random(size=u.shape) < 0.1] *= -1
        expected = _first_violation_loop(u, s, ahp.ZERO_TOL)
        assert _as_tuple(ahp._first_violation(u, s, ahp.ZERO_TOL)) == expected
