import numpy as np
import pytest

from hadlab import numlin
from conftest import random_orthogonal, random_sign_matrix

# invertible 3x3 corner pattern; singular values computed by hand from the
# characteristic polynomial of the Gram matrix, (4-l)(l-4)(l-1)
A3 = np.array([[1, 1, 1], [1, -1, 1], [1, 1, -1]], dtype=float)
A3_SINGULAR_VALUES = (2.0, 2.0, 1.0)


def test_svd_identity():
    f = numlin.svd(np.eye(3))
    assert np.allclose(f.singular_values, [1, 1, 1], atol=1e-12)


def test_svd_walsh4(w4):
    f = numlin.svd(w4.astype(float))
    assert np.allclose(f.singular_values, [2, 2, 2, 2], atol=1e-12)


def test_svd_corner_pattern():
    f = numlin.svd(A3)
    assert np.allclose(f.singular_values, A3_SINGULAR_VALUES, atol=1e-12)
    recon = f.v @ np.diag(f.singular_values) @ f.w.T
    assert numlin.max_abs(recon - A3) <= numlin.RECON_TOL


def test_svd_descending_and_orthogonal():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(6, 6))
    f = numlin.svd(m)
    s = f.singular_values
    assert np.all(s[:-1] >= s[1:]) and np.all(s >= 0)
    assert numlin.max_abs(f.v.T @ f.v - np.eye(6)) <= numlin.ORTHO_TOL
    assert numlin.max_abs(f.w.T @ f.w - np.eye(6)) <= numlin.ORTHO_TOL


def test_polar_of_orthogonal_is_identity_factor():
    rng = np.random.default_rng(9)
    q = random_orthogonal(rng, 5)
    p = numlin.polar(q)
    assert numlin.max_abs(p.u - q) < 1e-12
    assert numlin.max_abs(p.t - np.eye(5)) < 1e-12


def test_polar_walsh4_corner():
    # the 2x2 corner of the order-4 matrix in type-(2) arrangement
    d = np.array([[-1.0, -1.0], [-1.0, 1.0]])
    p = numlin.polar(d)
    expected_u = -np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert numlin.max_abs(p.u - expected_u) <= 1e-12
    assert numlin.max_abs(p.t - np.sqrt(2) * np.eye(2)) <= 1e-12
    assert not p.singular


def test_polar_1x1():
    p = numlin.polar(np.array([[-1.0]]))
    assert p.u[0, 0] == pytest.approx(-1.0, abs=1e-15)
    assert p.t[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_polar_reconstruction_random():
    rng = np.random.default_rng(17)
    for n in (2, 5, 16, 64):
        m = rng.normal(size=(n, n))
        p = numlin.polar(m)
        assert p.residual <= numlin.RECON_TOL
        assert numlin.max_abs(p.u.T @ p.u - np.eye(n)) <= numlin.ORTHO_TOL
        # T carries the singular values of M
        assert np.allclose(
            np.linalg.eigvalsh(p.t),
            np.sort(np.linalg.svd(m, compute_uv=False)),
            atol=1e-10,
        )


def test_polar_flags_singular_input():
    m = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert numlin.polar(m).singular
    assert numlin.polar(np.zeros((3, 3))).singular
    assert not numlin.polar(np.eye(3)).singular


def test_polar_agrees_with_newton_iteration():
    rng = np.random.default_rng(23)
    for n in (2, 4, 8, 16):
        m = rng.normal(size=(n, n)) + 0.5 * np.eye(n)
        u_newton = numlin.polar_newton(m)
        assert numlin.max_abs(numlin.polar(m).u - u_newton) <= 1e-8


def test_polar_requires_square():
    with pytest.raises(ValueError):
        numlin.polar(np.ones((2, 3)))


def test_psd_sqrt_basic():
    assert numlin.max_abs(numlin.psd_sqrt(np.eye(3)) - np.eye(3)) < 1e-14
    assert numlin.max_abs(numlin.psd_sqrt(4 * np.eye(2)) - 2 * np.eye(2)) < 1e-14


def test_psd_sqrt_gram_of_corner_pattern():
    root = numlin.psd_sqrt(A3.T @ A3)
    assert numlin.max_abs(root @ root - A3.T @ A3) <= numlin.RECON_TOL
    assert np.trace(root) == pytest.approx(5.0, abs=1e-10)


def test_psd_sqrt_random_psd():
    rng = np.random.default_rng(31)
    for n in (2, 6, 20):
        g = rng.normal(size=(n, n))
        p = g @ g.T
        root = numlin.psd_sqrt(p)
        assert numlin.max_abs(root @ root - p) <= numlin.RECON_TOL * max(1.0, numlin.max_abs(p))
        assert numlin.max_abs(root - root.T) < 1e-12


def test_psd_sqrt_rejects():
    with pytest.raises(ValueError):
        numlin.psd_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        numlin.psd_sqrt(-np.eye(2))


def test_is_psd():
    ok, min_eig, asym = numlin.is_psd(np.eye(3))
    assert ok and min_eig == pytest.approx(1.0) and asym == 0.0
    ok, min_eig, _ = numlin.is_psd(np.diag([1.0, -1.0]))
    assert not ok and min_eig == pytest.approx(-1.0)


def test_is_psd_symmetrizes():
    skew = np.array([[1.0, 2.0], [0.0, 1.0]])
    report = numlin.is_psd(skew)
    assert report.asymmetry == pytest.approx(2.0)
    assert report.min_eigenvalue == pytest.approx(0.0, abs=1e-12)


def test_polar_transposed_gram_identity_on_sign_matrices():
    # U = Pol(S) makes U^t S the PSD square root of S^t S
    rng = np.random.default_rng(37)
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 17))
        s = random_sign_matrix(rng, n)
        p = numlin.polar(s.astype(float))
        if p.singular:
            continue
        checked += 1
        report = numlin.is_psd(p.u.T @ s)
        assert report.is_psd
        assert numlin.max_abs(p.u.T @ s - numlin.psd_sqrt(s.T @ s)) < 1e-8


def test_is_singular_is_the_relative_rank_test():
    assert numlin.is_singular(np.array([2.0, 1e-11]))
    assert not numlin.is_singular(np.array([2.0, 1e-9]))
    assert numlin.is_singular(np.array([]))
    f = numlin.svd(np.ones((2, 2)))
    assert f.singular and numlin.polar(np.ones((2, 2))).singular


def test_polar_carries_singular_values():
    m = np.array([[3.0, 1.0], [-1.0, 2.0]])
    pol = numlin.polar(m)
    assert np.allclose(pol.singular_values, np.linalg.svd(m, compute_uv=False))
    assert pol.min_singular_value == pol.singular_values[-1]
