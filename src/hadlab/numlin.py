"""Dense SVD, polar decomposition, PSD square root, and PSD testing.

These are the numerical oracles the closed-form results are verified
against.  Factorizations are delegated to LAPACK through numpy, which is
deterministic for identical input on a given platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

ORTHO_TOL = 1e-9
SYM_TOL = 1e-9
RECON_TOL = 1e-9
PSD_TOL = 1e-9
#: sigma_min <= SINGULAR_RTOL * sigma_max flags a matrix as numerically singular.
SINGULAR_RTOL = 1e-10


def max_abs(m) -> float:
    """Largest entry magnitude, max_ij |m_ij| (0 for an empty matrix)."""
    m = np.asarray(m)
    return float(np.abs(m).max()) if m.size else 0.0


def is_singular(singular_values) -> bool:
    """The one singularity predicate: sigma_min <= SINGULAR_RTOL * sigma_max,
    for singular values in descending order (an empty spectrum is singular)."""
    s = singular_values
    return not s.size or bool(s[-1] <= SINGULAR_RTOL * s[0])


@dataclass(frozen=True, eq=False)
class Svd:
    """Factors of m = v @ diag(singular_values) @ w.T with v, w orthogonal
    (orthonormal columns in the rectangular case), singular values descending."""

    v: np.ndarray
    singular_values: np.ndarray
    w: np.ndarray

    @property
    def singular(self) -> bool:
        return is_singular(self.singular_values)

    @property
    def polar_factor(self) -> np.ndarray:
        """The orthogonal polar factor v @ w.T (unique when not singular)."""
        return self.v @ self.w.T


def svd(m) -> Svd:
    m = np.asarray(m, dtype=np.float64)
    v, s, wh = np.linalg.svd(m, full_matrices=False)
    return Svd(v=v, singular_values=s, w=wh.T)


@dataclass(frozen=True, eq=False)
class PolarDecomposition:
    """m = u @ t with u orthogonal and t symmetric positive semidefinite.

    ``singular`` flags inputs whose orthogonal factor is not uniquely
    determined; downstream sign-pattern checks treat that as its own verdict
    rather than an error.  ``singular_values`` (descending) are those of m,
    so callers need no second factorization for its spectrum.
    """

    u: np.ndarray
    t: np.ndarray
    residual: float
    min_singular_value: float
    singular: bool
    singular_values: np.ndarray


def polar(m) -> PolarDecomposition:
    """Polar decomposition of a square matrix via its SVD: for
    m = v diag(s) w^t the orthogonal factor is v w^t and t = w diag(s) w^t."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("polar decomposition requires a square matrix")
    f = svd(m)
    u = f.polar_factor
    s = f.singular_values
    t = (f.w * s) @ f.w.T
    t = (t + t.T) / 2
    return PolarDecomposition(
        u=u,
        t=t,
        residual=max_abs(m - u @ t),
        min_singular_value=float(s[-1]) if s.size else 0.0,
        singular=f.singular,
        singular_values=s,
    )


def polar_newton(m, tol: float = 1e-13, max_iter: int = 100) -> np.ndarray:
    """Orthogonal polar factor by Newton iteration x <- (x + x^-T)/2.

    Independent of the SVD route; used to cross-check uniqueness.  Requires an
    invertible input.
    """
    x = np.asarray(m, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError("polar decomposition requires a square matrix")
    for _ in range(max_iter):
        x_next = (x + np.linalg.inv(x).T) / 2
        if max_abs(x_next - x) < tol:
            return x_next
        x = x_next
    raise np.linalg.LinAlgError("Newton polar iteration did not converge")


def psd_sqrt(p, sym_tol: float = SYM_TOL, psd_tol: float = PSD_TOL) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues in [-psd_tol, 0) are clamped to zero; larger negative
    eigenvalues or asymmetry beyond ``sym_tol`` raise.
    """
    p = np.asarray(p, dtype=np.float64)
    asym = max_abs(p - p.T)
    if asym > sym_tol:
        raise ValueError(f"matrix is not symmetric (asymmetry {asym:.3g} > {sym_tol:.3g})")
    sym = (p + p.T) / 2
    evals, vecs = np.linalg.eigh(sym)
    if evals.size and evals[0] < -psd_tol:
        raise ValueError(f"matrix is not PSD (min eigenvalue {evals[0]:.3g})")
    root = vecs @ np.diag(np.sqrt(np.clip(evals, 0.0, None))) @ vecs.T
    return (root + root.T) / 2


class PsdReport(NamedTuple):
    is_psd: bool
    min_eigenvalue: float
    asymmetry: float


def is_psd(m, tol: float = PSD_TOL) -> PsdReport:
    """Symmetrize as (m + m^t)/2 and test the smallest eigenvalue against -tol."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("PSD test requires a square matrix")
    asym = max_abs(m - m.T)
    min_eig = float(np.linalg.eigvalsh((m + m.T) / 2)[0])
    return PsdReport(is_psd=min_eig >= -tol, min_eigenvalue=min_eig, asymmetry=asym)
