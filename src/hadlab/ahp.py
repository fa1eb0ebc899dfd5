"""Almost-Hadamard verification.

A square real H is almost Hadamard (AHM) when U = H/sqrt(N) is orthogonal
and locally maximizes the entrywise 1-norm on the orthogonal group, which
holds iff every U_ij is nonzero and the symmetrized U^t S is PSD, where
S = sgn(U).  A sign matrix S is an almost Hadamard sign pattern (AHP) when
it is the entrywise sign of some AHM; for invertible S this reduces to
Pol(S) having no zero entries and signs equal to S, the PSD condition being
automatic since Pol(S)^t S = sqrt(S^t S).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numlin
from .matcore import as_sign_matrix

AHP = "AHP"
NOT_AHP = "NotAHP"
SINGULAR = "Singular"

ZERO_TOL = 1e-8
#: entries in (ZERO_TOL, ZERO_BAND_FACTOR * ZERO_TOL] count as zeros but are
#: flagged borderline
ZERO_BAND_FACTOR = 100.0
STRICT_TOL = 1e-9


class NotOrthogonalError(ValueError):
    """H/sqrt(N) is not orthogonal, so H is not even an AHM candidate."""


@dataclass(frozen=True)
class AhpFailure:
    """First witness against the sign-pattern conditions, row-major order.

    kind is "zero_entry" (|U_ij| below the zero band) or "sign_mismatch"
    (sgn(U_ij) differs from S_ij).  Coordinates are 0-based here and 1-based
    in JSON.
    """

    kind: str
    row: int
    col: int
    u_value: float
    s_value: int | None = None
    borderline: bool = False

    def to_json(self) -> dict:
        out = {"kind": self.kind, "row": self.row + 1, "col": self.col + 1, "uValue": self.u_value}
        if self.s_value is not None:
            out["sValue"] = self.s_value
        if self.borderline:
            out["borderline"] = True
        return out


@dataclass(frozen=True)
class AhpVerdict:
    status: str
    failure: AhpFailure | None
    min_hessian_eigenvalue: float | None
    strict: bool

    @property
    def is_ahp(self) -> bool:
        return self.status == AHP

    def to_json(self) -> dict:
        out: dict = {"status": self.status}
        if self.failure is not None:
            out["failure"] = self.failure.to_json()
        if self.min_hessian_eigenvalue is not None:
            out["minHessianEigenvalue"] = self.min_hessian_eigenvalue
        out["strict"] = self.strict
        return out


def one_norm(m) -> float:
    """Entrywise 1-norm, sum_ij |m_ij|."""
    return float(np.sum(np.abs(np.asarray(m, dtype=np.float64))))


def kn_matrix(n: int) -> np.ndarray:
    """The order-n almost Hadamard matrix with diagonal (2-n)/sqrt(n) and
    off-diagonal 2/sqrt(n); defined for n >= 3."""
    if n < 3:
        raise ValueError("kn_matrix requires order >= 3")
    k = np.full((n, n), 2.0)
    np.fill_diagonal(k, 2.0 - n)
    k /= np.sqrt(n)
    k.setflags(write=False)
    return k


def _first_violation(u: np.ndarray, s: np.ndarray, zero_tol: float) -> AhpFailure | None:
    """First entry, in row-major order, where |U_ij| falls in the zero band
    or sgn(U_ij) differs from S_ij; a zero-band hit wins at the same entry."""
    band_hi = ZERO_BAND_FACTOR * zero_tol
    hits = np.flatnonzero((np.abs(u) <= band_hi) | ((u > 0) != (s > 0)))
    if not hits.size:
        return None
    i, j = divmod(int(hits[0]), u.shape[1])
    value = float(u[i, j])
    if abs(value) <= band_hi:
        return AhpFailure(
            kind="zero_entry", row=i, col=j, u_value=value, borderline=abs(value) > zero_tol
        )
    return AhpFailure(kind="sign_mismatch", row=i, col=j, u_value=value, s_value=int(s[i, j]))


def verdict_from_polar(
    s, pol: numlin.PolarDecomposition, zero_tol: float = ZERO_TOL
) -> AhpVerdict:
    """Classify a sign matrix given the polar decomposition of itself.

    Shared with the scanner so a polar factor computed once is not redone.
    """
    return _verdict(as_sign_matrix(s), pol, zero_tol)


def _verdict(s: np.ndarray, pol: numlin.PolarDecomposition, zero_tol: float) -> AhpVerdict:
    """verdict_from_polar for a sign matrix ``s`` its caller has already validated."""
    if pol.singular:
        return AhpVerdict(status=SINGULAR, failure=None, min_hessian_eigenvalue=None, strict=False)
    u = pol.u
    hess = u.T @ s
    report = numlin.is_psd(hess)
    if report.min_eigenvalue < -numlin.PSD_TOL:
        # U^t S = sqrt(S^t S) >= 0 holds identically for U = Pol(S)
        raise ArithmeticError(
            f"polar identity violated: min eig of U^t S is {report.min_eigenvalue:.3g}"
        )
    failure = _first_violation(u, s, zero_tol)
    return AhpVerdict(
        status=AHP if failure is None else NOT_AHP,
        failure=failure,
        min_hessian_eigenvalue=report.min_eigenvalue,
        strict=report.min_eigenvalue > STRICT_TOL,
    )


def ahp_check(s, zero_tol: float = ZERO_TOL) -> AhpVerdict:
    """Is the sign matrix an almost Hadamard sign pattern?

    Singular inputs get status "Singular" (their polar part is not unique),
    never "NotAHP".
    """
    s = as_sign_matrix(s)
    if s.shape[0] != s.shape[1]:
        raise ValueError("AHP check requires a square matrix")
    return _verdict(s, numlin.polar(s.astype(np.float64)), zero_tol)


def ahm_check(
    h,
    zero_tol: float = ZERO_TOL,
    ortho_tol: float = numlin.ORTHO_TOL,
    psd_tol: float = numlin.PSD_TOL,
) -> AhpVerdict:
    """Is H almost Hadamard, i.e. does U = H/sqrt(N) locally maximize the
    1-norm on the orthogonal group?

    Raises NotOrthogonalError when U is not orthogonal.  Unlike the
    sign-pattern check, the PSD condition on U^t S is a real decision input
    here.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] < 1:
        raise ValueError("AHM check requires a square matrix of order >= 1")
    n = h.shape[0]
    u = h / np.sqrt(n)
    ortho_dev = numlin.max_abs(u.T @ u - np.eye(n))
    if ortho_dev > ortho_tol:
        raise NotOrthogonalError(f"H/sqrt(N) is not orthogonal (deviation {ortho_dev:.3g})")
    s = np.where(u > 0, 1, -1).astype(np.int64)
    # with S = sgn(U) the only possible witness is a zero entry
    failure = _first_violation(u, s, zero_tol)
    if failure is not None:
        return AhpVerdict(status=NOT_AHP, failure=failure, min_hessian_eigenvalue=None, strict=False)
    report = numlin.is_psd(u.T @ s)
    status = AHP if report.min_eigenvalue >= -psd_tol else NOT_AHP
    return AhpVerdict(
        status=status,
        failure=None,
        min_hessian_eigenvalue=report.min_eigenvalue,
        strict=report.min_eigenvalue > STRICT_TOL,
    )
