"""Closed-form polar decomposition of the complementary block of a Hadamard
matrix, and the complementarity identities tying the two diagonal blocks.

For H = [[A, B], [C, D]] Hadamard of order N with A (r x r) invertible and
||A|| < sqrt(N), the polar decomposition D = U T is

    U = (D - E) / sqrt(N)          T = sqrt(N) I - S
    E = C X_A B                    S = B^t Y_A B

with X_A = (sqrt(N) I + sqrt(A^t A))^-1 Pol(A)^t and
Y_A = (sqrt(N) I + sqrt(A A^t))^-1.  Every inverse here is taken on the
eigenvalues of the PSD square roots (1 / (sqrt(N) + s_i)), never by a
general LU solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numlin
from .matcore import GramIdentity, PartitionedHadamard, real_matrix_to_json

#: Required agreement between the closed form and the SVD oracle.
CROSS_TOL = 1e-8
#: Required agreement between the two internal computation paths of X_A, Y_A.
XY_AGREE_TOL = 1e-9
#: Refusal margin at the ||A|| = sqrt(N) boundary.
NORM_MARGIN = 1e-9


class SingularBlockError(ValueError):
    """The corner block A is numerically singular."""


class InapplicableSplitError(ValueError):
    """The closed form does not apply: ||A|| >= sqrt(N).

    Callers can still take the generic polar decomposition of D directly.
    """

    def __init__(self, norm_a: float, order: int):
        super().__init__(
            f"closed form inapplicable: ||A|| = {norm_a:.6g} >= sqrt({order})"
        )
        self.norm_a = norm_a
        self.order = order


def _require_invertible(f: numlin.Svd) -> None:
    if f.singular:
        raise SingularBlockError(f"A is singular (min sigma {f.singular_values[-1]:.3g})")


def xa_ya(a, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The pair X_A = (sqrt(N) I + sqrt(A^t A))^-1 Pol(A)^t and
    Y_A = (sqrt(N) I + sqrt(A A^t))^-1 attached to an invertible square A.

    Computed from the SVD of A and, independently, from the
    eigendecompositions of the Gram matrices; the two paths must agree to
    XY_AGREE_TOL.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("A must be square")
    r = a.shape[0]
    if n <= r:
        raise ValueError(f"order N={n} must exceed the corner size r={r}")
    f = numlin.svd(a)
    _require_invertible(f)
    return _xa_ya(f, a, n)


def _xa_ya(f: numlin.Svd, a: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """X_A, Y_A from the SVD ``f`` of the invertible float matrix ``a``,
    checked against the Gram-eigendecomposition path."""
    s = f.singular_values
    rn = np.sqrt(n)
    inv = 1.0 / (rn + s)
    # m * x scales column j by x_j: the product m @ diag(x), without the diagonal matrix
    xa = (f.w * inv) @ f.v.T
    ya = (f.v * inv) @ f.v.T

    # second path: eigendecompositions of A^t A and A A^t
    evals_c, wc = np.linalg.eigh(a.T @ a)
    sc = np.sqrt(np.clip(evals_c, 0.0, None))
    pol_t = (wc * (1.0 / sc)) @ wc.T @ a.T
    xa2 = (wc * (1.0 / (rn + sc))) @ wc.T @ pol_t
    evals_r, vr = np.linalg.eigh(a @ a.T)
    sr = np.sqrt(np.clip(evals_r, 0.0, None))
    ya2 = (vr * (1.0 / (rn + sr))) @ vr.T
    dev = max(numlin.max_abs(xa - xa2), numlin.max_abs(ya - ya2))
    if dev > XY_AGREE_TOL:
        raise ArithmeticError(
            f"X_A/Y_A computation paths disagree by {dev:.3g} (ill-conditioned A)"
        )
    return xa, ya


@dataclass(frozen=True, eq=False)
class ComplementFactors:
    """All factors produced by the closed form for one split."""

    xa: np.ndarray
    ya: np.ndarray
    e: np.ndarray
    s: np.ndarray
    u: np.ndarray
    t: np.ndarray
    norm_a: float

    @property
    def einf(self) -> float:
        return numlin.max_abs(self.e)

    def to_json(self) -> dict:
        return {
            "applicable": True,
            "normA": self.norm_a,
            "einf": self.einf,
            "XA": real_matrix_to_json(self.xa),
            "YA": real_matrix_to_json(self.ya),
            "E": real_matrix_to_json(self.e),
            "S": real_matrix_to_json(self.s),
            "U": real_matrix_to_json(self.u),
            "T": real_matrix_to_json(self.t),
        }


def complement_polar(part: PartitionedHadamard) -> ComplementFactors:
    """Closed-form polar decomposition of the complementary block D.

    Requires the whole matrix to be Hadamard (decided by the part's exact
    Gram identities), A invertible, and ||A|| < sqrt(N); raises ValueError /
    SingularBlockError / InapplicableSplitError otherwise.  At the boundary
    ||A|| = sqrt(N) the operation refuses rather than extend the formula.
    X_A and Y_A come from the part's shared SVD of A.
    """
    if not all(g.passed for g in gram_identities_check(part)):
        raise ValueError("matrix is not Hadamard")
    n = part.n
    rn = np.sqrt(n)
    f = part.svd_a
    norm_a = float(f.singular_values[0])
    _require_invertible(f)
    if norm_a >= rn - NORM_MARGIN:
        raise InapplicableSplitError(norm_a, n)
    xa, ya = _xa_ya(f, part.a.astype(np.float64), n)
    b = part.b.astype(np.float64)
    c = part.c.astype(np.float64)
    d = part.d.astype(np.float64)
    e = c @ xa @ b
    s = b.T @ ya @ b
    s = (s + s.T) / 2
    u = (d - e) / rn
    t = rn * np.eye(n - part.r) - s
    return ComplementFactors(xa=xa, ya=ya, e=e, s=s, u=u, t=t, norm_a=norm_a)


# --- identity checks ----------------------------------------------------------


def gram_identities_check(part: PartitionedHadamard) -> list[GramIdentity]:
    """The four exact integer block Gram identities of H H^t = H^t H = N I
    (see PartitionedHadamard.gram)."""
    return list(part.gram)


@dataclass(frozen=True)
class SvComplementReport:
    """Singular values of A/sqrt(N) and D/sqrt(N) are identical up to d-r
    extra values of 1."""

    pairs: tuple[tuple[float, float], ...]
    removed_ones: int
    max_deviation: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "identity": "singular-value-complement",
            "pass": self.passed,
            "maxDeviation": self.max_deviation,
            "removedOnes": self.removed_ones,
            "pairs": [[x, y] for x, y in self.pairs],
        }


def singular_value_complement_check(part: PartitionedHadamard, tol: float = 1e-8) -> SvComplementReport:
    """Compare the singular-value multisets of the rescaled blocks A/sqrt(N)
    and D/sqrt(N), read from the part's shared spectra.  Requires r <= d."""
    n, r = part.n, part.r
    k = n - r
    if r > k:
        raise ValueError(f"requires r <= d, got r={r}, d={k}")
    rn = np.sqrt(n)
    sa = np.sort(part.svd_a.singular_values / rn)
    sd = np.sort(part.polar_d.singular_values / rn)
    expected = np.sort(np.concatenate([sa, np.ones(k - r)]))
    dev = numlin.max_abs(expected - sd)
    pairs = tuple((float(x), float(y)) for x, y in zip(expected[::-1], sd[::-1]))
    return SvComplementReport(pairs=pairs, removed_ones=k - r, max_deviation=dev, passed=dev <= tol)


@dataclass(frozen=True)
class DetComplementReport:
    """|det A| * N^((d-r)/2) = |det D| for complementary blocks."""

    det_a_abs: float
    det_d_abs: float
    scaled_lhs: float
    relative_deviation: float
    passed: bool

    def to_json(self) -> dict:
        """The determinants print as null past the float range (DECISIONS 9)."""
        return {
            "identity": "determinant-complement",
            "pass": self.passed,
            "maxDeviation": self.relative_deviation,
            "detAAbs": _finite_or_none(self.det_a_abs),
            "detDAbs": _finite_or_none(self.det_d_abs),
        }


def _finite_or_none(x: float) -> float | None:
    return x if math.isfinite(x) else None


def det_complement_check(part: PartitionedHadamard, rtol: float = 1e-6) -> DetComplementReport:
    """Verify |det A| * N^((d-r)/2) = |det D|, determinants computed as
    singular-value products of the part's shared spectra.

    The comparison runs in log space, sum log sigma_A + (d-r)/2 log N
    against sum log sigma_D, so it holds at orders where |det D| overflows a
    double; the relative deviation -expm1(-|difference|) equals
    |lhs - |det D|| / max(lhs, |det D|).  The reported determinants are the
    plain products, inf past the float range.

    A numerically singular block has exact determinant 0 (sign-matrix
    determinants are integers), and singular-value complementarity makes the
    two blocks singular together; that case passes as 0 = 0.
    """
    n, r = part.n, part.r
    k = n - r
    sv_a = part.svd_a.singular_values
    sv_d = part.polar_d.singular_values
    with np.errstate(over="ignore", divide="ignore"):
        det_a = float(np.prod(sv_a))
        det_d = float(np.prod(sv_d))
        log_lhs = float(np.sum(np.log(sv_a))) + (k - r) / 2 * math.log(n)
        log_d = float(np.sum(np.log(sv_d)))
        lhs = float(np.exp(log_lhs))
    if part.svd_a.singular or part.polar_d.singular:
        passed = part.svd_a.singular and part.polar_d.singular
        lhs, dev = (0.0, 0.0) if passed else (lhs, 1.0)
    else:
        dev = -math.expm1(-abs(log_lhs - log_d))
        passed = dev <= rtol
    return DetComplementReport(
        det_a_abs=det_a, det_d_abs=det_d, scaled_lhs=lhs, relative_deviation=dev, passed=passed
    )
