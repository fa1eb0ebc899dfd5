"""Upper bounds on ||E||_inf for the complement correction matrix, and the
sufficient conditions under which the complementary block is guaranteed AHP.

The bounds never decide AHP status on their own; they are advisory and are
always compared against the exact sign-pattern check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import numlin
from .complement import SingularBlockError
from .matcore import as_sign_matrix, is_hadamard


def einf_bound_hadamard(r: int, n: int) -> float:
    """||E||_inf <= r sqrt(r) / (sqrt(r) + sqrt(N)), valid when A is Hadamard."""
    return r * math.sqrt(r) / (math.sqrt(r) + math.sqrt(n))


def einf_bound_from_c(r: int, n: int, c: float) -> float:
    """||E||_inf <= r^2 c sqrt(N) / (N - r^2) for r^2 < N, with
    c = ||Pol(A) - A/sqrt(N)||_inf."""
    if r * r >= n:
        raise ValueError(f"requires r^2 < N, got r={r}, N={n}")
    return r * r * c * math.sqrt(n) / (n - r * r)


def einf_bound_generic(r: int, n: int) -> float:
    """||E||_inf <= r^2 (1 + sqrt(N)) / (N - r^2) for r^2 < N."""
    if r * r >= n:
        raise ValueError(f"requires r^2 < N, got r={r}, N={n}")
    return r * r * (1 + math.sqrt(n)) / (n - r * r)


def polar_gap(a, n: int) -> float:
    """c = ||Pol(A) - A/sqrt(N)||_inf for an invertible sign matrix A.

    The value depends on N; reports record which N it was computed at.
    """
    a = as_sign_matrix(a).astype(np.float64)
    pol = numlin.polar(a)
    if pol.singular:
        raise SingularBlockError("Pol(A) is not unique for singular A")
    return numlin.max_abs(pol.u - a / math.sqrt(n))


def hadamard_case_cubic_remark(r: int, n: int) -> float:
    """The weaker Hadamard-case estimate (r sqrt(rN) - r^2) / (N - r^2),
    below 1 exactly when N > r^3."""
    if r * r >= n:
        raise ValueError(f"requires r^2 < N, got r={r}, N={n}")
    return (r * math.sqrt(r * n) - r * r) / (n - r * r)


def threshold_hadamard(r: int) -> float:
    """D is AHP when A is Hadamard and N > r (r-1)^2."""
    return float(r * (r - 1) ** 2)


def threshold_from_x(r: int, x: float) -> float:
    """D is AHP when N > (r^2/4) (x + sqrt(x^2 + 4))^2 with x = r c."""
    return (r * r / 4.0) * (x + math.sqrt(x * x + 4)) ** 2


def threshold_generic(r: int) -> float:
    """D is AHP when A is invertible and N > (r^2/4) (r + sqrt(r^2 + 8))^2."""
    return (r * r / 4.0) * (r + math.sqrt(r * r + 8)) ** 2


def critical_order(threshold: float) -> int:
    """Smallest Hadamard-feasible order (multiple of 4) strictly above the
    threshold."""
    return max(4, 4 * math.floor(threshold / 4) + 4)


@dataclass(frozen=True)
class ThresholdCheck:
    """One sufficient condition: N must strictly exceed ``threshold``."""

    condition: int
    applicable: bool
    threshold: float | None = None
    passes: bool | None = None
    critical_n: int | None = None

    def to_json(self) -> dict:
        out: dict = {"condition": self.condition, "applicable": self.applicable}
        if self.threshold is not None:
            out["threshold"] = self.threshold
            out["criticalN"] = self.critical_n
        if self.passes is not None:
            out["passes"] = self.passes
        return out


@dataclass(frozen=True)
class BoundReport:
    """Bounds and thresholds for one (r, N) pair, optionally tied to a
    concrete corner block and the measured ||E||_inf of its split.

    Inapplicable bounds are None and absent from JSON, never zero.
    """

    r: int
    n: int
    a_is_hadamard: bool
    c: float | None = None
    bound1: float | None = None
    bound2: float | None = None
    bound3: float | None = None
    actual_einf: float | None = None
    thresholds: tuple[ThresholdCheck, ...] = ()

    def applicable_bounds(self) -> list[float]:
        return [b for b in (self.bound1, self.bound2, self.bound3) if b is not None]

    def any_threshold_passes(self) -> bool:
        return any(t.applicable and t.passes for t in self.thresholds)

    def with_actual_einf(self, einf: float | None) -> "BoundReport":
        return replace(self, actual_einf=einf)

    def to_json(self) -> dict:
        out: dict = {"r": self.r, "N": self.n, "aIsHadamard": self.a_is_hadamard}
        for key, value in [
            ("c", self.c),
            ("bound1", self.bound1),
            ("bound2", self.bound2),
            ("bound3", self.bound3),
            ("actualEinf", self.actual_einf),
        ]:
            if value is not None:
                out[key] = value
        out["thresholds"] = [t.to_json() for t in self.thresholds]
        return out


def _threshold_checks(
    r: int, n: int, a_is_hadamard: bool, c: float | None, a_invertible: bool
) -> tuple[ThresholdCheck, ...]:
    def check(condition: int, applicable: bool, threshold: float) -> ThresholdCheck:
        return ThresholdCheck(
            condition=condition,
            applicable=applicable,
            threshold=threshold,
            passes=(n > threshold) if applicable else None,
            critical_n=critical_order(threshold),
        )

    return (
        check(1, a_is_hadamard, threshold_hadamard(r)),
        check(2, a_invertible, threshold_from_x(r, r * c))
        if c is not None
        else ThresholdCheck(condition=2, applicable=False),
        check(3, a_invertible, threshold_generic(r)),
    )


def corner_bounds(
    r: int, n: int, a_is_hadamard: bool, c: float | None, a_invertible: bool
) -> BoundReport:
    """Every ||E||_inf bound and AHP threshold from the facts about the
    corner: bound1 needs A Hadamard, bound2 needs c (A invertible) and
    r^2 < N, bound3 needs r^2 < N.  The body shared by bound_e_inf,
    ahp_thresholds and the scanner, which passes facts it already has."""
    return BoundReport(
        r=r,
        n=n,
        a_is_hadamard=a_is_hadamard,
        c=c,
        bound1=einf_bound_hadamard(r, n) if a_is_hadamard else None,
        bound2=einf_bound_from_c(r, n, c) if (c is not None and r * r < n) else None,
        bound3=einf_bound_generic(r, n) if r * r < n else None,
        thresholds=_threshold_checks(r, n, a_is_hadamard, c, a_invertible),
    )


def _square_block(a) -> np.ndarray:
    a = as_sign_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("A must be square")
    return a


def bound_e_inf(a, n: int) -> BoundReport:
    """Evaluate every applicable ||E||_inf bound for a concrete corner block.

    Requires r <= N - r.  bound1 needs A Hadamard; bound2 needs A invertible
    and r^2 < N; bound3 needs r^2 < N.
    """
    a = _square_block(a)
    r = a.shape[0]
    if r > n - r:
        raise ValueError(f"requires r <= d, got r={r}, d={n - r}")
    return ahp_thresholds(r, n, a)


def ahp_thresholds(r: int, n: int, a=None, a_is_hadamard: bool | None = None) -> BoundReport:
    """Evaluate the three sufficient AHP conditions for the complement.

    With a concrete block ``a``, applicability is decided from the block
    itself (conditions 2 and 3 need it invertible, condition 1 needs it
    Hadamard).  Without one, ``a_is_hadamard`` asserts condition 1's
    hypothesis and condition 2 is unavailable.
    """
    if a is None:
        # arithmetic-only mode: conditions read as pure (r, N) facts
        return corner_bounds(r, n, bool(a_is_hadamard), None, a_invertible=True)
    a = _square_block(a)
    if a.shape[0] != r:
        raise ValueError(f"A is {a.shape[0]}x{a.shape[0]} but r={r}")
    try:
        c = polar_gap(a, n)
    except SingularBlockError:
        c = None
    return corner_bounds(r, n, is_hadamard(a), c, a_invertible=c is not None)
