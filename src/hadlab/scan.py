"""Exhaustive (or seeded-sampled) enumeration and classification of square
corner/complement splits of a Hadamard matrix.

Every split gets the full battery: exact Gram identities, closed-form
applicability, closed form vs. generic polar cross-check, sign-pattern
verdict for the complement, norm bounds, and the complementarity
identities.  Summaries are deterministic folds over the lexicographic
enumeration order, so two scans of the same input are byte-identical.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from . import numlin
from .ahp import ZERO_TOL, AhpVerdict, _verdict
from .bounds import BoundReport, corner_bounds
from .complement import (
    ComplementFactors,
    DetComplementReport,
    GramIdentity,
    InapplicableSplitError,
    SingularBlockError,
    SvComplementReport,
    complement_polar,
    det_complement_check,
    gram_identities_check,
    singular_value_complement_check,
)
from .matcore import (
    PartitionedHadamard,
    _rows_orthogonal,
    as_sign_matrix,
    is_hadamard,
    matrix_digest,
)

CATEGORY_AHP = "AHP"
CATEGORY_NOT_AHP = "NotAHP"
CATEGORY_SINGULAR_A = "singularA"
CATEGORY_INAPPLICABLE = "inapplicable"

#: Largest C(N, r)^2 that ``scan`` enumerates without an explicit ``limit``.
MAX_EXHAUSTIVE_SPLITS = 10**7


def _unrank_combination(index: int, n: int, r: int) -> tuple[int, ...]:
    """The index-th r-subset of range(n) in lexicographic order."""
    combo = []
    start = 0
    remaining = index
    for pos in range(r):
        for v in range(start, n):
            block = math.comb(n - v - 1, r - pos - 1)
            if remaining < block:
                combo.append(v)
                start = v + 1
                break
            remaining -= block
        else:
            raise ValueError("combination index out of range")
    return tuple(combo)


def enumerate_splits(
    h, r: int, limit: int | None = None, seed: int | None = None
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Yield (rows_a, cols_a) subset pairs in lexicographic order.

    With ``limit`` below the total count, yields a reproducible
    pseudo-random sample of exactly ``limit`` distinct pairs (still sorted
    lexicographically).
    """
    h = as_sign_matrix(h)
    n = h.shape[0]
    if not 1 <= r < n:
        raise ValueError(f"need 1 <= r < {n}, got r={r}")
    per_axis = math.comb(n, r)
    total = per_axis * per_axis
    if limit is None or limit >= total:
        cols_list = list(combinations(range(n), r))
        for rows in combinations(range(n), r):
            for cols in cols_list:
                yield rows, cols
        return
    if limit < 0:
        raise ValueError("limit must be >= 0")
    rng = random.Random(seed)
    picks: set[int] = set()
    while len(picks) < limit:
        picks.add(rng.randrange(total))
    for index in sorted(picks):
        yield _unrank_combination(index // per_axis, n, r), _unrank_combination(
            index % per_axis, n, r
        )


@dataclass(frozen=True, eq=False)
class ScanRecord:
    """Everything measured about a single split."""

    rows_a: tuple[int, ...]
    cols_a: tuple[int, ...]
    gram_ok: bool
    a_invertible: bool
    a_is_hadamard: bool
    a_norm: float
    applicable: bool
    einf: float | None
    cross_dev: float | None
    verdict: AhpVerdict
    factors: ComplementFactors | None
    bound_report: BoundReport | None
    sv_check: SvComplementReport | None
    det_check: DetComplementReport | None
    gram: tuple[GramIdentity, ...]
    reason: str | None = None  # complement_polar's refusal, if it refused

    @property
    def category(self) -> str:
        if not self.a_invertible or self.verdict.status == "Singular":
            return CATEGORY_SINGULAR_A
        if not self.applicable:
            return CATEGORY_INAPPLICABLE
        return CATEGORY_AHP if self.verdict.is_ahp else CATEGORY_NOT_AHP

    def to_json(self) -> dict:
        out: dict = {
            "rows": [i + 1 for i in self.rows_a],
            "cols": [j + 1 for j in self.cols_a],
            "category": self.category,
            "gramOk": self.gram_ok,
            "aInvertible": self.a_invertible,
            "aIsHadamard": self.a_is_hadamard,
            "aNorm": self.a_norm,
            "applicable": self.applicable,
            "verdict": self.verdict.to_json(),
        }
        if self.einf is not None:
            out["einf"] = self.einf
        if self.cross_dev is not None:
            out["crossDeviation"] = self.cross_dev
        if self.bound_report is not None:
            out["bounds"] = self.bound_report.to_json()
        if self.sv_check is not None:
            out["svComplement"] = self.sv_check.to_json()
        if self.det_check is not None:
            out["detComplement"] = self.det_check.to_json()
        return out


def classify_split(
    h, rows_a, cols_a, zero_tol: float = ZERO_TOL, *, _hadamard: bool | None = None
) -> ScanRecord:
    """classify_part on one split of ``h``; the entry point ``scan`` calls per split.

    ``_hadamard`` is for ``scan`` alone: it passes is_hadamard(h) for the ``h``
    and the enumerated index tuples it has already validated, and the part is
    built without checking them again.
    """
    if _hadamard is None:
        part = PartitionedHadamard(h, tuple(rows_a), tuple(cols_a))
    else:
        part = PartitionedHadamard._from_checked(h, rows_a, cols_a, _hadamard)
    return classify_part(part, zero_tol)


def classify_part(part: PartitionedHadamard, zero_tol: float = ZERO_TOL) -> ScanRecord:
    """Run every check on one split.  Failures land in the record; nothing is
    raised for mathematically degenerate splits.

    When the Gram identities pass, complement_polar alone decides whether
    the closed form applies; its refusal is kept as ``reason``.  Every check
    reads the part's one SVD of A and one polar decomposition of D.
    """
    n, r = part.n, part.r
    d = n - r
    rn = math.sqrt(n)
    gram = tuple(gram_identities_check(part))
    gram_ok = all(g.passed for g in gram)
    svd_a = part.svd_a
    a_norm = float(svd_a.singular_values[0])
    a_invertible = not svd_a.singular
    a_is_hadamard = _rows_orthogonal(part.a)
    pol_d = part.polar_d
    verdict = _verdict(part.d, pol_d, zero_tol)
    factors = None
    cross_dev = None
    reason = None
    if gram_ok:
        try:
            factors = complement_polar(part)
        except (SingularBlockError, InapplicableSplitError) as exc:
            reason = str(exc)
    if factors is not None:
        cross_dev = max(
            numlin.max_abs(factors.u - pol_d.u), numlin.max_abs(factors.t - pol_d.t)
        )
        einf = factors.einf
    else:
        einf = None if pol_d.singular else numlin.max_abs(part.d - rn * pol_d.u)
    bound_report = None
    if gram_ok and r <= d:
        # c = ||Pol(A) - A/sqrt(N)||_inf, from the same SVD of A
        c = numlin.max_abs(svd_a.polar_factor - part.a / rn) if a_invertible else None
        bound_report = corner_bounds(r, n, a_is_hadamard, c, a_invertible).with_actual_einf(einf)
    sv_check = singular_value_complement_check(part) if r <= d else None
    det_check = det_complement_check(part)
    return ScanRecord(
        rows_a=part.rows_a,
        cols_a=part.cols_a,
        gram_ok=gram_ok,
        a_invertible=a_invertible,
        a_is_hadamard=a_is_hadamard,
        a_norm=a_norm,
        applicable=factors is not None,
        einf=einf,
        cross_dev=cross_dev,
        verdict=verdict,
        factors=factors,
        bound_report=bound_report,
        sv_check=sv_check,
        det_check=det_check,
        gram=gram,
        reason=reason,
    )


@dataclass(frozen=True, eq=False)
class ScanSummary:
    """Deterministic aggregate of a full enumeration or a seeded sample."""

    matrix_name: str
    n: int
    r: int
    seed: int | None
    total_splits: int
    counts: dict[str, int]
    worst_einf: float | None
    worst_einf_rows: tuple[int, ...]
    worst_einf_cols: tuple[int, ...]
    counterexamples: tuple[dict, ...]

    def to_json(self) -> dict:
        worst = None
        if self.worst_einf is not None:
            worst = {
                "value": self.worst_einf,
                "rows": [i + 1 for i in self.worst_einf_rows],
                "cols": [j + 1 for j in self.worst_einf_cols],
            }
        return {
            "matrix": self.matrix_name,
            "N": self.n,
            "r": self.r,
            "seed": self.seed,
            "counts": {"total": self.total_splits, **self.counts},
            "worstEinf": worst,
            "counterexamples": list(self.counterexamples),
        }


def scan(
    h,
    r: int,
    limit: int | None = None,
    seed: int = 0,
    matrix_name: str | None = None,
    zero_tol: float = ZERO_TOL,
    *,
    _hadamard: bool | None = None,
) -> ScanSummary:
    """Fold classify_split over the enumeration.

    ``h`` is validated once per scan, as a sign matrix and by one exact
    is_hadamard; no split checks it again.  ``_hadamard`` is for a caller
    that has already decided is_hadamard(h) (``hadlab scan`` after
    require_hadamard): its verdict replaces the check.  The splits of a
    Hadamard ``h`` share the all-pass Gram identities, and the splits of any
    other square sign matrix compute theirs as a standalone part does.

    The summary is an order-independent fold (counts and max-reductions)
    over records taken in lexicographic order, so the result does not depend
    on evaluation strategy.

    Without ``limit``, a scan of more than MAX_EXHAUSTIVE_SPLITS splits is
    refused with ValueError before anything is enumerated; a ``limit`` of at
    least the total enumerates every split.
    """
    h = as_sign_matrix(h)
    n = h.shape[0]
    per_axis = math.comb(n, r)
    total_splits = per_axis * per_axis
    if limit is None and total_splits > MAX_EXHAUSTIVE_SPLITS:
        raise ValueError(
            f"exhaustive scan of {total_splits} splits exceeds {MAX_EXHAUSTIVE_SPLITS}; "
            f"sample with --limit, or give a limit >= {total_splits} to enumerate all"
        )
    hadamard = is_hadamard(h) if _hadamard is None else _hadamard
    sampled = limit is not None and limit < total_splits
    counts = {
        CATEGORY_AHP: 0,
        CATEGORY_NOT_AHP: 0,
        CATEGORY_SINGULAR_A: 0,
        CATEGORY_INAPPLICABLE: 0,
    }
    total = 0
    worst: float | None = None
    worst_rows: tuple[int, ...] = ()
    worst_cols: tuple[int, ...] = ()
    counterexamples: list[dict] = []
    for rows_a, cols_a in enumerate_splits(h, r, limit=limit, seed=seed if sampled else None):
        record = classify_split(h, rows_a, cols_a, zero_tol=zero_tol, _hadamard=hadamard)
        total += 1
        counts[record.category] += 1
        if record.einf is not None and (worst is None or record.einf > worst):
            worst = record.einf
            worst_rows, worst_cols = record.rows_a, record.cols_a
        if record.verdict.status == "NotAHP":
            failure = record.verdict.failure
            counterexamples.append(
                {
                    "rows": [i + 1 for i in record.rows_a],
                    "cols": [j + 1 for j in record.cols_a],
                    "reason": failure.kind if failure is not None else "hessian",
                }
            )
    return ScanSummary(
        matrix_name=matrix_name if matrix_name is not None else matrix_digest(h),
        n=n,
        r=r,
        seed=seed if sampled else None,
        total_splits=total,
        counts=counts,
        worst_einf=worst,
        worst_einf_rows=worst_rows,
        worst_einf_cols=worst_cols,
        counterexamples=tuple(counterexamples),
    )
