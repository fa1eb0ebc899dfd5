"""The benchmark's four workloads: their inputs, one call each, and the
checks on each call's output.

Every workload calls the library through module attributes looked up at call
time (``hadlab.scan``, ``hadlab.cli.main``), so the traced run's wrappers
see the calls.  Inputs come only from the run seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import warnings
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import hadlab
import hadlab.cli
import hadlab.matcore
from hadlab.complement import CROSS_TOL
from hadlab.numlin import ORTHO_TOL

#: A split is near the zero band when its polar factor's smallest |U_ij| is at
#: most this, i.e. 100 x the band edge ZERO_BAND_FACTOR * ZERO_TOL = 1e-6.
NEAR_BAND = 1e-4
PROPERTIES = ("applicable", "singularA", "not_ahp", "near_band")

#: Exhaustive scan(walsh(3), 4) at this commit.
W8_R4_COUNTS = {"AHP": 1680, "NotAHP": 1792, "singularA": 1428, "inapplicable": 0}
#: The paper's W8 4 x 4 counterexample (1-based rows/cols, an exact zero in U).
W8_R4_COUNTEREXAMPLE = {"rows": [1, 2, 3, 5], "cols": [1, 2, 3, 5], "reason": "zero_entry"}


@dataclass
class CallOutcome:
    """What the benchmark learned from one call, outside the timed part."""

    splits: int = 0
    records: int = 0
    props: Counter = field(default_factory=Counter)
    stdout_bytes: int = 0
    failure: str | None = None


def det3_sign(m) -> int:
    """Exact determinant of an integer 3 x 3 matrix."""
    (a, b, c), (d, e, f), (g, h, i) = (tuple(int(v) for v in row) for row in m)
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def invertible_corners(h, r: int, rng: random.Random):
    """Endless stream of (rows, cols) whose r x r corner of h is invertible,
    by rejection sampling."""
    n = h.shape[0]
    while True:
        rows = tuple(sorted(rng.sample(range(n), r)))
        cols = tuple(sorted(rng.sample(range(n), r)))
        if det3_sign(h[np.ix_(rows, cols)]) != 0:
            yield rows, cols


def split_props(category: str, applicable: bool, u) -> Counter:
    """Input properties of one split, from its ScanRecord's category,
    applicability and closed-form U (None when not applicable).  The record's
    cross_dev ties that U to the SVD oracle's within CROSS_TOL."""
    return Counter(
        applicable=bool(applicable),
        singularA=category == "singularA",
        not_ahp=category == "NotAHP",
        near_band=u is not None and float(np.min(np.abs(u))) <= NEAR_BAND,
    )


class _ScanWorkload:
    """Closed loop of scan() calls, each followed by JSON emission of the
    summary as ``hadlab scan`` does it."""

    scans = True
    exponent: int
    r: int
    limit: int | None

    def __init__(self, seed: int, workdir: str):
        self.h = hadlab.walsh(self.exponent)
        self.n = self.h.shape[0]
        self.rng = random.Random(seed)

    def warm_up(self) -> None:
        summary = hadlab.scan(self.h, self.r, limit=50, seed=0)
        hadlab.matcore.json_dumps(summary.to_json())

    def next_job(self):
        return self.rng.randrange(2**32)

    def run(self, job):
        summary = hadlab.scan(self.h, self.r, limit=self.limit, seed=job)
        return summary, hadlab.matcore.json_dumps(summary.to_json())

    def check(self, job, output, timed_splits) -> CallOutcome:
        summary, text = output
        out = CallOutcome(splits=summary.total_splits, records=len(timed_splits))
        for *_, facts in timed_splits:
            out.props.update(split_props(*facts))
        emitted = json.loads(text)
        if emitted["counts"]["total"] != summary.total_splits:
            out.failure = "emitted JSON disagrees with the summary"
        else:
            out.failure = self.check_summary(summary)
        return out

    def close(self) -> None:
        pass


class ScanW16R3(_ScanWorkload):
    """scan(walsh(4), 3) on a seeded sample of 2000 splits per call."""

    name = "scan-w16-r3"
    exponent, r, limit = 4, 3, 2000

    def check_summary(self, summary) -> str | None:
        if summary.total_splits != self.limit:
            return f"total {summary.total_splits} != sample size {self.limit}"
        if summary.counts["NotAHP"] != 0:
            return f"NotAHP = {summary.counts['NotAHP']}, expected 0"
        return None


class ScanW8R4(_ScanWorkload):
    """Exhaustive scan(walsh(3), 4), 4900 splits per call; the seed is unused
    by the library."""

    name = "scan-w8-r4"
    exponent, r, limit = 3, 4, None

    def check_summary(self, summary) -> str | None:
        if summary.counts != W8_R4_COUNTS or summary.total_splits != 4900:
            return f"counts {summary.counts} total {summary.total_splits} != {W8_R4_COUNTS} total 4900"
        if W8_R4_COUNTEREXAMPLE not in summary.counterexamples:
            return "the rows/cols {1,2,3,5} zero_entry counterexample is missing"
        return None


class SplitW256R3:
    """classify_split on walsh(8) for a stream of seeded invertible 3 x 3
    corners."""

    name = "split-w256-r3"
    scans = False
    r = 3

    def __init__(self, seed: int, workdir: str):
        self.h = hadlab.walsh(8)
        self.n = self.h.shape[0]
        self.corners = invertible_corners(self.h, self.r, random.Random(seed))
        self.warm_corner = next(invertible_corners(self.h, self.r, random.Random(f"warm-up {seed}")))

    def warm_up(self) -> None:
        hadlab.classify_split(self.h, *self.warm_corner)

    def next_job(self):
        return next(self.corners)

    def run(self, job):
        return hadlab.classify_split(self.h, *job)

    def check(self, job, record, timed_splits) -> CallOutcome:
        u = record.factors.u if record.factors is not None else None
        out = CallOutcome(splits=1, records=1, props=split_props(record.category, record.applicable, u))
        if record.category != "AHP":
            out.failure = f"category {record.category} at {job}"
        elif record.cross_dev is None or record.cross_dev > CROSS_TOL:
            out.failure = f"cross_dev {record.cross_dev} > {CROSS_TOL} at {job}"
        elif not all(g.passed for g in record.gram):
            out.failure = f"Gram identity failed at {job}"
        elif record.sv_check is None or not record.sv_check.passed:
            out.failure = f"singular-value identity failed at {job}"
        elif not record.det_check.passed:
            out.failure = f"determinant identity failed at {job}"
        return out

    def known_defect_probe(self) -> dict:
        """One untimed classify_split at N = 512, where the determinant
        identity's raw product overflows today."""
        h = hadlab.walsh(9)
        split = ((0, 1, 2), (0, 1, 2))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                record = hadlab.classify_split(h, *split)
                outcome = {"outcome": "returned", "category": record.category}
            except Exception as exc:  # the outcome is the finding, whatever it is
                outcome = {"outcome": type(exc).__name__, "message": str(exc)}
        warned = sorted({f"{w.category.__name__}: {w.message}" for w in caught})
        return {"N": 512, "split": split, **outcome, "warnings": warned}

    def close(self) -> None:
        pass


class CliComplementW128:
    """In-process ``hadlab complement <walsh(7) file> --rows .. --cols ..``
    with stdout captured in memory, on seeded invertible 3 x 3 corners."""

    name = "cli-complement-w128"
    scans = False
    r = 3

    def __init__(self, seed: int, workdir: str):
        h = hadlab.walsh(7)
        self.n = h.shape[0]
        os.makedirs(workdir, exist_ok=True)
        self.path = os.path.join(workdir, f"walsh7-{os.getpid()}.txt")
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(hadlab.serialize_sign_matrix(h))
        self.corners = invertible_corners(h, self.r, random.Random(seed))
        self.warm_corner = next(invertible_corners(h, self.r, random.Random(f"warm-up {seed}")))

    def _argv(self, corner) -> list[str]:
        rows, cols = corner
        return [
            "complement",
            self.path,
            "--rows",
            ",".join(str(i + 1) for i in rows),
            "--cols",
            ",".join(str(j + 1) for j in cols),
        ]

    def warm_up(self) -> None:
        self.run(self._argv(self.warm_corner))

    def next_job(self):
        return self._argv(next(self.corners))

    def run(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = hadlab.cli.main(argv)
        return code, buf.getvalue()

    def check(self, argv, output, timed_splits) -> CallOutcome:
        code, text = output
        out = CallOutcome(splits=1, records=1, stdout_bytes=len(text.encode()))
        if code != 0:
            out.failure = f"exit code {code} for {argv[2:]}"
            return out
        report = json.loads(text)
        status = report["verdict"]["status"]
        u = np.asarray(report["U"]["data"], dtype=np.float64).reshape(report["U"]["rows"], report["U"]["cols"])
        d = self.n - self.r
        out.props = Counter(
            applicable=bool(report["applicable"]),
            singularA=status == "Singular",
            not_ahp=status == "NotAHP",
            near_band=float(np.min(np.abs(u))) <= NEAR_BAND,
        )
        ortho_dev = float(np.max(np.abs(u.T @ u - np.eye(d)))) if u.shape == (d, d) else math.inf
        if status != "AHP":
            out.failure = f"verdict {status} for {argv[2:]}"
        elif ortho_dev > ORTHO_TOL:
            out.failure = f"U is not orthogonal (deviation {ortho_dev:.3g}) for {argv[2:]}"
        return out

    def close(self) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.path)


WORKLOADS = {w.name: w for w in (ScanW16R3, ScanW8R4, SplitW256R3, CliComplementW128)}
