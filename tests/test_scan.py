import importlib
import json
from itertools import combinations, product

import numpy as np
import pytest

from hadlab import matcore
from hadlab.matcore import json_dumps
from hadlab.scan import (
    MAX_EXHAUSTIVE_SPLITS,
    _unrank_combination,
    classify_part,
    classify_split,
    enumerate_splits,
    scan,
)

scan_module = importlib.import_module("hadlab.scan")  # the package exports a function `scan`


def test_enumeration_counts(w4, w8):
    assert sum(1 for _ in enumerate_splits(w4, 1)) == 16
    assert sum(1 for _ in enumerate_splits(w8, 4)) == 4900


def test_enumeration_is_lexicographic(w4):
    pairs = list(enumerate_splits(w4, 2))
    expected = [
        (r, c) for r, c in product(combinations(range(4), 2), combinations(range(4), 2))
    ]
    assert pairs == expected


def test_unrank_matches_itertools():
    n, r = 9, 4
    combos = list(combinations(range(n), r))
    for index, combo in enumerate(combos):
        assert _unrank_combination(index, n, r) == combo


def test_sampled_enumeration_reproducible(h12):
    first = list(enumerate_splits(h12, 5, limit=1000, seed=42))
    second = list(enumerate_splits(h12, 5, limit=1000, seed=42))
    assert first == second
    assert len(first) == len(set(first)) == 1000
    other_seed = list(enumerate_splits(h12, 5, limit=1000, seed=43))
    assert other_seed != first


def test_enumeration_validates_r(w4):
    with pytest.raises(ValueError):
        list(enumerate_splits(w4, 0))
    with pytest.raises(ValueError):
        list(enumerate_splits(w4, 4))


def test_classify_zero_entry_counterexample(w8):
    record = classify_split(w8, (0, 1, 2, 4), (0, 1, 2, 4))
    assert record.verdict.status == "NotAHP"
    assert record.verdict.failure.kind == "zero_entry"
    assert record.applicable and record.a_invertible
    # polar factor row (1/sqrt(3), 1/sqrt(3), 1/sqrt(3), 0)
    u = record.factors.u
    assert np.allclose(u[3, :3], 1 / np.sqrt(3), atol=1e-10)
    assert abs(u[3, 3]) <= 1e-10


def test_classify_sign_mismatch_counterexample(h12):
    record = classify_split(h12, (0, 1, 2, 4, 5), (0, 1, 2, 4, 5))
    assert record.verdict.status == "NotAHP"
    failure = record.verdict.failure
    assert failure.kind == "sign_mismatch"
    assert (failure.row + 1, failure.col + 1) == (4, 5)
    assert 0.02 < failure.u_value < 0.04


def test_classify_r1_split(w4):
    record = classify_split(w4, (0,), (0,))
    assert record.verdict.is_ahp
    assert record.category == "AHP"
    assert record.gram_ok and record.sv_check.passed and record.det_check.passed
    assert record.cross_dev <= 1e-8
    assert record.reason is None


def test_classify_singular_corner(w4):
    record = classify_split(w4, (0, 1), (0, 2))
    assert not record.a_invertible
    assert record.category == "singularA"
    assert record.verdict.status == "Singular"
    assert record.einf is None
    assert record.reason.startswith("A is singular")


def test_classify_norm_boundary(w4):
    record = classify_split(w4, (0, 1, 2), (0, 1, 2))
    assert record.a_invertible and not record.applicable
    assert record.category == "inapplicable"
    assert record.verdict.is_ahp  # generic polar still classifies D
    assert record.bound_report is None  # r > d, bounds out of scope
    assert record.reason == "closed form inapplicable: ||A|| = 2 >= sqrt(4)"
    assert "reason" not in record.to_json()


def test_classify_split_is_classify_part(w8):
    part = matcore.PartitionedHadamard(w8, (0, 1, 2, 4), (0, 1, 2, 4))
    expected = json_dumps(classify_part(part).to_json())
    assert json_dumps(classify_split(w8, [0, 1, 2, 4], [0, 1, 2, 4]).to_json()) == expected


def test_scan_order_8_r1(w8):
    summary = scan(w8, 1)
    assert summary.total_splits == 64
    assert summary.counts == {"AHP": 64, "NotAHP": 0, "singularA": 0, "inapplicable": 0}
    assert summary.seed is None
    assert summary.worst_einf == pytest.approx(1 / (1 + np.sqrt(8)), abs=1e-12)


def test_scan_exhaustive_r4_contains_the_zero_entry_split(w8):
    summary = scan(w8, 4)
    assert summary.total_splits == 4900
    assert sum(summary.counts.values()) == 4900
    assert summary.counts["NotAHP"] >= 1
    assert summary.counts["NotAHP"] == len(summary.counterexamples)
    hits = [
        c
        for c in summary.counterexamples
        if c["rows"] == [1, 2, 3, 5] and c["cols"] == [1, 2, 3, 5]
    ]
    assert hits and hits[0]["reason"] == "zero_entry"


def test_scan_exhaustive_r3_all_applicable_are_ahp(w8):
    summary = scan(w8, 3)
    assert summary.total_splits == 3136
    assert summary.counts["NotAHP"] == 0


def test_scan_consistency_einf_below_one_is_ahp(w8):
    for rows, cols in enumerate_splits(w8, 3, limit=150, seed=13):
        record = classify_split(w8, rows, cols)
        if record.einf is not None and record.einf < 1 and record.a_invertible:
            assert record.verdict.is_ahp
        if record.bound_report is not None and record.bound_report.any_threshold_passes():
            assert record.verdict.is_ahp


def test_scan_json_schema(w4):
    obj = scan(w4, 1, matrix_name="walsh2").to_json()
    assert obj["matrix"] == "walsh2"
    assert obj["N"] == 4 and obj["r"] == 1
    assert obj["seed"] is None
    assert obj["counts"]["total"] == 16
    assert set(obj["counts"]) == {"total", "AHP", "NotAHP", "singularA", "inapplicable"}
    assert obj["worstEinf"]["rows"] and obj["worstEinf"]["value"] > 0
    parsed = json.loads(json_dumps(obj))
    assert parsed["counts"]["AHP"] == 16


def test_scan_byte_identical_reruns(w8, h12):
    a = json_dumps(scan(w8, 2).to_json())
    b = json_dumps(scan(w8, 2).to_json())
    assert a == b
    c = json_dumps(scan(h12, 3, limit=120, seed=7).to_json())
    d = json_dumps(scan(h12, 3, limit=120, seed=7).to_json())
    assert c == d


def test_scan_sampled_records_seed(h12):
    summary = scan(h12, 3, limit=50, seed=99)
    assert summary.seed == 99
    assert summary.to_json()["seed"] == 99


def test_record_json_one_based(w8):
    record = classify_split(w8, (0, 1, 2, 4), (0, 1, 2, 4))
    obj = record.to_json()
    assert obj["rows"] == [1, 2, 3, 5]
    assert obj["verdict"]["failure"]["row"] == 4
    assert obj["category"] == "NotAHP"


def test_classify_split_past_float_range_of_det_d():
    record = classify_split(matcore.walsh(9), (0, 1, 2), (0, 1, 2))
    assert record.det_check.passed
    assert record.category == "AHP"


def test_scan_refuses_runaway_exhaustive_scan():
    h = matcore.walsh(5)  # C(32, 3)^2 = 24.6M splits
    with pytest.raises(ValueError, match="--limit"):
        scan(h, 3)
    assert scan(h, 3, limit=10, seed=1).total_splits == 10
    assert 1820**2 <= MAX_EXHAUSTIVE_SPLITS  # walsh(4) at r = 4 stays exhaustive


def test_scan_limit_at_least_total_enumerates_everything(w8):
    full = scan(w8, 1)
    assert json_dumps(scan(w8, 1, limit=64).to_json()) == json_dumps(full.to_json())
    assert scan(w8, 1, limit=10**9).total_splits == 64


@pytest.mark.parametrize("r, limit", [(2, None), (4, 300)])
def test_scan_of_non_hadamard_matrix_equals_standalone_records(monkeypatch, w8, r, limit):
    """A sign matrix that is not Hadamard: scan() computes each split's Gram
    identities as a standalone part does, so its summary is the fold of fully
    validated standalone records."""
    h = np.array(w8)
    h[2, 5] *= -1
    trusted = scan(h, r, limit=limit, seed=3)
    assert trusted.counts["AHP"] == trusted.counts["NotAHP"] == 0  # no closed form without H H^t = N I
    assert trusted.counts["inapplicable"] > 0
    standalone = scan_module.classify_split

    def validated(h, rows_a, cols_a, zero_tol, _hadamard):
        return standalone(h, rows_a, cols_a, zero_tol)

    monkeypatch.setattr(scan_module, "classify_split", validated)
    assert json_dumps(scan(h, r, limit=limit, seed=3).to_json()) == json_dumps(trusted.to_json())
