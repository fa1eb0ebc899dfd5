"""Self-tests of the benchmark's own arithmetic and of its wrappers.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import importlib
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np  # noqa: E402

import hadlab  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402


# --- the call_ms.tail rule ------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, "50"), (49, "50"), (50, "80"), (199, "80"), (200, "95"), (10**6, "95")],
)
def test_tail_percentile_is_highest_with_ten_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_tail_value_leaves_exactly_ten_samples_beyond():
    values = list(range(1, 51))  # 50 distinct samples
    value, pct, samples = stats.tail(reversed(values))
    assert (value, pct, samples) == (40, "80", 50)
    assert sum(v > value for v in values) == 10


def test_tail_without_enough_samples_is_the_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, "100", 3)


def test_quartile_spread():
    assert stats.quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx((8.25 - 2.75) / 5.5)


# --- self time --------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    # 0: root [0, 10]; 1: [1, 3] and 2: [2, 5] overlap; 3: [6, 7]; 4: [1.5, 2] under 1
    starts = [0.0, 1.0, 2.0, 6.0, 1.5]
    ends = [10.0, 3.0, 5.0, 7.0, 2.0]
    parents = [-1, 0, 0, 0, 1]
    assert spans.self_times(starts, ends, parents) == pytest.approx([5.0, 1.5, 3.0, 1.0, 0.5])


def test_self_times_of_a_nested_tree_add_up_to_the_roots():
    tracer = spans.Tracer()
    rows = [  # name, parent, start, end
        ("scan.scan", -1, 0.0, 8.0),
        ("scan.classify_split", 0, 1.0, 4.0),
        ("linalg.svd", 1, 1.5, 2.5),
        ("scan.classify_split", 0, 4.0, 7.5),
        ("cli.main", -1, 9.0, 10.0),
    ]
    for name, parent, start, end in rows:
        tracer.name.append(tracer._name_id(name))
        tracer.unit.append(-1)
        tracer.parent.append(parent)
        tracer.start.append(start)
        tracer.end.append(end)
    summary = spans.summarize(tracer)
    assert summary["root_total_s"] == pytest.approx(9.0)
    assert summary["self_total_s"] == pytest.approx(9.0)
    assert summary["spans"]["scan.classify_split"] == pytest.approx({"calls": 2, "total_s": 6.5, "self_s": 5.5})
    assert summary["layer_self_s"]["scan"] == pytest.approx(7.0)


# --- wrappers ------------------------------------------------------------------------


def _originals():
    scan_mod = importlib.import_module("hadlab.scan")
    cli_mod = importlib.import_module("hadlab.cli")
    complement_mod = importlib.import_module("hadlab.complement")
    block_a = hadlab.PartitionedHadamard.__dict__["a"]
    return {
        "scan.complement_polar": (scan_mod, "complement_polar", complement_mod.complement_polar),
        "scan.classify_split": (scan_mod, "classify_split", scan_mod.classify_split),
        "package.classify_split": (hadlab, "classify_split", scan_mod.classify_split),
        "cli.run_scan": (cli_mod, "run_scan", scan_mod.scan),
        "numpy.linalg.svd": (np.linalg, "svd", np.linalg.svd),
        "PartitionedHadamard.a": (hadlab.PartitionedHadamard, "a", block_a),
    }


def _current(holder, attr):
    return holder.__dict__[attr] if isinstance(holder, type) else getattr(holder, attr)


def test_tracer_wraps_every_importer_and_removes_every_wrapper(tmp_path):
    originals = _originals()
    tracer = spans.Tracer()
    tracer.install()
    try:
        for holder, attr, original in originals.values():
            assert _current(holder, attr) is not original
        assert spans.leftover_wrappers()
        hadlab.classify_split(hadlab.walsh(3), (0, 1, 2), (0, 1, 3))
        path = tmp_path / "h.txt"
        path.write_text(hadlab.serialize_sign_matrix(hadlab.walsh(3)))
        with redirect_stdout(io.StringIO()):
            hadlab.cli.main(["complement", str(path), "--rows", "1,2,3", "--cols", "1,2,4"])
    finally:
        tracer.uninstall()
    assert spans.leftover_wrappers() == []
    for holder, attr, original in originals.values():
        assert _current(holder, attr) is original
    summary = spans.summarize(tracer)
    assert summary["spans"]["scan.classify_split"]["calls"] == 1
    assert summary["spans"]["cli.main"]["calls"] == 1
    assert summary["spans"]["complement.complement_polar"]["calls"] == 2
    assert summary["self_total_s"] == pytest.approx(summary["root_total_s"])
    units = {tracer.unit[i] for i in range(len(tracer)) if tracer.parent[i] >= 0}
    assert units == {0, 1}  # every nested span belongs to the split or the CLI call


def test_split_timer_is_removed_and_sees_every_split():
    scan_mod = importlib.import_module("hadlab.scan")
    original = scan_mod.classify_split
    ticks = []
    with spans.SplitTimer(lambda: ticks.append(1)) as timer:
        summary = hadlab.scan(hadlab.walsh(2), 1)
        samples = timer.drain()
    assert scan_mod.classify_split is original
    assert spans.leftover_wrappers() == []
    assert len(samples) == len(ticks) == summary.total_splits == 16
