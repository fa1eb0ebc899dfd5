"""Golden outputs: scan summaries and CLI stdout/exit codes, frozen to disk.

Scan summaries must match byte for byte.  CLI output must match byte for byte
as well, except for the fields listed in TOLERANT_KEYS: those are derived from
singular values, whose last bits depend on which LAPACK SVD driver produced
them, and must agree within 1e-12 * max(1, |x|).

Regenerate the files (after a deliberate output change) with

    PYTHONPATH=src python tests/test_golden.py --regen
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from hadlab.cli import main
from hadlab.matcore import PartitionedHadamard, catalog_matrix, json_dumps, paley12, serialize_sign_matrix, walsh
from hadlab.scan import scan

GOLDEN = Path(__file__).parent / "golden"

#: (file stem, catalog name, r, limit, seed)
SCAN_CASES = [
    ("scan_walsh3_r1", "walsh3", 1, None, 0),
    ("scan_walsh3_r2", "walsh3", 2, None, 0),
    ("scan_walsh3_r3", "walsh3", 3, None, 0),
    ("scan_walsh3_r4", "walsh3", 4, None, 0),
    ("scan_paley12_r3", "paley12", 3, 120, 7),
    ("scan_paley12_r5", "paley12", 5, 400, 1),
    ("scan_walsh4_r3", "walsh4", 3, 2000, 11),
    ("scan_walsh2_r3", "walsh2", 3, None, 0),
]

#: Input files the CLI cases read, by name.
INPUTS = {
    "w4.txt": serialize_sign_matrix(walsh(2)),
    "w8.txt": serialize_sign_matrix(walsh(3)),
    "w16.txt": serialize_sign_matrix(walsh(4)),
    "h12.txt": serialize_sign_matrix(paley12()),
    "w8_d1235.txt": serialize_sign_matrix(PartitionedHadamard(walsh(3), (0, 1, 2, 4), (0, 1, 2, 4)).d),
    "a3.txt": "+++\n+-+\n++-",
    "d3.txt": "+-+\n++-\n-++",
    "m3.txt": "++-\n+-+\n-++",
}

#: (case name, argv with input names, expected exit code)
CLI_CASES = [
    ("construct_walsh3", ["construct", "walsh", "3"], 0),
    ("construct_paley12", ["construct", "paley12"], 0),
    ("construct_kn4", ["construct", "kn", "4"], 0),
    ("check_ahp_w8_d1235", ["check-ahp", "w8_d1235.txt"], 1),
    ("check_ahp_h12", ["check-ahp", "h12.txt"], 0),
    ("bounds_hadamard", ["bounds", "--r", "2", "--N", "16", "--hadamard"], 0),
    ("bounds_block", ["bounds", "--r", "3", "--N", "16", "--block", "a3.txt"], 0),
    ("embed_d3", ["embed", "d3.txt"], 0),
    ("polar_m3", ["polar", "m3.txt"], 0),
    ("polar_m3_text", ["polar", "m3.txt", "--format", "text"], 0),
    ("scan_w8_r2", ["scan", "w8.txt", "--r", "2", "--name", "walsh3"], 0),
    ("complement_w8_zero_entry", ["complement", "w8.txt", "--rows", "1,2,3,5", "--cols", "1,2,3,5"], 1),
    ("complement_h12_sign_flip", ["complement", "h12.txt", "--rows", "1,2,3,5,6", "--cols", "1,2,3,5,6"], 1),
    ("complement_w8_r3_ahp", ["complement", "w8.txt", "--rows", "1,2,3", "--cols", "1,2,3"], 0),
    ("complement_w8_singular", ["complement", "w8.txt", "--rows", "1,2", "--cols", "1,3"], 3),
    ("complement_w4_norm_boundary", ["complement", "w4.txt", "--rows", "1,2,3", "--cols", "1,2,3"], 3),
    ("complement_w16_r3", ["complement", "w16.txt", "--rows", "1,2,3", "--cols", "1,2,3"], 0),
    (
        "complement_w16_r3_text",
        ["complement", "w16.txt", "--rows", "1,2,3", "--cols", "1,2,3", "--format", "text"],
        0,
    ),
]

#: Key paths (matched as a run of consecutive keys on the path to a value) whose
#: numbers may differ in the last bits.
TOLERANT_KEYS = (
    ("normA",),
    ("aNorm",),
    ("svComplement", "pairs"),
    ("svComplement", "maxDeviation"),
    ("detComplement", "maxDeviation"),
    ("detComplement", "detAAbs"),
    ("detComplement", "detDAbs"),
)


def scan_output(name: str, r: int, limit, seed: int) -> str:
    summary = scan(catalog_matrix(name), r, limit=limit, seed=seed, matrix_name=name)
    return json_dumps(summary.to_json()) + "\n"


def cli_output(argv: list[str], workdir: Path) -> tuple[int, str]:
    for name, text in INPUTS.items():
        (workdir / name).write_text(text + "\n")
    argv = [str(workdir / a) if a in INPUTS else a for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _tolerant(path: tuple[str, ...]) -> bool:
    keys = tuple(p for p in path if isinstance(p, str))
    return any(keys[i : i + len(t)] == t for t in TOLERANT_KEYS for i in range(len(keys)))


def _merge_tolerant(actual, expected, path=()):
    """``actual`` with every tolerant number replaced by the expected one,
    after checking that the two agree within tolerance."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        assert list(actual) == list(expected), f"keys differ at {path}"
        return {k: _merge_tolerant(actual[k], expected[k], path + (k,)) for k in expected}
    if isinstance(expected, list) and isinstance(actual, list):
        assert len(actual) == len(expected), f"length differs at {path}"
        return [_merge_tolerant(a, e, path + (i,)) for i, (a, e) in enumerate(zip(actual, expected))]
    numbers = (int, float)
    if (
        _tolerant(path)
        and isinstance(actual, numbers)
        and isinstance(expected, numbers)
        and not isinstance(actual, bool)
    ):
        assert abs(actual - expected) <= 1e-12 * max(1.0, abs(expected)), (
            f"{'.'.join(map(str, path))}: {actual!r} vs golden {expected!r}"
        )
        return expected
    return actual


def assert_matches_golden(actual: str, expected: str) -> None:
    """Byte equality, except that numbers under TOLERANT_KEYS may move within
    tolerance; everything else, formatting included, must be identical."""
    if actual == expected:
        return
    try:
        got, want = json.loads(actual), json.loads(expected)
    except json.JSONDecodeError:
        assert actual == expected
        return
    assert json_dumps(_merge_tolerant(got, want)) + "\n" == expected


@pytest.mark.parametrize("stem,name,r,limit,seed", SCAN_CASES, ids=[c[0] for c in SCAN_CASES])
def test_scan_summary_is_byte_identical(stem, name, r, limit, seed):
    expected = (GOLDEN / f"{stem}.json").read_text()
    assert scan_output(name, r, limit, seed) == expected


@pytest.mark.parametrize("case,argv,exit_code", CLI_CASES, ids=[c[0] for c in CLI_CASES])
def test_cli_output_matches_golden(case, argv, exit_code, tmp_path):
    code, out = cli_output(argv, tmp_path)
    assert code == exit_code
    assert_matches_golden(out, (GOLDEN / "cli" / f"{case}.out").read_text())


def test_tolerant_keys_allow_only_last_bit_moves():
    golden = json_dumps({"normA": 2.0, "svComplement": {"pairs": [[0.5, 0.5]]}, "einf": 0.25}) + "\n"
    moved = json_dumps({"normA": 2.0 + 4e-16, "svComplement": {"pairs": [[0.5, 0.5 + 1e-16]]}, "einf": 0.25})
    assert_matches_golden(moved + "\n", golden)
    with pytest.raises(AssertionError):
        assert_matches_golden(json_dumps({"normA": 2.001, "svComplement": {"pairs": [[0.5, 0.5]]}, "einf": 0.25}) + "\n", golden)
    with pytest.raises(AssertionError):
        assert_matches_golden(json_dumps({"normA": 2.0, "svComplement": {"pairs": [[0.5, 0.5]]}, "einf": 0.2500000001}) + "\n", golden)


def _regen() -> None:
    import tempfile

    (GOLDEN / "cli").mkdir(parents=True, exist_ok=True)
    for stem, name, r, limit, seed in SCAN_CASES:
        (GOLDEN / f"{stem}.json").write_text(scan_output(name, r, limit, seed))
    with tempfile.TemporaryDirectory() as tmp:
        for case, argv, exit_code in CLI_CASES:
            code, out = cli_output(argv, Path(tmp))
            if code != exit_code:
                raise SystemExit(f"{case}: exit {code}, expected {exit_code}")
            (GOLDEN / "cli" / f"{case}.out").write_text(out)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden.py --regen")
    _regen()
