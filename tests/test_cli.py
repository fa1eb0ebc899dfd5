import json

import numpy as np
import pytest

from hadlab import matcore
from hadlab.cli import main
from hadlab.complement import InapplicableSplitError, SingularBlockError, complement_polar
from hadlab.scan import classify_part, enumerate_splits
from conftest import W8_TEXT


@pytest.fixture()
def w2_file(tmp_path):
    path = tmp_path / "w2.txt"
    path.write_text("++\n+-\n")
    return str(path)


@pytest.fixture()
def w8_file(tmp_path):
    path = tmp_path / "w8.txt"
    path.write_text(W8_TEXT + "\n")
    return str(path)


@pytest.fixture()
def h12_file(tmp_path):
    path = tmp_path / "h12.txt"
    path.write_text(matcore.serialize_sign_matrix(matcore.paley12()) + "\n")
    return str(path)


def test_construct_walsh_matches_display(capsys):
    assert main(["construct", "walsh", "3"]) == 0
    assert capsys.readouterr().out.strip() == W8_TEXT


def test_construct_paley12(capsys):
    assert main(["construct", "paley12"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.split("\n")[0] == "+" + "-" * 11
    assert np.array_equal(matcore.parse_sign_matrix(out), matcore.paley12())


def test_construct_kn_json(capsys):
    assert main(["construct", "kn", "4"]) == 0
    obj = json.loads(capsys.readouterr().out)
    m = matcore.real_matrix_from_json(obj)
    assert m[0, 0] == pytest.approx(-1.0)
    assert m[0, 1] == pytest.approx(1.0)


def test_construct_respects_max_order(capsys, monkeypatch):
    assert main(["construct", "walsh", "4", "--max-order", "8"]) == 2
    assert "hadlab:" in capsys.readouterr().err
    monkeypatch.setenv("HADLAB_MAX_ORDER", "8")
    assert main(["construct", "walsh", "4"]) == 2
    capsys.readouterr()
    monkeypatch.setenv("HADLAB_MAX_ORDER", "16")
    assert main(["construct", "walsh", "4"]) == 0
    capsys.readouterr()


def test_complement_w2(capsys, w2_file):
    assert main(["complement", w2_file, "--rows", "1", "--cols", "1"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["E"]["data"][0] == pytest.approx(1 / (1 + np.sqrt(2)), abs=1e-15)
    assert obj["S"]["data"][0] == pytest.approx(1 / (1 + np.sqrt(2)), abs=1e-15)
    assert obj["verdict"]["status"] == "AHP"


def test_complement_zero_entry_counterexample(capsys, w8_file):
    code = main(["complement", w8_file, "--rows", "1,2,3,5", "--cols", "1,2,3,5"])
    assert code == 1
    obj = json.loads(capsys.readouterr().out)
    assert obj["verdict"]["status"] == "NotAHP"
    assert obj["verdict"]["failure"]["kind"] == "zero_entry"
    assert obj["verdict"]["failure"]["row"] == 4


def test_complement_sign_mismatch_counterexample(capsys, h12_file):
    code = main(["complement", h12_file, "--rows", "1,2,3,5,6", "--cols", "1,2,3,5,6"])
    assert code == 1
    obj = json.loads(capsys.readouterr().out)
    failure = obj["verdict"]["failure"]
    assert failure["kind"] == "sign_mismatch"
    assert (failure["row"], failure["col"]) == (4, 5)


def test_complement_inapplicable_exit(capsys, tmp_path):
    path = tmp_path / "w4.txt"
    path.write_text(matcore.serialize_sign_matrix(matcore.walsh(2)))
    code = main(["complement", str(path), "--rows", "1,2", "--cols", "1,3"])
    assert code == 3
    obj = json.loads(capsys.readouterr().out)
    assert obj["applicable"] is False


#: The exit code of ``hadlab complement`` implied by a scan record's category.
CATEGORY_EXIT = {"AHP": 0, "NotAHP": 1, "singularA": 3, "inapplicable": 3}


def _agreement_splits():
    """Every split of walsh(2) at r = 1..3, and seeded samples of walsh(3) at r = 2 and 4."""
    splits = [(2, rows, cols) for r in (1, 2, 3) for rows, cols in enumerate_splits(matcore.walsh(2), r)]
    for r in (2, 4):
        splits += [(3, rows, cols) for rows, cols in enumerate_splits(matcore.walsh(3), r, limit=60, seed=r)]
    return splits


def test_complement_cli_agrees_with_scan_record(capsys, tmp_path):
    seen_codes, seen_refusals = set(), set()
    for k, rows, cols in _agreement_splits():
        path = tmp_path / f"w{k}.txt"
        path.write_text(matcore.serialize_sign_matrix(matcore.walsh(k)))
        argv = ["complement", str(path), "--rows", ",".join(str(i + 1) for i in rows)]
        code = main(argv + ["--cols", ",".join(str(j + 1) for j in cols)])
        report = json.loads(capsys.readouterr().out)
        part = matcore.PartitionedHadamard(matcore.walsh(k), rows, cols)
        record = classify_part(part)
        assert code == CATEGORY_EXIT[record.category], (rows, cols)
        assert ("reason" in report) == (record.reason is not None)
        try:
            complement_polar(part)
        except (SingularBlockError, InapplicableSplitError) as exc:
            assert record.reason == str(exc) == report["reason"]
            seen_refusals.add(type(exc))
        else:
            assert record.reason is None
        seen_codes.add(code)
    assert seen_codes == {0, 1, 3}
    assert seen_refusals == {SingularBlockError, InapplicableSplitError}


def test_complement_bad_indices_exit(capsys, w2_file):
    assert main(["complement", w2_file, "--rows", "0", "--cols", "1"]) == 2
    capsys.readouterr()
    assert main(["complement", w2_file, "--rows", "1,x", "--cols", "1"]) == 2
    capsys.readouterr()


def test_missing_file_exit(capsys):
    assert main(["check-ahp", "/nonexistent/matrix.txt"]) == 2
    assert "hadlab:" in capsys.readouterr().err


def test_check_ahp_kn_pattern(capsys, tmp_path):
    s = np.sign(np.full((5, 5), 2.0) - 5 * np.eye(5)).astype(np.int64)
    path = tmp_path / "kn5.txt"
    path.write_text(matcore.serialize_sign_matrix(s))
    assert main(["check-ahp", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "AHP"


def test_check_ahp_singular_exit(capsys, tmp_path):
    path = tmp_path / "ones.txt"
    path.write_text("++\n++")
    assert main(["check-ahp", str(path)]) == 3
    assert json.loads(capsys.readouterr().out)["status"] == "Singular"


def test_bounds_hadamard_case(capsys):
    assert main(["bounds", "--r", "2", "--N", "16", "--hadamard"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["bound1"] == pytest.approx(2 * np.sqrt(2) / (np.sqrt(2) + 4), abs=1e-15)


def test_bounds_with_block_file(capsys, w2_file):
    assert main(["bounds", "--r", "2", "--N", "16", "--block", w2_file]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["aIsHadamard"] is True
    assert "bound2" in obj and "c" in obj


def test_scan_cli_deterministic(capsys, w8_file):
    args = ["scan", w8_file, "--r", "4", "--limit", "60", "--seed", "5"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    obj = json.loads(first)
    assert obj["seed"] == 5 and obj["counts"]["total"] == 60


def test_scan_summary_counterexample(capsys, w8_file):
    assert main(["scan", w8_file, "--r", "1", "--name", "walsh3"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["matrix"] == "walsh3"
    assert obj["counts"]["AHP"] == 64


def test_embed_cli(capsys, tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("++\n++")
    assert main(["embed", str(path)]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["mode"] == "general"
    assert obj["hostOrder"] == 8


def test_embed_cli_distinct(capsys, w2_file):
    assert main(["embed", w2_file]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["mode"] == "distinct-columns"
    assert obj["hostOrder"] == 4


def test_polar_cli_on_sign_text(capsys, tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("--\n-+")
    assert main(["polar", str(path)]) == 0
    obj = json.loads(capsys.readouterr().out)
    u = matcore.real_matrix_from_json(obj["U"])
    assert np.allclose(u, -np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-12)


def test_polar_cli_on_real_json(capsys, tmp_path):
    payload = matcore.json_dumps(matcore.real_matrix_to_json(np.eye(3)))
    path = tmp_path / "m.json"
    path.write_text(payload)
    assert main(["polar", str(path)]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["singular"] is False
    assert obj["residual"] <= 1e-12


def test_text_format_mode(capsys, w2_file):
    assert main(["check-ahp", w2_file, "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "status: AHP" in out


def test_config_invariants_enforced(capsys, w2_file):
    assert main(["check-ahp", w2_file, "--tol-zero", "-1"]) == 2
    assert "positive" in capsys.readouterr().err
    assert main(["construct", "walsh", "1", "--max-order", "2"]) == 2
    assert "max order" in capsys.readouterr().err


def test_tol_ortho_flag_is_gone(capsys, w2_file):
    with pytest.raises(SystemExit) as exc:
        main(["check-ahp", w2_file, "--tol-ortho", "1e-9"])
    assert exc.value.code == 2
    assert "--tol-ortho" in capsys.readouterr().err


@pytest.fixture()
def w16_files(tmp_path):
    sign = tmp_path / "w16.txt"
    sign.write_text(matcore.serialize_sign_matrix(matcore.walsh(4)) + "\n")
    real = tmp_path / "w16.json"
    real.write_text(matcore.json_dumps(matcore.real_matrix_to_json(matcore.walsh(4))))
    return str(sign), str(real)


FILE_COMMANDS = {
    "complement": lambda sign, real: ["complement", sign, "--rows", "1,2,3", "--cols", "1,2,3"],
    "check-ahp": lambda sign, real: ["check-ahp", sign],
    "scan": lambda sign, real: ["scan", sign, "--r", "1"],
    "embed": lambda sign, real: ["embed", sign],
    "polar-sign": lambda sign, real: ["polar", sign],
    "polar-json": lambda sign, real: ["polar", real],
    "bounds-block": lambda sign, real: ["bounds", "--r", "16", "--N", "64", "--block", sign],
}


@pytest.mark.parametrize("command", sorted(FILE_COMMANDS))
def test_max_order_applies_to_input_files(capsys, monkeypatch, w16_files, command):
    argv = FILE_COMMANDS[command](*w16_files)
    assert main(argv + ["--max-order", "8"]) == 2
    assert "matrix is 16x16, exceeds maximum order 8" in capsys.readouterr().err
    monkeypatch.setenv("HADLAB_MAX_ORDER", "8")
    assert main(argv) == 2
    assert "exceeds maximum order 8" in capsys.readouterr().err
    code = main(argv + ["--max-order", "16"])
    captured = capsys.readouterr()
    assert "16x16" not in captured.err
    if command == "embed":
        # the file passes; its order-2^16 Walsh host is over the same cap
        assert code == 2 and "order 2^16 exceeds maximum order 16" in captured.err
    else:
        assert code == 0
        json.loads(captured.out)


def test_embed_runs_under_file_cap(capsys, w8_file):
    assert main(["embed", w8_file, "--max-order", "4"]) == 2
    assert "matrix is 8x8" in capsys.readouterr().err
    # the file fits under 8, its order-256 Walsh host does not (DECISIONS 8)
    assert main(["embed", w8_file, "--max-order", "8"]) == 2
    assert "order 2^8 exceeds maximum order 8" in capsys.readouterr().err
    assert main(["embed", w8_file, "--max-order", "255"]) == 2
    capsys.readouterr()
    assert main(["embed", w8_file, "--max-order", "256"]) == 0
    assert json.loads(capsys.readouterr().out)["hostOrder"] == 256
    assert main(["embed", w8_file, "--general", "--max-order", "256"]) == 2  # 2^(8+3)
    assert "order 2^11 exceeds maximum order 256" in capsys.readouterr().err


def test_embed_host_cap_from_environment(capsys, monkeypatch, w8_file):
    monkeypatch.setenv("HADLAB_MAX_ORDER", "128")
    assert main(["embed", w8_file]) == 2
    assert "order 2^8 exceeds maximum order 128" in capsys.readouterr().err


def test_complement_at_order_512_prints_null_determinant(capsys, tmp_path):
    """|det D| = 4 * 512^253 is past the float range; the report prints null
    for it and still answers (DECISIONS 9)."""
    path = tmp_path / "w512.txt"
    path.write_text(matcore.serialize_sign_matrix(matcore.walsh(9)))
    code = main(["complement", str(path), "--rows", "1,4,6", "--cols", "1,2,3"])
    captured = capsys.readouterr()
    assert code in (0, 1, 3), captured.err
    report = json.loads(captured.out)
    det = report["detComplement"]
    assert det["pass"] is True
    assert det["detDAbs"] is None
    assert det["detAAbs"] == pytest.approx(4.0, rel=1e-12)
    assert report["N"] == 512 and report["verdict"]["status"] == "AHP"


@pytest.mark.parametrize(
    "guard, message",
    [
        ("hadlab.complement.XY_AGREE_TOL", "X_A/Y_A computation paths disagree"),
        ("hadlab.numlin.PSD_TOL", "polar identity violated"),
    ],
)
def test_failed_numerical_check_exits_cleanly(capsys, monkeypatch, w8_file, guard, message):
    """A numerical self-check that raises ArithmeticError ends in exit 2 and a
    one-line message, not a traceback."""
    monkeypatch.setattr(guard, -1.0)  # every deviation now exceeds the tolerance
    code = main(["complement", w8_file, "--rows", "1,2,3", "--cols", "1,2,3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("hadlab: " + message)


def test_scan_cli_refuses_runaway_exhaustive_scan(capsys, tmp_path):
    path = tmp_path / "w32.txt"
    path.write_text(matcore.serialize_sign_matrix(matcore.walsh(5)))
    assert main(["scan", str(path), "--r", "3"]) == 2
    assert "--limit" in capsys.readouterr().err
    assert main(["scan", str(path), "--r", "3", "--limit", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["counts"]["total"] == 5


def test_cached_parser_behaves_as_a_fresh_one(capsys, monkeypatch, w16_files):
    """The parser is built once per process; each call still parses from a
    fresh namespace and reads HADLAB_MAX_ORDER at call time."""
    from hadlab.cli import _build_parser

    sign, _ = w16_files
    assert _build_parser() is _build_parser()
    for argv in (["scan", sign, "--r", "1", "--max-order", "16"], ["check-ahp", sign]):
        assert vars(_build_parser().parse_args(argv)) == vars(_build_parser.__wrapped__().parse_args(argv))
    monkeypatch.setenv("HADLAB_MAX_ORDER", "16")
    assert main(["scan", sign, "--r", "1", "--limit", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["counts"]["total"] == 3
    monkeypatch.setenv("HADLAB_MAX_ORDER", "8")
    assert main(["check-ahp", sign]) == 2
    assert "matrix is 16x16, exceeds maximum order 8" in capsys.readouterr().err


def test_scan_cli_checks_the_matrix_once(capsys, monkeypatch, w16_files):
    """hadlab scan takes one N x N Gram product (require_hadamard's); scan()
    reuses that verdict instead of checking H again."""
    sign, _ = w16_files
    full = []
    sign_gram = matcore._sign_gram

    def counting(s):
        if np.shape(s) == (16, 16):
            full.append(1)
        return sign_gram(s)

    monkeypatch.setattr(matcore, "_sign_gram", counting)
    assert main(["scan", sign, "--r", "2", "--limit", "20"]) == 0
    assert json.loads(capsys.readouterr().out)["counts"]["total"] == 20
    assert len(full) == 1


def test_scan_cli_refuses_non_hadamard_matrix(capsys, tmp_path):
    h = np.array(matcore.walsh(3))
    h[2, 5] *= -1
    path = tmp_path / "bad.txt"
    path.write_text(matcore.serialize_sign_matrix(h))
    assert main(["scan", str(path), "--r", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "hadlab: matrix is not Hadamard (rows are not pairwise orthogonal)\n"
