"""Command-line front end.

Subcommands: construct, complement, check-ahp, bounds, scan, embed, polar.
Sign matrices travel in the '+'/'-' text format; reports are JSON with
full-precision floats (or a terse text rendering with --format text).

Exit codes: 0 success / AHP, 1 NotAHP, 2 usage or input errors, or a
failed internal numerical check (ArithmeticError), 3 inapplicable (singular
corner, norm boundary, or singular pattern).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import ahp, bounds, embed, numlin
from .matcore import (
    DEFAULT_MAX_ORDER,
    MatrixFormatError,
    MaxOrderError,
    PartitionedHadamard,
    json_dumps,
    parse_sign_matrix,
    paley12,
    real_matrix_from_json,
    real_matrix_to_json,
    require_hadamard,
    serialize_sign_matrix,
    walsh,
)
from .scan import classify_part, scan as run_scan

EXIT_OK = 0
EXIT_NOT_AHP = 1
EXIT_USAGE = 2
EXIT_INAPPLICABLE = 3


def _env_max_order() -> int:
    raw = os.environ.get("HADLAB_MAX_ORDER")
    if raw is None:
        return DEFAULT_MAX_ORDER
    try:
        return int(raw)
    except ValueError:
        raise SystemExit(f"hadlab: invalid HADLAB_MAX_ORDER={raw!r}")


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=["text", "json"], default="json")
    parser.add_argument("--max-order", type=int, default=None, help="order cap (env HADLAB_MAX_ORDER)")
    parser.add_argument("--tol-zero", type=float, default=ahp.ZERO_TOL)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: it reads no environment
    (HADLAB_MAX_ORDER is resolved per call in _validate_config), and every
    parse_args call starts from a fresh namespace."""
    parser = argparse.ArgumentParser(prog="hadlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit a catalog matrix")
    p.add_argument("kind", choices=["walsh", "paley12", "kn"])
    p.add_argument("param", nargs="?", type=int, help="exponent for walsh, order for kn")
    _common_flags(p)

    p = sub.add_parser("complement", help="closed-form polar factors of the complement")
    p.add_argument("matrix", help="sign-matrix text file (must be Hadamard)")
    p.add_argument("--rows", required=True, help="1-based corner rows, e.g. 1,2,3,5")
    p.add_argument("--cols", required=True, help="1-based corner columns")
    _common_flags(p)

    p = sub.add_parser("check-ahp", help="almost-Hadamard sign-pattern verdict")
    p.add_argument("matrix", help="sign-matrix text file")
    _common_flags(p)

    p = sub.add_parser("bounds", help="norm bounds and AHP-guarantee thresholds")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--N", type=int, required=True, dest="n")
    p.add_argument("--hadamard", action="store_true", help="assert the corner is Hadamard")
    p.add_argument("--block", help="optional sign-matrix file with the concrete corner")
    _common_flags(p)

    p = sub.add_parser("scan", help="classify every (or a sampled set of) r x r split")
    p.add_argument("matrix", help="sign-matrix text file (must be Hadamard)")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--name", default=None, help="matrix name for the summary")
    _common_flags(p)

    p = sub.add_parser("embed", help="embed a sign matrix into a Walsh matrix")
    p.add_argument("matrix", help="sign-matrix text file")
    p.add_argument("--general", action="store_true", help="force the duplicate-safe host")
    _common_flags(p)

    p = sub.add_parser("polar", help="polar decomposition of a matrix file")
    p.add_argument("matrix", help="sign-matrix text or real-matrix JSON file")
    _common_flags(p)

    return parser


def _check_order(m, max_order: int):
    """Refuse a matrix with a dimension above the effective order cap."""
    if max(m.shape) > max_order:
        raise MaxOrderError(
            f"matrix is {m.shape[0]}x{m.shape[1]}, exceeds maximum order {max_order}"
        )
    return m


def _read_sign_matrix(path: str, max_order: int):
    with open(path, "r", encoding="utf-8") as fh:
        return _check_order(parse_sign_matrix(fh.read()), max_order)


def _parse_indices(raw: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise MatrixFormatError(f"bad index list {raw!r}") from None
    if not values or any(v < 1 for v in values):
        raise MatrixFormatError(f"indices must be 1-based positive integers, got {raw!r}")
    return tuple(v - 1 for v in values)


def _print_real_text(m, digits: int = 6) -> str:
    return "\n".join(" ".join(format(float(v), f".{digits}g") for v in row) for row in np.asarray(m))


def _report_text(obj, prefix: str = "") -> list[str]:
    lines = []
    items = obj.items() if isinstance(obj, dict) else ((None, value) for value in obj)
    for key, value in items:
        if isinstance(value, np.ndarray):
            value = value.tolist()
        if isinstance(value, (dict, list)):
            if key is not None:
                lines.append(f"{prefix}{key}:")
            lines.extend(_report_text(value, prefix + "  "))
        else:
            rendered = format(value, ".6g") if isinstance(value, float) else value
            lines.append(f"{prefix}- {rendered}" if key is None else f"{prefix}{key}: {rendered}")
    return lines


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json_dumps(report))
    else:
        print("\n".join(_report_text(report)))


def _cmd_construct(args) -> int:
    if args.kind == "walsh":
        if args.param is None:
            raise MatrixFormatError("construct walsh needs an exponent")
        m = walsh(args.param, max_order=args.max_order)
        print(serialize_sign_matrix(m))
        return EXIT_OK
    if args.kind == "paley12":
        print(serialize_sign_matrix(paley12()))
        return EXIT_OK
    if args.param is None:
        raise MatrixFormatError("construct kn needs an order")
    k = ahp.kn_matrix(args.param)
    if args.format == "json":
        print(json_dumps(real_matrix_to_json(k)))
    else:
        print(_print_real_text(k))
    return EXIT_OK


def _verdict_exit(verdict: ahp.AhpVerdict) -> int:
    if verdict.status == ahp.AHP:
        return EXIT_OK
    if verdict.status == ahp.NOT_AHP:
        return EXIT_NOT_AHP
    return EXIT_INAPPLICABLE


def _cmd_complement(args) -> int:
    h = require_hadamard(_read_sign_matrix(args.matrix, args.max_order))
    part = PartitionedHadamard(h, _parse_indices(args.rows), _parse_indices(args.cols))
    record = classify_part(part, zero_tol=args.tol_zero)
    report: dict = {
        "N": part.n,
        "r": part.r,
        "rows": [i + 1 for i in record.rows_a],
        "cols": [j + 1 for j in record.cols_a],
        "verdict": record.verdict.to_json(),
        "gram": [g.to_json() for g in record.gram],
        "detComplement": record.det_check.to_json(),
    }
    if record.sv_check is not None:
        report["svComplement"] = record.sv_check.to_json()
    if record.factors is None:
        report.update(applicable=False, reason=record.reason)
        _emit(report, args.format)
        return EXIT_INAPPLICABLE
    report.update(record.factors.to_json())
    _emit(report, args.format)
    return _verdict_exit(record.verdict)


def _cmd_check_ahp(args) -> int:
    s = _read_sign_matrix(args.matrix, args.max_order)
    verdict = ahp.ahp_check(s, zero_tol=args.tol_zero)
    _emit(verdict.to_json(), args.format)
    return _verdict_exit(verdict)


def _cmd_bounds(args) -> int:
    if args.block is not None:
        a = _read_sign_matrix(args.block, args.max_order)
        if a.shape[0] != args.r:
            raise MatrixFormatError(f"--block is {a.shape[0]}x{a.shape[1]} but --r is {args.r}")
        report = bounds.bound_e_inf(a, args.n)
    else:
        report = bounds.ahp_thresholds(args.r, args.n, a_is_hadamard=args.hadamard)
    _emit(report.to_json(), args.format)
    return EXIT_OK


def _cmd_scan(args) -> int:
    h = require_hadamard(_read_sign_matrix(args.matrix, args.max_order))
    summary = run_scan(
        h,
        args.r,
        limit=args.limit,
        seed=args.seed,
        matrix_name=args.name,
        zero_tol=args.tol_zero,
        _hadamard=True,  # require_hadamard just checked it
    )
    _emit(summary.to_json(), args.format)
    return EXIT_OK


def _cmd_embed(args) -> int:
    d = _read_sign_matrix(args.matrix, args.max_order)
    if args.general:
        emb = embed.embed_general(d, max_order=args.max_order)
        mode = "general"
    else:
        try:
            emb = embed.embed_distinct_columns(d, max_order=args.max_order)
            mode = "distinct-columns"
        except embed.DuplicateColumnsError:
            emb = embed.embed_general(d, max_order=args.max_order)
            mode = "general"
    report = {"mode": mode, **emb.to_json()}
    _emit(report, args.format)
    return EXIT_OK


def _cmd_polar(args) -> int:
    with open(args.matrix, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        m = real_matrix_from_json(json.loads(text))
    else:
        m = parse_sign_matrix(text).astype(np.float64)
    pol = numlin.polar(_check_order(m, args.max_order))
    report = {
        "singular": pol.singular,
        "residual": pol.residual,
        "minSingularValue": pol.min_singular_value,
        "U": real_matrix_to_json(pol.u),
        "T": real_matrix_to_json(pol.t),
    }
    _emit(report, args.format)
    return EXIT_OK


_COMMANDS = {
    "construct": _cmd_construct,
    "complement": _cmd_complement,
    "check-ahp": _cmd_check_ahp,
    "bounds": _cmd_bounds,
    "scan": _cmd_scan,
    "embed": _cmd_embed,
    "polar": _cmd_polar,
}


def _validate_config(args) -> None:
    """Check the common flags and resolve ``args.max_order`` to the effective
    cap (the flag, else HADLAB_MAX_ORDER, else the default)."""
    if args.tol_zero <= 0:
        raise ValueError("tolerances must be positive")
    if args.max_order is None:
        args.max_order = _env_max_order()
    if args.max_order < 4:
        raise ValueError(f"max order must be >= 4, got {args.max_order}")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _validate_config(args)
        return _COMMANDS[args.command](args)
    except (
        MatrixFormatError,
        MaxOrderError,
        OSError,
        KeyError,
        ValueError,
        ArithmeticError,  # a numerical self-check failed (X_A/Y_A paths, polar identity)
    ) as exc:
        print(f"hadlab: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
