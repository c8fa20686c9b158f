"""Command-line frontend: spectra, transfer pairs, simulation, verification.

Subcommands:
  eigs      print the exact spectrum of a weight vector
  pst       classify (perfect state transfer vs periodic) and list pairs
  simulate  print |U(t)| for requested vertex pairs
  verify    check the classification against both transition-matrix routes
  export    write the weighted graph as a DOT file
  table     recompute the built-in reference table and report PASS/FAIL

Input is a JSON document {"d": int, "z": [numbers], "time": optional}
from --input FILE (or stdin), or a comma-separated list via --weights.
Human-readable output labels vertices 1-based, JSON output 0-based;
--one-based/--zero-based override either. Exit codes: 0 success,
1 verification or classification failure (pst, verify and table only),
2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    ConsistencyError,
    CubelikeError,
    DomainError,
    ParityError,
    VerificationError,
)
from .fixtures import REFERENCE_TABLE, ReferenceCase
from .pst_analyzer import PstResult, TransferKind, classify
from .spectral_engine import WeightVector, eigenvalues_from_weights
from .walk_oracle import (
    PST_THRESHOLD,
    VerificationReport,
    fidelity,
    transition_spectral,
    verify_result,
)

DOT_DIMENSION_LIMIT = 8
# Only these commands classify; a domain error anywhere else is an input error.
_CLASSIFYING_COMMANDS = ("pst", "verify")


class UsageError(CubelikeError):
    """Malformed command-line input; maps to exit code 2."""


@dataclass
class JobSpec:
    """One parsed CLI invocation."""

    command: str
    z: list | None = None
    d: int | None = None
    time: float = math.pi / 2
    json_output: bool = False
    one_based: bool = True
    pairs: tuple[tuple[int, int], ...] = ()
    dot_path: str | None = None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubelike",
        description="Exact spectra and perfect-state-transfer analysis of weighted cubelike graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", metavar="FILE", help="JSON input file ('-' for stdin)")
    common.add_argument(
        "--weights", metavar="CSV",
        help="weights as a comma-separated list, e.g. 0,1,-7,-10; "
        "a list may start with a negative weight (--weights -1,2,3,4 or --weights=-1,2,3,4)",
    )
    common.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    common.add_argument("--time", type=float, default=None, metavar="T", help="walk time (default pi/2)")
    indexing = common.add_mutually_exclusive_group()
    indexing.add_argument(
        "--one-based", dest="one_based", action="store_true", default=None,
        help="label vertices 1..n (default for text output)",
    )
    indexing.add_argument(
        "--zero-based", dest="one_based", action="store_false",
        help="label vertices 0..n-1 (default for JSON output)",
    )

    sub.add_parser("eigs", parents=[common], help="print the exact spectrum")
    sub.add_parser("pst", parents=[common], help="classify and list transfer pairs")
    simulate = sub.add_parser("simulate", parents=[common], help="print |U(t)| for vertex pairs")
    simulate.add_argument(
        "--pair", action="append", default=[], metavar="U,V",
        help="vertex pair to evaluate (repeatable)",
    )
    sub.add_parser("verify", parents=[common], help="verify the classification numerically")
    export = sub.add_parser("export", parents=[common], help="write the graph as DOT")
    export.add_argument("--dot", required=True, metavar="FILE", help="output DOT file")
    sub.add_parser("table", help="recompute the built-in reference table")

    return parser


# argparse reads a value such as "-1,2,3,4" as an unknown option.
_NEGATIVE_NUMBER_START = re.compile(r"-\.?\d")


def _attach_negative_weights(argv: list[str]) -> list[str]:
    """Glue --weights to a following list that starts with a negative number."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] == "--weights" and _NEGATIVE_NUMBER_START.match(token):
            out[-1] = f"--weights={token}"
        else:
            out.append(token)
    return out


def _parse_csv_weights(text: str) -> list:
    out = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise UsageError("empty entry in --weights list")
        try:
            out.append(int(token))
        except ValueError:
            try:
                out.append(float(token))
            except ValueError as exc:
                raise UsageError(f"cannot parse weight {token!r}") from exc
    return out


def _load_input(args) -> tuple[list, int | None, int | float | None]:
    """Resolve (z, d, time) from --weights, --input, or stdin JSON."""
    if args.weights is not None and args.input is not None:
        raise UsageError("give either --input or --weights, not both")
    if args.weights is not None:
        return _parse_csv_weights(args.weights), None, None
    if args.input is not None and args.input != "-":
        try:
            with open(args.input, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise UsageError(f"cannot read {args.input}: {exc}") from exc
    else:
        text = sys.stdin.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"invalid JSON input: {exc}") from exc
    if not isinstance(data, dict) or "z" not in data:
        raise UsageError('JSON input must be an object with a "z" array')
    z = data["z"]
    if not isinstance(z, list) or not z:
        raise UsageError('"z" must be a non-empty array of numbers')
    d = data.get("d")
    if d is not None and (not isinstance(d, int) or isinstance(d, bool)):
        raise UsageError('"d" must be an integer')
    time = data.get("time")
    if time is not None and (isinstance(time, bool) or not isinstance(time, (int, float))):
        raise UsageError('"time" must be a number')
    return z, d, time


def _finite_time(value) -> float:
    """The walk time as a float; NaN, infinities and huge integers are usage errors."""
    try:
        time = float(value)
    except OverflowError as exc:
        raise UsageError("time must be a finite number") from exc
    if not math.isfinite(time):
        raise UsageError(f"time must be a finite number, got {time!r}")
    return time


def _parse_pairs(raw: list[str]) -> tuple[tuple[int, int], ...]:
    pairs = []
    for item in raw:
        bits = item.split(",")
        if len(bits) != 2:
            raise UsageError(f"--pair expects U,V, got {item!r}")
        try:
            pairs.append((int(bits[0]), int(bits[1])))
        except ValueError as exc:
            raise UsageError(f"--pair expects integers, got {item!r}") from exc
    return tuple(pairs)


def job_from_args(args) -> JobSpec:
    if args.command == "table":
        return JobSpec(command="table")
    z, d, json_time = _load_input(args)
    time = math.pi / 2
    if json_time is not None:
        time = json_time
    if args.time is not None:
        time = args.time
    one_based = args.one_based if args.one_based is not None else not args.json
    job = JobSpec(
        command=args.command,
        z=z,
        d=d,
        time=_finite_time(time),
        json_output=args.json,
        one_based=one_based,
        pairs=_parse_pairs(getattr(args, "pair", [])),
        dot_path=getattr(args, "dot", None),
    )
    return job


def _weight_vector(job: JobSpec) -> WeightVector:
    try:
        wv = WeightVector.from_values(job.z)
    except CubelikeError as exc:
        raise UsageError(str(exc)) from exc
    if job.d is not None and job.d != wv.d:
        raise UsageError(f'"d" is {job.d} but the weight list has length {wv.n} = 2**{wv.d}')
    return wv


def _fmt_number(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _eig_text(values) -> str:
    return "[" + ", ".join(_fmt_number(v) for v in values) + "]"


def _eig_json(values) -> list:
    return [int(v) if isinstance(v, (int, np.integer)) else float(v) for v in values]


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _indexing_label(one_based: bool) -> str:
    return "one-based" if one_based else "zero-based"


def _pairs_out(result: PstResult, offset: int) -> list[list[int]]:
    if result.pairs is None:
        return []
    return [[int(u) + offset, int(v) + offset] for u, v in result.pairs]


def _sigma_line(result: PstResult) -> str:
    return f"sigma: {result.sigma.bitstring} (decimal {result.sigma.bits})"


def _kind_line(result: PstResult) -> str:
    if result.kind is TransferKind.PERIODIC:
        return "kind: periodic with period dividing pi/2"
    return "kind: perfect state transfer at t = pi/2"


def _run_eigs(job: JobSpec) -> tuple[int, str]:
    wv = _weight_vector(job)
    spectrum = eigenvalues_from_weights(wv)
    if job.json_output:
        return 0, _json_dump(
            {
                "indexing": _indexing_label(job.one_based),
                "eigenvalues": _eig_json(spectrum.values),
            }
        )
    return 0, f"eigenvalues: {_eig_text(spectrum.values)}"


def _run_pst(job: JobSpec) -> tuple[int, str]:
    result = classify(_weight_vector(job))
    offset = 1 if job.one_based else 0
    if job.json_output:
        return 0, _json_dump(
            {
                "indexing": _indexing_label(job.one_based),
                "eigenvalues": _eig_json(result.spectrum.values),
                "sigma": result.sigma.bits,
                "kind": result.kind.value,
                "pairs": _pairs_out(result, offset),
            }
        )
    lines = [
        f"indexing: {_indexing_label(job.one_based)}",
        f"eigenvalues: {_eig_text(result.spectrum.values)}",
        _sigma_line(result),
        _kind_line(result),
    ]
    if result.pairs is None:
        lines.append("pairs: none (every vertex returns to itself at t = pi/2)")
    else:
        rendered = ", ".join(f"({u}, {v})" for u, v in _pairs_out(result, offset))
        lines.append(f"pairs: {rendered}")
    return 0, "\n".join(lines)


def _resolve_pairs(job: JobSpec, n: int) -> list[tuple[int, int]]:
    if not job.pairs:
        raise UsageError("simulate needs at least one --pair U,V")
    offset = 1 if job.one_based else 0
    resolved = []
    for a, b in job.pairs:
        u, v = a - offset, b - offset
        if not (0 <= u < n and 0 <= v < n):
            raise UsageError(
                f"pair ({a}, {b}) out of range for {n} vertices "
                f"({_indexing_label(job.one_based)})"
            )
        resolved.append((u, v))
    return resolved


def _run_simulate(job: JobSpec) -> tuple[int, str]:
    wv = _weight_vector(job)
    pairs = _resolve_pairs(job, wv.n)
    transition = transition_spectral(wv, job.time)
    offset = 1 if job.one_based else 0
    moduli = [fidelity(transition, u, v) for u, v in pairs]
    if job.json_output:
        return 0, _json_dump(
            {
                "indexing": _indexing_label(job.one_based),
                "fidelities": [
                    {"pair": [u + offset, v + offset], "modulus": m}
                    for (u, v), m in zip(pairs, moduli)
                ],
            }
        )
    lines = [
        f"indexing: {_indexing_label(job.one_based)}",
        f"time: {job.time!r}",
    ]
    for (u, v), m in zip(pairs, moduli):
        lines.append(f"|U(t)[{v + offset}, {u + offset}]| = {m!r}")
    return 0, "\n".join(lines)


def _verify_lines(report: VerificationReport, offset: int) -> list[str]:
    lines = [f"route agreement: max |spectral - series| = {report.route_delta:.3e}"]
    for c in report.checks:
        status = "ok" if c.ok else "FAIL"
        lines.append(
            f"pair ({c.u + offset}, {c.v + offset}): fidelity {c.fidelity_spectral:.12f} "
            f"(series {c.fidelity_series:.12f}), leakage {c.leakage:.3e} .. {status}"
        )
    return lines


def _run_verify(job: JobSpec) -> tuple[int, str]:
    wv = _weight_vector(job)
    result = classify(wv)
    offset = 1 if job.one_based else 0
    failed = None
    try:
        report = verify_result(wv, result)
    except VerificationError as exc:
        if exc.report is None:
            raise
        report = exc.report
        failed = str(exc)
    if job.json_output:
        payload = {
            "indexing": _indexing_label(job.one_based),
            "eigenvalues": _eig_json(result.spectrum.values),
            "sigma": result.sigma.bits,
            "kind": result.kind.value,
            "pairs": _pairs_out(result, offset),
            "fidelities": [c.fidelity_spectral for c in report.checks],
            "checks": [
                {
                    "pair": [c.u + offset, c.v + offset],
                    "fidelity_spectral": c.fidelity_spectral,
                    "fidelity_series": c.fidelity_series,
                    "leakage": c.leakage,
                    "ok": c.ok,
                }
                for c in report.checks
            ],
        }
        return (0 if report.ok else 1), _json_dump(payload)
    lines = [
        f"indexing: {_indexing_label(job.one_based)}",
        _sigma_line(result),
        _kind_line(result),
    ]
    lines.extend(_verify_lines(report, offset))
    if report.ok:
        lines.append(
            f"verification: PASS ({len(report.checks)} checks, threshold {PST_THRESHOLD})"
        )
        return 0, "\n".join(lines)
    lines.append("verification: FAIL")
    if failed:
        lines.append(failed)
    return 1, "\n".join(lines)


def _dot_text(wv: WeightVector) -> tuple[str, int]:
    n = wv.n
    z = wv.values
    lines = [f"graph cubelike_d{wv.d} {{", "  node [shape=circle];"]
    for u in range(n):
        lines.append(f'  "{format(u, f"0{wv.d}b")}";')
    edges = 0
    if z[0] != 0:
        for u in range(n):
            name = format(u, f"0{wv.d}b")
            lines.append(f'  "{name}" -- "{name}" [label="{_fmt_number(z[0])}"];')
            edges += 1
    for h in range(1, n):
        if z[h] == 0:
            continue
        label = _fmt_number(z[h])
        for u in range(n):
            v = u ^ h
            if u < v:
                lines.append(
                    f'  "{format(u, f"0{wv.d}b")}" -- "{format(v, f"0{wv.d}b")}" '
                    f'[label="{label}"];'
                )
                edges += 1
    lines.append("}")
    return "\n".join(lines) + "\n", edges


def _run_export(job: JobSpec) -> tuple[int, str]:
    wv = _weight_vector(job)
    if wv.d > DOT_DIMENSION_LIMIT:
        raise UsageError(f"DOT export limited to d <= {DOT_DIMENSION_LIMIT}, got {wv.d}")
    text, edges = _dot_text(wv)
    try:
        with open(job.dot_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {job.dot_path}: {exc}") from exc
    return 0, f"wrote {job.dot_path}: {wv.n} vertices, {edges} edges"


def check_reference_case(case: ReferenceCase) -> tuple[bool, str]:
    """Recompute one reference row; returns (ok, status line)."""
    wv = WeightVector.from_values(list(case.weights))
    result = classify(wv)
    computed = tuple(int(x) for x in result.spectrum.values)
    if computed != case.eigenvalues:
        k = next(i for i, (a, b) in enumerate(zip(computed, case.eigenvalues)) if a != b)
        return False, (
            f"row {case.index} (d={case.d}): FAIL eigenvalue mismatch at k={k}: "
            f"computed {computed[k]}, expected {case.eigenvalues[k]}"
        )
    if result.kind is TransferKind.PERIODIC:
        got_pairs = {(u, u) for u in range(1, wv.n + 1)}
    else:
        got_pairs = {(int(u) + 1, int(v) + 1) for u, v in result.pairs}
    expected_pairs = {(min(a, b), max(a, b)) for a, b in case.pairs_one_based}
    if got_pairs != expected_pairs:
        extra = sorted(got_pairs - expected_pairs)
        missing = sorted(expected_pairs - got_pairs)
        return False, (
            f"row {case.index} (d={case.d}): FAIL pair mismatch: "
            f"unexpected {extra}, missing {missing}"
        )
    try:
        verify_result(wv, result)
    except VerificationError as exc:
        return False, f"row {case.index} (d={case.d}): FAIL oracle check: {exc}"
    kind = "periodic" if result.kind is TransferKind.PERIODIC else f"sigma={result.sigma.bits}"
    return True, (
        f"row {case.index} (d={case.d}): PASS "
        f"({kind}, eigenvalues exact, fidelity >= {PST_THRESHOLD})"
    )


def run_table() -> tuple[int, str]:
    """Recompute every reference row; exit 1 with a diff on any mismatch."""
    lines = []
    ok = True
    for case in REFERENCE_TABLE:
        case_ok, line = check_reference_case(case)
        ok = ok and case_ok
        lines.append(line)
    lines.append(
        f"reference table: {'PASS' if ok else 'FAIL'} ({len(REFERENCE_TABLE)} rows)"
    )
    return (0 if ok else 1), "\n".join(lines)


def run(job: JobSpec) -> tuple[int, str]:
    """Execute one job; returns (exit status, output text)."""
    if job.command == "table":
        return run_table()
    if job.command == "eigs":
        return _run_eigs(job)
    if job.command == "pst":
        return _run_pst(job)
    if job.command == "simulate":
        return _run_simulate(job)
    if job.command == "verify":
        return _run_verify(job)
    if job.command == "export":
        return _run_export(job)
    raise UsageError(f"unknown command {job.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_attach_negative_weights(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        job = job_from_args(args)
        code, text = run(job)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, ParityError, ConsistencyError) as exc:
        if args.command not in _CLASSIFYING_COMMANDS:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"classification failed: {exc}", file=sys.stderr)
        return 1
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except CubelikeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if text:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
