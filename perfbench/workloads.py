"""The four workloads: their input streams, the op each input gets, its check.

Every workload is a closed loop with one caller: the next op starts only
after the previous one has returned and been checked. Inputs come from the
seed alone and are never repeated within a run, so the share of repeated
inputs is 0 and no workload can profit from a cache; a claim that relies
on caching needs a new workload.

Each op calls only public functions of the package. With tracing on, a
span surrounds every such call, and composite calls are followed by probe
calls on the same input (see probe_classify and probe_verify). Every
output is compared with oracle.py, which does not use the package's
transform; a disagreement raises WrongAnswer.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cubelike import (
    TRANSFER_TIME,
    TransferKind,
    WeightVector,
    adjacency_from_weights,
    classify,
    eigenvalues_from_weights,
    fidelity,
    fwht,
    reconstruct,
    select_index_set,
    sigma_from_spectrum,
    sigma_from_weights,
    sign_matrix,
    transition_spectral,
    transition_taylor,
    verify_result,
    walsh_basis,
)

import oracle

CLI_PROBE = Path(__file__).resolve().parent / "cli_probe.py"
CLI_PROBE_MARK = "perfbench-cli-probe"
# Tolerance for float answers compared with the float reference.
FLOAT_ATOL = 1e-9
PERIODIC_PAIRS_LINE = "pairs: none (every vertex returns to itself at t = pi/2)"


class WrongAnswer(Exception):
    """An op returned a value that disagrees with the reference."""


def _require(ok, message: str) -> None:
    if not ok:
        raise WrongAnswer(message)


class Margins:
    """Input and accuracy margins of the checked outputs; none is a timing."""

    def __init__(self):
        self.classified = 0
        self.transfers = 0
        self.route_delta_max = 0.0
        self.min_fidelity = 1.0
        self.max_leakage = 0.0

    def kind(self, kind: TransferKind) -> None:
        self.classified += 1
        self.transfers += kind is TransferKind.PERFECT_STATE_TRANSFER

    def evidence(self, fidelities, leakages, route_delta: float | None = None) -> None:
        self.min_fidelity = min([self.min_fidelity, *fidelities])
        self.max_leakage = max([self.max_leakage, *leakages])
        if route_delta is not None:
            self.route_delta_max = max(self.route_delta_max, route_delta)

    @property
    def pst_share(self) -> float:
        return self.transfers / self.classified if self.classified else 0.0


def _time_off_quarter(rng) -> float:
    """A walk time in [0.1, 3], away from pi/2 so the float exp route runs."""
    while True:
        t = float(rng.uniform(0.1, 3.0))
        if abs(t - TRANSFER_TIME) > 0.01:
            return t


def check_result(result, n: int, sigma: int, margins: Margins) -> None:
    _require(result.sigma.bits == sigma, f"sigma {result.sigma.bits}, reference {sigma}")
    if sigma == 0:
        _require(result.kind is TransferKind.PERIODIC, "sigma 0 must be periodic")
        _require(result.pairs is None, "periodic result carries pairs")
    else:
        _require(result.kind is TransferKind.PERFECT_STATE_TRANSFER, "nonzero sigma must be PST")
        _require(np.array_equal(result.pairs, oracle.transfer_pairs(n, sigma)), "pairs differ")
    margins.kind(result.kind)


def probe_classify(tracer, parent, z) -> None:
    """The stages classify runs, called one by one on the same input.

    sigma_from_spectrum gets the raw fwht output, so its span also holds
    the Spectrum validation that classify pays inside
    eigenvalues_from_weights. classify_self is then what is left: the
    route comparison, the pair array and the PstResult validation.
    """
    with tracer.span("spectral_engine.normalize", parent, probe=True):
        wv = WeightVector.from_values(z)
    with tracer.span("spectral_engine.fwht", parent, probe=True):
        lam = fwht(wv.values)
    with tracer.span("pst_analyzer.sigma_from_spectrum", parent, probe=True):
        sigma_from_spectrum(lam)
    with tracer.span("pst_analyzer.sigma_from_weights", parent, probe=True):
        sigma_from_weights(wv)
    # Computed, not measured: n*d butterfly adds and one 8-byte read and
    # write of every entry per stage.
    tracer.count("spectral_engine.fwht_ops", wv.n * wv.d)
    tracer.count("spectral_engine.fwht_bytes", 16 * wv.n * wv.d)


def probe_verify(tracer, parent, z) -> int:
    """The dense stages of verify_result; returns the bytes of its two U(pi/2)."""
    with tracer.span("spectral_engine.adjacency", parent, probe=True):
        adjacency = adjacency_from_weights(z)
    with tracer.span("walk_oracle.transition_spectral_quarter", parent, probe=True):
        spectral = transition_spectral(z, TRANSFER_TIME)
    with tracer.span("walk_oracle.transition_taylor", parent, probe=True):
        series = transition_taylor(adjacency, TRANSFER_TIME)
    return spectral.matrix.nbytes + series.matrix.nbytes


@dataclass(frozen=True)
class Vector:
    """A weight vector; ks lists spectrum entries to check by direct sums."""

    z: np.ndarray
    integral: bool
    ks: np.ndarray | None = None


class Workload:
    name = ""
    why = ""
    warmup = 1
    # Ops per timing window: half a second to two seconds of work, and a
    # whole number of the stream's shuffled blocks, so that every window
    # holds the same mix (see worker.end_to_end).
    window = 4
    # peak_rss_mb is read off the worker itself, or off its child processes.
    rss_of_children = False

    def stream(self, rng, tiny: bool):
        raise NotImplementedError

    def op(self, x, tracer):
        raise NotImplementedError

    def check(self, x, out, margins: Margins) -> None:
        raise NotImplementedError


class VectorWorkload(Workload):
    """Spectrum (and classification, for integer weights) of one vector per op."""

    def op(self, x: Vector, tracer):
        with tracer.span("spectral_engine.eigenvalues"):
            spectrum = eigenvalues_from_weights(x.z)
        if not x.integral:
            return spectrum, None
        with tracer.span("pst_analyzer.classify") as parent:
            result = classify(x.z)
        if tracer.enabled:
            probe_classify(tracer, parent, x.z)
        return spectrum, result

    def check(self, x: Vector, out, margins: Margins) -> None:
        spectrum, result = out
        z, n = x.z, x.z.size
        lam = spectrum.values
        if not x.integral:
            _require(not spectrum.integral, "float weights gave an integer spectrum")
            atol = FLOAT_ATOL * n * float(np.abs(z).max())
            _require(np.allclose(lam, oracle.walsh_spectrum(z), rtol=0, atol=atol), "float spectrum differs")
            return
        _require(spectrum.integral and lam.dtype == np.int64, "integer weights gave a float spectrum")
        if x.ks is None:
            _require(np.array_equal(lam, oracle.walsh_spectrum(z)), "spectrum differs")
        else:
            _require(int(lam[0]) == int(z.sum()), "lambda[0] != sum(z)")
            _require(int(lam.sum()) == n * int(z[0]), "sum(lambda) != n * z[0]")
            _require(np.array_equal(lam[x.ks], oracle.walsh_entries(z, x.ks)), "spectrum entries differ")
        check_result(result, n, oracle.sigma_by_xor(z), margins)


class SweepSmall(VectorWorkload):
    name = "sweep_small"
    why = (
        "per-call overhead dominates (normalisation, guards, dataclass validation, "
        "GroupElement); the transform does little work at d <= 10"
    )
    warmup = 50
    window = 2500

    def stream(self, rng, tiny):
        top = 4 if tiny else 10
        while True:
            # Four integer vectors and one float vector in every block of five.
            for is_float in rng.permutation(5) == 0:
                n = 1 << int(rng.integers(2, top + 1))
                if is_float:
                    yield Vector(rng.uniform(-1000.0, 1000.0, n), False)
                else:
                    yield Vector(rng.integers(-1000, 1001, n), True)


class LargeSpectrum(VectorWorkload):
    name = "large_spectrum"
    why = (
        "arithmetic dominates at d = 20 (fwht twice, both sigma routes); "
        "per-call overhead is negligible, the opposite of sweep_small"
    )

    def stream(self, rng, tiny):
        n = 1 << (12 if tiny else 20)
        while True:
            z = rng.integers(-(10**6), 10**6 + 1, n)
            yield Vector(z, True, rng.integers(0, n, 16))


@dataclass(frozen=True)
class DenseCase:
    """Weights, a walk time t != pi/2, and the entries of U(t) to read."""

    z: np.ndarray
    t: float
    column: int
    rows: np.ndarray


class VerifyDense(Workload):
    name = "verify_dense"
    why = (
        "dense n x n walk matrices from both oracles dominate; these are what "
        "a length-n kernel would replace"
    )
    warmup = 3
    window = 12

    def stream(self, rng, tiny):
        dims = (3, 4, 5) if tiny else (7, 8, 9)
        while True:
            # Equal thirds of each dimension, shuffled within each block of three.
            for d in rng.permutation(dims):
                n = 1 << int(d)
                yield DenseCase(
                    z=rng.integers(-50, 51, n),
                    t=_time_off_quarter(rng),
                    column=int(rng.integers(n)),
                    rows=rng.integers(0, n, 4),
                )

    def op(self, x, tracer):
        d = x.z.size.bit_length() - 1
        with tracer.span("pst_analyzer.classify") as parent:
            result = classify(x.z)
        if tracer.enabled:
            probe_classify(tracer, parent, x.z)
        with tracer.span("walk_oracle.verify") as parent:
            report = verify_result(x.z, result)
        dense_bytes = probe_verify(tracer, parent, x.z) if tracer.enabled else 0
        with tracer.span("walk_oracle.transition_spectral_exp"):
            walk = transition_spectral(x.z, x.t)
        fidelities = []
        for v in x.rows:
            with tracer.span("walk_oracle.fidelity"):
                fidelities.append(fidelity(walk, x.column, v))
        tracer.count("walk_oracle.dense_bytes", dense_bytes + walk.matrix.nbytes)
        with tracer.span("eigenbasis_builder.walsh_basis"):
            basis = walsh_basis(d)
        if tracer.enabled:
            with tracer.span("boolean_domain.sign_matrix", probe=True):
                sign_matrix(d)
        with tracer.span("eigenbasis_builder.select_index_set"):
            chosen = select_index_set(basis)
        fixed = x.z[np.bitwise_xor(chosen.rows, chosen.cols)]
        with tracer.span("eigenbasis_builder.reconstruct"):
            rebuilt = reconstruct(basis, chosen, fixed)
        return result, report, walk.matrix[:, x.column], fidelities, rebuilt

    def check(self, x, out, margins):
        result, report, column, fidelities, rebuilt = out
        z, n = x.z, x.z.size
        check_result(result, n, oracle.sigma_by_xor(z), margins)
        _require(report.ok, "verify_result reported a failed check")
        margins.evidence(
            [min(c.fidelity_spectral, c.fidelity_series) for c in report.checks],
            [c.leakage for c in report.checks],
            report.route_delta,
        )
        reference = oracle.transition_column(z, x.t, x.column)
        _require(np.allclose(column, reference, rtol=0, atol=FLOAT_ATOL), "U(t) column differs")
        _require(
            np.allclose(fidelities, np.abs(reference[x.rows]), rtol=0, atol=FLOAT_ATOL),
            "fidelity differs from |U(t)[v][u]|",
        )
        atol = FLOAT_ATOL * n * (1.0 + float(np.abs(z).max()))
        _require(np.allclose(rebuilt.a, oracle.adjacency(z), rtol=0, atol=atol), "rebuilt A differs")
        _require(np.allclose(rebuilt.x, oracle.walsh_spectrum(z), rtol=0, atol=atol), "rebuilt spectrum differs")


@dataclass(frozen=True)
class Request:
    """One CLI call; pairs are 0-based whatever the output indexing."""

    command: str
    json_output: bool
    z: tuple[int, ...]
    time: float | None = None
    pairs: tuple[tuple[int, int], ...] = ()

    @property
    def offset(self) -> int:
        return 0 if self.json_output else 1

    def args(self) -> list[str]:
        args = [self.command] + (["--json"] if self.json_output else [])
        for u, v in self.pairs:
            args += ["--pair", f"{u + self.offset},{v + self.offset}"]
        return args

    def stdin(self) -> str:
        doc = {"d": len(self.z).bit_length() - 1, "z": list(self.z)}
        if self.time is not None:
            doc["time"] = self.time
        return json.dumps(doc)


def _eig_text(values) -> str:
    return "eigenvalues: [" + ", ".join(str(int(v)) for v in values) + "]"


class CliRequests(Workload):
    name = "cli_requests"
    why = (
        "start-up dominates each request (import cubelike.cli, mostly numpy); "
        "the only workload that measures the cli layer"
    )
    rss_of_children = True
    window = 8
    commands = ("eigs", "pst", "verify", "simulate")

    def stream(self, rng, tiny):
        top = 3 if tiny else 6
        while True:
            for command in rng.permutation(self.commands):
                n = 1 << int(rng.integers(2, top + 1))
                request = Request(
                    command=str(command),
                    json_output=bool(rng.integers(2)),
                    z=tuple(int(v) for v in rng.integers(-20, 21, n)),
                )
                if command == "simulate":
                    pairs = tuple((int(u), int(v)) for u, v in rng.integers(0, n, (2, 2)))
                    request = Request(
                        request.command, request.json_output, request.z,
                        _time_off_quarter(rng), pairs,
                    )
                yield request

    def op(self, x, tracer):
        if not tracer.enabled:
            proc = _run_cli([sys.executable, "-m", "cubelike", *x.args()], x)
            return proc.returncode, proc.stdout
        with tracer.span("cli.request") as parent:
            proc = _run_cli([sys.executable, str(CLI_PROBE), *x.args()], x)
        request = tracer.spans[parent]
        stamps = _probe_stamps(proc.stderr)
        if stamps is not None:
            boot, imported, done = stamps
            tracer.add("cli.import", boot, imported, parent)
            tracer.add("cli.main", imported, done, parent)
            tracer.derive("cli.process_overhead", (request.end - request.start - (done - boot)) / 1e9)
        return proc.returncode, proc.stdout

    def check(self, x, out, margins):
        code, stdout = out
        _require(code == 0, f"{x.command} exited with {code}")
        z = np.array(x.z, dtype=np.int64)
        n = z.size
        lam = oracle.walsh_spectrum(z)
        sigma = oracle.sigma_by_xor(z)
        pairs = (oracle.transfer_pairs(n, sigma) + x.offset).tolist() if sigma else []
        kind = TransferKind.PERFECT_STATE_TRANSFER if sigma else TransferKind.PERIODIC
        if x.command in ("pst", "verify"):
            margins.kind(kind)
        moduli = [abs(oracle.transition_column(z, x.time, u)[v]) for u, v in x.pairs]
        if x.json_output:
            doc = json.loads(stdout)
            _require(doc["indexing"] == "zero-based", "JSON output is not zero-based")
            if x.command != "simulate":
                _require(doc["eigenvalues"] == lam.tolist(), "eigenvalues differ")
            if x.command in ("pst", "verify"):
                _require(doc["sigma"] == sigma, "sigma differs")
                _require(doc["kind"] == kind.value, "kind differs")
                _require(doc["pairs"] == pairs, "pairs differ")
            if x.command == "verify":
                checks = doc["checks"]
                _require(len(checks) == (n // 2 if sigma else n), "wrong number of checks")
                _require(all(c["ok"] for c in checks), "a verification check failed")
                margins.evidence(
                    [min(c["fidelity_spectral"], c["fidelity_series"]) for c in checks],
                    [c["leakage"] for c in checks],
                )
            if x.command == "simulate":
                got = doc["fidelities"]
                _require([f["pair"] for f in got] == [[u, v] for u, v in x.pairs], "pairs differ")
                _require(
                    np.allclose([f["modulus"] for f in got], moduli, rtol=0, atol=FLOAT_ATOL),
                    "moduli differ",
                )
            return
        lines = stdout.splitlines()
        if x.command in ("eigs", "pst"):
            _require(_eig_text(lam) in lines, "eigenvalues differ")
        if x.command in ("pst", "verify"):
            bits = format(sigma, f"0{n.bit_length() - 1}b")
            _require(f"sigma: {bits} (decimal {sigma})" in lines, "sigma differs")
        if x.command == "pst":
            rendered = ", ".join(f"({u}, {v})" for u, v in pairs)
            expected = f"pairs: {rendered}" if sigma else PERIODIC_PAIRS_LINE
            _require(expected in lines, "pairs differ")
        if x.command == "verify":
            _require(lines[-1].startswith("verification: PASS"), "verification did not pass")
            agreement = [s for s in lines if s.startswith("route agreement:")]
            _require(len(agreement) == 1, "route agreement line missing")
            margins.evidence([], [], float(agreement[0].rsplit("=", 1)[1]))
        if x.command == "simulate":
            rows = [s.split(" = ") for s in lines if s.startswith("|U(t)[")]
            labels = [f"|U(t)[{v + 1}, {u + 1}]|" for u, v in x.pairs]
            _require([label for label, _ in rows] == labels, "simulate pairs differ")
            got = [float(value) for _, value in rows]
            _require(np.allclose(got, moduli, rtol=0, atol=FLOAT_ATOL), "moduli differ")


def _run_cli(argv: list[str], x: Request):
    # The child inherits PYTHONPATH and the BLAS thread settings from run.py.
    return subprocess.run(
        argv, input=x.stdin(), capture_output=True, text=True, timeout=60, check=False
    )


def _probe_stamps(stderr: str):
    for line in reversed(stderr.splitlines()):
        if line.startswith(CLI_PROBE_MARK):
            return tuple(int(v) for v in line.split()[1:4])
    return None


WORKLOADS = {w.name: w for w in (SweepSmall(), LargeSpectrum(), VerifyDense(), CliRequests())}
