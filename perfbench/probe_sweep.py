"""Layer-probe sweep: per-layer timings of single public calls, in one command.

Run from the repository root:

    python3 perfbench/probe_sweep.py [--repeats 5]

It reproduces the per-layer baselines the roadmap quotes. Each entry is
one public call on a fixed-seed input, timed --repeats times after one
untimed warm-up call, and reported as best and median:

- fwht, sigma_from_weights, sigma_from_spectrum, the PstResult
  re-validation that classify pays, classify and eigenvalues_from_weights
  at d = 2, 8, 10 and 20;
- transition_spectral, transition_taylor and verify_result at d = 10;
- `import cubelike.cli` in a fresh interpreter, and `cubelike pst` end to
  end in a subprocess.

Dense work at d = 13 is left out on purpose: one complex 8192 x 8192
matrix is 1 GiB, transition_spectral holds several of them at once, and
the 8 GiB machine this was written on shares its memory with other jobs.

Lines starting with '#' are for people; the last line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from run import SRC, worker_env

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from cubelike import (  # noqa: E402
    TRANSFER_TIME,
    PstResult,
    adjacency_from_weights,
    classify,
    eigenvalues_from_weights,
    fwht,
    sigma_from_spectrum,
    sigma_from_weights,
    transition_spectral,
    transition_taylor,
    verify_result,
)

import machine  # noqa: E402

VECTOR_DIMS = (2, 8, 10, 20)
DENSE_DIM = 10
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import cubelike.cli; "
    "print(time.perf_counter() - t)"
)


def timed(fn, repeats: int) -> list[float]:
    fn()
    out = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        out.append(time.perf_counter() - start)
    return out


def vector_probes(d: int, rng) -> dict:
    z = rng.integers(-1000, 1001, 1 << d)
    spectrum = eigenvalues_from_weights(z)
    result = classify(z)
    return {
        "fwht": lambda: fwht(z),
        "sigma_from_weights": lambda: sigma_from_weights(z),
        "sigma_from_spectrum": lambda: sigma_from_spectrum(spectrum),
        "PstResult": lambda: PstResult(sigma=result.sigma, kind=result.kind, pairs=result.pairs),
        "classify": lambda: classify(z),
        "eigenvalues_from_weights": lambda: eigenvalues_from_weights(z),
    }


def dense_probes(d: int, rng) -> dict:
    z = rng.integers(-50, 51, 1 << d)
    adjacency = adjacency_from_weights(z)
    result = classify(z)
    return {
        "transition_spectral": lambda: transition_spectral(z, TRANSFER_TIME),
        "transition_taylor": lambda: transition_taylor(adjacency, TRANSFER_TIME),
        "verify_result": lambda: verify_result(z, result),
    }


def cli_probes(repeats: int) -> dict:
    env = worker_env()

    def run(argv) -> subprocess.CompletedProcess:
        return subprocess.run(argv, capture_output=True, text=True, env=env, check=True, timeout=60)

    imports = [float(run([sys.executable, "-c", IMPORT_SNIPPET]).stdout) for _ in range(repeats + 1)]
    pst = [sys.executable, "-m", "cubelike", "pst", "--weights", "0,1,-7,-10"]
    walls = timed(lambda: run(pst), repeats)
    return {"cli.import": imports[1:], "cli.pst_end_to_end": walls}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="per-layer probe sweep")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(0)
    rows = []
    for d in VECTOR_DIMS:
        for name, fn in vector_probes(d, rng).items():
            rows.append((name, d, timed(fn, args.repeats)))
    for name, fn in dense_probes(DENSE_DIM, rng).items():
        rows.append((name, DENSE_DIM, timed(fn, args.repeats)))
    for name, samples in cli_probes(args.repeats).items():
        rows.append((name, None, samples))

    facts = machine.facts()
    print(f"# machine {json.dumps(facts, sort_keys=True)}")
    print(f"# {'layer':28} {'d':>3} {'best_ms':>10} {'median_ms':>10}")
    table = []
    for name, d, samples in rows:
        best, median = min(samples) * 1e3, statistics.median(samples) * 1e3
        print(f"# {name:28} {'' if d is None else d:>3} {best:10.3f} {median:10.3f}")
        table.append({"layer": name, "d": d, "best_ms": best, "median_ms": median, "repeats": len(samples)})
    print(json.dumps({"machine": facts, "probes": table}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
