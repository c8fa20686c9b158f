"""`python -m cubelike` with timestamps, for the traced cli_requests run.

Does what the package's __main__ does (import cubelike.cli, run main on
the command line, exit with its status) and then writes one line to
stderr: the mark, then monotonic ns readings at script start, after the
import and after main returned. run.py's worker turns them into the
cli.import and cli.main spans.
"""

import sys
import time

BOOT = time.monotonic_ns()


def main() -> int:
    import cubelike.cli as cli

    imported = time.monotonic_ns()
    code = cli.main(sys.argv[1:])
    done = time.monotonic_ns()
    sys.stdout.flush()
    print(f"perfbench-cli-probe {BOOT} {imported} {done}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
