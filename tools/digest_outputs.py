#!/usr/bin/env python3
"""Digest of every benchmark request's output, for checking that a change
leaves the CLI's answers byte-identical.

Usage, from any directory:

    python3 tools/digest_outputs.py > after.txt

The script serves every request of the three workloads of
``perfbench/workloads.py``, for seeds 1 and 4242 and draws 0-2 (2,490
requests), through ``cechtower.cli.main`` in one process, with each payload
written to a file and passed by ``--input`` as ``perfbench/worker.py``
does.  It imports the package from the ``src`` of the checkout it sits in
and reads the workloads from that checkout without changing them.  Per
request it prints one line:

    workload seed draw index command exit_code sha256(stdout) sha256(stderr)

To compare two commits, copy this file into ``tools/`` of a checkout of
the other commit, run it there too, and ``diff`` the two outputs; any line
that differs names a request whose output or exit code changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from cechtower import cli  # noqa: E402

SEEDS = (1, 4242)
DRAWS = (0, 1, 2)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _serve(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one ``cli.main`` call, with the
    worker's handling of SystemExit and of an escaping exception."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 1
        except Exception:  # reported in the digest, not a crash
            traceback.print_exc()
            rc = -1
    return rc, out.getvalue(), err.getvalue()


def main() -> int:
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as where:
        # Relative payload paths keep any message naming the input the
        # same from one run to the next.
        os.chdir(where)
        try:
            for workload in workloads.WORKLOADS:
                for seed in SEEDS:
                    for draw in DRAWS:
                        for i, req in enumerate(workloads.generate(workload, seed, draw)):
                            path = f"request{i:04d}.json"
                            with open(path, "w", encoding="utf-8") as fh:
                                fh.write(json.dumps(req["payload"], sort_keys=True))
                            rc, out, err = _serve([req["command"], "--input", path,
                                                   *req["flags"]])
                            print(f"{workload} {seed} {draw} {i} {req['command']} {rc} "
                                  f"{_sha(out)} {_sha(err)}")
        finally:
            os.chdir(start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
