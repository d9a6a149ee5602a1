"""Benchmark worker: one process serving a list of CLI requests in order.

Usage: python3 worker.py MANIFEST [--trace]

Protocol on stdin/stdout, one JSON object per line:

1. After importing ``cechtower.cli`` and loading the manifest the worker
   writes ``{"ready": ..., "backend": ..., "python": ...}``.
2. It then reads one line: ``go`` serves every request, anything else
   exits at once (a set-up-only probe).
3. Per request it writes ``{"i", "rc", "s", "stdout", "stderr"}``, where
   ``s`` is the wall time of ``cechtower.cli.main`` and ``stdout`` what
   it printed.
4. Finally it writes ``{"done": true, "peak_rss_kb": ..., "trace": ...}``;
   ``trace`` holds the per-layer summary when run with ``--trace``.

The CLI serves one command per call; requests run one after another in
this process, with no threads.
"""

import contextlib
import io
import json
import platform
import resource
import sys
import time
import traceback


def _emit(channel, obj) -> None:
    channel.write(json.dumps(obj) + "\n")
    channel.flush()


def main() -> int:
    manifest_path = sys.argv[1]
    tracing = "--trace" in sys.argv[2:]
    import cechtower
    from cechtower import cli

    with open(manifest_path, encoding="utf-8") as fh:
        requests = json.load(fh)["requests"]
    channel = sys.stdout
    _emit(channel, {"ready": True, "backend": cechtower.KERNEL_BACKEND,
                    "python": platform.python_version()})
    if sys.stdin.readline().strip() != "go":
        return 0

    tracer = None
    if tracing:
        import layertrace
        tracer = layertrace.Tracer()
        tracer.install()
    for i, req in enumerate(requests):
        argv = [req["command"], "--input", req["input"], *req["flags"]]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as e:
                rc = e.code if isinstance(e.code, int) else 1
            except Exception:  # reported as a failed request, not a crash
                traceback.print_exc()
                rc = -1
        elapsed = time.perf_counter() - start
        _emit(channel, {"i": i, "rc": rc, "s": elapsed, "stdout": out.getvalue(),
                        "stderr": err.getvalue()[-2000:]})
    summary = None
    if tracer is not None:
        tracer.uninstall()
        summary = tracer.summary()
        summary["trace.root_s"] = tracer.root_time()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    _emit(channel, {"done": True, "peak_rss_kb": peak_kb, "trace": summary})
    return 0


if __name__ == "__main__":
    sys.exit(main())
