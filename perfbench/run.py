#!/usr/bin/env python3
"""cechtower benchmark: seeded CLI workloads, checked end to end.

Usage, from the repository root:

    python3 perfbench/run.py --workload cech_torus --seed 1 --trace 0
    python3 perfbench/run.py --workload all --out bench.json

A run repeats rounds for ``--seconds``.  A round is one fresh worker
process (``worker.py``), so module caches start cold, serving every
request of the workload one after another through ``cechtower.cli.main``
with the payload passed by ``--input``.  Each response is checked by
``checks.py`` as it arrives.

With ``--trace 0`` the run reports the end-to-end metrics:

    wall_s       median round time, first request sent to last response checked
    req_p50_ms   median latency of one cli.main call, all rounds pooled
    req_p95_ms   95th percentile of the same sample (its size is printed)
    peak_rss_mb  median peak resident memory of a worker
    setup_s      median time from spawning a worker until it is ready to serve
                 (interpreter start, import cechtower.cli, manifest load),
                 over set-up-only probes and every round

With ``--trace 1`` it alternates untraced and traced rounds of the same
requests, requires their stdout to be byte-identical, and reports the
per-layer split from ``layertrace.py``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
same figures for people, with the kernel backend and the Python version.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
WORK_DIR = ROOT / ".perfbench_work"

SETUP_PROBES = 10
# A workload's rounds stop after --seconds; a round still running this long
# after that is cut and its unanswered requests count as failed.  With the
# default run length a one-workload run ends within 180 s.
OVERRUN_S = 120.0

END_TO_END_UNITS = {"wall_s": "s", "req_p50_ms": "ms", "req_p95_ms": "ms",
                    "peak_rss_mb": "MB", "setup_s": "s"}


class WorkerError(Exception):
    pass


class _LineReader:
    """Line reads from a pipe that give up at a deadline."""

    def __init__(self, pipe):
        self._fd = pipe.fileno()
        self._buf = b""
        self._sel = selectors.DefaultSelector()
        self._sel.register(self._fd, selectors.EVENT_READ)

    def readline(self, deadline: float) -> dict:
        while b"\n" not in self._buf:
            left = deadline - time.perf_counter()
            if left <= 0 or not self._sel.select(left):
                raise WorkerError("worker timed out")
            chunk = os.read(self._fd, 1 << 16)
            if not chunk:
                raise WorkerError("worker exited early")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def close(self) -> None:
        self._sel.close()


@dataclass
class Round:
    setup_s: float
    wall_s: float = 0.0
    latencies_s: list = field(default_factory=list)
    stdouts: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    peak_rss_kb: int = 0
    trace: Optional[dict] = None
    env: dict = field(default_factory=dict)


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    return env


def run_round(manifest: Path, requests: list, *, trace: bool, probe: bool,
              deadline: float) -> Round:
    """Spawn one worker; serve every request unless ``probe``."""
    start = time.perf_counter()
    cmd = [sys.executable, str(WORKER), str(manifest)] + (["--trace"] if trace else [])
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(),
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    reader = _LineReader(proc.stdout)
    rnd = None
    try:
        ready = reader.readline(deadline)
        rnd = Round(setup_s=time.perf_counter() - start,
                    env={"backend": ready["backend"], "python": ready["python"]})
        proc.stdin.write(b"quit\n" if probe else b"go\n")
        proc.stdin.flush()
        go = time.perf_counter()
        if not probe:
            for req in requests:
                resp = reader.readline(deadline)
                rnd.attempted += 1
                rnd.latencies_s.append(resp["s"])
                rnd.stdouts.append(resp["stdout"])
                problem = checks.check(req["expect"], resp["rc"], resp["stdout"])
                if problem:
                    rnd.failed += 1
                    detail = resp["stderr"].strip().splitlines()[-1:] or [""]
                    rnd.problems.append(f"request {resp['i']} ({req['command']}): "
                                        f"{problem} {detail[0]}".rstrip())
            rnd.wall_s = time.perf_counter() - go
            done = reader.readline(deadline)
            rnd.peak_rss_kb = done["peak_rss_kb"]
            rnd.trace = done["trace"]
        proc.stdin.close()
        proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except (WorkerError, subprocess.TimeoutExpired, json.JSONDecodeError) as e:
        if rnd is None:
            raise WorkerError(f"worker did not start: {e}") from None
        missing = len(requests) - rnd.attempted if not probe else 0
        rnd.attempted += missing
        rnd.failed += missing
        rnd.problems.append(f"{e} ({missing} requests unanswered)")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        reader.close()
        proc.stdout.close()
        if not proc.stdin.closed:
            proc.stdin.close()
    if proc.returncode not in (0, None) and not rnd.problems:
        rnd.problems.append(f"worker exited with code {proc.returncode}")
    return rnd


def write_inputs(requests: list, where: Path) -> Path:
    """Payload files and the worker manifest for ``requests``, under ``where``."""
    where.mkdir(parents=True)
    entries = []
    for i, req in enumerate(requests):
        path = where / f"request{i:04d}.json"
        path.write_text(json.dumps(req["payload"], sort_keys=True), encoding="utf-8")
        entries.append({"command": req["command"], "flags": req["flags"],
                        "input": str(path)})
    manifest = where / "manifest.json"
    manifest.write_text(json.dumps({"requests": entries}), encoding="utf-8")
    return manifest


class Inputs:
    """The seeded inputs of a run: round k serves draw k."""

    def __init__(self, workload: str, seed: int, where: Path):
        self.workload, self.seed, self.where = workload, seed, where
        self._draws: dict[int, tuple[Path, list]] = {}

    def draw(self, k: int) -> tuple[Path, list]:
        if k not in self._draws:
            requests = workloads.generate(self.workload, self.seed, k)
            self._draws[k] = (write_inputs(requests, self.where / f"draw{k}"),
                              requests)
        return self._draws[k]


def p95(values: list) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def measure(workload: str, seed: int, seconds: float, trace: bool,
            hard_deadline: float) -> dict:
    inputs = Inputs(workload, seed, WORK_DIR / f"{workload}-{seed}-{os.getpid()}")
    try:
        if trace:
            return _measure_traced(inputs, seconds, hard_deadline)
        return _measure_plain(inputs, seconds, hard_deadline)
    finally:
        shutil.rmtree(inputs.where, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass


def _rounds_until(seconds: float, hard_deadline: float, one_round) -> list:
    """Call ``one_round(k)`` for k = 0, 1, ... until another call would
    overrun ``seconds``."""
    begin = time.perf_counter()
    rounds, durations = [], []
    while True:
        started = time.perf_counter()
        rounds.append(one_round(len(rounds)))
        now = time.perf_counter()
        durations.append(now - started)
        typical = statistics.median(durations)
        if now - begin + typical > seconds or now + 2 * typical > hard_deadline:
            return rounds


def _measure_plain(inputs: Inputs, seconds: float, hard_deadline: float) -> dict:
    probes = [run_round(*inputs.draw(0), trace=False, probe=True,
                        deadline=hard_deadline) for _ in range(SETUP_PROBES)]
    rounds = _rounds_until(seconds, hard_deadline, lambda k: run_round(
        *inputs.draw(k), trace=False, probe=False, deadline=hard_deadline))
    latencies = [t for r in rounds for t in r.latencies_s]
    metrics = {
        "wall_s": statistics.median(r.wall_s for r in rounds),
        "req_p50_ms": 1000 * statistics.median(latencies),
        "req_p95_ms": 1000 * p95(latencies),
        "peak_rss_mb": statistics.median(r.peak_rss_kb for r in rounds) / 1024,
        "setup_s": statistics.median(r.setup_s for r in probes + rounds),
    }
    return {"rounds": rounds, "metrics": metrics,
            "units": END_TO_END_UNITS, "env": rounds[0].env,
            "samples": {"rounds": len(rounds), "requests": len(latencies),
                        "setups": len(probes) + len(rounds)}}


def _measure_traced(inputs: Inputs, seconds: float, hard_deadline: float) -> dict:
    def pair(k):
        plain = run_round(*inputs.draw(k), trace=False, probe=False,
                          deadline=hard_deadline)
        traced = run_round(*inputs.draw(k), trace=True, probe=False,
                           deadline=hard_deadline)
        differ = [i for i, (a, b) in enumerate(zip(plain.stdouts, traced.stdouts))
                  if a != b]
        if differ or len(plain.stdouts) != len(traced.stdouts):
            traced.failed += max(len(differ), 1)
            traced.problems.append(f"traced stdout differs from untraced stdout "
                                   f"on requests {differ[:10]}")
        return plain, traced

    pairs = _rounds_until(seconds, hard_deadline, pair)
    summaries = []
    for plain, traced in pairs:
        if traced.trace is None:
            continue
        s = dict(traced.trace)
        s["harness.self_s"] = traced.wall_s - s.pop("trace.root_s")
        s["trace.overhead_ratio"] = traced.wall_s / plain.wall_s
        summaries.append(s)
    metrics = {}
    if summaries:
        metrics = {k: statistics.median(s[k] for s in summaries)
                   for k in summaries[0]}
    rounds = [r for p in pairs for r in p]
    return {"rounds": rounds, "metrics": metrics,
            "units": {k: per_layer_unit(k) for k in metrics},
            "env": rounds[0].env,
            "samples": {"rounds": len(rounds), "traced_rounds": len(summaries)}}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bits"):
        return "bits"
    return "count"


def report(workload: str, seed: int, result: dict) -> dict:
    """Print the figures for people; return the machine-readable line."""
    rounds = result["rounds"]
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    problems = [p for r in rounds for p in r.problems]
    env = result["env"]
    samples = ", ".join(f"{k}={v}" for k, v in result["samples"].items())
    print(f"# workload={workload} seed={seed} backend={env['backend']} "
          f"python={env['python']} {samples}")
    for name, value in result["metrics"].items():
        note = f"  (n={result['samples']['requests']})" if name == "req_p95_ms" else ""
        print(f"{name:32s} {value:14.6f} {result['units'][name]}{note}")
    print(f"{'fail_ratio':32s} {failed / max(attempted, 1):14.6f} "
          f"({failed}/{attempted})")
    for p in problems[:10]:
        print(f"FAIL {p}", file=sys.stderr)
    correct = failed == 0 and not problems
    return {"correct": correct, "attempted": max(attempted, 1), "failed": failed,
            "metrics": {k: {"value": v, "unit": result["units"][k]}
                        for k, v in result["metrics"].items()}}


def run_seconds() -> float:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return float(spec["run_seconds"])


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=run_seconds(),
                        help="measuring time per workload (default: "
                             "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the full result, with the backend "
                             "and Python version, to this JSON file")
    args = parser.parse_args(argv)
    if not (SRC / "cechtower" / "cli.py").is_file():
        print(f"error: no cechtower sources under {SRC}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        deadline = time.perf_counter() + args.seconds + OVERRUN_S
        try:
            res = measure(name, args.seed, args.seconds, bool(args.trace), deadline)
        except WorkerError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        results[name] = (res, report(name, args.seed, res))

    if len(results) == 1:
        line = next(iter(results.values()))[1]
    else:
        line = {"correct": all(r["correct"] for _, r in results.values()),
                "attempted": sum(r["attempted"] for _, r in results.values()),
                "failed": sum(r["failed"] for _, r in results.values()),
                "metrics": {f"{w}.{k}": v for w, (_, r) in results.items()
                            for k, v in r["metrics"].items()}}
    if args.out is not None:
        doc = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
               "platform": platform.platform(),
               "workloads": {w: {"backend": res["env"]["backend"],
                                 "python": res["env"]["python"],
                                 "samples": res["samples"], **r}
                             for w, (res, r) in results.items()}}
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
