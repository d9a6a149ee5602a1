#!/usr/bin/env python3
"""Compare two result files written by ``run.py --out``.

Usage: python3 perfbench/compare.py BASE.json NEW.json

Prints, per workload and metric, both values and NEW/BASE, and marks an
end-to-end metric that got worse by more than its bound in BENCHMARK.json.
Refuses (exit code 2) when the two runs used different SNF kernel
backends, since those figures are not comparable.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class BackendMismatch(ValueError):
    pass


def compare(base: dict, new: dict, bounds: dict) -> list[str]:
    """Report lines for every workload both results contain.

    ``bounds`` maps an end-to-end metric to (better, bound) as listed in
    BENCHMARK.json.
    """
    lines = []
    for name in sorted(set(base["workloads"]) & set(new["workloads"])):
        b, n = base["workloads"][name], new["workloads"][name]
        if b["backend"] != n["backend"]:
            raise BackendMismatch(f"{name}: kernel backend {b['backend']!r} vs "
                                  f"{n['backend']!r}; results are not comparable")
        if b["python"] != n["python"]:
            lines.append(f"# {name}: Python {b['python']} vs {n['python']}")
        for metric in sorted(set(b["metrics"]) & set(n["metrics"])):
            bv, nv = b["metrics"][metric]["value"], n["metrics"][metric]["value"]
            ratio = nv / bv if bv else float("nan")
            flag = ""
            if metric in bounds:
                better, bound = bounds[metric]
                worse = ratio - 1 if better == "lower" else 1 - ratio
                if worse > bound:
                    flag = f"  WORSE than bound {bound}"
            unit = b["metrics"][metric]["unit"]
            lines.append(f"{name:14s} {metric:32s} {bv:14.6g} {nv:14.6g} {unit:6s} "
                         f"x{ratio:.4f}{flag}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    try:
        lines = compare(base, new, bounds)
    except BackendMismatch as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
