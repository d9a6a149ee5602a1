"""Output checks that do not consult the engine.

``check`` compares one CLI response with the expectation ``workloads``
attached to its request and returns a description of the first mismatch,
or None when the response is correct.  Besides the kind-specific answers,
every ``verify`` flag must be true; ``lift_found`` is exempt because it is
false exactly when the obstruction is nonzero.
"""

from __future__ import annotations

import json
from typing import Optional

EXEMPT_FLAGS = {"lift_found"}


def _false_flags(verify: dict) -> list[str]:
    return sorted(k for k, v in verify.items()
                  if v is False and k not in EXEMPT_FLAGS)


def _group(doc: dict) -> dict:
    return {"free_rank": doc["free_rank"], "torsion": list(doc["torsion"])}


def _cohomology(out: dict, exp: dict) -> Optional[str]:
    got = {k: v for k, v in out.items() if k != "verify"}
    if got != exp["groups"]:
        return f"groups {got} != expected {exp['groups']}"
    return None


def _spectral(out: dict, exp: dict) -> Optional[str]:
    if not out["verify"].get("degeneration_ok"):
        return "degeneration_ok missing or false"
    grid = out["grid"]
    if set(grid) != set(exp["E"]):
        return f"grid keys {sorted(grid)} != expected {sorted(exp['E'])}"
    for key, group in exp["E"].items():
        if _group(grid[key]["E"]) != group:
            return f"E at {key} is {grid[key]['E']}, expected {group}"
    return None


def _connecting(out: dict, exp: dict) -> Optional[str]:
    cl = out["class"]
    if cl["degree"] != exp["degree"] or _group(cl["group"]) != exp["group"]:
        return f"class {cl} lives in the wrong group (expected {exp['group']})"
    nonzero = any(cl["coords"])
    if exp["class_nonzero"] is not None and nonzero != exp["class_nonzero"]:
        return f"class coordinates {cl['coords']}, expected nonzero={exp['class_nonzero']}"
    return None


def _les(out: dict, exp: dict) -> Optional[str]:
    if not out["ok"] or not all(e["ok"] for e in out["exact_at"]):
        return "sequence reported not exact"
    nodes = [{"label": n["label"], "group": _group(n["group"])} for n in out["nodes"]]
    if nodes != exp["nodes"]:
        return f"nodes {nodes} != expected {exp['nodes']}"
    return None


def _tower(out: dict, exp: dict) -> Optional[str]:
    if not all(c["ok"] for c in out["verify"]["checks"]):
        return "a tower check failed"
    groups = [_group(s["group"]) for s in out["stages"]]
    if groups != exp["groups"]:
        return f"stage groups {groups} != expected {exp['groups']}"
    return None


def _gerbe(out: dict, exp: dict) -> Optional[str]:
    if out["obstruction_zero"] != exp["obstruction_zero"]:
        return f"obstruction_zero is {out['obstruction_zero']}"
    if out["verify"]["lift_found"] != exp["obstruction_zero"]:
        return "lift search disagrees with the obstruction"
    return None


def _validate(out: dict, exp: dict) -> Optional[str]:
    if out != exp["result"]:
        return f"{out} != {exp['result']}"
    return None


CHECKS = {"cohomology": _cohomology, "spectral": _spectral,
          "connecting": _connecting, "les": _les, "tower": _tower,
          "gerbe-lift": _gerbe, "validate": _validate}


def check(expect: dict, rc: int, stdout: str) -> Optional[str]:
    """None when the response is correct, else what is wrong with it."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as e:
        return f"stdout is not JSON: {e}"
    try:
        if expect["verify"] and not isinstance(out.get("verify"), dict):
            return "verify section missing"
        false = _false_flags(out.get("verify", {}))
        if false:
            return f"verify flags false: {', '.join(false)}"
        return CHECKS[expect["kind"]](out, expect)
    except (KeyError, TypeError) as e:
        return f"malformed response: {e!r}"
