"""Batch front door: one command per process, JSON payload in, JSON report out.

Results go to stdout with sorted keys and no timestamps, so identical
requests produce byte-identical responses.  Diagnostics go to stderr.
Exit codes: 0 success, 2 schema/validation failure (message names the JSON
path), 3 internal verification failure (always a bug), 4 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from cechtower import jsonio
from cechtower._record import Record
from cechtower.abelian import GroupElement
from cechtower.cochain import (
    cech_complex,
    check_degree_bound,
    class_of,
    coboundary,
    cohomology,
    Cochain,
)
from cechtower.errors import (
    BudgetExceededError,
    SchemaError,
    ValidationError,
    VerificationError,
)
from cechtower.exactseq import connecting, long_exact_sequence
from cechtower.liftgerbe import LIFT_SEARCH_BUDGET, brute_force_lift, lifting_obstruction
from cechtower.spectral import check_degeneration, spectral_grid
from cechtower.tower import compare_towers, tower_classes, verify_tower

_RELIFT_SEED = 0x5EC710
_RELIFT_COUNT = 20


class Options(Record):
    _fields = ("max_degree", "budget", "verify")
    _defaults = {"max_degree": None, "budget": None, "verify": False}


class Request(Record):
    _fields = ("command", "payload", "options")
    _defaults = {"options": Options()}


def _payload_dict(payload: object) -> dict:
    if not isinstance(payload, dict):
        raise SchemaError("payload", "expected an object")
    return payload


def _random_element(rng: random.Random, group) -> GroupElement:
    return GroupElement(group, tuple(
        rng.randrange(o) if o else rng.randint(-2, 2) for o in group.orders))


def _bound(options: Options, name: str, default: int) -> int:
    """``options.<name>`` (``--max-degree`` of cohomology and les, or
    ``--budget``), ``default`` when unset; a negative bound is refused."""
    value = getattr(options, name)
    if value is None:
        return default
    if value < 0:
        raise SchemaError(f"options.{name}", "bound must be >= 0")
    return value


def _cmd_cohomology(payload: object, options: Options) -> dict:
    d = _payload_dict(payload)
    x = jsonio.parse_complex(jsonio._get(d, "complex", "payload"), "payload.complex")
    group = jsonio.parse_group(jsonio._get(d, "group", "payload"), "payload.group")
    degree = d.get("degree", "all")
    comp = cech_complex(x, group)
    top = _bound(options, "max_degree", x.dim)
    if degree == "all":
        check_degree_bound(top)
        degrees = list(range(top + 1))
    elif isinstance(degree, int) and not isinstance(degree, bool) and degree >= 0:
        degrees = [degree]
    else:
        raise SchemaError("payload.degree", 'expected "all" or a non-negative integer')
    result = {f"H{p}": cohomology(comp, p).group.label() for p in degrees}
    if options.verify:
        ok = True
        for p in degrees:
            h = cohomology(comp, p)
            for k, rep in enumerate(h.representatives):
                coords = h.coords_of(rep)
                expected = tuple(1 if i == k else 0 for i in range(h.group.ngens))
                ok = ok and coords == expected
        result["verify"] = {"representatives_project_to_generators": ok}
    return result


def _parse_connecting_payload(payload: object):
    d = _payload_dict(payload)
    x = jsonio.parse_complex(jsonio._get(d, "complex", "payload"), "payload.complex")
    ses = jsonio.parse_ses(jsonio._get(d, "ses", "payload"), "payload.ses")
    comp = cech_complex(x, ses.c)
    c = jsonio.parse_cochain(jsonio._get(d, "cochain", "payload"), comp,
                             "payload.cochain")
    return x, ses, c


def _cmd_connecting(payload: object, options: Options) -> dict:
    x, ses, c = _parse_connecting_payload(payload)
    out = jsonio._checked("payload.cochain", connecting, x, ses, c)
    cl = class_of(cech_complex(x, ses.a), out)
    result = {"degree": out.degree, "cochain": jsonio.cochain_to_doc(out),
              "class": jsonio.class_to_doc(cl)}
    if options.verify:
        rng = random.Random(_RELIFT_SEED)
        k = cech_complex(x, ses.c).ncells(c.degree)
        stable = True
        for _ in range(_RELIFT_COUNT):
            twist = [_random_element(rng, ses.a) for _ in range(k)]
            alt = connecting(x, ses, c, twist=twist)
            alt_cl = class_of(cech_complex(x, ses.a), alt)
            stable = stable and alt_cl.coords == cl.coords
        result["verify"] = {"section_independence": stable,
                            "relifts": _RELIFT_COUNT}
    return result


def _cmd_les(payload: object, options: Options) -> dict:
    d = _payload_dict(payload)
    x = jsonio.parse_complex(jsonio._get(d, "complex", "payload"), "payload.complex")
    ses = jsonio.parse_ses(jsonio._get(d, "ses", "payload"), "payload.ses")
    report = long_exact_sequence(x, ses, _bound(options, "max_degree", x.dim + 1))
    return {
        "nodes": [{"label": n.label, "group": jsonio.group_to_doc(n.group)}
                  for n in report.nodes],
        "exact_at": [{"label": e.label, "ok": e.ok} for e in report.exact_at],
        "ok": report.ok,
    }


def _cmd_tower(payload: object, options: Options) -> dict:
    spec = jsonio.parse_tower_spec(payload, "payload")
    classes = tower_classes(spec)
    result = {"stages": [
        {"degree": cl.degree, "group": jsonio.group_to_doc(cl.group),
         "coords": list(cl.coords),
         "representative": jsonio.cochain_to_doc(cl.representative)}
        for cl in classes.stages]}
    if options.verify:
        report = verify_tower(classes)
        rng = random.Random(_RELIFT_SEED)
        base = spec.c2.complex
        perturb = coboundary(Cochain(base, 1, _random_element(rng, base.group(1)).coords))
        alt_spec = type(spec)(spec.complex, spec.c2 + perturb, spec.sequences)
        stable = compare_towers(classes, tower_classes(alt_spec)).equal
        result["verify"] = {
            "checks": [{"name": c.name, "ok": c.ok} for c in report.checks],
            "ok": report.ok,
            "class_stability_under_perturbation": stable,
        }
    return result


def _cmd_spectral(payload: object, options: Options) -> dict:
    f = jsonio.parse_filtered(payload, "payload")
    r_max = options.max_degree if options.max_degree is not None else 3
    if r_max < 1:
        raise SchemaError("options.max_degree", "page bound must be >= 1")
    grid = spectral_grid(f, r_max)
    result = {"grid": {f"{'inf' if t.r is None else t.r}/{t.p}/{t.q}":
                       {"Z": jsonio.group_to_doc(t.z_group),
                        "B": jsonio.group_to_doc(t.b_group),
                        "E": jsonio.group_to_doc(t.e_group)} for t in grid}}
    if options.verify:
        result["verify"] = {"degeneration_ok": check_degeneration(f, grid).ok}
    return result


def _cmd_gerbe_lift(payload: object, options: Options) -> dict:
    d = _payload_dict(payload)
    x = jsonio.parse_complex(jsonio._get(d, "complex", "payload"), "payload.complex")
    ext = jsonio.parse_extension(jsonio._get(d, "extension", "payload"),
                                 "payload.extension")
    t_doc = jsonio._get(d, "transition", "payload")
    t = jsonio.parse_transition(t_doc, x, ext.quotient, "payload.transition")
    budget = _bound(options, "budget", LIFT_SEARCH_BUDGET)
    cochain, cl = lifting_obstruction(t, ext)
    result = {"cocycle": jsonio.cochain_to_doc(cochain),
              "class": jsonio.class_to_doc(cl),
              "obstruction_zero": cl.is_zero}
    if options.verify:
        lift = brute_force_lift(t, ext, budget=budget)
        rng = random.Random(_RELIFT_SEED)
        fibers = [[g for g in range(ext.group.order) if ext.projection[g] == q]
                  for q in range(ext.quotient.order)]
        stable = True
        for _ in range(_RELIFT_COUNT):
            section = tuple(rng.choice(f) for f in fibers)
            _, alt_cl = lifting_obstruction(t, ext, section=section)
            stable = stable and alt_cl.coords == cl.coords
        result["verify"] = {
            "lift_found": lift is not None,
            "oracle_agrees": (lift is not None) == cl.is_zero,
            "section_independence": stable,
        }
    return result


_VALIDATORS = {
    "group": jsonio.parse_group,
    "homomorphism": jsonio.parse_homomorphism,
    "complex": jsonio.parse_complex,
    "ses": jsonio.parse_ses,
    "finite_group": jsonio.parse_finite_group,
    "extension": jsonio.parse_extension,
    "tower": jsonio.parse_tower_spec,
    "filtered": jsonio.parse_filtered,
}


def _cmd_validate(payload: object, options: Options) -> dict:
    d = _payload_dict(payload)
    kind = jsonio._get(d, "kind", "payload")
    if not isinstance(kind, str) or kind not in _VALIDATORS:
        raise SchemaError("payload.kind",
                          f"unknown kind {kind!r}; expected one of "
                          f"{sorted(_VALIDATORS)}")
    _VALIDATORS[kind](jsonio._get(d, "value", "payload"), "payload.value")
    return {"valid": True, "kind": kind}


_COMMANDS = {
    "cohomology": _cmd_cohomology,
    "connecting": _cmd_connecting,
    "les": _cmd_les,
    "tower": _cmd_tower,
    "spectral": _cmd_spectral,
    "gerbe-lift": _cmd_gerbe_lift,
    "validate": _cmd_validate,
}


def execute(request: Request) -> dict:
    """Dispatch a request; raises the package exceptions on failure."""
    if request.command not in _COMMANDS:
        raise SchemaError("command", f"unknown command {request.command!r}")
    return _COMMANDS[request.command](request.payload, request.options)


def _read_payload(path: str) -> object:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise SchemaError("input", f"cannot read payload: {e}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError("input", f"payload is not valid JSON: {e}") from None
    except RecursionError:
        raise SchemaError("input", "payload nests too deeply to parse") from None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cechtower",
        description="Exact Cech cohomology engine: one JSON request per run.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--input", default="-",
                       help="payload JSON file ('-' for stdin)")
        p.add_argument("--max-degree", type=int, default=None,
                       help="top cohomology degree (page bound for spectral)")
        p.add_argument("--budget", type=int, default=None,
                       help="state budget for exhaustive searches")
        p.add_argument("--verify", action="store_true",
                       help="re-run the instance's invariant suite and embed "
                            "the verdicts")
    args = parser.parse_args(argv)

    try:
        payload = _read_payload(args.input)
        request = Request(args.command, payload,
                          Options(args.max_degree, args.budget, args.verify))
        result = execute(request)
    except (SchemaError, ValidationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except VerificationError as e:
        print(f"internal verification failure: {e}", file=sys.stderr)
        return 3
    except BudgetExceededError as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 4
    sys.stdout.write(json.dumps(result, sort_keys=True, separators=(",", ":")))
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
