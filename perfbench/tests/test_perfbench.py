"""Tests of the benchmark's own code: inputs, checks, tracing, comparison.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import copy
import importlib
import json
import pkgutil
import random
import time
from collections import Counter

import pytest

import checks
import compare
import layertrace
import run
import workloads


def _cell_counts(payload: dict) -> tuple:
    cx = payload.get("complex") or payload.get("value", {})
    if "facets" not in cx:
        return ()
    levels = workloads.closure([tuple(f) for f in cx["facets"]], cx["vertex_count"])
    return tuple(len(level) for level in levels)


def _shape(req: dict) -> str:
    """Everything about a request that the seed must not change."""
    p = req["payload"]
    fixed = {k: p[k] for k in ("group", "summands", "ses", "sequences",
                               "extension", "kind") if k in p}
    return json.dumps([req["command"], req["flags"], _cell_counts(p), fixed],
                      sort_keys=True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_payloads(workload, tmp_path):
    run.write_inputs(workloads.generate(workload, 7, 1), tmp_path / "a")
    run.write_inputs(workloads.generate(workload, 7, 1), tmp_path / "b")
    files = sorted(p.name for p in (tmp_path / "a").glob("request*.json"))
    assert files
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_keeps_kinds_and_cell_counts(workload):
    one, two = workloads.generate(workload, 1), workloads.generate(workload, 2)
    assert Counter(r["command"] for r in one) == Counter(r["command"] for r in two)
    assert sorted(map(_shape, one)) == sorted(map(_shape, two))
    assert [r["payload"] for r in one] != [r["payload"] for r in two]


def test_class_stream_counts_per_kind():
    counts = Counter(r["command"] for r in workloads.generate("class_stream", 5))
    assert counts == Counter(workloads.CLASS_STREAM_COUNTS)
    assert sum(counts.values()) >= 200


def test_invariant_form_and_universal_coefficients():
    assert workloads.invariant_form([6, 4]) == {"free_rank": 0, "torsion": [2, 12]}
    assert workloads.invariant_form([0, 1, 2, 2]) == {"free_rank": 1, "torsion": [2, 2]}
    rp2 = workloads.RP2_HOMOLOGY
    assert workloads.cohomology_doc(rp2, 1, workloads.Z4) == workloads.Z2
    assert workloads.cohomology_doc(rp2, 2, workloads.Z) == workloads.Z2
    assert workloads.cohomology_doc(rp2, 1, workloads.Z) == {"free_rank": 0, "torsion": []}
    torus = workloads.TORUS_HOMOLOGY
    assert workloads.cohomology_doc(torus, 1, workloads.Z_Z2_Z4) == \
        {"free_rank": 2, "torsion": [2, 2, 4, 4]}


def test_suspension_shifts_reduced_homology():
    rng = random.Random(0)
    t = workloads.relabel(rng, "torus4", 16, workloads.grid_torus_facets(4),
                          workloads.TORUS_HOMOLOGY)
    st = workloads.suspend(t)
    assert [len(level) for level in t.cells] == [16, 48, 32]
    assert st.homology == ((1, ()), (0, ()), (2, ()), (1, ()))
    labels = [workloads.label(workloads.cohomology_doc(st.homology, p, workloads.Z2))
              for p in range(4)]
    assert labels == ["Z/2", "0", "Z/2 x Z/2", "Z/2"]


def test_sampled_cocycles_are_cocycles_and_not_coboundaries():
    rng = random.Random(3)
    x = workloads.relabel(rng, "rp2", 6, workloads.RP2_FACETS, workloads.RP2_HOMOLOGY)
    for _ in range(5):
        c = workloads.cocycle(rng, x, 1, 2)
        d = workloads.coboundary_rows(x, 1, 2)
        assert all(sum(a * b for a, b in zip(row, c)) % 2 == 0 for row in d)
        assert not x.cocycle_spaces[(1, 2)].is_coboundary(c)


def _one_of_each_kind():
    seen = {}
    for req in workloads.generate("class_stream", 4):
        if req["payload"].get("complex", {}).get("vertex_count", 6) <= 7:
            seen.setdefault(req["command"], req)
    return list(seen.values())


def _execute(req):
    from cechtower.cli import Options, Request, execute
    flags = req["flags"]
    opts = Options(max_degree=int(flags[flags.index("--max-degree") + 1])
                   if "--max-degree" in flags else None,
                   verify="--verify" in flags)
    out = execute(Request(req["command"], req["payload"], opts))
    return json.dumps(out, sort_keys=True, separators=(",", ":"))


def test_checks_accept_engine_answers_and_reject_tampering():
    reqs = _one_of_each_kind()
    assert {r["command"] for r in reqs} == set(workloads.CLASS_STREAM_COUNTS)
    for req in reqs:
        stdout = _execute(req)
        assert checks.check(req["expect"], 0, stdout) is None, req["command"]
        assert checks.check(req["expect"], 2, stdout) == "exit code 2"
        out = json.loads(stdout)
        if "verify" in out:
            bad = copy.deepcopy(out)
            key = next(k for k, v in bad["verify"].items()
                       if v is True and k != "lift_found")
            bad["verify"][key] = False
            assert checks.check(req["expect"], 0, json.dumps(bad)) is not None


def test_checks_catch_a_wrong_group():
    rng = random.Random(1)
    x = workloads.relabel(rng, "rp2", 6, workloads.RP2_FACETS, workloads.RP2_HOMOLOGY)
    req = workloads.cohomology_request(x, workloads.Z2)
    good = _execute(req)
    assert checks.check(req["expect"], 0, good) is None
    bad = json.loads(good)
    bad["H1"] = "0"
    assert "groups" in checks.check(req["expect"], 0, json.dumps(bad))


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        ["a.root", 0.0, 10.0, -1, None],   # 0
        ["b.f", 1.0, 4.0, 0, None],        # 1
        ["c.g", 2.0, 3.0, 1, None],        # 2
        ["d.h", 5.0, 9.0, 0, None],        # 3
        ["b.f", 6.0, 7.0, 3, None],        # 4
        [layertrace.OBSERVE, 7.0, 7.5, 3, None],  # 5  the tracer, after b.f
        ["e.r", 20.0, 25.0, -1, 1],        # 6  recursion: e.r inside e.r
        ["e.r", 21.0, 23.0, 6, 2],         # 7
    ]
    self_s, inclusive = layertrace.self_times(spans)
    assert self_s == {"a.root": 3.0, "b.f": 3.0, "c.g": 1.0, "d.h": 2.5,
                      layertrace.OBSERVE: 0.5, "e.r": 5.0}
    assert sum(self_s.values()) == 15.0
    # Inclusive times of d.h and a.root leave out the observe span.
    assert inclusive == {("a.root", None): 9.5, ("b.f", None): 4.0,
                         ("c.g", None): 1.0, ("d.h", None): 3.5,
                         (layertrace.OBSERVE, None): 0.5, ("e.r", 1): 5.0}


def _package_state():
    import cechtower
    for info in pkgutil.iter_modules(cechtower.__path__, "cechtower."):
        try:
            importlib.import_module(info.name)
        except ImportError:
            pass  # the optional compiled kernel
    state = {}
    for i, ns in enumerate(layertrace.package_namespaces()):
        state[i] = (ns, dict(ns))
    lattice = importlib.import_module("cechtower._intlin").Lattice
    state["Lattice"] = (lattice.__dict__, dict(lattice.__dict__))
    return state


def test_wrap_and_unwrap_restore_every_attribute():
    before = _package_state()
    from cechtower import cli, exactseq, _intlin, _kernels
    originals = (cli.connecting, exactseq.connecting, _intlin.smith_with_transforms,
                 _kernels.smith_with_transforms, cli._VALIDATORS["complex"],
                 _intlin.Lattice.__init__)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert cli.connecting is not originals[0]
        assert exactseq.connecting is cli.connecting
        assert _intlin.smith_with_transforms is _kernels.smith_with_transforms
        assert _intlin.smith_with_transforms is not originals[2]
        assert cli._VALIDATORS["complex"] is not originals[4]
        assert _intlin.Lattice.__init__ is not originals[5]
        req = next(r for r in _one_of_each_kind() if r["command"] == "connecting")
        _execute(req)
    finally:
        tracer.uninstall()
    after = _package_state()
    assert set(before) == set(after)
    for key, (ns, snapshot) in before.items():
        assert ns.keys() == snapshot.keys()
        for name, value in snapshot.items():
            assert ns[name] is value, name
    assert (cli.connecting, exactseq.connecting, _intlin.smith_with_transforms,
            _kernels.smith_with_transforms, cli._VALIDATORS["complex"],
            _intlin.Lattice.__init__) == originals

    summary = tracer.summary()
    assert summary["exactseq.connecting.calls"] >= 1
    assert summary["snf.calls"] >= 1
    layers = sum(v for k, v in summary.items() if k.endswith(".self_s"))
    assert layers == pytest.approx(tracer.root_time(), abs=1e-9)


def _result(backend, value):
    return {"workloads": {"cech_torus": {
        "backend": backend, "python": "3.11.7",
        "metrics": {"wall_s": {"value": value, "unit": "s"}}}}}


def test_compare_refuses_a_different_backend():
    bounds = {"wall_s": ("lower", 0.1)}
    lines = compare.compare(_result("python", 1.0), _result("python", 1.2), bounds)
    assert "WORSE" in lines[0]
    with pytest.raises(compare.BackendMismatch):
        compare.compare(_result("python", 1.0), _result("cython", 1.0), bounds)


def test_reported_metrics_match_the_benchmark_spec():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    tracer = layertrace.Tracer()
    tracer.install()
    tracer.uninstall()
    names = set(tracer.summary()) | {"harness.self_s", "trace.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == names
    for m in spec["per_layer"]:
        assert run.per_layer_unit(m["name"]) == m["unit"], m["name"]


def test_a_round_serves_and_checks_every_request(tmp_path):
    reqs = [r for r in workloads.generate("class_stream", 2)
            if r["command"] in ("validate", "gerbe-lift")][:6]
    reqs[0] = copy.deepcopy(reqs[0])
    reqs[0]["expect"]["kind"] = "cohomology"  # a deliberately wrong expectation
    manifest = run.write_inputs(reqs, tmp_path / "draw")
    deadline = time.perf_counter() + 60
    rnd = run.run_round(manifest, reqs, trace=True, probe=False, deadline=deadline)
    assert (rnd.attempted, rnd.failed) == (6, 1)
    assert len(rnd.latencies_s) == 6 and rnd.wall_s > 0 and rnd.peak_rss_kb > 0
    assert rnd.trace["cli.self_s"] > 0
    assert rnd.env["backend"] == importlib.import_module("cechtower").KERNEL_BACKEND
    probe = run.run_round(manifest, reqs, trace=False, probe=True, deadline=deadline)
    assert probe.setup_s > 0 and probe.attempted == 0 and not probe.problems
