import hashlib
import json
import resource
import subprocess
import sys

import pytest

from cechtower import jsonio
from cechtower.abelian import cyclic_group
from cechtower.cli import Options, Request, execute, main
from cechtower.cochain import cech_complex, cohomology, suspension

from .conftest import RP2_FACETS, TORUS_FACETS, grid_torus_facets

RP2_DOC = {"vertex_count": 6, "facets": [list(f) for f in RP2_FACETS]}
TORUS7_DOC = {"vertex_count": 7, "facets": [list(f) for f in TORUS_FACETS]}
Z2_DOC = {"free_rank": 0, "torsion": [2]}
Z3_DOC = {"free_rank": 0, "torsion": [3]}
Z_DOC = {"free_rank": 1, "torsion": []}
TRIVIAL_DOC = {"free_rank": 0, "torsion": []}
BOCKSTEIN_DOC = {"A": Z2_DOC, "B": {"free_rank": 0, "torsion": [4]},
                 "C": Z2_DOC, "iota": [[2]], "pi": [[1]]}


def isolated_vertices_doc(n: int) -> dict:
    return {"vertex_count": n, "facets": [[v] for v in range(n)]}


def grid_torus_doc(n: int) -> dict:
    return {"vertex_count": n * n, "facets": [list(f) for f in grid_torus_facets(n)]}


def hollow_triangles_doc(n: int) -> dict:
    """n triangle boundaries (three edges, no 2-cell) sharing vertex 0."""
    return {"vertex_count": 2 * n + 1,
            "facets": [list(e) for i in range(n)
                       for e in ((0, 2 * i + 1), (0, 2 * i + 2), (2 * i + 1, 2 * i + 2))]}


def run_cli(args, payload, **kwargs):
    proc = subprocess.run(
        [sys.executable, "-m", "cechtower.cli", *args],
        input=json.dumps(payload).encode(),
        capture_output=True, **kwargs)
    return proc


# Runs ``cechtower.cli.main`` on argv[1:], then writes the seconds the call
# took to stderr and exits with its code.
TIMED_CLI = """
import sys, time
from cechtower import cli
start = time.perf_counter()
code = cli.main(sys.argv[1:])
print(time.perf_counter() - start, file=sys.stderr)
sys.exit(code)
"""


def _cap_address_space():
    cap = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def tower_payload(srp2):
    comp = cech_complex(srp2, cyclic_group(2))
    rep = cohomology(comp, 2).representatives[0]
    return {"complex": jsonio.complex_to_doc(srp2),
            "c2": jsonio.cochain_to_doc(rep),
            "sequences": [BOCKSTEIN_DOC, BOCKSTEIN_DOC]}


class TestCohomologyCommand:
    def test_rp2_mod_two(self):
        payload = {"complex": RP2_DOC, "group": Z2_DOC, "degree": "all"}
        out = execute(Request("cohomology", payload))
        assert out == {"H0": "Z/2", "H1": "Z/2", "H2": "Z/2"}

    def test_single_degree(self):
        payload = {"complex": RP2_DOC,
                   "group": {"free_rank": 1, "torsion": []}, "degree": 2}
        assert execute(Request("cohomology", payload)) == {"H2": "Z/2"}

    def test_repeated_vertex_exits_2_with_path(self):
        payload = {"complex": {"vertex_count": 3, "facets": [[0, 0, 1]]},
                   "group": Z2_DOC, "degree": "all"}
        proc = run_cli(["cohomology"], payload)
        assert proc.returncode == 2
        assert b"payload.complex.facets" in proc.stderr
        assert b"repeated vertex 0" in proc.stderr

    @pytest.mark.parametrize("vertex_count", [0, -3])
    def test_non_positive_vertex_count_exits_2_with_path(self, vertex_count):
        payload = {"complex": {"vertex_count": vertex_count, "facets": []},
                   "group": Z2_DOC, "degree": "all"}
        proc = run_cli(["cohomology"], payload)
        assert proc.returncode == 2
        assert proc.stderr == (b"error: payload.complex.vertex_count: "
                               b"vertex_count must be positive\n")

    def test_repeated_vertex_named_within_seconds(self):
        # One facet of 40,000 vertices whose last one repeats: counting the
        # vertex anew at every vertex would take quadratic time, and the
        # cell budget, which would refuse the facet, is checked after it.
        n = 40_000
        payload = {"complex": {"vertex_count": n, "facets": [list(range(n - 1)) + [n - 2]]},
                   "group": Z2_DOC, "degree": "all"}
        proc = subprocess.run(
            [sys.executable, "-c", TIMED_CLI, "cohomology"], input=json.dumps(payload).encode(),
            capture_output=True, timeout=60, preexec_fn=_cap_address_space)
        assert proc.returncode == 2
        message, seconds = proc.stderr.decode().splitlines()
        assert message == f"error: payload.complex.facets: facet 0: repeated vertex {n - 2}"
        assert float(seconds) < 2.0

    def test_mixed_coefficients_on_the_17x17_torus(self):
        # Once refused (exit 4) for a dense coboundary of 1734 x 2601 entries
        # that the cyclic-factor path never builds.
        payload = {"complex": grid_torus_doc(17),
                   "group": {"free_rank": 1, "torsion": [2, 4]}, "degree": "all"}
        out = execute(Request("cohomology", payload, Options(verify=True)))
        assert out == {"H0": "Z x Z/2 x Z/4", "H1": "Z^2 x Z/2 x Z/2 x Z/4 x Z/4",
                       "H2": "Z x Z/2 x Z/4",
                       "verify": {"representatives_project_to_generators": True}}

    def test_bad_group_exits_2(self):
        payload = {"complex": RP2_DOC,
                   "group": {"free_rank": 0, "torsion": [2, 3]},
                   "degree": "all"}
        proc = run_cli(["cohomology"], payload)
        assert proc.returncode == 2
        assert b"payload.group" in proc.stderr


class TestTowerCommand:
    def test_double_bockstein_signature(self, srp2):
        out = execute(Request("tower", tower_payload(srp2)))
        stages = out["stages"]
        assert [s["degree"] for s in stages] == [2, 3, 4]
        assert stages[0]["coords"] == [1]
        assert stages[1]["coords"] == [1]
        assert stages[2]["coords"] == []

    def test_verify_embeds_verdicts(self, srp2):
        out = execute(Request("tower", tower_payload(srp2),
                              Options(verify=True)))
        assert out["verify"]["ok"]
        assert out["verify"]["class_stability_under_perturbation"]

    def test_representatives_reparse(self, srp2):
        out = execute(Request("tower", tower_payload(srp2)))
        comp = cech_complex(srp2, cyclic_group(2))
        for stage in out["stages"]:
            group = jsonio.parse_group(stage["group"], "g")
            if stage["degree"] <= srp2.dim + 1:
                target = cech_complex(srp2, cyclic_group(2))
                cochain = jsonio.parse_cochain(stage["representative"],
                                               target, "c")
                assert cochain.degree == stage["degree"]
            assert group.ngens == len(stage["coords"])


class TestOtherCommands:
    def test_connecting(self, rp2):
        comp = cech_complex(rp2, cyclic_group(2))
        rep = cohomology(comp, 1).representatives[0]
        payload = {"complex": RP2_DOC, "ses": BOCKSTEIN_DOC,
                   "cochain": jsonio.cochain_to_doc(rep)}
        out = execute(Request("connecting", payload, Options(verify=True)))
        assert out["degree"] == 2
        assert out["class"]["coords"] == [1]
        assert out["verify"]["section_independence"]

    def test_les(self):
        payload = {"complex": RP2_DOC, "ses": BOCKSTEIN_DOC}
        out = execute(Request("les", payload))
        assert out["ok"]
        assert out["nodes"][0]["label"] == "H^0(A)"

    def test_spectral(self):
        payload = {"complex": RP2_DOC,
                   "summands": [Z2_DOC, {"free_rank": 1, "torsion": []}]}
        out = execute(Request("spectral", payload,
                              Options(max_degree=2, verify=True)))
        assert out["verify"]["degeneration_ok"]
        assert out["grid"]["2/2/0"]["E"] == Z2_DOC

    def test_gerbe_lift(self, rp2):
        comp = cech_complex(rp2, cyclic_group(2))
        rep = cohomology(comp, 1).representatives[0]
        k = comp.ncells(1)
        transition = {",".join(map(str, e)): rep.coords[i]
                      for i, e in enumerate(rp2.cells(1))}
        ext_doc = {
            "G": {"order": 4,
                  "table": [[(a + b) % 4 for b in range(4)] for a in range(4)],
                  "identity": 0},
            "L": Z2_DOC, "L_elements": [0, 2], "pi": [0, 1, 0, 1],
            "Q": {"order": 2, "table": [[0, 1], [1, 0]], "identity": 0}}
        payload = {"complex": RP2_DOC, "extension": ext_doc,
                   "transition": transition}
        out = execute(Request("gerbe-lift", payload, Options(verify=True)))
        assert out["class"]["coords"] == [1]
        assert not out["obstruction_zero"]
        assert not out["verify"]["lift_found"]
        assert out["verify"]["oracle_agrees"]
        assert out["verify"]["section_independence"]

    def test_validate_good_and_bad(self):
        assert execute(Request("validate",
                               {"kind": "group", "value": Z2_DOC})) == \
            {"valid": True, "kind": "group"}
        proc = run_cli(["validate"],
                       {"kind": "ses",
                        "value": {**BOCKSTEIN_DOC, "iota": [[1]]}})
        assert proc.returncode == 2
        assert b"payload.value" in proc.stderr

    def test_unknown_kind(self):
        proc = run_cli(["validate"], {"kind": "nonsense", "value": {}})
        assert proc.returncode == 2

    def test_budget_exceeded_exit_code(self, rp2):
        comp = cech_complex(rp2, cyclic_group(2))
        rep = cohomology(comp, 1).representatives[0]
        transition = {",".join(map(str, e)): rep.coords[i]
                      for i, e in enumerate(rp2.cells(1))}
        ext_doc = {
            "G": {"order": 4,
                  "table": [[(a + b) % 4 for b in range(4)] for a in range(4)],
                  "identity": 0},
            "L": Z2_DOC, "L_elements": [0, 2], "pi": [0, 1, 0, 1],
            "Q": {"order": 2, "table": [[0, 1], [1, 0]], "identity": 0}}
        payload = {"complex": RP2_DOC, "extension": ext_doc,
                   "transition": transition}
        proc = run_cli(["gerbe-lift", "--verify", "--budget", "10"], payload)
        assert proc.returncode == 4
        # A negative budget is a bad option, not an exceeded budget.
        proc = run_cli(["gerbe-lift", "--verify", "--budget", "-1"], payload)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert b"options.budget" in proc.stderr

    def test_oversized_complex_refused_before_enumeration(self):
        # One 40-vertex facet has 2^40 - 1 faces; enumerating them would not
        # finish, so exit code 4 shows the size was checked first.  The
        # memory cap and the timeout turn a regression into a failure.
        payload = {"complex": {"vertex_count": 40, "facets": [list(range(40))]},
                   "group": Z2_DOC, "degree": "all"}
        proc = run_cli(["cohomology"], payload, timeout=60,
                       preexec_fn=_cap_address_space)
        assert proc.returncode == 4
        assert b"budget exceeded" in proc.stderr

    def test_oversized_coboundary_refused_before_allocation(self):
        # 2,100 hollow triangles sharing vertex 0 have 10,501 cells, under
        # GENERATOR_BUDGET, and coreduce to one vertex and 2,100 critical
        # edges, so the SNF of the reduced coboundary 1 would need 2,100 x
        # 2,100 transforms.  Exit code 4 within the memory cap shows no
        # dense row was built first.
        payload = {"complex": hollow_triangles_doc(2100), "group": Z2_DOC,
                   "degree": "all"}
        proc = run_cli(["cohomology"], payload, timeout=60,
                       preexec_fn=_cap_address_space)
        assert proc.returncode == 4
        assert b"Traceback" not in proc.stderr
        assert b"coboundary" in proc.stderr and b"budget" in proc.stderr

    def test_oversized_integral_coboundary_refused_before_allocation(self):
        # The same triangles with trivial coefficients: every Cech
        # coboundary is empty, so only the integral data that cohomology
        # reads passes the budget, and it too must be refused before it is
        # built.
        payload = {"complex": hollow_triangles_doc(2100), "group": TRIVIAL_DOC,
                   "degree": "all"}
        proc = run_cli(["cohomology"], payload, timeout=60,
                       preexec_fn=_cap_address_space)
        assert proc.returncode == 4
        assert b"Traceback" not in proc.stderr
        assert b"coboundary" in proc.stderr and b"budget" in proc.stderr

    def test_simplex_of_fourteen_vertices_coreduces_to_a_point(self):
        # Its 16,383 cells coreduce to one critical vertex, so no Morse
        # coboundary has an entry: H^0 = Z/2 and every higher degree is 0,
        # within the memory cap.
        payload = {"complex": {"vertex_count": 14, "facets": [list(range(14))]},
                   "group": Z2_DOC, "degree": "all"}
        proc = run_cli(["cohomology"], payload, timeout=60,
                       preexec_fn=_cap_address_space)
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {f"H{p}": "Z/2" if p == 0 else "0"
                                           for p in range(14)}

    @pytest.mark.parametrize("payload", [
        # d_0 has no rows, so the integral SNF would build 2,100 x 2,100
        # transforms although no coboundary has an entry.
        {"complex": {"vertex_count": 2100, "facets": [[v] for v in range(2100)]},
         "group": Z_DOC, "degree": "all"},
        # One vertex with Z^2100: 2,100 cyclic summands summed by a square SNF.
        {"complex": {"vertex_count": 1, "facets": [[0]]},
         "group": {"free_rank": 2100, "torsion": []}, "degree": "all"},
    ], ids=["isolated_vertices", "wide_coefficients"])
    def test_oversized_square_snf_refused_before_allocation(self, payload):
        proc = run_cli(["cohomology"], payload, timeout=60,
                       preexec_fn=_cap_address_space)
        assert proc.returncode == 4
        assert proc.stdout == b""
        assert b"budget exceeded" in proc.stderr and b"2100 x 2100" in proc.stderr

    @pytest.mark.parametrize("payload,refusal", [
        # 2 x 10^8 cochain generators, once listed by power_group first.
        ({"complex": isolated_vertices_doc(2000),
          "group": {"free_rank": 0, "torsion": [2] * 100000}, "degree": "all"},
         b"cochain group 0 would have 200000000 generators"),
        # 65,536 generators, within the cap, and as many cyclic summands,
        # whose representatives were once built before their SNF was checked.
        ({"complex": isolated_vertices_doc(2048),
          "group": {"free_rank": 32, "torsion": []}, "degree": "all"},
         b"65536 cyclic summands of degree 0 would need a 65536 x 65536 matrix"),
        ({"complex": isolated_vertices_doc(2000),
          "group": {"free_rank": 3000, "torsion": []}, "degree": "all"},
         b"cochain group 0 would have 6000000 generators"),
        # Both torus requests were refused by a dense-coboundary check that
        # is gone; with Z^54 every cochain group is within the cap, and
        # degree 1 has 108 summands on 64,800 generators.
        ({"complex": grid_torus_doc(20),
          "group": {"free_rank": 700, "torsion": []}, "degree": "all"},
         b"cochain group 0 would have 280000 generators"),
        ({"complex": grid_torus_doc(20),
          "group": {"free_rank": 54, "torsion": []}, "degree": "all"},
         b"108 cyclic summands of degree 1 would need a 108 x 64800 matrix"),
    ], ids=["wide_torsion", "square_summands", "wide_free", "torus_z700", "torus_z54"])
    def test_oversized_cochain_data_refused_before_allocation(self, payload, refusal):
        proc = run_cli(["cohomology"], payload, timeout=120,
                       preexec_fn=_cap_address_space)
        assert proc.returncode == 4
        assert proc.stdout == b""
        assert b"Traceback" not in proc.stderr
        assert b"budget exceeded" in proc.stderr and refusal in proc.stderr

    @pytest.mark.parametrize("command,payload", [
        ("cohomology", {"complex": RP2_DOC, "group": Z2_DOC, "degree": "all"}),
        ("les", {"complex": RP2_DOC, "ses": BOCKSTEIN_DOC}),
    ])
    def test_oversized_degree_bound_refused_before_allocation(self, command, payload):
        # 10^9 degrees would be listed (cohomology) or computed one by one
        # (les) before the first answer; exit code 4 within the memory cap
        # and the timeout shows the bound was checked first.
        proc = run_cli([command, "--max-degree", "1000000000"], payload,
                       timeout=60, preexec_fn=_cap_address_space)
        assert proc.returncode == 4
        assert b"budget exceeded" in proc.stderr and b"degrees" in proc.stderr

    @pytest.mark.parametrize("command,payload", [
        ("cohomology", {"complex": RP2_DOC, "group": Z2_DOC, "degree": "all"}),
        ("les", {"complex": RP2_DOC, "ses": BOCKSTEIN_DOC}),
    ])
    def test_negative_degree_bound_refused(self, command, payload):
        # A negative bound once listed no degree (cohomology printed {}) or
        # a lone node H^-2(A) reported exact (les), both with exit code 0.
        proc = run_cli([command, "--max-degree", "-3"], payload)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert b"options.max_degree" in proc.stderr


class TestMalformedPayloads:
    """Payloads that once escaped as a traceback with exit code 1."""

    @staticmethod
    def assert_refused_at(proc, path: bytes):
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert b"Traceback" not in proc.stderr
        assert b"error: " + path + b":" in proc.stderr

    def test_input_file_not_utf8(self, tmp_path):
        payload = tmp_path / "payload.json"
        payload.write_bytes(b'{"kind": "group", "value": "\xff"}')
        proc = subprocess.run(
            [sys.executable, "-m", "cechtower.cli", "validate", "--input", str(payload)],
            capture_output=True)
        self.assert_refused_at(proc, b"input")

    def test_json_nested_too_deeply(self):
        depth = 100_000
        proc = subprocess.run([sys.executable, "-m", "cechtower.cli", "validate"],
                              input=b"[" * depth + b"]" * depth, capture_output=True)
        self.assert_refused_at(proc, b"input")

    def test_validate_kind_not_a_string(self):
        proc = run_cli(["validate"], {"kind": ["x"], "value": {}})
        self.assert_refused_at(proc, b"payload.kind")


class TestDuplicateCellKeys:
    """Two keys naming one cell, such as "0" and "+0" or "0,2" and "0, 2",
    are refused at the second key, in either order; one such key alone is
    read as its cell."""

    HOLLOW_TRIANGLE = {"vertex_count": 3, "facets": [[0, 1], [0, 2], [1, 2]]}
    Z4_OVER_Z2 = {
        "G": {"order": 4, "table": [[(a + b) % 4 for b in range(4)] for a in range(4)],
              "identity": 0},
        "L": Z2_DOC, "L_elements": [0, 2], "pi": [0, 1, 0, 1],
        "Q": {"order": 2, "table": [[0, 1], [1, 0]], "identity": 0}}

    def connecting(self, values):
        return run_cli(["connecting"], {
            "complex": self.HOLLOW_TRIANGLE, "ses": BOCKSTEIN_DOC,
            "cochain": {"degree": 0, "values": values}})

    def gerbe_lift(self, labels):
        return run_cli(["gerbe-lift"], {
            "complex": self.HOLLOW_TRIANGLE, "extension": self.Z4_OVER_Z2,
            "transition": labels})

    @pytest.mark.parametrize("keys,second", [
        (["0", "1", "2", "+0"], "+0"), (["+0", "0", "1", "2"], "0")])
    def test_cochain_cell_named_twice(self, keys, second):
        proc = self.connecting({k: [0 if k == "+0" else 1] for k in keys})
        assert proc.returncode == 2
        assert proc.stderr.decode() == (
            f"error: payload.cochain.values.{second}: cell key {second!r} "
            f"names the cell (0,) of an earlier key\n")

    def test_one_non_canonical_cochain_key_is_read(self):
        assert self.connecting({"+0": [1], "1": [1], "2": [1]}).returncode == 0

    @pytest.mark.parametrize("keys,second", [
        (["0,1", "0,2", "1,2", "0, 2"], "0, 2"), (["0, 2", "0,1", "0,2", "1,2"], "0,2")])
    def test_transition_edge_named_twice(self, keys, second):
        proc = self.gerbe_lift({k: 1 for k in keys})
        assert proc.returncode == 2
        assert proc.stderr.decode() == (
            f"error: payload.transition.{second}: cell key {second!r} "
            f"names the cell (0, 2) of an earlier key\n")

    def test_one_non_canonical_transition_key_is_read(self):
        assert self.gerbe_lift({"0,1": 1, "0, 2": 1, "1,2": 1}).returncode == 0


class TestSpectralCommand:
    # stdout of `spectral --verify --max-degree 4` on RP^2 with (Z/2, Z/3, Z)
    # from an implementation that computed every page's terms separately, so
    # pages sharing the limit page's lattices must not change a byte
    STABLE_SHA256 = "590322c26c7b27752b96007ddb089dee25b82f45d44f6f97e4a81a4ce2a582ca"

    def test_pages_past_stabilization_equal_the_limit(self):
        payload = {"complex": RP2_DOC, "summands": [Z2_DOC, Z3_DOC, Z_DOC]}
        proc = run_cli(["spectral", "--verify", "--max-degree", "4"], payload)
        assert proc.returncode == 0
        assert hashlib.sha256(proc.stdout).hexdigest() == self.STABLE_SHA256
        out = json.loads(proc.stdout)
        assert out["verify"]["degeneration_ok"]
        depth = len(payload["summands"])
        past = [key for key in out["grid"] if not key.startswith("inf/")
                and int(key.split("/")[0]) >= depth]
        assert len(past) == 2 * depth * 4  # pages 3, 4; p = 1..3; p+q = 0..3
        for key in past:
            limit = "inf/" + key.split("/", 1)[1]
            assert out["grid"][key] == out["grid"][limit], key

    # stdout of `spectral --verify --max-degree 3` from an implementation
    # that summed every grid point's pieces itself and presented each
    # piece's quotients with their lift columns and projections: summing
    # each distinct point once, from shared lattices, changes no byte
    @pytest.mark.parametrize("complex_doc,summands,digest", [
        (RP2_DOC, [Z2_DOC, Z_DOC],
         "8e234281da0017ce2025ccdf269ba36418ea92d04e852a14968f44dcadae7c67"),
        (TORUS7_DOC, [Z2_DOC, Z3_DOC],
         "bf16a4c4feca06841c0dd7b9feba3a38bd1191f92676821d91933b486c6a895a"),
    ], ids=["rp2", "torus7"])
    def test_grid_stdout_is_pinned(self, complex_doc, summands, digest):
        payload = {"complex": complex_doc, "summands": summands}
        proc = run_cli(["spectral", "--verify", "--max-degree", "3"], payload)
        assert proc.returncode == 0
        assert hashlib.sha256(proc.stdout).hexdigest() == digest
        assert json.loads(proc.stdout)["verify"]["degeneration_ok"]

    def test_oversized_page_bound_refused_before_allocation(self):
        # 10^9 pages would list 10^9 grid points before computing one.
        payload = {"complex": RP2_DOC, "summands": [Z2_DOC]}
        proc = run_cli(["spectral", "--max-degree", "1000000000"], payload,
                       timeout=60, preexec_fn=_cap_address_space)
        assert proc.returncode == 4
        assert b"budget exceeded" in proc.stderr and b"grid" in proc.stderr

    @pytest.mark.parametrize("command,payload", [
        ("spectral", {"complex": RP2_DOC, "summands": [{"free_rank": 100000, "torsion": []}]}),
        ("validate", {"kind": "filtered", "value": {
            "complex": RP2_DOC, "summands": [{"free_rank": 100000, "torsion": []}]}}),
    ])
    def test_oversized_summands_refused_before_allocation(self, command, payload):
        # The direct sum of 10^5 generators starts from a 10^5 x 10^5
        # identity; exit code 4 within the memory cap shows it was not built.
        proc = run_cli([command], payload, timeout=60,
                       preexec_fn=_cap_address_space)
        assert proc.returncode == 4
        assert b"budget exceeded" in proc.stderr and b"direct sum" in proc.stderr


class TestDeterminism:
    def test_byte_identical_runs(self, srp2):
        payload = tower_payload(srp2)
        outs = {run_cli(["tower", "--verify"], payload).stdout
                for _ in range(3)}
        assert len(outs) == 1
        payload2 = {"complex": RP2_DOC, "group": Z2_DOC, "degree": "all"}
        outs2 = {run_cli(["cohomology"], payload2).stdout for _ in range(3)}
        assert len(outs2) == 1
        assert outs2.pop() == b'{"H0":"Z/2","H1":"Z/2","H2":"Z/2"}\n'

    def test_outputs_reparse_round_trip(self):
        payload = {"complex": RP2_DOC, "ses": BOCKSTEIN_DOC}
        out = execute(Request("les", payload))
        for node in out["nodes"]:
            jsonio.parse_group(node["group"], "g")
