"""Tests of the benchmark harness: generator, oracle, failure accounting, tracing."""

from __future__ import annotations

import ast
import dataclasses
import json
import math
import shutil
import subprocess
import sys
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from hgbench import calibrate, harness, oracle, program  # noqa: E402
from hgbench.trace import Tracer  # noqa: E402
from hgbench.workloads import (  # noqa: E402
    EXPECTED_FAILURES,
    TRIANGLE_PLUS_EDGE,
    TWO_BLOCKS,
    WORKLOADS,
    Input,
    make_inputs,
    round_requests,
)

README_SAMPLE = "7\n1 2 3\n1 2 7\n6 7\n5\n4\n3 4\n4 7\n"
SAMPLE_EDGES = ((1, 2, 3), (1, 2, 7), (6, 7), (5,), (4,), (3, 4), (4, 7))

# Small stand-ins for each workload, so one round takes well under a second.
SMALL = {
    "retrieval": {"shapes": ((12, 20, 3), (20, 40, 4))},
    "spectral": {"shapes": ((10, 30, 3),)},
    "compare": {"shapes": ((8, 20, 5),), "alpha_orders": (4, 7)},
}


@pytest.fixture(scope="module")
def hg():
    return program.modules()


def run_round(hg, workload, inputs):
    checker = oracle.Oracle(inputs)
    requests = round_requests(workload, inputs, 0, checker.bounds())
    return [harness.execute(hg, checker, request, 0, None) for request in requests]


def with_shapes(name, *shapes):
    return dataclasses.replace(WORKLOADS[name], shapes=shapes)


def flaky_solver(hg):
    """hg whose power_iteration raises on its first call and stalls on its second."""
    calls = []

    def power_iteration(t, **kwargs):
        calls.append(t)
        if len(calls) == 1:
            raise ZeroDivisionError("stub")
        pair = hg.spectral.power_iteration(t, **kwargs)
        return dataclasses.replace(pair, converged=False) if len(calls) == 2 else pair

    spectral = SimpleNamespace(power_iteration=power_iteration, check_eigenpair=hg.spectral.check_eigenpair)
    return SimpleNamespace(**dict(vars(hg), spectral=spectral))


class TestGenerator:
    def test_same_seed_same_inputs(self):
        workload = with_shapes("retrieval", (30, 60, 4), (40, 90, 5))
        assert make_inputs(workload, 7) == make_inputs(workload, 7)
        assert make_inputs(workload, 7) != make_inputs(workload, 8)

    def test_fixed_shape(self):
        for inp in make_inputs(with_shapes("retrieval", (30, 60, 4)), 3):
            sizes = sorted(len(e) for e in inp.edges)
            assert inp.n == 30 and len(inp.edges) == 60 and inp.k_max == 4
            assert sizes == sorted(1 + i % 4 for i in range(60))
            assert len({frozenset(e) for e in inp.edges}) == 60
            assert all(1 <= v <= 30 for e in inp.edges for v in e)

    def test_text_parses_to_the_same_edges(self, hg):
        (inp,) = make_inputs(with_shapes("retrieval", (25, 50, 5)), 5)
        h = hg.hypergraph.parse_hypergraph(inp.text)
        assert h.n == inp.n
        assert h.edges == tuple(frozenset(e) for e in inp.edges)

    def test_spectral_keeps_the_known_bad_inputs(self):
        texts = [inp.text for inp in make_inputs(with_shapes("spectral", (10, 30, 3)), 1)]
        assert TRIANGLE_PLUS_EDGE in texts and TWO_BLOCKS in texts


class TestOracle:
    def test_readme_sample(self, hg):
        expected = oracle.Expected(7, SAMPLE_EDGES)
        assert tuple(expected.degrees) == (2, 2, 2, 3, 1, 1, 3)
        t = hg.uniformize.e_adjacency_tensor(hg.hypergraph.parse_hypergraph(README_SAMPLE))
        assert hg.uniformize.vertex_degrees_from_tensor(t, 7) == tuple(expected.degrees)
        assert "".join(expected.layered_coo()) == t.to_coo()

    def test_readme_sample_every_kind(self, hg):
        sample = Input("sample", 7, SAMPLE_EDGES, README_SAMPLE)
        kinds = WORKLOADS["retrieval"].kinds + ("compare", "banerjee", "eigcheck")
        workload = dataclasses.replace(WORKLOADS["retrieval"], kinds=kinds)
        outcomes = run_round(hg, workload, (sample,))
        assert [o.problem for o in outcomes] == [None] * len(outcomes)

    def test_alpha_counts_surjections(self, hg):
        for k in range(1, 7):
            for s in range(1, k + 1):
                surjections = sum(1 for f in product(range(s), repeat=k) if len(set(f)) == s)
                assert oracle.alpha(k, s) == surjections == hg.banerjee.banerjee_alpha(k, s)

    def test_partition_table(self, hg):
        table = oracle.partition_table(12)
        for m in range(13):
            for s in range(13):
                assert table[m][s] == hg.banerjee.partitions_count(m, s)

    def test_rejects_a_wrong_answer(self):
        checker = oracle.Oracle([Input("sample", 7, SAMPLE_EDGES, README_SAMPLE)])
        assert checker.problem("degrees", "sample", None, (2, 2, 2, 3, 1, 1, 3)) is None
        assert checker.problem("degrees", "sample", None, (2, 2, 2, 3, 1, 1, 2)) is not None
        assert checker.problem("alpha", None, (5, 2), 30) is None
        assert checker.problem("alpha", None, (5, 2), 31) is not None

    def test_eig_check_needs_the_dominant_pair(self):
        # The 2-uniform path 1-2-3 has spectral radius sqrt(2) with vector
        # (1, sqrt 2, 1); the unused padding index 4 stays at 0.
        expected = oracle.Expected(3, ((1, 2), (2, 3)))
        root2 = math.sqrt(2)
        right = {
            "converged": True,
            "value": root2,
            "vector": (1 / root2, 1.0, 1 / root2, 0.0),
            "iterations": 1,
            "low": root2,
            "high": root2,
        }
        assert oracle.eig_problem(expected, right) is None
        # (1, 0, -1) is an eigenvector for 0, but not positive on the support
        zero = dict(right, value=0.0, low=0.0, high=0.0, vector=(1.0, 0.0, -1.0, 0.0))
        assert oracle.eig_problem(expected, zero) is not None
        assert oracle.eig_problem(expected, dict(right, converged=False)) is not None

    def test_oracle_does_not_import_the_package(self):
        for name in ("oracle.py", "workloads.py", "calibrate.py"):
            tree = ast.parse((HERE / "hgbench" / name).read_text(encoding="utf-8"))
            imported = []
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    imported += [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    imported.append(node.module or "")
            assert not [m for m in imported if m.split(".")[0] in ("hgtensor", "hgbench")], name


class TestRequests:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_one_round_is_correct(self, hg, name):
        workload = dataclasses.replace(WORKLOADS[name], **SMALL[name])
        inputs = make_inputs(workload, 11)
        outcomes = run_round(hg, workload, inputs)
        generated = [o for o in outcomes if o.input not in ("triangle_plus_edge", "two_blocks")]
        assert {o.kind for o in generated} == set(workload.kinds)
        assert [o.problem for o in generated] == [None] * len(generated)

    def test_failed_requests_are_recorded(self, hg):
        workload = with_shapes("spectral", (10, 30, 3))
        inputs = make_inputs(workload, 11)
        generated, known_bad = inputs[:2], inputs[-2:]
        assert {("eig", i.name) for i in known_bad} == EXPECTED_FAILURES
        for chosen, unexpected in ((generated, 2), (known_bad, 0)):
            outcomes = run_round(flaky_solver(hg), workload, chosen)
            raised, stalled = [o for o in outcomes if o.kind == "eig"]
            assert raised.error and raised.problem.startswith("raised ZeroDivisionError")
            assert not stalled.error and not stalled.converged and stalled.problem
            assert [o.problem for o in outcomes if o.kind == "eigcheck"] == [None, None]
            run = harness.Run(workload, chosen, [0.0], [1.0], 0, outcomes)
            assert run.failed == 2 and run.unexpected == unexpected
            # a wrong answer is never expected, even on a known-bad input
            wrong = dataclasses.replace(stalled, converged=True)
            assert harness.Run(workload, chosen, [0.0], [1.0], 0, [wrong]).unexpected == 1

    def test_known_bad_inputs_do_not_break_the_run(self, hg):
        workload = WORKLOADS["spectral"]
        inputs = tuple(i for i in make_inputs(workload, 1) if ("eig", i.name) in EXPECTED_FAILURES)
        outcomes = run_round(hg, workload, inputs)
        assert len(outcomes) == 2 * len(inputs) == 4
        assert all(o.problem is None or (o.kind, o.input) in EXPECTED_FAILURES for o in outcomes)
        assert harness.Run(workload, inputs, [0.0], [1.0], 0, outcomes).unexpected == 0


class TestTrace:
    def test_spans_nest_and_bindings_are_restored(self, hg):
        original = hg.banerjee.compare_tensors
        tracer = Tracer()
        tracer.request = 0
        with tracer.installed(hg):
            assert hg.banerjee.compare_tensors is not original
            program.run(hg, "compare", "4\n1 2 3\n2 4\n1\n", None)
        assert hg.banerjee.compare_tensors is original
        assert hg.uniformize.e_adjacency_tensor.__module__ == "hgtensor.uniformize"
        names = [s.name for s in tracer.spans]
        assert names[0] == "hypergraph.parse_hypergraph"
        top = names.index("banerjee.compare_tensors")
        children = {s.name for s in tracer.spans if s.parent == top}
        assert {"uniformize.e_adjacency_tensor", "banerjee.banerjee_tensor"} <= children
        built = [s for s in tracer.spans if s.name == "banerjee.banerjee_tensor"]
        assert built[0].keys == 1 + 2 + 1  # C(k-1, s-1) keys per edge of size s, k = 3
        own = tracer.self_times()
        assert all(t >= 0 for t in own) and all(s.request == 0 for s in tracer.spans)

    def test_calibration_scales_to_the_reference(self):
        times = calibrate.sample(0.0)
        assert len(times) == 1 and times[0] > 0
        assert calibrate.speed([2 * calibrate.REFERENCE_SECONDS] * 3) == 0.5
        assert calibrate.unit() == calibrate.unit()

    def test_latency_summary_tail(self):
        assert harness.latency_summary([0.001] * 10)["tail"] is None
        summary = harness.latency_summary([i / 1000 for i in range(1, 101)])
        assert summary["samples"] == 100 and summary["p50_ms"] == 50.5
        assert summary["tail"] == {"percentile": 90.0, "ms": 90.0}
        assert harness.latency_summary([i / 1000 for i in range(1, 21)])["tail"]["ms"] == 10.0


def test_fails_without_the_package(tmp_path):
    ignore = shutil.ignore_patterns("__pycache__", "out")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "retrieval", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
