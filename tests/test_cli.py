from __future__ import annotations

import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hgtensor.cli import main
from hgtensor.hypergraph import parse_hypergraph

DATA = Path(__file__).resolve().parent / "data"
SAMPLE = str(DATA / "sample.hg")
K3 = str(DATA / "k3.hg")
TWO_BLOCKS = str(DATA / "two_blocks.hg")
# a child python finds the package in ./src without an install, as pytest itself does
SRC_PATH = os.pathsep.join(filter(None, [str(DATA.parents[1] / "src"), os.environ.get("PYTHONPATH")]))
CHILD_ENV = {**os.environ, "PYTHONPATH": SRC_PATH}


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInfo:
    def test_sample(self, capsys):
        code, out, _ = run_cli(capsys, "info", SAMPLE)
        assert code == 0
        assert out == "n=7\nedges=7\nk_max=3\nsize_1=2\nsize_2=3\nsize_3=2\n"

    def test_triangle(self, capsys):
        code, out, _ = run_cli(capsys, "info", K3)
        assert code == 0
        assert out == "n=3\nedges=3\nk_max=2\nsize_1=0\nsize_2=3\n"

    def test_edgeless_skips_layer_lines(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("4\n"))
        code, out, _ = run_cli(capsys, "info", "-")
        assert code == 0
        assert out == "n=4\nedges=0\nk_max=0\n"

    def test_stdin_is_the_default_path(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("3\n1 2\n2 3\n1 3\n"))
        code, out, _ = run_cli(capsys, "info")
        assert code == 0
        assert out == "n=3\nedges=3\nk_max=2\nsize_1=0\nsize_2=3\n"

    def test_byte_order_mark_on_stdin(self):
        # files are read the same way: tests/data/sample_bom.hg has a golden for every command
        result = subprocess.run(
            [sys.executable, "-m", "hgtensor.cli", "info", "-"],
            input=b"\xef\xbb\xbf3\n1 2\n",
            env={**CHILD_ENV, "PYTHONIOENCODING": "utf-8"},
            capture_output=True,
        )
        assert (result.returncode, result.stdout, result.stderr) == (
            0,
            b"n=3\nedges=1\nk_max=2\nsize_1=0\nsize_2=1\n",
            b"",
        )


class TestLayers:
    def test_sample_keeps_file_order_inside_each_layer(self, capsys):
        code, out, _ = run_cli(capsys, "layers", SAMPLE)
        assert code == 0
        assert out == (
            "layer 1: 2 edges\n"
            "  5\n"
            "  4\n"
            "layer 2: 3 edges\n"
            "  6 7\n"
            "  3 4\n"
            "  4 7\n"
            "layer 3: 2 edges\n"
            "  1 2 3\n"
            "  1 2 7\n"
        )

    def test_singular_noun_for_one_edge(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("2\n1 2\n"))
        code, out, _ = run_cli(capsys, "layers", "-")
        assert code == 0
        assert out == "layer 1: 0 edges\nlayer 2: 1 edge\n  1 2\n"


class TestTensor:
    def test_layered_model_is_the_default(self, capsys):
        code, out, _ = run_cli(capsys, "tensor", SAMPLE)
        assert code == 0
        assert out == (
            "symtensor v1 order=3 dim=9\n"
            "1 2 3 1/2\n"
            "1 2 7 1/2\n"
            "3 4 9 1/2\n"
            "4 7 9 1/2\n"
            "4 8 9 1/2\n"
            "5 8 9 1/2\n"
            "6 7 9 1/2\n"
        )

    def test_banerjee_model(self, capsys):
        code, out, _ = run_cli(capsys, "tensor", "--model", "banerjee", SAMPLE)
        assert code == 0
        assert out == (
            "symtensor v1 order=3 dim=7\n"
            "1 2 3 1/2\n"
            "1 2 7 1/2\n"
            "3 3 4 1/3\n"
            "3 4 4 1/3\n"
            "4 4 4 1\n"
            "4 4 7 1/3\n"
            "4 7 7 1/3\n"
            "5 5 5 1\n"
            "6 6 7 1/3\n"
            "6 7 7 1/3\n"
        )

    def test_single_layer_raw(self, capsys):
        code, out, _ = run_cli(
            capsys, "tensor", "--layer", "2", "--normalization", "raw", SAMPLE
        )
        assert code == 0
        assert out == "symtensor v1 order=2 dim=7\n3 4 1\n4 7 1\n6 7 1\n"

    def test_single_layer_defaults_to_degree_normalization(self, capsys):
        code, out, _ = run_cli(capsys, "tensor", "--layer", "3", SAMPLE)
        assert code == 0
        assert out == "symtensor v1 order=3 dim=7\n1 2 3 1/2\n1 2 7 1/2\n"

    def test_eigen_normalization_prints_floats(self, capsys):
        code, out, _ = run_cli(
            capsys, "tensor", "--layer", "2", "--normalization", "eigen", K3
        )
        assert code == 0
        assert out == "symtensor v1 order=2 dim=3\n1 2 0.5\n1 3 0.5\n2 3 0.5\n"

    def test_layer_and_model_are_mutually_exclusive(self, capsys):
        code, _, err = run_cli(
            capsys, "tensor", "--layer", "2", "--model", "banerjee", SAMPLE
        )
        assert code == 64
        assert "mutually exclusive" in err

    @pytest.mark.parametrize("normalization", ["raw", "degree", "eigen"])
    def test_normalization_needs_layer(self, capsys, normalization):
        code, out, err = run_cli(capsys, "tensor", "--normalization", normalization, SAMPLE)
        assert (code, out, err) == (64, "", "usage error: --normalization needs --layer\n")

    def test_missing_layer_is_a_data_error(self, capsys):
        code, _, err = run_cli(capsys, "tensor", "--layer", "9", SAMPLE)
        assert code == 1
        assert err.startswith("error:")


class TestPoly:
    def test_handshake_policy_is_the_default(self, capsys):
        code, out, _ = run_cli(capsys, "poly", SAMPLE)
        assert code == 0
        assert out == (
            "poly v1 degree=3 vars=9\n"
            "3 * z_1*z_2*z_3\n"
            "3 * z_1*z_2*z_7\n"
            "3 * z_3*z_4*y_2\n"
            "3 * z_4*z_7*y_2\n"
            "3 * z_4*y_1*y_2\n"
            "3 * z_5*y_1*y_2\n"
            "3 * z_6*z_7*y_2\n"
        )

    def test_unit_policy_weights_layers_by_size(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "--policy", "unit", SAMPLE)
        assert code == 0
        assert out == (
            "poly v1 degree=3 vars=9\n"
            "3 * z_1*z_2*z_3\n"
            "3 * z_1*z_2*z_7\n"
            "2 * z_3*z_4*y_2\n"
            "2 * z_4*z_7*y_2\n"
            "1 * z_4*y_1*y_2\n"
            "1 * z_5*y_1*y_2\n"
            "2 * z_6*z_7*y_2\n"
        )

    @pytest.mark.parametrize("policy", ["handshake", "unit"])
    def test_no_coefficient_past_the_first_write_can_fail_to_print(self, policy, capsys, monkeypatch):
        # every coefficient is k_max (handshake) or the edge size (unit), so a monomial
        # written after the first chunk never meets the integer printing limit
        big = range(2, 42)  # its monomial sorts after the 4200 pairs {1, j}
        text = "4300\n" + "".join(f"1 {j}\n" for j in range(2, 4202)) + " ".join(map(str, big)) + "\n"
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert main(["poly", "--policy", policy, "-"]) == 0
        header, *monomials = capsys.readouterr().out.splitlines()
        assert header == "poly v1 degree=40 vars=4339" and len(monomials) == 4201
        sizes = [2] * 4200 + [40]
        assert [int(line.split(" * ")[0]) for line in monomials] == (
            [40] * 4201 if policy == "handshake" else sizes
        )

    def test_monomials_stream_a_few_thousand_lines_per_write(self, monkeypatch):
        edges = itertools.islice(itertools.combinations(range(1, 151), 2), 10_000)
        monkeypatch.setattr(sys, "stdin", io.StringIO("150\n" + "".join(f"{u} {v}\n" for u, v in edges)))
        writes: list[str] = []

        class Recorder(io.StringIO):
            def write(self, text: str) -> int:
                writes.append(text)
                return len(text)

        monkeypatch.setattr(sys, "stdout", Recorder())
        assert main(["poly", "-"]) == 0
        lines = [text.count("\n") for text in writes]
        assert sum(lines) == 10_001  # the header and one line per monomial
        assert max(lines) <= 4096


class TestRetrievalCommands:
    def test_degrees(self, capsys):
        code, out, _ = run_cli(capsys, "degrees", SAMPLE)
        assert code == 0
        assert out == "1 2\n2 2\n3 2\n4 3\n5 1\n6 1\n7 3\n"

    def test_cardinalities(self, capsys):
        code, out, _ = run_cli(capsys, "cardinalities", SAMPLE)
        assert code == 0
        assert out == (
            "cumulative_1=2\ncumulative_2=5\ncumulative_3=7\n"
            "size_1=2\nsize_2=3\nsize_3=2\n"
        )

    def test_reconstruct_emits_readable_hg(self, capsys):
        code, out, _ = run_cli(capsys, "reconstruct", SAMPLE)
        assert code == 0
        assert out == "7\n1 2 3\n1 2 7\n3 4\n4 7\n4\n5\n6 7\n"
        rebuilt = parse_hypergraph(out)
        original = parse_hypergraph(Path(SAMPLE).read_text())
        assert rebuilt.n == original.n
        assert set(rebuilt.edges) == set(original.edges)


class TestDnf:
    @pytest.mark.parametrize(
        ("size", "expected"),
        [(1, "4\n5\n"), (2, "3 4\n4 7\n6 7\n"), (3, "1 2 3\n1 2 7\n")],
    )
    def test_each_size(self, capsys, size, expected):
        code, out, _ = run_cli(capsys, "dnf", "--size", str(size), SAMPLE)
        assert code == 0
        assert out == expected

    def test_size_zero_is_a_data_error(self, capsys):
        code, _, err = run_cli(capsys, "dnf", "--size", "0", SAMPLE)
        assert code == 1
        assert err.startswith("error:")

    def test_size_is_required(self, capsys):
        code, _, err = run_cli(capsys, "dnf", SAMPLE)
        assert code == 64
        assert "usage error:" in err


class TestCounting:
    def test_partitions(self, capsys):
        code, out, _ = run_cli(capsys, "partitions", "--m", "7", "--s", "3")
        assert code == 0 and out == "4\n"

    def test_partitions_reject_nonpositive_input(self, capsys):
        code, _, err = run_cli(capsys, "partitions", "--m", "0", "--s", "1")
        assert code == 1
        assert "positive" in err

    def test_alpha(self, capsys):
        code, out, _ = run_cli(capsys, "alpha", "--k", "5", "--s", "2")
        assert code == 0 and out == "30\n"

    def test_alpha_rejects_s_above_k(self, capsys):
        code, _, err = run_cli(capsys, "alpha", "--k", "3", "--s", "5")
        assert code == 1
        assert err.startswith("error:")


class TestCompare:
    def test_keyvalue_format_is_the_default(self, capsys):
        code, out, _ = run_cli(capsys, "compare", SAMPLE)
        assert code == 0
        assert out == (
            "order=3\n"
            "layered_dim=9\n"
            "banerjee_dim=7\n"
            "layered_total_elements=729\n"
            "banerjee_total_elements=343\n"
            "layered_nnz_positions=42\n"
            "banerjee_nnz_positions=32\n"
            "layered_describe_count=7\n"
            "banerjee_describe_count=7\n"
            "layered_entry_value=1/2\n"
            "banerjee_entry_value_size_1=1\n"
            "banerjee_entry_value_size_2=1/3\n"
            "banerjee_entry_value_size_3=1/2\n"
        )

    def test_text_table(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--format", "text", SAMPLE)
        assert code == 0
        assert out == (
            "metric            layered  banerjee\n"
            "order                   3         3\n"
            "dim                     9         7\n"
            "total_elements        729       343\n"
            "nnz_positions          42        32\n"
            "describe_count          7         7\n"
            "entry_value           1/2         -\n"
            "entry_value[s=1]        -         1\n"
            "entry_value[s=2]        -       1/3\n"
            "entry_value[s=3]        -       1/2\n"
        )


class TestBound:
    def test_sample(self, capsys):
        code, out, _ = run_cli(capsys, "bound", SAMPLE)
        assert code == 0
        assert out == "delta=3\ndelta_star=5\nbound=5\n"

    def test_triangle_has_no_padding_mass(self, capsys):
        code, out, _ = run_cli(capsys, "bound", K3)
        assert code == 0
        assert out == "delta=2\ndelta_star=0\nbound=2\n"


class TestEig:
    def test_triangle_converges_immediately(self, capsys):
        code, out, _ = run_cli(capsys, "eig", K3)
        assert code == 0
        assert out == (
            "converged=true\n"
            "iterations=1\n"
            "lambda=2\n"
            "bracket_low=2\n"
            "bracket_high=2\n"
            "bracket_width=0\n"
            "residual=0\n"
            "x_1=1\n"
            "x_2=1\n"
            "x_3=1\n"
            "x_4=0\n"
        )

    def test_sample_converges_deterministically(self, capsys):
        code, first, _ = run_cli(capsys, "eig", SAMPLE)
        assert code == 0
        lines = first.splitlines()
        assert lines[0] == "converged=true"
        assert lines[2].startswith("lambda=2.72657864")
        assert lines[-1] == "x_9=1"
        code, second, _ = run_cli(capsys, "eig", SAMPLE)
        assert code == 0 and second == first

    def test_disconnected_blocks_stall_with_exit_two(self, capsys):
        code, out, _ = run_cli(capsys, "eig", TWO_BLOCKS)
        assert code == 2
        lines = out.splitlines()
        assert lines[0] == "converged=false"
        assert lines[2:7] == [
            "lambda=1.5",
            "bracket_low=1",
            "bracket_high=2",
            "bracket_width=1",
            "residual=0.5",
        ]
        assert lines[9:] == ["x_3=1", "x_4=1", "x_5=1", "x_6=0"]

    def test_underflowing_block_stops_unconverged(self, capsys, monkeypatch):
        # x shrinks on the 3-edge block until x**2, the ratio's divisor, underflows
        monkeypatch.setattr(sys, "stdin", io.StringIO("6\n1 2\n2 3\n1 3\n4 5 6\n"))
        code, out, err = run_cli(capsys, "eig", "-")
        assert code == 2
        assert out.startswith("converged=false\n")
        assert err == ""

    def test_loose_tolerance_converges_faster(self, capsys):
        code, out, _ = run_cli(capsys, "eig", "--tol", "0.5", SAMPLE)
        assert code == 0
        assert out.splitlines()[0] == "converged=true"

    def test_negative_tolerance_is_a_data_error(self, capsys):
        for tol in ("-1", "nan"):  # a NaN tolerance would run every iteration and exit 2
            code, _, err = run_cli(capsys, "eig", "--tol", tol, SAMPLE)
            assert code == 1
            assert err == "error: tolerance must be nonnegative\n"


class TestGraphCheck:
    def test_triangle(self, capsys):
        code, out, _ = run_cli(capsys, "graph-check", K3)
        assert code == 0
        assert out == (
            "c2=1\n"
            "block_ok=true\n"
            "graph_lambda=2\n"
            "layered_lambda=2\n"
            "graph_converged=true\n"
            "layered_converged=true\n"
            "relation_ok=true\n"
            "zero_eigenpair_ok=true\n"
        )

    def test_long_cycle_is_linear_in_the_edges(self, capsys, monkeypatch):
        n = 10_000
        cycle = "".join(f"{v} {v % n + 1}\n" for v in range(1, n + 1))
        monkeypatch.setattr(sys, "stdin", io.StringIO(f"{n}\n{cycle}"))
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "graph-check", "-")
        assert time.perf_counter() - start < 2.0
        assert code == 0
        assert "block_ok=true\n" in out and "relation_ok=true\n" in out

    def test_rejects_mixed_cardinalities(self, capsys):
        code, _, err = run_cli(capsys, "graph-check", SAMPLE)
        assert code == 1
        assert err.startswith("error:")


def run_capped(argv: list[str], stdin: str = "") -> subprocess.CompletedProcess:
    """The CLI in a child process that caps its own address space at 1 GB."""
    pytest.importorskip("resource")
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
        "from hgtensor.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        input=stdin,
        capture_output=True,
        text=True,
        env=CHILD_ENV,
        timeout=60,
    )


class TestErrorHandling:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "info", str(DATA / "no-such-file.hg"))
        assert code == 1
        assert err.startswith("error:")

    def test_malformed_input(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("3\n1 2 9\n"))
        code, _, err = run_cli(capsys, "degrees", "-")
        assert code == 1
        assert err.startswith("error:")

    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 64
        assert "usage error:" in err

    def test_no_subcommand(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 64
        assert "usage error:" in err

    @pytest.mark.parametrize("argv", ["alpha --k {big} --s 2", "partitions --m {big} --s 1"])
    def test_too_large_an_integer_is_a_data_error(self, argv):
        # capped: without a check, alpha would build 2**(10**400)
        proc = run_capped(argv.format(big=10**400).split())
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("command", ["eig", "graph-check"])
    def test_out_of_memory_is_a_data_error(self, command):
        # 10**10 vertices: the eigensolver's dim-long vectors cannot fit in 1 GB
        proc = run_capped([command, "-"], "10000000000\n1 2\n")
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "error: out of memory\n")


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "hgtensor.cli", "info", K3],
        env=CHILD_ENV,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("n=3\n")


GOLDEN = json.loads((DATA / "cli_golden.json").read_text())
GOLDEN_COMMANDS = (
    "eig",
    "graph-check",
    "bound",
    "degrees",
    "cardinalities",
    "compare",
    "compare --format text",
    "tensor",
    "tensor --model banerjee",
    "tensor --layer 1",
    "tensor --layer 2 --normalization raw",
    "tensor --layer 2 --normalization eigen",
    "poly",
    "poly --policy unit",
    "info",
    "layers",
    "reconstruct",
    "dnf --size 1",
    "dnf --size 2",
    "dnf --size 3",
)


class TestGoldenOutput:
    """Every path command keeps its exact output: slice sums, contractions, the
    two models' COO texts and their comparison, the layer tensors' COO texts
    (exact, and float under eigen normalization), polynomials, layers and
    reconstruction (k12.hg has total element counts above 2**53)."""

    def test_every_input_has_every_command(self):
        expected = {f"{c} {p.name}" for c in GOLDEN_COMMANDS for p in DATA.glob("*.hg")}
        assert set(GOLDEN) == expected

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_stdout_and_exit_code(self, capsys, case):
        *argv, name = case.split()
        code, out, _ = run_cli(capsys, *argv, str(DATA / name))
        assert (code, out) == (GOLDEN[case]["exit"], GOLDEN[case]["stdout"])


def partition_numbers(limit: int) -> list[int]:
    """p(0..limit), all partitions of each m, by Euler's pentagonal recurrence."""
    p = [1] + [0] * limit
    for m in range(1, limit + 1):
        j = 1
        while (g := j * (3 * j - 1) // 2) <= m:
            sign = 1 if j % 2 else -1
            p[m] += sign * p[m - g]
            if g + j <= m:
                p[m] += sign * p[m - g - j]
            j += 1
    return p


class TestClosedFormProbes:
    """Inputs far too large to enumerate are answered, or refused, within a time budget."""

    def run_timed(self, capsys, *argv: str, budget: float = 1.0) -> tuple[int, str, str]:
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < budget
        return code, out, err

    def test_partitions_of_a_large_m(self, capsys):
        # Partitions of 3000 into 1500 parts are the partitions of 1500.
        code, out, _ = self.run_timed(capsys, "partitions", "--m", "3000", "--s", "1500")
        assert code == 0 and out == f"{partition_numbers(1500)[1500]}\n"

    @pytest.mark.parametrize(
        "m, s", [(10**6, 1000), (10**400, 1), (10**3000, 5 * 10**2999)], ids=["1e6", "1e400", "1e3000"]
    )
    def test_partitions_table_above_the_cap_is_refused(self, capsys, m, s):
        # 10^9, 10^400 and about 10^6000 additions: named as a power of ten, never printed whole
        code, out, err = self.run_timed(capsys, "partitions", "--m", str(m), "--s", str(s))
        assert (code, out) == (1, "")
        assert err.startswith("error: the partition table needs about 10^") and err.count("\n") == 1
        assert err.endswith(" additions, above the cap of 10000000\n")

    def test_alpha_beyond_enumeration(self, capsys):
        code, out, _ = self.run_timed(capsys, "alpha", "--k", "22", "--s", "11")
        assert code == 0 and out == "14620825330739032204800\n"

    def test_alpha_beyond_the_printing_limit(self, capsys):
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this Python prints integers of any length")
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)  # CPython's default
        try:
            # 9412 digits, refused before they are computed
            code, out, err = self.run_timed(capsys, "alpha", "--k", "3000", "--s", "1500")
            assert (code, out) == (1, "")
            assert err == (
                "error: alpha(3000, 1500) has at least 8879 digits, "
                "above the limit of 4300 digits for printing an integer\n"
            )
            # 4320 digits past an estimate of 4051: computed, then refused
            code, out, err = self.run_timed(capsys, "alpha", "--k", "1520", "--s", "760")
            assert (code, out) == (1, "")
            assert err == (
                "error: alpha(1520, 760) has 4320 digits, "
                "above the limit of 4300 digits for printing an integer\n"
            )
            # 4255 digits: printed, though 750^1500 has 4313
            code, out, _ = self.run_timed(capsys, "alpha", "--k", "1500", "--s", "750")
            assert code == 0 and len(out) == 4256 and out[:-1].isdigit()
        finally:
            sys.set_int_max_str_digits(saved)

    def test_alpha_under_a_raised_printing_limit(self, capsys):
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this Python prints integers of any length")
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4_000_000)  # 10**limit alone takes seconds to build
        try:
            code, out, _ = self.run_timed(capsys, "alpha", "--k", "3", "--s", "2")
            assert (code, out) == (0, "6\n")
            code, out, _ = self.run_timed(capsys, "alpha", "--k", "1520", "--s", "760")
            assert code == 0 and len(out) == 4321 and out[:-1].isdigit()
        finally:
            sys.set_int_max_str_digits(saved)

    @pytest.mark.parametrize("command", ["tensor --model banerjee", "compare"])
    def test_oversized_banerjee_build_is_refused(self, capsys, monkeypatch, command):
        # C(29, 29) + C(29, 14) keys, tens of GB if built
        edges = [range(1, 31), range(1, 16)]
        text = "30\n" + "".join(" ".join(map(str, e)) + "\n" for e in edges)
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, err = self.run_timed(capsys, *command.split(), "-")
        assert (code, out) == (1, "")
        assert err == "error: the banerjee tensor needs 77558761 keys, above the cap of 1000000\n"

    def test_eig_of_one_edge_of_3000_vertices(self, capsys, monkeypatch):
        # 2999 factors per product: one unchunked expression of them fails to compile before 3.13
        monkeypatch.setattr(sys, "stdin", io.StringIO("3000\n" + " ".join(map(str, range(1, 3001))) + "\n"))
        code, out, err = self.run_timed(capsys, "eig", "-", budget=10.0)
        head = "converged=true\niterations=1\nlambda=1\nbracket_low=1\nbracket_high=1\nbracket_width=0\nresidual=0\n"
        ones = "".join(f"x_{i}=1\n" for i in range(1, 3001))
        assert (code, err) == (0, "")
        assert out == head + ones + "".join(f"x_{i}=0\n" for i in range(3001, 6000))

    @pytest.mark.parametrize(
        "command, message",
        [
            ("tensor", "a value's denominator has 5077 digits"),
            ("tensor --model banerjee", "a value's denominator has 5077 digits"),
            ("compare", "layered_total_elements has 6402 digits"),
        ],
    )
    def test_values_beyond_the_printing_limit(self, capsys, monkeypatch, command, message):
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this Python prints integers of any length")
        # the layered value 1/1799! and the 3599^1800 positions are past 4300 digits
        monkeypatch.setattr(sys, "stdin", io.StringIO("1800\n" + " ".join(map(str, range(1, 1801))) + "\n"))
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)  # CPython's default
        try:
            code, out, err = self.run_timed(capsys, *command.split(), "-", budget=10.0)
        finally:
            sys.set_int_max_str_digits(saved)
        assert (code, out) == (1, "")
        assert err == f"error: {message}, above the limit of 4300 digits for printing an integer\n"

    def test_cardinalities_of_a_wide_sparse_input(self, capsys, monkeypatch):
        # one edge among 300 000 000 vertices: only the touched slices are summed
        monkeypatch.setattr(sys, "stdin", io.StringIO("300000000\n1 2\n"))
        code, out, _ = self.run_timed(capsys, "cardinalities", "-")
        assert code == 0
        assert out == "cumulative_1=0\ncumulative_2=1\nsize_1=0\nsize_2=1\n"

    def test_bound_of_a_wide_sparse_input(self, capsys, monkeypatch):
        # the three degree numbers come from the edges; no tensor or disk is built
        monkeypatch.setattr(sys, "stdin", io.StringIO("3000000\n1 2\n"))
        code, out, _ = self.run_timed(capsys, "bound", "-")
        assert code == 0
        assert out == "delta=1\ndelta_star=0\nbound=1\n"

    def test_poly_of_pairs_and_one_edge_of_400_vertices(self, capsys, monkeypatch):
        # 399 padding variables: one homogenization round per variable re-tuples every
        # earlier monomial, about 4 s; unrolled, each monomial takes its suffix once
        rng = random.Random(1)
        edges = {tuple(range(1, 401))}
        while len(edges) < 2001:
            edges.add(tuple(sorted(rng.sample(range(1, 401), 2))))
        monkeypatch.setattr(sys, "stdin", io.StringIO("400\n" + "".join(" ".join(map(str, e)) + "\n" for e in edges)))
        code, out, err = self.run_timed(capsys, "poly", "-", budget=1.5)
        assert (code, err) == (0, "")
        header, *monomials = out.splitlines()
        assert header == "poly v1 degree=400 vars=799" and len(monomials) == 2001
        # handshake: c_s * s = 400 for every size s
        assert monomials[0] == "400 * " + "*".join(f"z_{i}" for i in range(1, 401))
        padding = "*".join(f"y_{j}" for j in range(2, 400))
        assert all(m.startswith("400 * z_") and m.endswith(f"*{padding}") for m in monomials[1:])

    def test_degrees_of_a_wide_sparse_input(self):
        # 3 000 000 lines into a pipe, as a shell redirect sees them: one write per line took 10 s
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "hgtensor.cli", "degrees", "-"],
            input="3000000\n1 2\n",
            capture_output=True,
            text=True,
            env=CHILD_ENV,
            timeout=60,
        )
        assert time.perf_counter() - start < 5.0
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("1 1\n2 1\n3 0\n")
        assert proc.stdout.endswith("\n3000000 0\n")
        assert proc.stdout.count("\n") == 3000000


WIDE = 24000
WIDE_EDGE = " ".join(map(str, range(1, WIDE + 1)))  # with its header, a 134 KB file


def wide_edge_output(command: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of command on one edge holding all WIDE vertices."""
    if command == "degrees":
        return 0, "".join(f"{v} 1\n" for v in range(1, WIDE + 1)), ""
    if command == "cardinalities":
        counts = [0] * (WIDE - 1) + [1]
        lines = [f"cumulative_{j}={c}" for j, c in enumerate(counts, 1)] + [f"size_{j}={c}" for j, c in enumerate(counts, 1)]
        return 0, "".join(line + "\n" for line in lines), ""
    if command == "reconstruct":
        return 0, f"{WIDE}\n{WIDE_EDGE}\n", ""
    if command == "poly":  # handshake: c_k * k = k
        monomial = "*".join(f"z_{i}" for i in range(1, WIDE + 1))
        return 0, f"poly v1 degree={WIDE} vars={2 * WIDE - 1}\n{WIDE} * {monomial}\n", ""
    # the value 1/23999! has a 94701-digit denominator
    if not hasattr(sys, "set_int_max_str_digits"):
        return 0, f"symtensor v1 order={WIDE} dim={2 * WIDE - 1}\n{WIDE_EDGE} 1/{math.factorial(WIDE - 1)}\n", ""
    return 1, "", "error: a value's denominator has 94701 digits, above the limit of 4300 digits for printing an integer\n"


@pytest.mark.parametrize("command", ["degrees", "cardinalities", "reconstruct", "poly", "tensor"])
def test_one_edge_of_24000_vertices_in_a_capped_child(command):
    # a table of every padding suffix (k²/2 indices), or one k!-sized numerator per vertex,
    # needs gigabytes and ends in "error: out of memory" under the cap; about 30 MB suffice
    start = time.perf_counter()
    proc = run_capped([command, "-"], f"{WIDE}\n{WIDE_EDGE}\n")
    assert time.perf_counter() - start < 10.0
    assert (proc.returncode, proc.stdout, proc.stderr) == wide_edge_output(command)


class TestUnconvergedGraphCheck:
    """graph-check prints its whole report and exits 2 when a power iteration stalls."""

    def test_path_graph_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("3\n1 2\n2 3\n"))
        code, out, err = run_cli(capsys, "graph-check", "-")
        assert code == 2
        assert out.startswith("c2=1\n") and "graph_converged=false\n" in out
        assert out.endswith("zero_eigenpair_ok=true\n")
        assert err == ""


def test_closed_stdout_is_not_a_data_error():
    """A reader that stops early, as `| head -1` does, ends the run quietly with exit 0.

    The 300 000 degree lines are about 3 MB, more than any pipe buffer holds,
    so the writer always meets the closed pipe.
    """
    proc = subprocess.Popen(
        [sys.executable, "-m", "hgtensor.cli", "degrees", "-"],
        env=CHILD_ENV,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    proc.stdin.write("300000\n1 2\n")
    proc.stdin.close()
    assert proc.stdout.readline() == "1 1\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == ""
