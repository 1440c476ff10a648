"""The line counter that quotes the package's line budget, the traffic counter and the benchmark pair runner."""

from __future__ import annotations

import functools
import importlib.util
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
TOOL = TOOLS / "src_lines.py"


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


src_lines = load_tool("src_lines")
reach = load_tool("reach")
bench_pairs = load_tool("bench_pairs")

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line


# a comment line
class Box:
    """Class docstring."""

    def area(self, side):
        """Function docstring."""
        text = """a string that is
        not a docstring"""
        return math.prod([side, side]), text
'''


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    # code: import, class, def, the two lines of the string, return
    assert src_lines.count(SOURCE) == (15, 6)


def test_prints_the_totals_of_a_directory(tmp_path):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    out = subprocess.run([sys.executable, str(TOOL), str(tmp_path)], capture_output=True, text=True, check=True)
    assert out.stdout == f"{tmp_path.name}: 2 modules, 17 lines, 7 code lines\n"


def test_reach_names_the_functions_a_run_never_calls(tmp_path, monkeypatch):
    package = tmp_path / "twofuncs"
    package.mkdir()
    (package / "__init__.py").write_text(
        "class Box:\n    def used(self):\n        return [i for i in range(2)]\n\n\n"
        "def unused():\n    return 2\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    module = importlib.import_module("twofuncs")
    # neither the class body nor the comprehension is a function
    counts = reach.traffic(package, module.Box().used)
    assert counts == (1, 2, ["twofuncs.unused"])
    assert reach.report(*counts) == "reached 1 of 2 functions\ntwofuncs.unused\n"


def test_reach_counts_the_package_in_the_given_directory(tmp_path, monkeypatch, capsys):
    # the base commit's package, extracted elsewhere, is imported and counted in place of src/hgtensor
    package = tmp_path / "base" / "basefuncs"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("def used():\n    return 1\n\n\ndef unused():\n    return 2\n")
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(reach, "drive_goldens_and_one_round", lambda: importlib.import_module("basefuncs").used())
    assert reach.main(["reach.py", str(package)]) == 0
    assert capsys.readouterr().out == "reached 1 of 2 functions\nbasefuncs.unused\n"
    assert sys.path[0] == str(package.parent.resolve())


def test_reach_refuses_a_package_imported_from_elsewhere(tmp_path, monkeypatch):
    # an earlier import of the same name, from another tree, would have its calls counted here
    package = tmp_path / "base" / "shadowed"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("def used():\n    return 1\n")
    other = types.ModuleType("shadowed")
    other.__file__ = str(tmp_path / "other" / "shadowed" / "__init__.py")
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setitem(sys.modules, "shadowed", other)
    monkeypatch.setattr(reach, "drive_goldens_and_one_round", lambda: importlib.import_module("shadowed"))
    with pytest.raises(ImportError, match="shadowed was imported from .*other"):
        reach.main(["reach.py", str(package)])


def test_reach_exits_with_a_message_when_a_golden_case_fails(tmp_path, monkeypatch, capsys):
    # an older package may not know a command this checkout's goldens run, or may raise on it
    def usage_error(argv):
        print("usage error: invalid choice: 'newcmd'", file=sys.stderr)
        return 64

    def raises(argv):
        raise TypeError("no such keyword")

    package = tmp_path / "base" / "oldcli"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    monkeypatch.setattr(sys, "path", list(sys.path))
    for main, message in [
        (usage_error, "exited 64, not 0: usage error: invalid choice: 'newcmd'"),
        (raises, "raised TypeError('no such keyword'): "),
    ]:
        drive = functools.partial(reach.run_golden, main, "newcmd k12.hg", 0)
        monkeypatch.setattr(reach, "drive_goldens_and_one_round", drive)
        assert reach.main(["reach.py", str(package)]) == 1
        assert capsys.readouterr() == ("", f"reach.py: golden case 'newcmd k12.hg' {message}\n")


def final(correct=True, failed=0, **values):
    """A perfbench final line with every end-to-end metric; the named ones take the given values."""
    end_to_end = bench_pairs.benchmark()["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 1.0), "unit": m["unit"]} for m in end_to_end}
    return {"correct": correct, "attempted": 20, "failed": failed, "metrics": metrics}


def test_bench_pairs_summary_counts_ties_for_neither_side_and_reads_each_direction():
    rates = [(100.0, 104.0), (110.0, 110.0), (120.0, 130.0)]  # (parent, change): the second pair ties
    p50s = [(3.0, 2.0), (3.0, 3.5), (3.0, 2.5)]  # lower is better: the change wins pairs 1 and 3
    runs = [
        {"pair": pair, "side": side, "final": final(requests_per_s=rate[k], request_p50_geomean_ms=p50[k], failed=k)}
        for pair, rate, p50 in zip([1, 2, 3], rates, p50s)
        for k, side in enumerate(["parent", "change"])
    ]
    runs[1]["final"]["correct"] = False
    summary = bench_pairs.summarize(runs)
    assert summary["pairs"] == 3
    assert summary["metrics"]["requests_per_s"] == {
        "parent_q1_median_q3": [105.0, 110.0, 115.0],
        "change_q1_median_q3": [107.0, 110.0, 120.0],
        "median_change_ratio": 0.0,
        "pairs_change_better": "2/3",
        "parent_iqr": 10.0,
    }
    p50 = summary["metrics"]["request_p50_geomean_ms"]
    assert (p50["change_q1_median_q3"], p50["pairs_change_better"]) == ([2.25, 2.5, 3.0], "2/3")
    assert p50["median_change_ratio"] == pytest.approx(-1 / 6)
    assert summary["metrics"]["setup_s"]["pairs_change_better"] == "0/3"  # every pair ties
    assert (summary["failed_ratio_seen"], summary["all_correct"]) == ([0.0, 0.05], False)


def test_bench_pairs_alternates_the_first_side_and_numbers_pairs_on(tmp_path):
    calls = []

    def runner(root, workload, seed, seconds):
        calls.append(root.name)
        return final(requests_per_s=float(len(calls))), f"sha-{root.name}", {"eig": float(len(calls))}

    out = tmp_path / "bench.json"
    out.write_text('{"about": "kept"}')
    argv = ["p", "c", "--workload", "spectral", "--seed", "1", "--pairs", "3", "--seconds", "1", "--out", str(out)]
    assert bench_pairs.main(argv, runner) == 0
    assert calls == ["p", "c", "c", "p", "p", "c"]
    assert bench_pairs.main(argv[:7] + ["1"] + argv[8:], runner) == 0  # one more pair: the fourth, change first
    book = json.loads(out.read_text())
    assert book["about"] == "kept"
    last_pair = [(r["pair"], r["side"], r["first"]) for r in book["runs"][-2:]]
    assert last_pair == [(4, "change", True), (4, "parent", False)]
    assert {(r["workload"], r["seed"], r["source_sha256"]) for r in book["runs"]} == {
        ("spectral", 1, "sha-p"),
        ("spectral", 1, "sha-c"),
    }
    # the change ran second in pairs 1 and 3, first in pairs 2 and 4, and each later run read higher
    assert book["summary"]["spectral.s1"]["metrics"]["requests_per_s"]["pairs_change_better"] == "2/4"
    assert book["summary"]["spectral.s1"]["pairs"] == 4
    # each run keeps its kinds' p50s: the parent ran 1st, 4th, 5th and 8th, the change 2nd, 3rd, 6th and 7th
    assert [r["kind_p50_ms"]["eig"] for r in book["runs"]] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    assert book["summary"]["spectral.s1"]["kinds"] == {
        "eig": {"parent_median_p50_ms": 4.5, "change_median_p50_ms": 4.5, "median_change_ratio": 0.0}
    }


def test_bench_pairs_kind_medians_skip_records_without_them():
    runs = [
        {"pair": 1, "side": "parent", "final": final()},  # a record from before kind_p50_ms was kept
        {"pair": 1, "side": "change", "final": final()},
        {"pair": 2, "side": "parent", "final": final(), "kind_p50_ms": {"poly": 2.0, "bound": 1.0}},
        {"pair": 2, "side": "change", "final": final(), "kind_p50_ms": {"poly": 1.5}},
    ]
    summary = bench_pairs.summarize(runs)
    assert set(summary["metrics"]) == {m["name"] for m in bench_pairs.benchmark()["end_to_end"]}
    assert summary["kinds"] == {
        "poly": {"parent_median_p50_ms": 2.0, "change_median_p50_ms": 1.5, "median_change_ratio": -0.25}
    }
