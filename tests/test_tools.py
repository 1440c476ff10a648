"""The line counter that quotes the package's line budget, and the traffic counter."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
TOOL = TOOLS / "src_lines.py"


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


src_lines = load_tool("src_lines")
reach = load_tool("reach")

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
    assert out.stdout == f"{tmp_path.name}: 17 lines, 7 code lines\n"


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
