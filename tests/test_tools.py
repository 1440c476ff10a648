"""The line counter that quotes the package's line budget, and the traffic counter."""

from __future__ import annotations

import functools
import importlib.util
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
