"""The line counter that quotes the package's line budget."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)

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
