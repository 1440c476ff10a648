"""Print which package functions the CLI goldens and one benchmark round never call.

A profile hook records every Python function called while ``hgtensor.cli.main``
runs each case of tests/data/cli_golden.json, and while perfbench's program
runs one round of every benchmark request at seed 1 (each input's set-up
build included).  The script prints ``reached X of Y functions`` and then,
one per line, every function of src/hgtensor that no case or request called.
A function is a ``def`` (a method or a nested ``def`` included); lambdas,
comprehensions and generated code are not counted.

    python tools/reach.py [directory]

The directory is the package to import and count, src/hgtensor beside this
script's parent by default; the goldens and the benchmark are this checkout's.
The script refuses a package imported from anywhere else, and exits with 1 and
a message on stderr when a golden case raises or exits with another code than
the recorded one, as an older package may.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import os
import sys
import types
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent


def package_functions(package_dir: Path) -> dict[tuple[str, int, str], str]:
    """{(file, first line, name): dotted qualified name} for every def in the package."""
    found = {}
    for path in sorted(package_dir.rglob("*.py")):
        parts = path.relative_to(package_dir.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        file = os.path.realpath(path)
        stack = [(compile(path.read_text(encoding="utf-8"), file, "exec"), f"{module}.")]
        while stack:
            code, prefix = stack.pop()
            for const in code.co_consts:
                if isinstance(const, types.CodeType):
                    function = bool(const.co_flags & inspect.CO_NEWLOCALS)  # not a class body
                    if function and not const.co_name.startswith("<"):
                        found[(file, const.co_firstlineno, const.co_name)] = prefix + const.co_name
                    stack.append((const, prefix + const.co_name + (".<locals>." if function else ".")))
    return found


def traffic(package_dir: Path, drive: Callable[[], None]) -> tuple[int, int, list[str]]:
    """(reached, total, the names never called) while ``drive()`` runs."""
    called: set[types.CodeType] = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(hook)
    try:
        drive()
    finally:
        sys.setprofile(None)
    functions = package_functions(package_dir)
    reached = {(os.path.realpath(c.co_filename), c.co_firstlineno, c.co_name) for c in called}
    missed = sorted(name for key, name in functions.items() if key not in reached)
    return len(functions) - len(missed), len(functions), missed


def report(reached: int, total: int, missed: list[str]) -> str:
    return "".join([f"reached {reached} of {total} functions\n", *(f"{name}\n" for name in missed)])


def run_golden(main: Callable[[list[str]], int], case: str, code: int) -> None:
    """Run one golden case ("command ... file") through ``main`` with its output discarded.

    A case that raises, or returns another exit code than the recorded ``code``
    (as a package returns a usage error on a command it does not know), raises a
    RuntimeError that names the case and quotes what it wrote to stderr.
    """
    *argv, name = case.split()
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            got = main([*argv, str(ROOT / "tests" / "data" / name)])
    except (Exception, SystemExit) as exc:
        raise RuntimeError(f"golden case {case!r} raised {exc!r}: {err.getvalue().strip()}") from exc
    if got != code:
        raise RuntimeError(f"golden case {case!r} exited {got}, not {code}: {err.getvalue().strip()}")


def drive_goldens_and_one_round() -> None:
    """Every CLI golden case, then one round of every benchmark request at seed 1."""
    from hgbench import oracle, program, workloads

    from hgtensor import cli

    goldens = json.loads((ROOT / "tests" / "data" / "cli_golden.json").read_text())
    for case in sorted(goldens):
        run_golden(cli.main, case, goldens[case]["exit"])
    hg = program.modules()
    for workload in workloads.WORKLOADS.values():
        inputs = workloads.make_inputs(workload, 1)
        bounds = oracle.Oracle(inputs).bounds()  # eigcheck's candidate values, as the harness offers them
        for inp in inputs:
            program.build(hg, inp.text, workload.kinds)
        for request in workloads.round_requests(workload, inputs, 0, bounds):
            program.run(hg, request.kind, request.input.text if request.input else None, request.param)


def main(argv: list[str]) -> int:
    package_dir = Path(argv[1]).resolve() if len(argv) > 1 else ROOT / "src" / "hgtensor"
    sys.path[:0] = [str(package_dir.parent), str(ROOT / "perfbench")]
    try:
        counts = traffic(package_dir, drive_goldens_and_one_round)
    except RuntimeError as exc:
        sys.stderr.write(f"reach.py: {exc}\n")
        return 1
    module = sys.modules.get(package_dir.name)
    imported = getattr(module, "__file__", None)
    if imported is None or not Path(imported).resolve().is_relative_to(package_dir):
        # calls into another copy would be counted against this package's functions
        raise ImportError(f"{package_dir.name} was imported from {imported}, not from {package_dir}")
    sys.stdout.write(report(*counts))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
