#!/usr/bin/env python3
"""List the lines of the trafficflow package that no caller runs.

Usage:
    PYTHONPATH=<tree>/src python scripts/line_trace.py

Under one ``sys.settrace`` line tracer, limited to the directory of the
``trafficflow`` package that the interpreter imports (so any source tree can
be traced, a parent commit's included), it runs:

- each perfbench workload's ``setup``, one ``op`` and its ``check`` on
  ``perfbench/tests/tiny.json``;
- the seven command-line steps of ``compare_trees._steps`` on the same
  profile, in a temporary directory;
- ``experiments.rush_hour(seeds=1, epochs=1)``.

Then it prints ``<module>:<line>: <source>`` for each executable line that
none of them ran, other than ``raise`` statements and ``except`` clauses,
and a count per module.  ``experiments.generalization`` is left out: it
trains in spawned worker processes, which the tracer does not follow.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import json
import os
import runpy
import sys
import tempfile
import types
from collections import Counter
from pathlib import Path
from unittest import mock

import compare_trees

REPO = Path(__file__).resolve().parent.parent


def _executable_lines(source: str, filename: str) -> set[int]:
    """Every line that starts bytecode, less the lines of ``raise``
    statements and ``except`` clauses."""
    lines, codes = set(), [compile(source, filename, "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # line 0 is the module's entry
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Raise, ast.ExceptHandler)):
            lines.difference_update(range(node.lineno, node.end_lineno + 1))
    return lines


@contextlib.contextmanager
def _tracing(root: str, ran: set[tuple[str, int]]):
    """Adds (file, line) to ``ran`` for each line run in a file under ``root``."""
    def lines(frame, event, _):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def calls(frame, _event, _arg):
        return lines if frame.f_code.co_filename.startswith(root + os.sep) else None

    sys.settrace(calls)
    try:
        yield
    finally:
        sys.settrace(None)


def _run_workloads(work: Path) -> None:
    sys.path.append(str(REPO / "perfbench"))
    import workloads

    world = workloads.World.load(compare_trees.TINY)
    for name, workload in workloads.WORKLOADS.items():
        wl = workload(world, 1, work / name)
        wl.setup()
        checks = workloads.Checks()
        with checks.operation():
            wl.check(wl.op()[1], checks)
        for failure in checks.failures:
            print(f"note: {name} check failed: {failure}", file=sys.stderr)


def _run_cli_steps(work: Path) -> None:
    """Each step as ``python <args>`` runs it in ``work``, its printed lines
    dropped; RuntimeError names a step that exits non-zero."""
    profile = json.loads(compare_trees.TINY.read_text(encoding="utf-8"))
    compare_trees.write_inputs(work, profile)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for name, args in compare_trees._steps(profile):
            if args[0] == "-c":
                exec(compile(args[1], f"<{name}>", "exec"), {"__name__": "__main__"})
                continue
            with mock.patch.object(sys, "argv", [args[1], *args[2:]]), contextlib.redirect_stdout(io.StringIO()):
                try:
                    runpy.run_module(args[1], run_name="__main__", alter_sys=True)
                except SystemExit as done:
                    if done.code:
                        raise RuntimeError(f"{name} exited {done.code}") from None
    finally:
        os.chdir(cwd)


def main() -> int:
    root = importlib.util.find_spec("trafficflow").submodule_search_locations[0]
    ran: set[tuple[str, int]] = set()
    with tempfile.TemporaryDirectory(prefix="line-trace-") as tmp, _tracing(root, ran):
        _run_workloads(Path(tmp) / "bench")
        _run_cli_steps(Path(tmp) / "cli")
        from trafficflow import experiments

        experiments.rush_hour(seeds=1, epochs=1)

    missed = Counter()
    for path in sorted(Path(root).glob("*.py")):
        module = f"trafficflow.{path.stem}"
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        for line in sorted(_executable_lines(source, str(path)) - {line for f, line in ran if f == str(path)}):
            print(f"{module}:{line}: {text[line - 1].strip()}")
            missed[module] += 1
    for module, count in sorted(missed.items()):
        print(f"{module}: {count} lines not run")
    print(f"{sum(missed.values())} lines not run in all")
    return 0


if __name__ == "__main__":
    sys.exit(main())
