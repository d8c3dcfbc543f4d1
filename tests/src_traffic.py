"""Production traffic through the package source: per module, the
functions that no traced run enters and the statements it never runs.

One ``sys.settrace`` line trace covers:

- every seed-1 case of the three benchmark workloads
  (``s4bench/workloads.py``, read and not modified), through
  ``cli.main`` with the case's flags;
- both golden corpora through ``cli.main``: ``corpus.jsonl`` with
  ``--json --certificates`` and ``lens_default.jsonl`` with ``--json``;
- the S5 and N7 census sweeps and their mirrors (``test_census.py``),
  through ``full_report``, by default and with certificates.

The package is imported under the trace, so its module-level statements
count too.  A statement is run when a line of it (of its header, for a
compound statement) is traced; docstrings, ``pass``, ``try`` headers and
the statements of a function never entered are not listed apart.  Run
from the repository root::

    PYTHONPATH=src python tests/src_traffic.py

It prints a block per module with something to list, then the totals,
and exits 0 whatever it finds.
"""

import ast
import contextlib
import io
import json
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "s4embed"


class LineTrace:
    """The lines run and the code objects entered in files under ``root``.
    A code object is traced only until each of its lines has run once."""

    def __init__(self, root: Path):
        self.root = str(root)
        self.lines: dict[str, set[int]] = defaultdict(set)
        self.entered: dict[str, set[tuple[int, str]]] = defaultdict(set)
        self._left: dict = {}  # code -> its lines not yet run

    def _call(self, frame, event, arg):
        code = frame.f_code
        left = self._left.get(code)
        if left is None:
            left = self._left[code] = set()
            if code.co_filename.startswith(self.root):
                left.update(line for _, _, line in code.co_lines() if line is not None)
                self.entered[code.co_filename].add((code.co_firstlineno, code.co_name))
        return self._line if left else None

    def _line(self, frame, event, arg):
        if event == "line":
            left = self._left[frame.f_code]
            self.lines[frame.f_code.co_filename].add(frame.f_lineno)
            left.discard(frame.f_lineno)
            if not left:
                return None
        return self._line

    def __enter__(self):
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)


def run_traffic() -> None:
    """Every run of the module docstring, with its output discarded."""
    from s4embed.classify import full_report
    from s4embed.cli import main

    sys.dont_write_bytecode = True  # leave no cache in s4bench/ or tests/
    sys.path[:0] = [str(ROOT / "s4bench"), str(ROOT / "tests")]
    from test_census import BUDGET, mirror, sweep_n7, sweep_s5
    from workloads import WORKLOADS

    calls = [[case.expr, *case.flags] for workload in WORKLOADS.values() for case in workload(1)]
    golden = ROOT / "tests" / "golden"
    for corpus, flags in (("corpus.jsonl", ["--certificates"]), ("lens_default.jsonl", [])):
        for line in (golden / corpus).read_text().splitlines():
            calls.append([json.loads(line)["expr"], "--json", *flags])
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in calls:
            main(argv)
    for y in sweep_s5() + sweep_n7():
        for m in (y, mirror(y)):
            full_report(m, budget=BUDGET)
            full_report(m, budget=BUDGET, certificates=True)


def _first_line(node) -> int:
    return min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])


def _header_end(node) -> int:
    """The last line of a statement's own code: its header, for a
    compound statement."""
    if isinstance(node, (ast.If, ast.While)):
        return node.test.end_lineno
    if isinstance(node, ast.For):
        return node.iter.end_lineno
    if isinstance(node, ast.With):
        return node.items[-1].context_expr.end_lineno
    return node.end_lineno


def _silent(node) -> bool:
    """Does the statement compile to no traced line of its own?"""
    if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
        return isinstance(node.value.value, str)  # a docstring
    if isinstance(node, ast.AnnAssign):
        return node.value is None
    return isinstance(node, (ast.Pass, ast.Global, ast.Nonlocal, ast.Try))


def never_reached(path: Path, lines: set[int], entered: set[tuple[int, str]]):
    """(functions never entered, statements never run) of one module, as
    (line, text) pairs."""
    source = path.read_text().splitlines()
    functions, statements = [], []

    def visit(node, live: bool) -> None:
        for child in ast.iter_child_nodes(node):
            alive = live
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = getattr(child, "name", "<lambda>")
                alive = live and (_first_line(child), name) in entered
                if live and not alive:
                    functions.append((child.lineno, name))
            elif live and isinstance(child, ast.stmt) and not _silent(child):
                if not lines.intersection(range(child.lineno, _header_end(child) + 1)):
                    statements.append((child.lineno, source[child.lineno - 1].strip()))
            visit(child, alive)

    visit(ast.parse("\n".join(source)), True)
    return functions, sorted(statements)


def main() -> int:
    trace = LineTrace(SRC)
    with trace:
        run_traffic()
    total_functions = total_statements = 0
    for path in sorted(SRC.rglob("*.py")):
        key = str(path)
        functions, statements = never_reached(path, trace.lines[key], trace.entered[key])
        total_functions += len(functions)
        total_statements += len(statements)
        if functions or statements:
            print(path.relative_to(SRC.parent))
            for line, name in functions:
                print(f"  {line}\tnever entered\t{name}")
            for line, text in statements:
                print(f"  {line}\tnever run\t{text}")
    print(f"total\t{total_functions} never entered\t{total_statements} never run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
