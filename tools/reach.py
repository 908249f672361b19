"""Reach check: every statement in src/pintune is run by a tier-1 test, or is
listed, with its reason, in tools/reach_allowed.txt.

Runs the tier-1 suite in this process under a stdlib line tracer
(sys.settrace, and threading.settrace for the tests' worker threads), then
compares the statements no test reached against the allowed list.  The run
leaves out the hypothesis tests, so the result does not depend on their
random draws, and the point-sized-memory test, since the tracer allocates.

A statement is every `ast` statement except `def`, `class`, imports,
`try` (its clauses are counted) and docstrings.  A simple statement is
reached when any of its lines runs; a compound one when its header does.
The list is keyed by file name and the statement's first line, so it does
not go stale when lines move.  The check fails when an unlisted statement
goes unreached, and when a listed one is reached, so the list only shrinks.

Usage, from anywhere:  python tools/reach.py
"""

import ast
import sys
import threading
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pintune"
ALLOWED = Path(__file__).with_name("reach_allowed.txt")
PYTEST_ARGS = [
    "-q", "-p", "no:cacheprovider", "-m", "not hypothesis",
    "--deselect", "tests/test_fitting_exact.py::test_a_fit_leaves_no_point_sized_memory_behind",
]
UNCOUNTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
             ast.Try, ast.Global, ast.Nonlocal)


def statements(path):
    """(first line, lines whose run reaches it) for each counted statement."""
    tree = ast.parse(path.read_text())
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)
                  and isinstance(node.body[0].value.value, str)}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, UNCOUNTED) or id(node) in docstrings:
            continue
        inner = [child.lineno for child in ast.iter_child_nodes(node) if isinstance(child, ast.stmt)]
        last = min(inner) - 1 if inner else node.end_lineno
        out.append((node.lineno, range(node.lineno, max(last, node.lineno) + 1)))
    return out


def read_allowed():
    """Counter of (file, statement text) -> times listed; each entry needs a reason."""
    entries = []  # [line number, (file, statement text), reason]
    for lineno, line in enumerate(ALLOWED.read_text().splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        if line[0].isspace():
            if not entries:
                sys.exit(f"{ALLOWED}:{lineno}: a reason with no entry above it")
            entries[-1][2] += line.strip()
            continue
        name, sep, text = line.partition(": ")
        if not sep:
            sys.exit(f"{ALLOWED}:{lineno}: expected '<file>: <statement>'")
        entries.append([lineno, (name, text.strip()), ""])
    for lineno, _, reason in entries:
        if not reason:
            sys.exit(f"{ALLOWED}:{lineno}: entry has no reason")
    return Counter(key for _, key, _ in entries)


def main():
    import pytest

    sys.path.insert(0, str(SRC.parent))
    files = {str(path): path for path in sorted(SRC.glob("*.py"))}
    hit = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in hit else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main([*PYTEST_ARGS, str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if code != 0:
        print(f"reach: the traced test run failed (pytest exit {code})")
        return 1

    unreached, where, total = Counter(), {}, 0
    for name, path in files.items():
        source = path.read_text().splitlines()
        for first, lines in statements(path):
            total += 1
            if hit[name].isdisjoint(lines):
                key = (path.name, source[first - 1].strip())
                unreached[key] += 1
                where.setdefault(key, []).append(first)
    allowed = read_allowed()
    missed, stale = unreached - allowed, allowed - unreached
    print(f"reach: {total - sum(unreached.values())} of {total} statements reached, "
          f"{sum(allowed.values())} listed as allowed")
    for name, text in sorted(missed):
        print(f"  unreached, not listed: {name}:{','.join(map(str, where[name, text]))}: {text}")
    for name, text in sorted(stale):
        print(f"  listed but reached, delete the entry: {name}: {text}")
    return 1 if missed or stale else 0


if __name__ == "__main__":
    sys.exit(main())
