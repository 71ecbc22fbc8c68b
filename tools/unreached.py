"""Statements of src/ functions that no seed-1 run of tools/digests.py executes.

    python3 tools/unreached.py

Runs every seed-1 run of tools/digests.py (each benchmark job, README example
and EXTRA argv) in process through `cli.main`, under a `sys.settrace` hook
that records the lines each frame of a src/ function executes.  Then it prints
`path:line: text` for each statement in the body of a src/ function, methods
and nested functions included, of which no line ran.  `raise` statements and
docstrings are skipped: a refusal the runs never meet is not dead code.  A
compound statement counts as run when its header ran; the statements of its
blocks are listed on their own.  Module and class bodies are not listed, as
importing runs them.  Standard library only; it takes a few seconds and is a
measuring tool, not a test: the exit status is 0.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import digests

SRC = digests.ROOT / "src"
BLOCKS = ("body", "orelse", "finalbody", "handlers", "cases")


def _statements(body: list[ast.stmt]):
    """Each statement of `body` and of its blocks, except the bodies of nested defs."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for block in BLOCKS:
            for child in getattr(stmt, block, ()):  # a handler or case is no statement
                yield from _statements([child] if isinstance(child, ast.stmt) else child.body)


def _own_lines(stmt: ast.stmt) -> set[int]:
    """The lines of `stmt` that belong to no statement of its blocks: a header, or all."""
    lines = set(range(stmt.lineno, stmt.end_lineno + 1))
    for block in BLOCKS:
        for child in getattr(stmt, block, ()):
            lines -= set(range(child.lineno, child.end_lineno + 1))
    return lines


def candidates(path: Path) -> list[tuple[int, set[int]]]:
    """(line, own lines) of every listed statement inside a function of the module."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = node.body[1:] if ast.get_docstring(node) is not None else node.body
        out += [(stmt.lineno, _own_lines(stmt)) for stmt in _statements(body)
                if not isinstance(stmt, ast.Raise)]
    return out


def executed_lines() -> dict[str, set[int]]:
    """Lines of src/ files that the seed-1 runs execute, by absolute file name."""
    seen: dict[str, set[int]] = {}
    src = str(SRC.resolve())

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(src):
            return None
        seen.setdefault(name, set())
        return local

    for _, argv in (runs := digests.runs([1])):
        sys.settrace(call)
        try:
            digests.in_process(argv)
        finally:
            sys.settrace(None)
    print(f"# {len(runs)} runs traced", file=sys.stderr)
    return seen


def main() -> int:
    seen = executed_lines()
    for path in sorted(SRC.rglob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        ran = seen.get(str(path.resolve()), set())
        for line, own in sorted(candidates(path)):
            if not own & ran:
                print(f"{path.relative_to(digests.ROOT)}:{line}: {lines[line - 1].strip()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
