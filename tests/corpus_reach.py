"""The ``src/`` statements that no CLI corpus invocation runs.

    PYTHONPATH=src python tests/corpus_reach.py

Installs a ``sys.settrace`` line tracer before ``depthlens`` is imported,
so module-level code counts, then runs every ``cli_corpus.CASES`` entry in
one directory of fixtures; writing the fixtures is not traced. Prints one JSON list of the statements that
never ran, in file order: ``[module, enclosing qualname, line, source]``.
``tests/test_corpus_reach.py`` runs this in a fresh interpreter and
compares the list with its allow-list.

A statement counts as run when a line event falls on one of its own lines:
a simple statement's lines, or a compound statement's header (from its
first decorator to the line before its body). Python versions attribute
bytecode to lines differently; statements are what the source says, so
the result does not depend on that. Docstrings and ``try:`` headers,
which compile to no code of their own, are not statements here.
"""

from __future__ import annotations

import ast
import json
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "depthlens"


def _header_end(node: ast.stmt) -> int:
    """Last line of a statement's own source: a simple statement's last
    line, or the line before a compound statement's body."""
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return max(node.lineno, body[0].lineno - 1)
    return node.end_lineno


def statements(path: Path):
    """(qualname, first line, last line, source line) of each statement in
    the file, in file order."""
    source = path.read_text()
    lines = source.splitlines()
    found = []

    def visit(node: ast.AST, scope: list[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, ast.stmt):
                visit(child, scope)  # the bodies of except handlers
                continue
            docstring = (isinstance(child, ast.Expr)
                         and isinstance(child.value, ast.Constant)
                         and isinstance(child.value.value, str))
            if not (docstring or isinstance(child, ast.Try)):
                first = min([child.lineno] + [d.lineno for d in
                                              getattr(child, "decorator_list", [])])
                found.append((".".join(scope) or "<module>", first,
                              _header_end(child), lines[child.lineno - 1].strip()))
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, scope + [child.name] if named else scope)

    visit(ast.parse(source), [])
    return found


def unreached(executed: dict[str, set[int]]) -> list[list]:
    """The statements of every ``src/depthlens`` module with no executed
    line, given the executed line numbers per file name."""
    missing = []
    for path in sorted(SRC.glob("*.py")):
        ran = executed.get(str(path), set())
        for qualname, first, last, text in statements(path):
            if not any(line in ran for line in range(first, last + 1)):
                missing.append([path.stem, qualname, first, text])
    return missing


def trace_corpus() -> list[list]:
    """Run the whole corpus under a line tracer from a fresh import."""
    executed: dict[str, set[int]] = {}
    ours: dict[str, set[int] | None] = {}  # code file name -> its line set

    def lines_of(filename: str) -> set[int] | None:
        if filename not in ours:
            path = Path(filename).resolve()
            ours[filename] = (executed.setdefault(str(path), set())
                              if path.parent == SRC else None)
        return ours[filename]

    def local(frame, event, arg):
        if event == "line":
            lines_of(frame.f_code.co_filename).add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        return local if lines_of(frame.f_code.co_filename) is not None else None

    if "depthlens" in sys.modules:
        raise RuntimeError("depthlens was imported before the tracer")
    sys.settrace(global_)
    try:
        import cli_corpus  # imports depthlens, under the tracer
    finally:
        sys.settrace(None)
    with tempfile.TemporaryDirectory() as tmp:
        cli_corpus.make_fixtures(Path(tmp))  # untraced: the fixtures are not the CLI
        with cli_corpus.in_directory(Path(tmp)):
            sys.settrace(global_)
            try:
                for argv, outputs in cli_corpus.CASES.values():
                    cli_corpus.run_case(argv, outputs)
            finally:
                sys.settrace(None)
    return unreached(executed)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    json.dump(trace_corpus(), sys.stdout, indent=1)
    print()
