#!/usr/bin/env python3
"""Unused-import checker (a stdlib stand-in for ruff's F401).

Walks each Python module's AST and flags every module-level import
whose bound name the module never references — as a name, as the root
of an attribute chain, in a string annotation, or in ``__all__``.
Package ``__init__.py`` files (whose imports are re-exports) and
``from __future__`` imports are exempt, as is a line carrying a
``noqa`` comment that names F401.

Usage::

    python tools/check_imports.py            # the default: src/
    python tools/check_imports.py src tests  # explicit files/dirs

Exits non-zero listing every unused import as ``file:line: message``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_TARGETS = ("src",)


def _bindings(tree: ast.Module) -> list[tuple[str, int]]:
    """``(bound name, line)`` of every import at module level (also
    inside a top-level ``if``/``try``)."""
    found: list[tuple[str, int]] = []
    pending = list(tree.body)
    while pending:
        node = pending.pop(0)
        if isinstance(node, ast.Import):
            for alias in node.names:
                found.append((alias.asname or alias.name.split(".")[0], node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    found.append((alias.asname or alias.name, node.lineno))
        elif isinstance(node, (ast.If, ast.Try)):
            pending.extend(node.body)
            pending.extend(node.orelse)
            for handler in getattr(node, "handlers", ()):
                pending.extend(handler.body)
            pending.extend(getattr(node, "finalbody", ()))
    return found


def _annotation_names(annotation: ast.expr | None) -> set[str]:
    """Names a string annotation such as ``"np.ndarray"`` refers to."""
    names: set[str] = set()
    for node in ast.walk(annotation) if annotation is not None else ():
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


def _used(tree: ast.Module) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used |= {
                item.value
                for item in ast.walk(node.value)
                if isinstance(item, ast.Constant) and isinstance(item.value, str)
            }
    return used


def check_file(path: Path) -> list[str]:
    """``path:line: message`` for each unused module-level import."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    used = _used(tree)
    problems = []
    for name, line in _bindings(tree):
        if name in used:
            continue
        text = lines[line - 1] if line <= len(lines) else ""
        if "noqa" in text and "F401" in text:
            continue
        shown = path.relative_to(REPO_ROOT) if path.is_relative_to(REPO_ROOT) else path
        problems.append(f"{shown}:{line}: '{name}' imported but unused")
    return problems


def python_files(targets: list[str]) -> list[Path]:
    files: list[Path] = []
    for target in targets:
        path = Path(target)
        if not path.is_absolute():
            path = REPO_ROOT / path
        candidates = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        files.extend(p for p in candidates if p.name != "__init__.py")
    return files


def main(argv: list[str]) -> int:
    problems = [
        problem
        for path in python_files(argv or list(DEFAULT_TARGETS))
        for problem in check_file(path)
    ]
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
