"""Source-level rules: named certifications, no assert, a numpy-only import."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "padicops"


def _certification_raises():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            func = exc.func if isinstance(exc, ast.Call) else exc
            if isinstance(func, ast.Name) and func.id == "CertificationFailed":
                yield f"{path.name}:{node.lineno}", exc


def _is_nonempty_string(node) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str) and node.value != ""
    if isinstance(node, ast.JoinedStr):
        return bool(node.values)
    return False


def test_every_certification_names_its_claim():
    raises = list(_certification_raises())
    assert len(raises) >= 20
    unnamed = [
        where
        for where, exc in raises
        if not (isinstance(exc, ast.Call) and exc.args and _is_nonempty_string(exc.args[0]))
    ]
    assert unnamed == []


def test_no_assert_statement_in_the_package():
    """Certification must survive ``python -O``, which strips every assert."""
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def test_import_leaves_sympy_unloaded():
    out = subprocess.run(
        [sys.executable, "-c", "import sys, padicops; print('sympy' in sys.modules)"],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert out.stdout.strip() == "False"
