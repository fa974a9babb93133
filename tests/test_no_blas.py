"""No module of the package calls a BLAS-backed numpy routine.

A BLAS or LAPACK kernel chooses its summation order by CPU model and by
thread count, so its last bits belong to the host.  Every artifact stays the
same bytes on every host only while no package module reaches one: no
``dot``, ``vdot``, ``inner``, ``matmul``, ``tensordot``, ``einsum``,
``convolve``, ``correlate``, ``polyfit``, ``linalg`` or ``@``.  Sums of
products are ``np.add.reduce`` of the products instead.  An attribute of one
of these names is refused on any object, since a method call such as
``x.dot(y)`` cannot be told from a numpy call by its syntax.
"""

import ast
from pathlib import Path

import pytest

import chronoscope

BLAS_NAMES = frozenset(
    ("dot", "vdot", "inner", "matmul", "tensordot", "einsum", "convolve", "correlate",
     "polyfit", "linalg")
)
SOURCES = sorted(Path(chronoscope.__file__).parent.glob("*.py"))


def blas_uses(source: str) -> list[str]:
    """Each use of a BLAS-backed numpy name or of ``@`` in ``source``, as
    ``line: name``."""
    uses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            uses.append((node.lineno, node.attr))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            uses.append((node.lineno, "@"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            parts = set(node.module.split(".")) | {alias.name for alias in node.names}
            uses.extend((node.lineno, name) for name in sorted(parts & BLAS_NAMES))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "numpy":
                    uses.extend((node.lineno, name) for name in parts if name in BLAS_NAMES)
    return [f"{line}: {name}" for line, name in sorted(uses)]


def test_the_package_has_modules():
    assert {path.name for path in SOURCES} >= {"gravity.py", "metrics.py", "synth.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_calls_blas(path):
    assert blas_uses(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source, found",
    [
        ("np.convolve(a, k, mode='valid')", ["1: convolve"]),
        ("numpy.dot(a, b)", ["1: dot"]),
        ("a.dot(b)", ["1: dot"]),
        ("np.linalg.lstsq(a, b)", ["1: linalg"]),
        ("c = a @ b", ["1: @"]),
        ("a @= b", ["1: @"]),
        ("from numpy import einsum, sum", ["1: einsum"]),
        ("from numpy.linalg import solve", ["1: linalg"]),
        ("import numpy.linalg as la", ["1: linalg"]),
        ("x = np.polyfit(a, b, 1)\ny = np.correlate(a, b)", ["1: polyfit", "2: correlate"]),
        ("np.add.reduce(a * b)\nfrom numpy.random import default_rng", []),
    ],
)
def test_blas_uses_are_found(source, found):
    assert blas_uses(source) == found
