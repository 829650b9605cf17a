"""No module imports a name it never uses (no linter is a test dependency)."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*ROOT.glob("src/beamloc/*.py"), *ROOT.glob("tests/*.py"), *ROOT.glob("bench/*.py")])


def unused_imports(source: str) -> list[str]:
    """``"<line>: <name>"`` for each imported name the module never reads.

    Exempt are ``from __future__`` imports and imports whose lines carry
    ``# noqa: F401``, so a re-export must carry that mark.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in imported.items() if name not in used]


def test_the_check_finds_an_unused_import_and_honours_its_exemptions():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "import os.path\n"
              "import numpy as np\n"
              "from .fxp import quantize, quantize_array  # noqa: F401\n"
              "from .sparsity import (\n"
              "    RowMask,\n"
              "    SparsityConfig,\n"
              ")\n"
              "__all__ = ['RowMask']\n"
              "x = np.zeros(3), os.sep\n")
    assert unused_imports(source) == ["2: math", "6: RowMask", "6: SparsityConfig"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_package_root_re_exports_nothing():
    # Modules are imported by name, and pyproject.toml holds the only version string.
    tree = ast.parse((ROOT / "src/beamloc/__init__.py").read_text())
    assert ast.get_docstring(tree) is not None and len(tree.body) == 1
