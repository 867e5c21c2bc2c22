"""No library module or script imports a name it never uses, and the oracles
stay independent of the transfer engine they check.

The package's __init__.py is skipped: its imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for p in (ROOT / "src" / "smallball").glob("*.py")
                 if p.name != "__init__.py") + sorted((ROOT / "scripts").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_sources_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_flags_an_unused_name():
    source = "import os\nfrom math import pi, tau\nprint(tau)\n"
    assert unused_imports(source) == ["line 1: os", "line 2: pi"]


# the only transfer names the path-enumeration oracle may use: the value type
# it returns and the table of per-step contributions it enumerates over
ORACLE_TRANSFER_NAMES = {"CharFnValue", "sign_contributions"}


def transfer_imports(source: str) -> set[str]:
    """Names a module takes from smallball.transfer; 'transfer' for the module."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[-1] == "transfer":
                names |= {alias.name for alias in node.names}
            elif module in ("", "smallball"):
                names |= {alias.name for alias in node.names if alias.name == "transfer"}
        elif isinstance(node, ast.Import):
            names |= {"transfer" for alias in node.names
                      if alias.name.split(".")[-1] == "transfer"}
    return names


def test_oracles_take_nothing_from_the_transfer_engine():
    source = (ROOT / "src" / "smallball" / "oracles.py").read_text()
    assert transfer_imports(source) <= ORACLE_TRANSFER_NAMES


def test_transfer_detector_flags_every_route():
    source = ("from .transfer import CharFnValue, char_fn_values\n"
              "from . import transfer\nimport smallball.transfer\n"
              "from smallball.transfer import sign_contributions\n")
    assert transfer_imports(source) == {"CharFnValue", "char_fn_values", "transfer",
                                        "sign_contributions"}
