"""No library module imports a name it never uses, the oracles stay
independent of the transfer engine they check, importing the library or its
CLI loads numpy but no scipy module, no module copies a budget or fixed
tolerance at import, every `module.name` the README cites exists, every
committed fitted constant is read by a bound outside its fitter, and every
public name has a caller outside its home module.

The package's __init__.py is skipped by the unused-import check: its imports
are the public re-exports.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "smallball").glob("*.py"))
SOURCES = [p for p in LIBRARY if p.name != "__init__.py"]


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


def top_level_scipy_imports(source: str) -> list[str]:
    """Module-level statements that import scipy; function bodies may."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names
                  if name.split(".")[0] == "scipy"]
    return found


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    assert top_level_scipy_imports(path.read_text()) == []


def test_scipy_detector_flags_only_module_level_imports():
    source = ("import scipy.sparse\nfrom scipy.stats import beta\nimport numpy\n"
              "def f():\n    from scipy.optimize import brentq\n    import scipy.linalg\n")
    assert top_level_scipy_imports(source) == ["line 1: scipy.sparse",
                                               "line 2: scipy.stats"]


def readme_constants(text: str) -> set[tuple[str, str]]:
    """(module, NAME) of each `module.NAME` in README's "Budgets and fixed
    tolerances" section."""
    section = text.split("### Budgets and fixed tolerances", 1)[1].split("\n#", 1)[0]
    return set(re.findall(r"`([a-z_]\w*)\.([A-Z][A-Z0-9_]*)`", section))


def constant_copies(source: str, constants) -> list[str]:
    """`from <module> import NAME` of a listed constant: a copy made at import,
    which assigning the home module's attribute no longer moves."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.split(".")[-1]
            found += [f"line {node.lineno}: {module}.{alias.name}" for alias in node.names
                      if (module, alias.name) in constants]
    return found


def test_readme_lists_the_budgets():
    constants = readme_constants((ROOT / "README.md").read_text())
    assert {("oracles", "IDENTITY_TOL"), ("oracles", "SWITCHING_N_BUDGET"),
            ("prg", "CERTIFY_BUDGET"), ("bounds", "QUAD_TOL")} <= constants
    assert len(constants) >= 15


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_no_budget_copied_at_import(path):
    constants = readme_constants((ROOT / "README.md").read_text())
    assert constant_copies(path.read_text(), constants) == []


def test_constant_copy_detector():
    source = ("from .oracles import IDENTITY_TOL, lp_norm\nfrom . import prg\n"
              "from smallball.bounds import QUAD_TOL\nfrom .prg import MGG_DEGREE\n")
    constants = {("oracles", "IDENTITY_TOL"), ("bounds", "QUAD_TOL")}
    assert constant_copies(source, constants) == ["line 1: oracles.IDENTITY_TOL",
                                                  "line 3: bounds.QUAD_TOL"]


# each step runs in one fresh interpreter and reports the scipy modules
# loaded after it; spectral-gap needs no scipy
IMPORT_PROBE = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

loaded = {}
import smallball
loaded["import smallball"] = scipy_modules()
import smallball.cli
loaded["import smallball.cli"] = scipy_modules()
with contextlib.redirect_stdout(io.StringIO()):
    code = smallball.cli.main(["spectral-gap", "--chain", sys.argv[1]])
loaded[f"spectral-gap exit {code}"] = scipy_modules()
print(json.dumps(loaded))
"""


def test_import_loads_no_scipy(tmp_path):
    chain = tmp_path / "chain.json"
    chain.write_text('{"n_states": 2, "transition": [[0.35, 0.65], [0.65, 0.35]], '
                     '"stationary": [0.5, 0.5]}')
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(chain)], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(run.stdout) == {"import smallball": [],
                                      "import smallball.cli": [],
                                      "spectral-gap exit 0": []}


MODULES = {p.stem for p in SOURCES}


def readme_references(text: str) -> list[tuple[str, str]]:
    """Backticked `module.name` spans outside code fences whose module is one
    of the package's, in order; `name.py` file names are skipped."""
    found, fenced = [], False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
        elif not fenced:
            found += [(module, name) for module, name
                      in re.findall(r"`([A-Za-z_]\w*)\.([A-Za-z_]\w*)`", line)
                      if module in MODULES and name != "py"]
    return found


def test_readme_references_name_real_attributes():
    refs = readme_references((ROOT / "README.md").read_text())
    assert len(refs) >= 15
    missing = [f"{module}.{name}" for module, name in refs
               if not hasattr(importlib.import_module(f"smallball.{module}"), name)]
    assert missing == []


def test_readme_reference_detector():
    text = ("`prg.ENUM_BUDGET` and `math.fsum`, `test_prg.py`, `oracles.gone` (x)\n"
            "```\n`transfer.inside_a_fence`\n```\n`smallball.prg`\n")
    assert readme_references(text) == [("prg", "ENUM_BUDGET"), ("oracles", "gone")]


def constant_subscripts(source: str) -> set[str]:
    """Names `C_...` that a module reads as a string subscript, `x["C_..."]`."""
    return {node.slice.value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str) and node.slice.value.startswith("C_")}


def test_every_committed_constant_is_read():
    committed = json.loads((ROOT / "src" / "smallball" / "data"
                            / "fitted_constants.json").read_text())
    read = set().union(*(constant_subscripts(p.read_text()) for p in SOURCES
                         if p.name != "fitting.py"))
    assert sorted(set(committed) - read) == []


def test_constant_subscript_detector():
    source = ('c = constants["C_equal"].value\nd = {"C_diff": 1}\n'
              'e = table["n"]\nf = constants.get("C_prg")\n')
    assert constant_subscripts(source) == {"C_equal"}


# exported names that no library module but their home, and no benchmark
# workload, calls; each is kept on purpose
PUBLIC_WITHOUT_CALLER = (
    "enumerate_walks",  # the oracle of exact prg_smallball: every walk listed
    "make_independent_chain",  # public constructor of the lambda = 0 chain
    "sample_signs",  # the oracle of smallball_mc: the sign rows it sums
)


def exported_names(source: str) -> dict[str, str]:
    """Home module of each name the package's __init__ imports from a module."""
    return {alias.asname or alias.name: node.module
            for node in ast.parse(source).body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def referenced_names(source: str) -> set[str]:
    """Names a module reads, as a bare name or an attribute, or imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


def exports_without_caller(exports: dict[str, str], sources: dict[str, str]) -> list[str]:
    """Exported names that no source but their home module references."""
    refs = {module: referenced_names(source) for module, source in sources.items()}
    return sorted(name for name, home in exports.items()
                  if not any(name in names for module, names in refs.items()
                             if module != home))


def test_every_export_has_a_caller_outside_its_home():
    exports = exported_names((ROOT / "src" / "smallball" / "__init__.py").read_text())
    sources = {p.stem: p.read_text() for p in SOURCES}
    sources["bench.workloads"] = (ROOT / "bench" / "workloads.py").read_text()
    assert exports_without_caller(exports, sources) == sorted(PUBLIC_WITHOUT_CALLER)


def test_export_caller_detector():
    init = "from .a import f, g\nfrom .b import h, k\n"
    sources = {"a": "def f():\n    return 1\n\ndef g():\n    return f()\n",
               "b": "from .a import g\ndef h(): ...\ndef k(): ...\n",
               "cli": "from . import b\nb.h()\n"}
    assert exports_without_caller(exported_names(init), sources) == ["f", "k"]
