"""The benchmark's scripts use only names this package still has.

`perfbench/` runs only under the benchmark, and no other test imports
`perfbench/job.py`, so a name deleted from the package would first show as
a benchmark run in which every job fails.  The scripts are parsed, not run:
every `from paraplag... import name` must resolve, and so must every
attribute a script reads from a paraplag module it imported by name.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "perfbench").glob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _is_paraplag(module: str | None) -> bool:
    return module is not None and (module == "paraplag" or module.startswith("paraplag."))


def _unresolved(path: Path) -> list[str]:
    """`line: name` of each paraplag name the script uses that does not exist."""
    tree = _parse(path)
    missing = []
    modules = {}  # local name -> paraplag module object
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _is_paraplag(alias.name):
                    importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and _is_paraplag(node.module):
            module = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(module, alias.name):
                    missing.append(f"{node.lineno}: {node.module}.{alias.name}")
                elif isinstance(getattr(module, alias.name), type(module)):
                    modules[alias.asname or alias.name] = getattr(module, alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and not hasattr(modules[node.value.id], node.attr)
        ):
            missing.append(f"{node.lineno}: {node.value.id}.{node.attr}")
    return missing


def test_scripts_found():
    assert {"job.py", "traced.py", "run.py", "corpusgen.py"} <= {p.name for p in SCRIPTS}


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_every_paraplag_name_resolves(path):
    assert _unresolved(path) == []


def test_imports_are_seen():
    # the check is not vacuous: the job imports the engine's fan-out entry points
    tree = _parse(ROOT / "perfbench" / "job.py")
    names = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and _is_paraplag(node.module)
        for alias in node.names
    }
    assert {"extract_features", "baseline_containments", "load_config"} <= names


def test_traced_leaves_are_semsim_attributes():
    from paraplag import semsim

    tree = _parse(ROOT / "perfbench" / "traced.py")
    [leaves] = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "SEMSIM_LEAVES" for t in node.targets)
    ]
    assert leaves
    assert [name for name in leaves if not hasattr(semsim, name)] == []
