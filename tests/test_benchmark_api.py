"""The obsg names the benchmark scripts use must exist.

``perfbench/`` drives obsg through its public API; a deletion that removed a
name it uses would break the benchmark's set-up or a stage only when the
benchmark runs.  The scripts are parsed, never imported or run.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def obsg_references(tree: ast.AST) -> set[tuple[str, str | None]]:
    """(module, name) pairs: ``obsg.<name>`` accesses, ``from obsg[.<module>]
    import <name>`` and ``import obsg.<module>`` (with name None)."""
    found: set[tuple[str, str | None]] = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "obsg"
        ):
            found.add(("obsg", node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module is not None:
            if node.module == "obsg" or node.module.startswith("obsg."):
                found.update((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(
                (alias.name, None) for alias in node.names if alias.name.startswith("obsg")
            )
    return found


def resolves(module_name: str, name: str | None) -> bool:
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return False
    if name is None or hasattr(module, name):
        return True
    # ``from obsg import cli`` names a submodule.
    try:
        importlib.import_module(f"{module_name}.{name}")
    except ImportError:
        return False
    return True


def test_benchmark_uses_only_existing_obsg_names():
    scripts = sorted(PERFBENCH.glob("*.py"))
    assert scripts, f"no scripts under {PERFBENCH}"
    references = {}
    for path in scripts:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for ref in obsg_references(tree):
            references.setdefault(ref, path.name)
    # The reassemble stage's API calls and set-up's imports are all seen.
    assert ("obsg", "Detection") in references
    assert ("obsg.synth", "generate") in references
    missing = sorted(
        f"{where}: {module}{'' if name is None else '.' + name}"
        for (module, name), where in references.items()
        if not resolves(module, name)
    )
    assert not missing, missing


def test_unresolved_names_are_reported():
    tree = ast.parse(
        "import obsg\n"
        "from obsg.geometry import OrientedBox, AxisBox\n"
        "obsg.no_such_name()\n"
    )
    refs = obsg_references(tree)
    assert refs == {
        ("obsg", None),
        ("obsg.geometry", "OrientedBox"),
        ("obsg.geometry", "AxisBox"),
        ("obsg", "no_such_name"),
    }
    assert [r for r in sorted(refs, key=str) if not resolves(*r)] == [
        ("obsg", "no_such_name"),
        ("obsg.geometry", "AxisBox"),
    ]
