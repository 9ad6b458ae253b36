"""The obsg names the benchmark scripts use must exist.

``perfbench/`` drives obsg through its public API; a deletion that removed a
name it uses would break the benchmark's set-up or a stage only when the
benchmark runs.  The scripts are parsed, never imported or run.
"""

import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Traced names that no longer name a function ``spans.py`` wraps, so their
# metrics read 0 until the benchmark renames them.  A name may leave this set
# but never join it: deleting a traced function fails the guard below.
DEAD_TRACED_NAMES = {
    "datamodel.serialize_predictions",
    "geometry.pair_geometry",
    "metrics.triplets_from_prediction_scene",
    "pairing.enumerate_pairs",
    "scorer.pair_features",
}


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


def module_literals(script: str, names: set[str]) -> dict[str, object]:
    """Module-level assignments of ``names`` in a perfbench script; a dict is
    read as the tuple of its keys, since spans.py's values are functions."""
    tree = ast.parse((PERFBENCH / script).read_text(encoding="utf-8"), filename=script)
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in names:
                    value = node.value
                    if isinstance(value, ast.Dict):
                        value = ast.Tuple(elts=value.keys, ctx=ast.Load())
                    found[target.id] = ast.literal_eval(value)
    return found


def wrapped_by_spans(dotted: str, layers: tuple[str, ...]) -> bool:
    """spans.py's rule: a public function defined in one of its layer modules."""
    layer, _, attr = dotted.partition(".")
    if layer not in layers or attr.startswith("_"):
        return False
    module = importlib.import_module(f"obsg.{layer}")
    obj = getattr(module, attr, None)
    return inspect.isfunction(obj) and obj.__module__ == module.__name__


def test_traced_names_name_functions_spans_wraps():
    run = module_literals("run.py", {"_CALLS", "_SELF"})
    spans = module_literals("spans.py", {"OBSERVERS", "LAYERS"})
    assert set(run) == {"_CALLS", "_SELF"} and set(spans) == {"OBSERVERS", "LAYERS"}
    layers = spans["LAYERS"]
    names = {*run["_CALLS"], *run["_SELF"], *spans["OBSERVERS"]}
    assert "geometry.rotated_iou" in names and "ingest.rotated_nms" in names
    dead = {name for name in names if not wrapped_by_spans(name, layers)}
    assert dead <= DEAD_TRACED_NAMES, sorted(dead - DEAD_TRACED_NAMES)
    # The rule itself: private names, classes, imported names and modules
    # outside the layers are not wrapped.
    assert wrapped_by_spans("scorer.predict_triplets", layers)
    for name in ("scorer._pair_geometry", "geometry.OrientedBox", "scorer.rotated_iou",
                 "cli.run", "geometry.no_such_name"):
        assert not wrapped_by_spans(name, layers), name
