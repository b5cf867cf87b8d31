"""Every exported name of the package and its submodules resolves and has a caller; every import and config field is read."""

import ast
import dataclasses
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import medialcover
from medialcover.config import ScenarioConfig
from medialcover.geometry import ClosedSetSpec

MODULES = ["medialcover"] + [f"medialcover.{m.name}" for m in pkgutil.iter_modules(medialcover.__path__)]

# Exported names that no module of the package uses, each with the reason it stays.
WITHOUT_CALLER = {
    "nearest_points": "one-point `survey`; read by `perfbench/run.py --trace 1`",
}


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


# Names that once were public: the record classes the set packs from JSON
# records, the factories behind the field names, the field names themselves
# with their resolver and ``strongify``, the wrapper class of a field, a
# set's JSON text reader, and the package's re-exports of its modules' names,
# each now imported from the module that defines it.
REMOVED = {
    "medialcover": [
        "Ball",
        "Point",
        "PolygonBoundary",
        "Segment",
        "quadratic_sine_blend",
        "squared_norm",
        "named_field",
        "strongify",
        "NAMED_FIELDS",
        "ScalarField",
        "Classification",
        "ClosedSetSpec",
        "CoercivityError",
        "FamilyBudgetError",
        "NearestResult",
        "SlopeLattice",
        "Survey",
        "Window",
        "asplund_lift",
        "certify_cover",
        "cover_family_to_dict",
        "detect_ambiguous",
        "enumerate_cover",
        "grid_sweep",
        "marginal_inf_rows",
        "nearest_points",
        "nondiff_witnesses",
        "survey",
        "write_grid_csv",
        "write_overlay_svg",
        "write_samples_csv",
    ],
    "medialcover.geometry": ["Ball", "Point", "PolygonBoundary", "Segment"],
}


@pytest.mark.parametrize("module_name", list(REMOVED))
def test_removed_names_no_longer_resolve(module_name):
    module = importlib.import_module(module_name)
    assert [name for name in REMOVED[module_name] if hasattr(module, name)] == []
    assert not hasattr(ClosedSetSpec, "from_json")


def test_the_fields_module_is_gone():
    """The module of the field wrapper and the named fields; the lift is a plain function in ``convex``."""
    assert importlib.util.find_spec("medialcover.fields") is None


def test_every_public_top_level_definition_is_exported():
    """A public ``def`` or ``class`` is in its module's ``__all__``; helpers are named with a leading underscore."""
    unexported = {}
    for path in Path(medialcover.__file__).parent.glob("*.py"):
        if path.stem in ("__init__", "__main__", "cli"):  # the package and its entry points have no __all__
            continue
        module = importlib.import_module(f"medialcover.{path.stem}")
        defined = [
            node.name
            for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        ]
        names = [name for name in defined if name not in module.__all__]
        if names:
            unexported[path.stem] = names
    assert unexported == {}


def test_every_exported_name_has_a_caller_in_the_package():
    sources = {path: ast.parse(path.read_text()) for path in Path(medialcover.__file__).parent.glob("*.py")}
    used = set()
    for path, tree in sources.items():
        for node in ast.walk(tree):
            # Attributes do not count: a method named like an exported function is not its caller.
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
    exported = set()
    for path, tree in sources.items():
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                exported.update(ast.literal_eval(node.value))
    assert exported, "no module declares __all__"
    assert sorted(exported - used - set(WITHOUT_CALLER)) == []
    assert sorted(set(WITHOUT_CALLER) - exported) == []  # the allowlist names only exported names


def imported_names(tree):
    """The names that the import statements of a module bind, except ``from __future__`` features."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def test_every_imported_name_is_read():
    package = Path(medialcover.__file__).parent
    unused = {}
    for path in [*package.glob("*.py"), *Path(__file__).parent.glob("*.py")]:
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        names = sorted(set(imported_names(tree)) - read)
        if names:
            unused[path.name] = names
    assert unused == {}


def test_every_config_field_is_read_outside_the_config_module():
    """A knob that only ``config.py`` parses changes nothing that a command computes or writes."""
    read = set()
    for path in Path(medialcover.__file__).parent.glob("*.py"):
        if path.name != "config.py":
            tree = ast.parse(path.read_text())
            read.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    assert sorted(f.name for f in dataclasses.fields(ScenarioConfig) if f.name not in read) == []
