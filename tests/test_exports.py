import ast
import importlib
import pkgutil
from pathlib import Path

import feederflow
import feederflow.dispatch

SUBMODULES = [importlib.import_module(f"feederflow.{m.name}")
              for m in pkgutil.iter_modules(feederflow.__path__)]
SOURCES = sorted(Path(feederflow.__file__).parent.glob("*.py"))
REMOVED = ("StationState", "LoadPoint", "active_dispatch", "reactive_dispatch")


def test_every_exported_name_resolves_once():
    exported = [feederflow] + [m for m in SUBMODULES if hasattr(m, "__all__")]
    homes: dict[str, str] = {}
    for module in exported:
        names = module.__all__
        assert len(names) == len(set(names)), module.__name__
        for name in names:
            assert hasattr(module, name), f"{module.__name__}.{name}"
            if module is not feederflow:
                # each public name is listed by the one submodule defining it
                assert homes.setdefault(name, module.__name__) == module.__name__, name
    assert set(homes) | {"__version__"} == set(feederflow.__all__)
    for name in REMOVED:
        for module in exported:
            assert name not in module.__all__
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    # the grid-code cone lives in grid and stays reachable where it used to be
    assert feederflow.station_q_cap is feederflow.dispatch.station_q_cap


def _module_level_names(tree: ast.Module) -> list[str]:
    """The names a module binds at its top level: defs, classes,
    assignments and imports."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
    return names


def test_every_private_module_name_is_used():
    # a helper that a refactor leaves behind is read by nothing in src/
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(a.name for a in node.names)
    unused = [f"{name}: {private}" for name, tree in trees.items()
              for private in _module_level_names(tree)
              if private.startswith("_") and not private.startswith("__") and private not in used]
    assert not unused
