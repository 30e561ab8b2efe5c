import importlib
import pkgutil

import feederflow
import feederflow.dispatch

SUBMODULES = [importlib.import_module(f"feederflow.{m.name}")
              for m in pkgutil.iter_modules(feederflow.__path__)]
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
