"""Every name perfbench hooks is still a fleetsec function or one of its layers.

perfbench (`perfbench/layers.py`) adds to its counters after the calls it
names in `HOOKS`. A hook whose name no longer resolves is skipped with a
warning, so its counters read zero; this test refuses that in the main
suite. `layers.py` is loaded by path, as perfbench is not a package.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

LAYERS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _load_layers()


def _resolve(name: str):
    """The public function or method of a layer module that name gives by its qualified name, or None.

    These are what perfbench's tracer wraps and names `module.qualname`.
    """
    for module_name in layers.LAYER_MODULES.values():
        if not name.startswith(module_name + "."):
            continue
        qualname = name[len(module_name) + 1 :]
        obj = importlib.import_module(module_name)
        for attr in qualname.split("."):
            public = not attr.startswith("_") and (inspect.ismodule(obj) or inspect.isclass(obj))
            obj = vars(obj).get(attr) if public else None
        obj = getattr(obj, "__func__", obj)  # a staticmethod's or classmethod's function
        if inspect.isfunction(obj) and (obj.__module__, obj.__qualname__) == (module_name, qualname):
            return obj
    return None


def test_hooks_are_not_empty():
    assert len(layers.HOOKS) >= 16


@pytest.mark.parametrize("name", sorted(layers.HOOKS))
def test_every_hook_names_a_fleetsec_function_or_a_layer(name):
    assert name in layers.LAYER_MODULES or _resolve(name) is not None, name


def test_a_renamed_callable_does_not_resolve():
    assert _resolve("fleetsec.fleet_sim.transport.SimLink.deliver") is not None
    assert _resolve("fleetsec.fleet_sim.transport.SimLink.send") is None
    assert _resolve("fleetsec.deception.Alert") is None  # a class is not wrapped, its methods are
    assert _resolve("fleetsec.deception.PoolTooSmallError") is None
    assert _resolve("fleetsec.fleet_sim.scenario.FleetSimulation._deliver_update") is None  # private
    assert _resolve("fleetsec.fleet_sim.scenario.replace") is None  # imported, not defined there
