"""The register-service benchmark's traced run still finds its hooks.

``perfbench/layers.py`` wraps each layer's entry points from outside the
program, replacing ``vars(owner)[attr]`` on a class or module.  An
attribute renamed or moved (onto a base class, say) in ``src/`` would
make ``--trace 1`` fail or leave a layer silently unmeasured, so every
``(layer, owner, attr, _)`` it lists must be defined directly on its
owner.
"""

import importlib.util
from pathlib import Path

import pytest

LAYERS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _entry_points():
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.entry_points()


@pytest.mark.parametrize(
    "layer,owner,attr",
    [(layer, owner, attr) for layer, owner, attr, _ in _entry_points()],
    ids=lambda value: getattr(value, "__name__", value))
def test_entry_point_is_defined_on_its_owner(layer, owner, attr):
    assert attr in vars(owner), (
        f"{layer}: {getattr(owner, '__name__', owner)}.{attr} is not "
        f"defined directly on its owner")

