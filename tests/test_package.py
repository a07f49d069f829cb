import importlib
import json
import subprocess
import sys

import pytest

import koszulkit

# every public name of the package and the module that defines it
DEFINED_IN = {
    "linalg": ["Field", "Matrix", "QQ"],
    "orlov": ["AddMorphism", "AddObject", "OrlovPresentation", "compose", "hom_basis", "obj",
              "split_idempotent", "validate_presentation"],
    "complexes": ["ChainMap", "Complex", "HomClass", "Homotopy", "Triangle", "cone", "hom_space",
                  "is_null_homotopic", "minimal_model", "shift", "support"],
    "fixtures": ["load_fixture"],
}
EXPORTS = [(module, name) for module, names in DEFINED_IN.items() for name in names]


def test_all_lists_every_export_and_the_version():
    assert sorted(koszulkit.__all__) == sorted([name for _, name in EXPORTS] + ["__version__"])


@pytest.mark.parametrize("module,name", EXPORTS, ids=[name for _, name in EXPORTS])
def test_export_is_the_object_of_its_defining_module(module, name):
    value = getattr(koszulkit, name)
    assert value is getattr(importlib.import_module(f"koszulkit.{module}"), name)
    assert name in dir(koszulkit)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from koszulkit import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(koszulkit.__all__)
    assert all(namespace[name] is getattr(koszulkit, name) for name in koszulkit.__all__)
    assert namespace["__version__"] == koszulkit.__version__


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        koszulkit.nonexistent  # noqa: B018
    assert not hasattr(koszulkit, "HomSpace")


def test_submodules_still_import_by_name():
    from koszulkit import koszul, tstructure

    assert koszul.__name__ == "koszulkit.koszul" and tstructure.__name__ == "koszulkit.tstructure"


def test_functors_does_not_load_randgen():
    """The uniqueness probe draws nothing, so the functor layer loads no
    random generator."""
    proc = subprocess.run([sys.executable, "-c", "import json, sys, koszulkit.functors; "
                           "print(json.dumps(sorted(m for m in sys.modules if 'koszulkit' in m)))"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "koszulkit.functors" in loaded and "koszulkit.randgen" not in loaded
