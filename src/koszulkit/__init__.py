"""koszulkit: exact homological algebra over finite graded presentations.

The public names are resolved on use (PEP 562), so ``import koszulkit``
loads no engine module and a CLI command loads only the layers it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys(("Field", "Matrix", "QQ"), "linalg"),
    **dict.fromkeys(("AddMorphism", "AddObject", "OrlovPresentation", "compose", "hom_basis",
                     "obj", "split_idempotent", "validate_presentation"), "orlov"),
    **dict.fromkeys(("ChainMap", "Complex", "HomClass", "Homotopy", "Triangle", "cone",
                     "hom_space", "is_null_homotopic", "minimal_model", "shift", "support"),
                    "complexes"),
    "load_fixture": "fixtures",
}

__all__ = sorted([*_EXPORTS, "__version__"])


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
