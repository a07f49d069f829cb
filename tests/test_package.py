import ast
import importlib
import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

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


ROOT = Path(__file__).resolve().parents[1]
ENGINE_FILES = sorted((ROOT / "src" / "koszulkit").glob("*.py")) + sorted(
    path for path in (ROOT / "perfbench").glob("*.py") if not path.name.startswith("test_"))
IDENTIFIER = re.compile(r"[A-Za-z_]\w*\Z")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# Names that no engine or benchmark code uses.  Each stays for a reason;
# a name that loses its last caller must be deleted or listed here.
UNCALLED_ENGINE_NAMES = frozenset({
    # paper capabilities the README lists: the filtered category's embedding;
    # infext's rho functoriality, genuineness and induced functors; the
    # read-off Q of heart objects; the heart's simples, t-cohomology and weights
    "j_embed",
    "rho_functoriality_check", "genuineness_report", "induced_functor",
    "induced_adjunction_check",
    "q_functor", "q_ses_triangle",
    "heart_simples", "t_cohomology", "weight_subobjects", "is_pure",
    "is_semisimple_normal_form", "cone_through_simple",
    # primitives the tests build on
    "div", "from_rows", "column", "hom_dim_add", "rand_chain_map",
})


def references(node):
    """Every name a node mentions: names, attributes, import aliases and
    identifier-like strings (``getattr`` targets, wrapped names)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2]
            if sub.asname:
                yield sub.asname
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and IDENTIFIER.match(sub.value):
            yield sub.value


def test_every_engine_name_has_an_engine_caller():
    """A top-level function or class, or a method, of the engine or the
    benchmark is called when its name appears in that code outside its own
    definition; tests do not count as callers.

    The guard counts names, not owners, so a method is missed when another
    definition or a variable shares its name: ``Matrix.add``, ``sub`` and
    ``scale`` went uncaught because ``Field``, ``AddMorphism`` and
    ``ChainMap`` define those names, and ``Matrix.transpose`` because
    ``double_dual_check`` has a loop variable ``transpose``."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in ENGINE_FILES]
    mentions = Counter(name for tree in trees for name in references(tree))
    uncalled = set()
    for tree in trees:
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for defn in [node, *members]:
                if not isinstance(defn, DEFINITIONS) or re.fullmatch(r"__\w+__", defn.name):
                    continue
                if mentions[defn.name] == Counter(references(defn))[defn.name]:
                    uncalled.add(defn.name)
    assert uncalled == UNCALLED_ENGINE_NAMES
