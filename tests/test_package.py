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

# Why engine code that no command runs stays.  A name kept by both guards
# below carries the same reason in each.
ACCEPTANCE = "tests/test_acceptance.py imports or reaches it"
PUBLIC = "it is in koszulkit.__all__"
ORACLES = "tests/oracle_linalg.py or tests/oracle_hom.py calls it, and the oracles stay unchanged"
README_TRIANGLES = "the README lists it as a capability: rotation and shift of triangles"
README_T_COHOMOLOGY = ("the README lists it as a capability: t-cohomology of any complex; "
                       "truncate reads the same filtration off the model it already minimized")
ZERO_COMPLEX = "randgen.rand_heart_complex returns it when no weight is left, and tests build it"

# Names that no engine or benchmark code uses, with the reason each stays;
# a name that loses its last caller must be deleted or listed here.
UNCALLED_ENGINE_NAMES = {
    **dict.fromkeys(("q_functor", "q_ses_triangle", "heart_simples", "rand_chain_map",
                     "aisle_membership"), ACCEPTANCE),
    "div": ORACLES,
}


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

    This guard counts names, not owners, so it misses a method when another
    definition or a variable shares its name (``Matrix.scale`` beside
    ``AddMorphism.scale``).  The traced guard below sees owners and catches
    those cases."""
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
    assert uncalled == set(UNCALLED_ENGINE_NAMES)


# ------------------------------------------------------------ traced guard

ENGINE_DIR = ROOT / "src" / "koszulkit"

# Engine functions that no command and no benchmark pass runs, each with the
# reason it stays.
KEPT_UNREACHED = {
    **dict.fromkeys(("complexes.HomSpace.cycle", "functors.NatTrans.inverse",
                     "koszul.q_functor", "koszul.q_ses_triangle",
                     "randgen.rand_chain_map", "tstructure.aisle_membership",
                     "tstructure.heart_simples", "tstructure.weight_filtration"), ACCEPTANCE),
    **dict.fromkeys(("complexes.shift", "complexes.support", "orlov.compose",
                     "orlov.hom_basis"), PUBLIC),
    **dict.fromkeys(("linalg.Field.div", "linalg.Field.sub"), ORACLES),
    **dict.fromkeys(("complexes.Triangle.rotate", "complexes.Triangle.shift"), README_TRIANGLES),
    "tstructure.t_cohomology": README_T_COHOMOLOGY,
    "complexes.Complex.zero": ZERO_COMPLEX,
}


def engine_functions():
    """{(file, first line of its code): qualified name} of every function and
    method defined in the engine, nested ones included and dunders left out.
    The name is the module's followed by Python's ``__qualname__``."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not re.fullmatch(r"__\w+__", child.name):
                    # a decorated function's code starts at its first decorator
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(str(path), first)] = f"{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            else:
                visit(child, path, prefix)

    for path in sorted(ENGINE_DIR.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, f"{path.stem}.")
    return found


def engine_traffic(tmp_path, monkeypatch):
    """Every command once, the inputs that reach the report helpers, and one
    benchmark pass of each workload."""
    from test_cli import FILES, FRESH_COMMANDS, run_main

    for name, doc in FILES.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")

    def run(argv, code):
        proc = run_main(*[str(tmp_path / f"{a}.json") if a in FILES else a for a in argv])
        assert proc.returncode == code, (argv, proc.stdout, proc.stderr)

    for argv, code in FRESH_COMMANDS:
        run(argv, code)
    run(["infext", "compose", "FIX_A2", "ID", "ID"], 0)
    run(["infext", "invert", "FIX_A2", "ID"], 0)
    run(["infext", "les", "FIX_A2", "ID", "CX"], 0)
    run(["validate", "FIX_BAD"], 1)
    run(["truncate", "FIX_BAD", "CX"], 1)
    run(["heart", "FIX_A2", "--pretty"], 0)
    golden = str(tmp_path / "golden.json")
    run(["hom", "FIX_A2", "--from", "b", "--to", "a", "--golden", golden, "--regen-golden"], 0)
    run(["hom", "FIX_A2", "--from", "b", "--to", "a", "--shift", "1", "--golden", golden], 1)

    # koszul_cli reads the goldens below its root and writes its inputs there
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import WORK_DIR, WORKLOADS

    (tmp_path / "tests").symlink_to(ROOT / "tests")
    (tmp_path / WORK_DIR).mkdir()
    monkeypatch.chdir(tmp_path)
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text(encoding="utf-8"))
    for cls in WORKLOADS.values():
        wl = cls(1, tmp_path, reference)
        wl.setup()
        for task in wl.tasks(0):
            task.run()


def test_every_engine_function_runs_on_engine_traffic(tmp_path, monkeypatch):
    """Each engine function runs on the traffic the engine serves, or is
    kept with its reason.  A call hook records the code objects that run;
    it sees owners, so a method is caught even when another definition or a
    variable shares its name."""
    ran = set()

    def hook(frame, event, arg):
        ran.add(frame.f_code)

    before = sys.gettrace()
    sys.settrace(hook)
    try:
        engine_traffic(tmp_path, monkeypatch)
    finally:
        sys.settrace(before)
    ran = {(str(Path(code.co_filename).resolve()), code.co_firstlineno) for code in ran}
    unreached = {name for key, name in engine_functions().items() if key not in ran}
    assert sorted(unreached - set(KEPT_UNREACHED)) == [], "engine functions that never ran"
    assert sorted(set(KEPT_UNREACHED) - unreached) == [], "kept functions that ran"


def test_both_guards_keep_a_name_for_one_reason():
    for name, reason in UNCALLED_ENGINE_NAMES.items():
        kept = {KEPT_UNREACHED[q] for q in KEPT_UNREACHED if q.rpartition(".")[2] == name}
        assert kept == {reason}, name


def test_no_engine_module_imports_a_private_name_of_another():
    """A name with a leading underscore, dunders aside, is its module's
    own: an engine module never imports one from another engine module."""
    imported = []
    for path in sorted(ENGINE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").partition(".")[0] == "koszulkit"):
                imported.extend(f"{path.stem} imports {node.module}.{alias.name}"
                                for alias in node.names if alias.name.startswith("_")
                                and not re.fullmatch(r"__\w+__", alias.name))
    assert imported == []
