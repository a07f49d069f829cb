"""Per-layer instrumentation: which engine attributes the traced run wraps,
and how the per-layer metrics are derived from the spans and counters.

The wrappers replace class attributes (``Matrix.rref``, ``HomSpace.__init__``,
``AddMorphism.compose`` ...) and module-level functions.  A module-level
function is replaced in every ``koszulkit`` module that holds it, because
``koszul``, ``tstructure`` and ``cli`` import functions such as
``minimal_model`` by name.  Nothing inside ``src/koszulkit`` changes.
"""

from __future__ import annotations

import sys

from spans import Recorder, wrapper

# Each layer metric, its unit, and the end-to-end metric and workload it
# should move.  On the other workloads the prediction is no change.
LAYER_METRICS = [
    ("linalg.rref.calls", "count", "wall_s on hom_q"),
    ("linalg.rref.self_s", "s", "wall_s on hom_q"),
    ("linalg.rref.entries", "count", "wall_s on hom_q"),
    ("linalg.solve.calls", "count", "wall_s on hom_q"),
    ("linalg.solve.none_frac", "ratio", "wall_s on hom_q"),
    ("linalg.mul.calls", "count", "wall_s on hom_q"),
    ("linalg.mul.self_s", "s", "wall_s on hom_q"),
    ("orlov.compose.calls", "count", "wall_s on triangles_fp"),
    ("orlov.compose.self_s", "s", "wall_s on triangles_fp"),
    ("orlov.compose.block_products", "count", "wall_s on triangles_fp"),
    ("orlov.compose.zero_frac", "ratio", "wall_s on triangles_fp"),
    ("orlov.compose_coords.calls", "count", "wall_s on triangles_fp"),
    ("orlov.hom_basis.calls", "count", "wall_s on triangles_fp"),
    ("orlov.presentation.build_s", "s", "wall_s on koszul_cli and setup_s"),
    ("complexes.homspace.builds", "count", "wall_s on koszul_cli"),
    ("complexes.homspace.distinct", "count", "wall_s on koszul_cli"),
    ("complexes.homspace.repeat_frac", "ratio", "wall_s on koszul_cli"),
    ("complexes.homspace.self_s", "s", "wall_s on koszul_cli"),
    ("complexes.homspace.unknowns", "count", "wall_s on koszul_cli"),
    ("complexes.homspace.zero_dim_frac", "ratio", "wall_s on koszul_cli"),
    ("complexes.express.calls", "count", "wall_s on koszul_cli"),
    ("complexes.minimal_model.self_s", "s", "wall_s on triangles_fp"),
    ("complexes.triangle_verify.self_s", "s", "wall_s on triangles_fp"),
    ("tstructure.truncate.self_s", "s", "wall_s on triangles_fp and koszul_cli"),
    ("tstructure.heart_object.calls", "count", "wall_s on triangles_fp and koszul_cli"),
    ("tstructure.mixed_vanishing.self_s", "s", "wall_s on triangles_fp and koszul_cli"),
    ("koszul.ext_table.builds", "count", "wall_s on koszul_cli"),
    ("koszul.ext_table.self_s", "s", "wall_s on koszul_cli"),
    ("koszul.yoneda.calls", "count", "wall_s on koszul_cli"),
    ("koszul.injective_detect.self_s", "s", "wall_s on koszul_cli"),
    ("infext.adjunction.self_s", "s", "wall_s on triangles_fp"),
    ("filtered.split_decompose.self_s", "s", "wall_s on triangles_fp"),
    ("functors.probe.self_s", "s", "wall_s on triangles_fp"),
    ("functors.on_morphism.calls", "count", "wall_s on triangles_fp"),
    ("cli.main.self_s", "s", "wall_s on koszul_cli and cold_start_s"),
    ("cli.report_bytes", "B", "wall_s on koszul_cli and cold_start_s"),
    ("cli.import_s", "s", "cold_start_s and setup_s"),
    ("trace.overhead_frac", "ratio", "none: cost of the traced run itself"),
]


def _complex_key(x):
    return (tuple(sorted(x.terms.items())),
            tuple(sorted((i, d.blocks) for i, d in x.diffs.items())))


def _patch_function(module, name, rec, span, restore):
    """Wrap a module-level function wherever a koszulkit module holds it."""
    orig = getattr(module, name)
    stand_in = wrapper(rec, orig, span)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "koszulkit" and getattr(mod, name, None) is orig:
            setattr(mod, name, stand_in)
            restore.append((mod, name, orig))


def install(rec: Recorder):
    """Install every wrapper; returns a function that removes them all."""
    from koszulkit import cli, complexes, filtered, functors, infext, koszul, linalg, orlov, tstructure

    homspace_keys: set = set()  # (presentation object, x, y, k) seen so far

    def on_rref(rec, args, result):
        rec.add("linalg.rref.entries", args[0].rows * args[0].cols)

    def on_solve(rec, args, result):
        if result is None:
            rec.add("linalg.solve.none")

    def on_compose(rec, args, result):
        g, f = args
        rec.add("orlov.compose.block_products", len(f.source) * len(g.source) * len(g.target))
        if result.is_zero():
            rec.add("orlov.compose.zero")

    def on_compose_coords(rec, args, result):
        rec.add("orlov.compose_coords.calls")

    def on_homspace(rec, args, result):
        sp = args[0]
        key = (sp.x.pres, _complex_key(sp.x), _complex_key(sp.y), sp.k)
        if key not in homspace_keys:
            homspace_keys.add(key)
            rec.add("complexes.homspace.distinct")
        rec.add("complexes.homspace.unknowns", sp.total + sp.h_total)
        if sp.dimension == 0:
            rec.add("complexes.homspace.zero_dim")

    restore = []
    methods = [
        (linalg.Matrix, "rref", "linalg.rref", on_rref),
        (linalg.Matrix, "solve", "linalg.solve", on_solve),
        (linalg.Matrix, "mul", "linalg.mul", None),
        (orlov.AddMorphism, "compose", "orlov.compose", on_compose),
        (orlov.OrlovPresentation, "compose_coords", None, on_compose_coords),
        (orlov.OrlovPresentation, "__init__", "orlov.presentation", None),
        (complexes.HomSpace, "__init__", "complexes.homspace", on_homspace),
        (complexes.HomSpace, "express", "complexes.express", None),
        (complexes.Triangle, "verify", "complexes.triangle_verify", None),
        (koszul.ExtTable, "yoneda", "koszul.yoneda", None),
        (functors.HomogeneousFunctor, "on_morphism", "functors.on_morphism", None),
    ]
    for owner, attr, span, after in methods:
        restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper(rec, getattr(owner, attr), span, after))
    functions = [
        (orlov, "hom_basis", "orlov.hom_basis"),
        (complexes, "minimal_model", "complexes.minimal_model"),
        (tstructure, "truncate", "tstructure.truncate"),
        (tstructure, "heart_object", "tstructure.heart_object"),
        (tstructure, "mixed_vanishing_report", "tstructure.mixed_vanishing"),
        (koszul, "ext_table", "koszul.ext_table"),
        (koszul, "injective_detect", "koszul.injective_detect"),
        (infext, "adjunction_data", "infext.adjunction"),
        (filtered, "split_decompose", "filtered.split_decompose"),
        (functors, "nat_trans_uniqueness_probe", "functors.probe"),
        (cli, "main", "cli.main"),
    ]
    for module, name, span in functions:
        _patch_function(module, name, rec, span, restore)

    def uninstall():
        for owner, attr, orig in reversed(restore):
            setattr(owner, attr, orig)
        homspace_keys.clear()

    return uninstall


def derive(rec: Recorder, passes: int, extra: dict) -> dict:
    """Per-layer metrics, per task list (pass), from spans and counters.

    Every span gives ``<span>.calls`` and ``<span>.self_s`` and every counter
    its total; ``extra`` carries what the runner measured itself
    (``cli.report_bytes``, ``cli.import_s``, ``trace.overhead_frac``).
    """
    per_pass = {}
    for span, (n, self_total) in rec.by_name().items():
        per_pass[f"{span}.calls"] = n / passes
        per_pass[f"{span}.self_s"] = self_total / passes
    for name, total in rec.counters.items():
        per_pass[name] = total / passes

    def frac(num, den):
        den = per_pass.get(den, 0)
        return per_pass.get(num, 0) / den if den else 0.0

    builds = per_pass.get("complexes.homspace.calls", 0.0)
    per_pass.update({
        "linalg.solve.none_frac": frac("linalg.solve.none", "linalg.solve.calls"),
        "orlov.compose.zero_frac": frac("orlov.compose.zero", "orlov.compose.calls"),
        "orlov.presentation.build_s": per_pass.get("orlov.presentation.self_s", 0.0),
        "complexes.homspace.builds": builds,
        "complexes.homspace.repeat_frac": 1 - frac("complexes.homspace.distinct", "complexes.homspace.calls")
        if builds else 0.0,
        "complexes.homspace.zero_dim_frac": frac("complexes.homspace.zero_dim", "complexes.homspace.calls"),
        "koszul.ext_table.builds": per_pass.get("koszul.ext_table.calls", 0.0),
        **extra,
    })
    return {name: {"value": per_pass.get(name, 0.0), "unit": unit} for name, unit, _ in LAYER_METRICS}
