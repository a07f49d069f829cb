"""Command-line interface, fixture catalog and golden-file harness.

Every command prints one deterministic JSON report (sorted keys, canonical
scalar strings) that embeds the engine version, the hash of the input
presentation and the window/seed parameters, or one JSON error object.
Exit codes: 0 the report was produced and its checks pass; 1 the report was
produced and a check in it failed (or the golden file differs); 2 the input
or a precondition of the command was refused (a ``KoszulkitError``); 3 any
other exception, an internal error, which is a bug.

One table, ``COMMANDS``, holds each command's handler, whether it is gated
on validation, and its arguments; ``main`` loads and hashes the
presentation once and runs the gate where the table says.  ``dual`` and
``double-dual`` are not gated: ``koszul_dual`` validates and exits 2.

Start-up: the module imports only what every command uses (``linalg``,
``orlov`` and ``fixtures``), and each command imports the engine layers it
runs at the top of its handler, so a process loads no layer it does not run:

- ``validate``, ``heart``: nothing more
- ``hom``, ``cone``, ``minimize``: ``complexes``
- ``truncate``, ``weights``, ``mixed-check``: ``tstructure`` (and ``complexes``)
- ``surrogate``, ``roundtrip``, ``dual``, ``double-dual``: ``koszul`` (and
  ``complexes``, ``tstructure``)
- ``koszul-check``: ``koszul`` and ``randgen`` (and ``complexes``, ``tstructure``)
- ``infext``: ``infext`` (and ``complexes``)
- ``filtered-demo``: ``filtered`` and ``randgen`` (and ``complexes``)
- ``selftest``: all of these, and ``functors``
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from . import __version__
from .fixtures import FIXTURE_NAMES, VALID_FIXTURES, fixture_path, load_fixture
from .linalg import KoszulkitError
from .orlov import (
    AddMorphism,
    InputError,
    OrlovPresentation,
    decode_object,
    fields,
    validate_presentation,
)


# ----------------------------------------------------------------- file io


def read_json(path, what):
    """The text of the file ``path`` and its parsed JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        return text, json.loads(text)
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read {what}: {exc}") from exc


def load_json(path):
    return read_json(path, path)[1]


def load_presentation(path):
    text, data = read_json(fixture_path(path) if path in FIXTURE_NAMES else path, "presentation")
    pres = OrlovPresentation.from_data(data, name=str(path))
    return pres, hashlib.sha256(text.encode()).hexdigest()


def decode_complex(pres, data) -> Complex:
    from .complexes import Complex

    terms, diff = fields(data, "complex", terms=({int: [str]}, {}), diff=({int: list}, {}))
    terms = {i: decode_object(pres, ids) for i, ids in terms.items()}
    diffs = {}
    for i, entries in diff.items():
        if i not in terms or (i + 1) not in terms:
            raise InputError(f"differential at {i} without both terms")
        diffs[i] = AddMorphism.from_entries(pres, terms[i], terms[i + 1], entries)
    return Complex(pres, terms, diffs)


def encode_complex(x: Complex) -> dict:
    terms = {str(i): list(t.summands) for i, t in sorted(x.terms.items())}
    diffs = {str(i): d.to_entries() for i, d in sorted(x.diffs.items())}
    return {"terms": terms, "diff": diffs}


def decode_chain_map(pres, data) -> ChainMap:
    from .complexes import ChainMap

    src, tgt, comps = fields(data, "chain map", source=dict, target=dict,
                             components=({int: list}, {}))
    src, tgt = decode_complex(pres, src), decode_complex(pres, tgt)
    return ChainMap(src, tgt, {
        i: AddMorphism.from_entries(pres, src.term(i), tgt.term(i), entries)
        for i, entries in comps.items()})


def decode_inf_morphism(pres, data) -> InfMorphism:
    from .complexes import HomClass
    from .infext import InfMorphism

    f0, finf = fields(data, "infinitesimal morphism", f0=dict, finf=(dict, {}))
    f0 = HomClass(decode_chain_map(pres, f0))
    if not fields(finf, "finf", components=({int: list}, {}))[0]:
        return InfMorphism.iota(f0)
    return InfMorphism(f0, HomClass(decode_chain_map(pres, finf)))


def ascii_complex(x: Complex) -> str:
    if x.is_zero:
        return "0"
    parts = []
    for i in x.degrees():
        parts.append(f"[{i}] " + ("+".join(x.term(i)) or "0"))
    return "  -->  ".join(parts)


# ------------------------------------------------------------------ reports


def canonical_bytes(report: dict) -> bytes:
    return (json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n").encode()


def first_difference(a, b, path="$"):
    if type(a) is not type(b):
        return f"{path}: type {type(a).__name__} != {type(b).__name__}"
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a:
                return f"{path}.{key}: missing on the left"
            if key not in b:
                return f"{path}.{key}: missing on the right"
            sub = first_difference(a[key], b[key], f"{path}.{key}")
            if sub:
                return sub
        return None
    if isinstance(a, list):
        for idx in range(max(len(a), len(b))):
            if idx >= len(a) or idx >= len(b):
                return f"{path}[{idx}]: length mismatch {len(a)} != {len(b)}"
            sub = first_difference(a[idx], b[idx], f"{path}[{idx}]")
            if sub:
                return sub
        return None
    if a != b:
        return f"{path}: {a!r} != {b!r}"
    return None


def golden_compare(report: dict, golden_path: str, regen: bool, oracle="unspecified"):
    """Byte-exact comparison after canonical serialization; atomic regen.

    A golden file stores {"derived_by": <oracle name>, "report": <report>};
    the report part is compared byte-exactly after canonicalization.
    """
    payload = canonical_bytes(report)
    if regen:
        import tempfile

        directory = os.path.dirname(os.path.abspath(golden_path)) or "."
        wrapped = canonical_bytes({"derived_by": oracle, "report": report})
        try:
            os.makedirs(directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=directory, prefix=".golden-")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(wrapped)
                os.replace(tmp, golden_path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        except OSError as exc:
            raise InputError(f"cannot write golden file: {exc}") from exc
        return {"regenerated": True, "path": golden_path, "derived_by": oracle}
    stored, derived_by = fields(read_json(golden_path, "golden file")[1], "golden file",
                                report=dict, derived_by=(str, None))
    if canonical_bytes(stored) == payload:
        return {"match": True, "derived_by": derived_by}
    return {"match": False,
            "first_difference": first_difference(stored, report)}


def parse_window(text):
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise InputError(f"bad window {text!r}; expected a..b") from exc
    if lo > hi:
        raise InputError("window lower bound exceeds upper bound")
    return (lo, hi)


# ----------------------------------------------------------------- commands
#
# A handler takes the loaded presentation (None for ``selftest``), the parsed
# arguments, the window and the seed, and returns (payload, ok).


def cmd_validate(pres, args, window, seed):
    report = validate_presentation(pres)
    return report.to_data(), report.ok


def cmd_hom(pres, args, window, seed):
    from .complexes import Complex, hom_space

    src = Complex.single(pres, decode_object(pres, [args.source]), 0)
    tgt = Complex.single(pres, decode_object(pres, [args.target]), 0)
    return {"dim": hom_space(src, tgt, args.shift).dimension}, True


def cmd_cone(pres, args, window, seed):
    from .complexes import cone

    f = decode_chain_map(pres, load_json(args.map))
    z, _, _ = cone(f)
    payload = {"cone": encode_complex(z), "support": sorted(map(list, z.support())),
               "ascii": ascii_complex(z)}
    return payload, True


def cmd_minimize(pres, args, window, seed):
    from .complexes import minimal_model

    x = decode_complex(pres, load_json(args.complex))
    m, iso = minimal_model(x)
    payload = {"minimal": encode_complex(m),
               "support": sorted(map(list, m.support())),
               "iso_verified": iso.verify(), "ascii": ascii_complex(m)}
    return payload, payload["iso_verified"]


def certified_filtration(m, level) -> tuple:
    """(strips, steps certified, step issues) of ``tstructure.filtration(m,
    level)``.  A step that raises is an issue like one that fails to verify:
    the input was valid, so either fails the report's check."""
    from .complexes import TriangleError
    from .tstructure import filtration

    try:
        strips, steps = filtration(m, level)
    except TriangleError as exc:
        return {}, 0, [str(exc)]
    verdicts = {n: step.verify() for n, step in zip(strips, steps)}
    issues = [f"step {n}: {issue}" for n, found in verdicts.items() for issue in found]
    return strips, sum(not found for found in verdicts.values()), issues


def truncate_report(x) -> tuple:
    """(payload, ok) of ``truncate``, which ``selftest`` reads too.  The K_0
    check: sum_n (-1)^n mult_s(H^n) = sum_i (-1)^(i + deg s) #(s in x^i) for
    every s, read off x's own terms.  x is minimized once: the t-cohomology
    filters the minimal model ``truncate`` split, and the aisle flags read
    its two parts, all minimal."""
    from .tstructure import HeartObject, composition_factors, diagonal, in_lower, in_upper, truncate

    tr = truncate(x)
    issues = tr.triangle.verify()
    strips, certified, step_issues = certified_filtration(tr.model, diagonal(x.pres))
    objects = {n: HeartObject(z.shift(n)) for n, z in strips.items()}
    k0 = {s: -sum((-1) ** (i + x.pres.degree[s]) * t.summands.count(s) for i, t in x.terms.items())
          for s in x.pres.ids}
    for n, h in objects.items():
        for s, mult in composition_factors(h).items():
            k0[s] += (-1) ** n * mult
    payload = {
        "lower": encode_complex(tr.lower),
        "upper": encode_complex(tr.upper),
        "lower_in_lower_aisle": all(map(in_lower, tr.lower.support())),
        "upper_shift_in_upper_aisle": all(map(in_upper, tr.upper.shift(1).support())),
        "triangle_certified": not issues,
        "issues": issues,
        "t_cohomology": {str(n): encode_complex(h.normal_form) for n, h in objects.items()},
        "steps_certified": certified,
        "step_issues": step_issues,
        "k0_ok": not any(k0.values()),
    }
    ok = payload["triangle_certified"] and payload["lower_in_lower_aisle"] \
        and payload["upper_shift_in_upper_aisle"] and not step_issues and payload["k0_ok"]
    return payload, ok


def cmd_truncate(pres, args, window, seed):
    return truncate_report(decode_complex(pres, load_json(args.complex)))


def cmd_heart(pres, args, window, seed):
    payload = {"simples": [
        {"id": iid, "weight": pres.degree[iid],
         "placed_in_degree": -pres.degree[iid]}
        for iid in pres.ids]}
    return payload, True


def cmd_weights(pres, args, window, seed):
    """The weight filtration, certified step by step, with pure and
    semisimple graded pieces."""
    from .tstructure import (
        HeartObject,
        composition_factors,
        heart_object,
        is_pure,
        is_semisimple_normal_form,
        weight,
    )

    h = heart_object(decode_complex(pres, load_json(args.complex)))
    strips, certified, step_issues = certified_filtration(h.normal_form, weight)
    payload = {
        "weights": {str(k): list(z.term(-k).summands) for k, z in sorted(strips.items())},
        "composition_factors": dict(sorted(composition_factors(h).items())),
        "normal_form": encode_complex(h.normal_form),
        "steps_certified": certified,
        "step_issues": step_issues,
        "pure_semisimple": all(is_pure(gr) and is_semisimple_normal_form(gr)
                               for gr in map(HeartObject, strips.values())),
    }
    return payload, not step_issues and payload["pure_semisimple"]


def cmd_mixed_check(pres, args, window, seed):
    from .tstructure import mixed_vanishing_report

    report = mixed_vanishing_report(pres, window)
    return report, report["vanishing_ok"]


def cmd_koszul_check(pres, args, window, seed):
    from .koszul import koszulity_check

    report = koszulity_check(pres, window, seed=seed)
    return report, report["ok"]


def cmd_surrogate(pres, args, window, seed):
    from .koszul import koszulescence_surrogate

    report = koszulescence_surrogate(pres, window)
    return report, report["ok"]


def cmd_dual(pres, args, window, seed):
    from .koszul import koszul_dual

    dual = koszul_dual(pres)
    payload = {
        "presentation": dual.presentation.to_data(),
        "provenance": dual.provenance,
        "normal_forms": {nid: encode_complex(cx) for nid, cx in dual.objects.items()},
    }
    return payload, True


def cmd_roundtrip(pres, args, window, seed):
    from .koszul import roundtrip_check

    report = roundtrip_check(pres)
    return report, report["ok"]


def cmd_double_dual(pres, args, window, seed):
    from .koszul import double_dual_check

    report = double_dual_check(pres)
    return report, report["ok"]


INFEXT_ARITY = {"compose": 2, "invert": 1, "square": 4, "les": 2}


def cmd_infext(pres, args, window, seed):
    from .complexes import Triangle
    from .infext import complete_inf_square, inf_compose, inf_invert, inf_les_check, iota_triangle

    sub = args.infext_command
    arity = INFEXT_ARITY[sub]
    if len(args.files) != arity:
        raise InputError(f"infext {sub} needs {arity} files, got {len(args.files)}")
    data = [load_json(path) for path in args.files]
    if sub == "les":
        f = decode_inf_morphism(pres, data[0])
        if not f.is_genuine_data:
            # the triangle is the cone of f0, which would drop f'
            raise InputError("cone endpoints must be given by genuine data")
        tri = iota_triangle(Triangle.from_cone(f.f0.rep))
        rep = inf_les_check(decode_complex(pres, data[1]), tri,
                            window=(max(window[0], -3), min(window[1], 3)))
        return rep, rep["ok"]
    maps = [decode_inf_morphism(pres, d) for d in data]
    if sub == "compose":
        h = inf_compose(*maps)
        payload = {"f0_zero": h.f0.is_zero(), "finf_zero": h.finf.is_zero(),
                   "infinitesimal": h.is_infinitesimal}
        return payload, True
    if sub == "invert":
        return {"invertible": inf_invert(maps[0]) is not None}, True
    f, i2, p, q = maps
    rep = complete_inf_square(p, q, f, i2)
    payload = {"squares_ok": rep["squares_ok"], "r_invertible": rep["r_invertible"]}
    return payload, rep["squares_ok"]


def cmd_filtered_demo(pres, args, window, seed):
    """Run the filtered-category axiom suite on generated objects."""
    from .filtered import (
        FilteredMorphism,
        alpha,
        filt_hom_report,
        filt_triangle,
        s_shift,
        s_shift_morphism,
        split_decompose,
    )
    from .randgen import rand_filtered, rand_filtered_complex, rng_for

    # a file seeds its draws from its content, so every path to the same bytes draws alike
    rng = rng_for(seed, "filtered-demo", pres.name if pres.name in FIXTURE_NAMES else args.fixture_sha256)

    splits = hom_reports = triangles = alpha_checks = shift_checks = 0
    failures = []
    for trial in range(8):
        x = rand_filtered(pres, rng)
        sp = split_decompose(x)
        splits += 1
        if sp.phi.compose(sp.psi) != FilteredMorphism.identity(x):
            failures.append({"trial": trial, "check": "split iso"})
        if not (sp.above.is_ge(1) and sp.below.is_le(0)):
            failures.append({"trial": trial, "check": "split membership"})
        if not sp.above.is_zero and not sp.below.is_zero:
            rep = filt_hom_report(sp.above, sp.below)
            hom_reports += 1
            if not rep["ok"]:
                failures.append({"trial": trial, "check": "hom report"})
        # reindexing bookkeeping and the compatibility of the canonical map
        n = rng.randint(1, 3)
        if not s_shift(sp.below, n).is_le(n):
            failures.append({"trial": trial, "check": "s^n membership"})
        shift_checks += 1
        if alpha(x) != s_shift_morphism(alpha(s_shift(x, -1)), 1):
            failures.append({"trial": trial, "check": "alpha vs s"})
        alpha_checks += 1
    for trial in range(4):
        fx = rand_filtered_complex(pres, rng)
        tri = filt_triangle(fx)
        triangles += 1
        if tri.verify():
            failures.append({"trial": trial, "check": "triangle"})
    report = {"splits": splits, "hom_reports": hom_reports,
              "triangles": triangles, "alpha_checks": alpha_checks,
              "shift_checks": shift_checks, "failures": failures,
              "ok": not failures}
    return report, report["ok"]


def cmd_selftest(pres, args, window, seed):
    from math import inf

    from .filtered import FilteredMorphism, split_decompose
    from .functors import adjunction_check, diagonal_fold
    from .infext import adjunction_data
    from .koszul import koszulescence_surrogate
    from .randgen import rand_complex, rand_filtered, rng_for

    checks = []

    def record(name, ok):
        checks.append({"name": name, "ok": bool(ok)})

    def run(command, pres):
        return COMMANDS[command][0](pres, args, window, seed)

    fixtures = {name: load_fixture(name) for name in VALID_FIXTURES}
    for name, pres in fixtures.items():
        record(f"validate:{name}", run("validate", pres)[1])
    bad, bad_ok = run("validate", load_fixture("FIX_BAD"))
    witness_ok = any(f["kind"] == "hom_degree_violation" and f["witness"] == ["a", "b"]
                     for f in bad["findings"])
    record("validate:FIX_BAD fails with witness (a,b)", (not bad_ok) and witness_ok)

    for name, pres in fixtures.items():
        for command in ("mixed-check", "koszul-check", "surrogate", "roundtrip", "double-dual"):
            record(f"{command}:{name}", run(command, pres)[1])
    # the planted control reads every cell Ext^i with i >= 2, whatever the
    # window, as dual's surrogate gate does: FIX_ZC's failing cell is Ext^2(c, a)
    zc = koszulescence_surrogate(load_fixture("FIX_ZC"), (2, inf))
    record("surrogate:FIX_ZC fails with Ext^2 witness",
           (not zc["ok"]) and zc["failures"][0]["source"] == "c"
           and zc["failures"][0]["target"] == "a" and zc["failures"][0]["shift"] == 2)

    a3 = load_fixture("FIX_A3")
    rng = rng_for(seed, "selftest")
    # a list, so that all five draws are made and the checks below draw alike
    record("truncate:random", all([truncate_report(rand_complex(a3, rng))[1] for _ in range(5)]))

    a2 = load_fixture("FIX_A2")
    adj_ok = True
    for _ in range(3):
        x = rand_complex(a2, rng, amplitude=2)
        adj_ok = adj_ok and adjunction_data(x)["ok"]
    record("infext:adjunctions", adj_ok)

    filt_ok = True
    for _ in range(3):
        x = rand_filtered(a2, rng)
        sp = split_decompose(x)
        filt_ok = filt_ok and sp.phi.compose(sp.psi) == FilteredMorphism.identity(x) \
            and sp.above.is_ge(1) and sp.below.is_le(0)
    record("filtered:split", filt_ok)

    # diagonal -| fold on FIX_A2 + FIX_A2, an adjoint pair between two presentations
    union, diagonal, fold, unit, counit = diagonal_fold(a2)
    xs = [rand_complex(a2, rng, amplitude=2) for _ in range(3)]
    ys = [rand_complex(union, rng, amplitude=2) for _ in range(3)]
    record("functors:diagonal-fold adjunction",
           adjunction_check(diagonal, fold, unit, counit, xs, ys, (-1, 0, 1))["ok"])

    ok = all(c["ok"] for c in checks)
    return {"checks": checks, "ok": ok}, ok


# name: (handler, gated on validation, the arguments after the presentation).
# A gated command on a presentation that fails validation reports
# {"gate": <validation report>, "ok": false} and exits 1.  ``infext`` takes
# its subcommand before the presentation, and ``selftest`` no presentation.
COMPLEX = (("complex",), {})
COMMANDS = {
    "validate": (cmd_validate, False),
    "hom": (cmd_hom, False, (("--from",), {"dest": "source", "required": True}),
            (("--to",), {"dest": "target", "required": True}),
            (("--shift",), {"type": int, "default": 0})),
    "cone": (cmd_cone, False, (("map",), {})),
    "minimize": (cmd_minimize, False, COMPLEX),
    "truncate": (cmd_truncate, True, COMPLEX),
    "heart": (cmd_heart, True),
    "weights": (cmd_weights, True, COMPLEX),
    "mixed-check": (cmd_mixed_check, True),
    "koszul-check": (cmd_koszul_check, True),
    "surrogate": (cmd_surrogate, True),
    "dual": (cmd_dual, False),
    "roundtrip": (cmd_roundtrip, True),
    "double-dual": (cmd_double_dual, False),
    "infext": (cmd_infext, True, (("files",), {"nargs": "*"})),
    "filtered-demo": (cmd_filtered_demo, True),
    "selftest": (cmd_selftest, False),
}


# --------------------------------------------------------------------- main


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--window", default="-8..8", help="shift window a..b")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--pretty", action="store_true")
    common.add_argument("--golden", default=None)
    common.add_argument("--regen-golden", action="store_true")
    common.add_argument("--golden-oracle", default="unspecified",
                        help="oracle name recorded when regenerating a golden")
    parser = argparse.ArgumentParser(prog="koszulkit")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (_, _, *specs) in COMMANDS.items():
        p = sub.add_parser(name, parents=[common])
        if name == "infext":
            p.add_argument("infext_command", choices=list(INFEXT_ARITY))
        if name != "selftest":
            p.add_argument("presentation")
        for names, kw in specs:
            p.add_argument(*names, **kw)
    return parser


def render_pretty(report: dict) -> str:
    lines = []

    def walk(obj, indent=0):
        pad = "  " * indent
        if isinstance(obj, dict):
            for key in sorted(obj):
                value = obj[key]
                if isinstance(value, (dict, list)):
                    lines.append(f"{pad}{key}:")
                    walk(value, indent + 1)
                else:
                    lines.append(f"{pad}{key}: {value}")
        elif isinstance(obj, list):
            for item in obj:
                if isinstance(item, (dict, list)):
                    walk(item, indent)
                    lines.append(pad + "-" * 24)
                else:
                    lines.append(f"{pad}- {item}")

    walk(report)
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    # let "--window -5..5" survive argparse's option detection
    for i, tok in enumerate(argv[:-1]):
        if tok == "--window":
            argv[i] = f"--window={argv[i + 1]}"
            del argv[i + 1]
            break
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        window = parse_window(args.window)
        handler, gated, *_ = COMMANDS[args.command]
        pres, args.fixture_sha256 = load_presentation(args.presentation) if "presentation" in args \
            else (None, "-")
        if gated and not (gate := validate_presentation(pres)).ok:
            payload, ok = {"gate": gate.to_data(), "ok": False}, False
        else:
            payload, ok = handler(pres, args, window, args.seed)
        report = {
            "command": args.command,
            "engine_version": __version__,
            "fixture_sha256": args.fixture_sha256,
            "window": list(window),
            "seed": args.seed,
            "payload": payload,
        }
        exit_code = 0 if ok else 1
        if args.golden or args.regen_golden:
            if not args.golden:
                raise InputError("--regen-golden requires --golden")
            result = golden_compare(report, args.golden, args.regen_golden,
                                    oracle=args.golden_oracle)
            report["golden"] = result
            if not args.regen_golden and not result.get("match"):
                exit_code = 1
        out = render_pretty(report) if args.pretty else canonical_bytes(report).decode()
    except KoszulkitError as exc:
        out, exit_code = json.dumps({"error": str(exc)}) + "\n", 2
    except Exception as exc:
        import traceback

        traceback.print_exc()
        error = f"internal error: {type(exc).__name__}: {exc}"
        out, exit_code = json.dumps({"error": error}) + "\n", 3
    sys.stdout.write(out)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
