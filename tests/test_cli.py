import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from koszulkit import cli
from koszulkit.fixtures import fixture_text

GOLDEN_DIR = Path(__file__).parent / "goldens"


def run_cli(*argv):
    """The ``python -m koszulkit.cli`` entry point, in a fresh process."""
    return subprocess.run([sys.executable, "-m", "koszulkit.cli", *argv],
                          capture_output=True, text=True)


def run_main(*argv):
    """``cli.main`` in-process, returned as a finished process: stdout and
    stderr are captured, and an argparse usage error gives its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(argv, code, out.getvalue(), err.getvalue())


def run_json(*argv, run=run_main):
    proc = run(*argv)
    return proc.returncode, json.loads(proc.stdout)


def test_selftest_passes():
    # -1..1 and 100..101 leave out FIX_ZC's Ext^2 cell; its planted failure
    # is found all the same
    for window in ("-5..5", "-1..1", "100..101"):
        code, report = run_json("selftest", "--window", window, run=run_cli)
        assert code == 0, window
        assert report["payload"]["ok"]
        assert report["engine_version"]
        assert report["window"] == [int(end) for end in window.split("..")]
        checks = {c["name"]: c["ok"] for c in report["payload"]["checks"]}
        assert checks["surrogate:FIX_ZC fails with Ext^2 witness"] is True
        assert checks["functors:diagonal-fold adjunction"] is True


def test_validate_fix_bad_exits_one_with_witness():
    code, report = run_json("validate", "FIX_BAD", run=run_cli)
    assert code == 1
    findings = report["payload"]["findings"]
    assert {"kind": "hom_degree_violation", "witness": ["a", "b"]} == {
        "kind": findings[0]["kind"], "witness": findings[0]["witness"]}


def test_validate_fixture_ok():
    code, report = run_json("validate", "FIX_A2")
    assert code == 0 and report["payload"]["ok"]
    assert report["fixture_sha256"]


def test_hom_command_dimension():
    code, report = run_json("hom", "FIX_A2", "--from", "b", "--to", "a", "--shift", "0")
    assert code == 0
    assert report["payload"] == {"dim": 1}


A2_DATA = {
    "characteristic": 0,
    "indecomposables": [{"id": "a", "degree": 0}, {"id": "b", "degree": 1}],
    "hom": [{"src": "b", "tgt": "a", "basis": ["alpha"]}],
}


def _a2_with(section, key, value):
    """FIX_A2 data with ``key`` of the first ``section`` entry set to value
    (or removed, for None)."""
    data = json.loads(json.dumps(A2_DATA))
    entry = data[section][0]
    if value is None:
        del entry[key]
    else:
        entry[key] = value
    return data


@pytest.mark.parametrize("data", [
    None,                                           # no such file
    _a2_with("indecomposables", "degree", "x"),
    _a2_with("indecomposables", "degree", 1.5),
    _a2_with("indecomposables", "degree", True),
    _a2_with("indecomposables", "id", None),
    _a2_with("indecomposables", "degree", None),
    _a2_with("hom", "src", None),
    _a2_with("hom", "tgt", None),
    _a2_with("hom", "basis", None),
    _a2_with("hom", "basis", "gz"),
    {**A2_DATA, "characteristic": "x"},
    {**A2_DATA, "compose": [{"left": "1@a", "right": "alpha",
                             "result": [{"label": "alpha", "coeff": "x"}]}]},
    {**A2_DATA, "indecomposables": True},
    {**A2_DATA, "hom": 2.5},
    {**A2_DATA, "compose": 7},
    {**A2_DATA, "compose": [{"left": "1@a", "right": "alpha", "result": True}]},
    _a2_with("indecomposables", "id", ["a"]),
    _a2_with("hom", "src", {"id": "b"}),
    _a2_with("hom", "basis", [["alpha"]]),
    {**A2_DATA, "compose": [{"left": ["1@a"], "right": "alpha", "result": []}]},
    {**A2_DATA, "hom": [{"src": "b", "tgt": "a", "basis": ["1@a"]}]},
], ids=["missing-file", "degree-str", "degree-float", "degree-bool", "no-id", "no-degree",
        "no-src", "no-tgt", "no-basis", "basis-str", "characteristic-str", "coeff-str",
        "indecomposables-bool", "hom-float", "compose-int", "result-bool", "id-list",
        "src-object", "label-list", "left-list", "unit-label-outside-end"])
def test_unknown_input_exits_two(tmp_path, data):
    path = tmp_path / "p.json"
    if data is None:
        path = "/nonexistent/file.json"
    else:
        path.write_text(json.dumps(data), encoding="utf-8")
    code, report = run_json("validate", str(path))
    assert code == 2
    assert report["error"]


MAP_A2 = {"source": {"terms": {"0": ["b"]}}, "target": {"terms": {"0": ["a"]}},
          "components": {"0": [{"label": "alpha", "coeff": "1"}]}}
# c -> b -> a in FIX_A3 with differentials beta, then alpha: d o d = gamma != 0
DD_NONZERO_A3 = {"terms": {"0": ["c"], "1": ["b"], "2": ["a"]},
                 "diff": {"0": [{"label": "beta", "coeff": "1"}],
                          "1": [{"label": "alpha", "coeff": "1"}]}}
B_TO_A = {"terms": {"-1": ["b"], "0": ["a"]}}
# alpha: b -> a as an infinitesimal morphism; it does not compose with itself
INF_ALPHA = {"f0": MAP_A2}


@pytest.mark.parametrize("command,data", [
    ("minimize FIX_A2", {"terms": {"0": ["nope"]}}),
    ("minimize FIX_A2", [{"terms": {"0": ["a"]}}]),
    ("cone FIX_A2", {"target": MAP_A2["target"], "components": MAP_A2["components"]}),
    ("cone FIX_A2", {"source": MAP_A2["source"], "components": MAP_A2["components"]}),
    ("cone FIX_A2", "map"),
    ("infext invert FIX_A2", {"finf": MAP_A2}),
    ("infext invert FIX_A2", [MAP_A2]),
    ("minimize FIX_A2", {"terms": [["a"]]}),
    ("minimize FIX_A2", {"terms": {"0": ["a"]}, "diff": []}),
    ("cone FIX_A2", {**MAP_A2, "components": [[]]}),
    ("cone FIX_A2", {**MAP_A2, "components": {"x": []}}),
    ("cone FIX_A2", {**MAP_A2, "components": {"0": [{"coeff": "1"}]}}),
    ("infext invert FIX_A2", {"f0": MAP_A2, "finf": [MAP_A2]}),
    ("minimize FIX_A3", DD_NONZERO_A3),
    ("truncate FIX_A3", DD_NONZERO_A3),
    ("weights FIX_A3", DD_NONZERO_A3),
    ("cone FIX_A3", {"source": DD_NONZERO_A3, "target": {"terms": {}}}),
    ("minimize FIX_A2", {**B_TO_A, "diff": {"-1": [["alpha"]]}}),
    ("minimize FIX_A2", {"terms": {"0": "ba"}}),
    ("minimize FIX_A2", {**B_TO_A, "diff": {"-1": [{"row": 0.9, "label": "alpha", "coeff": "1"}]}}),
    ("infext compose FIX_A2 FILE", INF_ALPHA),
    ("infext square FIX_A2 FILE FILE FILE", INF_ALPHA),
    ("infext invert FIX_A2", {"f0": MAP_A2, "finf": {"components": []}}),
], ids=["unknown-id", "complex-list", "map-no-source", "map-no-target", "map-str",
        "inf-no-f0", "inf-list", "terms-list", "diff-list", "components-list",
        "component-degree-str", "component-no-label", "finf-list", "dd-nonzero-minimize",
        "dd-nonzero-truncate", "dd-nonzero-weights", "dd-nonzero-cone", "diff-entry-list",
        "term-str", "row-float", "compose-not-composable", "square-not-composable",
        "finf-components-list"])
def test_malformed_complex_exits_two(tmp_path, command, data):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    # FILE in the command is the same input once more
    argv = [str(bad) if a == "FILE" else a for a in command.split()]
    code, report = run_json(*argv, str(bad))
    assert code == 2
    assert report["error"]


# FILE is the identity of a in degree 0; B0, b in degree 0, lies off the
# antidiagonal at (0, 1); NOT_GENUINE is (0, alpha): b(0) -> a(-1), whose
# cone is the cone of 0 and would drop alpha
ONE_A0 = {"terms": {"0": ["a"]}}
EXIT_TWO_INPUTS = {
    "FILE": {"f0": {"source": ONE_A0, "target": ONE_A0,
                    "components": {"0": [{"label": "1@a", "coeff": "1"}]}}},
    "B0": {"terms": {"0": ["b"]}},
    "A0": ONE_A0,
    "NOT_GENUINE": {"f0": {"source": {"terms": {"0": ["b"]}}, "target": {"terms": {"-1": ["a"]}}},
                    "finf": MAP_A2},
    "ZERO_A0": {"f0": {"source": ONE_A0, "target": ONE_A0, "components": {}}},
}


@pytest.mark.parametrize("argv,needle", [
    (["infext", "compose", "FIX_A2", "FILE"], "needs 2 files"),
    (["infext", "invert", "FIX_A2"], "needs 1 files"),
    (["infext", "square", "FIX_A2", "FILE", "FILE", "FILE"], "needs 4 files"),
    (["infext", "les", "FIX_A2"], "needs 2 files"),
    (["weights", "FIX_A2", "B0"], "offending points [(0, 1)]"),
    (["infext", "invert", "FIX_A2", "FILE", "FILE", "FILE"], "needs 1 files, got 3"),
    (["infext", "les", "FIX_A2", "NOT_GENUINE", "A0"], "given by genuine data"),
    (["infext", "square", "FIX_A2", "NOT_GENUINE", "FILE", "FILE", "FILE"], "given by genuine data"),
    (["infext", "square", "FIX_A2", "FILE", "FILE", "FILE", "ZERO_A0"], "does not commute"),
], ids=["compose", "invert", "square", "les", "weights-off-heart", "invert-extra-files",
        "les-not-genuine", "square-not-genuine", "square-not-commuting"])
def test_arity_and_heart_input_exit_two(tmp_path, argv, needle):
    for name, doc in EXIT_TWO_INPUTS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    code, report = run_json(*[str(tmp_path / f"{a}.json") if a in EXIT_TWO_INPUTS else a
                              for a in argv])
    assert code == 2
    assert needle in report["error"]


@pytest.mark.parametrize("command", ["dual", "double-dual"])
@pytest.mark.parametrize("fixture", ["FIX_PT", "FIX_A3"])
@pytest.mark.parametrize("bound", [0, -1])
def test_length_bound_below_one_exits_two(command, fixture, bound):
    # the injective search takes its budget from the degrees and has no
    # option to bound it, so every --length-bound, the old default 6 too,
    # is a usage error
    for value in (bound, 6):
        proc = run_main(command, fixture, "--length-bound", str(value))
        assert proc.returncode == 2
        assert "usage:" in proc.stderr


# End(a) = <1@a, n> with n o n = 0, and the complex a --(1 + n)--> a
END_N_DATA = {
    "characteristic": 0,
    "indecomposables": [{"id": "a", "degree": 0}],
    "hom": [{"src": "a", "tgt": "a", "basis": ["1@a", "n"]}],
    "compose": [{"left": "n", "right": "n", "result": []}],
}
ONE_PLUS_N = {"terms": {"-1": ["a"], "0": ["a"]},
              "diff": {"-1": [{"label": "1@a", "coeff": "1"}, {"label": "n", "coeff": "1"}]}}


@pytest.mark.parametrize("command", ["minimize", "truncate"])
def test_non_scalar_end_exits_two(tmp_path, command):
    # minimize refuses the non-scalar End itself (exit 2); truncate is gated
    # on validation, which reports it as a finding (exit 1)
    pres = tmp_path / "p.json"
    pres.write_text(json.dumps(END_N_DATA), encoding="utf-8")
    cx = tmp_path / "cx.json"
    cx.write_text(json.dumps(ONE_PLUS_N), encoding="utf-8")
    code, report = run_json(command, str(pres), str(cx))
    if command == "minimize":
        assert code == 2
        assert "End(a) has dimension 2" in report["error"]
    else:
        assert code == 1
        assert report["payload"] == {"gate": {"ok": False, "findings": [
            {"kind": "end_not_scalar", "witness": ["a"],
             "detail": "End(a) has dimension 2, expected 1"}]}, "ok": False}


def test_zero_denominator_in_complex_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "terms": {"-1": ["b"], "0": ["a"]},
        "diff": {"-1": [{"row": 0, "col": 0, "label": "alpha", "coeff": "1/0"}]},
    }), encoding="utf-8")
    code, report = run_json("truncate", "FIX_A2", str(bad))
    assert code == 2
    assert "zero denominator" in report["error"]


def test_truncate_command(tmp_path):
    cx = tmp_path / "cx.json"
    cx.write_text(json.dumps({
        "terms": {"-1": ["b"], "0": ["a"]},
        "diff": {"-1": [{"row": 0, "col": 0, "label": "alpha", "coeff": "1"}]},
    }), encoding="utf-8")
    code, report = run_json("truncate", "FIX_A2", str(cx))
    assert code == 0
    payload = report["payload"]
    assert payload["triangle_certified"]
    assert payload["lower_in_lower_aisle"] and payload["upper_shift_in_upper_aisle"]


# a and c in degree 0, b in degree 1 over FIX_A3 (degrees 0, 2, 1): the
# points i + deg s are 0, 2 and 2, so H^0 = a and H^2 = c + b[-1], shifted
A_C_B = {"terms": {"0": ["a", "c"], "1": ["b"]}}


def test_truncate_reports_t_cohomology_and_certified_steps(tmp_path):
    cx = tmp_path / "cx.json"
    cx.write_text(json.dumps(A_C_B), encoding="utf-8")
    code, report = run_json("truncate", "FIX_A3", str(cx))
    assert code == 0
    payload = report["payload"]
    assert payload["t_cohomology"] == {"0": {"terms": {"0": ["a"]}, "diff": {}},
                                       "2": {"terms": {"-2": ["c"], "-1": ["b"]}, "diff": {}}}
    assert payload["steps_certified"] == 2 and payload["step_issues"] == []
    assert payload["k0_ok"] is True


@pytest.mark.parametrize("doc", [A_C_B, {"terms": {"0": ["b"], "1": ["b"]}, "diff": {
    "0": [{"row": 0, "col": 0, "label": "1@b", "coeff": "1"}]}}], ids=["a-c-b", "contractible"])
def test_truncate_minimizes_its_input_once(doc, monkeypatch):
    """``truncate_report`` runs ``minimal_model`` on x once: the t-cohomology
    filters the model ``truncate`` split, and the aisle flags are read off
    supports, with no minimal model."""
    from koszulkit import tstructure
    from koszulkit.fixtures import load_fixture

    calls, real = [], tstructure.minimal_model

    def counting(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(tstructure, "minimal_model", counting)
    x = cli.decode_complex(load_fixture("FIX_A3"), doc)
    _, ok = cli.truncate_report(x)
    assert ok
    assert len(calls) == 1 and calls[0] is x


def test_truncate_exits_one_on_a_strip_with_a_summand_dropped(tmp_path, monkeypatch):
    """The K_0 check reads x's own terms, so a t-cohomology object that lost
    a summand fails it, while every step still verifies."""
    from koszulkit import tstructure
    from koszulkit.complexes import Complex

    real = tstructure.filtration

    def dropped(m, level):
        strips, steps = real(m, level)
        z = strips[2]
        assert not z.diffs
        terms = {**z.terms, 0: z.terms[0].select(())}
        return {**strips, 2: Complex(z.pres, terms, {})}, steps

    monkeypatch.setattr(tstructure, "filtration", dropped)
    cx = tmp_path / "cx.json"
    cx.write_text(json.dumps(A_C_B), encoding="utf-8")
    code, report = run_json("truncate", "FIX_A3", str(cx))
    assert code == 1
    payload = report["payload"]
    assert payload["k0_ok"] is False
    assert payload["t_cohomology"]["2"] == {"terms": {"-1": ["b"]}, "diff": {}}
    assert payload["steps_certified"] == 2 and payload["triangle_certified"]


def test_truncate_exits_one_when_a_block_crosses_a_cut(tmp_path, monkeypatch):
    """b in degrees 0 and 1 sits at the points 1 and 2.  A stand-in minimal
    model joins them by the identity of b, a unit block across the cut at 2,
    so that step cannot split: it raises, and the report says so, exit 1."""
    from koszulkit import tstructure
    from koszulkit.complexes import ChainIso, ChainMap, Complex
    from koszulkit.orlov import AddMorphism

    real = tstructure.minimal_model

    def crossing(x):
        m, iso = real(x)
        if x.terms.keys() != {0, 1}:
            return m, iso
        planted = Complex(m.pres, m.terms, {0: AddMorphism.identity(m.pres, m.term(0))})
        ident = ChainMap.identity(planted)
        return planted, ChainIso(ident, ident)

    monkeypatch.setattr(tstructure, "minimal_model", crossing)
    cx = tmp_path / "cx.json"
    cx.write_text(json.dumps({"terms": {"0": ["b"], "1": ["b"]}}), encoding="utf-8")
    code, report = run_json("truncate", "FIX_A3", str(cx))
    assert code == 1
    payload = report["payload"]
    assert payload["step_issues"] == ["differential maps the subcomplex outside itself at 0"]
    assert payload["steps_certified"] == 0
    assert payload["triangle_certified"] and payload["k0_ok"]


B_ALPHA_A = {"terms": {"-1": ["b"], "0": ["a"]},
             "diff": {"-1": [{"row": 0, "col": 0, "label": "alpha", "coeff": "1"}]}}


def test_weights_command(tmp_path):
    cx = tmp_path / "cx.json"
    cx.write_text(json.dumps(B_ALPHA_A), encoding="utf-8")
    code, report = run_json("weights", "FIX_A2", str(cx))
    assert code == 0
    assert report["payload"]["weights"] == {"0": ["a"], "1": ["b"]}
    assert report["payload"]["composition_factors"] == {"a": 1, "b": 1}
    assert report["payload"]["steps_certified"] == 2 and report["payload"]["step_issues"] == []
    assert report["payload"]["pure_semisimple"] is True


def test_weights_of_the_zero_heart_object(tmp_path):
    cx = tmp_path / "cx.json"
    cx.write_text(json.dumps({"terms": {}}), encoding="utf-8")
    code, report = run_json("weights", "FIX_A3", str(cx))
    assert code == 0
    payload = report["payload"]
    assert (payload["weights"], payload["steps_certified"], payload["step_issues"]) == ({}, 0, [])
    assert payload["pure_semisimple"] is True


@pytest.mark.parametrize("level,certified,issues,pure", [
    # weights 0 and 1 on one level: one strip, the whole extension, neither pure nor semisimple
    (lambda i, s: min(-i, 0), 1, [], False),
    # the level i puts b below a, and d leaves the lower part: the step raises
    (lambda i, s: i, 0, ["differential maps the subcomplex outside itself at -1"], True),
], ids=["two-weights-in-one-strip", "step-raises"])
def test_weights_exits_one_on_a_planted_level(tmp_path, monkeypatch, level, certified, issues,
                                              pure):
    from koszulkit import tstructure

    monkeypatch.setattr(tstructure, "weight", level)
    cx = tmp_path / "cx.json"
    cx.write_text(json.dumps(B_ALPHA_A), encoding="utf-8")
    code, report = run_json("weights", "FIX_A2", str(cx))
    assert code == 1
    payload = report["payload"]
    assert (payload["steps_certified"], payload["step_issues"]) == (certified, issues)
    assert payload["pure_semisimple"] is pure


def test_weights_exits_one_on_a_step_with_a_doubled_projection_component(tmp_path, monkeypatch):
    """The first step's projection W_{<= 1} -> gr_1 with its component
    doubled no longer verifies; the second step still does."""
    from koszulkit import tstructure
    from koszulkit.complexes import ChainMap, Triangle

    real = tstructure.filtration

    def doubled_projection(m, level):
        strips, steps = real(m, level)
        s = steps[0]
        (i, comp), = s.g.comps.items()
        g = ChainMap(s.g.source, s.g.target, {i: comp.scale(2)})
        return strips, [Triangle(s.X, s.Y, s.Z, s.f, g, s.h, s.witness), *steps[1:]]

    monkeypatch.setattr(tstructure, "filtration", doubled_projection)
    cx = tmp_path / "cx.json"
    cx.write_text(json.dumps(B_ALPHA_A), encoding="utf-8")
    code, report = run_json("weights", "FIX_A2", str(cx))
    assert code == 1
    payload = report["payload"]
    assert payload["steps_certified"] == 1 and payload["pure_semisimple"] is True
    assert payload["step_issues"] == ["step 1: transport witness: square 1 not exact"]


def test_cone_and_minimize_commands(tmp_path):
    mapfile = tmp_path / "m.json"
    mapfile.write_text(json.dumps({
        "source": {"terms": {"0": ["b"]}, "diff": {}},
        "target": {"terms": {"0": ["a"]}, "diff": {}},
        "components": {"0": [{"row": 0, "col": 0, "label": "alpha", "coeff": "1"}]},
    }), encoding="utf-8")
    code, report = run_json("cone", "FIX_A2", str(mapfile))
    assert code == 0
    assert report["payload"]["support"] == [[-1, 1], [0, 0]]
    cx = tmp_path / "c.json"
    cx.write_text(json.dumps(report["payload"]["cone"]), encoding="utf-8")
    code, report = run_json("minimize", "FIX_A2", str(cx))
    assert code == 0
    assert report["payload"]["minimal"] == json.loads(cx.read_text())


def test_heart_command():
    code, report = run_json("heart", "FIX_A3")
    assert code == 0
    assert report["payload"]["simples"] == [
        {"id": "a", "weight": 0, "placed_in_degree": 0},
        {"id": "b", "weight": 1, "placed_in_degree": -1},
        {"id": "c", "weight": 2, "placed_in_degree": -2},
    ]


def test_determinism_two_runs_identical_bytes():
    # two processes, so two string-hash seeds
    p1 = run_cli("mixed-check", "FIX_A3", "--window", "-5..5")
    p2 = run_cli("mixed-check", "FIX_A3", "--window", "-5..5")
    assert p1.stdout == p2.stdout and p1.returncode == 0


def test_infext_les_command(tmp_path):
    mapfile = tmp_path / "m.json"
    one_term = {"terms": {"0": ["a"]}, "diff": {}}
    src = {"terms": {"0": ["b"]}, "diff": {}}
    mapfile.write_text(json.dumps({
        "f0": {"source": src, "target": one_term,
               "components": {"0": [{"row": 0, "col": 0, "label": "alpha", "coeff": "1"}]}},
    }), encoding="utf-8")
    test_obj = tmp_path / "a.json"
    test_obj.write_text(json.dumps(one_term), encoding="utf-8")
    code, report = run_json("infext", "les", "FIX_A2", str(mapfile), str(test_obj))
    assert code == 0 and report["payload"]["ok"]


def test_infext_compose_and_invert_commands(tmp_path):
    mapfile = tmp_path / "m.json"
    one_term = {"terms": {"0": ["a"]}, "diff": {}}
    mapfile.write_text(json.dumps({
        "f0": {"source": one_term, "target": one_term,
               "components": {"0": [{"row": 0, "col": 0, "label": "1@a", "coeff": "1"}]}},
    }), encoding="utf-8")
    code, report = run_json("infext", "compose", "FIX_A2", str(mapfile), str(mapfile))
    assert code == 0 and not report["payload"]["infinitesimal"]
    code, report = run_json("infext", "invert", "FIX_A2", str(mapfile))
    assert code == 0 and report["payload"]["invertible"]


ONE_A = {"terms": {"0": ["a"]}, "diff": {}}
ALPHA_MAP = {"f0": {"source": {"terms": {"0": ["b"]}, "diff": {}}, "target": ONE_A,
                    "components": {"0": [{"row": 0, "col": 0, "label": "alpha", "coeff": "1"}]}}}
ID_MAP = {"f0": {"source": ONE_A, "target": ONE_A,
                 "components": {"0": [{"row": 0, "col": 0, "label": "1@a", "coeff": "1"}]}}}


def test_infext_les_builds_each_covariant_hom_space_once(tmp_path, monkeypatch):
    """On the alpha map and a in degree 0, the window -3..3 has 21 covariant
    nodes, each of two Hom spaces, and 21 contravariant ones.  A covariant
    node's infinitesimal part is the genuine part of the node before it, so
    the covariant spaces are 7 + 1 per vertex of the triangle, 24, and
    with the 42 contravariant ones that is 66 builds."""
    from koszulkit.complexes import HomSpace

    builds, init = [], HomSpace.__init__

    def counting(self, *args):
        builds.append(args)
        init(self, *args)

    files = []
    for k, doc in enumerate((ALPHA_MAP, ONE_A)):
        files.append(tmp_path / f"{k}.json")
        files[-1].write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.setattr(HomSpace, "__init__", counting)
    code, report = run_json("infext", "les", "FIX_A2", *map(str, files))
    assert code == 0 and report["payload"]["ok"] and report["payload"]["nodes"] == 42
    assert len(builds) == 66


@pytest.mark.parametrize("sub,docs,a2_payload", [
    ("compose", [ID_MAP, ID_MAP], {"f0_zero": False, "finf_zero": True, "infinitesimal": False}),
    ("invert", [ID_MAP], {"invertible": True}),
    ("les", [ALPHA_MAP, ONE_A], {"failures": [], "nodes": 42, "ok": True, "window": [-3, 3]}),
])
def test_infext_gates_on_validation(tmp_path, sub, docs, a2_payload):
    # FIX_BAD shares FIX_A2's ids and alpha, so every file decodes over it
    files = []
    for k, doc in enumerate(docs):
        files.append(tmp_path / f"{k}.json")
        files[-1].write_text(json.dumps(doc), encoding="utf-8")
    code, report = run_json("infext", sub, "FIX_BAD", *map(str, files))
    assert code == 1
    assert report["payload"] == {"gate": run_json("validate", "FIX_BAD")[1]["payload"], "ok": False}
    code, report = run_json("infext", sub, "FIX_A2", *map(str, files))
    assert code == 0 and report["payload"] == a2_payload


def test_infext_square_exits_one_on_a_wrong_completion(tmp_path, monkeypatch):
    from koszulkit import infext

    id_b = {"f0": {"source": {"terms": {"0": ["b"]}, "diff": {}}, "target": {"terms": {"0": ["b"]}, "diff": {}},
                   "components": {"0": [{"row": 0, "col": 0, "label": "1@b", "coeff": "1"}]}}}
    files = []
    for name, doc in (("f", ALPHA_MAP), ("i2", ALPHA_MAP), ("p", id_b), ("q", ID_MAP)):
        files.append(tmp_path / f"{name}.json")
        files[-1].write_text(json.dumps(doc), encoding="utf-8")
    code, report = run_json("infext", "square", "FIX_A2", *map(str, files))
    assert code == 0 and report["payload"] == {"squares_ok": True, "r_invertible": True}

    # the cone of alpha is not contractible, so twice the completion, still
    # invertible, fails its squares
    complete_square = infext.complete_square

    def doubled(*args):
        r, h = complete_square(*args)
        return r.scale(2), h

    monkeypatch.setattr(infext, "complete_square", doubled)
    code, report = run_json("infext", "square", "FIX_A2", *map(str, files))
    assert code == 1 and report["payload"] == {"squares_ok": False, "r_invertible": True}


def test_filtered_demo_command():
    code, report = run_json("filtered-demo", "FIX_A2", "--seed", "3")
    assert code == 0 and report["payload"]["ok"]


def test_dual_command_roundtrip_double_dual():
    for cmd in ("roundtrip", "double-dual"):
        code, report = run_json(cmd, "FIX_A2", "--window", "-5..5")
        assert code == 0 and report["payload"]["ok"]
    code, report = run_json("dual", "FIX_A2", "--window", "-5..5")
    assert code == 0
    ids = [e["id"] for e in report["payload"]["presentation"]["indecomposables"]]
    assert ids == ["J_a", "J_b"]


@pytest.mark.parametrize("command", ["dual", "double-dual"])
@pytest.mark.parametrize("window", ["-1..1", "1..1"])
def test_dual_gate_ignores_the_window(command, window):
    # FIX_ZC's failing cell Ext^2(c, a) lies outside both windows
    code, report = run_json(command, "FIX_ZC", "--window", window)
    assert code == 2
    assert report == {"error": "degree-one-generation surrogate failed; dual not computed"}


def test_golden_regen_compare_and_drift(tmp_path):
    golden = tmp_path / "g.json"
    code, report = run_json("hom", "FIX_A2", "--from", "b", "--to", "a",
                            "--golden", str(golden), "--regen-golden",
                            "--golden-oracle", "tests/oracle_hom.py brute force")
    assert code == 0
    stored = json.loads(golden.read_text())
    assert stored["derived_by"] == "tests/oracle_hom.py brute force"
    # identical run matches
    code, report = run_json("hom", "FIX_A2", "--from", "b", "--to", "a",
                            "--golden", str(golden))
    assert code == 0 and report["golden"]["match"]
    # drifted run reports the first differing path and exits 1
    code, report = run_json("hom", "FIX_A2", "--from", "b", "--to", "a",
                            "--shift", "1", "--golden", str(golden))
    assert code == 1
    assert not report["golden"]["match"]
    assert "dim" in report["golden"]["first_difference"] or \
        "payload" in report["golden"]["first_difference"]


@pytest.mark.parametrize("regen", [False, True], ids=["read", "regen"])
def test_unusable_golden_file_exits_two(tmp_path, regen):
    # reading a missing file, or writing below a path that is a plain file
    (tmp_path / "plain").write_text("", encoding="utf-8")
    golden = tmp_path / "plain" / "g.json" if regen else tmp_path / "missing.json"
    code, report = run_json("heart", "FIX_A2", "--golden", str(golden),
                            *(["--regen-golden"] if regen else []))
    assert code == 2
    assert f"cannot {'write' if regen else 'read'} golden file" in report["error"]


@pytest.mark.parametrize("argv", [
    ["--golden", "g.json", "mixed-check", "FIX_A2"],
    ["--window", "-5..5", "mixed-check", "FIX_A2"],
    ["--seed", "3", "filtered-demo", "FIX_A2"],
], ids=["golden", "window", "seed"])
def test_shared_flag_before_subcommand_exits_two(argv):
    # shared flags belong to the subcommand; before it they were silently dropped
    proc = run_main(*argv)
    assert proc.returncode == 2
    assert "usage:" in proc.stderr


def test_entry_point_refuses_bad_input(tmp_path):
    # the process exit code, not only the value cli.main returns
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**A2_DATA, "indecomposables": True}), encoding="utf-8")
    code, report = run_json("validate", str(path), run=run_cli)
    assert code == 2 and report["error"]
    proc = run_cli("--window", "-5..5", "mixed-check", "FIX_A2")
    assert proc.returncode == 2
    assert "usage:" in proc.stderr


@pytest.mark.parametrize("command", ["mixed-check", "koszul-check", "surrogate", "roundtrip",
                                     "filtered-demo", "truncate", "heart", "weights"])
def test_report_commands_gate_on_validation(tmp_path, command):
    # FIX_BAD has Hom(a, b) != 0 with deg a < deg b; the complex a in degree
    # 0 is a heart object, so without the gate truncate and weights pass on it
    cx = tmp_path / "a.json"
    cx.write_text(json.dumps({"terms": {"0": ["a"]}}), encoding="utf-8")
    argv = [command, "FIX_BAD"] + ([str(cx)] if command in ("truncate", "weights") else [])
    code, report = run_json(*argv)
    assert code == 1
    assert report["payload"] == {"gate": run_json("validate", "FIX_BAD")[1]["payload"], "ok": False}


def test_internal_error_exits_three(monkeypatch, capsys):
    def broken(path):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "load_presentation", broken)
    assert cli.main(["heart", "FIX_A2"]) == 3
    assert json.loads(capsys.readouterr().out) == {"error": "internal error: RuntimeError: boom"}



def test_deeply_nested_json_exits_two(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 2
    assert "cannot read presentation" in json.loads(capsys.readouterr().out)["error"]


# ----------------------------------------------------------------- fuzzing

FUZZ_INPUTS = {
    "PRES": json.loads(fixture_text("FIX_A3")),
    "CX": {**B_TO_A, "diff": {"-1": [{"row": 0, "col": 0, "label": "alpha", "coeff": "1"}]}},
    "MAP": MAP_A2,
    "INF": {"f0": MAP_A2, "finf": {"components": {}}},
}
ID_A = {"f0": {"source": {"terms": {"0": ["a"]}}, "target": {"terms": {"0": ["a"]}},
               "components": {"0": [{"row": 0, "col": 0, "label": "1@a", "coeff": "1"}]}}}
FUZZ_COMMANDS = [["validate", "PRES"], ["minimize", "PRES", "CX"], ["truncate", "PRES", "CX"],
                 ["weights", "PRES", "CX"], ["cone", "PRES", "MAP"],
                 ["infext", "compose", "PRES", "ID", "INF"]]
MUTATIONS = [("set", v) for v in (True, 2.5, 7, "x", [], {})] + [("delete", None), ("wrap", None)]


def _paths(doc, path=()):
    """Every position in a JSON document, the root () included."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _paths(value, path + (key,))


def _mutated(doc, path, how, value):
    """A copy of doc with the value at ``path`` set to value, deleted, or wrapped in a list."""
    if not path:
        return {} if how == "delete" else [doc] if how == "wrap" else value
    doc = copy.deepcopy(doc)
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    if how == "delete":
        del parent[last]
    else:
        parent[last] = [parent[last]] if how == "wrap" else value
    return doc


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_mutated_inputs_get_a_defined_outcome(data):
    # FIX_A3, a two-term complex, a chain map and an infinitesimal morphism,
    # one of them mutated once or twice, through in-process cli.main
    argv = data.draw(st.sampled_from(FUZZ_COMMANDS))
    name = data.draw(st.sampled_from([a for a in argv if a in FUZZ_INPUTS]))
    doc = FUZZ_INPUTS[name]
    for _ in range(data.draw(st.integers(1, 2))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        doc = _mutated(doc, path, *data.draw(st.sampled_from(MUTATIONS)))
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for key, value in {**FUZZ_INPUTS, "ID": ID_A, name: doc}.items():
            files[key] = os.path.join(tmp, f"{key}.json")
            with open(files[key], "w", encoding="utf-8") as fh:
                json.dump(value, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([files.get(a, a) for a in argv])
    assert code in (0, 1, 2), out.getvalue()
    assert isinstance(json.loads(out.getvalue()), dict)


def test_committed_goldens_match():
    if not GOLDEN_DIR.exists():
        pytest.skip("no goldens committed")
    manifest = json.loads((GOLDEN_DIR / "manifest.json").read_text())
    for entry in manifest:
        proc = run_main(*entry["argv"], "--golden", str(GOLDEN_DIR / entry["file"]))
        assert proc.returncode == entry.get("expect_code", 0), proc.stdout
        report = json.loads(proc.stdout)
        assert report["golden"]["match"], (entry, report["golden"])


def test_pretty_mode_renders_text():
    proc = run_main("heart", "FIX_A2", "--pretty")
    assert proc.returncode == 0
    assert "simples" in proc.stdout
    assert not proc.stdout.lstrip().startswith("{")


@pytest.mark.parametrize("argv,cells,code", [
    (["surrogate", "FIX_A3", "--window", "3..8"], 0, 0),
    (["surrogate", "FIX_ZC", "--window", "3..5"], 0, 0),
    (["surrogate", "FIX_ZC", "--window", "2..5"], 1, 1),
], ids=["a3-above-ext2", "zc-above-ext2", "zc-from-ext2"])
def test_surrogate_checks_only_cells_inside_its_window(argv, cells, code):
    # the one Ext^2 cell of FIX_A3 and FIX_ZC is (c, a, 2)
    got, report = run_json(*argv)
    assert got == code
    assert report["payload"]["cells_checked"] == cells


@pytest.mark.parametrize("window", ["5..6", "-9..-5"])
def test_infext_les_refuses_a_window_outside_its_range(tmp_path, window):
    # les clamps the window to -3..3, which leaves these two empty
    files = []
    for name, doc in (("ID", ID_A), ("CX", FUZZ_INPUTS["CX"])):
        files.append(tmp_path / f"{name}.json")
        files[-1].write_text(json.dumps(doc), encoding="utf-8")
    code, report = run_json("infext", "les", "FIX_A2", *map(str, files), "--window", window)
    assert code == 2 and "empty window" in report["error"]


# ----------------------------------------------------------- fresh processes

# each subcommand once, in a process that has loaded nothing, with the exit
# code it documents; a name in FILES stands for a file holding its document
FILES = {**FUZZ_INPUTS, "ID": ID_A}
FRESH_COMMANDS = [
    (["validate", "FIX_PT"], 0),
    (["hom", "FIX_A2", "--from", "b", "--to", "a"], 0),
    (["cone", "FIX_A2", "MAP"], 0),
    (["minimize", "FIX_A2", "CX"], 0),
    (["truncate", "FIX_A2", "CX"], 0),
    (["heart", "FIX_A3"], 0),
    (["weights", "FIX_A2", "CX"], 0),
    (["mixed-check", "FIX_A2"], 0),
    (["koszul-check", "FIX_A3"], 0),
    (["surrogate", "FIX_ZC"], 1),
    (["dual", "FIX_A2", "--window", "-5..5"], 0),
    (["roundtrip", "FIX_A2", "--window", "-5..5"], 0),
    (["double-dual", "FIX_A2", "--window", "-5..5"], 0),
    (["infext", "square", "FIX_A2", "ID", "ID", "ID", "ID"], 0),
    (["filtered-demo", "FIX_A2", "--seed", "3"], 0),
    (["selftest", "--window", "-3..3"], 0),
]


def test_fresh_commands_cover_every_subcommand():
    parser = cli.build_parser()
    sub, = (a for a in parser._actions if a.dest == "command")
    assert [argv[0] for argv, _ in FRESH_COMMANDS] == list(sub.choices)


@pytest.mark.parametrize("argv,code", FRESH_COMMANDS, ids=[a[0] for a, _ in FRESH_COMMANDS])
def test_every_subcommand_runs_in_a_fresh_process(tmp_path, argv, code):
    for name, doc in FILES.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    proc = run_cli(*[str(tmp_path / f"{a}.json") if a in FILES else a for a in argv])
    assert proc.returncode == code, proc.stdout + proc.stderr
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["command"] == argv[0]


IMPORT_PROBE = """
import sys
bare = set(sys.modules)
import contextlib, io, json
from koszulkit import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps({"code": code,
                  "koszulkit": sorted(m for m in sys.modules if m.split(".")[0] == "koszulkit"),
                  "loaded": sorted(m for m in ("dataclasses", "importlib.resources")
                                   if m in sys.modules and m not in bare)}))
"""
CORE = ["koszulkit", "koszulkit.cli", "koszulkit.fixtures", "koszulkit.linalg", "koszulkit.orlov"]


@pytest.mark.parametrize("argv,engine", [
    (["validate", "FIX_PT"], CORE),
    (["hom", "FIX_A2", "--from", "b", "--to", "a"], sorted(CORE + ["koszulkit.complexes"])),
    (["surrogate", "FIX_A3"], sorted(CORE + ["koszulkit.complexes", "koszulkit.koszul",
                                             "koszulkit.tstructure"])),
    # no Koszulity gate: dual and double-dual draw no random sample
    (["dual", "FIX_A2"], sorted(CORE + ["koszulkit.complexes", "koszulkit.koszul",
                                        "koszulkit.tstructure"])),
    (["double-dual", "FIX_A3"], sorted(CORE + ["koszulkit.complexes", "koszulkit.koszul",
                                               "koszulkit.tstructure"])),
], ids=["validate", "hom", "surrogate", "dual", "double-dual"])
def test_a_command_loads_only_the_layers_it_runs(argv, engine):
    # validate runs no dataclass: orlov, fixtures and linalg define none;
    # the fixtures are files next to the package, read without importlib.resources
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["code"] == 0
    assert seen["koszulkit"] == engine
    assert "importlib.resources" not in seen["loaded"]
    if engine == CORE:
        assert "dataclasses" not in seen["loaded"]
