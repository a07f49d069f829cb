"""Tests of the benchmark's own code: span arithmetic, generated inputs and
the reference comparisons."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

from koszulkit.fixtures import fixture_text  # noqa: E402
from koszulkit.orlov import OrlovPresentation, validate_presentation  # noqa: E402

import workloads as wls  # noqa: E402
from spans import Recorder, self_times, wrapper  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


def test_self_time_subtracts_the_children():
    # 0: [0, 10] with children 1: [1, 3], 2: [4, 5] and 3: [8, 9.5];
    # 4: [1.5, 2.5] is a child of 1, so it counts against 1 only.
    start = [0.0, 1.0, 4.0, 8.0, 1.5]
    end = [10.0, 3.0, 5.0, 9.5, 2.5]
    parent = [-1, 0, 0, 0, 1]
    assert self_times(start, end, parent) == pytest.approx([5.5, 1.0, 1.0, 1.5, 1.0])


def test_wrapper_records_nested_spans_and_counters(tmp_path):
    rec = Recorder()

    class Engine:
        def outer(self, n):
            return sum(self.inner(i) for i in range(n))

        def inner(self, i):
            return i

    Engine.inner = wrapper(rec, Engine.inner, "inner", lambda r, args, result: r.add("seen", result))
    Engine.outer = wrapper(rec, Engine.outer, "outer")
    assert Engine().outer(4) == 6
    assert list(rec.parent) == [-1, 0, 0, 0, 0]
    spans = rec.by_name()
    assert spans["inner"][0] == 4 and spans["outer"][0] == 1
    assert rec.counters["seen"] == 6
    total_outer = rec.end[0] - rec.start[0]
    inner_sum = sum(rec.end[i] - rec.start[i] for i in range(1, 5))
    assert spans["outer"][1] == pytest.approx(total_outer - inner_sum)
    rec.write(tmp_path / "spans.bin")
    back = Recorder.read(tmp_path / "spans.bin")
    assert back.by_name() == spans and back.counters == rec.counters


@pytest.mark.parametrize("n", [2, 3, 5, 8])
@pytest.mark.parametrize("killed", [False, True])
def test_generated_path_categories_are_valid(n, killed):
    import random

    data = wls.path_category(n, killed, characteristic=wls.PRIME if n == 8 else 0,
                             offset=1, rng=random.Random(n))
    assert validate_presentation(data).ok
    pres = wls.checked_presentation(data, f"A{n}")
    assert all(pres.hom_dim(f"v{j}", f"v{i}") == 1 for j in range(n) for i in range(j))


def test_killed_a3_is_fix_zc_and_a_lone_killed_composite_is_refused():
    ids = {"a": "v0", "b": "v1", "c": "v2"}
    labels = {"alpha": "h1_0", "beta": "h2_1", "gamma": "h2_0", **{f"1@{k}": f"1@{v}" for k, v in ids.items()}}
    zc = json.loads(fixture_text("FIX_ZC"))
    renamed = {
        "characteristic": zc["characteristic"],
        "indecomposables": [{"id": ids[e["id"]], "degree": e["degree"]} for e in zc["indecomposables"]],
        "hom": [{"src": ids[e["src"]], "tgt": ids[e["tgt"]], "basis": [labels[b] for b in e["basis"]]}
                for e in zc["hom"]],
        "compose": [{"left": labels[e["left"]], "right": labels[e["right"]],
                     "result": [{"label": labels[r["label"]], "coeff": r["coeff"]} for r in e["result"]]}
                    for e in zc["compose"]],
    }
    a3 = wls.checked_presentation(wls.path_category(3, killed=True), "A3")
    assert OrlovPresentation.from_data(renamed).to_data() == a3.to_data()
    data = wls.path_category(4)
    for entry in data["compose"]:
        if (entry["left"], entry["right"]) == ("h1_0", "h2_1"):
            entry["result"] = []       # breaks associativity against h3_2
    with pytest.raises(wls.BenchInputError):
        wls.checked_presentation(data, "A4 with one killed composite")


def test_cli_reference_digest_flags_a_perturbed_report(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / wls.WORK_DIR).mkdir()
    wl = wls.KoszulCli(0, tmp_path, REFERENCE)
    path, sha = wl.write_presentation(3, True, 1)
    want = REFERENCE["koszul_cli"][wl.key("surrogate", 3, True, 1)]
    check = wls._generated_checker(want, sha)
    code, text = wls.run_cli(["surrogate", path])
    assert code == 1 and check((code, text))
    report = json.loads(text)
    report["payload"]["failures"][0]["spanned"] += 1
    assert not check((code, json.dumps(report)))
    assert not check((0, text))


def test_dimension_digest_flags_a_perturbed_result():
    tri = wls.TrianglesFp(0, ROOT, REFERENCE)
    tri._build()
    x = tri.make_input("truncate", 7)
    ok, dims = tri.run_kind("truncate", x, 7)
    check = wls._kind_checker(REFERENCE["triangles_fp"]["truncate"][7])
    assert ok and check((ok, dims))
    lower, upper = dims
    assert not check((ok, (upper, lower)))
    assert not check((False, dims))


def test_hom_check_flags_a_wrong_dimension():
    hq = wls.HomQ(0, ROOT, REFERENCE)
    hq.AMPLITUDE, hq.SUMMAND_BAND = 2, (3, 4)    # small complexes keep the oracle fast
    hq._build()
    x, y = hq.complexes(0)[:2]
    run, check = wls._hom_runner(x, y, 0), wls._hom_checker(x, y, 0)
    dim, coords = run()
    assert check((dim, coords))
    assert not check((dim + 1, coords + [1]))
    if dim:
        assert not check((dim, [2] + coords[1:]))


def test_calibration_work_is_fixed_and_timed():
    import calibrate

    assert calibrate._rref_q(calibrate._ROWS) == calibrate._rref_p(calibrate._ROWS) == 6
    wall, cpu = calibrate.quantum()
    assert wall > 0 and cpu >= 0


def test_run_pass_scales_latencies_to_the_reference_speed():
    import run

    tasks = [wls.Task(lambda i=i: i * i, lambda r: True) for i in range(5)]
    wall, cpu, latencies, results = run.run_pass(tasks)
    assert results == [0, 1, 4, 9, 16] and len(latencies) == 5
    assert wall == pytest.approx(sum(latencies)) and wall > 0 and cpu >= 0
