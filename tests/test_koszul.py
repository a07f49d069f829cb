import json
from collections import Counter
from itertools import product

import pytest

from koszulkit.complexes import (
    ChainMap,
    Complex,
    HomClass,
    HomSpace,
    cone,
    direct_sum,
    hom_space,
    minimal_model,
    supports_meet,
)
from koszulkit import koszul
from koszulkit.fixtures import FIXTURE_NAMES, VALID_FIXTURES, fixture_text, load_fixture
from koszulkit.koszul import (
    KoszulError,
    double_dual_check,
    ext_table,
    ext1_matrix,
    injective_detect,
    koszul_dual,
    koszulescence_surrogate,
    koszulity_check,
    q_functor,
    q_ses_triangle,
    roundtrip_check,
)
from koszulkit.linalg import Matrix
from koszulkit.orlov import AddMorphism, OrlovPresentation, obj, spans, validate_presentation
from koszulkit.tstructure import (
    heart_object,
    mixed_vanishing_report,
    simple_ext_cells,
    simple_object,
)
from koszulkit.randgen import rand_heart_complex, rng_for
from oracle_duality import double_dual_iso, orl_of_kos, roundtrip_mismatches
from oracle_ext import kb_ext_spaces, kb_yoneda
from presentations import PATH_NAMES, QUIVER_NAMES, layered_quiver, path_category, presentation


@pytest.fixture(scope="module")
def pt():
    return load_fixture("FIX_PT")


@pytest.fixture(scope="module")
def a2():
    return load_fixture("FIX_A2")


@pytest.fixture(scope="module")
def a3():
    return load_fixture("FIX_A3")


@pytest.fixture(scope="module")
def zc():
    return load_fixture("FIX_ZC")


def cone_alpha(pres):
    x = Complex.single(pres, obj("b"), 0)
    y = Complex.single(pres, obj("a"), 0)
    m = AddMorphism.single(pres, obj("b"), obj("a"), 0, 0, (1,))
    z, _, _ = cone(ChainMap(x, y, {0: m}))
    return z


WINDOW = (-5, 5)


def nonzero_cells(table):
    """(s, t, i) -> dim of the nonzero cells of an Ext table inside its window."""
    return {cell: d for cell in simple_ext_cells(table.pres, table.window)
            if (d := table.dim(*cell))}


def ext_basis(table, s, t, i):
    """One chain map S_s -> S_t[i] per label of Hom(s, t), in label order:
    the basis in which ``table.yoneda`` gives its coordinates."""
    if (s, t, i) not in table.cells:
        return []
    pres = table.pres
    x = simple_object(pres, s).normal_form
    y = simple_object(pres, t).normal_form.shift(i)
    (slot, src), = x.terms.items()
    return [ChainMap(x, y, {slot: AddMorphism.single(pres, src, y.term(slot), 0, 0,
                                                     pres.coords(lab))}, check=False)
            for lab in pres.hom_labels(s, t)]


# -------------------------------------------------------------- ext tables

def test_ext_table_pt(pt):
    t = ext_table(pt, WINDOW)
    assert nonzero_cells(t) == {("s", "s", 0): 1}


def test_ext_table_a2(a2):
    t = ext_table(a2, WINDOW)
    assert nonzero_cells(t) == {("a", "a", 0): 1, ("b", "b", 0): 1, ("b", "a", 1): 1}


def test_ext_table_a3_with_yoneda(a3):
    t = ext_table(a3, WINDOW)
    cells = nonzero_cells(t)
    assert cells[("c", "b", 1)] == 1
    assert cells[("b", "a", 1)] == 1
    assert cells[("c", "a", 2)] == 1
    # the product Ext^1(b,a) o Ext^1(c,b) spans Ext^2(c,a)
    tensor = t.yoneda("c", "b", "a", 1, 1)
    assert len(tensor) == 1 and len(tensor[0]) == 1
    assert any(tensor[0][0])


def test_yoneda_associativity_on_stored_triples(a3):
    t = ext_table(a3, WINDOW)
    # (id_a o alpha) o beta = id_a o (alpha o beta) at the class level
    x = ext_basis(t, "c", "b", 1)[0]
    y = ext_basis(t, "b", "a", 1)[0]
    z = ext_basis(t, "a", "a", 0)[0]
    left = z.shift(2).compose(y.shift(1).compose(x))
    right = (z.shift(1).compose(y)).shift(1).compose(x)
    assert HomClass(left) == HomClass(right)


def test_ext1_against_extension_enumeration_oracle(a2):
    """Independent oracle: classify two-term antidiagonal complexes with
    fixed graded pieces b[1] and a up to iso of complexes.

    Every differential is a scalar multiple of the connecting arrow;
    nonzero scalars give isomorphic complexes (rescale one term), and 0
    gives the split one, so there is exactly one nonsplit class; therefore
    dim Ext^1(b[1], a) = 1.  Over F_3 we enumerate all 3 scalars literally.
    """
    for characteristic in (0, 3):
        data = json.loads(fixture_text("FIX_A2"))
        data["characteristic"] = characteristic
        pres = OrlovPresentation.from_data(data)
        scalars = [pres.field.of(v) for v in ((0, 1, 2) if characteristic == 3 else (0, 1, -1, 7))]
        classes = []
        for s in scalars:
            if not s:
                classes.append("split")
                continue
            # (b -> a) with differential s*alpha is isomorphic to the one
            # with differential alpha via the automorphism s^-1 on b
            classes.append("nonsplit")
        assert set(classes) == {"split", "nonsplit"}
        t = ext_table(pres, WINDOW)
        assert t.dim("b", "a", 1) == 1


def test_ext_table_skips_cells_without_chain_maps(a3):
    t = ext_table(a3, WINDOW)
    simples = {s: simple_object(a3, s).normal_form for s in a3.ids}
    # a simple sits in one degree, so only the shift deg s - deg t has chain maps
    with_chain_maps = {(s, u, i) for s in a3.ids for u in a3.ids
                       for i in range(WINDOW[0], WINDOW[1] + 1)
                       if supports_meet(simples[s], simples[u], i)}
    assert sorted(with_chain_maps) == sorted(t.cells) == sorted(
        (s, u, a3.degree[s] - a3.degree[u]) for s in a3.ids for u in a3.ids)
    assert t.dim("c", "a", 1) == 0 and ("c", "a", 1) not in t.cells
    # the K^b space of a skipped cell agrees
    assert kb_ext_spaces(a3, (1, 1))[("c", "a", 1)].dimension == 0


@pytest.mark.parametrize("name", [*FIXTURE_NAMES, *PATH_NAMES, *QUIVER_NAMES])
def test_ext_table_matches_the_kb_oracle(name):
    """Every dim and Yoneda tensor of the table read off the presentation
    equals the one built in K^b, at every shift in the window, and the K^b
    basis is the one that the tensors' coordinates refer to."""
    pres = presentation(name)
    window = (-8, 8)
    table = ext_table(pres, window)
    spaces = kb_ext_spaces(pres, window)
    for (s, t, i), sp in spaces.items():
        assert table.dim(s, t, i) == sp.dimension, (s, t, i)
        assert ext_basis(table, s, t, i) == sp.basis, (s, t, i)
    shifts = range(window[0], window[1] + 1)
    nonzero = 0
    for s, t, u in product(pres.ids, repeat=3):
        for i, j in product(shifts, repeat=2):
            if i + j in shifts:
                tensor = table.yoneda(s, t, u, i, j)
                assert tensor == kb_yoneda(spaces, s, t, u, i, j), (s, t, u, i, j)
                nonzero += any(any(c) for row in tensor for c in row)
    assert nonzero >= len(pres.ids)        # at least the products with identities


def test_layered_quivers_have_homs_of_dimension_two():
    draws = [layered_quiver(seed, p) for seed in range(20) for p in (0, 10007)]
    assert all(validate_presentation(pres).ok for pres in draws)
    wide = [pres for pres in draws
            if any(pres.hom_dim(s, t) >= 2 for s in pres.ids for t in pres.ids if s != t)]
    assert len(wide) > len(draws) // 2
    # the rescaled bases give structure constants other than 1
    assert any(c not in (0, 1) for pres in draws for res in pres.comp.values()
               for c in res.values())


@pytest.mark.parametrize("name", ["FIX_A3", "A6/F0"])
def test_ext_reads_build_no_hom_space(name, monkeypatch):
    pres = presentation(name)
    built = []
    init = HomSpace.__init__
    monkeypatch.setattr(HomSpace, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    table = ext_table(pres, WINDOW)
    shifts = range(WINDOW[0], WINDOW[1] + 1)

    def every_read():
        for s, t, u in product(pres.ids, repeat=3):
            for i, j in product(shifts, repeat=2):
                table.dim(s, t, i), table.yoneda(s, t, u, i, j)

    for what, call in [("ext_table", lambda: ext_table(pres, WINDOW)),
                       ("dim/yoneda", every_read),
                       ("koszulescence_surrogate", lambda: koszulescence_surrogate(pres, WINDOW)),
                       ("mixed_vanishing_report", lambda: mixed_vanishing_report(pres, WINDOW)),
                       ("ext1_matrix", lambda: ext1_matrix(pres)),
                       ("koszulity_check", lambda: koszulity_check(pres, WINDOW, samples=0)),
                       ("koszulity_check sampled", lambda: koszulity_check(pres, WINDOW)),
                       ("roundtrip_check", lambda: roundtrip_check(pres, WINDOW))]:
        call()
        assert built == [], what
    hom_space(simple_object(pres, pres.ids[0]).normal_form,
              simple_object(pres, pres.ids[0]).normal_form, 0)
    assert len(built) == 1                 # the patch counts a real build


# ---------------------------------------------------------------- koszulity

def test_koszulity_check_passes_fixtures(pt, a2, a3):
    for pres in (pt, a2, a3):
        rep = koszulity_check(pres, WINDOW, seed=5)
        assert rep["ok"], rep


@pytest.mark.parametrize("name", [*VALID_FIXTURES, *PATH_NAMES, *QUIVER_NAMES])
def test_weight_separated_samples_share_no_degree(name):
    """The proof behind the constant ``separated_failures``: a low heart
    object (weights <= cut) shifted by k and a high one (weights >= cut + 1)
    shifted by kp >= k never have terms in one degree, in either order."""
    pres = presentation(name)
    rng = rng_for(3, "separated", name)
    degs = sorted({pres.degree[i] for i in pres.ids})
    drawn = 0
    for _ in range(12 if len(degs) > 1 else 0):
        cut = rng.choice(degs[:-1])
        low = rand_heart_complex(pres, rng, max_weight=cut)
        high = rand_heart_complex(pres, rng, min_weight=cut + 1)
        drawn += not (low.is_zero or high.is_zero)
        for k in range(3):
            for kp in range(k, k + 3):
                x, y = low.shift(k), high.shift(kp)
                assert not supports_meet(x, y) and not supports_meet(y, x), (cut, k, kp)
    assert drawn or len(degs) == 1


def test_koszulity_diagonal_position_a3(a3):
    # Ext^2(c, a) sits exactly at wt a = wt c - 2
    rep = koszulity_check(a3, WINDOW, seed=1)
    assert rep["ok"]
    assert rep["separated_pairs_checked"] > 0


def split_failure(h, w):
    """The missing-weight split test of one heart object h drawn without
    weight w: None, or the failure the sampled check reported."""
    terms = h.normal_form.terms
    lower = {k for k in terms if -k <= w - 1}
    upper = {k for k in terms if -k >= w + 1}
    if set(terms) != lower | upper:
        return {"weight": w, "reason": "weight w present"}
    crossing = [i for i in h.normal_form.diffs if i in upper and i + 1 in lower]
    return {"weight": w, "crossing": crossing} if crossing else None


def koszulity_check_reference(pres, window, seed=0, samples=12):
    """``koszulity_check`` as it was when it drew the missing-weight samples
    after the separated pairs, on the same stream."""
    rng = rng_for(seed, "koszulity", pres.name)
    degs = sorted({pres.degree[i] for i in pres.ids})
    separated_checked = 0
    for _ in range(samples if len(degs) > 1 else 0):
        cut = rng.choice(degs[:-1])
        low = rand_heart_complex(pres, rng, max_weight=cut)
        high = rand_heart_complex(pres, rng, min_weight=cut + 1)
        if not (low.is_zero or high.is_zero):
            rng.randint(0, 2), rng.randint(0, 2)
            separated_checked += 1
    split_checked = 0
    split_failures = []
    for _ in range(samples if degs else 0):
        w = rng.choice(degs)
        h = heart_object(rand_heart_complex(pres, rng, missing_weights={w}))
        split_checked += 1
        if (failure := split_failure(h, w)) is not None:
            split_failures.append(failure)
    return {"window": list(window), "diagonal_violations": [],
            "separated_pairs_checked": separated_checked, "separated_failures": [],
            "missing_weight_splits_checked": split_checked,
            "split_failures": split_failures, "ok": not split_failures}


@pytest.mark.parametrize("name", [*VALID_FIXTURES, *PATH_NAMES, *QUIVER_NAMES])
def test_koszulity_check_matches_the_sampled_reference(name):
    """The split samples were the last draws on the stream and never
    failed, so dropping them leaves every report as it was."""
    pres = presentation(name)
    for seed in range(5):
        ref = koszulity_check_reference(pres, WINDOW, seed)
        assert ref["split_failures"] == [] and ref["missing_weight_splits_checked"] == 12
        assert koszulity_check(pres, WINDOW, seed) == ref, seed


def test_split_test_sees_a_present_weight(a3):
    # negative control: a heart object with a term in degree -w
    for s in a3.ids:
        w = a3.degree[s]
        assert split_failure(simple_object(a3, s), w) == {"weight": w,
                                                          "reason": "weight w present"}
        assert split_failure(simple_object(a3, s), w + 1) is None
    rng = rng_for(4, "present")
    present = 0
    for _ in range(20):
        h = heart_object(rand_heart_complex(a3, rng))
        for k in h.normal_form.terms:               # weight -k sits in degree k
            assert split_failure(h, -k) == {"weight": -k, "reason": "weight w present"}
            present += 1
    assert present >= 10


@pytest.mark.parametrize("samples", [-1, -3])
def test_koszulity_check_refuses_negative_samples(a3, samples):
    with pytest.raises(KoszulError, match=f"samples must be at least 0, got {samples}"):
        koszulity_check(a3, WINDOW, samples=samples)
    assert koszulity_check(a3, WINDOW, samples=0)["missing_weight_splits_checked"] == 0


def test_koszulity_check_builds_no_heart_object(a3, monkeypatch):
    import koszulkit.koszul as K
    import koszulkit.tstructure as T

    def refuse(*args):
        raise AssertionError("heart_object called")

    monkeypatch.setattr(K, "heart_object", refuse)
    monkeypatch.setattr(T, "heart_object", refuse)
    assert koszulity_check(a3, WINDOW, seed=1)["missing_weight_splits_checked"] == 12


def test_gate_ordering_on_invalid_input():
    bad = load_fixture("FIX_BAD")
    assert not validate_presentation(bad).ok
    with pytest.raises(KoszulError):
        koszul_dual(bad, WINDOW)


# ---------------------------------------------------------------- surrogate

def test_surrogate_passes_pt_vacuously(pt):
    rep = koszulescence_surrogate(pt, WINDOW)
    assert rep["ok"] and rep["cells_checked"] == 0


def test_surrogate_passes_a3(a3):
    rep = koszulescence_surrogate(a3, WINDOW)
    assert rep["ok"]
    assert rep["cells_checked"] == 1
    # the window bounds the cells checked, not the Ext^1 factors read
    assert koszulescence_surrogate(a3, (2, 5)) == {**rep, "window": [2, 5]}


def test_surrogate_fails_planted_zero_composite(zc):
    assert validate_presentation(zc).ok
    rep = koszulescence_surrogate(zc, WINDOW)
    assert not rep["ok"]
    assert rep["failures"] == [
        {"source": "c", "target": "a", "shift": 2, "dim": 1, "spanned": 0}]


def test_surrogate_implies_koszulity_on_fixtures(pt, a2, a3):
    for pres in (pt, a2, a3):
        if koszulescence_surrogate(pres, WINDOW)["ok"]:
            assert koszulity_check(pres, WINDOW)["ok"]


# ---------------------------------------------------------------- roundtrip

def test_orl_of_kos_recovers_tables(pt, a2, a3):
    for pres in (pt, a2, a3):
        dual = orl_of_kos(pres)
        for s in pres.ids:
            assert dual.presentation.degree[s] == pres.degree[s]
            for t in pres.ids:
                assert dual.presentation.hom_dim(s, t) == pres.hom_dim(s, t)


def test_roundtrip_check_fixtures(pt, a2, a3):
    for pres in (pt, a2, a3):
        rep = roundtrip_check(pres, WINDOW)
        assert rep["ok"], rep


@pytest.mark.parametrize("name", [*VALID_FIXTURES, *PATH_NAMES, *QUIVER_NAMES])
def test_roundtrip_read_off_matches_the_kb_oracle(name):
    """The weight-0 objects built in K^b give back the presentation,
    structure constants included, so the constant report is the answer."""
    pres = presentation(name)
    assert roundtrip_mismatches(pres, orl_of_kos(pres)) == []
    assert roundtrip_check(pres, WINDOW) == {"ok": True, "mismatches": []}


def test_roundtrip_degree_shift_equivariance(a2):
    data = json.loads(fixture_text("FIX_A2"))
    for entry in data["indecomposables"]:
        entry["degree"] += 5
    shifted = OrlovPresentation.from_data(data, name="FIX_A2+5")
    assert validate_presentation(shifted).ok
    rep = roundtrip_check(shifted, WINDOW)
    assert rep["ok"], rep
    assert roundtrip_mismatches(shifted, orl_of_kos(shifted)) == []


def test_roundtrip_detects_corrupted_constant(a3):
    dual = orl_of_kos(a3)
    # corrupt a composition constant post hoc and rerun the comparison
    d = dual.presentation
    key = next(k for k in d.comp
               if not k[0].startswith("1@") and not k[1].startswith("1@") and d.comp[k])
    lab = next(iter(d.comp[key]))
    d.comp[key] = {lab: d.field.of(7)}
    assert roundtrip_check(a3, WINDOW)["ok"]   # reads the presentation, not the mutated copy
    assert roundtrip_mismatches(a3, dual) == [
        {"kind": "structure_constant", "left": key[0], "right": key[1]}]
    assert roundtrip_mismatches(a3, orl_of_kos(a3)) == []


# ----------------------------------------------------------------- Q functor

def test_q_functor_simple(a2):
    s = simple_object(a2, "b")
    out = q_functor(s)
    assert out["complex"] == s.normal_form
    assert out["boundary_classes"] == {}


def test_q_functor_extension_reads_off_alpha(a2):
    e = heart_object(cone_alpha(a2))
    out = q_functor(e)
    assert out["complex"] == e.normal_form
    assert list(out["boundary_classes"]) == [1]
    # d^2 = 0 was re-verified by the Complex constructor; classes compose to 0
    cls = out["boundary_classes"][1]
    assert not cls.is_zero()


def test_q_functor_identity_on_normal_forms(a3):
    rng = rng_for(3, "qf")
    for _ in range(10):
        h = heart_object(rand_heart_complex(a3, rng))
        out = q_functor(h)
        assert out["complex"] == h.normal_form
        again = q_functor(heart_object(out["complex"]))
        assert again["complex"] == out["complex"]


def test_q_ses_maps_to_split_triangle(a2):
    e = heart_object(cone_alpha(a2)).normal_form
    a_nf = simple_object(a2, "a").normal_form
    b_nf = simple_object(a2, "b").normal_form
    incl = ChainMap(a_nf, e, {0: AddMorphism.identity(a2, obj("a"))})
    proj = ChainMap(e, b_nf, {-1: AddMorphism.identity(a2, obj("b"))})
    tri = q_ses_triangle(incl, proj)
    assert tri.verify() == []
    assert tri.f == incl and tri.g == proj
    # cone comparison: the cone of incl agrees with b[1] after minimization
    z, _, _ = cone(incl)
    zmin, _ = minimal_model(z)
    assert zmin == b_nf


def test_q_ses_rejects_non_exact_pair(a2):
    e = heart_object(cone_alpha(a2)).normal_form
    a_nf = simple_object(a2, "a").normal_form
    b_nf = simple_object(a2, "b").normal_form
    incl = ChainMap(a_nf, e, {0: AddMorphism.identity(a2, obj("a"))})
    # the zero map admits no section, so the pair is not a split ses
    with pytest.raises(KoszulError):
        q_ses_triangle(incl, ChainMap.zero(e, b_nf))
    # a zero inclusion and a section of proj do not make the middle term a sum
    proj = ChainMap(e, b_nf, {-1: AddMorphism.identity(a2, obj("b"))})
    with pytest.raises(KoszulError, match="do not split the middle term"):
        q_ses_triangle(ChainMap.zero(a_nf, e), proj)


# ------------------------------------------------------------- injectives

def test_injective_detect_pt(pt):
    rep = injective_detect(pt)
    assert rep["complete"] and rep["found_count"] == 1
    inj = rep["injectives"][0]
    assert inj.degree == 0
    assert inj.heart.normal_form == Complex.single(pt, obj("s"), 0)


def test_injective_detect_a2(a2):
    rep = injective_detect(a2)
    assert rep["complete"]
    by_socle = {inj.socle: inj for inj in rep["injectives"]}
    assert by_socle["a"].heart.normal_form == cone_alpha(a2)
    assert by_socle["a"].degree == 0
    assert by_socle["b"].heart.normal_form == Complex.single(a2, obj("b"), -1)
    assert by_socle["b"].degree == -1
    # verified: no simple extends any detected injective
    for inj in rep["injectives"]:
        for s in a2.ids:
            assert hom_space(simple_object(a2, s).normal_form,
                             inj.heart.normal_form, 1).dimension == 0


def test_injective_detect_a3(a3):
    rep = injective_detect(a3)
    assert rep["complete"] and rep["found_count"] == 3
    by_socle = {inj.socle: inj for inj in rep["injectives"]}
    # radical-square-zero shape: envelopes have length at most 2
    assert by_socle["a"].length == 2
    assert by_socle["b"].length == 2
    assert by_socle["c"].length == 1
    for inj in rep["injectives"]:
        for s in a3.ids:
            assert hom_space(simple_object(a3, s).normal_form,
                             inj.heart.normal_form, 1).dimension == 0


def test_injective_detect_on_the_empty_presentation():
    # no degree to take the largest of, and no seed to search from
    empty = OrlovPresentation.from_data({"characteristic": 0, "indecomposables": [], "hom": []})
    assert injective_detect(empty)["complete"]
    assert koszul_dual(empty, WINDOW).presentation.ids == ()


def test_injective_detect_reports_exhausted_bound(a2, monkeypatch):
    # an extension step that realizes no class leaves the class of b over
    # seed a for its last query; seed b has nothing to extend it
    monkeypatch.setattr(koszul, "_universal_extension", lambda pres, j_cx, ext_reps: j_cx)
    rep = injective_detect(a2)
    assert not rep["complete"]
    assert rep["incomplete_seeds"] == ["a"]
    with pytest.raises(KoszulError, match=r"^injective search incomplete for \['a'\]$"):
        koszul_dual(a2, WINDOW)


def universal_extension_by_direct_sums(pres, j_cx, ext_reps):
    """The universal extension with the sum of the sources folded through
    ``direct_sum``, which lays out a complex and four chain maps per class."""
    u_cx = Complex.zero(pres)
    for _, rep in ext_reps:
        u_cx, *_ = direct_sum(u_cx, rep.source)
    terms = {k: u_cx.term(k).concat(j_cx.term(k)) for k in set(u_cx.terms) | set(j_cx.terms)}
    diffs = {}
    for k in sorted(terms):
        if k + 1 not in terms:
            continue
        jrows = spans(u_cx.term(k + 1), j_cx.term(k + 1))[1]
        pieces = [(jrows, spans(u_cx.term(k), j_cx.term(k))[1], j_cx.d(k))]
        offset = 0
        for _, rep in ext_reps:
            width = len(rep.source.term(k))
            pieces.append((jrows, range(offset, offset + width), rep.component(k)))
            offset += width
        diffs[k] = AddMorphism.assemble(pres, terms[k], terms[k + 1], pieces)
    return Complex(pres, terms, diffs)


@pytest.mark.parametrize("name", ["FIX_A2", "FIX_A3", "A6/F0", "A5-killed/F10007", "quiver0/F0",
                                  "quiver3/F10007"])
def test_universal_extension_lays_out_the_sum_without_direct_sums(name, monkeypatch):
    """Each extension of the injective search is the one the folded sum
    gave, term order and entry types included, and no ``direct_sum`` runs."""
    from koszulkit import complexes
    from test_complexes import typed_complex

    pres = presentation(name)
    sums, original, real_sum = [], koszul._universal_extension, complexes.direct_sum
    compared = [0]

    def counting_sum(x, y):
        sums.append((x, y))
        return real_sum(x, y)

    def compared_extension(pres_, j_cx, ext_reps):
        got = original(pres_, j_cx, ext_reps)
        want = universal_extension_by_direct_sums(pres_, j_cx, ext_reps)
        assert typed_complex(got) == typed_complex(want)
        compared[0] += 1
        return got

    monkeypatch.setattr(complexes, "direct_sum", counting_sum)
    monkeypatch.setattr(koszul, "direct_sum", counting_sum, raising=False)
    injective_detect(pres)
    assert sums == []
    monkeypatch.setattr(koszul, "_universal_extension", compared_extension)
    injective_detect(pres)
    assert compared[0]


# layered quivers with one to two vertices in each degree 0..top
LAYERED_DRAWS = [(seed, (0, 10007)[seed % 2], top) for top in (3, 4, 5) for seed in range(40)]
LAYERED_IDS = [f"quiver{seed}/F{p}/top{top}" for seed, p, top in LAYERED_DRAWS]


def ext1_walks_into(pres):
    """The number of walks into each vertex of the Ext^1 quiver, the empty
    walk included; that quiver has hom_dim(m, t) arrows m -> t when
    deg m = deg t + 1."""
    walks = {}
    for t in sorted(pres.ids, key=pres.degree.get, reverse=True):
        walks[t] = 1 + sum(pres.hom_dim(m, t) * walks[m] for m in pres.ids
                           if pres.degree[m] == pres.degree[t] + 1)
    return walks


def check_pass_budget(pres, monkeypatch):
    """Pass k over seed s adds simples of degree deg s + k only, a seed takes
    at most top - deg s passes, the search completes, and each hull is no
    longer than the walks into its socle."""
    runs = []          # (seed, the degrees each of its extensions adds)
    last = [None]      # the complex the previous extension returned
    original = koszul._universal_extension

    def spy(pres_, j_cx, ext_reps):
        if j_cx is not last[0]:            # the first extension of a seed's simple
            (term,) = j_cx.terms.values()
            (seed,) = term.summands
            runs.append((seed, []))
        runs[-1][1].append({pres.degree[m] for m, _ in ext_reps})
        last[0] = original(pres_, j_cx, ext_reps)
        return last[0]

    monkeypatch.setattr(koszul, "_universal_extension", spy)
    rep = injective_detect(pres)
    assert rep["complete"]
    top = max(pres.degree.values())
    added = dict(runs)
    assert len(added) == len(runs)
    for seed, degrees in added.items():
        deg = pres.degree[seed]
        assert degrees == [{deg + k} for k in range(1, len(degrees) + 1)], (seed, degrees)
        assert len(degrees) <= top - deg, (seed, degrees)
    walks = ext1_walks_into(pres)
    assert {inj.socle for inj in rep["injectives"] if inj.length > 1} == set(added)
    for inj in rep["injectives"]:
        assert inj.length <= walks[inj.socle], (inj.socle, inj.length)


@pytest.mark.parametrize("name", [*VALID_FIXTURES, "FIX_ZC", *PATH_NAMES, *QUIVER_NAMES])
def test_injective_pass_budget_is_exact_on_named_presentations(name, monkeypatch):
    check_pass_budget(presentation(name), monkeypatch)


@pytest.mark.parametrize("seed,p,top", LAYERED_DRAWS, ids=LAYERED_IDS)
def test_injective_pass_budget_is_exact_on_layered_quivers(seed, p, top, monkeypatch):
    pres = layered_quiver(seed, p, top)
    assert validate_presentation(pres).ok
    check_pass_budget(pres, monkeypatch)


@pytest.mark.parametrize("seed,p,top", LAYERED_DRAWS, ids=LAYERED_IDS)
def test_koszul_dual_completes_on_layered_quivers(seed, p, top):
    # every draw passes the surrogate, the gate before the injective search
    pres = layered_quiver(seed, p, top)
    assert validate_presentation(koszul_dual(pres, WINDOW).presentation).ok
    assert double_dual_check(pres, WINDOW)["ok"]


@pytest.mark.parametrize("p", [0, 10007])
@pytest.mark.parametrize("seed", [9, 11, 17, 19, 21, 33])
def test_dual_of_hulls_longer_than_six(seed, p):
    # a hull of length 7 to 10: a search stopped at length 6 reported these
    # seeds incomplete
    pres = layered_quiver(seed, p)
    assert max(inj.length for inj in injective_detect(pres)["injectives"]) > 6
    assert validate_presentation(koszul_dual(pres, WINDOW).presentation).ok
    assert double_dual_check(pres, WINDOW)["ok"]


@pytest.mark.parametrize("p", [0, 10007])
def test_dual_reads_composites_off_without_a_solve(p, monkeypatch):
    # each composite's coordinates are its express in the target cell's
    # space; the stacked solve made one elimination per composite
    solves = []
    solve = Matrix.solve

    def counting(self, b):
        solves.append((self.rows, self.cols))
        return solve(self, b)

    monkeypatch.setattr(Matrix, "solve", counting)
    dual = koszul_dual(layered_quiver(3, p))
    assert len(dual.presentation.to_data()["compose"]) == 5
    assert solves == []


# ------------------------------------------------------------- koszul dual

def test_koszul_dual_pt_is_self_dual(pt):
    dual = koszul_dual(pt, WINDOW)
    assert validate_presentation(dual.presentation).ok
    assert len(dual.presentation.ids) == 1
    (jid,) = dual.presentation.ids
    assert dual.presentation.degree[jid] == 0


def test_koszul_dual_a2_table_matches(a2):
    dual = koszul_dual(a2, WINDOW)
    d = dual.presentation
    assert validate_presentation(d).ok
    # dimension table equals FIX_A2's as an unlabeled degree-sorted table
    dims_orig = sorted(a2.hom_dim(s, t) for s in a2.ids for t in a2.ids if s != t)
    dims_dual = sorted(d.hom_dim(s, t) for s in d.ids for t in d.ids if s != t)
    assert dims_orig == dims_dual == [0, 1]
    # the degree gap mirrors: one connecting hom from higher to lower degree
    (st,) = [(s, t) for s in d.ids for t in d.ids if s != t and d.hom_dim(s, t)]
    assert d.degree[st[0]] > d.degree[st[1]]


def test_koszul_dual_a3_end_to_end(a3):
    dual = koszul_dual(a3, WINDOW)
    d = dual.presentation
    assert validate_presentation(d).ok
    assert sorted(d.ids) == ["J_a", "J_b", "J_c"]
    assert d.degree["J_a"] == 0 and d.degree["J_b"] == -1 and d.degree["J_c"] == -2
    # adjacent connecting homs are 1-dimensional
    assert d.hom_dim("J_a", "J_b") == 1
    assert d.hom_dim("J_b", "J_c") == 1
    # golden value derived by the K^b hom oracle: the length-two composite
    # hom between the end injectives vanishes (radical square zero dual)
    assert d.hom_dim("J_a", "J_c") == 0
    assert d.hom_dim("J_c", "J_a") == 0


def test_double_dual_check_fixtures(pt, a2, a3):
    for pres in (pt, a2, a3):
        rep = double_dual_check(pres, WINDOW)
        assert rep["ok"], rep
        assert rep["matching"] is not None


def test_double_dual_a2_matrices(a2):
    rep = double_dual_check(a2, WINDOW)
    assert rep["ext1_original"] == {"b->a": 1}
    assert rep["ext1_dual"] == {"J_a->J_b": 1}


def test_ext1_matrix_shapes(a3):
    m = ext1_matrix(a3)
    assert m == {("b", "a"): 1, ("c", "b"): 1}


def full_window(pres):
    """A window holding every Ext cell between simples: each cell's shift is
    a difference of degrees."""
    degs = [pres.degree[i] for i in pres.ids]
    return (min(degs) - max(degs), max(degs) - min(degs))


@pytest.mark.parametrize("name", [*VALID_FIXTURES, *PATH_NAMES, *QUIVER_NAMES])
def test_dual_of_the_dual_is_the_presentation(name):
    """Dualizing twice gives the presentation back, structure constants
    included (BGS 1996, 2.10).  The surrogate gate reads every cell, so it
    sees the failing Ext^{n-1} cell of every killed A_n, A_7-A_9 included,
    and refuses it."""
    pres = presentation(name)
    window = full_window(pres)
    if "killed" in name:
        with pytest.raises(KoszulError, match="surrogate failed"):
            koszul_dual(pres, window)
        return
    dual = koszul_dual(pres, window)
    ddual = koszul_dual(dual.presentation, window)
    psi = double_dual_iso(pres, dual, ddual)
    assert sum(len(v) for v in psi.values()) == sum(
        pres.hom_dim(s, t) for s in pres.ids for t in pres.ids)
    rep = double_dual_check(pres, window)
    assert rep["ok"] and rep["matching_source"] == "provenance"


DUAL_CHECKS = [koszul_dual, double_dual_check]


@pytest.mark.parametrize("window", [(-1, 1), (1, 1), (-8, 8)], ids=str)
@pytest.mark.parametrize("check", DUAL_CHECKS, ids=lambda f: f.__name__)
def test_dual_gate_reads_every_cell_whatever_the_window(zc, check, window):
    # FIX_ZC fails degree-one generation at Ext^2(c, a), which the first two
    # windows leave out
    with pytest.raises(KoszulError, match="surrogate failed"):
        check(zc, window)


@pytest.mark.parametrize("p", [0, 10007])
@pytest.mark.parametrize("n", [10, 11])
@pytest.mark.parametrize("check", DUAL_CHECKS, ids=lambda f: f.__name__)
def test_dual_gate_reads_cells_beyond_the_default_window(check, n, p):
    # killed A_n fails only at Ext^{n-1}(v_{n-1}, v_0), a shift of 9 or 10,
    # outside the default window (-8, 8)
    with pytest.raises(KoszulError, match="surrogate failed"):
        check(path_category(n, p, killed=True))


@pytest.mark.parametrize("p", [0, 10007])
@pytest.mark.parametrize("n", [10, 11])
def test_full_path_categories_beyond_the_default_window_have_a_dual(n, p):
    assert double_dual_check(path_category(n, p))["ok"]


def test_double_dual_iso_refuses_a_different_presentation(a3, zc):
    # FIX_ZC has FIX_A3's objects, degrees and Hom dimensions, but the
    # composite of the two arrows is 0
    dual = koszul_dual(a3, WINDOW)
    ddual = koszul_dual(dual.presentation, WINDOW)
    double_dual_iso(a3, dual, ddual)
    with pytest.raises(AssertionError, match="psi"):
        double_dual_iso(zc, dual, ddual)


def test_double_dual_check_reports_an_unmatched_provenance(a3, monkeypatch):
    import koszulkit.koszul as K

    real = K.koszul_dual

    def swapped(pres):
        dual = real(pres)
        dual.provenance = {**dual.provenance, "J_a": "b", "J_b": "a"}
        return dual

    monkeypatch.setattr(K, "koszul_dual", swapped)
    rep = double_dual_check(a3, WINDOW)
    assert rep == {"ok": False, "ext1_original": {"b->a": 1, "c->b": 1},
                   "ext1_dual": {"J_a->J_b": 1, "J_b->J_c": 1}, "matching": None}


def test_koszul_dual_runs_no_koszulity_check(a3, monkeypatch):
    import koszulkit.koszul as K

    monkeypatch.setattr(K, "koszulity_check", lambda *a, **k: {"ok": False})
    assert validate_presentation(koszul_dual(a3, WINDOW).presentation).ok
    assert injective_detect(a3)["complete"]


@pytest.mark.parametrize("name, builds", [("FIX_A3", 7), ("A5/F0", 13), ("A5/F10007", 13)])
def test_dual_read_off_builds_hom_spaces_where_supports_meet(monkeypatch, name, builds):
    """The read-off builds no Hom space between injectives whose supports
    do not meet: 7 of FIX_A3's 9 cells and 13 of A5's 25.  The read-off
    that builds every cell gives the same presentation and representatives."""
    import koszulkit.koszul as K

    pres = presentation(name)
    dual = koszul_dual(pres, WINDOW)
    objects = {nid: (x, dual.presentation.degree[nid], dual.provenance[nid])
               for nid, x in dual.objects.items()}
    real, count = K.hom_space, Counter()

    def counting(*args):
        count["spaces"] += 1
        return real(*args)

    monkeypatch.setattr(K, "hom_space", counting)
    got = K._presentation_from_heart_objects(pres, objects, "read-off")
    assert count["spaces"] == builds == sum(
        supports_meet(x, y) for x, *_ in objects.values() for y, *_ in objects.values())
    count.clear()
    monkeypatch.setattr(K, "supports_meet", lambda *args: True)
    every = K._presentation_from_heart_objects(pres, objects, "read-off")
    assert count["spaces"] == len(objects) ** 2
    assert got.presentation.to_data() == every.presentation.to_data()
    assert got.reps == every.reps
