from collections import Counter, defaultdict

import pytest

from koszulkit.complexes import (
    ChainIso,
    ChainMap,
    Complex,
    HomClass,
    Triangle,
    cone,
    direct_sum,
    hom_space,
    minimal_model,
)
from koszulkit.fixtures import load_fixture
from koszulkit.orlov import AddMorphism, hom_basis, obj
from koszulkit.randgen import (
    conjugate_complex,
    rand_chain_map,
    rand_complex,
    rand_heart_complex,
    rng_for,
)
from koszulkit.tstructure import (
    HeartAssertionError,
    HeartObject,
    TStructureError,
    aisle_membership,
    composition_factors,
    filtration,
    heart_object,
    heart_simples,
    is_pure,
    is_semisimple_normal_form,
    mixed_vanishing_report,
    simple_object,
    t_cohomology,
    truncate,
    weight,
    weight_filtration,
)
from conjugation_reference import cone_through_simple
from presentations import presentation
from tcohomology_reference import t_cohomology_at, truncation_window
from test_complexes import doubled, straddling_arrow
from weights_reference import weight_subobjects


@pytest.fixture(scope="module")
def pt():
    return load_fixture("FIX_PT")


@pytest.fixture(scope="module")
def a2():
    return load_fixture("FIX_A2")


@pytest.fixture(scope="module")
def a3():
    return load_fixture("FIX_A3")


def cone_alpha(pres):
    x = Complex.single(pres, obj("b"), 0)
    y = Complex.single(pres, obj("a"), 0)
    m = AddMorphism.single(pres, obj("b"), obj("a"), 0, 0, (1,))
    z, _, _ = cone(ChainMap(x, y, {0: m}))
    return z


# ------------------------------------------------------------------ aisles

def test_zero_complex_in_both_aisles(a2):
    rep = aisle_membership(Complex.zero(a2))
    assert rep.in_lower and rep.in_upper


def test_point_a_in_heart(a2):
    rep = aisle_membership(Complex.single(a2, obj("a"), 0))
    assert rep.in_lower and rep.in_upper


def test_point_b_only_upper(a2):
    rep = aisle_membership(Complex.single(a2, obj("b"), 0))
    assert rep.in_upper and not rep.in_lower


# ---------------------------------------------------------------- truncate

def test_truncate_lower_object(a2):
    x = Complex.single(a2, obj("a"), -2)   # (-2, 0): lower
    tr = truncate(x)
    assert tr.upper.is_zero
    assert tr.lower == x
    assert tr.triangle.verify() == []


def test_truncate_upper_shifted_object(a2):
    x = Complex.single(a2, obj("b"), 0)    # (0,1): 0 >= -1+1 so x[1] upper
    tr = truncate(x)
    assert tr.lower.is_zero and tr.upper == x
    assert aisle_membership(tr.upper.shift(1)).in_upper
    assert tr.triangle.verify() == []


def test_truncate_mixed_object(a2):
    # a at (-1, 0) is in the lower aisle, b at (0, 1) is not
    x, *_ = direct_sum(Complex.single(a2, obj("a"), -1), Complex.single(a2, obj("b"), 0))
    tr = truncate(x)
    assert aisle_membership(tr.lower).in_lower
    assert aisle_membership(tr.upper.shift(1)).in_upper
    assert not tr.lower.is_zero and not tr.upper.is_zero
    assert tr.triangle.verify() == []


def test_truncate_randomized_with_orthogonality(a3):
    """Three draws in four are summed with a straddling arrow, whose
    truncation has a nonzero connecting map, so most triangles check one."""
    rng = rng_for(77, "trunc")
    pieces = []
    connecting = 0
    for k in range(40):
        x = rand_complex(a3, rng)
        if k % 4:
            x, *_ = direct_sum(x, straddling_arrow(a3, rng))
        tr = truncate(x)
        assert tr.triangle.verify() == []
        assert aisle_membership(tr.lower).in_lower
        assert aisle_membership(tr.upper.shift(1)).in_upper
        connecting += not tr.triangle.h.is_zero()
        pieces.append((tr.lower, tr.upper))
    assert connecting > len(pieces) // 2
    for k in range(0, len(pieces) - 1, 2):
        a_part = pieces[k][0]
        b_part = pieces[k + 1][1]
        assert hom_space(a_part, b_part, 0).dimension == 0


def cohomology(x):
    """{n: H^n(x)} from ``t_cohomology``, with the zero heart object at every
    other n."""
    objects, _ = t_cohomology(x)
    return defaultdict(lambda: HeartObject(Complex.zero(x.pres)), objects)


def test_truncation_window_bounds(a3):
    rng = rng_for(5, "bounds")
    for _ in range(10):
        x = rand_complex(a3, rng, amplitude=3)
        lo, hi = truncation_window(x)
        h = cohomology(x)
        for n in (lo - 1, hi + 1):
            assert h[n].normal_form.is_zero
        if not x.is_zero:
            assert not h[lo].normal_form.is_zero
            assert not h[hi].normal_form.is_zero


# ----------------------------------------------------------- t-cohomology

def test_t_cohomology_of_heart_object(a2):
    e = cone_alpha(a2)
    h = cohomology(e)
    assert h[0].normal_form == e
    assert h[1].normal_form.is_zero and h[-1].normal_form.is_zero


def test_t_cohomology_of_shifted_point(a2):
    x = Complex.single(a2, obj("b"), 0)
    h = cohomology(x)
    assert h[1].normal_form == Complex.single(a2, obj("b"), -1)
    assert h[0].normal_form.is_zero


def test_t_cohomology_shift_compatibility(a3):
    rng = rng_for(19, "hshift")
    for _ in range(10):
        x = rand_complex(a3, rng, amplitude=3)
        n = rng.randint(-2, 2)
        assert cohomology(x.shift(1))[n] == cohomology(x)[n + 1]


@pytest.mark.parametrize("name", ["FIX_A2", "FIX_A3", "A5/F10007", "A6/F0", "quiver0/F0",
                                  "quiver2/F10007"])
def test_t_cohomology_matches_the_per_n_route(name):
    """Every H^n of a re-presented draw, one window wider on each side, is
    literally the per-n route's: the same nonzero n and equal normal forms."""
    pres = presentation(name)
    rng = rng_for(2026, "tcoh", name)
    compared = 0
    for _ in range(12):
        x, _, _ = conjugate_complex(rand_complex(pres, rng, amplitude=4), rng)
        h = cohomology(x)
        lo, hi = truncation_window(x)
        assert set(h) <= set(range(lo, hi + 1))
        assert all(not obj_n.normal_form.is_zero for obj_n in h.values())
        for n in range(lo - 1, hi + 2):
            assert h[n] == t_cohomology_at(x, n), n
            compared += not h[n].normal_form.is_zero
    assert compared > 12


@pytest.mark.parametrize("name", ["FIX_A3", "A5/F10007", "quiver2/F10007"])
def test_t_cohomology_steps_filter_the_minimal_model(name):
    """The steps cut the minimal model from the top, each verifies, each
    one's first object is the next one's middle, the last one's is 0, and
    each third object is H^n shifted back by n."""
    pres = presentation(name)
    rng = rng_for(31, "tsteps", name)
    for _ in range(8):
        x, _, _ = conjugate_complex(rand_complex(pres, rng, amplitude=4), rng)
        objects, steps = t_cohomology(x)
        m, _ = minimal_model(x)
        assert len(steps) == len(objects)
        if not steps:
            assert m.is_zero
            continue
        assert steps[0].Y == m
        assert steps[-1].X.is_zero
        for step, after in zip(steps, steps[1:]):
            assert step.X == after.Y
        for n, step in zip(sorted(objects, reverse=True), steps):
            assert step.verify() == []
            assert step.Z == objects[n].normal_form.shift(-n)
            assert {i + j for i, j in step.Z.support()} == {n}


# ----------------------------------------------------------------- heart

def test_heart_simples_pt(pt):
    simples = heart_simples(pt)
    assert len(simples) == 1
    assert simples[0].normal_form == Complex.single(pt, obj("s"), 0)


def test_heart_simples_a2(a2):
    simples = heart_simples(a2)
    forms = [s.normal_form for s in simples]
    assert forms == [Complex.single(a2, obj("a"), 0), Complex.single(a2, obj("b"), -1)]


def test_heart_simples_a3(a3):
    forms = [s.normal_form for s in heart_simples(a3)]
    assert forms == [Complex.single(a3, obj("a"), 0),
                     Complex.single(a3, obj("b"), -1),
                     Complex.single(a3, obj("c"), -2)]


def test_heart_object_rejects_non_heart_input(a2):
    with pytest.raises(HeartAssertionError):
        heart_object(Complex.single(a2, obj("b"), 0))


def test_random_heart_objects_normalize_antidiagonal(a3):
    rng = rng_for(23, "heart")
    for _ in range(30):
        x = rand_heart_complex(a3, rng)
        x2, _, _ = conjugate_complex(x, rng)
        h = heart_object(x2)
        assert all(i == -j for (i, j) in h.normal_form.support())


# ------------------------------------------------------ weight filtration

def test_weight_filtration_of_simple(a2):
    s = simple_object(a2, "b")
    wf = weight_filtration(s)
    assert list(wf) == [1]
    assert wf[1] == s


def test_weight_filtration_of_extension(a2):
    e = heart_object(cone_alpha(a2))
    wf = weight_filtration(e)
    assert wf[0].normal_form == Complex.single(a2, obj("a"), 0)
    assert wf[1].normal_form == Complex.single(a2, obj("b"), -1)
    subs = weight_subobjects(e)
    assert subs[0][0] == Complex.single(a2, obj("a"), 0)
    assert subs[1][0] == e.normal_form


def test_weight_filtration_of_sum_of_simples(a3):
    x, *_ = direct_sum(simple_object(a3, "a").normal_form,
                       simple_object(a3, "c").normal_form)
    wf = weight_filtration(heart_object(x))
    assert sorted(wf) == [0, 2]
    for k, piece in wf.items():
        assert is_semisimple_normal_form(piece)


def test_composition_factors(a2):
    e = heart_object(cone_alpha(a2))
    assert composition_factors(e) == {"a": 1, "b": 1}
    assert composition_factors(HeartObject := heart_object(Complex.zero(a2))) == {}
    s = simple_object(a2, "a")
    ds, *_ = direct_sum(s.normal_form, s.normal_form)
    assert composition_factors(heart_object(ds)) == {"a": 2}


def test_pure_objects_have_zero_differential(a3):
    rng = rng_for(29, "pure")
    for _ in range(20):
        x = rand_heart_complex(a3, rng)
        h = heart_object(x)
        if is_pure(h):
            assert is_semisimple_normal_form(h)
    # purity forced: constrain to a single weight
    for w in (0, 1, 2):
        x = rand_heart_complex(a3, rng, width=(-w, -w))
        h = heart_object(x)
        assert is_pure(h) and is_semisimple_normal_form(h)


def multi_weight_heart_objects(pres, rng, trials):
    """Heart objects of re-presented draws with two or more weights: each
    draw leaves out a random weight or starts at a random one, so the
    weights need not be consecutive, and is redrawn until it has two."""
    degs = sorted(set(pres.degree.values()))
    out = []
    while len(out) < trials:
        h = heart_object(conjugate_complex(rand_heart_complex(
            pres, rng, missing_weights=rng.sample(degs, rng.randint(0, len(degs) - 2)),
            min_weight=rng.choice([None, *degs[:-1]])), rng)[0])
        if len(h.weights()) >= 2:
            out.append(h)
    return out


@pytest.mark.parametrize("name", ["FIX_A2", "FIX_A3", "A5/F10007"])
def test_weight_filtration_steps_verify_and_match_the_subobjects(name):
    """The filtration by weight cuts the normal form once per weight, from
    the top.  Every step verifies; strip k is weight_filtration's piece and
    the normal form's term at -k, alone in degree -k; each step's middle
    object is W_{<= k} of the reference, whose inclusion the step
    inclusions compose to; and the last step's first object is 0."""
    pres = presentation(name)
    steps_seen = gaps = 0
    for h in multi_weight_heart_objects(pres, rng_for(43, "weight steps", name), 15):
        nf = h.normal_form
        strips, steps = filtration(nf, weight)
        pieces, subs = weight_filtration(h), weight_subobjects(h)
        assert sorted(strips, reverse=True) == list(strips) == sorted(h.weights(), reverse=True)
        assert len(steps) == len(strips)
        inc = ChainMap.identity(nf)
        for (k, strip), step in zip(strips.items(), steps):
            assert step.verify() == []
            assert strip == step.Z == pieces[k].normal_form == Complex.single(pres, nf.term(-k), -k)
            assert step.Y == subs[k][0] and inc == subs[k][1]
            inc = inc.compose(step.f)
        assert steps[-1].X.is_zero
        steps_seen += len(steps)
        gaps += max(strips) - min(strips) >= len(strips)
    assert steps_seen >= 30 and (gaps or name == "FIX_A2"), (steps_seen, gaps)


@pytest.mark.parametrize("name", ["FIX_A2", "FIX_A3", "A5/F10007"])
def test_weight_filtration_reads_the_pieces_off_the_terms(name, monkeypatch):
    """weight_filtration builds no step triangle: a counting stand-in for
    ``Triangle.from_termwise_split`` sees no call.  Its pieces equal the
    strips of the certified filtration by weight, keys in the same
    descending order, on 40 heart objects with two or more weights."""
    pres = presentation(name)
    calls = []
    split = Triangle.from_termwise_split

    def counting(*args):
        calls.append(args)
        return split(*args)

    for h in multi_weight_heart_objects(pres, rng_for(44, "weight pieces", name), 40):
        monkeypatch.setattr(Triangle, "from_termwise_split", staticmethod(counting))
        pieces = weight_filtration(h)
        assert calls == []
        monkeypatch.undo()
        strips = filtration(h.normal_form, weight)[0]
        assert list(pieces) == list(strips) == sorted(h.weights(), reverse=True)
        assert pieces == {k: HeartObject(z) for k, z in strips.items()}


def test_filtration_of_the_zero_complex_has_no_step(a2):
    assert filtration(Complex.zero(a2), weight) == ({}, [])
    assert weight_filtration(heart_object(Complex.zero(a2))) == {}


# --------------------------------------------------- cone through a simple
# the excision of a simple left the engine; these tests run its reference

def test_cone_through_simple_identity(a2):
    s = simple_object(a2, "b")
    res = cone_through_simple(HomClass.identity(s.normal_form))
    assert res.quotient.is_zero
    assert res.triangle.verify() == []


def test_cone_through_simple_error_paths(a2):
    s = simple_object(a2, "a")
    e = cone_alpha(a2)
    # the canonical subobject inclusion a -> E spans this Hom space
    sp = hom_space(s.normal_form, e, 0)
    assert sp.dimension == 1
    with pytest.raises(TStructureError):
        cone_through_simple(HomClass.zero(s.normal_form, e))
    with pytest.raises(TStructureError):
        # target outside the upper aisle
        f = ChainMap.zero(s.normal_form, e.shift(5))
        cone_through_simple(HomClass(f))


def test_cone_through_simple_on_subobject_inclusion(a2):
    # excising a from E recovers the quotient simple b[1]
    s = simple_object(a2, "a")
    e = cone_alpha(a2)
    sp = hom_space(s.normal_form, e, 0)
    res = cone_through_simple(HomClass(sp.basis[0]))
    qmin, _ = minimal_model(res.quotient)
    assert qmin == Complex.single(a2, obj("b"), -1)
    assert res.triangle.verify() == []


def test_cone_through_simple_excision(a2):
    # X: two b-copies over a, differential [alpha, 0]; include the free copy
    x = Complex(a2, {-1: obj("b", "b"), 0: obj("a")},
                {-1: AddMorphism.from_blocks(a2, obj("b", "b"), obj("a"),
                                             [[(1,), None]])})
    s = simple_object(a2, "b")
    f = ChainMap(s.normal_form, x,
                 {-1: AddMorphism.single(a2, obj("b"), obj("b", "b"), 1, 0, (1,))})
    res = cone_through_simple(HomClass(f))
    assert aisle_membership(res.quotient).in_upper
    assert res.triangle.verify() == []
    # quotient matches the minimal cone of f shifted back
    z, _, _ = cone(f)
    zmin, _ = minimal_model(z)
    qmin, _ = minimal_model(res.quotient)
    assert sorted(zmin.terms) == sorted(qmin.terms)
    for i in zmin.terms:
        assert sorted(zmin.term(i).summands) == sorted(qmin.term(i).summands)
    # triangle's first map is the given class
    assert HomClass(res.triangle.f.compose(ChainMap.identity(s.normal_form))) == HomClass(f)


# ------------------------------------------------------- vanishing report

def test_mixed_vanishing_pt(pt):
    rep = mixed_vanishing_report(pt, window=(-4, 4))
    assert rep["vanishing_ok"]
    assert rep["nonzero"] == [
        {"source": "s", "target": "s", "shift": 0, "dim": 1, "allowed": True}]


def test_mixed_vanishing_a2(a2):
    rep = mixed_vanishing_report(a2, window=(-5, 5))
    assert rep["vanishing_ok"]
    cells = {(c["source"], c["target"], c["shift"]): c["dim"] for c in rep["nonzero"]}
    assert cells == {("a", "a", 0): 1, ("b", "b", 0): 1, ("b", "a", 1): 1}


def test_mixed_vanishing_a3(a3):
    rep = mixed_vanishing_report(a3, window=(-5, 5))
    assert rep["vanishing_ok"]
    cells = {(c["source"], c["target"], c["shift"]): c["dim"] for c in rep["nonzero"]}
    assert cells == {
        ("a", "a", 0): 1, ("b", "b", 0): 1, ("c", "c", 0): 1,
        ("b", "a", 1): 1, ("c", "b", 1): 1, ("c", "a", 2): 1,
    }


def test_truncation_exactness_alternating_sums(a3):
    # for a cone triangle, the t-cohomology long sequence forces the
    # per-simple alternating multiplicity sums to vanish
    from koszulkit.randgen import rand_chain_map

    rng = rng_for(47, "trexact")
    for _ in range(10):
        x = rand_complex(a3, rng, amplitude=3)
        y = rand_complex(a3, rng, amplitude=3)
        f = rand_chain_map(x, y, rng)
        z, _, _ = cone(f)
        totals = {s: 0 for s in a3.ids}
        hx, hy, hz = cohomology(x), cohomology(y), cohomology(z)
        for n in range(-8, 9):
            for mult, sign in ((composition_factors(hx[n]), 1),
                               (composition_factors(hy[n]), -1),
                               (composition_factors(hz[n]), 1)):
                for s, m in mult.items():
                    totals[s] += sign * ((-1) ** n) * m
        assert all(v == 0 for v in totals.values()), totals


def test_lower_upper_orthogonality_randomized(a2):
    rng = rng_for(41, "orth")
    for _ in range(25):
        x = rand_complex(a2, rng, amplitude=3)
        y = rand_complex(a2, rng, amplitude=3)
        tx = truncate(x)
        ty = truncate(y)
        # lower part against an object whose shift lies in the upper aisle
        assert hom_space(tx.lower, ty.upper, 0).dimension == 0


def excisions(pres, rng, trials):
    """cone_through_simple of f: S_s -> X, X in the upper aisle, re-presented.

    X sums an upper truncation, an arrow t -> s ending in S_s's slot (deg t
    > deg s, so it is upper) and a contractible cone.  f includes S_s as
    the arrow's end plus a random map into the truncation; the arrow makes
    the connecting map nonzero, and the cone gives the minimal model's iso
    work to do."""
    pairs = [(s, t) for s in pres.ids for t in pres.ids
             if pres.degree[t] > pres.degree[s] and pres.hom_dim(t, s)]
    out = []
    for _ in range(trials):
        s, t = rng.choice(pairs)
        i = -pres.degree[s]
        simple = simple_object(pres, s).normal_form
        arrow = Complex(pres, {i - 1: obj(t), i: obj(s)},
                        {i - 1: rng.choice(hom_basis(pres, obj(t), obj(s))[0])})
        upper = truncate(rand_complex(pres, rng)).upper.shift(1)
        junk, *_ = cone(ChainMap.identity(rand_complex(pres, rng, amplitude=2)))
        x, i_upper, i_arrow, *_ = direct_sum(upper, arrow)
        y, i_x, *_ = direct_sum(x, junk)
        _, fwd, _ = conjugate_complex(y, rng)
        end = ChainMap(simple, arrow, {i: AddMorphism.identity(pres, obj(s))})
        f = i_arrow.compose(end).add(i_upper.compose(rand_chain_map(simple, upper, rng)))
        f = fwd.compose(i_x).compose(f)
        out.append((f, cone_through_simple(HomClass(f))))
    return out


@pytest.mark.parametrize("name", ["FIX_A3", "A5/F10007", "A6/F0"])
def test_a_doubled_map_or_iso_of_an_excision_fails_verify(name):
    """The excision triangle is a split triangle transported along conj ->
    min, then min -> X.  It verifies, its f is the given class, and doubling
    a nonzero f, g or h, or the bwd of either Y-iso or of the split's
    Z-iso, makes verify() fail."""
    pres = load_fixture(name) if name.startswith("FIX") else presentation(name)
    planted = Counter()
    for f, res in excisions(pres, rng_for(30, "excise", name), 12):
        tri = res.triangle
        assert tri.verify() == []
        assert HomClass(tri.f) == HomClass(f)
        for m in "fgh":
            if not getattr(tri, m).is_zero():
                planted[m] += 1
                assert doubled(tri, m).verify() != [], m
        outer = tri.witness
        inner = outer.base.witness
        for w, at in ((outer, "y"), (inner, "y"), (inner.base.witness, "z")):
            iso = getattr(w, f"iso_{at}")
            if iso.bwd.is_zero():
                continue
            planted[at] += 1
            setattr(w, f"iso_{at}", ChainIso(iso.fwd, iso.bwd.scale(2), iso.h_src, iso.h_tgt))
            assert f"transport witness: iso at {at.upper()} fails" in tri.verify()
            setattr(w, f"iso_{at}", iso)
    assert min(planted[k] for k in "fghyz") > 0, planted
