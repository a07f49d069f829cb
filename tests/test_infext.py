from collections import Counter

import pytest

from koszulkit import complexes
from koszulkit.complexes import (
    ChainMap,
    Complex,
    HomClass,
    HomSpace,
    Triangle,
    complete_square,
    cone,
    direct_sum,
    hom_space,
)
from koszulkit.fixtures import FIXTURE_NAMES, load_fixture
from koszulkit.functors import HomogeneousFunctor
from koszulkit.infext import (
    InfExtError,
    InfMorphism,
    adjunction_data,
    complete_inf_square,
    inf_compose,
    inf_invert,
    inf_les_check,
    iota_triangle,
    rho,
    rho_map,
)
from koszulkit.orlov import AddMorphism, obj, spans
from koszulkit.randgen import rand_chain_map, rand_complex, rng_for
from koszulkit.tstructure import truncate
from presentations import PATH_NAMES, WIDE_BLOCK_NAMES, presentation
from test_complexes import typed_comps


@pytest.fixture(scope="module")
def a2():
    return load_fixture("FIX_A2")


def alpha_map(pres):
    x = Complex.single(pres, obj("b"), 0)
    y = Complex.single(pres, obj("a"), 0)
    m = AddMorphism.single(pres, obj("b"), obj("a"), 0, 0, (1,))
    return ChainMap(x, y, {0: m})


def rand_inf(x, y, rng):
    return InfMorphism(HomClass(rand_chain_map(x, y, rng)),
                       HomClass(rand_chain_map(x, y.shift(-1), rng)))


def oracle_compose(g: InfMorphism, f: InfMorphism) -> tuple:
    """Independent hand-expansion of the twisted composition formula,
    computed degreewise on raw components."""
    x, z = f.source, g.target
    comp0 = {}
    for i in set(f.f0.rep.comps) & set(g.f0.rep.comps):
        comp0[i] = g.f0.rep.comps[i].compose(f.f0.rep.comps[i])
    part_a = {}
    for i in f.finf.rep.comps:
        gi = g.f0.rep.component(i - 1 + 1)
        # g0[-1] has component at i equal to g0's component at i - 1 + ... the
        # shift does not reindex chain-map components, only the complexes:
        part_a[i] = g.f0.rep.shift(-1).component(i).compose(f.finf.rep.comps[i])
    part_b = {}
    for i in f.f0.rep.comps:
        part_b[i] = g.finf.rep.component(i).compose(f.f0.rep.comps[i])
    comp1 = {}
    for i in set(part_a) | set(part_b):
        zero = AddMorphism.zero(x.pres, x.term(i), z.shift(-1).term(i))
        comp1[i] = part_a.get(i, zero).add(part_b.get(i, zero))
    return comp0, comp1


# ------------------------------------------------------------- composition

def test_two_infinitesimals_compose_to_zero(a2):
    rng = rng_for(1, "sq0")
    x = rand_complex(a2, rng, amplitude=3)
    y = rand_complex(a2, rng, amplitude=3)
    z = rand_complex(a2, rng, amplitude=3)
    f = InfMorphism.upsilon(HomClass(rand_chain_map(x, y.shift(-1), rng)))
    g = InfMorphism.upsilon(HomClass(rand_chain_map(y, z.shift(-1), rng)))
    h = inf_compose(g, f)
    assert h.f0.is_zero() and h.finf.is_zero()


def test_compose_with_identity(a2):
    rng = rng_for(2, "unit")
    x = rand_complex(a2, rng, amplitude=3)
    y = rand_complex(a2, rng, amplitude=3)
    f = rand_inf(x, y, rng)
    assert inf_compose(InfMorphism.identity(y), f) == f
    assert inf_compose(f, InfMorphism.identity(x)) == f


def test_compose_matches_formula_oracle(a2):
    rng = rng_for(3, "oracle")
    for _ in range(15):
        x = rand_complex(a2, rng, amplitude=2)
        y = rand_complex(a2, rng, amplitude=2)
        z = rand_complex(a2, rng, amplitude=2)
        f = rand_inf(x, y, rng)
        g = rand_inf(y, z, rng)
        got = inf_compose(g, f)
        c0, c1 = oracle_compose(g, f)
        assert got.f0.rep.comps == {i: m for i, m in c0.items() if not m.is_zero()}
        assert got.finf.rep.comps == {i: m for i, m in c1.items() if not m.is_zero()}


def test_compose_associativity_randomized(a2):
    rng = rng_for(4, "assoc")
    for _ in range(60):
        w = rand_complex(a2, rng, amplitude=2)
        x = rand_complex(a2, rng, amplitude=2)
        y = rand_complex(a2, rng, amplitude=2)
        z = rand_complex(a2, rng, amplitude=2)
        f = rand_inf(w, x, rng)
        g = rand_inf(x, y, rng)
        h = rand_inf(y, z, rng)
        lhs = inf_compose(h, inf_compose(g, f))
        rhs = inf_compose(inf_compose(h, g), f)
        assert lhs.f0.rep == rhs.f0.rep and lhs.finf.rep == rhs.finf.rep


def test_upsilon_naturality(a2):
    rng = rng_for(6, "ups")
    for _ in range(10):
        x = rand_complex(a2, rng, amplitude=2)
        y = rand_complex(a2, rng, amplitude=2)
        z = rand_complex(a2, rng, amplitude=2)
        fp = HomClass(rand_chain_map(x, y.shift(-1), rng))
        g = HomClass(rand_chain_map(y, z, rng))
        lhs = inf_compose(InfMorphism.iota(g), InfMorphism.upsilon(fp))
        rhs = InfMorphism.upsilon(g.shift(-1).compose(fp))
        assert lhs == rhs
        h = HomClass(rand_chain_map(z, x, rng))
        lhs2 = inf_compose(InfMorphism.upsilon(fp), InfMorphism.iota(h))
        rhs2 = InfMorphism.upsilon(fp.compose(h))
        assert lhs2 == rhs2


# --------------------------------------------------------------- inversion

def test_invert_identity(a2):
    x = Complex.single(a2, obj("a"), 0)
    ident = InfMorphism.identity(x)
    assert inf_invert(ident) == ident


def test_invert_unipotent_pair(a2):
    rng = rng_for(7, "inv")
    for _ in range(10):
        x = rand_complex(a2, rng, amplitude=3)
        phi = HomClass(rand_chain_map(x, x.shift(-1), rng))
        f = InfMorphism(HomClass.identity(x), phi)
        g = inf_invert(f)
        assert g is not None
        assert g.f0 == HomClass.identity(x)
        assert g.finf == phi.scale(-1)


def test_infinitesimal_never_invertible(a2):
    x = Complex.single(a2, obj("a"), 0)
    phi = HomClass.zero(x, x.shift(-1))
    assert inf_invert(InfMorphism.upsilon(phi)) is None
    # and with a nonzero infinitesimal part on a two-term object
    z, _, _ = cone(alpha_map(a2))
    sp = hom_space(z, z, -1)
    if sp.dimension:
        assert inf_invert(InfMorphism.upsilon(HomClass(sp.basis[0]))) is None


# --------------------------------------------------------------------- rho

def rho_image(f: InfMorphism) -> HomClass:
    """rho_map with rho of f's source and target built here."""
    return rho_map(f, rho(f.source), rho(f.target))


def test_rho_of_identity(a2):
    x = Complex.single(a2, obj("a"), 0)
    assert rho_image(InfMorphism.identity(x)) == HomClass.identity(rho(x)[0])


def test_rho_of_zero_complex(a2):
    z = Complex.zero(a2)
    assert rho(z)[0].is_zero


def test_rho_functoriality_randomized(a2):
    rng = rng_for(9, "rho")
    pool = [rand_complex(a2, rng, amplitude=2) for _ in range(6)]
    for _ in range(200):
        x, y, z = (rng.choice(pool) for _ in range(3))
        g, f = rand_inf(y, z, rng), rand_inf(x, y, rng)
        assert rho_image(inf_compose(g, f)) == rho_image(g).compose(rho_image(f))


def rho_map_reference(f: InfMorphism) -> HomClass:
    """The matrix [[f0, 0], [f', f0[-1]]] : rho(X) -> rho(Y), assembled
    block by block in each degree i from f0^i, f'^i and f0^{i-1}, on the
    layout X^i + X^{i-1} of rho(X)^i; rho is used for its complexes only."""
    x, y = f.source, f.target
    rx, ry = rho(x)[0], rho(y)[0]
    f0, finf = f.f0.rep.comps, f.finf.rep.comps
    comps = {}
    for i, t in rx.terms.items():
        if i in ry.terms:
            x1, x2 = spans(x.term(i), x.term(i - 1))
            y1, y2 = spans(y.term(i), y.term(i - 1))
            pieces = [(rows, cols, m) for rows, cols, m in (
                (y1, x1, f0.get(i)), (y2, x1, finf.get(i)), (y2, x2, f0.get(i - 1)))
                if m is not None]
            if pieces:
                comps[i] = AddMorphism.assemble(x.pres, t, ry.terms[i], pieces)
    return HomClass(ChainMap(rx, ry, comps, check=False))


@pytest.mark.parametrize("name", [*(n for n in FIXTURE_NAMES if n != "FIX_BAD"),
                                  *PATH_NAMES, *WIDE_BLOCK_NAMES])
def test_rho_map_matches_the_canonical_maps(name):
    """rho_map, the composite through rho's canonical maps, re-indexes the
    blocks of f0 and f': the same values, of the same types, as the block
    assembly of the reference."""
    pres = presentation(name)
    rng = rng_for(43, "rho-map", name)
    nonzero = 0
    for _ in range(12):
        x, y = (rand_complex(pres, rng, amplitude=3) for _ in "xy")
        for m in (rand_inf(x, y, rng), InfMorphism.identity(x),
                  InfMorphism.iota(HomClass.zero(x, y)),
                  InfMorphism.upsilon(HomClass(rand_chain_map(x, y.shift(-1), rng)))):
            got = rho_image(m).rep
            assert typed_comps(got) == typed_comps(rho_map_reference(m).rep)
            assert got.source == rho(m.source)[0] and got.target == rho(m.target)[0]
            nonzero += not got.is_zero()
    assert nonzero >= 6


# ------------------------------------------------------------- adjunctions

def test_adjunction_identities_on_point(a2):
    x = Complex.single(a2, obj("a"), 0)
    rep = adjunction_data(x)
    assert rep["ok"], rep["checks"]


def test_adjunction_identities_on_zero(a2):
    rep = adjunction_data(Complex.zero(a2))
    assert rep["ok"]


def test_adjunction_identities_on_cone(a2):
    z, _, _ = cone(alpha_map(a2))
    rep = adjunction_data(z)
    assert rep["ok"], rep["checks"]


@pytest.mark.parametrize("name", ["FIX_A2", "A5/F10007", "A6/F0"])
def test_adjunction_data_lays_out_three_sums(name, monkeypatch):
    """rho(X), rho(rho X) and rho(rho X [1]) are laid out once each, and
    both rho_map calls compose through them: three stacked sums per call."""
    pres = presentation(name)
    rng = rng_for(44, "adjunction-sums", name)
    stack, calls = complexes._stack, Counter()

    def counting(a, b):
        calls["stack"] += 1
        return stack(a, b)

    monkeypatch.setattr(complexes, "_stack", counting)
    for _ in range(6):
        x = rand_complex(pres, rng, amplitude=3)
        calls.clear()
        assert adjunction_data(x)["ok"]
        assert calls["stack"] == 3


# ----------------------------------------------------------------- triangles

def test_iota_triangle_verifies(a2):
    tri = iota_triangle(Triangle.from_cone(alpha_map(a2)))
    assert tri.verify() == []


@pytest.mark.parametrize("m,name", [("m1", "f"), ("m2", "g"), ("m3", "h")])
def test_a_doubled_map_fails_its_witness_square(a2, m, name):
    tri = iota_triangle(Triangle.from_cone(alpha_map(a2)))
    doubled = getattr(tri, m)
    setattr(tri, m, InfMorphism(doubled.f0.scale(2), doubled.finf))
    assert tri.verify() == [f"map {name} is not the image of its base map"]


@pytest.mark.parametrize("name", ["FIX_A2", "FIX_A3"])
def test_iota_triangle_verify_builds_no_hom_space(name, monkeypatch):
    """An infinitesimal triangle is the iota image of a certified triangle:
    its check is the base certificate and three equalities of stored
    representatives, none of which eliminates."""
    pres = load_fixture(name)
    rng = rng_for(30, "iota", name)
    init, builds = HomSpace.__init__, Counter()

    def counting(self, *args):
        builds["spaces"] += 1
        init(self, *args)

    for _ in range(6):
        x, y = rand_complex(pres, rng, amplitude=3), rand_complex(pres, rng, amplitude=3)
        for base in (Triangle.from_cone(rand_chain_map(x, y, rng)), truncate(x).triangle):
            tri = iota_triangle(base)
            with monkeypatch.context() as m:
                m.setattr(HomSpace, "__init__", counting)
                assert tri.verify() == []
    assert builds["spaces"] == 0


def test_les_on_split_triangle(a2):
    x = Complex.single(a2, obj("a"), 0)
    y = Complex.single(a2, obj("b"), -1)
    s, ix, iy, px, py = direct_sum(x, y)
    tri = iota_triangle(Triangle.from_cone(ix))
    rep = inf_les_check(y, tri, window=(-2, 2))
    assert rep["ok"], rep


def test_les_on_cone_alpha_triangle(a2):
    tri = iota_triangle(Triangle.from_cone(alpha_map(a2)))
    a_obj = Complex.single(a2, obj("a"), 0)
    rep = inf_les_check(a_obj, tri, window=(-2, 2))
    assert rep["ok"], rep


def test_les_with_zero_test_object(a2):
    tri = iota_triangle(Triangle.from_cone(alpha_map(a2)))
    rep = inf_les_check(Complex.zero(a2), tri, window=(-1, 1))
    assert rep["ok"]



@pytest.mark.parametrize("window", [(1, 0), (3, -3)], ids=["1..0", "3..-3"])
def test_les_refuses_an_empty_window(a2, window):
    # an empty window has no node, so it would pass while checking nothing
    tri = iota_triangle(Triangle.from_cone(alpha_map(a2)))
    with pytest.raises(InfExtError, match="empty window"):
        inf_les_check(Complex.single(a2, obj("a"), 0), tri, window=window)


# --------------------------------------------------------- square completion

def test_complete_inf_square_identity(a2):
    f = InfMorphism.iota(HomClass(alpha_map(a2)))
    rep = complete_inf_square(InfMorphism.identity(f.source),
                              InfMorphism.identity(f.target), f, f)
    assert rep["squares_ok"]
    assert rep["r_invertible"]
    assert rep["r"] == InfMorphism.identity(rep["r"].source)


def test_complete_inf_square_infinitesimal_verticals(a2):
    rng = rng_for(10, "infsq")
    f = InfMorphism.iota(HomClass(alpha_map(a2)))
    x, y = f.source, f.target
    # infinitesimal verticals commuting with f: q' f0 = 0 = i0[-1] p' needs
    # compatible choices; p' = 0 with arbitrary q' such that q' f0 = 0
    for _ in range(5):
        qprime = HomClass(rand_chain_map(y, y.shift(-1), rng))
        if not qprime.compose(HomClass(alpha_map(a2))).is_zero():
            continue
        p = InfMorphism.iota(HomClass.zero(x, x))
        q = InfMorphism.upsilon(qprime)
        if inf_compose(q, f) != inf_compose(f, p):
            continue
        rep = complete_inf_square(p, q, f, f)
        assert rep["squares_ok"]
        assert rep["r_invertible"] is None   # verticals not invertible


def test_complete_inf_square_random_invertible(a2):
    rng = rng_for(11, "invsq")
    f = InfMorphism.iota(HomClass(alpha_map(a2)))
    x, y = f.source, f.target
    done = 0
    for _ in range(20):
        pinf = HomClass(rand_chain_map(x, x.shift(-1), rng))
        qinf = HomClass(rand_chain_map(y, y.shift(-1), rng))
        p = InfMorphism(HomClass.identity(x), pinf)
        q = InfMorphism(HomClass.identity(y), qinf)
        if inf_compose(q, f) != inf_compose(f, p):
            continue
        rep = complete_inf_square(p, q, f, f)
        assert rep["r_invertible"]
        done += 1
    assert done > 0


def complete_inf_square_reference(p, q, f, i2):
    """r = (r0, r') with r' completed into cone(i0[-1]) and carried to
    cone(i0)[-1] by the sign map sigma, -1 on the X'-part and 1 on the
    Y'-part."""
    f0, i0 = f.f0.rep, i2.f0.rep
    r0, _ = complete_square(f0, i0, p.f0.rep, q.f0.rep)
    i0m = i0.shift(-1)
    rprime, _ = complete_square(f0, i0m, p.finf.rep, q.finf.rep)
    pres = f0.source.pres
    zim, _, _ = cone(i0m)
    zi_m1 = cone(i0)[0].shift(-1)
    sign = {}
    for k in zim.terms:
        a, b = i0m.source.term(k + 1), i0m.target.term(k)
        apos, bpos = spans(a, b)
        sign[k] = AddMorphism.assemble(pres, zim.term(k), zi_m1.term(k), [
            (apos, apos, AddMorphism.identity(pres, a).scale(-1)),
            (bpos, bpos, AddMorphism.identity(pres, b))])
    sigma = ChainMap(zim, zi_m1, sign)
    return InfMorphism(HomClass(r0), HomClass(sigma.compose(rprime)))


@pytest.mark.parametrize("name", ["FIX_A2", "FIX_A3", "A5/F10007", "A6/F0"])
def test_complete_inf_square_matches_the_sign_map_reference(name):
    """On squares q f = i2 p whose verticals have nonzero infinitesimal
    parts, r' is the reference's sigma o r' on the nose.  p = t f and
    q = i2 t for t: X -> X[1] with t' an endomorphism of X, and the draws
    with p' or q' zero are skipped; a random boundary added to q' makes the second square
    commute only up to a homotopy."""
    pres = load_fixture(name) if name in FIXTURE_NAMES else presentation(name)
    fld, rng = pres.field, rng_for(30, "infsq", name)

    def endo(z):
        scalar = ChainMap.identity(z).scale(fld.of(rng.randint(1, 3)))
        return scalar.add(rand_chain_map(z, z, rng))

    seen = Counter()
    for _ in range(16):
        x = rand_complex(pres, rng, amplitude=4)
        f = InfMorphism.iota(HomClass(endo(x)))
        i2 = InfMorphism.iota(HomClass(endo(x.shift(1))))
        t = InfMorphism(HomClass(rand_chain_map(x, x.shift(1), rng)), HomClass(endo(x)))
        p, q = inf_compose(t, f), inf_compose(i2, t)
        sp = hom_space(x, x, 0)
        bump = sp._vector_to_homotopy([fld.of(rng.randint(-2, 2)) for _ in range(sp.h_total)])
        q = InfMorphism(q.f0, HomClass(q.finf.rep.add(bump.boundary())))
        if p.finf.is_zero() or q.finf.is_zero():
            continue
        rep = complete_inf_square(p, q, f, i2)
        ref = complete_inf_square_reference(p, q, f, i2)
        assert rep["r"].f0.rep == ref.f0.rep and rep["r"].finf.rep == ref.finf.rep
        assert rep["squares_ok"]
        seen["squares"] += 1
        seen["homotopy"] += not bump.boundary().compose(f.f0.rep).is_zero()
    assert seen["squares"] >= 10 and seen["homotopy"] > 0, seen


def test_complete_inf_square_rejects_non_commuting(a2):
    f = InfMorphism.iota(HomClass(alpha_map(a2)))
    x, y = f.source, f.target
    with pytest.raises(InfExtError):
        complete_inf_square(InfMorphism.identity(x), InfMorphism.iota(HomClass.zero(y, y)), f, f)


# ---------------------------------------------------------------- functors

def test_zero_functor_everything_zero(a2):
    from koszulkit.orlov import AddObject

    obj_map = {iid: AddObject(()) for iid in a2.ids}
    hom_map = {lab: AddMorphism.zero(a2, AddObject(()), AddObject(()))
               for lab in a2.label_pair}
    functor = HomogeneousFunctor(a2, a2, obj_map, hom_map)
    rng = rng_for(14, "zero")
    x = rand_complex(a2, rng)
    assert functor.on_complex(x).is_zero
