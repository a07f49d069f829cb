from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from koszulkit import functors, randgen
from koszulkit.complexes import (
    ChainMap,
    Complex,
    ComplexError,
    HomClass,
    cone,
    direct_sum,
    hom_space,
    minimal_model,
)
from koszulkit.fixtures import load_fixture
from koszulkit.fixtures import FIXTURE_NAMES
from koszulkit.functors import (
    FunctorError,
    HomogeneousFunctor,
    NatTrans,
    adjunction_check,
    diagonal_fold,
    extend_nat_trans,
    nat_trans_uniqueness_probe,
)
from koszulkit.orlov import AddMorphism, obj
from koszulkit.randgen import rand_chain_map, rand_complex, rng_for
from presentations import PATH_NAMES, QUIVER_NAMES, presentation
import probe_reference as ref


@pytest.fixture(scope="module")
def a2():
    return load_fixture("FIX_A2")


@pytest.fixture(scope="module")
def a3():
    return load_fixture("FIX_A3")


def scaling_functor(pres, c=2):
    """Identity on objects, h -> c^(deg s - deg t) h for h: s -> t; on A2,
    alpha -> c * alpha."""
    base = HomogeneousFunctor.identity(pres)
    hom_map = {lab: base.hom_map[lab].scale(pres.field.of(Fraction(c) ** (
        pres.degree[s] - pres.degree[t]))) for lab, (s, t) in pres.label_pair.items()}
    return HomogeneousFunctor(pres, pres, base.obj_map, hom_map)


def doubling_functor(pres):
    """s -> s + s and h -> diag(h, h): every image slice is two summands wide."""
    obj_map = {iid: obj(iid, iid) for iid in pres.ids}
    hom_map = {lab: AddMorphism.from_blocks(pres, obj(s, s), obj(t, t), [
        [pres.coords(lab), None], [None, pres.coords(lab)]])
        for lab, (s, t) in pres.label_pair.items()}
    return HomogeneousFunctor(pres, pres, obj_map, hom_map)


def alpha_map(pres):
    x = Complex.single(pres, obj("b"), 0)
    y = Complex.single(pres, obj("a"), 0)
    m = AddMorphism.single(pres, obj("b"), obj("a"), 0, 0, (1,))
    return ChainMap(x, y, {0: m})


def cone_alpha(pres):
    z, _, _ = cone(alpha_map(pres))
    return z


# ---------------------------------------------------------------- functors

def test_identity_functor_fixes_complexes(a2):
    f = HomogeneousFunctor.identity(a2)
    x = cone_alpha(a2)
    assert f.on_complex(x) == x


def test_scaling_functor_rescales_cone(a2):
    f = scaling_functor(a2, 2)
    x = cone_alpha(a2)
    fx = f.on_complex(x)
    assert fx.term(-1) == obj("b") and fx.term(0) == obj("a")
    assert fx.d(-1).blocks[0][0] == (a2.field.of(2),)
    # hom tables unchanged: cone(alpha) and cone(2 alpha) are isomorphic
    assert hom_space(x, fx, 0).dimension == hom_space(x, x, 0).dimension


def test_doubling_objects_functor(a2):
    obj_map = {"a": obj("a", "a"), "b": obj("b", "b")}
    hom_map = {
        "alpha": AddMorphism.from_blocks(
            a2, obj("b", "b"), obj("a", "a"),
            [[(1,), None], [None, (1,)]]),
    }
    f = HomogeneousFunctor(a2, a2, obj_map, hom_map)
    x = cone_alpha(a2)
    fx = f.on_complex(x)
    assert fx.term(-1) == obj("b", "b") and fx.term(0) == obj("a", "a")
    mfx, _ = minimal_model(fx)
    assert mfx == fx


def test_functor_rejects_non_homogeneous(a2):
    obj_map = {"a": obj("b"), "b": obj("b")}   # degree 0 object sent to degree 1
    with pytest.raises(FunctorError):
        HomogeneousFunctor(a2, a2, obj_map, {})


def test_functor_rejects_broken_composition(a3):
    base = HomogeneousFunctor.identity(a3)
    hom_map = dict(base.hom_map)
    hom_map["gamma"] = hom_map["gamma"].scale(5)   # breaks F(alpha o beta)
    with pytest.raises(FunctorError):
        HomogeneousFunctor(a3, a3, base.obj_map, hom_map)


def test_functoriality_on_random_chain_maps(a3):
    f = HomogeneousFunctor.identity(a3)
    rng = rng_for(11, "func")
    for _ in range(15):
        x = rand_complex(a3, rng, amplitude=3)
        y = rand_complex(a3, rng, amplitude=3)
        g1 = rand_chain_map(x, y, rng)
        z = rand_complex(a3, rng, amplitude=3)
        g2 = rand_chain_map(y, z, rng)
        assert f.on_chain_map(g2.compose(g1)) == f.on_chain_map(g2).compose(f.on_chain_map(g1))


def test_functor_commutes_with_cone_and_shift(a2):
    f = scaling_functor(a2, 3)
    g = alpha_map(a2)
    z, _, _ = cone(g)
    fz = f.on_complex(z)
    zf, _, _ = cone(f.on_chain_map(g))
    assert fz == zf
    assert f.on_complex(z.shift(4)) == fz.shift(4)


# -------------------------------------------------------------- nat trans

def test_extend_identity_nat_trans(a2):
    f = HomogeneousFunctor.identity(a2)
    theta = NatTrans(f, f, {iid: AddMorphism.identity(a2, obj(iid)) for iid in a2.ids})
    x = cone_alpha(a2)
    ext = extend_nat_trans(theta, x)
    assert ext == HomClass.identity(x)


def test_extend_scaling_nat_trans_invertible(a2):
    # (id_a, 2 id_b) is natural from the scaling functor to the identity:
    # id_a o (2 alpha) = alpha o (2 id_b)
    f = scaling_functor(a2, 2)
    g = HomogeneousFunctor.identity(a2)
    theta = NatTrans(f, g, {
        "a": AddMorphism.identity(a2, obj("a")),
        "b": AddMorphism.identity(a2, obj("b")).scale(2),
    })
    x = cone_alpha(a2)
    ext = extend_nat_trans(theta, x)
    assert ext.rep.verify()
    inv = extend_nat_trans(theta.inverse(), x)
    assert inv.compose(ext) == HomClass.identity(f.on_complex(x))
    assert ext.compose(inv) == HomClass.identity(g.on_complex(x))


def test_extend_zero_nat_trans(a2):
    f = HomogeneousFunctor.identity(a2)
    theta = NatTrans(f, f, {iid: AddMorphism.zero(a2, obj(iid), obj(iid))
                            for iid in a2.ids})
    x = cone_alpha(a2)
    assert extend_nat_trans(theta, x).is_zero()
    with pytest.raises(FunctorError, match="not an isomorphism"):
        theta.inverse()


def test_nat_trans_rejects_non_natural(a2):
    f = HomogeneousFunctor.identity(a2)
    g = scaling_functor(a2, 2)
    with pytest.raises(FunctorError):
        NatTrans(f, g, {iid: AddMorphism.identity(a2, obj(iid)) for iid in a2.ids})


# ------------------------------------------------------- uniqueness probe

def test_probe_single_term(a2):
    f = HomogeneousFunctor.identity(a2)
    theta = NatTrans(f, f, {iid: AddMorphism.identity(a2, obj(iid)) for iid in a2.ids})
    x = Complex.single(a2, obj("a", "b"), 0)
    rep = nat_trans_uniqueness_probe(theta, x, orders=5, seed=1)
    assert rep["ok"]


def probe_case(pres, same):
    """theta: F => F (3 times the identity functor's identity) or theta:
    F => G (the scaling functor to the identity), and cone(alpha) + a[2]."""
    if same:
        f = g = HomogeneousFunctor.identity(pres)
        comps = {iid: AddMorphism.identity(pres, obj(iid)).scale(3) for iid in pres.ids}
    else:
        f, g = scaling_functor(pres, 2), HomogeneousFunctor.identity(pres)
        comps = {"a": AddMorphism.identity(pres, obj("a")),
                 "b": AddMorphism.identity(pres, obj("b")).scale(2)}
    x, *_ = direct_sum(cone_alpha(pres), Complex.single(pres, obj("a"), -2))
    return NatTrans(f, g, comps), x


def test_probe_cone_plus_shifted_point(a2):
    theta, x = probe_case(a2, same=False)
    rep = nat_trans_uniqueness_probe(theta, x, orders=8, seed=2)
    assert rep["ok"]


@pytest.mark.parametrize("orders", [0, -2])
def test_probe_refuses_fewer_than_one_order(a2, orders):
    theta, x = probe_case(a2, same=True)
    with pytest.raises(FunctorError, match=f"^orders must be at least 1, got {orders}$"):
        nat_trans_uniqueness_probe(theta, x, orders=orders)
    assert nat_trans_uniqueness_probe(theta, x, orders=1)["orders"] == 1


@pytest.mark.parametrize("same", [True, False], ids=["F=>F", "F=>G"])
def test_probe_disagrees_with_a_wrong_route(a2, monkeypatch, same):
    """Negative control: a route that doubles theta disagrees on every
    order, also when F and G are one functor and share their images."""
    theta, x = probe_case(a2, same)
    assert ref.nat_trans_uniqueness_probe(theta, x, orders=5, seed=4)["ok"]
    route, depth = ref._theta_via_extraction, []

    def doubled(th, c):         # the recursion goes through this name too
        depth.append(c)
        try:
            out = route(th, c)
        finally:
            depth.pop()
        return out if depth else out.scale(2)

    monkeypatch.setattr(ref, "_theta_via_extraction", doubled)
    rep = ref.nat_trans_uniqueness_probe(theta, x, orders=5, seed=4)
    assert rep == {"orders": 5, "disagreements": 5, "ok": False}


def test_extraction_route_applies_a_shared_functor_once(a2, a3, monkeypatch):
    """Per extraction node, theta: F => F applies F to one chain map (delta)
    and theta: F => G applies F and G to it.  Each call of the route maps
    its complex once per functor, and nothing else: the endpoints of delta
    are the images the recursion returns."""
    counts = Counter()
    on_chain_map, on_complex = HomogeneousFunctor.on_chain_map, HomogeneousFunctor.on_complex
    extraction, route = ref.top_extraction, ref._theta_via_extraction

    def counting(self, f, source=None, target=None):
        counts["maps"] += 1
        return on_chain_map(self, f, source, target)

    def counting_complexes(self, x):
        counts["complexes"] += 1
        return on_complex(self, x)

    def extracting(x):
        counts["nodes"] += 1
        return extraction(x)

    def routing(th, x):         # the recursion goes through this name too
        counts["calls"] += 1
        return route(th, x)

    monkeypatch.setattr(HomogeneousFunctor, "on_chain_map", counting)
    monkeypatch.setattr(HomogeneousFunctor, "on_complex", counting_complexes)
    monkeypatch.setattr(ref, "top_extraction", extracting)
    monkeypatch.setattr(ref, "_theta_via_extraction", routing)
    rng = rng_for(53, "shared functor")
    ident = HomogeneousFunctor.identity(a3)
    theta3 = NatTrans(ident, ident, {iid: AddMorphism.identity(a3, obj(iid)).scale(3)
                                     for iid in a3.ids})
    cases = [(*probe_case(a2, True), 1), (*probe_case(a2, False), 2)]
    cases += [(theta3, rand_complex(a3, rng, amplitude=4), 1) for _ in range(6)]
    nodes = 0
    for theta, x, per_node in cases:
        counts.clear()
        got = ref._theta_via_extraction(theta, x)
        assert counts["maps"] == per_node * counts["nodes"]
        assert counts["complexes"] == per_node * counts["calls"]
        assert HomClass(got) == functors.extend_nat_trans(theta, x)
        nodes += counts["nodes"]
    assert nodes >= 10


# ----------------------------------------- extraction route: references

ROUTE_NAMES = ["FIX_A2", "FIX_A3", *QUIVER_NAMES]


def route_thetas(pres):
    """theta: F => F, F => G (the scaling functor to the identity), D => D
    and Id => D for the doubling functor D.  D's components are not
    multiples of the identity on its two-summand slices."""
    ident, doubled = HomogeneousFunctor.identity(pres), doubling_functor(pres)

    def grid(s, source, target, entries):
        return AddMorphism.assemble(pres, source, target, [
            ([r], [c], AddMorphism.identity(pres, obj(s)).scale(v)) for r, c, v in entries])

    return {
        "F=>F": NatTrans(ident, ident, {s: grid(s, obj(s), obj(s), [(0, 0, 3)])
                                        for s in pres.ids}),
        "F=>G": NatTrans(scaling_functor(pres, 2), ident, {
            s: grid(s, obj(s), obj(s), [(0, 0, Fraction(2) ** pres.degree[s])])
            for s in pres.ids}),
        "D=>D": NatTrans(doubled, doubled, {
            s: grid(s, obj(s, s), obj(s, s), [(0, 0, 1), (0, 1, 2), (1, 1, 3)])
            for s in pres.ids}),
        "Id=>D": NatTrans(ident, doubled, {
            s: grid(s, obj(s), obj(s, s), [(0, 0, 1), (1, 0, 2)]) for s in pres.ids}),
    }


def route_inputs(name):
    """Seeded complexes over ``name``; on A2 also cone(alpha) + a[2] and
    cone(alpha) + cone(alpha), whose terms repeat a summand."""
    pres = presentation(name)
    rng = rng_for(61, "route", name)
    xs = [rand_complex(pres, rng, amplitude=4) for _ in range(4)]
    if name == "FIX_A2":
        xs += [probe_case(pres, True)[1], direct_sum(cone_alpha(pres), cone_alpha(pres))[0]]
    return pres, xs


def extraction_nodes(monkeypatch, theta, x):
    """theta_x by the extraction route, and per extraction node its complex,
    its result, the arguments (f, i2, p, q) of its square and the square's r."""
    route, square = ref._theta_via_extraction, ref.complete_square
    squares, nodes = [], []

    def recording_square(*args):
        out = square(*args)
        squares.append((args, out[0]))
        return out

    def recording_route(th, c):
        before = len(squares)
        out = route(th, c)
        if len(squares) > before:   # a leaf completes no square; a node's own comes last
            nodes.append((c, out, *squares[-1]))
        return out

    with monkeypatch.context() as m:
        m.setattr(ref, "complete_square", recording_square)
        m.setattr(ref, "_theta_via_extraction", recording_route)
        return ref._theta_via_extraction(theta, x), nodes


@pytest.mark.parametrize("name", ROUTE_NAMES)
def test_extraction_nodes_reuse_the_images_on_complex_gives(monkeypatch, name):
    """Reference: at every extraction node, F(delta) and G(delta) run
    between on_complex of delta's endpoints and equal on_chain_map(delta),
    and theta_x runs from on_complex of x under F to its image under G."""
    pres, xs = route_inputs(name)
    nodes = 0
    for theta in route_thetas(pres).values():
        F, G = theta.F, theta.G
        for x in xs:
            got, recorded = extraction_nodes(monkeypatch, theta, x)
            assert HomClass(got) == extend_nat_trans(theta, x)
            for c, out, (f, i2, _, _), _ in recorded:
                delta = ref.top_extraction(c).delta
                for functor, image in ((F, f), (G, i2)):
                    assert image.source == functor.on_complex(delta.source)
                    assert image.target == functor.on_complex(delta.target)
                    assert image == functor.on_chain_map(delta)
                assert (out.source, out.target) == (F.on_complex(c), G.on_complex(c))
            nodes += len(recorded)
    assert nodes >= 8


@pytest.mark.parametrize("name", ROUTE_NAMES)
def test_reindexed_theta_is_the_transport_along_the_reordering(monkeypatch, name):
    """Reference: theta_x, read off r by re-indexing, is the composite
    G(reorder) o r o F(reorder^-1) that the route used to form."""
    pres, xs = route_inputs(name)
    nodes = 0
    for theta in route_thetas(pres).values():
        for x in xs:
            for c, out, _, r in extraction_nodes(monkeypatch, theta, x)[1]:
                te = ref.top_extraction(c)
                rho_g, rho_f_inv = (theta.G.on_chain_map(te.reorder),
                                    theta.F.on_chain_map(te.reorder_inv))
                assert out == rho_g.compose(r).compose(rho_f_inv)
                nodes += 1
    assert nodes >= 8


@pytest.mark.parametrize("name", ["FIX_A2", "FIX_A3", "quiver0/F0", "quiver3/F10007"])
def test_probe_hands_on_chain_map_the_images_of_its_endpoints(monkeypatch, name):
    """Every chain map the probe maps, delta and the conjugations fwd and
    bwd, comes with endpoints equal to on_complex of its own endpoints."""
    on_chain_map, given = HomogeneousFunctor.on_chain_map, Counter()

    def checking(self, f, source=None, target=None):
        assert source is not None and target is not None
        assert (source, target) == (self.on_complex(f.source), self.on_complex(f.target))
        given[f.source == f.target] += 1
        return on_chain_map(self, f, source, target)

    monkeypatch.setattr(HomogeneousFunctor, "on_chain_map", checking)
    pres, xs = route_inputs(name)
    for theta in route_thetas(pres).values():
        for x in xs:
            assert ref.nat_trans_uniqueness_probe(theta, x, orders=3, seed=5)["ok"]
    assert given[True] > 0 and given[False] > 0


def swapping_f_slices(theta):
    """theta with F's slices of the first two equal summands of each term
    swapped, as :func:`probe_reference._transport` reads them."""
    def slices(term):
        out = list(theta.F._slices(term))
        pairs = [(i, j) for j in range(len(term)) for i in range(j) if term[i] == term[j]]
        if pairs:
            i, j = pairs[0]
            out[i], out[j] = out[j], out[i]
        return out

    return SimpleNamespace(F=SimpleNamespace(_slices=slices, target=theta.F.target), G=theta.G)


def test_probe_disagrees_with_a_transport_that_swaps_two_f_slices(a2, monkeypatch):
    """Negative control: re-indexing with two F-slices swapped disagrees."""
    x, *_ = direct_sum(cone_alpha(a2), cone_alpha(a2))
    transport = ref._transport
    for theta in route_thetas(a2).values():
        assert ref.nat_trans_uniqueness_probe(theta, x, orders=4, seed=3)["ok"]
        with monkeypatch.context() as m:
            m.setattr(ref, "_transport",
                      lambda th, *args: transport(swapping_f_slices(th), *args))
            rep = ref.nat_trans_uniqueness_probe(theta, x, orders=4, seed=3)
        assert rep["disagreements"] > 0, rep


@pytest.mark.parametrize("name", ROUTE_NAMES)
def test_a_wrong_image_is_refused(monkeypatch, name):
    """Negative control: F is handed G's images of a chain map's endpoints.
    Wherever that changes an image, the chain-map check refuses the map or
    the probe disagrees."""
    on_chain_map, changed, refused = HomogeneousFunctor.on_chain_map, [], 0
    pres, xs = route_inputs(name)
    for label, theta in route_thetas(pres).items():
        if theta.F is theta.G:
            continue

        def wrong(self, f, source=None, target=None):
            if self is theta.F:
                images = theta.G.on_complex(f.source), theta.G.on_complex(f.target)
                changed.append(images != (source, target))
                source, target = images
            return on_chain_map(self, f, source, target)

        for x in xs:
            changed.clear()
            with monkeypatch.context() as m:
                m.setattr(HomogeneousFunctor, "on_chain_map", wrong)
                try:
                    rep = ref.nat_trans_uniqueness_probe(theta, x, orders=3, seed=6)
                except ComplexError:
                    assert any(changed), (label, x)
                    refused += 1
                    continue
            assert not any(changed) or rep["disagreements"] > 0, (label, x)
    assert refused > 0


# ------------------------------------ the probe against its reference

def functor_suite_cases():
    """The two theta of acceptance criterion 10 with its probe inputs:
    twice the identity of the identity functor on each fixture, and the
    scaling functor to the identity on FIX_A2."""
    seed = 20240809
    for name in ("FIX_PT", "FIX_A2", "FIX_A3"):
        pres = load_fixture(name)
        ident = HomogeneousFunctor.identity(pres)
        theta = NatTrans(ident, ident, {
            iid: AddMorphism.identity(pres, obj(iid)).scale(2) for iid in pres.ids})
        rng = rng_for(seed, "functor", name)
        for _ in range(4):          # three extension inputs, then the probe's
            x = rand_complex(pres, rng, amplitude=3)
        yield theta, x
    a2 = load_fixture("FIX_A2")
    theta2 = NatTrans(scaling_functor(a2, 2), HomogeneousFunctor.identity(a2), {
        "a": AddMorphism.identity(a2, obj("a")),
        "b": AddMorphism.identity(a2, obj("b")).scale(2)})
    yield theta2, rand_complex(a2, rng_for(seed, "functor-a2"), amplitude=3)


def probe_report_cases(name):
    if name == "functor suite":
        return list(functor_suite_cases())
    pres, xs = route_inputs(name)
    return [(theta, x) for theta in route_thetas(pres).values() for x in xs]


@pytest.mark.parametrize("name", [*ROUTE_NAMES, "functor suite"])
def test_probe_is_the_reference_report(name):
    """The probe's constant report is the report of the rebuild it replaced."""
    cases = probe_report_cases(name)
    for theta, x in cases:
        for orders in (1, 3):
            for seed in (0, 5):
                want = ref.nat_trans_uniqueness_probe(theta, x, orders=orders, seed=seed)
                assert nat_trans_uniqueness_probe(theta, x, orders=orders, seed=seed) == want
                assert want == {"orders": orders, "disagreements": 0, "ok": True}
    assert len(cases) >= 4


@pytest.mark.parametrize("name", ["FIX_A2", "FIX_A3", "quiver0/F0"])
def test_probe_maps_no_chain_map_and_draws_no_conjugate(monkeypatch, name):
    """The probe builds the direct extension alone: it applies no functor to
    a chain map and re-presents no complex."""
    calls = Counter()
    on_chain_map, conjugate = HomogeneousFunctor.on_chain_map, randgen.conjugate_complex

    def mapping(self, f, source=None, target=None):
        calls["on_chain_map"] += 1
        return on_chain_map(self, f, source, target)

    def conjugating(x, rng):
        calls["conjugate_complex"] += 1
        return conjugate(x, rng)

    monkeypatch.setattr(HomogeneousFunctor, "on_chain_map", mapping)
    monkeypatch.setattr(randgen, "conjugate_complex", conjugating)
    monkeypatch.setattr(functors, "conjugate_complex", conjugating, raising=False)
    monkeypatch.setattr(ref, "conjugate_complex", conjugating)
    pres, xs = route_inputs(name)
    thetas = route_thetas(pres).values()
    for theta in thetas:
        for x in xs:
            assert nat_trans_uniqueness_probe(theta, x, orders=3, seed=5)["ok"]
    assert calls == Counter()
    for theta in thetas:                        # the counters see the rebuild's calls
        assert ref.nat_trans_uniqueness_probe(theta, xs[0], orders=3, seed=5)["ok"]
    assert calls["on_chain_map"] > 0 and calls["conjugate_complex"] > 0


def test_probe_refuses_what_the_reference_refuses(a2, a3):
    """Bad input is refused by the direct extension, before any route: a
    complex over another presentation, and a transformation that is not
    natural, built with its check off, whose termwise extension is no chain
    map."""
    ident = HomogeneousFunctor.identity(a2)
    theta = NatTrans(ident, ident, {s: AddMorphism.identity(a2, obj(s)).scale(3)
                                    for s in a2.ids})
    unnatural = NatTrans(ident, scaling_functor(a2, 2), {
        s: AddMorphism.identity(a2, obj(s)) for s in a2.ids}, check=False)
    assert unnatural.validate() == ["naturality fails on alpha"]
    cases = [(theta, Complex.single(a3, obj("c"), 0), FunctorError),
             (unnatural, cone_alpha(a2), ComplexError)]
    for th, x, error in cases:
        for probe in (ref.nat_trans_uniqueness_probe, nat_trans_uniqueness_probe):
            with pytest.raises(error):
                probe(th, x, orders=3, seed=1)


def foreign_complexes(a3, seed, summands):
    """Seeded complexes over FIX_A3 with a term, whose summands lie in
    ``summands``, drawn until three have been found."""
    rng = rng_for(seed, "foreign", *summands)
    degrees = {a3.degree[s] for s in summands}
    found = []
    while len(found) < 3:
        x = rand_complex(a3, rng, degrees_of=lambda i: degrees)
        if not x.is_zero:
            found.append(x)
    return found


@pytest.mark.parametrize("summands", [("a", "b", "c"), ("a", "b")])
def test_a_complex_over_another_presentation_is_refused(a2, a3, summands):
    """theta lives over FIX_A2, the complexes over FIX_A3.  A complex with a
    c summand used to raise a bare KeyError, and one holding only a and b
    used to be extended over FIX_A2 and reported ok."""
    ident = HomogeneousFunctor.identity(a2)
    theta = NatTrans(ident, ident, {s: AddMorphism.identity(a2, obj(s)).scale(3)
                                    for s in a2.ids})
    xs = foreign_complexes(a3, 20, summands)
    if "c" in summands:
        assert any("c" in t.summands for x in xs for t in x.terms.values())
    for x in xs:
        with pytest.raises(FunctorError, match="complex over 'FIX_A3'"):
            extend_nat_trans(theta, x)
        with pytest.raises(FunctorError, match="complex over 'FIX_A3'"):
            nat_trans_uniqueness_probe(theta, x, orders=3, seed=1)
        with pytest.raises(FunctorError):
            ident.on_complex(x)
    # the same terms over FIX_A2 itself are accepted
    if "c" not in summands:
        for x in xs:
            y = Complex(a2, x.terms, {i: AddMorphism(a2, d.source, d.target, d.blocks)
                                      for i, d in x.diffs.items()})
            assert extend_nat_trans(theta, y).rep.comps
            assert nat_trans_uniqueness_probe(theta, y, orders=3)["ok"]


def test_probe_randomized_a3(a3):
    f = HomogeneousFunctor.identity(a3)
    theta = NatTrans(f, f, {iid: AddMorphism.identity(a3, obj(iid)).scale(3)
                            for iid in a3.ids})
    rng = rng_for(9, "probe3")
    for _ in range(3):
        x = rand_complex(a3, rng, amplitude=3)
        rep = nat_trans_uniqueness_probe(theta, x, orders=20, seed=7)
        assert rep["ok"], rep


# ------------------------------------------------------------- adjunctions

ADJOINT_NAMES = [*(n for n in FIXTURE_NAMES if n != "FIX_BAD"), *PATH_NAMES, *QUIVER_NAMES]
SHIFTS = (-1, 0, 1)


def fold_diagonal(pres, union, diagonal, fold, unit, counit):
    """fold -| diagonal from what :func:`diagonal_fold` returns: the unit at
    s:i is the inclusion of s:i into s:0 + s:1, the counit at s the sum
    s + s -> s."""
    copies = counit.F.obj_map              # s:i -> s:0 + s:1
    unit2 = NatTrans(HomogeneousFunctor.identity(union), counit.F, {
        t: AddMorphism.from_blocks(union, obj(t), both, [
            [union.unit[t] if c == t else None] for c in both])
        for t, both in copies.items()})
    counit2 = NatTrans(unit.G, HomogeneousFunctor.identity(pres), {
        s: AddMorphism.from_blocks(pres, obj(s, s), obj(s), [[pres.unit[s], pres.unit[s]]])
        for s in pres.ids})
    return fold, diagonal, unit2, counit2


def adjoint_samples(name):
    """P, P + P, its two adjoint pairs and seeded complexes on each side; the
    last complex on each side is the image of the first on the other, so
    some Hom space is not 0."""
    pres = presentation(name)
    union, *pair = diagonal_fold(pres)
    diagonal, fold, unit, counit = pair
    rng = rng_for(71, "adjunction", name)
    xs = [rand_complex(pres, rng, amplitude=2) for _ in range(2)]
    ys = [rand_complex(union, rng, amplitude=2) for _ in range(2)]
    xs.append(fold.on_complex(ys[0]))
    ys.append(diagonal.on_complex(xs[0]))
    return pres, union, pair, fold_diagonal(pres, union, *pair), xs, ys


@pytest.mark.parametrize("name", ADJOINT_NAMES)
def test_diagonal_and_fold_are_adjoint_both_ways(name):
    pres, union, left, right, xs, ys = adjoint_samples(name)
    for (F, G, unit, counit), sources, targets in ((left, xs, ys), (right, ys, xs)):
        rep = adjunction_check(F, G, unit, counit, sources, targets, SHIFTS)
        assert rep["ok"], rep["failures"]
        assert rep["indecomposables"] == 3 * len(pres.ids)
        assert rep["hom_pairs"] == len(sources) * len(targets) * 4


NEGATIVE_NAMES = ["FIX_A2", "FIX_A3", "A5/F10007", "quiver3/F10007", "quiver0/F0"]


@pytest.mark.parametrize("name", NEGATIVE_NAMES)
def test_a_unit_or_counit_that_is_natural_but_wrong_fails_the_triangle_identities(name):
    pres, union, (diagonal, fold, unit, counit), _, xs, ys = adjoint_samples(name)
    doubled = NatTrans(unit.F, unit.G, {s: c.scale(2) for s, c in unit.components.items()})
    zero = NatTrans(counit.F, counit.G, {
        t: AddMorphism.zero(union, counit.F.obj_map[t], obj(t)) for t in union.ids})
    for eta, eps in ((doubled, counit), (unit, zero)):
        rep = adjunction_check(diagonal, fold, eta, eps, xs, ys, SHIFTS)
        assert not rep["ok"]
        assert {(f["check"], f["at"]) for f in rep["failures"] if "at" in f} == {
            *(("counit o F(unit)", s) for s in pres.ids),
            *(("G(counit) o unit", t) for t in union.ids)}


def test_a_unit_scaled_at_one_object_is_not_natural(a2):
    _, _, _, unit, _ = diagonal_fold(a2)
    with pytest.raises(FunctorError, match="naturality fails on alpha"):
        NatTrans(unit.F, unit.G, {**unit.components, "a": unit.components["a"].scale(2)})


@pytest.mark.parametrize("name", NEGATIVE_NAMES)
def test_a_zero_unit_on_complexes_fails_the_hom_bijection(monkeypatch, name):
    """The triangle identities read the components; the bijection reads the
    unit's extension to X, which a zero class here makes the zero map."""
    _, _, (diagonal, fold, unit, counit), _, xs, ys = adjoint_samples(name)
    monkeypatch.setattr(functors, "extend_nat_trans",
                        lambda theta, x: HomClass.zero(x, theta.G.on_complex(x)))
    rep = adjunction_check(diagonal, fold, unit, counit, xs, ys, SHIFTS)
    assert rep["failures"] and all(
        f["check"] == "hom bijection" and f["rank"] == 0 and f["dims"][0] == f["dims"][1] > 0
        for f in rep["failures"])


@pytest.mark.parametrize("which", ["unit source", "unit target", "counit source",
                                   "counit target"])
def test_unit_and_counit_must_go_between_the_identity_and_the_composite(a2, which):
    union, diagonal, fold, unit, counit = diagonal_fold(a2)
    wrong = {"unit source": NatTrans(unit.G, unit.G, {
                 s: AddMorphism.identity(a2, unit.G.obj_map[s]) for s in a2.ids}),
             "unit target": NatTrans(unit.F, unit.F, {
                 s: AddMorphism.identity(a2, obj(s)) for s in a2.ids}),
             "counit source": NatTrans(counit.G, counit.G, {
                 t: AddMorphism.identity(union, obj(t)) for t in union.ids}),
             "counit target": NatTrans(counit.F, counit.F, {
                 t: AddMorphism.identity(union, counit.F.obj_map[t]) for t in union.ids})}
    eta, eps = (wrong[which], counit) if which.startswith("unit") else (unit, wrong[which])
    with pytest.raises(FunctorError, match=f"^the {which} is not"):
        adjunction_check(diagonal, fold, eta, eps, [], [], SHIFTS)
    with pytest.raises(FunctorError, match="does not go back"):
        adjunction_check(diagonal, diagonal, unit, counit, [], [], SHIFTS)


def test_the_check_hands_on_chain_map_the_images_it_holds(monkeypatch):
    on_chain_map, given = HomogeneousFunctor.on_chain_map, []

    def checking(self, f, source=None, target=None):
        assert (source, target) == (self.on_complex(f.source), self.on_complex(f.target))
        given.append(f)
        return on_chain_map(self, f, source, target)

    monkeypatch.setattr(HomogeneousFunctor, "on_chain_map", checking)
    _, _, (diagonal, fold, unit, counit), _, xs, ys = adjoint_samples("FIX_A2")
    assert adjunction_check(diagonal, fold, unit, counit, xs, ys, SHIFTS)["ok"]
    assert given
