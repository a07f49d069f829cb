from collections import Counter

import pytest

from koszulkit import functors
from koszulkit.complexes import ChainMap, Complex, HomClass, cone, direct_sum, hom_space, minimal_model
from koszulkit.fixtures import load_fixture
from koszulkit.functors import (
    FunctorError,
    HomogeneousFunctor,
    NatTrans,
    apply_to_complex,
    extend_nat_trans,
    nat_trans_uniqueness_probe,
)
from koszulkit.orlov import AddMorphism, obj
from koszulkit.randgen import rand_chain_map, rand_complex, rng_for


@pytest.fixture(scope="module")
def a2():
    return load_fixture("FIX_A2")


@pytest.fixture(scope="module")
def a3():
    return load_fixture("FIX_A3")


def scaling_functor(pres, c=2):
    """Identity on objects, alpha -> c * alpha."""
    base = HomogeneousFunctor.identity(pres)
    hom_map = dict(base.hom_map)
    hom_map["alpha"] = hom_map["alpha"].scale(c)
    return HomogeneousFunctor(pres, pres, base.obj_map, hom_map)


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
    assert apply_to_complex(f, x) == x


def test_scaling_functor_rescales_cone(a2):
    f = scaling_functor(a2, 2)
    x = cone_alpha(a2)
    fx = apply_to_complex(f, x)
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
    fx = apply_to_complex(f, x)
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
    fz = apply_to_complex(f, z)
    zf, _, _ = cone(f.on_chain_map(g))
    assert fz == zf
    assert apply_to_complex(f, z.shift(4)) == fz.shift(4)


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
    assert theta.is_iso()
    x = cone_alpha(a2)
    ext = extend_nat_trans(theta, x)
    assert ext.rep.verify()
    inv = extend_nat_trans(theta.inverse(), x)
    assert inv.compose(ext) == HomClass.identity(apply_to_complex(f, x))
    assert ext.compose(inv) == HomClass.identity(apply_to_complex(g, x))


def test_extend_zero_nat_trans(a2):
    f = HomogeneousFunctor.identity(a2)
    theta = NatTrans(f, f, {iid: AddMorphism.zero(a2, obj(iid), obj(iid))
                            for iid in a2.ids})
    x = cone_alpha(a2)
    assert extend_nat_trans(theta, x).is_zero()


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
    assert nat_trans_uniqueness_probe(theta, x, orders=5, seed=4)["ok"]
    route, depth = functors._theta_via_extraction, []

    def doubled(th, c):         # the recursion goes through this name too
        depth.append(c)
        try:
            out = route(th, c)
        finally:
            depth.pop()
        return out if depth else out.scale(2)

    monkeypatch.setattr(functors, "_theta_via_extraction", doubled)
    rep = nat_trans_uniqueness_probe(theta, x, orders=5, seed=4)
    assert rep == {"orders": 5, "disagreements": 5, "ok": False}


def test_extraction_route_applies_a_shared_functor_once(a2, a3, monkeypatch):
    """Per extraction node, theta: F => F applies F to three chain maps
    (delta, the reordering and its inverse), and theta: F => G to five."""
    counts = Counter()
    on_chain_map, extraction = HomogeneousFunctor.on_chain_map, functors.top_extraction

    def counting(self, f):
        counts["maps"] += 1
        return on_chain_map(self, f)

    def extracting(x):
        counts["nodes"] += 1
        return extraction(x)

    monkeypatch.setattr(HomogeneousFunctor, "on_chain_map", counting)
    monkeypatch.setattr(functors, "top_extraction", extracting)
    rng = rng_for(53, "shared functor")
    ident = HomogeneousFunctor.identity(a3)
    theta3 = NatTrans(ident, ident, {iid: AddMorphism.identity(a3, obj(iid)).scale(3)
                                     for iid in a3.ids})
    cases = [(*probe_case(a2, True), 3), (*probe_case(a2, False), 5)]
    cases += [(theta3, rand_complex(a3, rng, amplitude=4), 3) for _ in range(6)]
    nodes = 0
    for theta, x, per_node in cases:
        counts.clear()
        got = functors._theta_via_extraction(theta, x)
        assert HomClass(got) == functors.extend_nat_trans(theta, x)
        assert counts["maps"] == per_node * counts["nodes"]
        nodes += counts["nodes"]
    assert nodes >= 10


def test_functor_json_round_trip(a2):
    f = scaling_functor(a2, 2)
    data = f.to_data()
    assert data["on_hom"]["alpha"] == [
        {"row": 0, "col": 0, "label": "alpha", "coeff": "2"}]
    g = HomogeneousFunctor.from_data(a2, a2, data)
    assert g.obj_map == f.obj_map
    assert all(g.hom_map[lab] == f.hom_map[lab] for lab in f.hom_map)
    # multi-summand images survive the round trip through row/col entries
    obj_map = {"a": obj("a", "a"), "b": obj("b", "b")}
    hom_map = {"alpha": AddMorphism.from_blocks(
        a2, obj("b", "b"), obj("a", "a"), [[(1,), None], [None, (1,)]])}
    doubled = HomogeneousFunctor(a2, a2, obj_map, hom_map)
    again = HomogeneousFunctor.from_data(a2, a2, doubled.to_data())
    assert again.hom_map["alpha"] == doubled.hom_map["alpha"]


def test_functor_data_rejects_block_out_of_range(a2):
    data = scaling_functor(a2, 2).to_data()
    data["on_hom"]["alpha"][0]["row"] = 3
    with pytest.raises(FunctorError, match="out of range"):
        HomogeneousFunctor.from_data(a2, a2, data)


@pytest.mark.parametrize("edit", [
    lambda data: data["on_objects"].pop("b"),
    lambda data: data["on_hom"]["alpha"].append([]),
    lambda data: data["on_objects"].update(b="b"),
], ids=["missing-id", "entry-list", "image-str"])
def test_functor_data_refuses_malformed_input(a2, edit):
    data = scaling_functor(a2, 2).to_data()
    edit(data)
    with pytest.raises(FunctorError):
        HomogeneousFunctor.from_data(a2, a2, data)


def test_probe_randomized_a3(a3):
    f = HomogeneousFunctor.identity(a3)
    theta = NatTrans(f, f, {iid: AddMorphism.identity(a3, obj(iid)).scale(3)
                            for iid in a3.ids})
    rng = rng_for(9, "probe3")
    for _ in range(3):
        x = rand_complex(a3, rng, amplitude=3)
        rep = nat_trans_uniqueness_probe(theta, x, orders=20, seed=7)
        assert rep["ok"], rep
