from collections import Counter
from fractions import Fraction
import gc

import pytest

from koszulkit.complexes import (
    ChainIso,
    ChainMap,
    Complex,
    ComplexError,
    FillError,
    HomClass,
    HomSpace,
    Homotopy,
    Triangle,
    complete_square,
    cone,
    direct_sum,
    hom_space,
    is_null_homotopic,
    minimal_model,
    supports_meet,
)
from koszulkit.fixtures import FIXTURE_NAMES, load_fixture
from koszulkit.koszul import koszulity_check, q_ses_triangle
from koszulkit.linalg import Matrix, RowMatrix, _load_mod, _load_q
from koszulkit.filtered import FilteredHomSpace
from koszulkit.orlov import (
    AddMorphism,
    CompositionError,
    Coords,
    OrlovPresentation,
    hom_basis,
    identity_label,
    obj,
    unit_index,
)
from koszulkit.randgen import (
    conjugate_complex,
    rand_add_morphism,
    rand_chain_map,
    rand_complex,
    rand_filtered,
    rand_heart_complex,
    rng_for,
)
from koszulkit.tstructure import HeartObject, heart_object, simple_ext_cells, truncate
from oracle_ext import kb_ext_spaces
from oracle_hom import brute_force_hom_dim
from presentations import (
    PATH_NAMES,
    QUIVER_NAMES,
    WIDE_BLOCK_NAMES,
    layered_quiver,
    path_category,
    presentation,
)
import homspace_reference
from homspace_reference import dense
import probe_reference
from probe_reference import top_extraction
from test_orlov import cut_blocks, to_vector
from weights_reference import weight_subobjects


@pytest.fixture(scope="module")
def a2():
    return load_fixture("FIX_A2")


@pytest.fixture(scope="module")
def a3():
    return load_fixture("FIX_A3")


def single(pres, iid, degree=0):
    return Complex.single(pres, obj(iid), degree)


def alpha_map(pres):
    """alpha: b -> a as a map of one-term complexes in degree 0."""
    x = single(pres, "b")
    y = single(pres, "a")
    m = AddMorphism.single(pres, obj("b"), obj("a"), 0, 0, (1,))
    return ChainMap(x, y, {0: m})


def cone_alpha(pres) -> Complex:
    z, _, _ = cone(alpha_map(pres))
    return z


# ----------------------------------------------------------------- basics

def test_d_squared_enforced(a2):
    x = obj("b")
    y = obj("a")
    m = AddMorphism.single(a2, x, x, 0, 0, (1,))
    with pytest.raises(ComplexError):
        Complex(a2, {0: x, 1: x, 2: x},
                {0: AddMorphism.identity(a2, x), 1: AddMorphism.identity(a2, x)})


def test_chain_condition_names_its_failing_degree(a2):
    # id_b from b to (b -> a): d o f^0 = alpha, f^1 o d = 0
    alpha = alpha_map(a2).comps[0]
    x, y = single(a2, "b"), Complex(a2, {0: obj("b"), 1: obj("a")}, {0: alpha})
    comps = {0: AddMorphism.identity(a2, obj("b"))}
    with pytest.raises(ComplexError, match="^not a chain map at degree 0$"):
        ChainMap(x, y, comps)
    assert not ChainMap(x, y, comps, check=False).verify()
    assert ChainMap(y, y, {0: comps[0], 1: AddMorphism.identity(a2, obj("a"))}).verify()


def dense_non_chain_degree(f: ChainMap):
    """The chain condition with every factor formed, a zero morphism standing
    for each missing differential or component."""
    for i in set(f.comps) | set(f.source.diffs):
        if f.target.d(i).compose(f.component(i)) != f.component(i + 1).compose(f.source.d(i)):
            return i
    return None


def chain_condition_families(pres, rng, trials):
    """Seeded (kind, source, target, components) from a random chain map and
    a random re-presentation x -> x2: the chain maps, each perturbed in one or
    two degrees, with either side's differentials dropped, and with a
    component dropped, also from an arbitrary family."""
    for _ in range(trials):
        x, y = (rand_complex(pres, rng, amplitude=4) for _ in "xy")
        x2, fwd, _ = conjugate_complex(x, rng)
        for f in (rand_chain_map(x, y, rng), fwd):
            src, tgt = f.source, f.target
            yield "chain", src, tgt, f.comps
            window = [i for i in sorted(src.terms) if i in tgt.terms]
            if window:
                comps = dict(f.comps)
                for i in rng.sample(window, min(len(window), rng.randint(1, 2))):
                    comps[i] = f.component(i).add(
                        rand_add_morphism(pres, src.term(i), tgt.term(i), rng))
                yield "perturbed", src, tgt, comps
            yield "bare target", src, Complex(pres, tgt.terms, {}), f.comps
            yield "bare source", Complex(pres, src.terms, {}), tgt, f.comps
            arbitrary = {i: rand_add_morphism(pres, src.term(i), tgt.term(i), rng)
                         for i in window}
            for comps in (f.comps, arbitrary):
                if comps:
                    drop = rng.choice(sorted(comps))
                    yield "dropped", src, tgt, {i: m for i, m in comps.items() if i != drop}


@pytest.mark.parametrize("name", ["FIX_A3", "A5-killed/F10007", "A6/F0", *WIDE_BLOCK_NAMES])
def test_chain_condition_matches_the_dense_check(name):
    pres = presentation(name)
    rng = rng_for(47, "chain-condition", name)
    outcomes = Counter()
    for kind, x, y, comps in chain_condition_families(pres, rng, 30):
        f = ChainMap(x, y, comps, check=False)
        want = dense_non_chain_degree(f)
        assert f._non_chain_degree() == want
        assert f.verify() == (want is None)
        if want is None:
            assert ChainMap(x, y, comps) == f
        else:
            with pytest.raises(ComplexError) as err:
                ChainMap(x, y, comps)
            assert str(err.value) == f"not a chain map at degree {want}"
        outcomes[kind, want is None] += 1
    assert outcomes["chain", True] == 60 and not outcomes["chain", False]
    for kind in ("perturbed", "bare target", "bare source", "dropped"):
        assert outcomes[kind, False] >= 10, outcomes


def test_shift_zero_identity(a2):
    x = cone_alpha(a2)
    assert x.shift(0) == x


def test_shift_round_trip(a2):
    x = cone_alpha(a2)
    assert x.shift(1).shift(-1) == x


def test_support_shift(a2):
    x = cone_alpha(a2)
    assert x.support() == frozenset({(-1, 1), (0, 0)})
    assert x.shift(1).support() == frozenset({(-2, 1), (-1, 0)})


def test_support_of_zero_and_sums(a2):
    assert Complex.zero(a2).support() == frozenset()
    x, y = single(a2, "a"), single(a2, "b", 2)
    z, *_ = direct_sum(x, y)
    assert z.support() == x.support() | y.support()


# ------------------------------------------------------------------- cones

def test_cone_of_identity_is_contractible(a2):
    x = cone_alpha(a2)
    z, _, _ = cone(ChainMap.identity(x))
    zmin, _ = minimal_model(z)
    assert zmin.is_zero


def test_cone_of_zero_map_splits(a2):
    x, y = single(a2, "a"), single(a2, "b", 1)
    z, _, _ = cone(ChainMap.zero(x, y))
    expected, *_ = direct_sum(x.shift(1), y)
    assert z == expected


def test_cone_alpha_is_two_term_complex(a2):
    z = cone_alpha(a2)
    assert z.term(-1) == obj("b") and z.term(0) == obj("a")
    d = z.d(-1)
    assert d.blocks[0][0] == (a2.field.one,)


def test_cone_triangle_verifies(a2):
    tri = Triangle.from_cone(alpha_map(a2))
    assert tri.verify() == []
    assert tri.rotate().verify() == []
    assert tri.shift(3).verify() == []


@pytest.mark.parametrize("at", ["X", "Y", "Z"])
def test_transport_along_a_minimal_model_iso_verifies(a3, at):
    """The iso x -> minimal model carries its homotopy on x, so each square
    it closes has the witness -tail o h_src."""
    rng = rng_for(1, "x")
    witnessed = 0
    for _ in range(12):
        x = rand_complex(a3, rng)
        base = Triangle.from_cone(ChainMap.identity(x))
        iso = minimal_model({"X": base.X, "Y": base.Y, "Z": base.Z}[at])[1]
        witnessed += iso.h_src is not None
        isos = [iso if name == at else None for name in "XYZ"]
        assert Triangle.transport(base, *isos).verify() == []
    assert witnessed


SPLIT_NAMES = ["FIX_A3", "A5/F10007", "A6/F0", *WIDE_BLOCK_NAMES]


def straddling_arrow(pres, rng):
    """s -> t by a basis element, t in degree -deg t and s one below, for
    summands at least two degrees apart: s is outside the lower aisle and t
    in it, so the arrow is the connecting map of its truncation."""
    s, t = rng.choice([(s, t) for s in pres.ids for t in pres.ids
                       if pres.degree[s] - pres.degree[t] >= 2 and pres.hom_dim(s, t)])
    i = -pres.degree[t] - 1
    arrow = rng.choice(hom_basis(pres, obj(s), obj(t))[0])
    return Complex(pres, {i: obj(s), i + 1: obj(t)}, {i: arrow})


def truncation_splits(pres, rng, trials, monkeypatch):
    """(m, sel_sub, sel_quot, split triangle, truncation) for the split
    triangles that ``truncate`` builds on re-presented sums of a seeded
    complex and a straddling arrow, so every connecting map is nonzero."""
    real = Triangle.from_termwise_split
    calls = []

    def spy(m, sel_sub, sel_quot):
        calls.append((m, sel_sub, sel_quot, real(m, sel_sub, sel_quot)))
        return calls[-1][-1]

    monkeypatch.setattr(Triangle, "from_termwise_split", staticmethod(spy))
    out = []
    for _ in range(trials):
        x, *_ = direct_sum(rand_complex(pres, rng), straddling_arrow(pres, rng))
        tr = truncate(conjugate_complex(x, rng)[0])
        out.append((*calls[-1], tr.triangle))
    monkeypatch.undo()
    return out


@pytest.mark.parametrize("name", SPLIT_NAMES)
def test_split_triangle_maps_are_the_selection_maps(name, monkeypatch):
    """f, g and h of a split triangle are the inclusion, the projection and
    minus the off-diagonal block of d_M, each built here directly."""
    pres = presentation(name)
    for m, sub, quot, tri, _ in truncation_splits(pres, rng_for(29, "split", name), 15,
                                                   monkeypatch):
        a_cx, b_cx = tri.X, tri.Z
        assert tri.Y == m
        assert tri.f == ChainMap(a_cx, m, {i: AddMorphism.inclusion(pres, t, m.term(i), sub[i])
                                            for i, t in a_cx.terms.items()})
        assert tri.g == ChainMap(m, b_cx, {i: AddMorphism.projection(pres, m.term(i), t, quot[i])
                                            for i, t in b_cx.terms.items()})
        assert tri.h == ChainMap(b_cx, a_cx.shift(1), {
            i: d.restrict_blocks(sub.get(i + 1, ()), quot[i]).scale(-1)
            for i, d in m.diffs.items() if i in b_cx.terms and i + 1 in a_cx.terms})
        assert not tri.h.is_zero()
        assert tri.verify() == []


def ses_triangles(pres, rng, trials):
    """q_ses_triangle of weight-filtration sequences 0 -> E_{<=k} -> E ->
    E/E_{<=k} -> 0, with E a random re-presentation of a heart object."""
    out = []
    while len(out) < trials:
        nf = heart_object(rand_heart_complex(pres, rng)).normal_form
        _, fwd, bwd = conjugate_complex(nf, rng)
        # the last weight's subobject is E itself
        for _, (sub, inc) in sorted(weight_subobjects(HeartObject(nf)).items())[:-1]:
            quot = Complex(pres, {i: t for i, t in nf.terms.items() if i not in sub.terms},
                           {i: d for i, d in nf.diffs.items() if i + 1 not in sub.terms})
            proj = ChainMap(nf, quot, {i: AddMorphism.identity(pres, t)
                                       for i, t in quot.terms.items()})
            out.append(q_ses_triangle(fwd.compose(inc), proj.compose(bwd)))
    return out


def doubled(tri, name):
    maps = {"f": tri.f, "g": tri.g, "h": tri.h}
    maps[name] = maps[name].scale(2)
    return Triangle(tri.X, tri.Y, tri.Z, maps["f"], maps["g"], maps["h"], tri.witness)


@pytest.mark.parametrize("name", ["A5/F10007", "A6/F0", "A7/F10007"])
def test_a_doubled_split_map_or_cone_comparison_fails_verify(name, monkeypatch):
    """Split, truncation and Q-functor triangles each verify, and each stops
    verifying when a nonzero f, g or h is doubled, or when the stored
    comparison psi: B -> cone(incl) of its split triangle is doubled."""
    pres = presentation(name)
    rng = rng_for(29, "planted", name)
    cases = []
    for _, _, _, split, trunc in truncation_splits(pres, rng, 12, monkeypatch):
        cases += [(split, split), (trunc, trunc.witness.base)]
    cases += [(tri, tri.witness.base) for tri in ses_triangles(pres, rng, 12)]
    planted = Counter()
    for tri, split in cases:
        assert tri.verify() == []
        for m in "fgh":
            if not getattr(tri, m).is_zero():
                planted[m] += 1
                assert doubled(tri, m).verify() != [], m
        w = split.witness
        iso = w.iso_z
        if not split.Z.is_zero:
            planted["psi"] += 1
            w.iso_z = ChainIso(iso.fwd, iso.bwd.scale(2), iso.h_src, iso.h_tgt)
            assert "transport witness: iso at Z fails" in tri.verify()
            w.iso_z = iso
    assert min(planted[k] for k in ("f", "g", "h", "psi")) > 0, planted


# --------------------------------------------------------------- hom spaces

def test_hom_space_contains_identity(a2):
    x = cone_alpha(a2)
    sp = hom_space(x, x, 0)
    assert sp.dimension >= 1
    assert sp.express(ChainMap.identity(x)) is not None


def test_hom_space_fixture_dimensions(a2):
    assert hom_space(single(a2, "b"), single(a2, "a"), 0).dimension == 1
    assert hom_space(single(a2, "a"), single(a2, "b"), 0).dimension == 0


def test_hom_space_cone_to_point_vanishes(a2):
    # the only candidate component id_a fails the chain condition
    assert hom_space(cone_alpha(a2), single(a2, "a"), 0).dimension == 0


def test_map_to_vector_round_trip_and_window(a3):
    x = Complex(a3, {-1: obj("c"), 0: obj("b", "a")},
                {-1: AddMorphism.from_blocks(a3, obj("c"), obj("b", "a"), [[(1,)], [None]])})
    sp = hom_space(x, x, 0)
    assert list(sp.maps.slices) == [-1, 0]
    for f in chain_map_basis(sp):
        vec = sp.map_to_vector(f)
        assert ChainMap(x, x, sp.maps.from_vector(vec)) == f
    # the identity of a + a[-1] has a component in degree 1, outside Hom(a, a)
    z = Complex(a3, {0: obj("a"), 1: obj("a")}, {})
    with pytest.raises(ComplexError):
        hom_space(single(a3, "a"), single(a3, "a")).map_to_vector(ChainMap.identity(z))


@pytest.mark.parametrize("name", ["FIX_A3", "A5/F10007"])
def test_disjoint_supports_give_zero_hom(name):
    pres = load_fixture(name) if name.startswith("FIX") else path_category(5, 10007)
    rng = rng_for(17, "supports-meet", name)
    xs = [rand_complex(pres, rng, amplitude=3, max_summands=2) for _ in range(6)]
    skipped = 0
    for x in xs:
        for y in xs:
            for k in range(-8, 9):
                if supports_meet(x, y, k):
                    continue
                skipped += 1
                assert hom_space(x, y, k).dimension == 0
                assert brute_force_hom_dim(x, y, k) == 0
    assert skipped > 6 * 6 * 17 // 2
    # the predicate reads degrees only: a shared degree is reported even
    # where every Hom between the terms is 0
    c, a = single(pres, pres.ids[-1]), single(pres, pres.ids[0])
    assert supports_meet(a, c, 0) and hom_space(a, c, 0).dimension == 0
    assert not supports_meet(a, c, 1)


@pytest.mark.parametrize("name", [*FIXTURE_NAMES, *PATH_NAMES, *QUIVER_NAMES])
def test_ext_between_simples_lives_on_its_one_cell(name):
    # the full window is swept here so that the Ext code can visit only
    # the one shift per pair of simples that simple_ext_cells names
    pres = presentation(name)
    window = (-8, 8)
    nonzero = {cell for cell, sp in kb_ext_spaces(pres, window).items() if sp.dimension}
    assert {(s, s, 0) for s in pres.ids} <= nonzero <= set(simple_ext_cells(pres, window))
    assert koszulity_check(pres, window)["diagonal_violations"] == []


def test_null_homotopy_of_zero_map(a2):
    x = cone_alpha(a2)
    h = is_null_homotopic(ChainMap.zero(x, x))
    assert h is not None and h.boundary().is_zero()


def test_identity_on_cone_of_identity_is_null_homotopic(a2):
    x = single(a2, "a")
    z, _, _ = cone(ChainMap.identity(x))
    h = is_null_homotopic(ChainMap.identity(z))
    assert h is not None
    assert h.boundary() == ChainMap.identity(z)


def test_alpha_not_null_homotopic(a2):
    assert is_null_homotopic(alpha_map(a2)) is None


def test_hom_class_equality(a2):
    f = HomClass(alpha_map(a2))
    assert f == f and not f.is_zero()
    assert HomClass.zero(f.source, f.target).is_zero()


# ------------------------------------------------------------ minimal model

def test_minimal_model_of_identity_cone_is_zero(a2):
    x = single(a2, "a")
    z, _, _ = cone(ChainMap.identity(x))
    m, iso = minimal_model(z)
    assert m.is_zero
    assert iso.verify()


def test_minimal_model_drops_contractible_summand(a2):
    x = cone_alpha(a2)
    zb, _, _ = cone(ChainMap.identity(single(a2, "b", 2)))
    total, *_ = direct_sum(x, zb)
    m, iso = minimal_model(total)
    assert m == x or (sorted(m.term(-1)) == ["b"] and sorted(m.term(0)) == ["a"])
    assert iso.verify()


def test_minimal_model_of_cone_alpha_is_itself(a2):
    x = cone_alpha(a2)
    m, iso = minimal_model(x)
    assert m == x
    assert iso.verify()


def test_minimal_model_krull_schmidt_randomized(a3):
    rng = rng_for(101, "minmodel")
    for trial in range(25):
        x = rand_complex(a3, rng)
        x2, fwd, bwd = conjugate_complex(x, rng)
        m1, iso1 = minimal_model(x)
        m2, iso2 = minimal_model(x2)
        assert iso1.verify() and iso2.verify()
        assert sorted(m1.terms) == sorted(m2.terms)
        for i in m1.terms:
            assert sorted(m1.term(i).summands) == sorted(m2.term(i).summands)


def homotopy_add(h: Homotopy, k: Homotopy) -> Homotopy:
    """h + k, degree by degree."""
    return Homotopy(h.source, h.target, {i: h.component(i).add(k.component(i))
                                         for i in set(h.comps) | set(k.comps)})


# the reference's own pivot search: the first unit block, from the lowest
# degree up, rescanning the whole complex at every step
def _find_pivot(x: Complex):
    pres = x.pres
    for i in sorted(x.diffs):
        d = x.diffs[i]
        for r, row in enumerate(d.blocks):
            for c, blk in enumerate(row):
                if blk is None:
                    continue
                if d.source[c] == d.target[r] and blk[unit_index(pres, d.source[c])]:
                    return (i, r, c)
    return None


def minimal_model_reference(x: Complex):
    """Strip invertible differential blocks; returns (X_min, iso X ~ X_min).

    The iso satisfies fwd o bwd = id exactly on the minimal side and
    id - bwd o fwd = delta(h) with the accumulated homotopy on the source.
    The reference for :func:`minimal_model`: each step builds its projection
    and inclusion in every degree and composes whole chain maps.
    """
    pres = x.pres
    fld = pres.field
    cur = x
    fwd = ChainMap.identity(x)
    bwd = ChainMap.identity(x)
    hom = Homotopy.zero(x, x)

    while True:
        pivot = _find_pivot(cur)
        if pivot is None:
            break
        i, r, c = pivot
        d = cur.d(i)
        src, tgt = cur.term(i), cur.term(i + 1)
        phi = d.blocks[r][c][unit_index(pres, src[c])]
        phi_inv = fld.inv(phi)
        cols_keep = [j for j in range(len(src)) if j != c]
        rows_keep = [j for j in range(len(tgt)) if j != r]
        beta = d.restrict_blocks([r], cols_keep)        # A' -> B
        gamma = d.restrict_blocks(rows_keep, [c])       # A -> B'
        delta_blk = d.restrict_blocks(rows_keep, cols_keep)
        corr = gamma.compose(beta).scale(fld.neg(phi_inv))
        new_d_i = delta_blk.add(corr)

        new_terms = dict(cur.terms)
        new_terms[i] = src.select(cols_keep)
        new_terms[i + 1] = tgt.select(rows_keep)
        new_diffs = dict(cur.diffs)
        if new_d_i.is_zero():
            new_diffs.pop(i, None)
        else:
            new_diffs[i] = new_d_i
        if i - 1 in cur.diffs:
            nd = cur.d(i - 1).restrict_blocks(cols_keep, range(len(cur.term(i - 1))))
            if nd.is_zero():
                new_diffs.pop(i - 1, None)
            else:
                new_diffs[i - 1] = nd
        if i + 1 in cur.diffs:
            nd = cur.d(i + 1).restrict_blocks(range(len(cur.term(i + 2))), rows_keep)
            if nd.is_zero():
                new_diffs.pop(i + 1, None)
            else:
                new_diffs[i + 1] = nd
        nxt = Complex(pres, new_terms, new_diffs, check=False)

        # projection pi: cur -> nxt and inclusion io: nxt -> cur
        src2, tgt2 = nxt.term(i), nxt.term(i + 1)
        pi_comps = {k: AddMorphism.identity(pres, t) for k, t in nxt.terms.items()}
        pi_comps[i] = AddMorphism.projection(pres, src, src2, cols_keep)
        pi_comps[i + 1] = AddMorphism.assemble(pres, tgt, tgt2, [
            (range(len(tgt2)), rows_keep, AddMorphism.identity(pres, tgt2)),
            (range(len(tgt2)), [r], gamma.scale(fld.neg(phi_inv)))])    # -gamma phi^-1 : B -> B'
        io_comps = {k: AddMorphism.identity(pres, t) for k, t in nxt.terms.items()}
        io_comps[i] = AddMorphism.assemble(pres, src2, src, [
            (cols_keep, range(len(src2)), AddMorphism.identity(pres, src2)),
            ([c], range(len(src2)), beta.scale(fld.neg(phi_inv)))])     # -phi^-1 beta : A' -> A
        io_comps[i + 1] = AddMorphism.inclusion(pres, tgt2, tgt, rows_keep)
        pi = ChainMap(cur, nxt, pi_comps, check=False)
        io = ChainMap(nxt, cur, io_comps, check=False)

        hstep = Homotopy(cur, cur, {
            i + 1: AddMorphism.single(pres, tgt, src, c, r,
                                      pres.coords(identity_label(src[c]), phi_inv))
        })
        hom = homotopy_add(hom, hstep.conjugate(fwd, bwd))
        fwd = pi.compose(fwd)
        bwd = bwd.compose(io)
        cur = nxt

    return cur, ChainIso(fwd, bwd, h_src=hom if hom.comps else None, h_tgt=None)


def typed(m):
    """A morphism's endpoints and blocks with the type of every entry, so
    that 2 and Fraction(2) differ."""
    return m.source, m.target, tuple(
        tuple(None if b is None else tuple((type(v), v) for v in b) for b in row)
        for row in m.blocks)


def typed_comps(family):
    """The components of a chain map or homotopy, each :func:`typed`."""
    if family is None:
        return None
    return {i: typed(m) for i, m in family.comps.items()}


def model_inputs(pres, rng, trials, amplitude=4):
    """Seeded complexes with cancellable blocks: random complexes, their
    conjugates, and sums with the cone of an identity."""
    for _ in range(trials):
        x = rand_complex(pres, rng, amplitude=amplitude)
        yield x
        yield conjugate_complex(x, rng)[0]
        z, *_ = cone(ChainMap.identity(rand_complex(pres, rng, amplitude=2)))
        yield direct_sum(x, z)[0]


def twisted_cone(pres, rng, degree):
    """s + s in degrees ``degree`` and ``degree`` + 1 for a random s, with
    the differential [[a, b], [c, 0]] for random nonzero scalars a, b, c:
    the cone of an automorphism.  Its (1, 1) block is no unit block, and
    cancelling the (0, 0) block makes it one, -c a^-1 b."""
    s = rng.choice(pres.ids)
    t = obj(s, s)
    a, b, c = (pres.coords(identity_label(s), pres.field.of(rng.choice((-3, -2, -1, 1, 2, 3))))
               for _ in "abc")
    return Complex(pres, {degree: t, degree + 1: t},
                   {degree: AddMorphism.from_blocks(pres, t, t, ((a, b), (c, None)))})


def sweep_inputs(pres, rng, trials, amplitude):
    """Seeded random complexes plus a :func:`twisted_cone` in each of two
    adjacent degrees, one of them a degree of the random complex: a sweep
    cancels in two degrees and meets a unit block that an earlier
    correction in the same degree made."""
    for _ in range(trials):
        x = rand_complex(pres, rng, amplitude=amplitude)
        k = rng.choice(sorted(x.terms) or [0])
        for t in (twisted_cone(pres, rng, k - 1), twisted_cone(pres, rng, k)):
            x = direct_sum(x, t)[0]
        yield x


def recorded_pivots(monkeypatch):
    """The list that :func:`_find_pivot`'s pivots (i, r, c) are appended to,
    in the order it returns them, from now on."""
    found, find = [], _find_pivot

    def record(x):
        pivot = find(x)
        if pivot is not None:
            found.append(pivot)
        return pivot

    monkeypatch.setitem(globals(), "_find_pivot", record)
    return found


def made_by_a_correction(x, pivots):
    """How many of the pivots (i, r, c) taken on the way from ``x`` to its
    minimal model sit on a block of d^i that is no unit block in ``x``: one
    that an earlier cancellation in degree i made, since a cancellation
    changes no block of another degree's differential."""
    pres = x.pres
    place = {k: list(range(len(t))) for k, t in x.terms.items()}    # positions in x
    made = 0
    for i, r, c in pivots:
        r0, c0 = place[i + 1].pop(r), place[i].pop(c)
        blk = x.d(i).blocks[r0][c0]
        made += blk is None or not blk[unit_index(pres, x.term(i)[c0])]
    return made


@pytest.mark.parametrize("name", ["FIX_A3", "A5/F10007", "A6/F0", *WIDE_BLOCK_NAMES,
                                  "A12/F0", "A12/F10007"])
def test_minimal_model_matches_the_whole_chain_map_construction(name, monkeypatch):
    pres = presentation(name)
    rng = rng_for(2001, "minimal model", name)
    amplitude = 8 if name.startswith("A12/") else 4
    steps = multi_degree = made = 0
    for x in [*model_inputs(pres, rng, 8, amplitude), *sweep_inputs(pres, rng, 8, amplitude)]:
        m, iso = minimal_model(x)
        pivots = recorded_pivots(monkeypatch)
        m_ref, iso_ref = minimal_model_reference(x)
        monkeypatch.undo()
        assert m == m_ref
        for got, want in ((iso.fwd, iso_ref.fwd), (iso.bwd, iso_ref.bwd)):
            assert (got.source, got.target) == (want.source, want.target)
            assert typed_comps(got) == typed_comps(want)
        assert typed_comps(iso.h_src) == typed_comps(iso_ref.h_src) and iso.h_tgt is None
        if iso.h_src is not None:
            assert (iso.h_src.source, iso.h_src.target) == (x, x)
        steps += sum(len(x.term(i)) - len(m.term(i)) for i in x.terms)
        multi_degree += len({i for i, _, _ in pivots}) >= 2
        made += made_by_a_correction(x, pivots)
        assert iso.verify()
    assert steps > 0
    # draws whose sweep moves on to a later degree, and cancellations that
    # only a rescan of d^i after an earlier correction finds
    assert multi_degree >= 10
    assert made >= 10


@pytest.mark.parametrize("name", ["FIX_A3", "A5/F10007", "A6/F0", "A12/F0", "A12/F10007",
                                  *(f"quiver{s}/top5" for s in range(6))])
def test_the_reference_pivots_never_go_down_a_degree(name, monkeypatch):
    """The rescan from the lowest degree finds its pivots in degrees that
    never go down, so a sweep up the degrees meets them in the same order."""
    if name.endswith("/top5"):
        pres = layered_quiver(int(name.removeprefix("quiver").removesuffix("/top5")), 0, top=5)
    else:
        pres = presentation(name)
    rng = rng_for(2002, "pivot degrees", name)
    amplitude = 8 if name.startswith("A12/") else 4
    multi_degree = 0
    for x in [*model_inputs(pres, rng, 8, amplitude), *sweep_inputs(pres, rng, 8, amplitude)]:
        pivots = recorded_pivots(monkeypatch)
        minimal_model_reference(x)
        monkeypatch.undo()
        degrees = [i for i, _, _ in pivots]
        assert degrees == sorted(degrees)
        multi_degree += len(set(degrees)) >= 2
    assert multi_degree >= 10


def chain_map_pairs(pres, rng, trials):
    """Seeded pairs of parallel chain maps: equal ones built apart (over Q
    some with integral Fraction entries), and ones that differ."""
    for _ in range(trials):
        x, y = rand_complex(pres, rng), rand_complex(pres, rng)
        a, b = rand_chain_map(x, y, rng), rand_chain_map(x, y, rng)
        half = pres.field.of(Fraction(1, 2))
        yield a, b
        yield a, a.scale(half).scale(2)           # over Q, Fraction(k, 1) entries
        yield a, a.add(b).sub(b)
        yield a, a.add(b.scale(pres.characteristic or 3))
        yield a, ChainMap.zero(x, y)
        yield a.scale(2), a.add(a)


def side_ok_reference(first, then, h):
    """``ChainIso._side_ok`` comparing with ``ChainMap.identity``, as it did
    before it checked each component of the round trip alone."""
    back = then.compose(first)
    ident = ChainMap.identity(first.source)
    if h is None:
        return back.comps == ident.comps
    return ident.sub(back) == h.boundary()


@pytest.mark.parametrize("name", ["FIX_A3", "A5/F10007", "A6/F0", *WIDE_BLOCK_NAMES])
def test_chain_iso_sides_match_the_identity_reference(name, monkeypatch):
    """Without a homotopy witness a side of ``ChainIso.verify`` checks that
    each component of the round trip is the identity of its term, builds no
    identity chain map, and decides as the comparison with it did."""
    pres = presentation(name)
    rng = rng_for(2105, "iso sides", name)
    cases = []
    for _ in range(8):
        x = rand_complex(pres, rng)
        x2, fwd, bwd = conjugate_complex(x, rng)
        _, iso = minimal_model(x)
        cases += [(fwd, bwd), (bwd, fwd), (fwd.scale(2), bwd), (fwd, ChainMap.zero(x2, x)),
                  (iso.fwd, iso.bwd), (iso.bwd, iso.fwd),
                  (ChainMap.identity(x), rand_chain_map(x, x, rng))]
        if len(x.terms) > 1:        # the identity in every degree but one
            i = min(x.terms)
            cases.append((fwd, ChainMap(x2, x, {j: c for j, c in bwd.comps.items() if j != i},
                                        check=False)))
    expected = [side_ok_reference(first, then, None) for first, then in cases]
    built = []
    identity = ChainMap.identity
    monkeypatch.setattr(ChainMap, "identity", lambda x: built.append(x) or identity(x))
    assert [ChainIso._side_ok(first, then, None) for first, then in cases] == expected
    assert built == []
    assert True in expected and False in expected


@pytest.mark.parametrize("name", ["FIX_A3", "A5/F10007", "A6/F0", *WIDE_BLOCK_NAMES])
def test_equal_components_are_exactly_a_zero_difference(name):
    """HomClass equality and ChainIso.verify compare components before they
    subtract; that is exact because zero components are dropped and every
    block is None or a nonzero reduced tuple."""
    pres = presentation(name)
    rng = rng_for(2002, "on the nose", name)
    seen, fractions = Counter(), 0
    for a, b in chain_map_pairs(pres, rng, 10):
        equal = a.comps == b.comps
        assert equal == a.sub(b).is_zero() == b.sub(a).is_zero()
        assert equal == (a == b)
        if equal:
            assert HomClass(a) == HomClass(b)
        seen[equal] += 1
        fractions += any(type(v) is Fraction and v.denominator == 1
                         for m in b.comps.values() for row in m.blocks
                         for blk in row if blk for v in blk)
    assert seen[True] > 0 and seen[False] > 0
    assert (fractions > 0) == (pres.characteristic == 0)


def test_hom_class_equality_compares_representatives_first(a3, monkeypatch):
    rng = rng_for(2003, "hom class")
    subtracted = []
    sub = ChainMap.sub

    def counting(self, other):
        subtracted.append(self)
        return sub(self, other)

    monkeypatch.setattr(ChainMap, "sub", counting)
    homotopic = 0
    for _ in range(10):
        x = rand_complex(a3, rng)
        x = direct_sum(x, cone(ChainMap.identity(x))[0])[0]
        f = rand_chain_map(x, x, rng)
        assert HomClass(f) == HomClass(f.add(ChainMap.zero(x, x)))
        assert subtracted == []
        # classes whose representatives differ by a null-homotopic map
        m, iso = minimal_model(x)
        if iso.h_src is not None:
            assert HomClass(ChainMap.identity(x)) == HomClass(iso.bwd.compose(iso.fwd))
            assert subtracted
            subtracted.clear()
            homotopic += 1
    assert homotopic > 0


def test_chain_iso_verify_compares_the_round_trip_with_the_identity(a3):
    rng = rng_for(2004, "iso verify")
    for _ in range(10):
        x = rand_complex(a3, rng)
        x2, fwd, bwd = conjugate_complex(x, rng)
        assert ChainIso(fwd, bwd).verify()
        assert ChainIso(ChainMap.identity(x), ChainMap.identity(x)).verify()
        if x.terms:
            # twice the identity: each side of the round trip is 4, not 1
            assert not ChainIso(fwd.scale(2), bwd.scale(2)).verify()
            assert not ChainIso(fwd, ChainMap.zero(x2, x)).verify()


def test_inverse_inverts_minimal_model_iso(a3):
    rng = rng_for(17, "joint")
    for _ in range(6):
        x = rand_complex(a3, rng)
        m, iso = minimal_model(x)
        assert HomClass(iso.fwd).inverse() == HomClass(iso.bwd)
        assert HomClass(iso.bwd).inverse() == HomClass(iso.fwd)
        if not m.is_zero:
            assert HomClass(ChainMap.zero(x, m)).inverse() is None


def test_hom_space_homotopy_invariance_randomized(a2, a3):
    from koszulkit.fixtures import load_fixture

    for pres in (load_fixture("FIX_PT"), a2, a3):
        rng = rng_for(13, "hominv", pres.name)
        for trial in range(100):
            x = rand_complex(pres, rng, amplitude=3)
            y = rand_complex(pres, rng, amplitude=3)
            mx, _ = minimal_model(x)
            my, _ = minimal_model(y)
            k = rng.randint(-2, 2)
            sp = hom_space(x, y, k)
            assert sp.dimension == hom_space(mx, my, k).dimension
            assert sp._delta_rank == delta_matrix(sp).rank()


def delta_matrix(sp) -> Matrix:
    """The null-homotopy matrix of ``sp``, h -> d o h + h o d, dense and with
    every row: :class:`HomSpace` builds only its rows at the chain kernel's
    free columns, and keeps only the echelon form of [delta_F | I]."""
    x, ys = sp.x, sp.ys
    return dense(sp.homotopies.matrix(sp.maps, [
        (0, 1, "left", lambda i: ys.d(i - 1)),
        (-1, 1, "right", lambda i: x.d(i - 1))]))


def _joint_system(spaces, columns) -> Matrix:
    """Reference for the solves modulo null-homotopy: [columns | delta_1 (+)
    delta_2 (+) ...] over the stacked coordinates of ``spaces``, the given
    columns first, then the null-homotopy columns of each space, in space
    order.  It eliminates every delta again, which the engine never does."""
    fld = spaces[0].x.pres.field
    z = fld.zero
    h_total = sum(sp.h_total for sp in spaces)
    data = []
    left = 0
    for sp in spaces:
        pad_l, pad_r = [z] * left, [z] * (h_total - left - sp.h_total)
        delta = delta_matrix(sp)
        for r in range(sp.total):
            row = len(data)
            data.append([col[row] for col in columns] + pad_l + delta.data[r] + pad_r)
        left += sp.h_total
    return Matrix(fld, len(data), len(columns) + h_total, data)


def chain_map_basis(sp):
    """The chain kernel's basis K: ``cycle`` of each unit vector."""
    fld = sp.x.pres.field
    return [sp.cycle([fld.one if i == j else fld.zero for i in range(sp.nullity)])
            for j in range(sp.nullity)]


def hom_space_sweep(name, trials):
    """Seeded (space, chain maps, other maps) triples; the other maps are
    null-homotopic, or arbitrary vectors that are mostly not chain maps."""
    pres = load_fixture(name) if name.startswith("FIX") else path_category(5, 10007, killed=True)
    fld = pres.field
    rng = rng_for(29, "one-factorization", name)
    for _ in range(trials):
        x, y = rand_complex(pres, rng, amplitude=4), rand_complex(pres, rng, amplitude=4)
        sp = hom_space(x, y, rng.randint(-1, 1))
        chain_maps = [rand_chain_map(x, y, rng, sp.k) for _ in range(2)]
        boundaries = [sp._vector_to_homotopy([fld.of(rng.randint(-2, 2)) for _ in range(sp.h_total)])
                      .boundary() for _ in range(2)]
        vectors = [sp._vector_to_map([fld.of(rng.randint(-2, 2)) for _ in range(sp.total)])
                   for _ in range(2)]
        yield sp, chain_maps, boundaries + vectors


@pytest.mark.parametrize("name", ["FIX_A3", "A5-killed/F10007"])
def test_hom_space_queries_match_the_joint_system(name):
    nones = {"express": 0, "null_homotopy": 0}
    for sp, chain_maps, others in hom_space_sweep(name, 40):
        for f in chain_maps + others:
            v = sp.map_to_vector(f)
            joint = _joint_system([sp], [sp.map_to_vector(b) for b in sp.basis]).solve(v)
            coords = sp.express(f)
            assert coords == (None if joint is None else joint[:sp.dimension])
            nones["express"] += coords is None
            h_joint = _joint_system([sp], []).solve(v)
            h = sp.null_homotopy(f)
            assert (h is None) == (h_joint is None)
            if h is not None:
                assert sp.homotopies.to_vector(h.comps.get) == h_joint
                assert h.boundary() == f
            nones["null_homotopy"] += h is None
    assert nones["express"] and nones["null_homotopy"]


@pytest.mark.parametrize("name", ["FIX_A3", "A5-killed/F10007"])
def test_multi_space_solve_matches_the_joint_system(name):
    """``HomClass.inverse`` solves over Hom(y, y) and Hom(x, x) at once, in
    quotient-basis coordinates.  On minimal-model isos, zero maps and random
    chain maps x -> m it finds no inverse exactly when the joint reference
    over every chain map m -> x has no solution, and otherwise both
    composites differ from the identity by a null-homotopy."""
    pres = load_fixture(name) if name.startswith("FIX") else path_category(5, 10007, killed=True)
    rng = rng_for(31, "multi-space", name)
    outcomes = Counter()
    for _ in range(6):
        x = rand_complex(pres, rng)
        m, iso = minimal_model(x)
        sp_back, sp_mm, sp_xx = hom_space(m, x), hom_space(m, m), hom_space(x, x)
        rhs = sp_mm.map_to_vector(ChainMap.identity(m)) + sp_xx.map_to_vector(ChainMap.identity(x))
        for f in (iso.fwd, ChainMap.zero(x, m), rand_chain_map(x, m, rng)):
            columns = [sp_mm.map_to_vector(f.compose(g)) + sp_xx.map_to_vector(g.compose(f))
                       for g in chain_map_basis(sp_back)]
            g = HomClass(f).inverse()
            assert (g is None) == (_joint_system([sp_mm, sp_xx], columns).solve(rhs) is None)
            outcomes[g is None] += 1
            if g is None:
                continue
            for sp, composite in ((sp_mm, f.compose(g.rep)), (sp_xx, g.rep.compose(f))):
                residual = composite.sub(ChainMap.identity(sp.x))
                h = sp.null_homotopy(residual)
                assert h is not None and h.boundary() == residual
    assert outcomes[True] and outcomes[False]


def test_hom_space_queries_run_no_joint_elimination(monkeypatch):
    shapes = []
    rref = Matrix.rref

    def counting(self):
        shapes.append((self.rows, self.cols))
        return rref(self)

    monkeypatch.setattr(Matrix, "rref", counting)
    queried = 0
    for sp, chain_maps, others in hom_space_sweep("FIX_A3", 25):
        shapes.clear()
        for f in chain_maps + others:
            sp.express(f)
            sp.null_homotopy(f)
        assert shapes == []
        queried += sp.dimension > 0
    assert queried


REFERENCE_NAMES = [*FIXTURE_NAMES, *PATH_NAMES, *QUIVER_NAMES]


def seeded_draws(pres, rng, trials):
    """Seeded (x, y, k) with chain-map unknowns, two thirds of them with
    chain-condition rows too; a third with both complexes conjugated and a
    third with one."""
    t = 0
    while t < trials:
        x, y = rand_complex(pres, rng, amplitude=3), rand_complex(pres, rng, amplitude=3)
        k = rng.randint(-1, 1)
        if not supports_meet(x, y, k) or (t % 3 < 2 and not supports_meet(x, y, k + 1)):
            continue
        if t % 3 < 2:
            x = conjugate_complex(x, rng)[0]
        if t % 3 == 0:
            y = conjugate_complex(y, rng)[0]
        t += 1
        yield x, y, k


def reference_draws(pres, rng, trials):
    """The Hom space of each of :func:`seeded_draws` and the [delta | K] reference."""
    for x, y, k in seeded_draws(pres, rng, trials):
        yield HomSpace(x, y, k), homspace_reference.HomSpace(x, y, k)


def probe_maps(sp, rng):
    """Chain maps, boundaries, their sums, and arbitrary vectors (mostly not
    chain maps) in the map coordinates of ``sp``."""
    fld = sp.x.pres.field

    def draw(n):
        return [fld.of(rng.randint(-2, 2)) for _ in range(n)]

    chain_maps = [sp.cycle(draw(sp.nullity)) for _ in range(2)]
    boundaries = [sp._vector_to_homotopy(draw(sp.h_total)).boundary() for _ in range(2)]
    vectors = [sp._vector_to_map(draw(sp.total)) for _ in range(2)]
    return chain_maps + boundaries + [chain_maps[0].add(boundaries[0])] + vectors


@pytest.mark.parametrize("name", REFERENCE_NAMES)
def test_hom_space_matches_the_delta_kernel_reference(name):
    """Eliminating [delta_F | I] in the chain kernel's coordinates answers
    every query as eliminating [delta | K] over all map coordinates did:
    the same basis and chain-map basis on the nose, and the same coordinates
    and homotopies on chain maps, boundaries and vectors that are not chain
    maps."""
    pres = presentation(name)
    rng = rng_for(2101, "delta-kernel reference", name)
    seen = Counter()
    for sp, ref in reference_draws(pres, rng, 9):
        assert (sp.total, sp.h_total, sp.nullity, sp._delta_rank, sp.dimension) == \
            (ref.total, ref.h_total, ref.nullity, ref._delta_rank, ref.dimension)
        assert sp.basis == ref.basis
        assert chain_map_basis(sp) == chain_map_basis(ref)
        coeffs = [pres.field.of(rng.randint(-2, 2)) for _ in range(sp.nullity)]
        assert sp.cycle(coeffs) == ref.cycle(coeffs)
        maps = probe_maps(sp, rng)
        for f in maps:
            coords = sp.express(f)
            assert coords == ref.express(f)
            h, h_ref = sp.null_homotopy(f), ref.null_homotopy(f)
            assert (h is None) == (h_ref is None)
            if h is not None:
                assert h.comps == h_ref.comps and h.boundary() == f
            seen["express", coords is None] += 1
            seen["null_homotopy", h is None] += 1
    assert seen["express", True] and seen["null_homotopy", True] and seen["null_homotopy", False]


class SliceCounter(list):
    """A coordinate vector that counts the slices read from it."""

    slices = 0

    def __getitem__(self, key):
        if isinstance(key, slice):
            self.slices += 1
        return list.__getitem__(self, key)


@pytest.mark.parametrize("name", REFERENCE_NAMES)
def test_from_vector_matches_the_full_cut(name):
    """``Coords.from_vector`` cuts only the blocks that hold a nonzero
    coordinate, and gives what cutting every block gave, entry type for
    entry type: on the map and homotopy coordinates of seeded Hom spaces,
    for all-zero, one-entry, sparse and dense vectors.  It reads one slice
    per nonzero block, so a one-entry vector reads exactly one."""
    pres = presentation(name)
    fld = pres.field
    rng = rng_for(3701, "from_vector", name)
    # over Q, ints mixed with Fractions, integral ones among them
    values = [1, 5000, fld.char - 1] if fld.char else [1, -2, Fraction(3), Fraction(-1, 2)]
    seen = Counter()
    for x, y, k in seeded_draws(pres, rng, 6):
        sp = HomSpace(x, y, k)
        for coords in (sp.maps, sp.homotopies):
            n = coords.total
            one = [fld.zero] * n
            if n:
                one[rng.randrange(n)] = rng.choice(values)
            sparse = [rng.choice(values) if rng.random() < 0.15 else fld.zero for _ in range(n)]
            dense = [rng.choice(values) for _ in range(n)]
            for kind, vec in (("zero", [fld.zero] * n), ("one", one), ("sparse", sparse),
                              ("dense", dense)):
                counted = SliceCounter(vec)
                got = coords.from_vector(counted)
                want = {i: AddMorphism(pres, s, t, cut_blocks(vec, coords.starts[i], s, t))
                        for i, (s, t) in coords.objs.items()}
                assert list(got) == list(coords.objs)
                assert {i: typed(m) for i, m in got.items()} == \
                    {i: typed(m) for i, m in want.items()}
                assert all(type(m.blocks) is tuple and type(row) is tuple
                           and all(b is None or type(b) is tuple for b in row)
                           for m in got.values() for row in m.blocks)
                cut = [b for m in want.values() for row in m.blocks for b in row if b]
                assert counted.slices == len(cut)
                if kind == "one" and n:
                    assert counted.slices == 1
                seen[kind] += n > 0
                seen["wide"] += any(len(b) > 1 for b in cut)
                seen["zero slice"] += kind != "zero" and any(m.is_zero() for m in got.values())
    assert seen["zero"] and seen["one"] and seen["sparse"] and seen["dense"]
    assert seen["zero slice"]
    assert seen["wide"] or name not in WIDE_BLOCK_NAMES


def add_reference(f, g):
    """``ChainMap.add`` summing every degree either map has, with an
    explicit zero for the map that lacks it."""
    comps = {i: f.component(i).add(g.component(i)) for i in f.comps.keys() | g.comps.keys()}
    return ChainMap(f.source, f.target, comps, check=False)


@pytest.mark.parametrize("name", REFERENCE_NAMES)
def test_chain_map_add_matches_the_explicit_zero_reference(name):
    """Adding only where both maps have a component gives the sum with
    explicit zeros, entry type for entry type: on parallel pairs, pairs with
    disjoint support, identities and cancelling pairs."""
    pres = presentation(name)
    rng = rng_for(3702, "chain map add", name)
    pairs = list(chain_map_pairs(pres, rng, 2))
    for _ in range(4):
        x = rand_complex(pres, rng)
        f = rand_chain_map(x, x, rng)
        even, odd = (ChainMap(x, x, {i: m for i, m in f.comps.items() if i % 2 == r}, check=False)
                     for r in (0, 1))
        pairs += [(even, odd), (ChainMap.identity(x), f), (f, f.scale(-1)),
                  (f, ChainMap.identity(x).scale(-1))]
    seen = Counter()
    for f, g in pairs:
        for a, b in ((f, g), (g, f)):
            got, want = a.add(b), add_reference(a, b)
            assert (got.source, got.target) == (want.source, want.target)
            assert typed_comps(got) == typed_comps(want)
        seen["one-sided"] += bool(f.comps.keys() ^ g.comps.keys())
        seen["cancelled"] += len(f.add(g).comps) < len(f.comps.keys() | g.comps.keys())
    assert seen["one-sided"] and seen["cancelled"]


def test_chain_map_add_checks_the_endpoints_of_one_sided_degrees(a2):
    """Planted mismatch: at a degree only one map has, its component must run
    between the other map's terms, whichever side it is on."""
    a, b = single(a2, "a"), single(a2, "b")
    ident = ChainMap.identity(a)                  # a -> a at degree 0
    for other in (ChainMap.zero(b, b), ChainMap.zero(a, b), ChainMap.zero(b, a)):
        for f, g in ((ident, other), (other, ident)):
            with pytest.raises(CompositionError, match="add: object mismatch"):
                f.add(g)
            with pytest.raises(CompositionError, match="add: object mismatch"):
                add_reference(f, g)
    # terms that differ only where neither map has a component are not read
    ab = Complex(a2, {0: obj("a"), 1: obj("b")}, {})
    assert ident.add(ChainMap.zero(ab, ab)) == ident


def shift_reference(x: Complex, n: int) -> Complex:
    """X[n] copied and re-scaled on every call, X[0] included."""
    terms = {i - n: t for i, t in x.terms.items()}
    sign = x.pres.field.one if n % 2 == 0 else x.pres.field.neg(x.pres.field.one)
    diffs = {i - n: d.scale(sign) for i, d in x.diffs.items()}
    return Complex(x.pres, terms, diffs, check=False)


def typed_complex(x: Complex):
    """A complex's terms in order, then its differentials, each :func:`typed`."""
    return list(x.terms.items()), [(i, typed(d)) for i, d in x.diffs.items()]


@pytest.mark.parametrize("name", REFERENCE_NAMES)
def test_shift_matches_the_copying_reference(name):
    """Each kept shift, and each shift of a kept shift, is the complex the
    copying reference builds, term for term and entry type for entry type,
    on the complexes of :func:`seeded_draws`, conjugated and not."""
    pres = presentation(name)
    rng = rng_for(4001, "shift reference", name)
    with_diffs = 0
    for x in (c for x, y, _ in seeded_draws(pres, rng, 4) for c in (x, y)):
        for n in range(-3, 4):
            got, want = x.shift(n), shift_reference(x, n)
            assert got.pres is want.pres
            assert typed_complex(got) == typed_complex(want)
        for a in range(-3, 4):
            for b in range(-3, 4):
                got = x.shift(a).shift(b)
                assert typed_complex(got) == typed_complex(shift_reference(shift_reference(x, a), b))
        with_diffs += bool(x.diffs)
    assert with_diffs >= 2


def draw_with_diffs(pres, rng, at_least):
    """A random complex with at least ``at_least`` nonzero differentials."""
    while True:
        x = rand_complex(pres, rng, amplitude=4)
        if len(x.diffs) >= at_least:
            return x


def test_each_shift_is_built_once(monkeypatch):
    """X[0] is X, X[n] is kept on X, and a kept odd shift scales no
    differential again."""
    pres = presentation("A6/F0")
    rng = rng_for(4002, "shift sharing")
    x = draw_with_diffs(pres, rng, 2)
    assert x.shift(0) is x
    scaled = []
    real_scale = AddMorphism.scale

    def counting(self, c):
        scaled.append(c)
        return real_scale(self, c)

    monkeypatch.setattr(AddMorphism, "scale", counting)
    first = x.shift(1)
    assert len(scaled) == len(x.diffs)
    assert x.shift(1) is first and len(scaled) == len(x.diffs)
    for n in (-3, -2, -1, 2, 3):
        assert x.shift(n) is x.shift(n)


def test_hom_spaces_into_one_complex_share_its_shift(monkeypatch):
    """Six Hom(x_i, y[1]) build y[1] once."""
    pres = presentation("A6/F10007")
    rng = rng_for(4003, "shared hom shift")
    y = draw_with_diffs(pres, rng, 1)
    xs = [rand_complex(pres, rng, amplitude=3) for _ in range(6)]
    built = []
    real_init = Complex.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Complex, "__init__", counting)
    spaces = [HomSpace(x, y, 1) for x in xs]
    assert len(built) == 1 and all(sp.ys is built[0] for sp in spaces)
    assert typed_complex(built[0]) == typed_complex(shift_reference(y, 1))


def test_kept_shifts_make_no_reference_cycle():
    """Dropping a complex and its shifts frees them by reference counting:
    with the collector off and every unreachable object saved, a collection
    finds no complex among them."""
    pres = presentation("A6/F0")
    x = draw_with_diffs(pres, rng_for(4004, "shift cycle"), 2)
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        shifts = [x.shift(n) for n in (-2, -1, 1, 2)]
        chained = x.shift(1).shift(1).shift(-3)
        del x, shifts, chained
        gc.collect()
        kept = [o for o in gc.garbage if isinstance(o, Complex)]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert kept == []


def echelon_fields(e):
    """An echelon's whole value; R is fixed by its pivots and sparse rows."""
    return e.rows, e.cols, e.pivots, e._entries


def fresh(c: Complex) -> Complex:
    """A new complex equal to c, so with no Hom complex kept yet."""
    return Complex(c.pres, c.terms, c.diffs, check=False)


def typed_echelon(e):
    """:func:`echelon_fields` with the type of every entry."""
    return e.rows, e.cols, list(e.pivots), [[(j, type(v), v) for j, v in row.items()]
                                            for row in e._entries]


def typed_answers(sp, maps):
    """Everything a Hom space answers, entry type for entry type: its sizes,
    both echelons, its basis, and ``express`` and ``null_homotopy`` of
    ``maps``."""
    return ((sp.total, sp.h_total, sp.nullity, sp._delta_rank, sp.dimension),
            typed_echelon(sp._chains), typed_echelon(sp._echelon),
            [typed_comps(b) for b in sp.basis],
            [None if (c := sp.express(f)) is None else [(type(v), v) for v in c] for f in maps],
            [typed_comps(sp.null_homotopy(f)) for f in maps])


K_ORDERS = [(-1, 0, 1), (1, 0, -1), (0, 1, -1), (0, -1, 1), (1, -1, 0), (0, 0, 1, 1, -1, -1)]


@pytest.mark.parametrize("name", REFERENCE_NAMES)
def test_hom_complex_answers_every_order_as_a_cold_build(name):
    """Hom(x, y[k]) for k in -1..1, built in several orders on one pair (so
    reading layouts and differentials the Hom complex kept), answers as a
    cold build of that k alone on fresh copies: sizes, both echelons,
    basis, and ``express`` and ``null_homotopy`` of chain maps, boundaries
    and other maps, entry type for entry type."""
    pres = presentation(name)
    rng = rng_for(4401, "hom complex orders", name)
    seen = Counter()
    for x, y, _ in seeded_draws(pres, rng, 4):
        cold = {}
        for k in (-1, 0, 1):
            sp = HomSpace(fresh(x), fresh(y), k)
            maps = probe_maps(sp, rng) if sp.total else []
            cold[k] = maps, typed_answers(sp, maps)
            seen["nonzero"] += sp.dimension > 0
        for order in K_ORDERS:
            xs, ys = fresh(x), fresh(y)
            for k in order:
                maps, want = cold[k]
                assert typed_answers(HomSpace(xs, ys, k), maps) == want
            assert len(xs._homs) == 1
    assert seen["nonzero"]


def test_hom_complex_of_a_freed_target_is_never_read():
    """A Hom complex is found by id(y) and checked against a weak reference
    to y.  Once y is freed, a new complex that gets its id finds the dead
    reference and builds its own Hom complex: its answers are a cold
    build's, on Hom(x, x) too."""
    for name in ("A6/F0", "A5/F10007"):
        pres = presentation(name)
        rng = rng_for(4402, "freed target", name)
        for x, drawn, k in seeded_draws(pres, rng, 4):
            y, z = fresh(drawn), rand_complex(pres, rng, amplitude=3)   # the draw keeps drawn alive
            for k2 in (k - 1, k, k + 1):
                HomSpace(x, y, k2).express(ChainMap.zero(x, y.shift(k2)))
            key = id(y)
            del y
            assert x._homs[key][0]() is None
            made = []       # kept alive, so that each try takes a new block
            while len(made) < 10_000 and (not made or id(made[-1]) != key):
                made.append(fresh(z))
            assert id(made[-1]) == key
            for target in (made[-1], x):
                for k2 in (k - 1, k, k + 1):
                    cold = HomSpace(fresh(x), fresh(target), k2)
                    maps = probe_maps(cold, rng) if cold.total else []
                    got = HomSpace(x, target, k2)
                    assert typed_answers(got, maps) == typed_answers(cold, maps)
            assert x._homs[key][0]() is made[-1]


def test_hom_complexes_make_no_reference_cycle():
    """Hom(x, y[k]) and Hom(x, x[k]) leave x its Hom complexes and no
    reference cycle: with the collector off and every unreachable object
    saved, dropping the complexes and the spaces leaves no complex for a
    collection to find."""
    pres = presentation("A6/F0")
    rng = rng_for(4403, "hom complex cycle")
    x, y = draw_with_diffs(pres, rng, 2), draw_with_diffs(pres, rng, 2)
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        spaces = [HomSpace(x, t, k) for t in (y, x) for k in (-1, 0, 1)]
        for sp in spaces:
            total = ChainMap.zero(x, sp.ys)
            for b in sp.basis:
                total = total.add(b)
            assert sp.express(total) == [1] * sp.dimension
        assert len(x._homs) == 2 and any(sp.dimension for sp in spaces)
        del x, y, spaces, sp, total, b
        gc.collect()
        kept = [o for o in gc.garbage if isinstance(o, Complex)]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert kept == []


def test_hom_q_pair_builds_five_layouts_and_four_differentials(monkeypatch):
    """One hom_q-style pair read at k = -1, 0, 1, as the benchmark reads it
    (build, basis, ``express``), lays out Hom^-2..Hom^2 once each and
    assembles d^-2..d^1 once each: 5 ``Coords`` and 4 ``Coords.matrix``
    calls, where building each k on its own took 9 and 6."""
    for x, y, _ in hom_q_draws(44):
        if all(supports_meet(x, y, k) for k in (-1, 0, 1)):
            break
    counts = Counter()
    init, matrix = Coords.__init__, Coords.matrix

    def counting_init(self, *args):
        counts["layouts"] += 1
        init(self, *args)

    def counting_matrix(self, *args):
        counts["matrices"] += 1
        return matrix(self, *args)

    monkeypatch.setattr(Coords, "__init__", counting_init)
    monkeypatch.setattr(Coords, "matrix", counting_matrix)
    for k in (-1, 0, 1):
        sp = hom_space(x, y, k)
        total = ChainMap.zero(x, sp.ys)
        for b in sp.basis:
            total = total.add(b)
        assert sp.total and sp.express(total) == [1] * sp.dimension
    assert counts == {"layouts": 5, "matrices": 4}


def record_quotient_rows(monkeypatch):
    """(seen, delta_f): ``seen`` collects the row form of every
    :class:`RowMatrix` eliminated, and ``delta_f()`` reads the rows of
    delta_F off the last one, the quotient [delta_F | I] that a build
    eliminates after its chain condition, with the I block cut off and
    checked: row r has its d at column h_total + r and nothing else there."""
    seen = []
    rref = Matrix.rref

    def recording(self):
        if isinstance(self, RowMatrix):
            seen.append((self.rows, self.cols, [(dict(row), d) for row, d in self.krows]))
        return rref(self)

    monkeypatch.setattr(Matrix, "rref", recording)

    def delta_f():
        n, cols, krows = seen[-1]
        h = cols - n
        for r, (row, d) in enumerate(krows):
            assert row[h + r] == d and all(j < h or j == h + r for j in row)
        return [({j: v for j, v in row.items() if j < h}, d) for row, d in krows]

    return seen, delta_f


@pytest.mark.parametrize("name", REFERENCE_NAMES)
def test_constraint_rows_are_the_loaded_per_basis_rows(name, monkeypatch):
    """``Coords.matrix`` builds each row of D1 in rref's row form: the
    numerators and d that ``_load_q`` / ``_load_mod`` make of the dense
    per-basis row, with fractional differentials and, on quiver0/2/6 over
    Q, fractional structure constants.  A build on a fresh pair assembles
    d^k (D1) and then d^(k-1) in full; delta_F, read off d^(k-1), is the
    loaded per-basis delta at the rows F, ``nullity`` of them, and both
    eliminations equal those of the dense per-basis matrices field by
    field."""
    pres = presentation(name)
    fld = pres.field
    load = _load_mod if fld.char else _load_q
    rng = rng_for(3101, "row form", name)
    built = []
    matrix = Coords.matrix

    def recording(self, rows, terms):
        m = matrix(self, rows, terms)
        built.append([(dict(row), d) for row, d in m.krows])
        return m

    monkeypatch.setattr(Coords, "matrix", recording)
    eliminated, quotient_rows = record_quotient_rows(monkeypatch)
    dens = Counter()
    for x, y, k in seeded_draws(pres, rng, 9):
        built.clear()
        eliminated.clear()
        sp = HomSpace(x, y, k)
        if not sp.total:
            assert built == []
            continue
        chain_rows, previous = built
        assert len(eliminated) == 2
        delta_rows = quotient_rows()
        ys = sp.ys
        chain = per_basis_matrix(sp.maps, Coords(pres, {i: (t, ys.terms[i + 1]) for i, t in x.terms.items()
                                                       if i + 1 in ys.terms}), [
            (0, 1, lambda i, b: ys.d(i).compose(b)),
            (-1, -1, lambda i, b: b.compose(x.d(i - 1)))])
        delta = per_basis_matrix(sp.homotopies, sp.maps, [
            (0, 1, lambda i, b: ys.d(i - 1).compose(b)),
            (-1, 1, lambda i, b: b.compose(x.d(i - 1)))])
        assert chain_rows == [load(row) for row in chain.data]
        assert len(previous) == sp.total
        assert len(delta_rows) == sp.nullity
        assert delta_rows == [load(delta.data[j]) for j in sp._free]
        assert echelon_fields(RowMatrix(fld, chain.rows, chain.cols, chain_rows).rref()) == \
            echelon_fields(sp._chains) == echelon_fields(chain.rref())
        n, h = sp.nullity, sp.h_total
        quotient = Matrix(fld, n, h + n, [delta.data[j] + [int(r == c) for c in range(n)]
                                          for r, j in enumerate(sp._free)])
        assert echelon_fields(sp._echelon) == echelon_fields(quotient.rref())
        dens.update(d != 1 for _, d in chain_rows + delta_rows)
    # over F_p every d is 1; over Q the conjugated differentials give d > 1
    assert bool(dens[True]) == (fld.char == 0)


@pytest.mark.parametrize("name", ["FIX_A3", "A5-killed/F10007", *WIDE_BLOCK_NAMES])
def test_hom_space_quotient_elimination_has_nullity_rows(name, monkeypatch):
    """A Hom space eliminates the chain condition, then [delta_F | I]: one
    row per chain-map coordinate, not one per map coordinate."""
    pres = presentation(name)
    rng = rng_for(2103, "quotient rows", name)
    shapes = []
    rref = Matrix.rref

    def recording(self):
        shapes.append((self.rows, self.cols))
        return rref(self)

    smaller = 0
    for _ in range(25):
        x, y = rand_complex(pres, rng, amplitude=4), rand_complex(pres, rng, amplitude=4)
        k = rng.randint(-1, 1)
        monkeypatch.setattr(Matrix, "rref", recording)
        shapes.clear()
        sp = HomSpace(x, y, k)
        monkeypatch.undo()
        if sp.total:
            assert [cols for _, cols in shapes[:1]] == [sp.total]
            assert shapes[1:] == [(sp.nullity, sp.h_total + sp.nullity)]
        else:
            assert shapes == [(0, sp.h_total)]
        smaller += sp.nullity < sp.total
    assert smaller


# ------------------------------------------------------------ top extraction

def test_top_extraction_single_stratum(a2):
    x = single(a2, "a")
    te = top_extraction(x)
    assert te.P == x and te.Y.is_zero
    assert te.triangle.verify() == []


def test_top_extraction_cone_alpha(a2):
    x = cone_alpha(a2)
    te = top_extraction(x, sigma={(-1, 1), (0, 0)})
    assert te.P == single(a2, "a", 0)
    assert te.Y == single(a2, "b", -1)
    assert te.triangle.verify() == []
    # cone(delta) reassembles x exactly, through the summand reordering
    z, _, _ = cone(te.delta)
    assert z.support() == x.support()
    assert te.reorder.verify() and te.reorder_inv.verify()
    assert te.reorder.compose(te.reorder_inv) == ChainMap.identity(x)
    assert te.reorder_inv.compose(te.reorder) == ChainMap.identity(z)


def test_top_extraction_empty_top_stratum(a2):
    x = single(a2, "b", 0)   # support {(0, 1)}
    te = top_extraction(x, sigma={(0, 1), (1, 5)})
    assert te.P.is_zero and te.Y == x
    assert te.triangle.verify() == []


def test_top_extraction_rejects_support_violation(a2):
    x = cone_alpha(a2)
    with pytest.raises(ComplexError):
        top_extraction(x, sigma={(0, 0)})


def reorder_maps_reference(x, te):
    """The reordering chain maps as top_extraction used to build them, from
    cone(delta) on every call."""
    pres, (cone_cx, _, _) = x.pres, cone(te.delta)
    fwd = {k: AddMorphism.inclusion(pres, cone_cx.term(k), x.term(k), o)
           for k, o in te.order.items()}
    bwd = {k: AddMorphism.projection(pres, x.term(k), cone_cx.term(k), o)
           for k, o in te.order.items()}
    return ChainMap(cone_cx, x, fwd, check=False), ChainMap(x, cone_cx, bwd, check=False)


@pytest.mark.parametrize("name", ["FIX_A2", "FIX_A3", *QUIVER_NAMES])
def test_top_extraction_builds_the_reordering_on_first_read(monkeypatch, name):
    pres = presentation(name)
    rng = rng_for(7, "extraction", name)
    cones = []

    def counting(f):
        cones.append(f)
        return cone(f)

    monkeypatch.setattr(probe_reference, "cone", counting)
    extracted = 0
    for x in [Complex.zero(pres), *(rand_complex(pres, rng, amplitude=3) for _ in range(8))]:
        for sigma in (None, x.support() | {(9, 9)}):
            cones.clear()
            te = top_extraction(x, sigma)
            assert cones == []                     # no cone(delta) until a read
            assert (te.reorder, te.reorder_inv) == reorder_maps_reference(x, te)
            assert cones == [te.delta]             # built once, on the first read
            assert te.reorder is te.reorder and te.reorder_inv is te.reorder_inv
            assert te.reorder.verify() and te.reorder_inv.verify()
            assert te.reorder.compose(te.reorder_inv) == ChainMap.identity(x)
            assert cones == [te.delta]
            extracted += not te.Y.is_zero
    assert extracted > 0


# --------------------------------------------------------- square completion

def test_complete_square_identity(a2):
    f = alpha_map(a2)
    r, h = complete_square(f, f, ChainMap.identity(f.source), ChainMap.identity(f.target))
    zf, _, _ = cone(f)
    assert r == ChainMap.identity(zf)


def test_complete_square_zero_maps(a2):
    x, y = single(a2, "a"), single(a2, "b", 1)
    f = ChainMap.zero(x, y)
    r, _ = complete_square(f, f, ChainMap.identity(x), ChainMap.identity(y))
    zf, _, _ = cone(f)
    assert r == ChainMap.identity(zf)


def test_complete_square_random_commuting(a2):
    # commuting squares over cone(alpha): matching scalars, then a
    # homotopy-twisted vertical that only commutes up to homotopy
    rng = rng_for(3, "square")
    f = alpha_map(a2)
    zf, inc, proj = cone(f)
    ran = 0
    for _ in range(10):
        c = rng.randint(-4, 4)
        p = ChainMap.identity(f.source).scale(c)
        q = ChainMap.identity(f.target).scale(c)
        r, h = complete_square(f, f, p, q)
        assert r.verify()
        assert HomClass(r.compose(inc)) == HomClass(inc.compose(q))
        assert HomClass(proj.compose(r)) == HomClass(p.shift(1).compose(proj))
        ran += 1
    assert ran == 10
    # square over the inclusion into the cone, with a twisted vertical
    sp = hom_space(zf, zf, 0)
    g = inc   # a-point -> cone(alpha)
    for _ in range(5):
        c = rng.randint(-3, 3)
        p2 = ChainMap.identity(g.source).scale(c)
        q2 = ChainMap.identity(zf).scale(c)
        h_rand = sp._vector_to_homotopy(
            [a2.field.of(rng.randint(-2, 2)) for _ in range(sp.h_total)])
        q2 = q2.add(h_rand.boundary())
        assert is_null_homotopic(q2.compose(g).sub(g.compose(p2))) is not None
        r2, _ = complete_square(g, g, p2, q2)
        assert r2.verify()
        zg, inc_g, proj_g = cone(g)
        assert HomClass(r2.compose(inc_g)) == HomClass(inc_g.compose(q2))
        assert HomClass(proj_g.compose(r2)) == HomClass(p2.shift(1).compose(proj_g))


def test_complete_square_rejects_non_commuting(a2):
    f = alpha_map(a2)
    with pytest.raises(FillError):
        complete_square(f, f, ChainMap.identity(f.source),
                        ChainMap.zero(f.target, f.target))


def complete_square_reference(f, i2, p, q):
    """The square completed with the homotopy the Hom-space solve gives,
    whether the difference q o f - i2 o p is zero or not."""
    return complete_square(f, i2, p, q, is_null_homotopic(q.compose(f).sub(i2.compose(p))))


def square_cases(name):
    """Squares q o f = i2 o p with i2 = f over seeded complexes: on the nose
    (p and q the same scalar), and, over the identity of z = cone(1_y), up
    to a random boundary added to q."""
    pres = presentation(name)
    fld, rng = pres.field, rng_for(67, "square", name)
    out = []
    for _ in range(4):
        x, y = rand_complex(pres, rng, amplitude=3), rand_complex(pres, rng, amplitude=3)
        c = fld.of(rng.randint(-3, 3))
        out.append((rand_chain_map(x, y, rng), ChainMap.identity(x).scale(c),
                    ChainMap.identity(y).scale(c)))
        z, _, _ = cone(ChainMap.identity(y))
        sp, q = hom_space(z, z, 0), ChainMap.identity(z).scale(c)
        h = sp._vector_to_homotopy([fld.of(rng.choice((1, 2, -1, -3)))
                                    for _ in range(sp.h_total)])
        out.append((ChainMap.identity(z), q, q.add(h.boundary())))
    return out


@pytest.mark.parametrize("name", ["FIX_A2", "FIX_A3", *QUIVER_NAMES])
def test_complete_square_takes_the_zero_homotopy_the_solve_gives(monkeypatch, name):
    """Reference: on a zero difference, complete_square builds no Hom space
    and returns the (r, h) of the solve; a nonzero difference still goes
    through the solve."""
    init, builds = HomSpace.__init__, Counter()

    def counting(self, *args):
        builds["spaces"] += 1
        init(self, *args)

    seen = Counter()
    for f, p, q in square_cases(name):
        zero = q.compose(f).sub(f.compose(p)).is_zero()
        ref_r, ref_h = complete_square_reference(f, f, p, q)
        builds.clear()
        with monkeypatch.context() as m:
            m.setattr(HomSpace, "__init__", counting)
            r, h = complete_square(f, f, p, q)
        assert r == ref_r
        assert (h.source, h.target, h.comps) == (ref_h.source, ref_h.target, ref_h.comps)
        assert builds["spaces"] == (0 if zero else 1)
        seen[zero] += 1
    assert seen[True] > 0 and seen[False] > 0, seen


# ------------------------------------------------------- triangle invariants

def test_dt_orlov_cone_support_randomized(a3):
    # combined top-stratum map: support of the minimal cone stays in
    # (lower strata) union {(i-1, j)}
    rng = rng_for(31, "dt3")
    for _ in range(15):
        x = rand_complex(a3, rng, amplitude=3)
        if x.is_zero:
            continue
        xm, _ = minimal_model(x)
        if xm.is_zero:
            continue
        te = top_extraction(xm)
        supp = xm.support()
        i, j = max(supp)
        sigma_pp = (supp - {(i, j)}) | {(i - 1, j)}
        if te.P.is_zero:
            continue
        f2 = rand_chain_map(te.P, xm, rng)
        combined_src, i1, i2, p1, p2 = direct_sum(te.P, te.P)
        f = te.triangle.f.compose(p1).add(f2.compose(p2))
        z, _, _ = cone(f)
        zmin, _ = minimal_model(z)
        assert zmin.support() <= sigma_pp | supp - {(i, j)} | {(i - 1, j)}


def test_triangle_rotation_long_exactness(a2):
    # alternating sum of Hom dimensions over a full window vanishes
    rng = rng_for(17, "les")
    a_obj = cone_alpha(a2)
    for _ in range(8):
        x = rand_complex(a2, rng, amplitude=2)
        y = rand_complex(a2, rng, amplitude=2)
        maps = rand_chain_map(x, y, rng)
        tri = Triangle.from_cone(maps)
        total = 0
        for k in range(-6, 7):
            sx = hom_space(a_obj, tri.X, k).dimension
            sy = hom_space(a_obj, tri.Y, k).dimension
            sz = hom_space(a_obj, tri.Z, k).dimension
            total += (-1) ** k * (sx - sy + sz)
        assert total == 0


def test_one_layout_walk_per_coords_degree(monkeypatch):
    """A Hom build, its basis and an ``express`` walk each (source, target)
    pair of the three ``Coords`` (chain maps, homotopies, chain-condition
    rows) once: at most one read of a Hom basis's length per block of each
    degree.  The counter is installed before the first build, on fresh
    copies of the drawn pair, which have no Hom complex yet."""
    pres = path_category(10, 0)
    rng = rng_for(41, "layout-walks")
    while True:
        x, y = (conjugate_complex(rand_complex(pres, rng, amplitude=4, max_summands=4), rng)[0]
                for _ in "xy")
        k = rng.randint(-1, 1)
        if hom_space(x, y, k).dimension >= 2:
            break
    x, y = fresh(x), fresh(y)
    ys = y.shift(k)
    degrees = [(t, ys.terms[i + step]) for step in (0, -1, 1)
               for i, t in x.terms.items() if i + step in ys.terms]
    once = Counter((s, t) for a, b in degrees for t in b for s in a)
    calls = Counter()

    class CountedPairs(dict):
        def get(self, key, default=None):
            calls.update([key])
            return super().get(key, default)

    monkeypatch.setattr(pres, "pairs", CountedPairs(pres.pairs))
    sp = hom_space(x, y, k)
    total = ChainMap.zero(x, ys)
    for b in sp.basis:
        total = total.add(b)
    assert sp.express(total) == [1] * sp.dimension
    assert calls and not calls - once


def hom_q_draws(seed):
    """(x, y, k) as the hom_q benchmark draws them: conjugated
    ``rand_complex`` pairs on A_10 over Q, k in -1..1, with chain-map
    unknowns."""
    pres = path_category(10, 0)
    rng = rng_for(seed, "hom_q-style")
    while True:
        x, y = (conjugate_complex(rand_complex(pres, rng, amplitude=4, max_summands=4), rng)[0]
                for _ in "xy")
        k = rng.randint(-1, 1)
        if supports_meet(x, y, k):
            yield x, y, k


def test_hom_space_converts_only_the_scalars_it_reads():
    """Over Q an :class:`Echelon` keeps its pivot rows as ints until they
    are read.  Building a Hom space reads none of the quotient echelon's
    rows; ``basis`` reads the chain echelon's (``kernel_vector``), and
    ``express`` reads both (``defect``), so each list is converted exactly
    when a query needs it."""
    seen = Counter()
    for x, y, k in hom_q_draws(34):
        sp = hom_space(x, y, k)
        if not sp.total:        # no elimination: the space is 0
            continue
        if seen["spaces"] == 40:
            break
        seen["spaces"] += 1
        chains, quotient = sp._chains, sp._echelon
        assert quotient._raw_entries
        assert chains._raw_entries == (not sp.basis)
        assert all(type(d) is int for _, d in quotient._rrows)
        total = ChainMap.zero(x, sp.ys)
        for b in sp.basis:
            total = total.add(b)
        assert sp.express(total) == [1] * sp.dimension
        assert not chains._raw_entries and not quotient._raw_entries
        seen["rows"] += bool(quotient._rrows)
        seen["basis"] += bool(sp.basis)
    assert min(seen.values()) >= 10


def test_constraint_matrices_read_no_table_of_a_zero_hom_space(monkeypatch):
    """``Coords.matrix`` skips a pair of summands whose column or row block
    is empty before it reads their table, so every structure-constant table
    it reads is of a triple whose three Hom spaces are nonzero."""
    calls = []
    int_table = OrlovPresentation.int_table

    def recording(self, src, mid, tgt):
        calls.append((self.hom_dim(src, mid), self.hom_dim(mid, tgt), self.hom_dim(src, tgt)))
        return int_table(self, src, mid, tgt)

    monkeypatch.setattr(OrlovPresentation, "int_table", recording)
    for name in ("FIX_A3", "A5-killed/F10007", *WIDE_BLOCK_NAMES):
        pres = presentation(name)
        for x, y, k in seeded_draws(pres, rng_for(37, "table reads", name), 15):
            hom_space(x, y, k)
    for (x, y, k), _ in zip(hom_q_draws(37), range(15)):
        hom_space(x, y, k)
    assert len(calls) >= 500 and all(map(all, calls))


# ------------------------------------------------------ constraint matrices

def per_basis_matrix(cols, rows, terms):
    """The constraint matrix built one basis element at a time: each
    :func:`hom_basis` element b at degree i goes through ``sign * apply(i, b)``
    and lands, flattened by ``to_vector``, at row degree i + step."""
    fld = cols.pres.field
    mat = Matrix.zeros(fld, rows.total, cols.total)
    col = 0
    for i, (x, y) in cols.objs.items():
        for b in hom_basis(cols.pres, x, y)[0]:
            for step, sign, apply in terms:
                s = rows.slices.get(i + step)
                if s is not None:
                    for r, v in enumerate(to_vector(apply(i, b)), s.start):
                        if v:
                            mat.data[r][col] = v if sign > 0 else fld.neg(v)
            col += 1
    return mat


@pytest.mark.parametrize("name", ["FIX_A3", "A5-killed/F10007", "A6/F0", *WIDE_BLOCK_NAMES])
def test_constraint_matrices_match_the_per_basis_construction(name, monkeypatch):
    """A build on a fresh pair assembles the chain condition d^k and then
    d^(k-1), the chain condition of Hom(x, y[k-1]), each in full and each
    equal to the per-basis construction.  delta is -d^(k-1) entry for
    entry, and the quotient eliminates its rows F."""
    pres = presentation(name)
    fld = pres.field
    rng = rng_for(31, "constraint-matrices", name)
    built = []
    matrix = Coords.matrix

    def recording(self, rows, terms):
        m = matrix(self, rows, terms)
        built.append((self, rows, dense(m)))
        return m

    monkeypatch.setattr(Coords, "matrix", recording)
    _, quotient_rows = record_quotient_rows(monkeypatch)
    compared = 0
    for _ in range(80):
        x, y = (conjugate_complex(rand_complex(pres, rng, amplitude=3), rng)[0] for _ in "xy")
        k = rng.randint(-1, 1)
        built.clear()
        sp = hom_space(x, y, k)
        ys, yp = sp.ys, y.shift(k - 1)
        if not sp.total:
            assert built == []
            continue
        (maps, chain_rows, chain), (homotopies, maps_again, previous) = built
        assert (maps, maps_again, homotopies) == (sp.maps, sp.maps, sp.homotopies)
        assert chain == per_basis_matrix(maps, chain_rows, [
            (0, 1, lambda i, b: ys.d(i).compose(b)),
            (-1, -1, lambda i, b: b.compose(x.d(i - 1)))])
        assert previous == per_basis_matrix(homotopies, maps, [
            (0, 1, lambda i, b: yp.d(i).compose(b)),
            (-1, -1, lambda i, b: b.compose(x.d(i - 1)))])
        full = per_basis_matrix(homotopies, maps, [
            (0, 1, lambda i, b: ys.d(i - 1).compose(b)),
            (-1, 1, lambda i, b: b.compose(x.d(i - 1)))])
        assert full == delta_matrix(sp)
        assert full.data == [[fld.neg(v) for v in row] for row in previous.data]
        assert dense(RowMatrix(fld, sp.nullity, full.cols, quotient_rows())) == Matrix(
            fld, sp.nullity, full.cols, [full.data[j] for j in sp._free])
        compared += bool(chain.rows and chain.cols) + bool(previous.rows and previous.cols)
    for _ in range(20):
        fx, fy = rand_filtered(pres, rng), rand_filtered(pres, rng)
        built.clear()
        FilteredHomSpace(fx, fy)
        (maps, rows, kernel), = built
        assert kernel == per_basis_matrix(maps, rows, [
            (1, 1, lambda i, b: b.compose(fx.incl_map(i + 1))),
            (0, -1, lambda i, b: fy.incl_map(i).compose(b))])
        compared += bool(kernel.rows and kernel.cols)
    assert compared >= 30


@pytest.mark.parametrize("name", ["FIX_A3", "A5-killed/F10007", "A6/F0", *WIDE_BLOCK_NAMES])
def test_composition_matrices_match_the_per_basis_construction(name, monkeypatch):
    """The matrices of composition with one fixed morphism, built by
    ``Coords.matrix`` in ``rand_complex`` (b o d^{i-1}) and ``q_ses_triangle``
    (p_k o b for the sections, then w_k o b for the inverses of the isos
    w_k: A^k + B^k -> E^k), equal the per-basis construction entry for entry."""
    pres = presentation(name)
    rng = rng_for(37, "composition-matrices", name)
    built = []
    matrix = Coords.matrix

    def recording(self, rows, terms):
        built.append(matrix(self, rows, terms))
        return built[-1]

    def dense_built():
        return [dense(m) for m in built]

    def one(x, y):
        return Coords(pres, {0: (x, y)})

    monkeypatch.setattr(Coords, "matrix", recording)
    compared = 0
    for _ in range(40):
        built.clear()
        c = rand_complex(pres, rng, amplitude=4)
        t = c.terms
        degs = [i for i in sorted(t) if i - 1 in c.diffs and i + 1 in t
                and hom_basis(pres, t[i], t[i + 1])[1]]
        assert dense_built() == [per_basis_matrix(one(t[i], t[i + 1]), one(t[i - 1], t[i + 1]), [
            (0, 1, lambda _, b, d=c.diffs[i - 1]: b.compose(d))]) for i in degs]
        compared += len(degs)

        sub, quot = (rand_heart_complex(pres, rng, max_summands=2) for _ in "ab")
        e, ia, _, _, pb = direct_sum(sub, quot)
        e, fwd, bwd = conjugate_complex(e, rng)
        incl, proj = fwd.compose(ia), pb.compose(bwd)
        built.clear()
        w = q_ses_triangle(incl, proj).witness.iso_y.fwd
        assert dense_built() == [per_basis_matrix(one(quot.term(k), e.term(k)), one(quot.term(k), quot.term(k)), [
            (0, 1, lambda _, b, p=proj.component(k): p.compose(b))]) for k in e.terms] + [
            per_basis_matrix(one(e.term(k), w.source.term(k)), one(e.term(k), e.term(k)), [
                (0, 1, lambda _, b, wk=w.component(k): wk.compose(b))]) for k in e.terms]
        compared += 2 * len(e.terms)
    assert compared >= 60
