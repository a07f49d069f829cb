from collections import Counter
from dataclasses import replace

import pytest

from koszulkit.filtered import (
    FilteredComplex,
    FilteredError,
    FilteredMorphism,
    FilteredObject,
    alpha,
    filt_hom_report,
    filt_hom_space,
    filt_triangle,
    s_shift,
    s_shift_morphism,
    split_decompose,
)
from koszulkit.fixtures import load_fixture
from koszulkit.linalg import Matrix
from koszulkit.orlov import AddMorphism, AddObject, ZERO_OBJECT, hom_basis, obj
from koszulkit.randgen import rand_add_morphism, rand_filtered, rand_filtered_complex, rng_for
from presentations import PATH_NAMES, WIDE_BLOCK_NAMES, presentation


def j_embed(pres, a: AddObject) -> FilteredObject:
    """Constant at and below index 0, zero above."""
    return FilteredObject(pres, 0, 0, {0: a}, {}, {}, check=False)


@pytest.fixture(scope="module")
def a2():
    return load_fixture("FIX_A2")


@pytest.fixture(scope="module")
def a3():
    return load_fixture("FIX_A3")


# ---------------------------------------------------------------- plumbing

def test_j_of_zero(a2):
    assert j_embed(a2, ZERO_OBJECT).is_zero


def test_s_of_j_index_bookkeeping(a2):
    a = obj("a", "b")
    x = s_shift(j_embed(a2, a))
    assert x.term(1) == a
    assert x.term(0) == a and x.term(5) == ZERO_OBJECT


def test_alpha_of_j_is_identity_below_zero(a2):
    a = obj("a")
    x = j_embed(a2, a)
    al = alpha(x)
    for i in (0, -1, -3):
        assert al.component(i) == AddMorphism.identity(a2, a)
    assert al.component(1).is_zero()


def test_s_shift_membership(a2):
    rng = rng_for(1, "filt")
    x = rand_filtered(a2, rng)
    n = 3
    assert s_shift(x, n).is_le(x.hi + n)
    y = j_embed(a2, obj("a"))
    assert y.is_ge(0) and y.is_le(0)
    assert s_shift(y, n).is_ge(n) and s_shift(y, n).is_le(n)


def test_alpha_compatibility_with_s(a2):
    # the canonical morphism at X equals the reindexed one at s^-1 X
    rng = rng_for(2, "alphas")
    for _ in range(8):
        x = rand_filtered(a2, rng)
        lhs = alpha(x)
        rhs = s_shift_morphism(alpha(s_shift(x, -1)), 1)
        assert lhs == rhs


# --------------------------------------------------------- split decompose

def test_split_decompose_pure_below(a2):
    x = j_embed(a2, obj("a", "b"))
    sp = split_decompose(x)
    assert sp.above.is_zero
    assert sp.below == x


def test_split_decompose_pure_above(a2):
    x = s_shift(j_embed(a2, obj("a")), 1)
    sp = split_decompose(x)
    assert sp.below.is_zero
    assert sp.above.term(1) == obj("a")


def test_split_decompose_mixed_example(a2):
    # X_1 = a included into X_0 = a + b
    terms = {1: obj("a"), 0: obj("a", "b")}
    incl = {1: AddMorphism.inclusion(a2, obj("a"), obj("a", "b"), (0,))}
    retr = {1: AddMorphism.projection(a2, obj("a", "b"), obj("a"), (0,))}
    x = FilteredObject(a2, 0, 1, terms, incl, retr)
    sp = split_decompose(x)
    assert sp.above.term(1) == obj("a") and sp.above.is_ge(1)
    assert sp.below.is_le(0)
    assert sorted(sp.below.term(0).summands) == ["b"]
    # direct-sum iso verified exactly
    assert sp.phi.compose(sp.psi) == FilteredMorphism.identity(x)


def test_split_decompose_randomized(a3):
    rng = rng_for(3, "split")
    for _ in range(25):
        x = rand_filtered(a3, rng)
        sp = split_decompose(x)
        assert sp.above.is_ge(1)
        assert sp.below.is_le(0)
        assert sp.phi.compose(sp.psi) == FilteredMorphism.identity(x)
        assert sp.psi.compose(sp.phi) == FilteredMorphism.identity(sp.phi.source)


# ------------------------------------------------------------- hom report

def test_filt_hom_report_disjoint(a2):
    x = s_shift(j_embed(a2, obj("a")), 1)   # constant a at and below 1
    y = j_embed(a2, obj("a"))
    rep = filt_hom_report(x, y)
    # Hom(x, y) = 0 is the lemma; the alpha comparisons here have dim 1
    assert rep["ok"]


def test_filt_hom_report_one_dimensional(a2):
    # maps j(b) -> s(j(a)) come from Hom(b, a): dimension 1 on both sides
    x = s_shift(j_embed(a2, obj("a")), 1)
    y = j_embed(a2, obj("b"))
    rep = filt_hom_report(x, y)
    assert rep["ok"]
    assert rep["dims"] == {"y_to_sm1x": 1, "y_to_x": 1, "sy_to_x": 1}
    assert rep["hom_forward"] == 0


def test_filt_hom_report_zero_case(a2):
    x = s_shift(j_embed(a2, obj("b")), 1)
    y = j_embed(a2, obj("a"))
    rep = filt_hom_report(x, y)
    assert rep["ok"]
    assert rep["dims"]["y_to_x"] == 0


def test_filt_hom_report_membership_errors(a2):
    y = j_embed(a2, obj("a"))
    with pytest.raises(FilteredError):
        filt_hom_report(y, y)


def test_filt_hom_report_randomized_dimensions(a3):
    rng = rng_for(4, "fhom")
    for _ in range(10):
        above = rand_filtered(a3, rng)
        sp = split_decompose(above)
        x, y = sp.above, sp.below
        if x.is_zero or y.is_zero:
            continue
        rep = filt_hom_report(x, y)
        assert rep["ok"], rep


def solved_coordinates(sp, f):
    """``FilteredHomSpace.coordinates`` as a solve against the basis, which
    it was before it read the kernel coordinates."""
    vec = sp.maps.to_vector(f.component)
    if not sp.dimension:
        return [] if all(not v for v in vec) else None
    cols = [sp.maps.to_vector(b.component) for b in sp.basis]
    return Matrix.from_columns(sp.x.pres.field, len(vec), cols).solve(vec)


@pytest.mark.parametrize("name", ["FIX_A2", "FIX_A3", "A5-killed/F10007", *WIDE_BLOCK_NAMES])
def test_filtered_coordinates_are_the_kernel_coordinates(name, monkeypatch):
    """Combinations of the basis and arbitrary families get the coordinates
    the solve gave, None off the space, and no elimination."""
    pres = presentation(name)
    fld = pres.field
    rng = rng_for(2106, "filtered coordinates", name)
    outcomes = Counter()
    for _ in range(12):
        x, y = rand_filtered(pres, rng), rand_filtered(pres, rng)
        sp = filt_hom_space(x, y)
        coeffs = [fld.of(rng.randint(-2, 2)) for _ in sp.basis]
        member = FilteredMorphism.zero(x, y)
        for c, b in zip(coeffs, sp.basis):
            member = member.add(b.scale(c))
        family = FilteredMorphism(x, y, sp.maps.from_vector(
            [fld.of(rng.randint(-2, 2)) for _ in range(sp.maps.total)]), check=False)
        expected = [solved_coordinates(sp, f) for f in (member, family)]
        assert expected[0] == coeffs
        monkeypatch.setattr(Matrix, "rref", None)
        assert [sp.coordinates(f) for f in (member, family)] == expected
        monkeypatch.undo()
        outcomes[expected[1] is None] += 1
    assert outcomes[True] and outcomes[False]


def test_j_full_faithful(a2):
    # Hom between j-images equals Hom in the additive closure
    for src, tgt in ((obj("a"), obj("b")), (obj("b"), obj("a")),
                     (obj("a", "b"), obj("a"))):
        dim = filt_hom_space(j_embed(a2, src), j_embed(a2, tgt)).dimension
        assert dim == hom_basis(a2, src, tgt)[1]
    # and composition matches
    rng = rng_for(5, "jcomp")
    x, y, z = obj("b"), obj("a", "b"), obj("a")
    for _ in range(5):
        f = rand_add_morphism(a2, x, y, rng)
        g = rand_add_morphism(a2, y, z, rng)
        jf = FilteredMorphism(j_embed(a2, x), j_embed(a2, y), {0: f})
        jg = FilteredMorphism(j_embed(a2, y), j_embed(a2, z), {0: g})
        assert jg.compose(jf).component(0) == g.compose(f)
        assert jg.compose(jf).component(-2) == g.compose(f)


def test_heart_window_objects_are_j_images(a2):
    # an object constant on [0] with identity inclusions is a j image
    x = j_embed(a2, obj("a", "b"))
    assert x.is_ge(0) and x.is_le(0)
    assert x == j_embed(a2, x.term(0))


# ------------------------------------------------------------ filt triangle

def make_filtered_complex(pres, rng, width=2):
    terms = {}
    for k in range(width):
        terms[k] = rand_filtered(pres, rng, depth=2)
    diffs = {}
    for k in range(width - 1):
        sp = filt_hom_space(terms[k], terms[k + 1])
        if sp.dimension == 0:
            continue
        m = FilteredMorphism.zero(terms[k], terms[k + 1])
        for b in sp.basis:
            c = rng.randint(-2, 2)
            if c:
                m = m.add(b.scale(c))
        # enforce d^2 = 0 by only using two-term complexes
        if not m.is_zero():
            diffs[k] = m
    return FilteredComplex(pres, terms, diffs)


def test_filt_triangle_pure_below(a2):
    x = FilteredComplex(a2, {0: j_embed(a2, obj("a", "b"))}, {})
    tri = filt_triangle(x)
    assert not tri.above.terms
    assert tri.verify() == []


def test_filt_triangle_zero(a2):
    tri = filt_triangle(FilteredComplex(a2, {}, {}))
    assert not tri.above.terms and not tri.below.terms
    assert tri.verify() == []


def test_filt_triangle_two_term_mixed(a2):
    rng = rng_for(6, "ftri")
    produced = 0
    for _ in range(12):
        fx = make_filtered_complex(a2, rng)
        tri = filt_triangle(fx)
        assert tri.verify() == []
        # inclusion and projection are chain maps; the connecting block is
        # recovered from the conjugated differential exactly
        for k, d in tri.above.diffs.items():
            lhs = tri.incl[k + 1].compose(d)
            rhs = fx.d(k).compose(tri.incl[k])
            assert lhs == rhs
        for k, d in tri.below.diffs.items():
            lhs = d.compose(tri.proj[k])
            rhs = tri.proj[k + 1].compose(fx.d(k))
            assert lhs == rhs
        produced += 1
    assert produced == 12


def test_filt_triangle_heart_window_terms(a2):
    # complexes with terms in the intersection stay there after splitting
    x = FilteredComplex(a2, {0: j_embed(a2, obj("a")), 1: j_embed(a2, obj("b"))}, {})
    tri = filt_triangle(x)
    assert not tri.above.terms
    for k in tri.below.terms:
        t = tri.below.term(k)
        assert t.is_ge(0) and t.is_le(0)


# ------------------------------------------------- the triangle certificate

def filtered_triangles(name, draws, seed=30):
    pres = presentation(name)
    rng = rng_for(seed, "filt", name)
    return [filt_triangle(rand_filtered_complex(pres, rng)) for _ in range(draws)]


def doubled_maps_caught(tri, field) -> int:
    """Double each nonzero map of ``tri.<field>`` in place, one at a time,
    require ``verify`` to report it, and restore it; returns how many.  The
    differentials of ``above`` and ``below`` count as fields too."""
    maps = getattr(tri, field).diffs if field in ("above", "below") else getattr(tri, field)
    doubled = 0
    for k, m in list(maps.items()):
        if not m.is_zero():
            maps[k] = m.scale(2)
            assert tri.verify(), (field, k)
            maps[k] = m
            doubled += 1
    return doubled


@pytest.mark.parametrize("name", ["FIX_A2", "FIX_A3"])
@pytest.mark.parametrize("field", ["incl", "proj", "delta", "above", "below"])
def test_a_doubled_map_fails_the_filtered_triangle_certificate(name, field):
    """The honest triangles verify, and a doubled incl_k, proj_k or delta_k
    fails, as does a doubled differential of either end.  Per name, 17 incl,
    49-50 proj, 6-9 delta, 2-3 above and 13-16 below maps are nonzero."""
    doubled = 0
    for tri in filtered_triangles(name, 30):
        assert tri.verify() == []
        doubled += doubled_maps_caught(tri, field)
        assert tri.verify() == []
    assert doubled >= 2


def test_a_split_that_is_not_inverse_fails_the_filtered_triangle_certificate():
    caught = 0
    for tri in filtered_triangles("FIX_A3", 10):
        for k, s in list(tri.splits.items()):
            if not s.psi.is_zero():
                tri.splits[k] = replace(s, psi=s.psi.scale(2))
                assert f"split at k={k} is not an isomorphism" in tri.verify()
                tri.splits[k] = s
                caught += 1
    assert caught


@pytest.mark.parametrize("name", PATH_NAMES)
def test_filtered_triangles_verify_on_path_categories(name):
    doubled = 0
    for tri in filtered_triangles(name, 6, seed=31):
        assert tri.verify() == []
        doubled += sum(doubled_maps_caught(tri, field) for field in ("incl", "proj", "delta", "above", "below"))
    assert doubled
