"""``complexes.conjugate`` and ``orlov.unit_solve`` against the hand-written
conjugations and solves they replaced (``conjugation_reference``): the same
complexes, maps, triangles and witnesses, entry type for entry type, the
same refusals, and the same draws from the random stream.  The excision of
a simple left the engine; its tests check the one part of it still there,
``complexes.conjugate`` along a single degree's automorphism, the only
use of that function that leaves degrees without a pair."""

import hashlib
from collections import Counter

import pytest

from koszulkit.complexes import (
    ChainMap,
    Complex,
    HomClass,
    Triangle,
    cone,
    conjugate,
    direct_sum,
    hom_space,
    supports_meet,
)
from koszulkit.fixtures import FIXTURE_NAMES, load_fixture
from koszulkit.koszul import KoszulError, q_ses_triangle
from koszulkit.linalg import Matrix
from koszulkit.orlov import AddMorphism, AddObject, CompositionError, invert, obj, split_idempotent
from koszulkit.randgen import (
    conjugate_complex,
    rand_add_morphism,
    rand_automorphism,
    rand_complex,
    rand_heart_complex,
    rand_object,
    rng_for,
)
from koszulkit.tstructure import HeartObject, TStructureError, heart_object, simple_object, truncate

import conjugation_reference as ref
from presentations import presentation
from test_complexes import REFERENCE_NAMES, typed, typed_complex, typed_comps
from weights_reference import weight_subobjects


def typed_or_none(m):
    return None if m is None else typed(m)


def typed_iso(iso):
    if iso is None:
        return None
    return tuple(typed_comps(m) for m in (iso.fwd, iso.bwd, iso.h_src, iso.h_tgt))


def typed_triangle(tri):
    """A triangle's objects and maps, and its certificate down to the cone:
    each base triangle, each iso and each square witness, all typed."""
    w = tri.witness
    out = [type(w).__name__, *(typed_complex(c) for c in (tri.X, tri.Y, tri.Z)),
           *(typed_comps(m) for m in (tri.f, tri.g, tri.h))]
    if hasattr(w, "base"):
        out.append(typed_triangle(w.base))
    if hasattr(w, "squares"):
        out += [typed_iso(iso) for iso in (w.iso_x, w.iso_y, w.iso_z)]
        out += [typed_comps(s) for s in w.squares]
    return out


def outcome(call, *args):
    """("ok", result) or (exception type, message)."""
    try:
        return "ok", call(*args)
    except (CompositionError, KoszulError, TStructureError) as exc:
        return type(exc), str(exc)


# -------------------------------------------------------- conjugated draws


@pytest.mark.parametrize("name", REFERENCE_NAMES)
def test_conjugate_complex_matches_the_hand_written_conjugation(name):
    """The copy, fwd and bwd are the reference's, and the two consume the
    same draws, so every later draw of a seeded stream is unchanged."""
    pres = presentation(name)
    with_diffs = 0
    for t in range(8):
        x = rand_complex(pres, rng_for(4201, "conjugate", name, t), amplitude=4)
        rng, rng_ref = rng_for(4202, "conjugate", name, t), rng_for(4202, "conjugate", name, t)
        x2, fwd, bwd = conjugate_complex(x, rng)
        r2, rfwd, rbwd = ref.conjugate_complex(x, rng_ref)
        assert typed_complex(x2) == typed_complex(r2)
        assert typed_comps(fwd) == typed_comps(rfwd) and typed_comps(bwd) == typed_comps(rbwd)
        assert (fwd.source, fwd.target, bwd.source, bwd.target) == (x, x2, x2, x)
        assert rng.getstate() == rng_ref.getstate()
        with_diffs += bool(x.diffs)
    assert with_diffs


# sha256 of the typed output of conjugate_complex on the stream below
CONJUGATE_DIGEST = "459229ff086002bd59547ecad983e622b0ca26c1ed4bab97a425a4bb2bc035e3"


def test_conjugate_complex_output_on_a_fixed_stream():
    """The complexes and isos one seeded stream draws, over Q and F_p, hash
    to a recorded value: the stream and its consumer stay fixed."""
    digest = hashlib.sha256()
    for name in ("FIX_A3", "A5-killed/F10007", "quiver0/F0", "quiver3/F10007"):
        pres = presentation(name)
        rng = rng_for(4203, "conjugate digest", name)
        for _ in range(6):
            x = rand_complex(pres, rng, amplitude=4)
            x2, fwd, bwd = conjugate_complex(x, rng)
            digest.update(repr((typed_complex(x2), sorted(typed_comps(fwd).items()),
                                sorted(typed_comps(bwd).items()))).encode())
    assert digest.hexdigest() == CONJUGATE_DIGEST


# ------------------------------------------------------------ split triangles


def acceptance_sequences():
    """The short exact sequences of the acceptance suite: the extension of
    b by a over FIX_A2, and S + S for every simple S of every fixture."""
    a2 = load_fixture("FIX_A2")
    z, _, _ = cone(ChainMap(Complex.single(a2, obj("b"), 0), Complex.single(a2, obj("a"), 0),
                            {0: AddMorphism.single(a2, obj("b"), obj("a"), 0, 0, (1,))}))
    e = heart_object(z).normal_form
    yield (ChainMap(simple_object(a2, "a").normal_form, e, {0: AddMorphism.identity(a2, obj("a"))}),
           ChainMap(e, simple_object(a2, "b").normal_form, {-1: AddMorphism.identity(a2, obj("b"))}))
    for name in FIXTURE_NAMES:
        pres = load_fixture(name)
        for iid in pres.ids:
            s_nf = simple_object(pres, iid).normal_form
            _, ia, _, _, pb = direct_sum(s_nf, s_nf)
            yield ia, pb


def seeded_sequences(pres, rng, trials):
    """Weight-filtration sequences of re-presented heart objects, and
    conjugated sums of two heart objects."""
    for _ in range(trials):
        nf = heart_object(rand_heart_complex(pres, rng)).normal_form
        _, fwd, bwd = conjugate_complex(nf, rng)
        for _, (sub, inc) in sorted(weight_subobjects(HeartObject(nf)).items())[:-1]:
            quot = Complex(pres, {i: t for i, t in nf.terms.items() if i not in sub.terms},
                           {i: d for i, d in nf.diffs.items() if i + 1 not in sub.terms})
            proj = ChainMap(nf, quot, {i: AddMorphism.identity(pres, t) for i, t in quot.terms.items()})
            yield fwd.compose(inc), proj.compose(bwd)
        a, b = (rand_heart_complex(pres, rng, max_summands=2) for _ in "ab")
        e, ia, _, _, pb = direct_sum(a, b)
        e, fwd, bwd = conjugate_complex(e, rng)
        yield fwd.compose(ia), pb.compose(bwd)


def test_q_ses_triangle_matches_the_reference_on_the_acceptance_sequences():
    """On the acceptance suite's sequences, and on the refusals its first
    one gives with a zero map in either place: no section of the zero
    projection, and a zero inclusion that splits nothing."""
    count = 0
    for incl, proj in acceptance_sequences():
        tri = q_ses_triangle(incl, proj)
        assert typed_triangle(tri) == typed_triangle(ref.q_ses_triangle(incl, proj))
        assert tri.verify() == []
        count += 1
    assert count > len(FIXTURE_NAMES)
    incl, proj = next(acceptance_sequences())
    a, e, b = incl.source, incl.target, proj.target
    refusals = [outcome(f, ChainMap.zero(a, e), proj) for f in (q_ses_triangle, ref.q_ses_triangle)]
    assert refusals[0] == refusals[1] == (KoszulError, "inclusion and section do not split the middle term")
    refusals = [outcome(f, incl, ChainMap.zero(e, b)) for f in (q_ses_triangle, ref.q_ses_triangle)]
    assert refusals[0] == refusals[1] == (KoszulError, "projection admits no section at degree -1")


@pytest.mark.parametrize("name", REFERENCE_NAMES)
def test_q_ses_triangle_matches_the_reference(name):
    pres = presentation(name)
    rng = rng_for(4204, "q ses", name)
    split = 0
    for incl, proj in seeded_sequences(pres, rng, 3):
        tri = q_ses_triangle(incl, proj)
        assert typed_triangle(tri) == typed_triangle(ref.q_ses_triangle(incl, proj))
        split += bool(incl.source.terms and proj.target.terms)
    assert split


# ------------------------------------------------------ cone through a simple


def simple_classes(pres, rng, trials):
    """Classes S[deg S] -> X with X upper-aisle and re-presented, X the sum
    of a truncation's upper part and a simple: each basis element of
    Hom(S, X), a random combination and the zero class."""
    for _ in range(trials):
        upper = truncate(rand_complex(pres, rng, amplitude=4)).upper.shift(1)
        x, *_ = direct_sum(upper, simple_object(pres, rng.choice(pres.ids)).normal_form)
        x, _, _ = conjugate_complex(x, rng)
        for iid in pres.ids:
            s = simple_object(pres, iid).normal_form
            if not supports_meet(s, x, 0):
                continue
            sp = hom_space(s, x, 0)
            yield from (HomClass(b) for b in sp.basis)
            if sp.nullity:
                yield HomClass(sp.cycle([pres.field.of(rng.randint(-2, 2)) for _ in range(sp.nullity)]))
            yield HomClass.zero(s, x)


def typed_cone(res):
    return typed_complex(res.quotient), typed_triangle(res.triangle)


def through_conjugate(f, res):
    """The reference's excision with its conjugation redone by
    ``complexes.conjugate``: the minimal model carried along the slot
    automorphism u the reference found (identities elsewhere), and the
    reference's split transported back along that conjugation and the
    minimal model's iso."""
    outer = res.triangle.witness
    mid = outer.base
    back = mid.witness.iso_y
    split = mid.witness.base
    slot, = f.source.terms
    conj, conj_iso = conjugate(back.fwd.target, {slot: (back.bwd.component(slot),
                                                         back.fwd.component(slot))})
    assert typed_complex(conj) == typed_complex(split.Y)
    tri = Triangle.transport(Triangle.transport(split, None, conj_iso.inverse(), None),
                             None, outer.iso_y, None)
    return ref.SimpleConeResult(split.Z, tri)


@pytest.mark.parametrize("name", REFERENCE_NAMES)
def test_cone_through_simple_matches_the_reference(name):
    """The reference's quotient and triangle with its certificate are those
    its conjugation gives when ``complexes.conjugate`` does it, or the
    reference refuses the class."""
    pres = presentation(name)
    rng = rng_for(4205, "cone through simple", name)
    seen = Counter()
    for f in simple_classes(pres, rng, 4):
        want = outcome(ref.cone_through_simple, f)
        if want[0] == "ok":
            assert typed_cone(through_conjugate(f, want[1])) == typed_cone(want[1])
            assert want[1].triangle.verify() == []
        else:
            assert want[0] is TStructureError
        seen[want[0] if want[0] == "ok" else want[1]] += 1
    assert seen["ok"] and seen["morphism class is zero"], seen


def test_cone_through_simple_refuses_as_the_reference():
    """Each error path refuses with its message."""
    a2 = load_fixture("FIX_A2")
    s_a, s_b = (simple_object(a2, iid).normal_form for iid in "ab")
    e, _, _ = cone(ChainMap(Complex.single(a2, obj("b"), 0), Complex.single(a2, obj("a"), 0),
                            {0: AddMorphism.single(a2, obj("b"), obj("a"), 0, 0, (1,))}))
    two_terms, _, _, _, _ = direct_sum(s_a, s_b)
    two_summands, _, _, _, _ = direct_sum(s_a, s_a)
    misplaced = Complex.single(a2, obj("b"), 0)
    b_over_a = Complex(a2, {-1: obj("b", "b"), 0: obj("a")},
                       {-1: AddMorphism.from_blocks(a2, obj("b", "b"), obj("a"), [[(1,), None]])})
    cases = {
        "source is not a shifted indecomposable": HomClass.zero(two_terms, e),
        "source is not indecomposable": HomClass.zero(two_summands, e),
        "source is not placed in degree -deg S": HomClass.zero(misplaced, e),
        "target is not in the upper aisle": HomClass.zero(s_a, e.shift(5)),
        "morphism class is zero": HomClass.zero(s_a, e),
    }
    for message, f in cases.items():
        assert outcome(ref.cone_through_simple, f) == (TStructureError, message)
    # and the excision of the free copy of b succeeds alike
    f = HomClass(ChainMap(s_b, b_over_a, {-1: AddMorphism.single(a2, obj("b"), obj("b", "b"), 1, 0, (1,))}))
    res = ref.cone_through_simple(f)
    assert typed_cone(through_conjugate(f, res)) == typed_cone(res)


# ------------------------------------------------------------------ the solves


@pytest.mark.parametrize("name", REFERENCE_NAMES)
def test_invert_matches_the_reference_solve(name):
    """On endomorphisms, permuted isos and maps between different objects,
    ``invert`` returns the reference's inverse, or None with it."""
    pres = presentation(name)
    rng = rng_for(4206, "invert", name)
    seen = Counter()
    for _ in range(40):
        x = rand_object(pres, rng, max_summands=4)
        bump = rng.choice([1, 1, 2, -1, 0])
        perm = list(range(len(x)))
        rng.shuffle(perm)
        y = x.select(perm)
        other = [s for s in pres.ids if x and s != x[0]]
        z = AddObject((rng.choice(other), *x[1:])) if other else x.concat(obj(pres.ids[0]))
        endo = rand_add_morphism(pres, x, x, rng).add(AddMorphism.identity(pres, x).scale(bump))
        iso = rand_add_morphism(pres, x, y, rng).add(AddMorphism.projection(pres, x, y, perm).scale(bump))
        for m in (endo, iso, rand_add_morphism(pres, x, z, rng)):
            g = invert(m)
            assert typed_or_none(g) == typed_or_none(ref.invert(m))
            seen[g is None] += 1
    assert seen[True] and seen[False], seen


@pytest.mark.parametrize("name", REFERENCE_NAMES)
def test_split_idempotent_matches_the_reference_solve(name):
    """On conjugated coordinate projectors, the image, projection and
    inclusion are the reference's."""
    pres = presentation(name)
    rng = rng_for(4207, "split", name)
    for _ in range(12):
        x = rand_object(pres, rng, max_summands=4)
        u, uinv = rand_automorphism(pres, x, rng)
        keep = [p for p in range(len(x)) if rng.random() < 0.5]
        e0 = AddMorphism.assemble(pres, x, x, [(keep, keep, AddMorphism.identity(pres, x.select(keep)))])
        e = u.compose(e0).compose(uinv)
        (z, p, i), (rz, rp, ri) = split_idempotent(e), ref.split_idempotent(e)
        assert (z, typed(p), typed(i)) == (rz, typed(rp), typed(ri))
        assert sorted(z) == sorted(x.select(keep))


def test_split_idempotent_refuses_no_retraction_as_the_reference(monkeypatch):
    """A solve that finds no retraction makes both refuse alike."""
    a2 = load_fixture("FIX_A2")
    x = obj("a", "a", "b")
    e = AddMorphism.assemble(a2, x, x, [((0, 2), (0, 2), AddMorphism.identity(a2, obj("a", "b")))])
    monkeypatch.setattr(Matrix, "solve", lambda self, b: None)
    refusals = [outcome(f, e) for f in (split_idempotent, ref.split_idempotent)]
    assert refusals[0] == refusals[1] == (CompositionError, "split_idempotent: the image has no retraction")
