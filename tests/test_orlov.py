import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from koszulkit import orlov
from koszulkit.complexes import ComplexError
from koszulkit.fixtures import FIXTURE_NAMES, load_fixture
from koszulkit.linalg import Matrix
from koszulkit.orlov import (
    AddMorphism,
    AddObject,
    CompositionError,
    Coords,
    MalformedPresentation,
    OrlovPresentation,
    ZERO_OBJECT,
    _put_blocks,
    block_starts,
    compose,
    hom_basis,
    identity_label,
    invert,
    isotypic_classes,
    obj,
    scalar_matrix,
    spans,
    split_idempotent,
    validate_presentation,
)
from koszulkit.randgen import rand_add_morphism, rand_automorphism, rand_object, rng_for
import inverse_reference
from dense_helpers import identity
from inverse_reference import scalar_grid
from oracle_linalg import oracle_rank
from presentations import PATH_NAMES, QUIVER_NAMES, WIDE_BLOCK_NAMES, presentation

# presentations over both fields with scalar End spaces, among them quivers
# with fractional structure constants
INVERT_NAMES = [*QUIVER_NAMES, "FIX_A3", "A6/F0", "A6/F10007", "A5-killed/F10007"]


def to_vector(m):
    """Flatten to the coordinate order of :func:`hom_basis`."""
    starts = block_starts(m.pres, m.source, m.target)
    vec = [m.pres.field.zero] * starts[-1]
    _put_blocks(vec, starts, m.blocks)
    return vec


def cut_blocks(vec, starts, x: AddObject, y: AddObject):
    """The block grid of a morphism x -> y that ``vec`` holds at ``starts``,
    cutting every block: the reference for :meth:`Coords.from_vector`."""
    cut = [tuple(vec[a:b]) for a, b in zip(starts, starts[1:])]
    cut = [c if any(c) else None for c in cut]
    n = len(x)
    return tuple(tuple(cut[i * n:i * n + n]) for i in range(len(y)))


def from_vector(pres, source: AddObject, target: AddObject, vec) -> AddMorphism:
    blocks = cut_blocks(vec, block_starts(pres, source, target), source, target)
    return AddMorphism(pres, source, target, blocks)


@pytest.fixture(scope="module")
def a2():
    return load_fixture("FIX_A2")


@pytest.fixture(scope="module")
def a3():
    return load_fixture("FIX_A3")


def morphism_b_to_a(pres, coeff=1):
    return AddMorphism.single(pres, obj("b"), obj("a"), 0, 0, (pres.field.of(coeff),))


def rand_morphism(pres, x, y, rng):
    basis, _ = hom_basis(pres, x, y)
    out = AddMorphism.zero(pres, x, y)
    for b in basis:
        c = rng.randint(-3, 3)
        if c:
            out = out.add(b.scale(c))
    return out


# -------------------------------------------------------------- validation

def test_fixture_a2_is_valid(a2):
    assert validate_presentation(a2).ok


def test_fixture_pt_and_a3_are_valid(a3):
    assert validate_presentation(load_fixture("FIX_PT")).ok
    assert validate_presentation(a3).ok


def test_fix_bad_reports_degree_violation_with_witness():
    report = validate_presentation(load_fixture("FIX_BAD"))
    assert not report.ok
    kinds = {(f.kind, f.witness) for f in report.findings}
    assert ("hom_degree_violation", ("a", "b")) in kinds


# a <-f- b <-g- c <-h- d with f o (g o h) = 2 (f o g) o h
CHAIN_DEFECT = {
    "characteristic": 0,
    "indecomposables": [
        {"id": "a", "degree": 0}, {"id": "b", "degree": 1},
        {"id": "c", "degree": 2}, {"id": "d", "degree": 3},
    ],
    "hom": [
        {"src": "b", "tgt": "a", "basis": ["f"]},
        {"src": "c", "tgt": "b", "basis": ["g"]},
        {"src": "d", "tgt": "c", "basis": ["h"]},
        {"src": "c", "tgt": "a", "basis": ["gf"]},
        {"src": "d", "tgt": "b", "basis": ["hg"]},
        {"src": "d", "tgt": "a", "basis": ["hgf"]},
    ],
    "compose": [
        {"left": "f", "right": "g", "result": [{"label": "gf", "coeff": "1"}]},
        {"left": "g", "right": "h", "result": [{"label": "hg", "coeff": "1"}]},
        {"left": "gf", "right": "h", "result": [{"label": "hgf", "coeff": "1"}]},
        {"left": "f", "right": "hg", "result": [{"label": "hgf", "coeff": "2"}]},
    ],
}


def test_planted_non_associative_constant_reports_triple():
    from koszulkit.fixtures import fixture_text

    data = json.loads(fixture_text("FIX_A3"))
    data["compose"] = [
        {"left": "alpha", "right": "beta", "result": [{"label": "gamma", "coeff": "1"}]},
        {"left": "gamma", "right": "1@c", "result": [{"label": "gamma", "coeff": "2"}]},
    ]
    with pytest.raises(MalformedPresentation):
        # contradicting a unit law is caught at resolution time
        OrlovPresentation.from_data(data)
    # a genuine associativity defect needs a longer composable chain
    report = validate_presentation(CHAIN_DEFECT)
    assert any(f.kind == "associativity" and f.witness == ("f", "g", "h")
               for f in report.findings)


@pytest.mark.parametrize("side", ["left", "right"])
def test_unit_law_finding(side):
    # the constructor fills in the unit laws, so corrupt one after construction
    pres = load_fixture("FIX_A2")
    key = ("1@a", "alpha") if side == "left" else ("alpha", "1@b")
    pres.comp[key] = {"alpha": pres.field.of(2)}
    report = validate_presentation(pres)
    assert [(f.witness, f.detail) for f in report.findings if f.kind == "unit_law"] == [
        (("alpha",), f"{side} unit law fails")]


def test_validation_findings_keep_order_and_text():
    # triples through an identity are skipped only while the unit laws hold;
    # either way the findings are those of checking every triple
    pres = OrlovPresentation.from_data(CHAIN_DEFECT)
    detail = "h o (g o f) != (h o g) o f on basis triple"
    assert validate_presentation(pres).to_data()["findings"] == [
        {"kind": "associativity", "witness": ["f", "g", "h"], "detail": detail}]
    pres.comp[("1@a", "gf")] = {"gf": pres.field.of(3)}
    assert [(f.kind, f.witness, f.detail) for f in validate_presentation(pres).findings] == [
        ("associativity", ("1@a", "f", "g"), detail),
        ("associativity", ("1@a", "1@a", "gf"), detail),
        ("associativity", ("f", "g", "h"), detail),
        ("associativity", ("1@a", "gf", "h"), detail),
        ("unit_law", ("gf",), "left unit law fails")]


def test_coords_unit_and_scaled_tuples():
    pres = OrlovPresentation.from_data({
        "characteristic": 0,
        "indecomposables": [{"id": "a", "degree": 0}, {"id": "b", "degree": 1}],
        "hom": [{"src": "b", "tgt": "a", "basis": ["x", "y", "z"]}],
    })
    zero, one, three = pres.field.zero, pres.field.one, pres.field.of(3)
    assert pres.coords("1@a") == (one,)
    assert pres.coords("1@b", three) == (three,)
    for k, lab in enumerate(("x", "y", "z")):
        unit = tuple(one if m == k else zero for m in range(3))
        assert pres.coords(lab) == unit
        assert pres.coords(lab) is pres.coords(lab)     # built once, at construction
        assert pres.coords(lab, three) == tuple(three * u for u in unit)
        assert pres.coords(lab, zero) == (zero,) * 3
        assert AddMorphism.single(pres, obj("b"), obj("a"), 0, 0, pres.coords(lab)) == \
            hom_basis(pres, obj("b"), obj("a"))[0][k]


def test_malformed_shape_reported_distinctly():
    report = validate_presentation({"characteristic": 0})
    assert [f.kind for f in report.findings] == ["malformed"]


def test_add_object_is_an_immutable_value():
    x = obj("a", "b")
    assert x == AddObject(("a", "b")) and x != obj("b", "a") and x != ("a", "b")
    assert hash(x) == hash(obj("a", "b")) and len({x, obj("a", "b")}) == 1
    assert repr(x) == "AddObject(summands=('a', 'b'))"
    for mutate in (lambda: setattr(x, "summands", ()), lambda: delattr(x, "summands"),
                   lambda: setattr(x, "extra", 1)):
        with pytest.raises(AttributeError):
            mutate()
    assert x.summands == ("a", "b")


def test_findings_and_reports_compare_by_value():
    report = validate_presentation(load_fixture("FIX_BAD"))
    again = validate_presentation(load_fixture("FIX_BAD"))
    assert report == again and report is not again and not report.ok
    assert report.findings[0] == again.findings[0]
    assert report.findings[0] != orlov.Finding("malformed", (), "")
    assert report.to_data() == {"ok": False, "findings": [f.to_data() for f in report.findings]}


def test_end_not_scalar_finding():
    data = {
        "characteristic": 0,
        "indecomposables": [{"id": "a", "degree": 0}],
        "hom": [{"src": "a", "tgt": "a", "basis": ["1@a", "nil"]}],
        "compose": [],
    }
    report = validate_presentation(data)
    assert any(f.kind == "end_not_scalar" and f.witness == ("a",) for f in report.findings)


def test_scalar_grid_refuses_non_scalar_end():
    # End(a) = <1, n> with n o n = 0: 1 + n is invertible, with inverse 1 - n,
    # but its unit coordinates alone say 1; the helpers refuse End(a)
    pres = OrlovPresentation.from_data({
        "characteristic": 0,
        "indecomposables": [{"id": "a", "degree": 0}, {"id": "b", "degree": 1}],
        "hom": [{"src": "a", "tgt": "a", "basis": ["1@a", "n"]},
                {"src": "b", "tgt": "a", "basis": ["alpha"]}],
        "compose": [{"left": "n", "right": "n", "result": []}],
    })
    one = pres.field.one
    x = obj("a")
    one_plus_n = AddMorphism(pres, x, x, (((one, one),),))
    for call in (lambda: invert(one_plus_n),
                 lambda: split_idempotent(AddMorphism.identity(pres, x)),
                 lambda: scalar_matrix(one_plus_n, "a", [0])):
        with pytest.raises(MalformedPresentation, match=r"End\(a\) has dimension 2"):
            call()
    # a class whose End is the scalars is unaffected
    y = obj("b")
    assert invert(AddMorphism.identity(pres, y)) == AddMorphism.identity(pres, y)


# -------------------------------------------------------------- composition

def test_compose_unit_law(a2):
    f = morphism_b_to_a(a2)
    assert compose(AddMorphism.identity(a2, obj("a")), f) == f
    assert compose(f, AddMorphism.identity(a2, obj("b"))) == f


def test_compose_structure_constant(a3):
    alpha = AddMorphism.single(a3, obj("b"), obj("a"), 0, 0, (1,))
    beta = AddMorphism.single(a3, obj("c"), obj("b"), 0, 0, (1,))
    gamma = AddMorphism.single(a3, obj("c"), obj("a"), 0, 0, (1,))
    assert compose(alpha, beta) == gamma


def test_compose_with_zero_is_zero(a2):
    f = morphism_b_to_a(a2)
    z = AddMorphism.zero(a2, obj("a"), obj("b"))
    assert compose(f, z).is_zero()


def test_compose_is_bilinear_randomized(a3):
    rng = random.Random(2)
    x, y, z = obj("c", "c"), obj("b", "c"), obj("a", "b")
    for _ in range(25):
        f1, f2 = rand_morphism(a3, x, y, rng), rand_morphism(a3, x, y, rng)
        g = rand_morphism(a3, y, z, rng)
        lhs = compose(g, f1.add(f2))
        rhs = compose(g, f1).add(compose(g, f2))
        assert lhs == rhs
        assert compose(g.scale(3), f1) == compose(g, f1).scale(3)


@pytest.mark.parametrize("fixture,objects", [
    ("FIX_PT", (("s", "s"), ("s",), ("s", "s"), ("s",))),
    ("FIX_A2", (("b", "b"), ("a", "b"), ("a", "b"), ("a", "a"))),
    ("FIX_A3", (("c", "c"), ("b", "c"), ("a", "b"), ("a", "a", "b"))),
])
def test_compose_associative_randomized(fixture, objects):
    pres = load_fixture(fixture)
    rng = random.Random(4)
    w, x, y, z = (AddObject(t) for t in objects)
    for _ in range(1000):
        f = rand_morphism(pres, w, x, rng)
        g = rand_morphism(pres, x, y, rng)
        h = rand_morphism(pres, y, z, rng)
        assert compose(h, compose(g, f)) == compose(compose(h, g), f)


def test_radical_is_nilpotent_on_fixture(a3):
    # strictly degree-decreasing basis maps compose to zero past the span
    basis_ba, _ = hom_basis(a3, obj("b"), obj("a"))
    basis_cb, _ = hom_basis(a3, obj("c"), obj("b"))
    chain = compose(basis_ba[0], basis_cb[0])
    assert not chain.is_zero()
    # there is no further strictly decreasing arrow out of degree 0
    for s in a3.ids:
        for t in a3.ids:
            if s != t and a3.degree[s] <= a3.degree[t]:
                assert a3.hom_dim(s, t) == 0


# -------------------------------------------------------------- hom bases

def test_hom_basis_dimensions(a2):
    _, dim = hom_basis(a2, obj("a", "b"), obj("a"))
    assert dim == 2  # identity block and the alpha block
    _, dim0 = hom_basis(a2, obj("a"), obj("b"))
    assert dim0 == 0
    basis, dim_end = hom_basis(a2, obj("a", "b"), obj("a", "b"))
    ident = AddMorphism.identity(a2, obj("a", "b"))
    assert compose(ident, ident) == ident
    assert dim_end == 3


def test_vector_round_trip(a3):
    rng = random.Random(9)
    x, y = obj("c", "b"), obj("b", "a")
    m = rand_morphism(a3, x, y, rng)
    vec = to_vector(m)
    assert from_vector(a3, x, y, vec) == m


def test_coords_round_trip(a3):
    rng = random.Random(17)
    objs = {2: (obj("a"), obj("c")), -1: (obj("c", "b"), obj("b", "a")), 0: (obj("b"), obj("a")),
            5: (obj("c", "c"), obj("a", "b"))}
    coords = Coords(a3, objs)
    # zero-dimensional degrees get no slice; the rest are ascending and contiguous
    assert list(coords.slices) == [-1, 0, 5]
    assert coords.total == 4 + 1 + 4
    family = {i: rand_morphism(a3, x, y, rng) for i, (x, y) in objs.items()}
    vec = coords.to_vector(family.get)
    assert vec == to_vector(family[-1]) + to_vector(family[0]) + to_vector(family[5])
    back = coords.from_vector(vec)
    assert back == {i: family[i] for i in (-1, 0, 5)}
    assert coords.to_vector(back.get) == vec


@pytest.mark.parametrize("name", WIDE_BLOCK_NAMES)
def test_vector_round_trip_on_wide_blocks(name):
    pres = presentation(name)
    rng = random.Random(9)
    x, y = obj(*reversed(pres.ids)), obj(*pres.ids, pres.ids[0])
    basis, dim = hom_basis(pres, x, y)
    # hom_basis order: target summand, then source summand, then label
    blocks = [(i, j, k) for i, t in enumerate(y) for j, s in enumerate(x)
              for k in range(pres.hom_dim(s, t))]
    assert max(pres.hom_dim(s, t) for s in x for t in y) >= 2
    assert len(blocks) == dim
    for n, (b, (i, j, k)) in enumerate(zip(basis, blocks)):
        assert to_vector(b) == [int(r == n) for r in range(dim)]
        nonzero = [(r, c) for r, row in enumerate(b.blocks) for c, v in enumerate(row) if v]
        assert nonzero == [(i, j)]
        assert b.blocks[i][j] == pres.coords(pres.hom_labels(x[j], y[i])[k])
        assert from_vector(pres, x, y, to_vector(b)) == b
    for _ in range(5):
        m = rand_morphism(pres, x, y, rng)
        assert from_vector(pres, x, y, to_vector(m)) == m


@pytest.mark.parametrize("name", WIDE_BLOCK_NAMES)
def test_coords_round_trip_on_wide_blocks(name):
    pres = presentation(name)
    rng = random.Random(17)
    ids = pres.ids
    objs = {3: (obj(*ids), obj(*reversed(ids))), -2: (obj(ids[-1]), obj(ids[0])),
            0: (obj(*ids[1:]), obj(*ids[:-1])), 1: (ZERO_OBJECT, obj(*ids))}
    coords = Coords(pres, objs)
    assert list(coords.slices) == [i for i in sorted(objs) if hom_basis(pres, *objs[i])[1]]
    family = {i: rand_morphism(pres, x, y, rng) for i, (x, y) in objs.items()}
    vec = coords.to_vector(family.get)
    assert vec == [v for i in coords.slices for v in to_vector(family[i])]
    back = coords.from_vector(vec)
    assert back == {i: family[i] for i in coords.slices}
    assert coords.to_vector(back.get) == vec


def test_scalar_grid_of_scalar_matrices_is_isotypic_part(a3):
    def isotypic_part(m):
        """The blocks of m between equal indecomposables (scalar blocks)."""
        return AddMorphism(m.pres, m.source, m.target, tuple(
            tuple(b if m.source[j] == m.target[i] else None for j, b in enumerate(row))
            for i, row in enumerate(m.blocks)))

    rng = random.Random(4)
    x = obj("b", "a", "b", "c", "a", "b")
    for _ in range(5):
        m = rand_morphism(a3, x, x, rng)
        classes = isotypic_classes(x)
        assert classes == {"b": [0, 2, 5], "a": [1, 4], "c": [3]}
        mats = {s: scalar_matrix(m, s, pos) for s, pos in classes.items()}
        assert scalar_grid(a3, x, mats) == isotypic_part(m)


@pytest.mark.parametrize("positions", [(0, 1, 2), (2, 0, 3), (3, 1, 0)])
def test_block_grid_primitives_invert(a3, positions):
    whole = obj("a", "b", "c", "b")
    sub = whole.select(positions)
    rest = [p for p in range(len(whole)) if p not in positions]
    inc = AddMorphism.inclusion(a3, sub, whole, positions)
    assert AddMorphism.projection(a3, whole, sub, positions).compose(inc) == \
        AddMorphism.identity(a3, sub)
    rng = random.Random(5)
    src = obj("c", "b")
    pieces = [(positions, range(2), rand_morphism(a3, src, sub, rng)),
              (rest, range(2), rand_morphism(a3, src, whole.select(rest), rng))]
    grid = AddMorphism.assemble(a3, src, whole, pieces)
    for rows, cols, piece in pieces:
        assert grid.restrict_blocks(rows, cols) == piece


# -------------------------------------------------------- idempotents

def test_split_identity_idempotent(a2):
    x = obj("a", "b")
    e = AddMorphism.identity(a2, x)
    z, p, i = split_idempotent(e)
    assert z == x
    assert compose(i, p) == e
    assert compose(p, i) == AddMorphism.identity(a2, z)


def test_split_zero_idempotent(a2):
    x = obj("a", "b")
    z, p, i = split_idempotent(AddMorphism.zero(a2, x, x))
    assert z == ZERO_OBJECT


@pytest.mark.parametrize("name", INVERT_NAMES)
def test_split_conjugated_standard_projectors(name):
    """A standard projector of any rank, conjugated by a random automorphism,
    splits through the first r_s positions of each class s, r_s the oracle
    rank of its scalar block, with i o p = e and p o i = 1_z."""
    pres = presentation(name)
    rng = rng_for(77, "split", name)
    counts = Counter()
    for _ in range(150):
        x = rand_object(pres, rng, max_summands=5)
        kept = sorted(rng.sample(range(len(x)), rng.randint(0, len(x))))
        e0 = AddMorphism.assemble(pres, x, x, [(kept, kept, AddMorphism.identity(pres, x.select(kept)))])
        u, uinv = rand_automorphism(pres, x, rng)
        e = compose(compose(u, e0), uinv)
        z, p, i = split_idempotent(e)
        first = []
        for s, pos in isotypic_classes(x).items():
            rank = oracle_rank(scalar_matrix(e, s, pos).data, pres.field)
            assert rank == sum(x[k] == s for k in kept)
            first += pos[:rank]
            counts["class of rank 2 or more"] += rank >= 2
        assert z == x.select(sorted(first))
        assert compose(i, p) == e
        assert compose(p, i) == AddMorphism.identity(pres, z)
        counts["off-class blocks"] += any(b is not None and x[r] != x[c]
                                          for r, row in enumerate(e.blocks) for c, b in enumerate(row))
    assert counts["off-class blocks"] >= 10 and counts["class of rank 2 or more"] >= 10, counts


def test_split_idempotent_carries_later_pivot_columns(a2):
    """When the image of a class sits at its later copies, i carries those
    columns of e to the first positions of z."""
    x = obj("a", "b", "a")
    e = AddMorphism.assemble(a2, x, x, [((2, 1), (2, 1), AddMorphism.identity(a2, obj("a", "b")))])
    z, p, i = split_idempotent(e)
    assert z == obj("a", "b")
    assert i == AddMorphism.inclusion(a2, z, x, [2, 1])
    assert compose(i, p) == e and compose(p, i) == AddMorphism.identity(a2, z)


def test_split_idempotent_eliminates_each_class_matrix_once(a2, monkeypatch):
    # the image (the pivot columns) of each class comes from one echelon
    # form, and the retraction from one solve, with no inverse
    scalar, calls, solves = [], [], []
    build, rref, solve = orlov.scalar_matrix, Matrix.rref, Matrix.solve

    def recording(m, s, pos):
        scalar.append(build(m, s, pos))
        return scalar[-1]

    def counting(self):
        calls.append(self)
        return rref(self)

    def counting_solves(self, b):
        solves.append(self)
        return solve(self, b)

    def forbidden(m):
        raise AssertionError("split_idempotent called invert")

    monkeypatch.setattr(orlov, "scalar_matrix", recording)
    monkeypatch.setattr(Matrix, "rref", counting)
    monkeypatch.setattr(Matrix, "solve", counting_solves)
    monkeypatch.setattr(orlov, "invert", forbidden)
    x = obj("a", "a", "b")
    u = AddMorphism.identity(a2, x).add(AddMorphism.single(a2, x, x, 0, 1, (1,)))
    e0 = AddMorphism.assemble(a2, x, x, [((0, 2), (0, 2), AddMorphism.identity(a2, obj("a", "b")))])
    e = compose(compose(u, e0), invert(u))
    for log in (scalar, calls, solves):
        log.clear()
    z, p, i = split_idempotent(e)
    assert z == obj("a", "b")
    eliminated = [sum(c is m for c in calls) for m in scalar]
    assert max(eliminated) == 1 and eliminated.count(1) == len(isotypic_classes(x))
    # the solve eliminates [A | b] once, and nothing else is eliminated
    assert len(solves) == 1 and len(calls) == len(isotypic_classes(x)) + 1


@pytest.mark.parametrize("fault,match", [("none", "no retraction"), ("doubled", "failed verification")])
def test_split_idempotent_refuses_a_bad_retraction(a2, monkeypatch, fault, match):
    """A solve that finds no retraction, or one that returns a wrong one,
    makes ``split_idempotent`` raise instead of returning a bad splitting."""
    solve = Matrix.solve

    def planted(self, b):
        x = solve(self, b)
        return None if fault == "none" else [self.field.add(v, v) for v in x]

    x = obj("a", "a", "b")
    e = AddMorphism.assemble(a2, x, x, [((0, 2), (0, 2), AddMorphism.identity(a2, obj("a", "b")))])
    assert split_idempotent(e)[0] == obj("a", "b")
    monkeypatch.setattr(Matrix, "solve", planted)
    with pytest.raises(CompositionError, match=match):
        split_idempotent(e)


def test_split_rejects_non_idempotent(a2):
    x = obj("a", "b")
    bad = AddMorphism.identity(a2, x).scale(2)
    with pytest.raises(CompositionError):
        split_idempotent(bad)


def test_krull_schmidt_multiplicities_from_orthogonal_family(a3):
    # conjugate the standard complete orthogonal family on a + a + b and
    # check the recovered multiplicities are conjugation independent
    rng = random.Random(33)
    x = obj("a", "a", "b")
    u = rand_morphism(a3, x, x, rng)
    while invert(u) is None:
        u = rand_morphism(a3, x, x, rng)
    uinv = invert(u)
    pieces = []
    for k in range(3):
        ek = AddMorphism.single(a3, x, x, k, k,
                                tuple(a3.field.one for _ in range(1)))
        e = compose(compose(u, ek), uinv)
        z, _, _ = split_idempotent(e)
        pieces.extend(z.summands)
    assert sorted(pieces) == ["a", "a", "b"]


@pytest.mark.parametrize("name", INVERT_NAMES)
def test_invert_matches_the_reference_inverses(name):
    """``invert`` agrees with the radical series on endomorphisms and with
    the permutation matcher on maps between objects with the same summands,
    None and value alike; it is None when the summand multisets differ."""
    pres = presentation(name)
    rng = rng_for(41, "invert", name)
    counts = Counter()
    for _ in range(140):
        x = rand_object(pres, rng, max_summands=4)
        bump = rng.choice([1, 1, 2, -1])
        m = rand_add_morphism(pres, x, x, rng).add(AddMorphism.identity(pres, x).scale(bump))
        g = invert(m)
        assert g == inverse_reference.invert_endomorphism(m)
        counts["endomorphism" if g is not None else "singular"] += 1

        perm = list(range(len(x)))
        rng.shuffle(perm)
        y = x.select(perm)
        iso = rand_add_morphism(pres, x, y, rng).add(
            AddMorphism.projection(pres, x, y, perm).scale(bump))
        g = invert(iso)
        try:
            assert g == inverse_reference.invert_iso(iso)
        except ComplexError as exc:
            assert g is None and str(exc) == "morphism is not invertible"
        if g is not None:
            assert iso.compose(g) == AddMorphism.identity(pres, y)
            assert g.compose(iso) == AddMorphism.identity(pres, x)
            counts["permuted"] += perm != sorted(perm)
        else:
            counts["singular"] += 1

        other = [s for s in pres.ids if x and s != x[0]]
        z = AddObject((rng.choice(other), *x[1:])) if other else x.concat(obj(pres.ids[0]))
        m = rand_add_morphism(pres, x, z, rng)
        assert invert(m) is None
        with pytest.raises(ComplexError, match="summand multisets differ"):
            inverse_reference.invert_iso(m)
    assert counts["endomorphism"] >= 100 and counts["permuted"] >= 30, counts
    # over Q the draws include singular maps, so None is compared as well
    assert counts["singular"] >= 30 or pres.characteristic, counts


def test_mixed_characteristic_is_a_hard_error():
    from koszulkit.fixtures import fixture_text
    from koszulkit.linalg import FieldMismatch

    p0 = load_fixture("FIX_A2")
    data = json.loads(fixture_text("FIX_A2"))
    data["characteristic"] = 5
    p5 = OrlovPresentation.from_data(data)
    assert p0.field != p5.field
    m0 = identity(p0.field, 2)
    m5 = identity(p5.field, 2)
    with pytest.raises(FieldMismatch):
        m0.mul(m5)


# ------------------------------------------------------ compiled composition

def presentations_for_tables():
    from presentations import path_category

    yield from (load_fixture(name) for name in FIXTURE_NAMES)
    for n in range(3, 8):
        for killed in (False, True):
            yield path_category(n, 0, killed)


def brute_force_compose(pres, src, mid, tgt, gcoords, fcoords):
    """g o f summed over every pair of basis labels through ``compose_labels``."""
    fld = pres.field
    out = {lab: fld.zero for lab in pres.hom_labels(src, tgt)}
    for gc, gl in zip(gcoords, pres.hom_labels(mid, tgt)):
        for fc, fl in zip(fcoords, pres.hom_labels(src, mid)):
            for rl, rc in pres.compose_labels(gl, fl).items():
                out[rl] = fld.add(out[rl], fld.mul(fld.mul(gc, fc), rc))
    vec = tuple(out.values())
    return vec if any(vec) else None


@pytest.mark.parametrize("pres", presentations_for_tables(), ids=lambda p: p.name)
def test_compiled_tables_match_the_structure_constants(pres):
    fld = pres.field
    pairs = 0
    for g, (mid, tgt) in pres.label_pair.items():
        for f, (src, fmid) in pres.label_pair.items():
            if fmid != mid:
                continue
            expect = pres.compose_labels(g, f)
            vec = tuple(expect.get(lab, fld.zero) for lab in pres.hom_labels(src, tgt))
            assert pres.compose_coords(src, mid, tgt, pres.coords(g), pres.coords(f)) == \
                (vec if any(vec) else None)
            pairs += 1
    assert pairs >= len(pres.label_pair)
    rng = random.Random(f"tables {pres.name}")
    for src in pres.ids:
        for mid in pres.ids:
            for tgt in pres.ids:
                dims = pres.hom_dim(mid, tgt), pres.hom_dim(src, mid)
                if not all(dims):
                    continue
                for _ in range(3):
                    g, f = ([fld.of(rng.randint(-3, 3)) for _ in range(n)] for n in dims)
                    assert pres.compose_coords(src, mid, tgt, g, f) == \
                        brute_force_compose(pres, src, mid, tgt, g, f)


# ------------------------------------------------ structural morphisms

def identity_reference(pres, x):
    """The identity of x with one ``identity_label`` lookup per summand."""
    return AddMorphism(pres, x, x, tuple(
        tuple(pres.coords(identity_label(s)) if j == i else None for j in range(len(x)))
        for i, s in enumerate(x)))


def inclusion_reference(pres, sub, whole, positions):
    return AddMorphism.assemble(pres, sub, whole, [
        (positions, range(len(sub)), identity_reference(pres, sub))])


def projection_reference(pres, whole, quot, positions):
    return AddMorphism.assemble(pres, whole, quot, [
        (range(len(quot)), positions, identity_reference(pres, quot))])


def dense_compose(g, f, kernel=None):
    """g o f visiting every (row of g, column of f) pair of blocks, with
    ``kernel`` (default ``pres.compose_coords``) for each pair."""
    pres = g.pres
    kernel = kernel or pres.compose_coords
    p = pres.characteristic
    blocks = []
    for ti, grow in zip(g.target, g.blocks):
        row = []
        for j, sj in enumerate(f.source):
            acc, many = None, False
            for k, (mk, gb) in enumerate(zip(g.source, grow)):
                fb = f.blocks[k][j]
                if gb is not None and fb is not None:
                    term = kernel(sj, mk, ti, gb, fb)
                    if term is not None:
                        acc, many = (term, False) if acc is None else \
                            ([x + y for x, y in zip(acc, term)], True)
            if many:
                acc = tuple(x % p for x in acc) if p else tuple(acc)
                acc = acc if any(acc) else None
            row.append(acc)
        blocks.append(tuple(row))
    return AddMorphism(pres, f.source, g.target, tuple(blocks))


def sparse_morphism(pres, x, y, rng):
    """A random morphism x -> y with about half of its blocks zero."""
    m = rand_add_morphism(pres, x, y, rng)
    return AddMorphism.from_blocks(pres, x, y, [
        [b if rng.random() < 0.5 else None for b in row] for row in m.blocks])


STRUCTURE_NAMES = [*FIXTURE_NAMES, *PATH_NAMES, *WIDE_BLOCK_NAMES]


def embedding(pres, rng, sub):
    """An object ``whole`` holding ``sub`` at random ``positions`` among up
    to three other summands: (whole, positions)."""
    rest = rand_object(pres, rng, 3)
    slots = list(range(len(sub) + len(rest)))
    rng.shuffle(slots)
    positions = slots[:len(sub)]
    summands = list(rest) + list(sub)
    for p, s in zip(positions, sub):
        summands[p] = s
    for p, s in zip(sorted(slots[len(sub):]), rest):
        summands[p] = s
    return AddObject(tuple(summands)), positions


@pytest.mark.parametrize("name", STRUCTURE_NAMES)
def test_unit_maps_match_the_assembled_identity(name):
    pres = presentation(name)
    rng = random.Random(f"unit maps {name}")
    for _ in range(25):
        sub = rand_object(pres, rng, 4)
        whole, positions = embedding(pres, rng, sub)
        assert AddMorphism.identity(pres, sub) == identity_reference(pres, sub)
        assert AddMorphism.identity(pres, whole) == identity_reference(pres, whole)
        inc = AddMorphism.inclusion(pres, sub, whole, positions)
        proj = AddMorphism.projection(pres, whole, sub, positions)
        assert inc == inclusion_reference(pres, sub, whole, positions)
        assert proj == projection_reference(pres, whole, sub, positions)
        assert proj.compose(inc) == AddMorphism.identity(pres, sub)


@pytest.mark.parametrize("name", STRUCTURE_NAMES)
def test_is_identity_is_equality_with_the_identity(name):
    """``is_identity`` holds exactly when the morphism equals the assembled
    identity of its source: on identities built either way, on unit maps
    that swap equal summands, and on perturbed, scaled and random maps."""
    pres = presentation(name)
    rng = random.Random(f"is identity {name}")
    seen = Counter()
    for _ in range(25):
        x = rand_object(pres, rng, 4)
        perm = list(range(len(x)))
        for s in set(x):
            slots = [j for j, t in enumerate(x) if t == s]
            for j, k in zip(slots, rng.sample(slots, len(slots))):
                perm[j] = k
        ident = AddMorphism.identity(pres, x)
        y = rand_object(pres, rng, 4)
        for m in (ident, identity_reference(pres, x), AddMorphism.inclusion(pres, x, x, perm),
                  ident.add(sparse_morphism(pres, x, x, rng)), ident.scale(2),
                  sparse_morphism(pres, x, x, rng), rand_add_morphism(pres, x, y, rng)):
            want = m == identity_reference(pres, m.source)
            assert m.is_identity() == want
            seen[want] += 1
    assert seen[True] and seen[False]


@pytest.mark.parametrize("name", STRUCTURE_NAMES)
def test_sparse_compose_matches_the_dense_product(name):
    pres = presentation(name)
    fld = pres.field
    rng = random.Random(f"compose {name}")
    zeros = 0
    for _ in range(25):
        x, y, z = (rand_object(pres, rng, 4) for _ in "xyz")
        f, g = sparse_morphism(pres, x, y, rng), sparse_morphism(pres, y, z, rng)
        assert g.compose(f) == dense_compose(g, f)
        zeros += g.compose(f).is_zero()
        # two nonzero terms that cancel in every block: (u, -u) o (v; v) = 0
        u, v = sparse_morphism(pres, y, z, rng), sparse_morphism(pres, x, y, rng)
        gu = AddMorphism.assemble(pres, y.concat(y), z, [
            (range(len(z)), spans(y, y)[0], u), (range(len(z)), spans(y, y)[1], u.scale(-1))])
        fv = AddMorphism.assemble(pres, x, y.concat(y), [
            (spans(y, y)[0], range(len(x)), v), (spans(y, y)[1], range(len(x)), v)])
        assert gu.compose(fv) == dense_compose(gu, fv) == AddMorphism.zero(pres, x, z)
        for c in (1, Fraction(1), fld.one):
            assert g.scale(c) is g
        assert g.scale(2) == g.add(g) and g.scale(0) == AddMorphism.zero(pres, y, z)
    assert 0 < zeros < 25


# ------------------------------------------------- composition kernels
# The kernel of a triple takes a scalar path when its three Hom spaces are
# one-dimensional; block sums reduce inline.  The references below are the
# table loop and the per-coordinate ``Field`` calls they replaced.

NAMED = [*FIXTURE_NAMES, *PATH_NAMES, *QUIVER_NAMES]


def compose_coords_reference(pres, src, mid, tgt, gcoords, fcoords):
    """g o f by the table loop, for every triple, or None when it is 0."""
    out = None
    for gi, fi, res in pres.table(src, mid, tgt):
        gc = gcoords[gi]
        if gc:
            fc = fcoords[fi]
            if fc:
                if out is None:
                    out = [pres.field.zero] * pres.hom_dim(src, tgt)
                gf = gc * fc
                for ri, c in res:
                    out[ri] += gf * c
    if out is None:
        return None
    p = pres.characteristic
    vec = tuple(v % p for v in out) if p else tuple(out)
    return vec if any(vec) else None


def add_reference(a, b):
    fld = a.pres.field
    blocks = []
    for ra, rb in zip(a.blocks, b.blocks):
        row = []
        for x, y in zip(ra, rb):
            if x is None or y is None:
                row.append(y if x is None else x)
            else:
                s = tuple(fld.add(u, v) for u, v in zip(x, y))
                row.append(s if any(s) else None)
        blocks.append(tuple(row))
    return AddMorphism(a.pres, a.source, a.target, tuple(blocks))


def scale_reference(m, c):
    fld = m.pres.field
    c = fld.of(c)
    if not c:
        return AddMorphism.zero(m.pres, m.source, m.target)
    if c == fld.one:
        return m
    return AddMorphism(m.pres, m.source, m.target, tuple(
        tuple(None if b is None else tuple(fld.mul(c, x) for x in b) for b in row)
        for row in m.blocks))


def is_zero_reference(m):
    return all(b is None for row in m.blocks for b in row)


def unreduced_kernel(pres, src, mid, tgt, gcoords, fcoords):
    """A kernel that forgets the reduction mod p: the negative control."""
    dim, tab, c = pres._kernel(src, mid, tgt)
    if c is not None:
        v = gcoords[0] * fcoords[0] * c
        return (v,) if v else None
    out = [0] * dim
    for gi, fi, res in tab:
        for ri, rc in res:
            out[ri] += gcoords[gi] * fcoords[fi] * rc
    return tuple(out) if any(out) else None


def typed(vec):
    """A coordinate vector with the type of each entry, so that 2 and
    Fraction(2) differ."""
    return None if vec is None else tuple((type(x), x) for x in vec)


def typed_blocks(m):
    return tuple(tuple(typed(b) for b in row) for row in m.blocks)


def coordinate(fld, rng):
    """0, a small rational over Q, or a residue near 0 or near p."""
    p = fld.char
    if p:
        return rng.choice((0, 1, 2, p - 1, p - 2, p // 2, rng.randrange(p)))
    return fld.of(Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 7))))


def block_morphism(pres, x, y, rng):
    """x -> y with about a third of its blocks zero and coordinates from
    :func:`coordinate`."""
    return AddMorphism.from_blocks(pres, x, y, [
        [None if rng.random() < 1 / 3 else
         [coordinate(pres.field, rng) for _ in range(pres.hom_dim(sj, ti))] for sj in x]
        for ti in y])


def kernel_mismatches(pres, kernel, rounds=4):
    """The triples and seeded inputs on which ``kernel`` differs from the
    table loop in value, in None or in the type of an entry, and the number
    of products compared."""
    rng = random.Random(f"kernel {pres.name}")
    bad, compared = [], 0
    for src in pres.ids:
        for mid in pres.ids:
            for tgt in pres.ids:
                dims = pres.hom_dim(mid, tgt), pres.hom_dim(src, mid)
                if not all(dims):
                    continue
                for _ in range(rounds):
                    g, f = ([coordinate(pres.field, rng) for _ in range(n)] for n in dims)
                    got = kernel(pres, src, mid, tgt, tuple(g), tuple(f))
                    want = compose_coords_reference(pres, src, mid, tgt, g, f)
                    compared += 1
                    if typed(got) != typed(want):
                        bad.append((src, mid, tgt, g, f, got, want))
    return bad, compared


@pytest.mark.parametrize("name", NAMED)
def test_kernels_match_the_table_loop(name):
    pres = presentation(name)
    bad, compared = kernel_mismatches(pres, OrlovPresentation.compose_coords)
    assert bad == [] and compared > 0
    scalar = general = 0
    for (src, mid, tgt), (dim, tab, c) in pres._tables.items():
        assert dim == pres.hom_dim(src, tgt) and tab is pres.table(src, mid, tgt)
        one_dim = (pres.hom_dim(mid, tgt), pres.hom_dim(src, mid), dim) == (1, 1, 1)
        if one_dim and len(tab) == 1:
            assert c == tab[0][2][0][1] and c
            scalar += 1
        else:
            assert c is None
            general += 1
    assert scalar > 0
    # a killed A_n has empty tables; the wide quivers have Hom spaces of
    # dimension 2-4, which take the general path
    if name in WIDE_BLOCK_NAMES:
        assert any(len(tab) > 1 for _, tab, _ in pres._tables.values())
        assert general > 0
    if "killed" in name or name == "FIX_ZC":
        assert any(tab == () for _, tab, _ in pres._tables.values())


@pytest.mark.parametrize("name", [n for n in NAMED if n.endswith("/F10007")])
def test_a_kernel_without_the_reduction_mod_p_is_caught(name):
    pres = presentation(name)
    bad, compared = kernel_mismatches(pres, unreduced_kernel)
    assert 0 < len(bad) <= compared
    assert any(max(got) >= pres.characteristic for *_, got, _ in bad if got is not None)


@pytest.mark.parametrize("name", NAMED)
def test_block_arithmetic_matches_the_field_calls(name):
    pres = presentation(name)
    fld = pres.field
    rng = random.Random(f"block arithmetic {name}")
    scalars = [0, 1, -1, 2, Fraction(1, 2) if not fld.char else fld.char - 1]
    for _ in range(12):
        x, y, z = (rand_object(pres, rng, 4) for _ in "xyz")
        f, f2 = block_morphism(pres, x, y, rng), block_morphism(pres, x, y, rng)
        g = block_morphism(pres, y, z, rng)
        for a, b in ((f, f2), (f, f.scale(-1)), (f, AddMorphism.zero(pres, x, y))):
            assert typed_blocks(a.add(b)) == typed_blocks(add_reference(a, b))
            assert a.add(b).is_zero() == is_zero_reference(a.add(b))
        for c in scalars + [coordinate(fld, rng)]:
            assert typed_blocks(f.scale(c)) == typed_blocks(scale_reference(f, c))
        assert typed_blocks(f.sub(f2)) == typed_blocks(add_reference(f, scale_reference(f2, -1)))
        for m in (f, g, AddMorphism.zero(pres, x, y), f.sub(f), g.compose(f)):
            assert m.is_zero() == is_zero_reference(m)
        reference = dense_compose(g, f, lambda *a: compose_coords_reference(pres, *a))
        assert typed_blocks(g.compose(f)) == typed_blocks(reference)


@pytest.mark.parametrize("name", NAMED)
def test_compose_calls_the_class_kernel_once_per_pair_of_nonzero_blocks(monkeypatch, name):
    # perfbench/layers.py counts compose_coords calls by wrapping the class
    # attribute; compose must find the wrapper and call it once per pair
    pres = presentation(name)
    rng = random.Random(f"kernel calls {name}")
    kernel, calls = OrlovPresentation.compose_coords, []

    def counting(self, *args):
        calls.append(args[:3])
        return kernel(self, *args)

    monkeypatch.setattr(OrlovPresentation, "compose_coords", counting)
    for _ in range(12):
        x, y, z = (rand_object(pres, rng, 4) for _ in "xyz")
        f, g = block_morphism(pres, x, y, rng), block_morphism(pres, y, z, rng)
        calls.clear()
        gf = g.compose(f)
        pairs = [(f.source[j], y[k], z[i])
                 for i in range(len(z)) for k in range(len(y)) for j in range(len(x))
                 if g.blocks[i][k] is not None and f.blocks[k][j] is not None]
        assert sorted(calls) == sorted(pairs)
        assert gf == dense_compose(g, f, kernel.__get__(pres))


# ------------------------------------------------------ unit map factors
# compose re-indexes the other factor along a unit map (an identity, an
# inclusion or a projection) and calls no kernel; the reference is the dense
# product with the table loop, which reads the unit blocks themselves.


def unit_maps(pres, rng):
    """Identities, inclusions and projections along a chain sub -> whole ->
    big of random embeddings; sub repeats its first summand, so two of its
    columns can trade places."""
    s = rng.choice(pres.ids)
    sub = AddObject((s, s) + rand_object(pres, rng, 2).summands)
    whole, pos = embedding(pres, rng, sub)
    big, pos2 = embedding(pres, rng, whole)
    units = [AddMorphism.identity(pres, o) for o in (sub, whole, big)]
    for a, b, p in ((sub, whole, pos), (whole, big, pos2)):
        units += [AddMorphism.inclusion(pres, a, b, p), AddMorphism.projection(pres, b, a, p)]
    return units


def swapped(pres, u):
    """The inclusion or projection u re-built along positions whose first
    two entries trade places, but carrying u's own blocks: a re-indexing
    along the wrong positions, which its blocks do not show.  None for a
    map between objects of one length (an identity or a permutation)."""
    if len(u.source) < len(u.target):
        positions = list(u.dest)
        positions[:2] = positions[1::-1]
        bad = AddMorphism.inclusion(pres, u.source, u.target, positions)
    elif len(u.source) > len(u.target):
        positions = list(u.orig)
        positions[:2] = positions[1::-1]
        bad = AddMorphism.projection(pres, u.source, u.target, positions)
    else:
        return None
    bad.blocks = u.blocks
    return bad


def unit_products(pres, rng, units):
    """(g, f) pairs with a unit map factor: unit o general, general o unit
    and unit o unit, over every composable pair of ``units``."""
    pairs = []
    for u in units:
        x, z = rand_object(pres, rng, 3), rand_object(pres, rng, 3)
        pairs.append((u, block_morphism(pres, x, u.source, rng)))
        pairs.append((block_morphism(pres, u.target, z, rng), u))
        pairs += [(u, v) for v in units if v.target == u.source]
    return pairs


def reference_product(g, f):
    pres = g.pres
    return dense_compose(g, f, lambda *a: compose_coords_reference(pres, *a))


@pytest.mark.parametrize("name", STRUCTURE_NAMES)
def test_unit_map_factors_compose_by_reindexing(monkeypatch, name):
    pres = presentation(name)
    rng = random.Random(f"unit factors {name}")
    kernel, calls = OrlovPresentation.compose_coords, []

    def counting(self, *args):
        calls.append(args[:3])
        return kernel(self, *args)

    monkeypatch.setattr(OrlovPresentation, "compose_coords", counting)
    kinds = set()
    for _ in range(6):
        units = unit_maps(pres, rng)
        for g, f in unit_products(pres, rng, units):
            reference = reference_product(g, f)
            calls.clear()
            gf = g.compose(f)
            assert calls == []
            assert typed_blocks(gf) == typed_blocks(reference)
            assert (gf.source, gf.target) == (f.source, g.target)
            kind = isinstance(g, orlov._Unit), isinstance(f, orlov._Unit)
            kinds.add(kind)
            if kind == (True, True):
                # a composite of unit maps is one, known as the identity
                # exactly when it is one
                assert isinstance(gf, orlov._Unit)
                ident = gf.source == gf.target and gf == AddMorphism.identity(pres, gf.source)
                assert isinstance(gf, orlov._Identity) == ident
        for u in units:
            ident = u.source == u.target and u == AddMorphism.identity(pres, u.source)
            assert isinstance(u, orlov._Identity) == ident
        # a projection after its inclusion is the identity
        for inc, proj in (units[3:5], units[5:7]):
            assert type(proj.compose(inc)) is orlov._Identity
    assert kinds == {(True, False), (False, True), (True, True)}


@pytest.mark.parametrize("name", STRUCTURE_NAMES)
def test_a_reindexing_along_swapped_positions_is_caught(name):
    pres = presentation(name)
    rng = random.Random(f"unit factors {name}")
    caught = compared = 0
    for _ in range(6):
        for u in unit_maps(pres, rng):
            bad = swapped(pres, u)
            if bad is None:
                continue
            assert bad == u             # the same blocks, the wrong positions
            x, z = rand_object(pres, rng, 3), rand_object(pres, rng, 3)
            f = block_morphism(pres, x, u.source, rng)
            g = block_morphism(pres, u.target, z, rng)
            for (a, b), (a_bad, b_bad) in (((u, f), (bad, f)), ((g, u), (g, bad))):
                reference = typed_blocks(reference_product(a, b))
                assert typed_blocks(a.compose(b)) == reference
                compared += 1
                caught += typed_blocks(a_bad.compose(b_bad)) != reference
    assert 0 < caught <= compared
