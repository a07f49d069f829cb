"""The hand-written conjugations and one-sided solves that the engine had
before ``complexes.conjugate`` and ``orlov.unit_solve``, the references
for them.

Three functions carried a complex along termwise isomorphisms, each
building the new terms, the differentials (u_{i+1} o d^i) o u_i^-1 and both
chain maps itself: :func:`conjugate_complex` (random automorphisms of every
term), :func:`q_ses_triangle` (the split isos A^k + B^k -> E^k, inverted)
and :func:`cone_through_simple` (one automorphism of the slot term).  The
last, the excision of a simple from an upper-aisle object, has left the
engine, as no command ran it; its tests run this copy.
Three solved for a one-sided unit with their own ``Coords.matrix(...).solve``:
:func:`invert` (m o g = 1), :func:`split_idempotent` (g o i = 1) and the
sections of :func:`q_ses_triangle` (p o s = 1).  The functions are kept
verbatim; each calls the other references where the engine called its
own, so that each is compared with the engine as a whole.
"""

from __future__ import annotations

from dataclasses import dataclass

from koszulkit.complexes import (
    ChainIso,
    ChainMap,
    Complex,
    HomClass,
    Triangle,
    is_null_homotopic,
    minimal_model,
)
from koszulkit.koszul import KoszulError
from koszulkit.orlov import (
    AddMorphism,
    CompositionError,
    Coords,
    isotypic_classes,
    scalar_matrix,
    spans,
    unit_index,
)
from koszulkit.randgen import rand_automorphism
from koszulkit.tstructure import TStructureError, in_upper


@dataclass
class SimpleConeResult:
    quotient: Complex
    triangle: Triangle


def invert(m: AddMorphism):
    """Two-sided inverse of m: x -> y, or None."""
    pres, x, y = m.pres, m.source, m.target
    for s in dict.fromkeys((*x, *y)):
        unit_index(pres, s)
    back, ends = Coords(pres, {0: (y, x)}), Coords(pres, {0: (y, y)})
    sol = back.matrix(ends, [(0, 1, "left", lambda i: m)]).solve(
        ends.to_vector({0: AddMorphism.identity(pres, y)}.get))
    if sol is None:
        return None
    g = back.from_vector(sol).get(0) or AddMorphism.zero(pres, y, x)
    return g if g.compose(m).is_identity() else None


def split_idempotent(e: AddMorphism):
    """Split e = i o p with p o i = 1_z, for an exact idempotent e of x."""
    if e.source != e.target:
        raise CompositionError("split_idempotent: not an endomorphism")
    if e.compose(e) != e:
        raise CompositionError("split_idempotent: morphism is not idempotent")
    pres, x = e.pres, e.source
    carried = {}
    for s, pos in isotypic_classes(x).items():
        carried.update(zip(pos, (pos[c] for c in scalar_matrix(e, s, pos).rref().pivots)))
    keep = sorted(carried)
    z = x.select(keep)
    i_m = e.restrict_blocks(range(len(x)), [carried[k] for k in keep])
    back, ends = Coords(pres, {0: (x, z)}), Coords(pres, {0: (z, z)})
    sol = back.matrix(ends, [(0, 1, "right", lambda i: i_m)]).solve(
        ends.to_vector({0: AddMorphism.identity(pres, z)}.get))
    if sol is None:
        raise CompositionError("split_idempotent: the image has no retraction")
    g = back.from_vector(sol).get(0) or AddMorphism.zero(pres, x, z)
    p = g.compose(e)
    if i_m.compose(p) != e or p.compose(i_m) != AddMorphism.identity(pres, z):
        raise CompositionError("idempotent splitting failed verification")
    return z, p, i_m


def conjugate_complex(x: Complex, rng):
    """An isomorphic copy of x through random termwise automorphisms."""
    pres = x.pres
    autos = {i: rand_automorphism(pres, t, rng) for i, t in x.terms.items()}
    terms = dict(x.terms)
    diffs = {}
    for i, d in x.diffs.items():
        u1, _ = autos[i + 1]
        _, v0 = autos[i]
        diffs[i] = u1.compose(d).compose(v0)
    x2 = Complex(pres, terms, diffs)
    fwd = ChainMap(x, x2, {i: autos[i][0] for i in x.terms}, check=False)
    bwd = ChainMap(x2, x, {i: autos[i][1] for i in x.terms}, check=False)
    return x2, fwd, bwd


def q_ses_triangle(incl: ChainMap, proj: ChainMap) -> Triangle:
    """Image of a short exact sequence of heart objects: a split triangle."""
    a_cx, e_cx, b_cx = incl.source, incl.target, proj.target
    if proj.source != e_cx:
        raise KoszulError("ses maps are not composable")
    pres = e_cx.pres
    if not proj.compose(incl).is_zero():
        raise KoszulError("proj o incl != 0")
    w_comps = {}
    for k in e_cx.terms:
        ak, bk, ek = a_cx.term(k), b_cx.term(k), e_cx.term(k)
        if sorted(ak.summands + bk.summands) != sorted(ek.summands):
            raise KoszulError(f"terms at degree {k} are not extension-compatible")
        pk = proj.component(k)
        sections, ends = Coords(pres, {0: (bk, ek)}), Coords(pres, {0: (bk, bk)})
        sol = sections.matrix(ends, [(0, 1, "left", lambda i: pk)]).solve(
            ends.to_vector({0: AddMorphism.identity(pres, bk)}.get))
        if sol is None:
            raise KoszulError(f"projection admits no section at degree {k}")
        section = sections.from_vector(sol).get(0) or AddMorphism.zero(pres, bk, ek)
        every = range(len(ek))
        apos, bpos = spans(ak, bk)
        w_comps[k] = AddMorphism.assemble(pres, ak.concat(bk), ek, [
            (every, apos, incl.component(k)), (every, bpos, section)])

    w_inv = {k: invert(w) for k, w in w_comps.items()}
    if None in w_inv.values():
        raise KoszulError("inclusion and section do not split the middle term")
    terms = {k: a_cx.term(k).concat(b_cx.term(k)) for k in e_cx.terms}
    diffs = {}
    for i, dmat in e_cx.diffs.items():
        diffs[i] = w_inv[i + 1].compose(dmat).compose(w_comps[i])
    e_split = Complex(pres, terms, diffs)
    sel_sub = {k: tuple(range(len(a_cx.term(k)))) for k in e_split.terms}
    sel_quot = {k: tuple(range(len(a_cx.term(k)), len(e_split.term(k))))
                for k in e_split.terms}
    base = Triangle.from_termwise_split(e_split, sel_sub, sel_quot)
    w_map = ChainMap(e_split, e_cx, w_comps, check=False)
    w_map_inv = ChainMap(e_cx, e_split, w_inv, check=False)
    return Triangle.transport(base, None, ChainIso(w_map, w_map_inv), None)


def cone_through_simple(f: HomClass) -> SimpleConeResult:
    """Excise a simple mapping nonzero into an upper-aisle object."""
    src = f.source
    pres = src.pres
    if len(src.terms) != 1:
        raise TStructureError("source is not a shifted indecomposable")
    (slot, term), = src.terms.items()
    if len(term) != 1:
        raise TStructureError("source is not indecomposable")
    s = term[0]
    p = pres.degree[s]
    if slot != -p:
        raise TStructureError("source is not placed in degree -deg S")

    mx, iso = minimal_model(f.target)
    if not all(in_upper(q) for q in mx.support()):
        raise TStructureError("target is not in the upper aisle")
    fr = iso.fwd.compose(f.rep)
    if fr.is_zero() or is_null_homotopic(fr) is not None:
        raise TStructureError("morphism class is zero")

    comp = fr.component(slot)
    tgt = mx.term(slot)
    unit = unit_index(pres, s)
    lam = []
    for pos, t in enumerate(tgt):
        blk = comp.blocks[pos][0]
        if blk is not None and t != s:
            raise TStructureError("component hits a forbidden summand")
        if blk is not None and blk[unit]:
            lam.append(pos)
    if not lam:
        raise TStructureError("morphism class is zero on the isotypic part")
    pivot = lam[-1]

    n = range(len(tgt))
    p_mat = AddMorphism.assemble(pres, tgt, tgt, [
        (n, n, AddMorphism.identity(pres, tgt)), (lam, [pivot], comp.restrict_blocks(lam, [0]))])
    u = invert(p_mat)
    uinv = p_mat

    terms = dict(mx.terms)
    diffs = {}
    for i, d in mx.diffs.items():
        if i == slot:
            diffs[i] = d.compose(uinv)
        elif i + 1 == slot:
            diffs[i] = u.compose(d)
        else:
            diffs[i] = d
    conj = Complex(pres, terms, diffs)
    conj_iso = ChainIso(
        ChainMap(mx, conj, {slot: u, **{i: AddMorphism.identity(pres, t)
                                        for i, t in mx.terms.items() if i != slot}},
                 check=False),
        ChainMap(conj, mx, {slot: uinv, **{i: AddMorphism.identity(pres, t)
                                           for i, t in mx.terms.items() if i != slot}},
                 check=False))

    sel_sub = {i: ((pivot,) if i == slot else ()) for i in conj.terms}
    sel_quot = {i: tuple(q for q in range(len(conj.term(i))) if i != slot or q != pivot)
                for i in conj.terms}
    base = Triangle.from_termwise_split(conj, sel_sub, sel_quot)

    mid = Triangle.transport(base, None, conj_iso.inverse(), None)
    return SimpleConeResult(base.Z, Triangle.transport(mid, None, iso.inverse(), None))
