"""The diagonal t-structure on the bounded homotopy category.

The two aisles are cut out by support: the lower aisle consists of objects
whose minimal representative is supported on {(i, j) : i <= -j}, the upper
aisle on {(i, j) : i >= -j}.  Truncation is constructive: in a minimal
complex no differential block crosses a cut i + j <= n from below (a block
(i, s) -> (i + 1, t) that does has deg t >= deg s, where Hom(s, t) = 0
unless s = t, so it is a unit block, which minimality excludes), so for
every n the points i + j <= n span a subcomplex tau_{<= n} M of the minimal
model M.  These filter M: the cut n = 0 yields the truncation triangle as a
termwise-split triangle, and the strip of M on i + j = n, shifted by n, is
the t-cohomology object H^n.

The heart is a split finite-length abelian category; its simple objects
are the indecomposables placed in homological degree minus their degree,
and the weight filtration of a heart object is read off its antidiagonal
normal form term by term.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

from .complexes import (
    ChainMap,
    Complex,
    HomClass,
    Triangle,
    conjugate,
    is_null_homotopic,
    minimal_model,
)
from .linalg import KoszulkitError
from .orlov import AddMorphism, AddObject, invert, unit_index


class TStructureError(KoszulkitError):
    pass


class HeartAssertionError(TStructureError):
    """Raised with a certificate when a complex claimed to lie in the heart
    does not normalize onto the antidiagonal."""


def in_lower(point) -> bool:
    i, j = point
    return i <= -j


def in_upper(point) -> bool:
    i, j = point
    return i >= -j


def on_antidiagonal(point) -> bool:
    i, j = point
    return i == -j


@dataclass
class AisleReport:
    in_lower: bool
    in_upper: bool


def aisle_membership(x: Complex) -> AisleReport:
    m, _ = minimal_model(x)
    supp = m.support()
    return AisleReport(all(in_lower(p) for p in supp), all(in_upper(p) for p in supp))


@dataclass
class Truncation:
    lower: Complex        # in the lower aisle
    upper: Complex        # upper[1] lies in the upper aisle
    triangle: Triangle    # lower -> X -> upper -> lower[1]
    model: Complex        # the minimal model of X that lower and upper split


def _split_at(m: Complex, n: int):
    """The positions of each term of m at the points i + j <= n, and the rest."""
    deg = m.pres.degree
    return ({i: tuple(p for p, s in enumerate(t) if i + deg[s] <= n) for i, t in m.terms.items()},
            {i: tuple(p for p, s in enumerate(t) if i + deg[s] > n) for i, t in m.terms.items()})


def truncate(x: Complex) -> Truncation:
    """Split off the lower-aisle part of the minimal model M of x, which the
    result keeps; lower and upper are selections of M, so minimal too."""
    m, iso = minimal_model(x)
    base = Triangle.from_termwise_split(m, *_split_at(m, 0))
    tri = Triangle.transport(base, None, iso.inverse(), None)
    return Truncation(base.X, base.Z, tri, m)


# ------------------------------------------------------------ heart objects


@dataclass
class HeartObject:
    """An object of the heart in antidiagonal minimal normal form."""

    normal_form: Complex

    @property
    def pres(self):
        return self.normal_form.pres

    def weights(self):
        return sorted({-i for i in self.normal_form.terms})

    def __eq__(self, other):
        return isinstance(other, HeartObject) and self.normal_form == other.normal_form

    def __repr__(self):
        return f"HeartObject({self.normal_form!r})"


def heart_object(x: Complex) -> HeartObject:
    m, _ = minimal_model(x)
    bad = [p for p in m.support() if not on_antidiagonal(p)]
    if bad:
        raise HeartAssertionError(
            "complex is not in the heart: minimal model is not antidiagonal; "
            f"offending points {sorted(bad)}")
    return HeartObject(m)


def simple_object(pres, indec_id: str) -> HeartObject:
    deg = pres.degree[indec_id]
    return HeartObject(Complex.single(pres, AddObject((indec_id,)), -deg))


def heart_simples(pres) -> list:
    """One simple per indecomposable: the generator placed in degree -deg."""
    return [simple_object(pres, iid) for iid in pres.ids]


def simple_ext_cells(pres, window=(-inf, inf)) -> list:
    """The cells (s, t, i), lo <= i <= hi, at which Hom(S_s, S_t[i]) can be
    nonzero, in ``pres.ids`` x ``pres.ids`` order.

    S_s sits in the single degree -deg s and S_t[i] in -deg t - i, so a chain
    map needs i = deg s - deg t: one shift per pair, the weight diagonal.
    """
    lo, hi = window
    return [(s, t, i) for s in pres.ids for t in pres.ids
            if lo <= (i := pres.degree[s] - pres.degree[t]) <= hi]


def t_cohomology(x: Complex):
    """({n: H^n(x)} for every nonzero H^n, steps), from one minimal model M:
    cutting from the top, the step at n is the termwise-split triangle
    tau_{<= n-1} M -> tau_{<= n} M -> strip_n, and H^n is strip_n shifted by n."""
    m, _ = minimal_model(x)
    objects, steps = {}, []
    for n in sorted({i + j for i, j in m.support()}, reverse=True):
        step = Triangle.from_termwise_split(m, *_split_at(m, n - 1))
        objects[n] = HeartObject(step.Z.shift(n))
        steps.append(step)
        m = step.X
    return objects, steps


def weight_filtration(m: HeartObject) -> dict:
    """Graded pieces k -> semisimple HeartObject, read off the normal form."""
    out = {}
    for i, t in m.normal_form.terms.items():
        out[-i] = HeartObject(Complex.single(m.pres, t, i))
    return out


def weight_subobjects(m: HeartObject) -> dict:
    """The filtration itself: k -> (subcomplex with weights <= k, inclusion)."""
    nf = m.normal_form
    out = {}
    for k in m.weights():
        terms = {i: t for i, t in nf.terms.items() if -i <= k}
        diffs = {i: d for i, d in nf.diffs.items() if i in terms and i + 1 in terms}
        sub = Complex(nf.pres, terms, diffs, check=False)
        inc = ChainMap(sub, nf, {i: AddMorphism.identity(nf.pres, t)
                                 for i, t in sub.terms.items()}, check=False)
        out[k] = (sub, inc)
    return out


def composition_factors(m: HeartObject) -> dict:
    """Multiset of simple constituents: indecomposable id -> multiplicity."""
    out = {}
    for t in m.normal_form.terms.values():
        for s in t:
            out[s] = out.get(s, 0) + 1
    return out


def is_pure(m: HeartObject) -> bool:
    return len(m.weights()) <= 1


def is_semisimple_normal_form(m: HeartObject) -> bool:
    return not m.normal_form.diffs


# ------------------------------------------------- cone through a simple


@dataclass
class SimpleConeResult:
    quotient: Complex
    triangle: Triangle


def cone_through_simple(f: HomClass) -> SimpleConeResult:
    """Excise a simple mapping nonzero into an upper-aisle object.

    f must be a nonzero class S[deg S] -> X with X in the upper aisle; the
    recipe conjugates the minimal model of X by an automorphism of its
    degree -deg S term (``complexes.conjugate``) that makes the image of
    the generator a direct summand, and splits it off.
    """
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

    # automorphism U of the slot term with U o component = pivot inclusion:
    # U = P^{-1} where P is the identity with the pivot column replaced by
    # the component vector (its blocks are scalars, as End(s) is)
    n = range(len(tgt))
    p_mat = AddMorphism.assemble(pres, tgt, tgt, [
        (n, n, AddMorphism.identity(pres, tgt)), (lam, [pivot], comp.restrict_blocks(lam, [0]))])
    conj, conj_iso = conjugate(mx, {slot: (invert(p_mat), p_mat)})

    sel_sub = {i: ((pivot,) if i == slot else ()) for i in conj.terms}
    sel_quot = {i: tuple(q for q in range(len(conj.term(i))) if i != slot or q != pivot)
                for i in conj.terms}
    base = Triangle.from_termwise_split(conj, sel_sub, sel_quot)

    # conj -> mx -> X, one transport per iso
    mid = Triangle.transport(base, None, conj_iso.inverse(), None)
    return SimpleConeResult(base.Z, Triangle.transport(mid, None, iso.inverse(), None))


# -------------------------------------------------------- vanishing report


def mixed_vanishing_report(pres, window=(-8, 8)) -> dict:
    """Hom dimensions between heart simples across a shift window.

    Hom(S_s, S_t[k]) is Hom(s, t) on the cells of :func:`simple_ext_cells`
    (k = deg s - deg t) and 0 at every other shift, because both complexes
    sit in a single degree (see the ``koszul`` module docstring).  The report
    lists the nonzero cells with ``pres.hom_dim``; every listed cell lies on
    the weight diagonal, so ``allowed`` and ``vanishing_ok`` are true by
    construction.
    """
    cells = [{"source": s, "target": t, "shift": k, "dim": d, "allowed": True}
             for s, t, k in simple_ext_cells(pres, window) if (d := pres.hom_dim(s, t))]
    return {"window": list(window), "nonzero": cells, "vanishing_ok": True}
