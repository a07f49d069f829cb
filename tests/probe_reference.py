"""The uniqueness probe as a construction, the reference for ``functors``.

``functors.nat_trans_uniqueness_probe`` reports a constant: on a validated
``NatTrans`` the extension to complexes is unique, and rebuilding it cannot
disagree.  This module keeps the rebuild it replaced.  The probe here
rebuilds the extension through top-stratum extraction triangles on
randomized presentations of the same object and compares homotopy classes.

The rebuild does each node's work once.  It maps every complex once per
functor and hands the images it already holds to
:meth:`HomogeneousFunctor.on_chain_map`.  It carries the completed square
back along the summand reordering by re-indexing blocks, which is exact
because functors send units to identities.  By naturality its squares
commute on the nose, so :func:`complete_square` takes the zero homotopy,
which is the answer the Hom-space solve gives for a zero difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from koszulkit.complexes import (
    ChainMap,
    Complex,
    ComplexError,
    HomClass,
    Triangle,
    complete_square,
    cone,
)
from koszulkit.functors import FunctorError, NatTrans, _both, extend_nat_trans
from koszulkit.orlov import AddMorphism, ZERO_OBJECT
from koszulkit.randgen import conjugate_complex, rng_for


# ------------------------------------------------------------ top extraction


@dataclass
class TopExtraction:
    """The extraction triangle P -> X -> Y -> P[1] of X, with X = cone(delta)
    up to the summand reordering ``order``; the reordering chain maps are
    built from ``order`` on first read."""

    P: Complex
    Y: Complex
    delta: ChainMap          # Y[-1] -> P, cone(delta) = X up to reordering
    triangle: Triangle       # P -> X -> Y -> P[1]
    order: dict              # degree k -> the position in X^k of each summand of cone(delta)^k

    @cached_property
    def reorder(self) -> ChainMap:
        """cone(delta) -> X, a permutation of summands: the quotient slots
        first, then the top."""
        cone_cx, x = cone(self.delta)[0], self.triangle.Y
        return ChainMap(cone_cx, x, {
            k: AddMorphism.inclusion(x.pres, cone_cx.term(k), x.term(k), o)
            for k, o in self.order.items()}, check=False)

    @cached_property
    def reorder_inv(self) -> ChainMap:
        """X -> cone(delta), the inverse permutation."""
        cone_cx, x = self.reorder.source, self.reorder.target
        return ChainMap(x, cone_cx, {
            k: AddMorphism.projection(x.pres, x.term(k), cone_cx.term(k), o)
            for k, o in self.order.items()}, check=False)


def top_extraction(x: Complex, sigma=None) -> TopExtraction:
    """Split off the lex-largest support stratum as a one-term complex."""
    pres = x.pres
    supp = x.support()
    if sigma is not None:
        sigma = frozenset(sigma)
        if not supp <= sigma:
            raise ComplexError("support is not contained in the given region")
    else:
        sigma = supp
    if not sigma or not supp:
        sel_sub = {i: () for i in x.terms}
        sel_quot = {i: tuple(range(len(x.term(i)))) for i in x.terms}
        tri = Triangle.from_termwise_split(x, sel_sub, sel_quot)
        delta = ChainMap.zero(tri.Z.shift(-1), tri.X)
        return TopExtraction(tri.X, tri.Z, delta, tri, _order(x, sel_quot, sel_sub))
    i, j = max(sigma)            # lexicographic: (homological degree, generator degree)
    if x.term(i + 1) != ZERO_OBJECT:
        raise ComplexError("support exceeds the top stratum of the region")
    top_pos = tuple(p for p, s in enumerate(x.term(i)) if pres.degree[s] == j)
    sel_sub = {k: (top_pos if k == i else ()) for k in x.terms}
    sel_quot = {k: tuple(p for p in range(len(x.term(k))) if k != i or p not in top_pos)
                for k in x.terms}
    tri = Triangle.from_termwise_split(x, sel_sub, sel_quot)
    p_cx, y_cx = tri.X, tri.Z
    delta_comps = {}
    if i - 1 in x.diffs:
        blk = x.d(i - 1).restrict_blocks(top_pos, sel_quot[i - 1])
        if not blk.is_zero():
            ys = y_cx.shift(-1)
            delta_comps[i] = AddMorphism(pres, ys.term(i), p_cx.term(i), blk.blocks)
    delta = ChainMap(y_cx.shift(-1), p_cx, delta_comps, check=False)
    return TopExtraction(p_cx, y_cx, delta, tri, _order(x, sel_quot, sel_sub))


def _order(x: Complex, sel_quot, sel_sub) -> dict:
    """The position in x^k of each summand of cone(delta)^k: quotient slots
    first, then top."""
    return {k: tuple(sel_quot.get(k, ())) + tuple(sel_sub.get(k, ())) for k in x.terms}


# ----------------------------------------------------- uniqueness probe


def _theta_via_extraction(theta: NatTrans, x: Complex) -> ChainMap:
    """Rebuild theta_x through the top-stratum triangle, recursively.

    Each call maps x once through F, and once through G when G is not F.
    F(delta) and G(delta) take their endpoints from the recursion's
    results: theta_P runs F(P) -> G(P), and theta_Y[-1] runs
    F(Y)[-1] = F(Y[-1]) -> G(Y)[-1], since F is additive.  Completing the
    square gives r: cone(F(delta)) -> cone(G(delta)), and F literally
    commutes with cones, so r maps F(cone(delta)) -> G(cone(delta));
    :func:`_transport` carries it back to x.
    """
    F, G = theta.F, theta.G
    fx, gx = _both(theta, x)
    if x.is_zero:
        return ChainMap.zero(fx, gx)
    if len({i for (i, _) in x.support()}) <= 1:
        return ChainMap(fx, gx, {i: theta.on_object(t) for i, t in x.terms.items()})
    te = top_extraction(x)
    theta_p = _theta_via_extraction(theta, te.P)
    theta_ys = _theta_via_extraction(theta, te.Y).shift(-1)
    f_delta = F.on_chain_map(te.delta, theta_ys.source, theta_p.source)
    g_delta = f_delta if G is F else G.on_chain_map(te.delta, theta_ys.target, theta_p.target)
    r, _ = complete_square(f_delta, g_delta, theta_ys, theta_p)
    return _transport(theta, x, te.order, r, fx, gx)


def _transport(theta: NatTrans, x: Complex, order, r: ChainMap, fx: Complex,
               gx: Complex) -> ChainMap:
    """G(reorder) o r o F(reorder^-1): F(x) -> G(x), by re-indexing r's blocks.

    The reordering cone(delta) -> x sends summand j of cone(delta)^k to
    summand ``order[k][j]`` of x^k by a unit, and F and G send each unit to
    an identity (:meth:`HomogeneousFunctor.validate` checks F(1_s) = 1_F(s)).
    So the composite is r^k with its rows placed at the G-slices and its
    columns at the F-slices of x^k, both listed in that order: exactly,
    with no functor applied and no composition formed.
    """
    F, G = theta.F, theta.G
    comps = {}
    for k, m in r.comps.items():
        term, pos = x.terms[k], order[k]
        rows, cols = G._slices(term), F._slices(term)
        comps[k] = AddMorphism.assemble(F.target, fx.terms[k], gx.terms[k], [
            ([p for j in pos for p in rows[j]], [p for j in pos for p in cols[j]], m)])
    return ChainMap(fx, gx, comps, check=False)


def nat_trans_uniqueness_probe(theta: NatTrans, x: Complex, orders=20, seed=0) -> dict:
    """Check the extension is independent of the construction route.

    Rebuilds theta_x through extraction triangles over ``orders`` random
    re-presentations of x (termwise automorphism conjugates) and compares
    every result, and the direct termwise extension, as homotopy classes.
    ``orders`` must be at least 1.
    """
    if orders < 1:
        raise FunctorError(f"orders must be at least 1, got {orders}")
    direct = extend_nat_trans(theta, x)
    rng = rng_for(seed, "probe")
    disagreements = 0
    runs = 0
    base = _theta_via_extraction(theta, x)
    if HomClass(base) != direct:
        disagreements += 1
    runs += 1
    F, G = theta.F, theta.G
    for _ in range(orders - 1):
        x2, fwd, bwd = conjugate_complex(x, rng)
        routed = _theta_via_extraction(theta, x2)
        pulled = G.on_chain_map(bwd, routed.target, direct.target).compose(routed).compose(
            F.on_chain_map(fwd, direct.source, routed.source))
        runs += 1
        if HomClass(pulled) != direct:
            disagreements += 1
    return {"orders": runs, "disagreements": disagreements, "ok": disagreements == 0}
