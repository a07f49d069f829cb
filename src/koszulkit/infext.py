"""The infinitesimal extension of the bounded homotopy category.

Objects are the complexes themselves; a morphism is a pair (f0, f') of
homotopy classes X -> Y and X -> Y[-1] with the twisted composition
(g0, g') (f0, f') = (g0 f0, g0[-1] f' + g' f0).  Infinitesimal morphisms
(f0 = 0) square to zero and admit no cones; a pair is invertible exactly
when its genuine part is, with the explicit inverse
(f0^-1, -f0^-1[-1] f' f0^-1).  A distinguished triangle is the iota image
of a certified triangle of the underlying homotopy category: its check is
that certificate and the equality of each map with the image of its base
map.  ``adjunction_data`` gives the units and counits of
rho[1] -| iota -| rho with their triangle identities.  rho(X) = X + X[-1]
is a ``direct_sum``, the one place that lays out a sum, and ``rho_map``
composes through the canonical maps of the rho(X) and rho(Y) its caller
already holds.  A homogeneous functor acts on a pair by (F f0, F f'), so
an adjunction of functors carries over level by level:
``functors.adjunction_check`` checks the Hom bijection at shift k and
k - 1, the two levels of Hom in this category.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (
    ChainMap,
    Complex,
    HomClass,
    HomSpace,
    Triangle,
    complete_square,
    cone,
    direct_sum,
    hom_space,
)
from .linalg import KoszulkitError, Matrix


class InfExtError(KoszulkitError):
    pass


class InfMorphism:
    """Pair (f0: X -> Y, finf: X -> Y[-1]) of homotopy classes."""

    __slots__ = ("f0", "finf")

    def __init__(self, f0: HomClass, finf: HomClass):
        if f0.source != finf.source or f0.target.shift(-1) != finf.target:
            raise InfExtError("component endpoints do not match")
        self.f0 = f0
        self.finf = finf

    @property
    def source(self):
        return self.f0.source

    @property
    def target(self):
        return self.f0.target

    @staticmethod
    def iota(f: HomClass) -> "InfMorphism":
        return InfMorphism(f, HomClass.zero(f.source, f.target.shift(-1)))

    @staticmethod
    def upsilon(finf: HomClass) -> "InfMorphism":
        """Inclusion of Hom(X, Y[-1]) as the infinitesimal part."""
        target = finf.target.shift(1)
        return InfMorphism(HomClass.zero(finf.source, target), finf)

    @staticmethod
    def identity(x: Complex) -> "InfMorphism":
        return InfMorphism.iota(HomClass.identity(x))

    @property
    def is_infinitesimal(self) -> bool:
        return self.f0.is_zero()

    @property
    def is_genuine_data(self) -> bool:
        """Whether the stored pair has zero infinitesimal part; being
        genuine is not preserved by conjugation, so this is data, not a
        property of the morphism up to isomorphism."""
        return self.finf.is_zero()

    def __eq__(self, other):
        if not isinstance(other, InfMorphism):
            return NotImplemented
        return self.f0 == other.f0 and self.finf == other.finf

    def __repr__(self):
        return f"InfMorphism({self.source!r} -> {self.target!r})"

    def shift(self, n: int) -> "InfMorphism":
        return InfMorphism(self.f0.shift(n), self.finf.shift(n))


def inf_compose(g: InfMorphism, f: InfMorphism) -> InfMorphism:
    """(g0, g') o (f0, f') = (g0 f0, g0[-1] f' + g' f0)."""
    if f.target != g.source:
        raise InfExtError("morphisms are not composable")
    f0 = g.f0.compose(f.f0)
    finf = g.f0.shift(-1).compose(f.finf).add(g.finf.compose(f.f0))
    return InfMorphism(f0, finf)


def inf_invert(f: InfMorphism):
    """Explicit inverse (f0^-1, -f0^-1[-1] f' f0^-1), or None."""
    inv0 = f.f0.inverse()
    if inv0 is None:
        return None
    minus = inv0.shift(-1).compose(f.finf).compose(inv0).scale(-1)
    g = InfMorphism(inv0, minus)
    if inf_compose(g, f) != InfMorphism.identity(f.source):
        raise InfExtError("inverse failed left verification")
    if inf_compose(f, g) != InfMorphism.identity(f.target):
        raise InfExtError("inverse failed right verification")
    return g


# ----------------------------------------------------------------- rho


def rho(x: Complex):
    """rho(X) = X + X[-1] with its four canonical maps."""
    return direct_sum(x, x.shift(-1))


def rho_map(f: InfMorphism, rho_x, rho_y) -> HomClass:
    """The matrix [[f0, 0], [f', f0[-1]]] : rho(X) -> rho(Y) as the composite
    i1 f0 p1 + i2 f' p1 + i2 f0[-1] p2 through the canonical maps of
    ``rho_x`` = rho(X) and ``rho_y`` = rho(Y), as :func:`rho` returns them.
    Those are unit maps, so the composite only re-indexes blocks of f0, f'."""
    _, _, _, p1, p2 = rho_x
    _, i1, i2, _, _ = rho_y
    f0, finf = f.f0.rep, f.finf.rep
    m = i1.compose(f0).compose(p1)
    m = m.add(i2.compose(finf).compose(p1))
    return HomClass(m.add(i2.compose(f0.shift(-1)).compose(p2)))


# ------------------------------------------------------------ adjunctions


def adjunction_data(x: Complex) -> dict:
    """Units and counits of both adjunctions at x, with all four triangle
    identities verified exactly on the given object.  rho(X), rho(rho X)
    and rho(rho X [1]) are built once each and shared by both rho_map calls."""
    rho_x = rho(x)
    rx, ix1, ix2, px1, px2 = rho_x
    id_x = InfMorphism.identity(x)

    # first adjunction: iota left adjoint to rho
    eta = HomClass(ix1)                                    # X -> rho(X) in K^b
    eps = InfMorphism(HomClass(px1), HomClass(px2))        # rho(X) -> X

    # identity 1: rho(eps) o eta_{rho X} = id_{rho X}
    rho_rx = rho(rx)
    r_eps = rho_map(eps, rho_rx, rho_x)
    check1 = r_eps.compose(HomClass(rho_rx[1])) == HomClass.identity(rx)
    # identity 2: eps_{iota X} o iota(eta) = id in the extension
    check2 = inf_compose(eps, InfMorphism.iota(eta)) == id_x

    # second adjunction: rho[1] left adjoint to iota
    rx1 = rx.shift(1)                                      # X[1] + X
    eta2 = InfMorphism(HomClass(ix2.shift(1)), HomClass(ix1))
    eps2 = HomClass(px2.shift(1))                          # X[1] + X -> X in K^b

    # identity 3: eps2 at rho[1]X composed with rho[1](eta2) = id_{rho[1] X}
    rho_rx1 = rho(rx1)
    r_eta2 = rho_map(eta2, rho_x, rho_rx1).shift(1)
    eps2_at = HomClass(rho_rx1[4].shift(1))                # rho(rho[1]X)[1] -> rho[1]X
    check3 = eps2_at.compose(r_eta2) == HomClass.identity(rx1)
    # identity 4: iota(eps2) o eta2_{iota X} = id in the extension
    check4 = inf_compose(InfMorphism.iota(eps2), eta2) == id_x

    return {
        "eta": eta, "eps": eps, "eta2": eta2, "eps2": eps2,
        "checks": [check1, check2, check3, check4],
        "ok": check1 and check2 and check3 and check4,
    }


# -------------------------------------------------------------- triangles


@dataclass
class InfTriangle:
    """The image under iota of a triangle certified in the homotopy category."""

    X: Complex
    Y: Complex
    Z: Complex
    m1: InfMorphism
    m2: InfMorphism
    m3: InfMorphism
    base: Triangle                    # certified in the homotopy category

    def verify(self) -> list:
        issues = list(self.base.verify())
        for name, m, f in (("f", self.m1, self.base.f), ("g", self.m2, self.base.g),
                           ("h", self.m3, self.base.h)):
            if m != InfMorphism.iota(HomClass(f)):
                issues.append(f"map {name} is not the image of its base map")
        return issues


def iota_triangle(base: Triangle) -> InfTriangle:
    return InfTriangle(base.X, base.Y, base.Z,
                       *(InfMorphism.iota(HomClass(m)) for m in (base.f, base.g, base.h)), base)


# ---------------------------------------------------- long exact sequences


def _inf_express(sp0: HomSpace, sp1: HomSpace, m: InfMorphism):
    c0, c1 = sp0.express(m.f0.rep), sp1.express(m.finf.rep)
    return None if c0 is None or c1 is None else list(c0) + list(c1)


def inf_les_check(a: Complex, tri: InfTriangle, window=(-3, 3)) -> dict:
    """Exactness of both Hom long sequences against a test object.

    Every node dimension is dim Hom(-, -) + dim Hom(-, -[-1]); the
    composite of consecutive maps must vanish and ranks must add up to the
    node dimension at every interior node of the window.  An empty window
    has no node to check and is refused.
    """
    if window[0] > window[1]:
        raise InfExtError(f"empty window {list(window)}: no node to check")
    issues = tri.verify()
    if issues:
        raise InfExtError(f"triangle is not certified distinguished: {issues}")
    fld = a.pres.field
    failures = []

    def run_sequence(nodes, apply):
        """nodes: list of (basis pair, dim); apply[idx]: element -> element."""
        mats = []
        for idx in range(len(nodes) - 1):
            (sp0, sp1), _ = nodes[idx]
            (tgt0, tgt1), tdim = nodes[idx + 1]
            elements = [InfMorphism.iota(HomClass(b)) for b in sp0.basis] + [
                InfMorphism.upsilon(HomClass(b)) for b in sp1.basis]
            cols = [_inf_express(tgt0, tgt1, apply[idx](el)) for el in elements]
            if None in cols:
                raise InfExtError("image escapes the target basis")
            mats.append(Matrix.from_columns(fld, tdim, cols))
        ranks = [m.rank() for m in mats]
        local = []
        for idx in range(1, len(nodes) - 1):
            dim = nodes[idx][1]
            if not mats[idx].mul(mats[idx - 1]).is_zero():
                local.append({"node": idx, "reason": "composite nonzero"})
                continue
            if ranks[idx - 1] + ranks[idx] != dim:
                local.append({"node": idx, "reason": "rank defect",
                              "in_rank": ranks[idx - 1], "out_rank": ranks[idx], "dim": dim})
        return local

    # covariant: ... -> Hom(A, X[k]) -> Hom(A, Y[k]) -> Hom(A, Z[k]) -> ...
    # the infinitesimal part at k is the genuine part of the node at k - 1
    nodes, apply, below = [], [], {}
    for k in range(window[0], window[1] + 1):
        for j, (w, mor) in enumerate(((tri.X, tri.m1), (tri.Y, tri.m2), (tri.Z, tri.m3))):
            sp0 = hom_space(a, w, k)
            sp1 = below[j] if k > window[0] else hom_space(a, w, k - 1)
            below[j] = sp0
            nodes.append(((sp0, sp1), sp0.dimension + sp1.dimension))
            shifted = mor.shift(k)
            apply.append(lambda el, m=shifted: inf_compose(m, el))
    failures.extend(run_sequence(nodes, apply))

    # contravariant: Hom(X[k+1], A) -> Hom(Z[k], A) -> Hom(Y[k], A) -> Hom(X[k], A)
    cnodes, capply = [], []
    for k in range(window[1], window[0] - 1, -1):
        for w, pre in ((tri.Z, tri.m2.shift(k)), (tri.Y, tri.m1.shift(k)),
                       (tri.X, tri.m3.shift(k - 1))):
            sp0 = hom_space(w.shift(k), a, 0)
            sp1 = hom_space(w.shift(k), a, -1)
            cnodes.append(((sp0, sp1), sp0.dimension + sp1.dimension))
            capply.append(lambda el, m=pre: inf_compose(el, m))
    cfails = run_sequence(cnodes, capply)
    for fail in cfails:
        fail["sequence"] = "contravariant"
    failures.extend(cfails)

    return {"window": list(window), "nodes": len(nodes) + len(cnodes),
            "failures": failures, "ok": not failures}


# ---------------------------------------------------------- square completion


def complete_inf_square(p: InfMorphism, q: InfMorphism,
                        f: InfMorphism, i2: InfMorphism) -> dict:
    """Complete a commutative square on genuine maps to a triangle morphism.

    f: X -> Y and i2: X' -> Y' must be stored genuine (cones exist for
    them); p, q are arbitrary. Works the two underlying squares of the
    pair decomposition with a shared cone, reassembling r = (r0, r').
    Raises InfExtError when f or i2 is not genuine or the square does not
    commute; ``squares_ok`` says whether r makes both remaining squares of
    the triangle morphism commute.
    """
    if not f.is_genuine_data or not i2.is_genuine_data:
        raise InfExtError("cone endpoints must be given by genuine data")
    if inf_compose(q, f) != inf_compose(i2, p):
        raise InfExtError("square does not commute in the infinitesimal extension")
    f0 = f.f0.rep
    i0 = i2.f0.rep
    r0, _ = complete_square(f0, i0, p.f0.rep, q.f0.rep)
    # second square: q' f0 = i0[-1] p' up to homotopy, which is the square
    # (-i0[-1]) (-p') = q' f0.  cone(-i0[-1]) is cone(i0)[-1] term for term,
    # with the same differential [[d_X', 0], [-i0, -d_Y']], so its
    # completion [[-p'[1], 0], [h', q']] is r' as it stands
    rprime, _ = complete_square(f0, i0.shift(-1).scale(-1), p.finf.rep.scale(-1), q.finf.rep)
    r = InfMorphism(HomClass(r0), HomClass(rprime))

    _, inc_f, proj_f = cone(f0)
    _, inc_i, proj_i = cone(i0)
    sq_g = inf_compose(r, InfMorphism.iota(HomClass(inc_f))) == \
        inf_compose(InfMorphism.iota(HomClass(inc_i)), q)
    sq_h = inf_compose(p.shift(1), InfMorphism.iota(HomClass(proj_f))) == \
        inf_compose(InfMorphism.iota(HomClass(proj_i)), r)
    invertible = None
    if inf_invert(p) is not None and inf_invert(q) is not None:
        invertible = inf_invert(r) is not None
    return {"r": r, "squares_ok": sq_g and sq_h, "r_invertible": invertible}
