"""Bounded chain complexes over an additive closure and their homotopy category.

Complexes are cohomologically indexed (d^i: X^i -> X^{i+1}) with finitely
many nonzero terms.  The homotopy category is realized through explicit
linear algebra: chain-map spaces and null-homotopy spaces are assembled as
exact linear systems, so Hom groups, homotopy classes and minimal models
are all computed, never approximated.

Sign conventions (the underlying theory never fixes them):
  * shift:  X[n]^i = X^{i+n},  d_{X[n]} = (-1)^n d_X; X[n] is built once
    per complex and n, and X[0] is X itself
  * cone:   cone(f)^i = X^{i+1} + Y^i with differential [[-d_X, 0], [f, d_Y]]
  * a termwise-split inclusion A >-> M with quotient B yields the
    distinguished triangle A -> M -> B -> A[1] whose connecting map is
    minus the off-diagonal block of d_M.

Distinguished triangles carry explicit certificates: every constructor
stores data whose verification consists of exact identities only (chain
conditions, the canonical cone triangle, transports along witnessed
homotopy equivalences).  A termwise-split triangle is the cone triangle of
its inclusion transported to the quotient, so it has no certificate of its
own; a transport reads a None iso as the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
import weakref

from .linalg import Echelon, KoszulkitError, Matrix, RowMatrix
from .orlov import (
    AddMorphism,
    AddObject,
    CompositionError,
    Coords,
    ZERO_OBJECT,
    identity_label,
    spans,
    unit_index,
)


class ComplexError(KoszulkitError):
    pass


class TriangleError(KoszulkitError):
    pass


class FillError(KoszulkitError):
    pass


# ------------------------------------------------------------------ complex


class Complex:
    """Bounded complex; ``terms[i]`` nonzero objects, ``diffs[i]`` nonzero d^i.

    A complex is immutable after ``__init__``, so what is built from it can
    be shared.  ``_shifts`` is None until the first nonzero shift, then maps
    each n built so far to X[n].  ``_homs`` is None until the first
    :class:`HomSpace` out of X, then maps id(Y) to (a weak reference to Y,
    the :class:`HomComplex` of (X, Y)), so every k of Hom(X, Y[k]) reads one
    Hom complex.  The weak reference is checked on every read: an id reused
    by a new complex after Y was freed finds a dead reference and gets a
    fresh Hom complex.  A Hom complex holds layouts and matrices, no
    complex, so nothing X keeps refers back to X or Y, and X and its Hom
    complexes are freed by reference counting, Hom(X, X) included."""

    __slots__ = ("pres", "terms", "diffs", "_shifts", "_homs", "__weakref__")

    def __init__(self, pres, terms, diffs, check=True):
        self.pres = pres
        self.terms = {i: t for i, t in terms.items() if not t.is_zero}
        self.diffs = {}
        self._shifts = self._homs = None
        for i, d in diffs.items():
            if d is None or d.is_zero():
                continue
            if i not in self.terms or (i + 1) not in self.terms:
                raise ComplexError(f"differential d^{i} attached to a zero term")
            self.diffs[i] = d
        if check:
            for i, d in self.diffs.items():
                if d.source != self.terms[i] or d.target != self.terms[i + 1]:
                    raise ComplexError(f"differential d^{i} has wrong endpoints")
            for i in self.diffs:
                if i + 1 in self.diffs:
                    if not self.diffs[i + 1].compose(self.diffs[i]).is_zero():
                        raise ComplexError(f"d^{i+1} o d^{i} != 0")

    @staticmethod
    def zero(pres) -> "Complex":
        return Complex(pres, {}, {})

    @staticmethod
    def single(pres, x: AddObject, degree: int = 0) -> "Complex":
        return Complex(pres, {degree: x}, {})

    def term(self, i) -> AddObject:
        return self.terms.get(i, ZERO_OBJECT)

    def d(self, i) -> AddMorphism:
        if i in self.diffs:
            return self.diffs[i]
        return AddMorphism.zero(self.pres, self.term(i), self.term(i + 1))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self):
        return sorted(self.terms)

    def __eq__(self, other):
        if other is self:
            return True
        return (isinstance(other, Complex) and self.pres is other.pres
                and self.terms == other.terms and self.diffs == other.diffs)

    def __repr__(self):
        if self.is_zero:
            return "Complex(0)"
        parts = [f"{i}:{'+'.join(self.term(i))}" for i in self.degrees()]
        return f"Complex({', '.join(parts)})"

    def shift(self, n: int) -> "Complex":
        if n == 0:
            return self
        if self._shifts is None:
            self._shifts = {}
        elif n in self._shifts:
            return self._shifts[n]
        terms = {i - n: t for i, t in self.terms.items()}
        sign = self.pres.field.one if n % 2 == 0 else self.pres.field.neg(self.pres.field.one)
        diffs = {i - n: d.scale(sign) for i, d in self.diffs.items()}
        x = self._shifts[n] = Complex(self.pres, terms, diffs, check=False)
        return x

    def support(self) -> frozenset:
        pts = set()
        for i, t in self.terms.items():
            for s in t:
                pts.add((i, self.pres.degree[s]))
        return frozenset(pts)


def shift(x: Complex, n: int) -> Complex:
    return x.shift(n)


def support(x: Complex) -> frozenset:
    return x.support()


def _stack(a: Complex, b: Complex):
    """Terms of a + b with, per degree, the positions of a's and b's summands."""
    terms = {i: a.term(i).concat(b.term(i)) for i in set(a.terms) | set(b.terms)}
    apos, bpos = {}, {}
    for i in terms:
        apos[i], bpos[i] = spans(a.term(i), b.term(i))
    return terms, apos, bpos


def direct_sum(x: Complex, y: Complex):
    """x + y with the four canonical chain maps (ix, iy, px, py)."""
    pres = x.pres
    terms, xp, yp = _stack(x, y)
    diffs = {i: AddMorphism.assemble(pres, terms[i], terms[i + 1], [
        (xp[i + 1], xp[i], x.d(i)), (yp[i + 1], yp[i], y.d(i))])
        for i in sorted(terms) if i + 1 in terms}
    z = Complex(pres, terms, diffs, check=False)
    ix = {i: AddMorphism.inclusion(pres, x.term(i), terms[i], xp[i]) for i in x.terms}
    iy = {i: AddMorphism.inclusion(pres, y.term(i), terms[i], yp[i]) for i in y.terms}
    px = {i: AddMorphism.projection(pres, terms[i], x.term(i), xp[i]) for i in x.terms}
    py = {i: AddMorphism.projection(pres, terms[i], y.term(i), yp[i]) for i in y.terms}
    return (z,
            ChainMap(x, z, ix, check=False), ChainMap(y, z, iy, check=False),
            ChainMap(z, x, px, check=False), ChainMap(z, y, py, check=False))


# ---------------------------------------------------------------- chain maps


class ChainMap:
    __slots__ = ("source", "target", "comps")

    def __init__(self, source: Complex, target: Complex, comps, check=True):
        self.source = source
        self.target = target
        self.comps = {i: m for i, m in comps.items() if m is not None and not m.is_zero()}
        if check:
            for i, m in self.comps.items():
                if m.source != source.term(i) or m.target != target.term(i):
                    raise ComplexError(f"component {i} has wrong endpoints")
            i = self._non_chain_degree()
            if i is not None:
                raise ComplexError(f"not a chain map at degree {i}")

    @staticmethod
    def zero(source: Complex, target: Complex) -> "ChainMap":
        return ChainMap(source, target, {}, check=False)

    @staticmethod
    def identity(x: Complex) -> "ChainMap":
        return ChainMap(x, x, {i: AddMorphism.identity(x.pres, t) for i, t in x.terms.items()},
                        check=False)

    def component(self, i) -> AddMorphism:
        if i in self.comps:
            return self.comps[i]
        return AddMorphism.zero(self.source.pres, self.source.term(i), self.target.term(i))

    def is_zero(self) -> bool:
        return not self.comps

    def __eq__(self, other):
        return (isinstance(other, ChainMap) and self.source == other.source
                and self.target == other.target and self.comps == other.comps)

    def __repr__(self):
        return f"ChainMap({self.source!r} -> {self.target!r})"

    def compose(self, other: "ChainMap") -> "ChainMap":
        if other.target != self.source:
            raise ComplexError("compose: middle complexes differ")
        comps = {}
        for i in set(self.comps) & set(other.comps):
            comps[i] = self.comps[i].compose(other.comps[i])
        return ChainMap(other.source, self.target, comps, check=False)

    def add(self, other: "ChainMap") -> "ChainMap":
        """Component-wise sum; at a degree only one map has, its component as is."""
        for a, b in ((self, other), (other, self)):
            for i in a.comps.keys() - b.comps.keys():
                if (a.comps[i].source, a.comps[i].target) != (b.source.term(i), b.target.term(i)):
                    raise CompositionError("add: object mismatch")
        comps = dict(self.comps)
        for i, m in other.comps.items():
            comps[i] = comps[i].add(m) if i in comps else m
        return ChainMap(self.source, self.target, comps, check=False)

    def sub(self, other: "ChainMap") -> "ChainMap":
        return self.add(other.scale(-1))

    def scale(self, c) -> "ChainMap":
        return ChainMap(self.source, self.target,
                        {i: m.scale(c) for i, m in self.comps.items()}, check=False)

    def shift(self, n: int) -> "ChainMap":
        return ChainMap(self.source.shift(n), self.target.shift(n),
                        {i - n: m for i, m in self.comps.items()}, check=False)

    def verify(self) -> bool:
        return self._non_chain_degree() is None

    def _non_chain_degree(self):
        """The first degree i with d o f^i != f^{i+1} o d, or None.  A missing
        differential or component is zero, so its products are not formed."""
        comps, dx, dy = self.comps, self.source.diffs, self.target.diffs
        for i in set(comps) | set(dx):
            f0, f1, d0, d1 = comps.get(i), comps.get(i + 1), dx.get(i), dy.get(i)
            lhs = None if f0 is None or d1 is None else d1.compose(f0)
            rhs = None if f1 is None or d0 is None else f1.compose(d0)
            if lhs is None:
                if rhs is not None and not rhs.is_zero():
                    return i
            elif rhs is None:
                if not lhs.is_zero():
                    return i
            elif lhs != rhs:
                return i
        return None


class Homotopy:
    """Degree -1 collection h^i: X^i -> Y^{i-1}."""

    __slots__ = ("source", "target", "comps")

    def __init__(self, source: Complex, target: Complex, comps):
        self.source = source
        self.target = target
        self.comps = {i: m for i, m in comps.items() if m is not None and not m.is_zero()}

    @staticmethod
    def zero(source, target) -> "Homotopy":
        return Homotopy(source, target, {})

    def component(self, i) -> AddMorphism:
        if i in self.comps:
            return self.comps[i]
        return AddMorphism.zero(self.source.pres, self.source.term(i), self.target.term(i - 1))

    def boundary(self) -> ChainMap:
        """delta(h) = d_Y o h + h o d_X, always a chain map."""
        comps = {}
        degs = set()
        for i in self.comps:
            degs.update((i, i - 1))
        for i in degs:
            m = self.target.d(i - 1).compose(self.component(i)).add(
                self.component(i + 1).compose(self.source.d(i)))
            comps[i] = m
        return ChainMap(self.source, self.target, comps, check=False)

    def conjugate(self, pre: ChainMap, post: ChainMap) -> "Homotopy":
        """post o h o pre as a homotopy pre.source -> post.target."""
        comps = {}
        for i in self.comps:
            comps[i] = post.component(i - 1).compose(self.comps[i]).compose(pre.component(i))
        return Homotopy(pre.source, post.target, comps)


# -------------------------------------------------------------- hom spaces


class HomComplex:
    """The Hom complex Hom^*(X, Y) of one pair, built on first use and kept.

    Hom^n = + Hom(X^i, Y^{i+n}) has the layout ``layout(x, y, n)``, keyed
    by i, and d^n: Hom^n -> Hom^{n+1} is f -> (-1)^n d_Y f - f d_X, the
    chain condition of Hom(X, Y[n]), since Y[n] has the differential
    (-1)^n d_Y.  ``d(x, y, n)`` is its whole matrix, in the row form of
    ``Coords.matrix``.  Hom_K(X, Y[k]) is H^k of this complex, so every k
    reads the same layouts and differentials: k -1..1 need the five layouts
    Hom^-2..Hom^2 and the four d^-2..d^1.  It keeps no complex; the caller
    passes the x and y it hangs off (see :class:`Complex`).
    """

    __slots__ = ("layouts", "diffs")

    def __init__(self):
        self.layouts, self.diffs = {}, {}

    def layout(self, x: Complex, y: Complex, n: int) -> Coords:
        if n not in self.layouts:
            yt = y.terms
            self.layouts[n] = Coords(x.pres, {i: (t, yt[i + n]) for i, t in x.terms.items()
                                              if i + n in yt})
        return self.layouts[n]

    def d(self, x: Complex, y: Complex, n: int) -> RowMatrix:
        if n not in self.diffs:
            self.diffs[n] = self.layout(x, y, n).matrix(self.layout(x, y, n + 1), [
                (0, -1 if n % 2 else 1, "left", lambda i: y.d(i + n)),
                (-1, -1, "right", lambda i: x.d(i - 1))])
        return self.diffs[n]


def hom_complex(x: Complex, y: Complex) -> HomComplex:
    """The Hom complex of (x, y) that x keeps, built empty on the first read."""
    if x._homs is None:
        x._homs = {}
    kept = x._homs.get(id(y))
    if kept is None or kept[0]() is not y:
        kept = x._homs[id(y)] = (weakref.ref(y), HomComplex())
    return kept[1]


class HomSpace:
    """Hom_{K^b}(X, Y[k]) presented by explicit linear algebra.

    ``dimension`` is dim(chain maps) - dim(null-homotopic chain maps);
    ``basis`` carries chain-map representatives of a basis of the quotient.

    Everything is read off the :class:`HomComplex` of (X, Y): the chain
    maps have the layout ``maps`` of Hom^k, the homotopies ``homotopies``
    of Hom^(k-1), and the chain condition D1 is d^k.  Two eliminations build
    it.  The first is of D1, whose echelon form R has free columns F; its
    kernel, the chain maps, has the basis K of ``kernel_vector`` columns of
    R, the identity on F.  So a chain map v is fixed by v[F], since the
    entry at the pivot column p_r of R is -sum_j R[r][j] v[j], and v = K
    v[F].  Every column of the null-homotopy matrix delta, h -> d_{Y[k]} h +
    h d_X, is a chain map, so [delta | K] = K [delta_F | I] with K
    injective: the second elimination is of [delta_F | I], one row per chain
    map coordinate (``nullity`` rows, not ``total``), and it has the pivots
    [delta | K] would have.  Pivots before delta's width count its rank;
    those past it pick ``basis``.  As d_{Y[k]} = -d_{Y[k-1]}, delta is
    -d^(k-1) entry for entry, so delta_F is the rows F of d^(k-1), negated
    (v -> p - v over F_p), and each row gets its unit entry of I there.

    [delta_F | I] has full row rank, so its echelon form is [E delta_F | E]
    with E invertible: E is read off the I block, and E b is the
    ``defect`` of (0, b), zero on delta's columns.  A chain map v, whose
    chain defect (the pivot rows of R applied to v) is 0, has class
    coordinates (:meth:`express`) E v[F] with the null-homotopy part, its
    first ``_delta_rank`` entries, dropped.  These are the one coordinate
    system of the quotient: linear, onto, with kernel im delta, and each
    element of ``basis`` has a unit vector as its coordinates.
    """

    def __init__(self, x: Complex, y: Complex, k: int = 0):
        self.x = x
        self.y = y
        self.k = k
        self.ys = y.shift(k)
        fld = x.pres.field
        hc = hom_complex(x, y)
        self.maps, self.homotopies = hc.layout(x, y, k), hc.layout(x, y, k - 1)
        self.total, self.h_total = self.maps.total, self.homotopies.total
        h, free, delta_f = self.h_total, [], []
        if self.total:
            self._chains = hc.d(x, y, k).rref()
            free = self._chains.free_columns()
            previous, neg = hc.d(x, y, k - 1).krows, fld.neg
            delta_f = [({j: neg(v) for j, v in previous[r][0].items()}, previous[r][1]) for r in free]
        else:                   # no chain-map unknowns: the space is 0
            self._chains = Echelon(fld, 0, 0, (), [])
        self._free = free
        self.nullity = n = len(free)
        for r, (row, d) in enumerate(delta_f):
            row[h + r] = d      # the unit entry of I, in the row's denominator
        self._echelon = RowMatrix(fld, n, h + n, delta_f).rref()
        pivots = self._echelon.pivots
        self._delta_rank = sum(p < h for p in pivots)
        self.dimension = n - self._delta_rank
        self.basis = [self._cycle_at(p - h) for p in pivots if p >= h]

    # ---------------------------------------------------------- chain maps

    def cycle(self, coeffs) -> ChainMap:
        """The chain map with coordinates ``coeffs`` in the chain kernel's
        basis K, the one that is the identity on the free columns."""
        return self._vector_to_map(self._chains.lift(coeffs))

    def _cycle_at(self, j) -> ChainMap:
        return self._vector_to_map(self._chains.kernel_vector(j))

    # ------------------------------------------------------------ plumbing

    def _vector_to_map(self, vec) -> ChainMap:
        return ChainMap(self.x, self.ys, self.maps.from_vector(vec), check=False)

    def map_to_vector(self, f: ChainMap):
        if any(i not in self.maps.slices and not m.is_zero() for i, m in f.comps.items()):
            raise ComplexError("map has a component outside the hom window")
        return self.maps.to_vector(f.comps.get)

    def _vector_to_homotopy(self, vec) -> Homotopy:
        return Homotopy(self.x, self.ys, self.homotopies.from_vector(vec))

    def null_homotopy(self, f: ChainMap):
        """A homotopy h with f = delta(h), or None."""
        vec = self.map_to_vector(f)
        if any(self._chains.defect(vec)):
            return None
        y = self._echelon.defect([0] * self.h_total + [vec[j] for j in self._free])
        if any(y[self._delta_rank:]):
            return None
        h = [self.x.pres.field.zero] * self.h_total
        for r, p in enumerate(self._echelon.pivots[:self._delta_rank]):
            h[p] = y[r]
        return self._vector_to_homotopy(h)

    def express(self, f: ChainMap):
        """Coordinates of the class of f in ``basis``, or None if f is not a
        chain map."""
        vec = self.map_to_vector(f)
        if any(self._chains.defect(vec)):
            return None
        return self._echelon.defect([0] * self.h_total + [vec[j] for j in self._free])[self._delta_rank:]


def supports_meet(x: Complex, y: Complex, k: int = 0) -> bool:
    """Whether some degree i carries both a term x^i and a term y^{i+k}.

    When it does not, Hom(x, y[k]) has no chain-map unknowns, so its
    dimension is 0 without building the :class:`HomSpace`.
    """
    return any(i + k in y.terms for i in x.terms)


def hom_space(x: Complex, y: Complex, k: int = 0) -> HomSpace:
    return HomSpace(x, y, k)


def is_null_homotopic(f: ChainMap):
    return HomSpace(f.source, f.target, 0).null_homotopy(f)


class HomClass:
    """A morphism of the homotopy category: a chain-map representative."""

    __slots__ = ("rep",)

    def __init__(self, rep: ChainMap):
        self.rep = rep

    @property
    def source(self):
        return self.rep.source

    @property
    def target(self):
        return self.rep.target

    @staticmethod
    def zero(x, y) -> "HomClass":
        return HomClass(ChainMap.zero(x, y))

    @staticmethod
    def identity(x) -> "HomClass":
        return HomClass(ChainMap.identity(x))

    def is_zero(self) -> bool:
        return self.rep.is_zero() or is_null_homotopic(self.rep) is not None

    def __eq__(self, other):
        if not isinstance(other, HomClass):
            return NotImplemented
        if self.source != other.source or self.target != other.target:
            return False
        # equal representatives are one class.  Comparing them first is the
        # zero test of the difference: ChainMap drops zero components and
        # every block is None or a nonzero reduced tuple
        return self.rep.comps == other.rep.comps or self.sub(other).is_zero()

    def __repr__(self):
        return f"HomClass({self.rep!r})"

    def compose(self, other: "HomClass") -> "HomClass":
        return HomClass(self.rep.compose(other.rep))

    def add(self, other: "HomClass") -> "HomClass":
        return HomClass(self.rep.add(other.rep))

    def sub(self, other: "HomClass") -> "HomClass":
        return HomClass(self.rep.sub(other.rep))

    def scale(self, c) -> "HomClass":
        return HomClass(self.rep.scale(c))

    def shift(self, n) -> "HomClass":
        return HomClass(self.rep.shift(n))

    def inverse(self):
        """Two-sided inverse in K^b, or None.

        One solve in quotient-basis coordinates: g = sum c_b b over the
        ``basis`` of Hom(y, x) with f o g = 1 in Hom(y, y) and g o f = 1 in
        Hom(x, x), each side read by ``express``.  Composition respects
        homotopy, so an inverse exists exactly when this system, of dim
        Hom_K(y, x) unknowns, has a solution.
        """
        x, y, f = self.source, self.target, self.rep
        sp_back, sp_yy, sp_xx = HomSpace(y, x, 0), HomSpace(y, y, 0), HomSpace(x, x, 0)
        cols = [sp_yy.express(f.compose(b)) + sp_xx.express(b.compose(f)) for b in sp_back.basis]
        rhs = sp_yy.express(ChainMap.identity(y)) + sp_xx.express(ChainMap.identity(x))
        coeffs = Matrix.from_columns(x.pres.field, len(rhs), cols).solve(rhs)
        if coeffs is None:
            return None
        g = ChainMap.zero(y, x)
        for c, b in zip(coeffs, sp_back.basis):
            if c:
                g = g.add(b.scale(c))
        return HomClass(g)


# ------------------------------------------------------------------- cones


def cone(f: ChainMap):
    """The cone Z with its canonical maps (Z, inc: Y->Z, proj: Z->X[1])."""
    x, y = f.source, f.target
    pres = x.pres
    xs = x.shift(1)              # its differential carries the shift sign: -d_X
    terms, ap, bp = _stack(xs, y)
    diffs = {i: AddMorphism.assemble(pres, terms[i], terms[i + 1], [
        (ap[i + 1], ap[i], xs.d(i)), (bp[i + 1], ap[i], f.component(i + 1)),
        (bp[i + 1], bp[i], y.d(i))])
        for i in sorted(terms) if i + 1 in terms}
    z = Complex(pres, terms, diffs, check=False)
    inc = ChainMap(y, z, {i: AddMorphism.inclusion(pres, y.term(i), terms[i], bp[i])
                          for i in y.terms}, check=False)
    proj = ChainMap(z, xs, {i: AddMorphism.projection(pres, terms[i], xs.term(i), ap[i])
                            for i in xs.terms}, check=False)
    return z, inc, proj


# --------------------------------------------------------------- triangles


@dataclass
class ChainIso:
    """Homotopy equivalence with explicit exactness witnesses.

    bwd o fwd differs from id by delta(h_src) (None means exact equality),
    and symmetrically for h_tgt.
    """

    fwd: ChainMap
    bwd: ChainMap
    h_src: Homotopy | None = None
    h_tgt: Homotopy | None = None

    def inverse(self) -> "ChainIso":
        return ChainIso(self.bwd, self.fwd, self.h_tgt, self.h_src)

    def verify(self) -> bool:
        if not (self.fwd.verify() and self.bwd.verify()):
            return False
        return (self._side_ok(self.fwd, self.bwd, self.h_src)
                and self._side_ok(self.bwd, self.fwd, self.h_tgt))

    @staticmethod
    def _side_ok(first: ChainMap, then: ChainMap, h: Homotopy | None) -> bool:
        """id - then o first = delta(h); without h, each component of
        then o first is the identity of its term."""
        back = then.compose(first)
        if h is None:
            terms = first.source.terms
            return back.comps.keys() == terms.keys() and all(
                m.target == terms[i] and m.is_identity() for i, m in back.comps.items())
        return ChainMap.identity(first.source).sub(back) == h.boundary()


def conjugate(x: Complex, autos):
    """(x', iso: x -> x'): x carried along the inverse pairs (u_i, u_i^-1)
    of ``autos[i]``, u_i leaving x^i, with d'^i = (u_{i+1} o d^i) o u_i^-1.
    A degree without a pair keeps its term and gets identities; iso.fwd is
    u and iso.bwd u^-1, inverse on the nose."""
    pres = x.pres
    terms = {i: autos[i][0].target if i in autos else t for i, t in x.terms.items()}
    diffs = {}
    for i, d in x.diffs.items():
        if i + 1 in autos:
            d = autos[i + 1][0].compose(d)
        if i in autos:
            d = d.compose(autos[i][1])
        diffs[i] = d
    x2 = Complex(pres, terms, diffs)
    same = {i: AddMorphism.identity(pres, t) for i, t in x.terms.items() if i not in autos}
    return x2, ChainIso(ChainMap(x, x2, {**{i: u for i, (u, _) in autos.items()}, **same}, check=False),
                        ChainMap(x2, x, {**{i: v for i, (_, v) in autos.items()}, **same}, check=False))


@dataclass
class _ConeWitness:
    pass


@dataclass
class _RotateWitness:
    base: "Triangle"


@dataclass
class _ShiftWitness:
    base: "Triangle"
    n: int


@dataclass
class _TransportWitness:
    base: "Triangle"
    iso_x: ChainIso | None      # None is the identity
    iso_y: ChainIso | None
    iso_z: ChainIso | None
    squares: tuple              # homotopy witness of the f, g and h squares, or None


class Triangle:
    """X -> Y -> Z -> X[1] with a distinguishedness certificate."""

    def __init__(self, x, y, z, f, g, h, witness):
        self.X, self.Y, self.Z = x, y, z
        self.f, self.g, self.h = f, g, h
        self.witness = witness

    def __repr__(self):
        return f"Triangle({self.X!r} -> {self.Y!r} -> {self.Z!r})"

    # ------------------------------------------------------------ builders

    @staticmethod
    def from_cone(f: ChainMap) -> "Triangle":
        z, inc, proj = cone(f)
        return Triangle(f.source, f.target, z, f, inc, proj, _ConeWitness())

    @staticmethod
    def from_termwise_split(m: Complex, sel_sub: dict, sel_quot: dict) -> "Triangle":
        """A -> M -> B -> A[1] for the subcomplex A of M on the positions
        ``sel_sub`` and the quotient B on ``sel_quot``: the cone triangle of
        the inclusion incl: A -> M, transported along (phi, psi, H) from
        C = cone(incl), C^k = A^{k+1} + M^k, to B.

        Write d_M on the B-part of M as j d_B + incl t, with j the inclusion
        of B and t = d_M restricted B -> A; d_M^2 = 0 gives d_A t + t d_B = 0.
        phi: C -> B kills A[1] and projects M onto B; psi: B -> C is (e, j)
        with e = -t; H: C^k -> C^{k-1} puts the A-part of M^k into the
        A[1]-slot.  Then phi and psi are chain maps, phi psi = id exactly, and
        id - psi phi = delta(H): both send (a', a + b) to (a' + t b, a).  The
        transported maps are phi o inc_M = the projection onto B and
        proj_{A[1]} o psi = e, the canonical split triangle on the nose.
        """
        pres = m.pres
        sub_terms, quot_terms = {}, {}
        for i in m.terms:
            ssel = sel_sub.get(i, ())
            qsel = sel_quot.get(i, ())
            if sorted(tuple(ssel) + tuple(qsel)) != list(range(len(m.term(i)))):
                raise TriangleError(f"split selections do not partition degree {i}")
            sub_terms[i] = m.term(i).select(ssel)
            quot_terms[i] = m.term(i).select(qsel)
        sub_diffs, quot_diffs, conn = {}, {}, {}
        for i, d in m.diffs.items():
            s0, s1 = sel_sub.get(i, ()), sel_sub.get(i + 1, ())
            q0, q1 = sel_quot.get(i, ()), sel_quot.get(i + 1, ())
            if not d.restrict_blocks(q1, s0).is_zero():
                raise TriangleError(f"differential maps the subcomplex outside itself at {i}")
            sub_diffs[i] = d.restrict_blocks(s1, s0)
            quot_diffs[i] = d.restrict_blocks(q1, q0)
            t = d.restrict_blocks(s1, q0)
            if not t.is_zero():
                conn[i] = t.scale(-1)
        a_cx = Complex(pres, sub_terms, sub_diffs, check=False)
        b_cx = Complex(pres, quot_terms, quot_diffs, check=False)
        base = Triangle.from_cone(ChainMap(a_cx, m, {
            i: AddMorphism.inclusion(pres, a_cx.term(i), m.term(i), sel_sub.get(i, ()))
            for i in a_cx.terms}, check=False))
        c_cx = base.Z
        # C^k lists the len(A^{k+1}) summands of A[1]^k before those of M^k
        na = {k: len(a_cx.term(k + 1)) for k in c_cx.terms}

        def in_c(sel, k):
            return [na[k] + p for p in sel.get(k, ())]

        phi, psi = {}, {}
        for k, bk in b_cx.terms.items():
            phi[k] = AddMorphism.projection(pres, c_cx.term(k), bk, in_c(sel_quot, k))
            pieces = [(in_c(sel_quot, k), range(len(bk)), AddMorphism.identity(pres, bk))]
            if k in conn:
                pieces.append((range(na[k]), range(len(bk)), conn[k]))
            psi[k] = AddMorphism.assemble(pres, bk, c_cx.term(k), pieces)
        hh = {k: AddMorphism.inclusion(pres, ak, c_cx.term(k - 1), range(len(ak))).compose(
                  AddMorphism.projection(pres, c_cx.term(k), ak, in_c(sel_sub, k)))
              for k, ak in a_cx.terms.items()}
        iso_z = ChainIso(ChainMap(c_cx, b_cx, phi, check=False),
                         ChainMap(b_cx, c_cx, psi, check=False), h_src=Homotopy(c_cx, c_cx, hh))
        return Triangle.transport(base, None, None, iso_z)

    def rotate(self) -> "Triangle":
        return Triangle(self.Y, self.Z, self.X.shift(1),
                        self.g, self.h, self.f.shift(1).scale(-1), _RotateWitness(self))

    def shift(self, n: int) -> "Triangle":
        sign = 1 if n % 2 == 0 else -1
        return Triangle(self.X.shift(n), self.Y.shift(n), self.Z.shift(n),
                        self.f.shift(n), self.g.shift(n), self.h.shift(n).scale(sign),
                        _ShiftWitness(self, n))

    @staticmethod
    def transport(base: "Triangle", iso_x: ChainIso | None,
                  iso_y: ChainIso | None, iso_z: ChainIso | None) -> "Triangle":
        """The triangle X' -> Y' -> Z' -> X'[1] isomorphic to ``base`` along
        isos X -> X', Y -> Y' and Z -> Z'.  A None iso is the identity: it is
        not built, verified or composed with."""
        isos = (iso_x, iso_y, iso_z)
        tails = _tails(base, *isos)
        f2, g2, h2 = (t if iso is None else t.compose(iso.bwd) for t, iso in zip(tails, isos))
        # witnesses: f2 o fwd_x - fwd_y o f = -fwd_y f delta(h_src_x) etc.
        squares = tuple(_square_witness(t, iso) for t, iso in zip(tails, isos))
        x, y, z = (c if iso is None else iso.fwd.target
                   for c, iso in zip((base.X, base.Y, base.Z), isos))
        return Triangle(x, y, z, f2, g2, h2, _TransportWitness(base, *isos, squares))

    # ---------------------------------------------------------- verification

    def verify(self) -> list:
        issues = []
        for name, m in (("f", self.f), ("g", self.g), ("h", self.h)):
            if not m.verify():
                issues.append(f"map {name} is not a chain map")
        w = self.witness
        if isinstance(w, _ConeWitness):
            z, inc, proj = cone(self.f)
            if self.Z != z or self.g != inc or self.h != proj:
                issues.append("cone witness: triangle is not the canonical cone triangle")
        elif isinstance(w, _RotateWitness):
            issues.extend(w.base.verify())
            expect = w.base.rotate()
            if (self.X, self.Y, self.Z) != (expect.X, expect.Y, expect.Z) or \
                    (self.f, self.g, self.h) != (expect.f, expect.g, expect.h):
                issues.append("rotation witness: maps do not match the rotated base")
        elif isinstance(w, _ShiftWitness):
            issues.extend(w.base.verify())
            expect = w.base.shift(w.n)
            if (self.f, self.g, self.h) != (expect.f, expect.g, expect.h):
                issues.append("shift witness: maps do not match the shifted base")
        elif isinstance(w, _TransportWitness):
            issues.extend(w.base.verify())
            isos = (w.iso_x, w.iso_y, w.iso_z)
            for name, iso in zip("XYZ", isos):
                if iso is not None and not iso.verify():
                    issues.append(f"transport witness: iso at {name} fails")
            # square k: m_k o fwd - tail_k = delta(squares[k]), fwd at the source of m_k
            for idx, (m, iso, tail, hom) in enumerate(zip(
                    (self.f, self.g, self.h), isos, _tails(w.base, *isos), w.squares)):
                diff = (m if iso is None else m.compose(iso.fwd)).sub(tail)
                if hom is None:
                    if not diff.is_zero():
                        issues.append(f"transport witness: square {idx} not exact")
                elif diff != hom.boundary():
                    issues.append(f"transport witness: square {idx} homotopy wrong")
        else:
            issues.append("unknown witness")
        return issues


def _tails(base: Triangle, iso_x, iso_y, iso_z):
    """fwd_y o f, fwd_z o g and fwd_x[1] o h of ``base``; a None iso is the
    identity and is composed with nothing."""
    return (base.f if iso_y is None else iso_y.fwd.compose(base.f),
            base.g if iso_z is None else iso_z.fwd.compose(base.g),
            base.h if iso_x is None else iso_x.fwd.shift(1).compose(base.h))


def _square_witness(tail: ChainMap, iso: ChainIso | None):
    """Homotopy witness for (tail o bwd) o fwd - tail = -tail o delta(h_src):
    it is delta(-tail o h_src), since tail is a chain map; None when the
    square commutes on the nose."""
    if iso is None or iso.h_src is None:
        return None
    return iso.h_src.conjugate(ChainMap.identity(iso.fwd.source), tail.scale(-1))


# ------------------------------------------------------------ minimal model


def minimal_model(x: Complex):
    """Strip invertible differential blocks; returns (X_min, iso X ~ X_min).

    The iso satisfies fwd o bwd = id exactly on the minimal side and
    id - bwd o fwd = delta(h) with the accumulated homotopy on the source.

    One sweep up the degrees: at degree i the first unit block of d^i in
    row-major order is cancelled, until d^i has none.  These are the blocks,
    in the same order, that a rescan from the lowest degree picks, since a
    cancellation at i replaces d^i by its Schur complement and only deletes
    rows of d^(i-1) and columns of d^(i+1): it makes no unit block in another
    degree, so the lowest degree with one never goes down.  A step's
    projection and inclusion are identities outside degrees i and i + 1, and
    its homotopy lives in degree i + 1, so ``fwd``, ``bwd`` and the homotopy
    are updated in those degrees only.
    """
    pres = x.pres
    fld = pres.field
    terms, diffs = dict(x.terms), dict(x.diffs)
    # fwd: x -> X_min and bwd: X_min -> x, one component per degree of x,
    # and the components x^k -> x^(k-1) of the homotopy
    fwd = {k: AddMorphism.identity(pres, t) for k, t in x.terms.items()}
    bwd = dict(fwd)
    hom = {}

    for i in sorted(x.diffs):
        while (pivot := _unit_block(pres, diffs[i])) is not None:
            r, c, phi = pivot
            d, src, tgt = diffs[i], terms[i], terms[i + 1]
            phi_inv = fld.inv(phi)
            cols_keep = [j for j in range(len(src)) if j != c]
            rows_keep = [j for j in range(len(tgt)) if j != r]
            beta = d.restrict_blocks([r], cols_keep)        # A' -> B
            gamma = d.restrict_blocks(rows_keep, [c])       # A -> B'
            corr = gamma.compose(beta).scale(fld.neg(phi_inv))
            diffs[i] = d.restrict_blocks(rows_keep, cols_keep).add(corr)
            terms[i] = src2 = src.select(cols_keep)
            terms[i + 1] = tgt2 = tgt.select(rows_keep)
            if i - 1 in diffs:
                diffs[i - 1] = diffs[i - 1].restrict_blocks(cols_keep, range(len(terms[i - 1])))
            if i + 1 in diffs:
                diffs[i + 1] = diffs[i + 1].restrict_blocks(range(len(terms[i + 2])), rows_keep)

            # projection pi and inclusion io in degrees i and i + 1; both are
            # identities in every other degree
            pi = {i: AddMorphism.projection(pres, src, src2, cols_keep),
                  i + 1: AddMorphism.assemble(pres, tgt, tgt2, [
                      (range(len(tgt2)), rows_keep, AddMorphism.identity(pres, tgt2)),
                      (range(len(tgt2)), [r], gamma.scale(fld.neg(phi_inv)))])}  # -gamma phi^-1 : B -> B'
            io = {i: AddMorphism.assemble(pres, src2, src, [
                      (cols_keep, range(len(src2)), AddMorphism.identity(pres, src2)),
                      ([c], range(len(src2)), beta.scale(fld.neg(phi_inv)))]),    # -phi^-1 beta : A' -> A
                  i + 1: AddMorphism.inclusion(pres, tgt2, tgt, rows_keep)}

            # the step's homotopy phi^-1 : B -> A in degree i + 1, conjugated to x
            h = AddMorphism.single(pres, tgt, src, c, r, pres.coords(identity_label(src[c]), phi_inv))
            h = bwd[i].compose(h).compose(fwd[i + 1])
            hom[i + 1] = hom[i + 1].add(h) if i + 1 in hom else h
            for k in (i, i + 1):
                fwd[k] = pi[k].compose(fwd[k])
                bwd[k] = bwd[k].compose(io[k])

    m = Complex(pres, terms, diffs, check=False)    # drops the zero terms and differentials
    h_src = Homotopy(x, x, hom)     # drops the zero components, as ChainMap does
    return m, ChainIso(ChainMap(x, m, fwd, check=False), ChainMap(m, x, bwd, check=False),
                       h_src=h_src if h_src.comps else None, h_tgt=None)


def _unit_block(pres, d: AddMorphism):
    """(row, column, scalar) of the first unit block of ``d`` in row-major
    order, a block between copies of one indecomposable with a nonzero
    identity coordinate; None when ``d`` has none."""
    for r, row in enumerate(d.blocks):
        for c, blk in enumerate(row):
            if blk is not None and d.source[c] == d.target[r] and (phi := blk[unit_index(pres, d.source[c])]):
                return r, c, phi
    return None


# -------------------------------------------------------- square completion


def complete_square(f: ChainMap, i2: ChainMap, p: ChainMap, q: ChainMap, h: Homotopy | None = None):
    """Cone functoriality: r = [[p[1], 0], [h, q]]: cone(f) -> cone(i2).

    Requires q o f homotopic to i2 o p; the homotopy is solved if absent.
    Returns (r, homotopy used).  A square that commutes on the nose takes
    h = 0 without building a Hom space.  That is the solve's answer too: the
    zero difference is the zero vector, it reduces to zero, and the homotopy
    read off a zero reduction is zero.
    """
    if h is None:
        diff = q.compose(f).sub(i2.compose(p))
        h = Homotopy.zero(diff.source, diff.target) if diff.is_zero() else is_null_homotopic(diff)
        if h is None:
            raise FillError("square does not commute up to homotopy")
    zf, _, _ = cone(f)
    zi, _, _ = cone(i2)
    pres = f.source.pres
    p1 = p.shift(1)
    comps = {}
    for k in zf.terms:
        xs, ys = spans(f.source.term(k + 1), f.target.term(k))      # cone(f)^k
        xt, yt = spans(i2.source.term(k + 1), i2.target.term(k))    # cone(i2)^k
        comps[k] = AddMorphism.assemble(pres, zf.term(k), zi.term(k), [
            (xt, xs, p1.component(k)),
            (yt, xs, h.component(k + 1)),       # X^{k+1} -> Y'^{k}
            (yt, ys, q.component(k))])
    return ChainMap(zf, zi, comps), h
