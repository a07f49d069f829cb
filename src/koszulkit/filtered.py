"""Finite decreasing filtrations over the additive closure.

A filtered object is a sequence of objects with split inclusions carrying
explicit retraction witnesses, constant below some index and zero above
another.  The module realizes the reindexing functor, the constant
embedding, the canonical morphism into the reindexed object, the split
decomposition into the parts above and below the cut, the Hom-space
comparisons along the canonical morphism, and the termwise triangle for
complexes of filtered objects.  Everything is verified exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import KoszulkitError, Matrix
from .orlov import (
    AddMorphism,
    AddObject,
    Coords,
    ZERO_OBJECT,
    spans,
    split_idempotent,
)


class FilteredError(KoszulkitError):
    pass


class FilteredObject:
    """Sequence X_i with split inclusions e_i: X_i -> X_{i-1}.

    ``terms`` covers lo..hi; X_i = X_lo with identity inclusions for
    i <= lo and X_i = 0 for i > hi.  ``incl``/``retr`` hold e_i and a
    retraction r_i with r_i e_i = id for lo < i <= hi.
    """

    def __init__(self, pres, lo, hi, terms, incl, retr, check=True):
        self.pres = pres
        self.lo = lo
        self.hi = hi
        self.terms = dict(terms)
        self.incl = dict(incl)
        self.retr = dict(retr)
        if check:
            self.validate()

    def validate(self):
        if self.lo > self.hi + 1:
            raise FilteredError("empty window")
        for i in range(self.lo, self.hi + 1):
            if i not in self.terms:
                raise FilteredError(f"missing term at {i}")
        for i in range(self.lo + 1, self.hi + 1):
            e = self.incl.get(i)
            r = self.retr.get(i)
            if e is None or r is None:
                raise FilteredError(f"missing inclusion or retraction at {i}")
            if e.source != self.terms[i] or e.target != self.terms[i - 1]:
                raise FilteredError(f"inclusion at {i} has wrong endpoints")
            if r.compose(e) != AddMorphism.identity(self.pres, self.terms[i]):
                raise FilteredError(f"retraction fails at {i}")

    @staticmethod
    def zero(pres) -> "FilteredObject":
        return FilteredObject(pres, 0, 0, {0: ZERO_OBJECT}, {}, {}, check=False)

    def term(self, i) -> AddObject:
        if i > self.hi:
            return ZERO_OBJECT
        if i < self.lo:
            return self.terms[self.lo]
        return self.terms[i]

    def incl_map(self, i) -> AddMorphism:
        """e_i: X_i -> X_{i-1}; identity below lo, zero above hi."""
        if i <= self.lo:
            return AddMorphism.identity(self.pres, self.term(i))
        if i > self.hi:
            return AddMorphism.zero(self.pres, ZERO_OBJECT, self.term(i - 1))
        return self.incl[i]

    def retr_map(self, i) -> AddMorphism:
        if i <= self.lo:
            return AddMorphism.identity(self.pres, self.term(i))
        if i > self.hi:
            return AddMorphism.zero(self.pres, self.term(i - 1), ZERO_OBJECT)
        return self.retr[i]

    @property
    def is_zero(self):
        return all(self.term(i).is_zero for i in range(self.lo, self.hi + 1))

    def __eq__(self, other):
        if not isinstance(other, FilteredObject):
            return NotImplemented
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        for i in range(lo, hi + 1):
            if self.term(i) != other.term(i):
                return False
            if i > lo and self.incl_map(i) != other.incl_map(i):
                return False
        return True

    def __repr__(self):
        parts = [f"{i}:{'+'.join(self.term(i)) or '0'}" for i in range(self.lo, self.hi + 1)]
        return f"FilteredObject({', '.join(parts)})"

    def is_ge(self, n) -> bool:
        """Constant with identity inclusions at and below n."""
        for i in range(min(n, self.lo), n + 1):
            if self.term(i) != self.term(n):
                return False
        for i in range(self.lo + 1, n + 1):
            if self.incl_map(i) != AddMorphism.identity(self.pres, self.term(i)):
                return False
        return True

    def is_le(self, n) -> bool:
        return all(self.term(i).is_zero for i in range(n + 1, self.hi + 1))


class FilteredMorphism:
    """Componentwise morphism commuting with the inclusions."""

    def __init__(self, source: FilteredObject, target: FilteredObject, comps,
                 check=True):
        self.source = source
        self.target = target
        self.lo = min(source.lo, target.lo)
        self.hi = max(source.hi, target.hi)
        self.comps = {}
        for i in range(self.lo, self.hi + 1):
            m = comps.get(i)
            if m is None:
                m = AddMorphism.zero(source.pres, source.term(i), target.term(i))
            self.comps[i] = m
        if check:
            self.validate()

    def validate(self):
        for i in range(self.lo, self.hi + 1):
            m = self.comps[i]
            if m.source != self.source.term(i) or m.target != self.target.term(i):
                raise FilteredError(f"component at {i} has wrong endpoints")
        for i in range(self.lo + 1, self.hi + 2):
            lhs = self.component(i - 1).compose(self.source.incl_map(i))
            rhs = self.target.incl_map(i).compose(self.component(i))
            if lhs != rhs:
                raise FilteredError(f"morphism does not respect inclusions at {i}")

    def component(self, i) -> AddMorphism:
        if i > self.hi:
            return AddMorphism.zero(self.source.pres, self.source.term(i),
                                    self.target.term(i))
        if i < self.lo:
            return self.comps[self.lo]
        return self.comps[i]

    @staticmethod
    def zero(source, target) -> "FilteredMorphism":
        return FilteredMorphism(source, target, {}, check=False)

    @staticmethod
    def identity(x: FilteredObject) -> "FilteredMorphism":
        return FilteredMorphism(x, x, {
            i: AddMorphism.identity(x.pres, x.term(i))
            for i in range(x.lo, x.hi + 1)}, check=False)

    def __eq__(self, other):
        if not isinstance(other, FilteredMorphism):
            return NotImplemented
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        return all(self.component(i) == other.component(i) for i in range(lo, hi + 1))

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.comps.values())

    def compose(self, other: "FilteredMorphism") -> "FilteredMorphism":
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        return FilteredMorphism(other.source, self.target, {
            i: self.component(i).compose(other.component(i)) for i in range(lo, hi + 1)},
            check=False)

    def add(self, other: "FilteredMorphism") -> "FilteredMorphism":
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        return FilteredMorphism(self.source, self.target, {
            i: self.component(i).add(other.component(i)) for i in range(lo, hi + 1)},
            check=False)

    def scale(self, c) -> "FilteredMorphism":
        return FilteredMorphism(self.source, self.target,
                                {i: m.scale(c) for i, m in self.comps.items()}, check=False)


# ----------------------------------------------------------- basic functors


def s_shift(x: FilteredObject, n: int = 1) -> FilteredObject:
    """Reindex: s(X)_i = X_{i-1} (n-fold)."""
    terms = {i + n: x.term(i) for i in range(x.lo, x.hi + 1)}
    incl = {i + n: x.incl[i] for i in x.incl}
    retr = {i + n: x.retr[i] for i in x.retr}
    return FilteredObject(x.pres, x.lo + n, x.hi + n, terms, incl, retr, check=False)


def s_shift_morphism(f: FilteredMorphism, n: int = 1) -> FilteredMorphism:
    return FilteredMorphism(s_shift(f.source, n), s_shift(f.target, n),
                            {i + n: m for i, m in f.comps.items()}, check=False)


def alpha(x: FilteredObject) -> FilteredMorphism:
    """The canonical morphism X -> s(X) with components e_i."""
    sx = s_shift(x)
    comps = {}
    for i in range(min(x.lo, sx.lo), max(x.hi, sx.hi) + 1):
        comps[i] = x.incl_map(i)
    return FilteredMorphism(x, sx, comps)


# ------------------------------------------------------------- hom spaces


class FilteredHomSpace:
    """Hom(x, y) of filtered objects: the families f_i: X_i -> Y_i with
    f_{i-1} e_i = e_i f_i, the kernel of one elimination, in the kernel
    coordinates of its echelon form (:class:`~koszulkit.linalg.Echelon`)."""

    def __init__(self, x: FilteredObject, y: FilteredObject):
        self.x = x
        self.y = y
        pres = x.pres
        lo, hi = min(x.lo, y.lo), max(x.hi, y.hi)
        self.maps = Coords(pres, {i: (x.term(i), y.term(i)) for i in range(lo, hi + 1)})
        # f_{i-1} e_i = e_i f_i in Hom(X_i, Y_{i-1})
        rows = Coords(pres, {i: (x.term(i), y.term(i - 1)) for i in range(lo + 1, hi + 1)})
        self._echelon = self.maps.matrix(rows, [
            (1, 1, "right", lambda i: x.incl_map(i + 1)),
            (0, -1, "left", y.incl_map)]).rref()
        self._free = self._echelon.free_columns()
        self.dimension = len(self._free)
        self.basis = [FilteredMorphism(x, y, self.maps.from_vector(self._echelon.kernel_vector(j)),
                                       check=False) for j in range(self.dimension)]

    def coordinates(self, f: FilteredMorphism):
        """Coordinates of f in ``basis``, or None if f is not in the space:
        its entries at the free columns, since the basis is the identity
        there."""
        vec = self.maps.to_vector(f.component)
        if any(self._echelon.defect(vec)):
            return None
        return [vec[j] for j in self._free]


def filt_hom_space(x: FilteredObject, y: FilteredObject) -> FilteredHomSpace:
    return FilteredHomSpace(x, y)


def filt_hom_report(x: FilteredObject, y: FilteredObject) -> dict:
    """For x constant below index 1 and y vanishing above 0: Hom(x, y) = 0
    and the canonical morphism induces bijections
    Hom(y, x) = Hom(y, s^-1 x) = Hom(s y, x)."""
    if not x.is_ge(1):
        raise FilteredError("first object is not constant at and below 1")
    if not y.is_le(0):
        raise FilteredError("second object does not vanish above 0")
    pres = x.pres
    fld = pres.field
    forward = filt_hom_space(x, y).dimension

    sm1x = s_shift(x, -1)
    sp_a = filt_hom_space(y, sm1x)
    sp_b = filt_hom_space(y, x)

    def induced_rank(space, apply):
        """Rank of the map space -> sp_b that ``apply`` induces on bases."""
        cols = []
        for b in space.basis:
            coords = sp_b.coordinates(apply(b))
            if coords is None:
                raise FilteredError("composition escaped the hom space")
            cols.append(coords)
        return Matrix.from_columns(fld, sp_b.dimension, cols).rank()

    al = alpha(sm1x)          # s^-1 x -> x
    rank_a = induced_rank(sp_a, al.compose)
    sp_c = filt_hom_space(s_shift(y), x)
    ay = alpha(y)             # y -> s y
    rank_c = induced_rank(sp_c, lambda b: b.compose(ay))

    ok = (forward == 0
          and sp_a.dimension == sp_b.dimension == sp_c.dimension
          and rank_a == sp_a.dimension and rank_c == sp_c.dimension)
    return {
        "hom_forward": forward,
        "dims": {"y_to_sm1x": sp_a.dimension, "y_to_x": sp_b.dimension,
                 "sy_to_x": sp_c.dimension},
        "alpha_post_rank": rank_a,
        "alpha_pre_rank": rank_c,
        "ok": ok,
    }


# -------------------------------------------------------- split decomposition


@dataclass
class FilteredSplit:
    above: FilteredObject      # constant at and below 1
    below: FilteredObject      # zero above 0
    phi: FilteredMorphism      # above + below -> x
    psi: FilteredMorphism


def filtered_direct_sum(a: FilteredObject, b: FilteredObject) -> FilteredObject:
    pres = a.pres
    lo = min(a.lo, b.lo)
    hi = max(a.hi, b.hi)
    terms = {i: a.term(i).concat(b.term(i)) for i in range(lo, hi + 1)}
    incl, retr = {}, {}
    for i in range(lo + 1, hi + 1):
        ea, eb = a.incl_map(i), b.incl_map(i)
        ra, rb = a.retr_map(i), b.retr_map(i)
        incl[i] = _block_diag(pres, ea, eb)
        retr[i] = _block_diag(pres, ra, rb)
    return FilteredObject(pres, lo, hi, terms, incl, retr, check=False)


def _block_diag(pres, m1: AddMorphism, m2: AddMorphism) -> AddMorphism:
    rows = spans(m1.target, m2.target)
    cols = spans(m1.source, m2.source)
    return AddMorphism.assemble(pres, m1.source.concat(m2.source), m1.target.concat(m2.target),
                                [(rows[0], cols[0], m1), (rows[1], cols[1], m2)])


def split_decompose(x: FilteredObject) -> FilteredSplit:
    """Downward induction: above index 0 everything goes to the constant
    part; below, complements of the incoming inclusion are split off by
    splitting the idempotent e r and accumulated into the vanishing part."""
    pres = x.pres
    n_low = min(x.lo, 0)

    a_terms, b_terms = {}, {}
    phi_cols = {}              # i -> (phi_i : A_i + B_i -> X_i, psi_i)
    top = max(x.hi, 1)
    for i in range(top, 0, -1):
        a_terms[i] = x.term(i)
        b_terms[i] = ZERO_OBJECT
        phi_cols[i] = (AddMorphism.identity(pres, x.term(i)),
                       AddMorphism.identity(pres, x.term(i)))
    for i in range(0, n_low - 1, -1):
        phi_next, psi_next = phi_cols[i + 1]
        e = x.incl_map(i + 1)
        r = x.retr_map(i + 1)
        ebar = e.compose(r)
        ident = AddMorphism.identity(pres, x.term(i))
        y_i, p_i, inc_i = split_idempotent(ident.sub(ebar))
        a_terms[i] = a_terms[i + 1]
        b_terms[i] = b_terms[i + 1].concat(y_i)
        # phi_i columns: e phi_{i+1} on A_{i+1} + B_{i+1}, then inc on Y_i;
        # psi_i rows: psi_{i+1} r on top, p_i below
        upper = e.compose(phi_next)
        lower = psi_next.compose(r)
        every = range(len(x.term(i)))
        old, new = spans(upper.source, y_i)
        phi_i = AddMorphism.assemble(pres, upper.source.concat(y_i), x.term(i),
                                     [(every, old, upper), (every, new, inc_i)])
        psi_i = AddMorphism.assemble(pres, x.term(i), lower.target.concat(y_i),
                                     [(old, every, lower), (new, every, p_i)])
        if psi_i.compose(phi_i) != AddMorphism.identity(pres, phi_i.source):
            raise FilteredError("split decomposition lost exactness (psi phi)")
        if phi_i.compose(psi_i) != ident:
            raise FilteredError("split decomposition lost exactness (phi psi)")
        phi_cols[i] = (phi_i, psi_i)

    a_incl, a_retr = {}, {}
    for i in range(2, top + 1):
        a_incl[i] = x.incl_map(i)
        a_retr[i] = x.retr_map(i)
    above = FilteredObject(pres, 1, top, {i: a_terms[i] for i in range(1, top + 1)},
                           a_incl, a_retr)

    b_incl, b_retr = {}, {}
    for i in range(n_low + 1, 1):
        small, big = b_terms[i], b_terms[i - 1]
        b_incl[i] = AddMorphism.inclusion(pres, small, big, range(len(small)))
        b_retr[i] = AddMorphism.projection(pres, big, small, range(len(small)))
    below = FilteredObject(pres, n_low, 0, {i: b_terms[i] for i in range(n_low, 1)},
                           b_incl, b_retr)

    total = filtered_direct_sum(above, below)
    phi_comps = {i: phi_cols[i][0] for i in range(n_low, top + 1)}
    psi_comps = {i: phi_cols[i][1] for i in range(n_low, top + 1)}
    phi = FilteredMorphism(total, x, phi_comps)
    psi = FilteredMorphism(x, total, psi_comps)
    # eqn shape: the inclusions become diagonal through the identification
    for i in range(n_low + 1, top + 1):
        lhs = psi_comps[i - 1].compose(x.incl_map(i)).compose(phi_comps[i])
        if lhs != total.incl_map(i):
            raise FilteredError(f"decomposed inclusion is not diagonal at {i}")
    return FilteredSplit(above, below, phi, psi)


# --------------------------------------------------------- filtered complexes


class FilteredComplex:
    """Bounded complex of filtered objects with d^2 = 0."""

    def __init__(self, pres, terms, diffs, check=True):
        self.pres = pres
        self.terms = {k: t for k, t in terms.items() if not t.is_zero}
        self.diffs = {k: d for k, d in diffs.items()
                      if k in self.terms and k + 1 in self.terms and not d.is_zero()}
        if check:
            for k, d in self.diffs.items():
                if d.source != self.terms[k] or d.target != self.terms[k + 1]:
                    raise FilteredError(f"differential at {k} has wrong endpoints")
                d.validate()
            for k in self.diffs:
                if k + 1 in self.diffs:
                    if not self.diffs[k + 1].compose(self.diffs[k]).is_zero():
                        raise FilteredError(f"d^2 != 0 at {k}")

    def term(self, k) -> FilteredObject:
        return self.terms.get(k, FilteredObject.zero(self.pres))

    def d(self, k) -> FilteredMorphism:
        if k in self.diffs:
            return self.diffs[k]
        return FilteredMorphism.zero(self.term(k), self.term(k + 1))


def _summand_maps(s: FilteredSplit) -> list:
    """iota_A, pi_A, iota_B, pi_B: the inclusions of A and B into the sum A + B
    that ``s.phi`` starts from, each followed by the projection back."""
    tot, maps = s.phi.source, []
    for part, pick in ((s.above, 0), (s.below, 1)):
        pos = {i: spans(s.above.term(i), s.below.term(i))[pick] for i in range(tot.lo, tot.hi + 1)}
        maps.append(FilteredMorphism(part, tot, {i: AddMorphism.inclusion(
            tot.pres, part.term(i), tot.term(i), q) for i, q in pos.items()}, check=False))
        maps.append(FilteredMorphism(tot, part, {i: AddMorphism.projection(
            tot.pres, tot.term(i), part.term(i), q) for i, q in pos.items()}, check=False))
    return maps


@dataclass
class FilteredTriangle:
    """The termwise-split triangle above -> total -> below -> above[1], with
    the split (phi_k, psi_k) of each total^k as above^k + below^k."""
    above: FilteredComplex
    total: FilteredComplex
    below: FilteredComplex
    incl: dict            # k -> FilteredMorphism above^k -> total^k (via phi)
    proj: dict
    delta: dict           # k -> FilteredMorphism below^k -> above^{k+1}
    splits: dict          # k -> FilteredSplit of total^k

    def verify(self) -> list:
        """phi_k and psi_k are inverse, psi_k incl_k is iota_A and proj_k phi_k
        is pi_B (the split is termwise); incl and proj commute with the
        differentials; and delta_k = -pi_A psi_{k+1} d_k phi_k iota_B."""
        issues = []
        maps = {k: _summand_maps(s) for k, s in self.splits.items()}
        for k, s in self.splits.items():
            iota_a, _, iota_b, pi_b = maps[k]
            if s.psi.compose(s.phi) != FilteredMorphism.identity(s.phi.source) or \
                    s.phi.compose(s.psi) != FilteredMorphism.identity(s.phi.target):
                issues.append(f"split at k={k} is not an isomorphism")
            if s.psi.compose(self.incl[k]) != iota_a or self.proj[k].compose(s.phi) != pi_b:
                issues.append(f"incl or proj at k={k} is not the split's")
            if k + 1 not in self.splits:
                continue
            d = self.total.d(k)
            if self.incl[k + 1].compose(self.above.d(k)) != d.compose(self.incl[k]):
                issues.append(f"incl does not commute with the differentials at k={k}")
            if self.below.d(k).compose(self.proj[k]) != self.proj[k + 1].compose(d):
                issues.append(f"proj does not commute with the differentials at k={k}")
            want = maps[k + 1][1].compose(self.splits[k + 1].psi).compose(d).compose(
                s.phi).compose(iota_b).scale(-1)
            if want != self.delta.get(k, FilteredMorphism.zero(want.source, want.target)):
                issues.append(f"connecting map at k={k} is not -pi_A psi d phi iota_B")
        return issues


def filt_triangle(fx: FilteredComplex) -> FilteredTriangle:
    """Termwise split decomposition of a filtered complex.

    The conjugated differential is upper triangular (the part constant
    below 1 admits no morphisms to the part vanishing above 0), giving
    complexes of both kinds and the termwise-split triangle data.
    """
    pres = fx.pres
    splits = {k: split_decompose(t) for k, t in fx.terms.items()}
    a_diffs, b_diffs = {}, {}
    delta = {}
    for k, dmat in fx.diffs.items():
        conj = splits[k + 1].psi.compose(dmat).compose(splits[k].phi)
        a_comp, b_comp, t_comp = {}, {}, {}
        for i in range(conj.lo, conj.hi + 1):
            comp = conj.component(i)
            rows_a, rows_b = spans(splits[k + 1].above.term(i), splits[k + 1].below.term(i))
            cols_a, cols_b = spans(splits[k].above.term(i), splits[k].below.term(i))
            if not comp.restrict_blocks(rows_b, cols_a).is_zero():
                raise FilteredError(f"forbidden lower-left block at k={k}, i={i}")
            a_comp[i] = comp.restrict_blocks(rows_a, cols_a)
            b_comp[i] = comp.restrict_blocks(rows_b, cols_b)
            t_comp[i] = comp.restrict_blocks(rows_a, cols_b)
        a_diffs[k] = FilteredMorphism(splits[k].above, splits[k + 1].above, a_comp)
        b_diffs[k] = FilteredMorphism(splits[k].below, splits[k + 1].below, b_comp)
        tmor = FilteredMorphism(splits[k].below, splits[k + 1].above, t_comp, check=False)
        if not tmor.is_zero():
            delta[k] = tmor.scale(-1)
    above = FilteredComplex(pres, {k: s.above for k, s in splits.items()}, a_diffs)
    below = FilteredComplex(pres, {k: s.below for k, s in splits.items()}, b_diffs)
    maps = {k: _summand_maps(s) for k, s in splits.items()}
    incl = {k: s.phi.compose(maps[k][0]) for k, s in splits.items()}
    proj = {k: maps[k][3].compose(s.psi) for k, s in splits.items()}
    return FilteredTriangle(above, fx, below, incl, proj, delta, splits)
