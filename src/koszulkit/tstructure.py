"""The diagonal t-structure on the bounded homotopy category.

The two aisles are cut out by support: the lower aisle consists of objects
whose minimal representative is supported on {(i, j) : i <= -j}, the upper
aisle on {(i, j) : i >= -j}.  Truncation is constructive: in a minimal
complex no differential block crosses a cut i + j <= n from below (a block
(i, s) -> (i + 1, t) that does has deg t >= deg s, where Hom(s, t) = 0
unless s = t, so it is a unit block, which minimality excludes), so for
every n the points i + j <= n span a subcomplex tau_{<= n} M of the minimal
model M.  These filter M (``filtration`` by the level i + deg s): the cut
n = 0 yields the truncation triangle as a termwise-split triangle, and the
strip of M on i + j = n, shifted by n, is the t-cohomology object H^n.

The heart is a split finite-length abelian category; its simple objects
are the indecomposables placed in homological degree minus their degree.
The weight filtration of a heart object is the same ``filtration`` of its
antidiagonal normal form, by the weight -i: d raises i, so it lowers the
weight, and the weights <= k span a subcomplex W_{<= k}.  Its strip k is
the term in degree -k alone, so ``weight_filtration`` reads the pieces off
the terms; the ``weights`` command certifies the steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

from .complexes import Complex, Triangle, minimal_model
from .linalg import KoszulkitError
from .orlov import AddObject


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


def diagonal(pres):
    """The level i + deg s of a summand s in degree i, at which the t-structure cuts."""
    deg = pres.degree
    return lambda i, s: i + deg[s]


def weight(i, s) -> int:
    """The weight -i of a summand s in degree i of a heart normal form."""
    return -i


def _split_at(m: Complex, level, n: int):
    """The positions of each term of m at levels <= n, and the rest."""
    return ({i: tuple(p for p, s in enumerate(t) if level(i, s) <= n) for i, t in m.terms.items()},
            {i: tuple(p for p, s in enumerate(t) if level(i, s) > n) for i, t in m.terms.items()})


def truncate(x: Complex) -> Truncation:
    """Split off the lower-aisle part of the minimal model M of x, which the
    result keeps; lower and upper are selections of M, so minimal too."""
    m, iso = minimal_model(x)
    base = Triangle.from_termwise_split(m, *_split_at(m, diagonal(m.pres), 0))
    tri = Triangle.transport(base, None, iso.inverse(), None)
    return Truncation(base.X, base.Z, tri, m)


def filtration(m: Complex, level):
    """({n: strip_n}, steps): m filtered by ``level(i, s)``, the level of the
    summand s in degree i, cut from the top.  The step at n is the
    termwise-split triangle F_{<= n-1} -> F_{<= n} -> strip_n, where F_{<= n}
    is m on the levels <= n and strip_n is m on level n; it raises
    ``TriangleError`` when a block of d leaves F_{<= n-1}."""
    strips, steps = {}, []
    for n in sorted({level(i, s) for i, t in m.terms.items() for s in t}, reverse=True):
        step = Triangle.from_termwise_split(m, *_split_at(m, level, n - 1))
        strips[n] = step.Z
        steps.append(step)
        m = step.X
    return strips, steps


# ------------------------------------------------------------ heart objects


@dataclass
class HeartObject:
    """An object of the heart in antidiagonal minimal normal form."""

    normal_form: Complex

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
    """({n: H^n(x)} for every nonzero H^n, steps): the filtration of the
    minimal model M of x by i + deg s, whose strip_n shifted by n is H^n."""
    m, _ = minimal_model(x)
    strips, steps = filtration(m, diagonal(m.pres))
    return {n: HeartObject(z.shift(n)) for n, z in strips.items()}, steps


def weight_filtration(m: HeartObject) -> dict:
    """Graded pieces k -> semisimple HeartObject, highest weight first: the
    strips of the normal form's filtration by weight, read off its terms.
    The weight is -i, so strip k is the term in degree -k, alone in that
    degree; no step triangle is built."""
    nf = m.normal_form
    return {-i: HeartObject(Complex.single(nf.pres, t, i)) for i, t in sorted(nf.terms.items())}


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
