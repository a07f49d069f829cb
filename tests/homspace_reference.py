"""The Hom space as the engine built it before it worked in the chain
kernel's coordinates, the reference for ``complexes.HomSpace``.

This ``HomSpace`` eliminates the chain condition, keeps a dense basis K of
its kernel, and then eliminates [delta | K] over all ``total`` map
coordinates.  ``complexes.HomSpace`` eliminates [delta_F | I] instead, with
``nullity`` rows; [delta | K] = K [delta_F | I] and K is injective, so both
give the same pivots.  Their reductions modulo null-homotopies differ by an
invertible map, so every query answers alike.  The class is kept verbatim,
but for the queries the engine no longer has, for :func:`dense`, since
``Coords.matrix`` now builds its rows in the elimination's row form, and
for :func:`col` and the kernel read off ``rref``, since ``Matrix`` no longer
has ``col`` or ``kernel_basis``, and for :meth:`HomSpace._mod_homotopy` and
:meth:`HomSpace.null_homotopy`, which read their coordinates off
``Matrix.solve`` of [delta | K], since an ``Echelon`` no longer records the
row operations that ``Echelon.reduce`` applied, and for the kernel basis
and [delta | K], which come from :mod:`dense_helpers`, since ``Echelon`` no
longer has ``kernel_basis`` nor ``Matrix`` ``hstack``.
"""

from __future__ import annotations

from fractions import Fraction

from koszulkit.complexes import ChainMap, ComplexError, Homotopy
from koszulkit.linalg import Matrix
from koszulkit.orlov import Coords

from dense_helpers import hstack, kernel_basis


def col(m: Matrix, j: int) -> list:
    """Column j of a dense matrix."""
    return [row[j] for row in m.data]


def dense(m) -> Matrix:
    """The dense :class:`Matrix` of a ``RowMatrix``, as ``Coords.matrix``
    once returned it: row r is its numerators over its denominator d."""
    fld = m.field
    data = []
    for row, d in m.krows:
        out = [fld.zero] * m.cols
        for j, x in row.items():
            out[j] = fld.of(Fraction(x, d))
        data.append(out)
    return Matrix(fld, m.rows, m.cols, data)


class HomSpace:
    """Hom_{K^b}(X, Y[k]) presented by explicit linear algebra.

    ``dimension`` is dim(chain maps) - dim(null-homotopic chain maps);
    ``basis`` carries chain-map representatives of a basis of the quotient.
    """

    def __init__(self, x: Complex, y: Complex, k: int = 0):
        self.x = x
        self.y = y
        self.k = k
        self.ys = ys = y.shift(k)
        pres = x.pres

        # chain maps X^i -> Y[k]^i, homotopies X^i -> Y[k]^{i-1} and
        # chain-condition rows X^i -> Y[k]^{i+1}
        xt, yt = x.terms.items(), ys.terms
        self.maps = Coords(pres, {i: (t, yt[i]) for i, t in xt if i in yt})
        self.homotopies = Coords(pres, {i: (t, yt[i - 1]) for i, t in xt if i - 1 in yt})
        chain_rows = Coords(pres, {i: (t, yt[i + 1]) for i, t in xt if i + 1 in yt})
        self.total, self.h_total = self.maps.total, self.homotopies.total
        if self.total:
            self._chain_kernel = kernel_basis(self.maps.matrix(chain_rows, [
                (0, 1, "left", ys.d),
                (-1, -1, "right", lambda i: x.d(i - 1))]).rref())
            delta = dense(self.homotopies.matrix(self.maps, [
                (0, 1, "left", lambda i: ys.d(i - 1)),
                (-1, 1, "right", lambda i: x.d(i - 1))]))
        else:                   # no chain-map unknowns: the space is 0
            self._chain_kernel = Matrix.zeros(pres.field, 0, 0)
            delta = Matrix.zeros(pres.field, 0, self.h_total)

        # the rref of a column prefix is the prefix of the rref: pivots below
        # delta.cols count its rank, those past it pick a basis of the quotient
        self._system = hstack(delta, self._chain_kernel)
        self._echelon = self._system.rref()
        pivots = self._echelon.pivots
        self.nullity = self._chain_kernel.cols
        self._delta_rank = sum(p < delta.cols for p in pivots)
        self.dimension = self.nullity - self._delta_rank
        self.basis = [self._vector_to_map(col(self._chain_kernel, p - delta.cols))
                      for p in pivots if p >= delta.cols]

    # ---------------------------------------------------------- chain maps

    def cycle(self, coeffs) -> ChainMap:
        """The chain map with coordinates ``coeffs`` in the chain kernel's
        basis, the columns of ``_chain_kernel``."""
        fld = self.x.pres.field
        vec = [fld.zero] * self.total
        for j, c in enumerate(coeffs):
            if c:
                vec = [fld.add(a, fld.mul(c, b)) for a, b in zip(vec, col(self._chain_kernel, j))]
        return self._vector_to_map(vec)

    # ------------------------------------------------------------ plumbing

    def _vector_to_map(self, vec) -> ChainMap:
        return ChainMap(self.x, self.ys, self.maps.from_vector(vec), check=False)

    def map_to_vector(self, f: ChainMap):
        if any(i not in self.maps.slices and not m.is_zero() for i, m in f.comps.items()):
            raise ComplexError("map has a component outside the hom window")
        return self.maps.to_vector(f.comps.get)

    def _vector_to_homotopy(self, vec) -> Homotopy:
        return Homotopy(self.x, self.ys, self.homotopies.from_vector(vec))

    def _mod_homotopy(self, vec):
        """The coordinates in ``basis`` of ``vec`` modulo null-homotopies:
        the entries at the pivots past delta of a solution x of [delta |
        chain_kernel] x = vec, or None when ``vec`` is not a chain map."""
        x = self._system.solve(vec)
        return None if x is None else [x[p] for p in self._echelon.pivots if p >= self.h_total]

    def null_homotopy(self, f: ChainMap):
        """A homotopy h with f = delta(h), or None."""
        x = self._system.solve(self.map_to_vector(f))
        if x is None or any(x[self.h_total:]):
            return None
        return self._vector_to_homotopy(x[:self.h_total])

    def express(self, f: ChainMap):
        """Coordinates of the class of f in ``basis``, or None if outside."""
        return self._mod_homotopy(self.map_to_vector(f))
