"""Dense-matrix scaffolding for the tests and the references, built on the
engine's ``Matrix.rref`` and ``Echelon.kernel_vector``: the identity, the
column concatenation, the kernel basis and the inverse, which
``koszulkit.linalg`` no longer has because no engine code needs them.
"""

from __future__ import annotations

from koszulkit.linalg import Echelon, Field, Matrix


def identity(field: Field, n: int) -> Matrix:
    return Matrix(field, n, n, [[field.one if i == j else field.zero for j in range(n)]
                                for i in range(n)])


def hstack(a: Matrix, b: Matrix) -> Matrix:
    """[a | b] for two dense matrices with the same number of rows."""
    assert a.field == b.field and a.rows == b.rows
    return Matrix(a.field, a.rows, a.cols + b.cols, [ra + rb for ra, rb in zip(a.data, b.data)])


def kernel_basis(e: Echelon) -> Matrix:
    """The basis of the right kernel of A read off its echelon form: column k
    is ``e.kernel_vector(k)``, so the basis is the identity on the free
    columns."""
    return Matrix.from_columns(e.field, e.cols, [
        e.kernel_vector(k) for k in range(len(e.free_columns()))])


def inverse(m: Matrix):
    """The inverse of a square dense matrix, or None if it is singular: when
    rref([A | I]) = [I | A^-1], row r of A^-1 is pivot row r at n..2n-1."""
    assert m.rows == m.cols
    n = m.rows
    e = hstack(m, identity(m.field, n)).rref()
    if e.pivots[:n] != tuple(range(n)):
        return None
    inv = Matrix.zeros(m.field, n, n)
    for out, row in zip(inv.data, e._entries):
        for j, x in row.items():
            out[j - n] = x
    return inv
