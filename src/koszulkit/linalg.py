"""Exact linear algebra over the rationals or a prime field.

In characteristic 0 a scalar is a Python ``int`` when its value is
integral and a ``fractions.Fraction`` otherwise; in characteristic ``p`` it
is a canonical residue (an int in ``[0, p)``).  Over Q, sums and products of
ints stay ints and mixed int/``Fraction`` arithmetic stays exact, but it may
leave an integral ``Fraction``: an integral ``Fraction`` compares and hashes
equal to its ``int``, and :meth:`Field.format` writes both alike, so equality
of scalars means equality of values.  Matrices are stored dense, as row-major
lists; the constraint matrices of Hom spaces are mostly zeros, so the one
elimination kernel, :meth:`Matrix.rref`, works on sparse rows.  Over Q it
holds each row as integer numerators over one common denominator and does
no ``Fraction`` arithmetic until a reader asks for its result, whose
scalars are then all canonical: no integral ``Fraction`` is left in it.  A
:class:`RowMatrix` arrives in that row form.  The result is the sparse
reduced echelon form, an :class:`Echelon`, with no record of the row
operations: :meth:`Matrix.solve` eliminates the matrix with b appended and
reads the answer off that column.  Every value is immutable after
construction and all operations return fresh objects.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class KoszulkitError(Exception):
    """Root of every error the package raises on purpose: an input, or a
    precondition of a computation, was refused.  Any other exception is a bug."""


class LinalgError(KoszulkitError):
    pass


class FieldMismatch(LinalgError):
    pass


class DimensionMismatch(LinalgError):
    pass


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _rational(x: Fraction):
    """x as an int when it is integral, else x itself."""
    return x.numerator if x.denominator == 1 else x


def _q(n: int, d: int):
    """The rational n/d, for ints n and d != 0, as an int when it is integral."""
    if d == 1:
        return n
    q, r = divmod(n, d)
    return Fraction(n, d) if r else q


class Field:
    """Arithmetic context: characteristic 0 means Q, a prime p means F_p.

    Over Q, :meth:`of`, :meth:`parse` and :meth:`inv` return an ``int`` when
    the value is integral and a reduced ``Fraction`` otherwise; ``zero`` and
    ``one`` are the ints 0 and 1.  Scalars are compared by value.
    """

    __slots__ = ("char", "zero", "one")

    def __init__(self, characteristic: int = 0):
        if characteristic != 0 and not _is_prime(characteristic):
            raise LinalgError(f"characteristic must be 0 or prime, got {characteristic}")
        self.char = characteristic
        self.zero = 0
        self.one = 1

    def __eq__(self, other):
        return isinstance(other, Field) and self.char == other.char

    def __hash__(self):
        return hash(("Field", self.char))

    def __repr__(self):
        return f"Field({self.char})"

    def of(self, value):
        """Coerce an int, Fraction or scalar string into a canonical element."""
        if isinstance(value, str):
            return self.parse(value)
        if self.char == 0:
            if type(value) is int:
                return value
            return _rational(Fraction(value))
        if isinstance(value, Fraction):
            if value.denominator % self.char == 0:
                raise LinalgError(f"denominator not invertible mod {self.char}")
            return value.numerator * pow(value.denominator, -1, self.char) % self.char
        return int(value) % self.char

    def parse(self, text: str):
        text = text.strip()
        if "/" in text:
            num, den = text.split("/")
            if not int(den):
                raise LinalgError(f"zero denominator in scalar {text!r}")
            return self.of(Fraction(int(num), int(den)))
        return self.of(int(text))

    def format(self, x) -> str:
        """Serialize: "a/b" (b > 0, reduced) or "a" over Q; residue over F_p."""
        if self.char == 0:
            x = Fraction(x)
            if x.denominator == 1:
                return str(x.numerator)
            return f"{x.numerator}/{x.denominator}"
        return str(x % self.char)

    def add(self, a, b):
        return a + b if self.char == 0 else (a + b) % self.char

    def sub(self, a, b):
        return a - b if self.char == 0 else (a - b) % self.char

    def mul(self, a, b):
        return a * b if self.char == 0 else (a * b) % self.char

    def neg(self, a):
        return -a if self.char == 0 else (-a) % self.char

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return _rational(1 / Fraction(a)) if self.char == 0 else pow(a, -1, self.char)

    def div(self, a, b):
        return self.mul(a, self.inv(b))


QQ = Field(0)


# Rows of Matrix.rref: a dict {column: nonzero int} and an int denominator
# d > 0, the row's value being the dict divided by d.  Over Q the row is kept
# primitive, gcd(d, numerators) = 1; over F_p the ints are residues and d = 1.
# The field enters the elimination only through the helpers below, a Q and an
# F_p version each of load, pivot and subtract.

def _load_q(row):
    """A list of Q scalars as a sparse row (numerators, d)."""
    row = {j: x for j, x in enumerate(row) if x}
    for x in row.values():
        if type(x) is not int:
            break
    else:
        return row, 1
    # d is the lcm of the reduced denominators, so the row comes out primitive
    d = lcm(*[x.denominator for x in row.values()])
    return {j: x.numerator * (d // x.denominator) for j, x in row.items()}, d


def _load_mod(row):
    """_load_q over F_p."""
    return {j: x for j, x in enumerate(row) if x}, 1


def _copy_loaded(row):
    """A row that arrived loaded, copied, since the elimination changes it."""
    return dict(row[0]), row[1]


def _pivot_q(row, d, c, p):
    """Over Q: drop the row's entry m/d at column c and divide the rest by
    it, so the row becomes row/m.  Returns the new denominator."""
    m = row.pop(c)
    if m == d:
        return d
    g = gcd(m, *row.values())
    if m < 0:
        g = -g
    if g != 1:
        m //= g
        for j, x in row.items():
            row[j] = x // g
    return m


def _pivot_mod(row, d, c, p):
    """_pivot_q over F_p."""
    m = row.pop(c)
    if m != 1:
        s = pow(m, -1, p)
        for j, x in row.items():
            row[j] = x * s % p
    return 1


def _subtract_q(row, d, a, src, e, p):
    """Over Q: row/d -= (a/d)·src/e, on numerators, where a is the row's
    numerator that the caller popped at the pivot column and src/e the
    pivot row: the row becomes (row·e - a·src)/(d·e), made primitive.
    Returns the new denominator."""
    if e != 1:
        for j, x in row.items():
            row[j] = x * e
    for j, x in src:
        v = row.get(j)
        if v is None:
            row[j] = -a * x
        else:
            v -= a * x
            if v:
                row[j] = v
            else:
                del row[j]
    d *= e
    if d != 1:
        g = gcd(d, *row.values())
        if g != 1:
            d //= g
            for j, x in row.items():
                row[j] = x // g
    return d


def _subtract_mod(row, d, a, src, e, p):
    """_subtract_q over F_p."""
    for j, x in src:
        v = row.get(j)
        if v is None:
            row[j] = -a * x % p
        else:
            v = (v - a * x) % p
            if v:
                row[j] = v
            else:
                del row[j]
    return 1


def _append(row, d, x, c):
    """The loaded row (row, d) with the canonical scalar x at column c: an
    int x enters as x·d; a ``Fraction`` u/v scales the row by v, and the
    row is made primitive again.  A nonzero x gives a new dict."""
    if not x:
        return row, d
    if type(x) is int:
        return {**row, c: x * d}, d
    v = x.denominator
    row = {j: n * v for j, n in row.items()}
    row[c] = x.numerator * d
    d *= v
    g = gcd(d, *row.values())
    if g != 1:
        d //= g
        row = {j: n // g for j, n in row.items()}
    return row, d


class Matrix:
    """Dense matrix over a Field; ``data`` is a row-major list of lists."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, rows: int, cols: int, data):
        if len(data) != rows or any(len(r) != cols for r in data):
            raise DimensionMismatch(f"bad shape for {rows}x{cols}")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = data

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Matrix":
        z = field.zero
        return Matrix(field, rows, cols, [[z] * cols for _ in range(rows)])

    @staticmethod
    def from_columns(field: Field, rows: int, columns) -> "Matrix":
        """Matrix whose j-th column is ``columns[j]``, a list of ``rows`` scalars."""
        return Matrix(field, rows, len(columns), [[col[r] for col in columns] for r in range(rows)])

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self):
        body = "; ".join(" ".join(self.field.format(x) for x in row) for row in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def is_zero(self) -> bool:
        return all(not x for row in self.data for x in row)

    def _check_field(self, other: "Matrix"):
        if self.field != other.field:
            raise FieldMismatch("mixing matrices over different fields")

    def mul(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if self.cols != other.rows:
            raise DimensionMismatch("mul: inner dimension mismatch")
        f = self.field
        out = Matrix.zeros(f, self.rows, other.cols)
        for i in range(self.rows):
            arow = self.data[i]
            orow = out.data[i]
            for k in range(self.cols):
                a = arow[k]
                if not a:
                    continue
                brow = other.data[k]
                for j in range(other.cols):
                    b = brow[j]
                    if b:
                        orow[j] = f.add(orow[j], f.mul(a, b))
        return out

    def rref(self) -> "Echelon":
        """The reduced row echelon form R of the matrix, as an :class:`Echelon`:
        its pivot columns and its pivot rows, kept sparse.  The rank is the
        number of pivots.  No record of the row operations is kept: a caller
        that needs them, E with R = E·A, eliminates [A | I] or [A | b] and
        reads E or E·b off the appended columns.

        Sparse Gauss elimination on rows held as dicts of their nonzero
        entries, then back substitution.  In each column the pivot row is the
        candidate with the fewest nonzeros, after Markowitz (1957), to limit
        fill-in; the RREF is unique, so R and the pivots do not depend on it.

        Over Q a row is held as int numerators over one positive int
        denominator and divided by their gcd after each row operation, so it
        stays primitive (integer-preserving elimination, as in Bareiss
        1968): subtracting (a/d)·n'/e from n/d gives (e·n - a·n')/(d·e)
        without a ``Fraction``; R's rows stay numerators over d until the
        :class:`Echelon` is read.  F_p runs the same loop with denominator
        1.  Dense rows are loaded first; a :class:`RowMatrix` arrives loaded.
        """
        f = self.field
        p = f.char
        if p:
            load, pivot, subtract = _load_mod, _pivot_mod, _subtract_mod
        else:
            load, pivot, subtract = _load_q, _pivot_q, _subtract_q
        source = self.data
        if source is None:      # a RowMatrix: its rows arrive loaded
            load, source = _copy_loaded, self.krows
        rows, dens = [], []
        waiting = {}        # leading column -> rows still without a pivot
        for i, data in enumerate(source):
            row, d = load(data)
            rows.append(row)
            dens.append(d)
            if row:
                waiting.setdefault(min(row), []).append(i)
        # A pivot row is kept without its pivot entry, which is 1; order[r]
        # is the row that took the r-th pivot.
        order, pivots = [], []
        while waiting:
            c = min(waiting)
            cands = waiting.pop(c)
            i = cands[0] if len(cands) == 1 else min(cands, key=lambda k: len(rows[k]))
            prow = rows[i]
            e = dens[i] = pivot(prow, dens[i], c, p)
            src = prow.items()
            for k in cands:
                if k != i:
                    row = rows[k]
                    dens[k] = subtract(row, dens[k], row.pop(c), src, e, p)
                    if row:
                        waiting.setdefault(min(row), []).append(k)
            order.append(i)
            pivots.append(c)
        for n in range(len(order) - 1, 0, -1):
            c, src, e = pivots[n], rows[order[n]].items(), dens[order[n]]
            for k in order[:n]:
                row = rows[k]
                if c in row:
                    dens[k] = subtract(row, dens[k], row.pop(c), src, e, p)
        # each pivot row now holds only its entries at free columns
        entries = [(rows[i], dens[i]) for i in order] if not p else [rows[i] for i in order]
        e = Echelon(f, self.rows, self.cols, tuple(pivots), entries)
        e._raw_entries = not p      # Q: int pairs, converted on first read
        return e

    def rank(self) -> int:
        return len(self.rref().pivots)

    def solve(self, b):
        """One exact solution x of self @ x = b for a list b of scalars, or
        None if there is none; free variables are set to 0.

        One elimination of [A | b]: b lies in the column space of A exactly
        when its column, ``cols``, is not a pivot, and then x[p_r] is pivot
        row r's entry in that column.  A :class:`RowMatrix` gets b's entries
        appended in its row form."""
        f, n = self.field, self.cols
        bent = [f.of(x) for x in b]
        if len(bent) != self.rows:
            raise DimensionMismatch("solve: length of b != rows")
        if self.data is None:
            aug = RowMatrix(f, self.rows, n + 1,
                            [_append(row, d, x, n) for (row, d), x in zip(self.krows, bent)])
        else:
            aug = Matrix(f, self.rows, n + 1, [row + [x] for row, x in zip(self.data, bent)])
        e = aug.rref()
        if e.pivots and e.pivots[-1] == n:
            return None
        x = [f.zero] * n
        for pc, row in zip(e.pivots, e._entries):
            x[pc] = row.get(n, f.zero)
        return x


class RowMatrix(Matrix):
    """A matrix for elimination only, built in the row form of ``rref``:
    ``krows`` holds one (numerators, d) pair per row, what :func:`_load_q` or
    :func:`_load_mod` would make of its dense row, and ``data`` is None."""

    __slots__ = ("krows",)

    def __init__(self, field: Field, rows: int, cols: int, krows):
        self.field, self.rows, self.cols, self.data, self.krows = field, rows, cols, None, krows

    def __eq__(self, other):    # the primitive row form of a matrix is unique
        return isinstance(other, RowMatrix) and (self.field, self.rows, self.cols, self.krows) == \
            (other.field, other.rows, other.cols, other.krows)


class Echelon:
    """The reduced row echelon form R of a matrix A, as returned by
    :meth:`Matrix.rref`, kept sparse: its ``pivots`` and its pivot rows
    ``_entries``.

    Over Q, ``rref`` hands the pivot rows over in ints, each as numerators
    over d; ``_entries`` converts them to canonical scalars once, on first
    read, and drops the ints.

    The pivot rows give the kernel coordinates of A: a vector v lies in
    ker A exactly when its :meth:`defect` is 0, and then v is the
    :meth:`lift` of its entries at the :meth:`free_columns`, since the entry
    at the pivot column p_r of row r is -sum_j R[r][j] v[j].
    """

    __slots__ = ("field", "rows", "cols", "pivots", "_free", "_rrows", "_raw_entries")

    def __init__(self, field: Field, rows: int, cols: int, pivots, entries):
        self.field, self.rows, self.cols, self.pivots = field, rows, cols, pivots
        self._rrows, self._free, self._raw_entries = entries, None, False

    @property
    def _entries(self) -> list:
        """Per pivot row of R, {free column: nonzero entry} in canonical scalars."""
        if self._raw_entries:
            self._rrows = [r if d == 1 else {j: _q(x, d) for j, x in r.items()} for r, d in self._rrows]
            self._raw_entries = False
        return self._rrows

    def free_columns(self) -> list:
        """The non-pivot columns of A, in order."""
        if self._free is None:
            taken = set(self.pivots)
            self._free = [c for c in range(self.cols) if c not in taken]
        return self._free

    def defect(self, v) -> list:
        """R·v on the pivot rows, for a list v of ``cols`` scalars: all 0
        exactly when A v = 0."""
        p = self.field.char
        out = []
        for c, row in zip(self.pivots, self._entries):
            s = v[c]
            for j, x in row.items():
                w = v[j]
                if w:
                    s += x * w
            out.append(s % p if p else s)
        return out

    def lift(self, c) -> list:
        """The vector v in ker A whose entries at the free columns are the
        list ``c``; that is K·c for the kernel basis K whose column k is
        :meth:`kernel_vector` k."""
        p = self.field.char
        v = [self.field.zero] * self.cols
        for j, x in zip(self.free_columns(), c):
            v[j] = x
        for pc, row in zip(self.pivots, self._entries):
            s = 0
            for j, x in row.items():
                w = v[j]
                if w:
                    s += x * w
            if s:
                v[pc] = -s % p if p else -s
        return v

    def kernel_vector(self, k) -> list:
        """The k-th vector of the kernel basis that is the identity on the
        free columns: the :meth:`lift` of the k-th unit vector."""
        f = self.field
        fc = self.free_columns()[k]
        v = [f.zero] * self.cols
        v[fc] = f.one
        for pc, row in zip(self.pivots, self._entries):
            x = row.get(fc)
            if x:
                v[pc] = f.neg(x)
        return v
