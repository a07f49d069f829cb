"""The elimination as the engine ran it when it converted every scalar at
once, the reference for the lazy lists of ``linalg.Echelon``.

:func:`eager_rref` is ``Matrix.rref`` with its Q helpers ``_pivot_q`` and
``_subtract_q`` as they were then: each op's scale and multiplier became a
canonical scalar (``_q``) when the row operation was made, and R's pivot
rows when the elimination ended.  ``Matrix.rref`` now keeps R's rows as
ints, which ``Echelon._entries`` converts on first read, and records no
row operations; its pivots and ``_entries`` must be these, value for value
and type for type.  The loop is kept verbatim, but it returns the four
lists (pivots, ops, order, entries) instead of an ``Echelon``; the helpers
that did not change are imported, and the F_p helpers ``_pivot_mod`` and
``_subtract_mod``, which now return no op scalar, are kept as it called
them.
"""

from __future__ import annotations

from math import gcd

from koszulkit.linalg import _copy_loaded, _load_mod, _load_q, _q


def _pivot_mod(row, d, c, p):
    """_pivot_q over F_p."""
    m = row.pop(c)
    if m == 1:
        return None, 1
    s = pow(m, -1, p)
    for j, x in row.items():
        row[j] = x * s % p
    return s, 1


def _pivot_q(row, d, c, p):
    """Over Q: drop the row's entry m/d at column c and divide the rest by
    it, so the row becomes row/m.  Returns the op's scale d/m (None when it
    is 1) and the new denominator."""
    m = row.pop(c)
    if m == d:
        return None, d
    s = _q(d, m)
    g = gcd(m, *row.values())
    if m < 0:
        g = -g
    if g != 1:
        m //= g
        for j, x in row.items():
            row[j] = x // g
    return s, m


def _subtract_q(row, d, a, src, e, p):
    """Over Q: row/d -= (a/d)·src/e, on numerators, where a is the row's
    numerator that the caller popped at the pivot column and src/e the
    pivot row: the row becomes (row·e - a·src)/(d·e), made primitive.
    Returns the new denominator and the op's multiplier a/d."""
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
    if d != 1:
        a = _q(a, d)
    d *= e
    if d != 1:
        g = gcd(d, *row.values())
        if g != 1:
            d //= g
            for j, x in row.items():
                row[j] = x // g
    return d, a


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
    return 1, a


def eager_rref(self) -> tuple:
    """(pivots, ops, order, entries) of the matrix ``self``, every scalar
    canonical as soon as it is formed."""
    f = self.field
    nrows, ncols = self.rows, self.cols
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
    # A pivot row is kept without its pivot entry, which is 1.  Each op
    # (i, s, [(k, a), ...]) scales row i by s (None: by 1), then
    # subtracts a times row i from row k for each (k, a).
    ops, order, pivots = [], [], []
    while waiting:
        c = min(waiting)
        cands = waiting.pop(c)
        i = cands[0] if len(cands) == 1 else min(cands, key=lambda k: len(rows[k]))
        prow = rows[i]
        s, e = pivot(prow, dens[i], c, p)
        dens[i] = e
        src = prow.items()
        elim = []
        for k in cands:
            if k != i:
                row = rows[k]
                dens[k], a = subtract(row, dens[k], row.pop(c), src, e, p)
                elim.append((k, a))
                if row:
                    waiting.setdefault(min(row), []).append(k)
        ops.append((i, s, elim))
        order.append(i)
        pivots.append(c)
    for n in range(len(order) - 1, 0, -1):
        c, src, e = pivots[n], rows[order[n]].items(), dens[order[n]]
        elim = []
        for k in order[:n]:
            row = rows[k]
            if c in row:
                dens[k], a = subtract(row, dens[k], row.pop(c), src, e, p)
                elim.append((k, a))
        if elim:
            ops.append((order[n], None, elim))
    # each pivot row now holds only its entries at free columns
    entries = [rows[i] if dens[i] == 1 else {j: _q(x, dens[i]) for j, x in rows[i].items()}
               for i in order]
    if len(order) < nrows:
        taken = set(order)
        order += [i for i in range(nrows) if i not in taken]
    return tuple(pivots), ops, order, entries
