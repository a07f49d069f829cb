"""Independent elimination routines used only as test oracles.

Everything here is deliberately coded on a different route from
koszulkit.linalg: rank via fraction-free Bareiss elimination (over Q, after
clearing denominators) or a column-sweep elimination (prime fields),
determinant via recursive cofactor expansion.  No code is shared with the
production kernel.
"""

from fractions import Fraction
from math import lcm


def cofactor_det(rows, field):
    """Determinant by cofactor expansion along the first row."""
    n = len(rows)
    if n == 0:
        return field.one
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of non-square matrix")
    if n == 1:
        return rows[0][0]
    total = field.zero
    for j in range(n):
        a = rows[0][j]
        if not a:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = field.mul(a, cofactor_det(minor, field))
        total = field.add(total, term if j % 2 == 0 else field.neg(term))
    return total


def bareiss_rank(rows):
    """Rank over Q by integer fraction-free (Bareiss) elimination."""
    if not rows or not rows[0]:
        return 0
    m = []
    for row in rows:
        fracs = [Fraction(x) for x in row]
        mult = lcm(*[f.denominator for f in fracs]) if fracs else 1
        m.append([int(f * mult) for f in fracs])
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(ncols):
        piv = None
        for i in range(row, nrows):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        for i in range(row + 1, nrows):
            for j in range(col + 1, ncols):
                m[i][j] = (m[row][col] * m[i][j] - m[i][col] * m[row][j]) // prev
            m[i][col] = 0
        prev = m[row][col]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def column_sweep_rank(rows, field):
    """Rank by sweeping columns left to right, eliminating against pivots."""
    if not rows:
        return 0
    cols = [[field.of(rows[i][j]) for i in range(len(rows))] for j in range(len(rows[0]))]
    pivots = []  # (column vector, pivot row index)
    rank = 0
    for vec in cols:
        v = vec[:]
        for pcol, prow in pivots:
            if v[prow]:
                c = field.div(v[prow], pcol[prow])
                v = [field.sub(a, field.mul(c, b)) for a, b in zip(v, pcol)]
        lead = next((i for i, x in enumerate(v) if x), None)
        if lead is not None:
            pivots.append((v, lead))
            rank += 1
    return rank


def oracle_rank(rows, field):
    if field.char == 0:
        r1 = bareiss_rank(rows)
    else:
        r1 = column_sweep_rank(rows, field)
    return r1


def check_kernel(matrix_rows, kernel_cols, field):
    """Verify every kernel column is killed by the matrix, entry by entry."""
    for kc in kernel_cols:
        for row in matrix_rows:
            acc = field.zero
            for a, x in zip(row, kc):
                acc = field.add(acc, field.mul(a, x))
            if acc:
                return False
    return True
