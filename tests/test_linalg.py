import ast
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import koszulkit
from koszulkit.linalg import Echelon, Field, LinalgError, Matrix, QQ, RowMatrix, _append, _load_q

from dense_helpers import hstack, identity, inverse, kernel_basis
from echelon_reference import eager_rref
from oracle_linalg import cofactor_det, check_kernel, oracle_rank

F2 = Field(2)
F5 = Field(5)


def from_rows(field: Field, rows) -> Matrix:
    data = [[field.of(x) for x in row] for row in rows]
    ncols = len(data[0]) if data else 0
    return Matrix(field, len(data), ncols, data)


def column(field: Field, entries) -> Matrix:
    return Matrix(field, len(entries), 1, [[field.of(x)] for x in entries])


def col(m: Matrix, j: int) -> list:
    """Column j of a dense matrix."""
    return [row[j] for row in m.data]


def columns(m: Matrix) -> list:
    return [col(m, j) for j in range(m.cols)]


def dense_r(e: Echelon) -> Matrix:
    """The dense reduced row echelon form R that an :class:`Echelon` keeps
    sparse: its pivot rows, each 1 at its pivot column and its entries at
    the free columns, then rows - rank zero rows."""
    f = e.field
    data = []
    for c, row in zip(e.pivots, e._entries):
        out = [f.zero] * e.cols
        for j, x in row.items():
            out[j] = x
        out[c] = f.one
        data.append(out)
    data += [[f.zero] * e.cols for _ in range(e.rows - len(data))]
    return Matrix(f, e.rows, e.cols, data)


def rand_matrix(field, rows, cols, rng, span=6):
    if field.char == 0:
        entries = [[Fraction(rng.randint(-span, span), rng.randint(1, 4)) for _ in range(cols)]
                   for _ in range(rows)]
    else:
        entries = [[rng.randrange(field.char) for _ in range(cols)] for _ in range(rows)]
    return from_rows(field, entries)


# ---------------------------------------------------------------- scalars

def test_characteristic_must_be_prime_or_zero():
    with pytest.raises(LinalgError):
        Field(4)


@given(st.fractions(max_denominator=50), st.fractions(max_denominator=50))
def test_rational_field_ops_match_fraction_arithmetic(a, b):
    assert QQ.add(QQ.of(a), QQ.of(b)) == a + b
    assert QQ.mul(QQ.of(a), QQ.of(b)) == a * b
    if b != 0:
        assert QQ.div(QQ.of(a), QQ.of(b)) == a / b


@given(st.integers(-40, 40), st.integers(-40, 40))
def test_prime_field_ops_are_canonical_residues(a, b):
    x, y = F5.of(a), F5.of(b)
    assert 0 <= x < 5 and 0 <= y < 5
    assert F5.add(x, y) == (a + b) % 5
    assert F5.mul(x, y) == (a * b) % 5
    if y:
        assert F5.mul(F5.inv(y), y) == 1


@given(st.fractions(max_denominator=30))
def test_scalar_string_round_trip_rational(a):
    s = QQ.format(QQ.of(a))
    assert QQ.parse(s) == a
    if a.denominator == 1:
        assert "/" not in s
    else:
        num, den = s.split("/")
        assert int(den) > 0
        from math import gcd
        assert gcd(int(num), int(den)) == 1


def test_scalar_string_round_trip_prime_field():
    for v in range(5):
        assert F5.parse(F5.format(v)) == v
    assert F5.parse("7/2") == F5.of(Fraction(7, 2))


def test_integral_rationals_are_ints():
    for x in (QQ.of("6/3"), QQ.of(Fraction(4, 2)), QQ.of(7), QQ.parse(" -4 "),
              QQ.inv(QQ.of(-1)), QQ.inv(Fraction(1, 3)), QQ.zero, QQ.one):
        assert type(x) is int
    assert QQ.of(7) == 7 and QQ.inv(Fraction(1, 3)) == 3
    for x in (QQ.of("2/4"), QQ.of(Fraction(-1, 3)), QQ.inv(3)):
        assert type(x) is Fraction
    assert QQ.of("2/4") == Fraction(1, 2)
    assert QQ.format(2) == QQ.format(Fraction(4, 2)) == "2"
    assert QQ.format(Fraction(1, 3)) == "1/3"
    assert (F5.zero, F5.one, F5.inv(4)) == (0, 1, 4)


# ---------------------------------------------------------------- rref

def test_rref_returns_one_sparse_factorization():
    e = from_rows(QQ, [[1, 2, 3], [2, 4, 7]]).rref()
    assert type(e) is Echelon and not isinstance(e, Matrix) and not hasattr(e, "data")
    assert e.pivots == (0, 2) and e._entries == [{1: 2}, {}]
    assert e.free_columns() == [1] and e.kernel_vector(0) == [-2, 1, 0]


def test_rref_identity_is_fixed():
    m = identity(QQ, 3)
    e = m.rref()
    assert dense_r(e) == m and e.pivots == (0, 1, 2) and len(e.pivots) == 3


def test_rref_proportional_rows():
    m = from_rows(QQ, [[1, 2], [2, 4]])
    e = m.rref()
    assert len(e.pivots) == 1
    assert dense_r(e).data == [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(0)]]


def test_rref_f2_rank_matches_determinant_oracle():
    m = from_rows(F2, [[1, 1], [1, 2]])
    # over F_2 the second row is [1, 0]; det = 1 by cofactor expansion
    det = cofactor_det(m.data, F2)
    assert det == 1
    assert m.rank() == 2


def test_rref_is_idempotent_randomized():
    rng = random.Random(11)
    for field in (QQ, F5):
        for _ in range(20):
            m = rand_matrix(field, rng.randint(0, 5), rng.randint(0, 5), rng)
            r = dense_r(m.rref())
            assert dense_r(r.rref()) == r


def test_rank_equals_transpose_rank_randomized():
    rng = random.Random(7)
    for field in (QQ, F2, F5):
        for _ in range(25):
            m = rand_matrix(field, rng.randint(1, 6), rng.randint(1, 6), rng)
            # column j of the transpose is row j of m
            assert m.rank() == Matrix.from_columns(m.field, m.cols, m.data).rank()
            assert m.rank() == oracle_rank(m.data, field)


def sparse_matrix(field, rows, cols, density, rng):
    """Random matrix whose entries are nonzero with probability ``density``."""
    def entry():
        if rng.random() >= density:
            return 0
        if field.char:
            return rng.randrange(1, field.char)
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
    return from_rows(field, [[entry() for _ in range(cols)] for _ in range(rows)])


def is_rref(r, pivots, rank):
    """Nonzero rows first, each led by a 1 strictly right of the one above,
    and every pivot column zero outside its pivot row."""
    if len(pivots) != rank or any(r.data[i] != [r.field.zero] * r.cols for i in range(rank, r.rows)):
        return False
    for i, pc in enumerate(pivots):
        row = r.data[i]
        if any(row[:pc]) or row[pc] != r.field.one or (i and pivots[i - 1] >= pc):
            return False
        if any(r.data[k][pc] for k in range(r.rows) if k != i):
            return False
    return True


def kernel_shapes(field, rng):
    yield Matrix.zeros(field, 0, 4)
    yield Matrix.zeros(field, 4, 0)
    yield Matrix.zeros(field, 3, 5)
    yield identity(field, 4)
    for density in (0.1, 0.6):
        for _ in range(25):
            yield sparse_matrix(field, rng.randint(1, 12), rng.randint(1, 14), density, rng)


@pytest.mark.parametrize("field", [QQ, Field(10007)], ids=["Q", "F10007"])
def test_sparse_kernel_matches_oracles(field):
    rng = random.Random(field.char + 31)
    for m in kernel_shapes(field, rng):
        e = m.rref()
        r, rank = dense_r(e), len(e.pivots)
        assert (e.rows, e.cols) == (m.rows, m.cols)
        assert is_rref(r, e.pivots, rank)
        assert rank == oracle_rank(m.data, field)
        # the rows of R lie in the row space of A
        assert oracle_rank(m.data + r.data, field) == rank
        with pytest.raises(LinalgError):
            m.solve([field.zero] * (m.rows + 1))
        k = kernel_basis(e)
        assert k.cols == m.cols - rank
        assert check_kernel(m.data, columns(k), field)
        for _ in range(3):
            if rng.random() < 0.5:     # b in the column space of A
                x0 = [field.of(rng.randint(-3, 3)) for _ in range(m.cols)]
                b = col(m.mul(column(field, x0)), 0)
            else:
                b = [field.of(rng.randint(-3, 3)) for _ in range(m.rows)]
            solvable = oracle_rank([row + [bv] for row, bv in zip(m.data, b)], field) == rank
            x = m.solve(b)
            assert (x is not None) == solvable
            if x is not None:      # [A | -b] kills [x | 1]
                assert check_kernel([row + [field.neg(bv)] for row, bv in zip(m.data, b)], [x + [field.one]], field)


@pytest.mark.parametrize("field", [QQ, Field(10007)], ids=["Q", "F10007"])
def test_kernel_coordinates_match_the_kernel_basis(field):
    """A vector is in ker A exactly when its defect is 0, and then it is the
    lift of its entries at the free columns, where the kernel basis is the
    identity."""
    rng = random.Random(field.char + 37)
    inside = outside = 0
    for m in kernel_shapes(field, rng):
        r = m.rref()
        free = r.free_columns()
        k = kernel_basis(r)
        assert free == [c for c in range(m.cols) if c not in r.pivots]
        assert [k.data[c] for c in free] == identity(field, len(free)).data
        for _ in range(3):
            c = [field.of(rng.choice([0, 0, rng.randint(-3, 3)])) for _ in free]
            v = r.lift(c)
            assert v == col(k.mul(column(field, c)), 0)
            assert [v[j] for j in free] == c and not any(r.defect(v))
            w = [field.of(rng.choice([0, rng.randint(-3, 3)])) for _ in range(m.cols)]
            in_kernel = not m.cols or m.mul(column(field, w)).is_zero()
            assert (not any(r.defect(w))) == in_kernel
            if in_kernel:
                assert r.lift([w[j] for j in free]) == w
            inside += in_kernel
            outside += not in_kernel
    assert inside and outside


def mixed_matrix(rows, cols, rng):
    """A Q matrix whose entries are ints, integral Fractions and proper
    Fractions, stored as drawn (not through ``Field.of``)."""
    def entry():
        kind = rng.random()
        if kind < 0.4:
            return 0
        if kind < 0.7:
            return rng.randint(-4, 4)
        if kind < 0.85:
            return Fraction(rng.randint(-4, 4) * 3, 3)
        return Fraction(rng.randint(-9, 9), rng.randint(2, 5))
    return Matrix(QQ, rows, cols, [[entry() for _ in range(cols)] for _ in range(rows)])


def test_mixed_int_and_fraction_entries_match_the_oracles():
    rng = random.Random(41)
    checked = 0
    for _ in range(60):
        m = mixed_matrix(rng.randint(1, 7), rng.randint(1, 8), rng)
        as_fractions = Matrix(QQ, m.rows, m.cols, [[Fraction(x) for x in row] for row in m.data])
        e, e_fractions = m.rref(), as_fractions.rref()
        r, rank = dense_r(e), len(e.pivots)
        assert (r, e.pivots) == (dense_r(e_fractions), e_fractions.pivots)
        assert is_rref(r, e.pivots, rank)
        assert rank == oracle_rank(m.data, QQ)
        assert oracle_rank(m.data + r.data, QQ) == rank
        k = kernel_basis(e)
        assert k == kernel_basis(e_fractions)
        assert k.cols == m.cols - rank
        assert check_kernel(m.data, columns(k), QQ)
        for _ in range(3):
            b = [rng.choice([0, rng.randint(-3, 3), Fraction(rng.randint(-3, 3), 2)])
                 for _ in range(m.rows)]
            x = m.solve(b)
            assert x == as_fractions.solve(b)
            solvable = oracle_rank([row + [bv] for row, bv in zip(m.data, b)], QQ) == rank
            assert (x is not None) == solvable
            if x is not None:
                assert check_kernel([row + [-bv] for row, bv in zip(m.data, b)], [x + [1]], QQ)
                checked += 1
    assert checked >= 30


def incidence_matrix(nodes, arcs, rng):
    """Node-arc incidence matrix of a random directed graph: totally
    unimodular, so every pivot of any elimination of it is +1 or -1."""
    data = [[0] * arcs for _ in range(nodes)]
    for a in range(arcs):
        tail, head = rng.sample(range(nodes), 2)
        data[tail][a], data[head][a] = 1, -1
    return from_rows(QQ, data)


def test_unimodular_elimination_stays_in_ints():
    rng = random.Random(43)
    pivots_seen = 0
    for _ in range(30):
        m = incidence_matrix(rng.randint(2, 7), rng.randint(1, 9), rng)
        m = hstack(m, identity(QQ, m.rows))
        e = m.rref()
        pivots_seen += len(e.pivots)
        assert all(type(x) is int for row in dense_r(e).data for x in row)
        # [incidence | I] has full row rank: every b has a solution, in ints
        x = m.solve([rng.randint(-3, 3) for _ in range(m.rows)])
        assert x is not None and all(type(v) is int for v in x)
        k = kernel_basis(e)
        assert all(type(x) is int for row in k.data for x in row)
    assert pivots_seen >= 60


def wide_denominator_matrix(rows, cols, rng):
    """A sparse Q matrix with numerators up to 10^6 over denominators 1..30,
    some entries integral Fractions, stored as drawn."""
    def entry():
        kind = rng.random()
        if kind < 0.45:
            return 0
        if kind < 0.55:
            return Fraction(rng.randint(-10**6, 10**6) * 6, 6)
        return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 30))
    return Matrix(QQ, rows, cols, [[entry() for _ in range(cols)] for _ in range(rows)])


def is_canonical(x):
    """A Q scalar is an int exactly when its value is integral."""
    return type(x) is (int if Fraction(x).denominator == 1 else Fraction)


def test_wide_denominators_give_e_a_equal_r_in_canonical_scalars():
    rng = random.Random(47)
    denominators = set()
    for _ in range(80):
        m = wide_denominator_matrix(rng.randint(1, 8), rng.randint(1, 9), rng)
        denominators.update(x.denominator for row in m.data for x in row)
        e = m.rref()
        r, rank = dense_r(e), len(e.pivots)
        assert is_rref(r, e.pivots, rank)
        # R = E·A: the rows of R lie in the row space of A
        assert oracle_rank(m.data + r.data, QQ) == rank
        scalars = [x for row in r.data for x in row]
        scalars += [x for row in e._entries for x in row.values()]
        assert all(map(is_canonical, scalars))
        assert rank == oracle_rank(m.data, QQ)
        k = kernel_basis(e)
        assert k.cols == m.cols - rank
        assert check_kernel(m.data, columns(k), QQ)
    assert len(denominators) >= 25


def typed(value):
    """``value`` with the type of each scalar beside it, so that an int and
    an integral ``Fraction`` of the same value compare unequal."""
    if isinstance(value, dict):
        return [(j, typed(x)) for j, x in value.items()]
    if isinstance(value, (list, tuple)):
        return [typed(x) for x in value]
    return type(value), value


def negative_pivot_matrix(rows, cols, rng):
    """A Q matrix whose rows each lead with a negative int or ``Fraction``,
    so that most pivots the elimination divides by are negative."""
    data = []
    for _ in range(rows):
        lead = rng.randint(0, cols - 1)
        data.append([0] * lead + [-rng.choice([rng.randint(1, 5), Fraction(rng.randint(1, 7), rng.randint(2, 5))])]
                    + [rng.choice([0, rng.randint(-4, 4), Fraction(rng.randint(-5, 5), 3)])
                       for _ in range(cols - lead - 1)])
    return Matrix(QQ, rows, cols, data)


def lazy_cases(rng):
    """Seeded matrices for the lazy conversion: empty and zero matrices,
    mixed int/``Fraction`` entries, negative pivots and wide denominators
    over Q, each dense and as a ``RowMatrix`` too, and a few over F_5."""
    dense = [Matrix(QQ, 0, 0, []), Matrix(QQ, 0, 3, []), Matrix(QQ, 3, 0, [[], [], []]),
             Matrix.zeros(QQ, 1, 1), Matrix.zeros(QQ, 3, 4)]
    for _ in range(25):
        r, c = rng.randint(1, 7), rng.randint(1, 8)
        dense += [mixed_matrix(r, c, rng), negative_pivot_matrix(r, c, rng), wide_denominator_matrix(r, c, rng)]
    for m in dense:
        yield m
        yield RowMatrix(QQ, m.rows, m.cols, [_load_q(row) for row in m.data])
    for _ in range(5):
        yield rand_matrix(F5, rng.randint(1, 5), rng.randint(1, 6), rng)


def dense_rows(m) -> list:
    """The rows of a dense matrix, or the dense rows a ``RowMatrix`` holds
    in row form."""
    if m.data is not None:
        return m.data
    return [[m.field.of(Fraction(row.get(j, 0), d)) for j in range(m.cols)] for row, d in m.krows]


def assert_equals_eager(m, e):
    """The pivots and pivot rows of the :class:`Echelon` ``e`` of ``m`` are
    those of the eager reference elimination, value for value and type for
    type."""
    pivots, _, _, entries = eager_rref(m)
    assert (e.rows, e.cols, e.pivots) == (m.rows, m.cols, pivots)
    assert typed(e._entries) == typed(entries)


@pytest.mark.parametrize("first", ["_entries"])
def test_lazy_echelon_lists_equal_the_eager_conversion(first):
    """``rref`` keeps its Q pivot rows as ints; ``_entries`` turns them into
    the canonical scalars that converting at once gave, and a second read
    returns the same list."""
    seen = Counter()
    for m in lazy_cases(random.Random(53)):
        e = m.rref()
        entries = getattr(e, first)
        assert_equals_eager(m, e)
        assert e._entries is entries
        seen["Fraction entry"] += any(type(x) is Fraction for row in e._entries for x in row.values())
        seen["negative entry"] += any(x < 0 for row in e._entries for x in row.values())
        seen["empty"] += not (m.rows and m.cols)
        seen["zero"] += bool(m.rows and m.cols) and not e.pivots
    assert min(seen.values()) >= 4 and len(seen) == 4


def test_lazy_echelon_lists_after_rank_solve_and_inverse(monkeypatch):
    """The eliminations that ``rank`` and ``solve`` run, and the one of
    [A | I] that the tests' dense ``inverse`` runs, read their pivot rows,
    or not, before the test reads them: each still equals the eager
    reference, and the answers agree with the oracles."""
    made = []
    rref = Matrix.rref

    def recording(self):
        made.append((self, rref(self)))
        return made[-1][1]

    monkeypatch.setattr(Matrix, "rref", recording)
    rng = random.Random(59)
    inverted = solved = 0
    for m in lazy_cases(rng):
        fld = m.field
        b = [fld.of(rng.randint(-3, 3)) for _ in range(m.rows)]
        made.clear()
        rank, x = m.rank(), m.solve(b)
        inv = inverse(m) if m.rows == m.cols and m.data is not None else None
        for a, e in made:
            assert_equals_eager(a, e)
        data = dense_rows(m)
        assert rank == oracle_rank(data, fld)
        assert (x is not None) == (oracle_rank([row + [v] for row, v in zip(data, b)], fld) == rank)
        if x is not None:       # [A | -b] kills [x | 1]
            assert check_kernel([row + [fld.neg(v)] for row, v in zip(data, b)], [x + [fld.one]], fld)
            solved += 1
        if inv is not None:
            assert m.mul(inv) == identity(fld, m.rows)
            inverted += 1
    assert inverted >= 5 and solved >= 20


# ---------------------------------------------------------------- kernel

def test_kernel_of_zero_matrix():
    k = kernel_basis(Matrix.zeros(QQ, 2, 2).rref())
    assert k.cols == 2 and k.rank() == 2


def test_kernel_of_single_relation():
    k = kernel_basis(from_rows(QQ, [[1, 1]]).rref())
    assert k.cols == 1
    v = col(k, 0)
    assert v[0] == -v[1] != 0


def test_kernel_random_5x7_against_dual_oracle():
    rng = random.Random(5)
    m = rand_matrix(QQ, 5, 7, rng)
    k = kernel_basis(m.rref())
    # independent oracle: re-derive the rank with a second elimination
    # routine, and check M @ k == 0 column by column
    r_oracle = oracle_rank(m.data, QQ)
    assert k.cols == 7 - r_oracle
    assert check_kernel(m.data, columns(k), QQ)
    assert k.rank() == k.cols


def test_rank_nullity_every_instance():
    rng = random.Random(13)
    for field in (QQ, F5):
        for _ in range(30):
            m = rand_matrix(field, rng.randint(0, 6), rng.randint(0, 6), rng)
            assert m.cols == m.rank() + kernel_basis(m.rref()).cols


# ---------------------------------------------------------------- solve

def test_solve_identity_returns_rhs():
    a = identity(QQ, 3)
    assert a.solve([5, -2, Fraction(1, 3)]) == [5, -2, Fraction(1, 3)]


def test_solve_underdetermined_consistent():
    a = from_rows(QQ, [[1, 1]])
    x = a.solve([3])
    assert x is not None and x[0] + x[1] == 3


def test_solve_inconsistent_returns_none():
    a = from_rows(QQ, [[1], [1]])
    assert a.solve([0, 1]) is None


def test_solvability_iff_augmented_rank_matches():
    rng = random.Random(3)
    for field in (QQ, F5):
        for _ in range(40):
            a = rand_matrix(field, rng.randint(1, 5), rng.randint(1, 5), rng)
            b = [field.of(rng.randint(-4, 4)) for _ in range(a.rows)]
            aug = hstack(a, column(field, b))
            x = a.solve(b)
            if aug.rank() == a.rank():
                assert x is not None
                res = a.mul(column(field, x))
                assert col(res, 0) == b
            else:
                assert x is None
    # over Q, a RowMatrix beside each dense matrix, and right-hand sides
    # that hold proper and integral Fractions as drawn: b enters each row in
    # the row form that loading the dense augmented row gives, the answers
    # agree with the oracles, and every entry is canonical
    rng = random.Random(61)
    seen = Counter()
    for _ in range(100):
        a = rand_matrix(QQ, rng.randint(1, 6), rng.randint(1, 6), rng)
        rows = RowMatrix(QQ, a.rows, a.cols, [_load_q(row) for row in a.data])
        rank = oracle_rank(a.data, QQ)
        for _ in range(4):
            if rng.random() < 0.5:      # b in the column space of A
                x0 = [rng.choice([0, rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.randint(2, 4))])
                      for _ in range(a.cols)]
                b = col(a.mul(column(QQ, x0)), 0)
            else:
                b = [rng.choice([0, rng.randint(-3, 3), Fraction(3 * rng.randint(-3, 3), 3),
                                 Fraction(rng.randint(-9, 9), rng.randint(2, 5))]) for _ in range(a.rows)]
            solvable = oracle_rank([row + [v] for row, v in zip(a.data, b)], QQ) == rank
            seen["integral Fraction in b"] += any(type(v) is Fraction and v.denominator == 1 for v in b)
            assert [_append(row, d, QQ.of(v), a.cols) for (row, d), v in zip(rows.krows, b)] == \
                [_load_q(row + [v]) for row, v in zip(a.data, b)]
            for m in (a, rows):
                x = m.solve(b)
                assert (x is not None) == solvable
                if x is not None:       # [A | -b] kills [x | 1]
                    assert check_kernel([row + [-v] for row, v in zip(a.data, b)], [x + [1]], QQ)
                    assert all(map(is_canonical, x)), x
                    seen["Fraction in x"] += any(type(v) is Fraction for v in x)
                seen["solvable", solvable] += 1
    assert min(seen.values()) >= 20 and len(seen) == 4


# ---------------------------------------------------------------- source

def true_divisions(node, scope=""):
    """(line, qualified scope) of every ``/`` or ``/=`` under ``node``."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
        yield node.lineno, scope
    if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = f"{scope}.{node.name}" if scope else node.name
    for child in ast.iter_child_nodes(node):
        yield from true_divisions(child, scope)


def test_no_true_division_outside_field_inv():
    """Over Q an integral scalar is an int, and ``a / b`` on two ints is a
    float: the one true division in the package is the one in ``Field.inv``."""
    found = [(f"{path.name}:{line}", scope or "<module>")
             for path in sorted(Path(koszulkit.__file__).parent.glob("*.py"))
             for line, scope in true_divisions(ast.parse(path.read_text(encoding="utf-8")))]
    # the scan also sees the one division it allows
    assert [scope for _, scope in found] == ["Field.inv"], found
