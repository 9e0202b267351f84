from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from clusteralg.linalg import (DimensionMismatch, Matrix, Singular, Tensor3,
                               format_rational, parse_rational,
                               permute_tensor3, row_echelon_pivots,
                               solve_consistent)

import oracles

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)


@given(rationals)
def test_rational_string_roundtrip(q):
    assert parse_rational(format_rational(q)) == q


def test_rational_parsing_rejects_junk():
    for bad in ("1.5", "x", "1/0", ""):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_matrix_without_rows_keeps_its_column_count():
    empty = Matrix.zeros(0, 3)
    assert empty.shape == (0, 3)
    assert Matrix.from_cols([(), (), ()]).shape == (0, 3)
    assert Matrix.from_cols([]).shape == (0, 0)
    assert empty != Matrix.zeros(0, 2)
    assert empty.transpose().shape == (3, 0)
    assert empty.transpose().transpose() == empty
    assert (empty + empty).shape == (-empty).shape == empty.scale(2).shape == (0, 3)
    assert (Matrix.zeros(0, 2) @ Matrix.zeros(2, 3)).shape == (0, 3)
    assert (Matrix.zeros(2, 0) @ empty).shape == (2, 3)


def test_identity_multiplication():
    m = Matrix([[1, 2], [Fraction(1, 3), 4]])
    assert Matrix.identity(2) @ m == m
    assert m @ Matrix.identity(2) == m


def test_nilpotent_square_is_zero():
    n = Matrix([[0, 0], [1, 0]])
    assert (n @ n).is_zero()


@given(st.lists(rationals, min_size=4, max_size=4),
       st.lists(rationals, min_size=4, max_size=4))
def test_matmul_matches_sum_of_products(xs, ys):
    a = Matrix([xs[:2], xs[2:]])
    b = Matrix([ys[:2], ys[2:]])
    got = a @ b
    for i in range(2):
        for j in range(2):
            assert got[i, j] == sum(a[i, k] * b[k, j] for k in range(2))


def test_inverse_identity_and_rotation():
    assert Matrix.identity(3).inverse() == Matrix.identity(3)
    rot = Matrix([[0, 1], [-1, 0]])
    assert rot.inverse() == Matrix([[0, -1], [1, 0]])


def test_inverse_block_skew():
    d = 3
    rows = [[0] * d + [1 if i == j else 0 for j in range(d)] for i in range(d)]
    rows += [[-1 if i == j else 0 for j in range(d)] + [0] * d for i in range(d)]
    m = Matrix(rows)
    inv = m.inverse()
    assert m @ inv == Matrix.identity(2 * d)
    assert inv @ m == Matrix.identity(2 * d)
    assert inv == -m  # [[0,I],[-I,0]]^-1 = [[0,-I],[I,0]]


def test_inverse_exactness_on_awkward_fractions():
    m = Matrix([[Fraction(1, 3), Fraction(2, 7), 1],
                [Fraction(5, 2), Fraction(-1, 4), 0],
                [2, 3, Fraction(1, 6)]])
    inv = m.inverse()
    assert m @ inv == Matrix.identity(3)
    assert inv @ m == Matrix.identity(3)


def test_singular_raises():
    with pytest.raises(Singular):
        Matrix([[1, 2], [2, 4]]).inverse()
    with pytest.raises(DimensionMismatch):
        Matrix([[1, 2, 3]]).inverse()


def test_solve_consistent_and_pivots():
    a = Matrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert row_echelon_pivots(a) == (0, 1)
    x = solve_consistent(a, (Fraction(1), Fraction(2), Fraction(3)))
    assert a.apply(x) == (Fraction(1), Fraction(2), Fraction(3))
    with pytest.raises(Singular):
        solve_consistent(a, (Fraction(1), Fraction(3), Fraction(0)))


small_rationals = st.one_of(st.just(Fraction(0)), st.fractions(-3, 3, max_denominator=7))


def _matrix(grid: list, cols: int) -> Matrix:
    return Matrix(grid) if grid else Matrix.zeros(0, cols)


def _check_against_rref(grid: list, cols: int, b: list, rhs: list) -> None:
    """row_echelon_pivots, solve_consistent, Matrix.solve and inverse on
    grid (cols columns) against oracles.oracle_rref: equal results, or
    both sides find the system singular or inconsistent."""
    a = _matrix(grid, cols)
    pivots, _ = oracles.oracle_rref(grid)
    assert row_echelon_pivots(a) == pivots
    aug_pivots, reduced = oracles.oracle_rref([row + [v] for row, v in zip(grid, b)])
    if cols in aug_pivots:
        with pytest.raises(Singular, match="^inconsistent linear system$"):
            solve_consistent(a, b)
    else:
        x = [Fraction(0)] * cols
        for row, c in zip(reduced, aug_pivots):
            x[c] = row[-1]
        assert solve_consistent(a, b) == tuple(x)
    n = len(grid)
    if n != cols:
        with pytest.raises(DimensionMismatch):
            a.inverse()
        return
    k = len(rhs[0]) if rhs else 0
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for right, width, solve in ((rhs, k, lambda: a.solve(_matrix(rhs, k))),
                                (eye, n, a.inverse)):
        _, reduced = oracles.oracle_rref([row + extra for row, extra in zip(grid, right)])
        if len(pivots) < n:
            with pytest.raises(Singular, match="^matrix is singular$"):
                solve()
        else:
            assert solve() == _matrix([row[n:] for row in reduced], width)


@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (3, 0), (1, 0), (0, 1)])
def test_eliminations_on_empty_shapes(rows, cols):
    grid = [[Fraction(0)] * cols for _ in range(rows)]
    for b in ([Fraction(0)] * rows, [Fraction(i + 1) for i in range(rows)]):
        _check_against_rref(grid, cols, b, [[Fraction(1), Fraction(2)]] * rows)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_eliminations_agree_with_rref_oracle(data):
    rows, cols = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
    grid = data.draw(st.lists(st.lists(small_rationals, min_size=cols, max_size=cols),
                              min_size=rows, max_size=rows))
    if rows > 1 and data.draw(st.booleans()):  # row t becomes a combination of the others
        t = data.draw(st.integers(0, rows - 1))
        cs = data.draw(st.lists(small_rationals, min_size=rows, max_size=rows))
        grid[t] = [sum((cs[r] * grid[r][c] for r in range(rows) if r != t), Fraction(0))
                   for c in range(cols)]
    if data.draw(st.booleans()):  # b = a x, a consistent system
        x = data.draw(st.lists(small_rationals, min_size=cols, max_size=cols))
        b = [sum((v * w for v, w in zip(row, x)), Fraction(0)) for row in grid]
    else:
        b = data.draw(st.lists(small_rationals, min_size=rows, max_size=rows))
    k = data.draw(st.integers(0, 3))
    rhs = data.draw(st.lists(st.lists(small_rationals, min_size=k, max_size=k),
                             min_size=rows, max_size=rows))
    _check_against_rref(grid, cols, b, rhs)


def _coordinate_tensor(d, p, q, t):
    return Tensor3.from_entries((d, d, d), [(p, q, t, Fraction(1))])


def test_permute_identity_and_inverse_pair():
    t = Tensor3.from_entries((2, 2, 2), [(0, 1, 1, Fraction(3)), (1, 0, 0, Fraction(-2))])
    assert permute_tensor3(t, (1, 2, 3)) == t
    cycled = permute_tensor3(t, (2, 3, 1))
    assert permute_tensor3(cycled, (3, 1, 2)) == t


def test_permute_moves_slot_contents():
    # the cycle sending slot 1 -> 2 -> 3 -> 1 maps e0 x e1 x e2 to e2 x e0 x e1
    t = _coordinate_tensor(3, 0, 1, 2)
    assert permute_tensor3(t, (2, 3, 1)) == _coordinate_tensor(3, 2, 0, 1)


@given(st.permutations([1, 2, 3]), st.permutations([1, 2, 3]),
       st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
def test_permute_composes_contravariantly(p, q, i, j, k):
    p, q = tuple(p), tuple(q)
    t = _coordinate_tensor(3, i, j, k)
    twice = permute_tensor3(permute_tensor3(t, p), q)
    composed = tuple(q[p[s] - 1] for s in range(3))  # apply p, then q
    assert twice == permute_tensor3(t, composed)


def test_permute_requires_cubic():
    with pytest.raises(DimensionMismatch):
        permute_tensor3(Tensor3.zeros(2, 2, 3), (2, 3, 1))
    with pytest.raises(ValueError):
        permute_tensor3(Tensor3.zeros(2, 2, 2), (1, 1, 3))


def test_tensor3_fibre_and_arithmetic():
    t = Tensor3.from_entries((2, 2, 2), [(0, 1, 0, Fraction(1, 2)),
                                         (0, 1, 1, Fraction(2))])
    assert t.fibre(0, 1) == (Fraction(1, 2), Fraction(2))
    assert (t - t).is_zero()
    assert (t + (-t)).is_zero()
    assert t.scale(2).get(0, 1, 0) == Fraction(1)


def _dense_scan(t: Tensor3) -> list:
    """The nonzero entries of t read from its flat storage, in order."""
    d1, d2, d3 = t.dims
    return [(p, q, r, t._e[(p * d2 + q) * d3 + r]) for p in range(d1)
            for q in range(d2) for r in range(d3) if t._e[(p * d2 + q) * d3 + r]]


def _entries(draw, dims: tuple[int, int, int]) -> list:
    """Unsorted entries in dims, with repeated positions and explicit zeros."""
    position = st.tuples(*(st.integers(0, n - 1) for n in dims))
    value = st.one_of(st.just(Fraction(0)), rationals)
    return [(*pos, v) for pos, v in draw(st.lists(st.tuples(position, value), max_size=12))]


@given(st.data())
def test_tensor3_listing_matches_dense_scan(data):
    dims = tuple(data.draw(st.integers(1, 3)) for _ in range(3))
    entries = _entries(data.draw, dims)
    t = Tensor3.from_entries(dims, entries)
    last = {}
    for p, q, r, v in entries:  # a repeated position keeps its last value
        last[(p, q, r)] = v
    assert list(t.nonzero()) == _dense_scan(t) == sorted(
        (*pos, v) for pos, v in last.items() if v)
    # the same tensor built from flat storage, and tensors made by arithmetic
    flat = Tensor3(dims, t._e)
    assert flat == t and hash(flat) == hash(t)
    other = Tensor3.from_entries(dims, _entries(data.draw, dims))
    for made in (flat, t + other, t - other, -t, t.scale(data.draw(rationals))):
        assert list(made.nonzero()) == _dense_scan(made)
    assert (t + other) - other == t and hash((t + other) - other) == hash(t)
    assert list(t.nonzero()) == _dense_scan(t)  # a second call reads the same
