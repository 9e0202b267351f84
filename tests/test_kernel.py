"""The scaled-integer checkers against the Fraction oracles.

check_axioms, check_bimodule, is_o_operator, the tensor equations,
homomorphism_report, the form conditions of classify_form and
finer_form_identities clear each object's denominators once and test
identities on integers, and induced_tensors contracts on integers too;
these properties feed them constants with coprime and large prime
denominators and compare every verdict, the axiom, bimodule,
O-operator, homomorphism and form reports row by row, and the induced
structure constants entry by entry, with the brute-force oracles in
tests/oracles.py.  The sparse strategies draw a few entries per object;
the dense ones (``dense_algebras`` and the inputs built on it) fill every
fibre, with numerators up to 2^40, so that each checker's dense path is
compared with the oracles as well.  The last properties send the same
inputs through both private paths of ``core.axiom_sums`` and of
``operators._transported``, and pack and unpack vectors at the width's
bound.
"""

from collections.abc import Iterator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from clusteralg import catalog
from clusteralg.bimodules import (_MODULE_SLOTS, Bimodule, bimodule_entries,
                                  bimodule_from_entries, check_bimodule,
                                  regular_bimodule, semidirect_fibres)
from clusteralg.core import (AXIOMS, ClusterAlgebra, Level, _packed_sums, _sparse_sums,
                             algebra_entries, algebra_from_entries, check_axioms,
                             scaled_fibres)
from clusteralg.forms import (_COMPOSITES, _FINER_IDENTITIES, _FORM_CONDITIONS,
                              BilinearForm, classify_form, finer_form_identities,
                              finer_from_form, tensor_to_form)
from clusteralg.linalg import Matrix, packed, unpacked, width_for
from clusteralg.operators import (InterMap, _packed_rows, _sparse_rows,
                                  homomorphism_report, induce_on_module,
                                  induced_tensors, is_o_operator, is_rota_baxter)
from clusteralg.yangbaxter import (Tensor2, canonical_double_solution, check_aybe,
                                   check_d_equation, check_o_equation,
                                   check_q_equation)

import oracles

# Pairwise coprime small denominators and some large primes.
DENOMINATORS = (1, 2, 3, 5, 7, 11, 65537, 1000003, 2**31 - 1, 2**61 - 1)

nonzero_rationals = st.builds(
    Fraction, st.integers(-20, 20).filter(bool), st.sampled_from(DENOMINATORS))


@st.composite
def sparse_algebras(draw, levels=(1, 2, 4, 8)) -> ClusterAlgebra:
    level = draw(st.sampled_from(levels))
    d = draw(st.integers(1, 2 if level == 8 else 3))
    key = st.tuples(st.sampled_from(Level(level).ops), *[st.integers(0, d - 1)] * 3)
    entries = draw(st.dictionaries(key, nonzero_rationals, max_size=2 * d))
    return algebra_from_entries(level, d, [(*k, v) for k, v in entries.items()])


def _scaled(a: ClusterAlgebra, c: Fraction) -> ClusterAlgebra:
    """a with every structure constant times c: an algebra of a's kind
    exactly when a is, since every axiom is homogeneous."""
    return algebra_from_entries(int(a.level), a.dim,
                                [(*row[:-1], c * row[-1]) for row in algebra_entries(a)])


def _mutated(draw, rows: list) -> list:
    """With probability 1/2, one entry of rows replaced by a fresh rational."""
    if rows and draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = (*rows[i][:-1], draw(nonzero_rationals))
    return rows


ALGEBRAS = [catalog.load(n).value for n in catalog.names()
            if catalog.load(n).kind == "algebra"]
BIMODULE_BASES = [a for a in ALGEBRAS if a.level != Level.OCTO and a.dim <= 3]
# every catalog map with each algebra below level 8 it is Rota-Baxter for
MAPS = [(a, e.value) for e in map(catalog.load, catalog.names()) if e.kind == "map"
        for a in ALGEBRAS if a.level != Level.OCTO and a.dim == e.value.source_dim
        and oracles.oracle_rota_baxter(a, e.value.matrix)]


@st.composite
def catalog_mutants(draw) -> ClusterAlgebra:
    a = _scaled(draw(st.sampled_from(ALGEBRAS)), draw(nonzero_rationals))
    return algebra_from_entries(int(a.level), a.dim, _mutated(draw, algebra_entries(a)))


def _assert_reported_exactly(report) -> None:
    for v in report.violations:
        assert any(v.discrepancy)
        for x in v.discrepancy:
            assert type(x) is Fraction and x.denominator > 0
            assert gcd(x.numerator, x.denominator) == 1


def _rows(report) -> list:
    return [(v.identity_id, v.witness, v.discrepancy) for v in report.violations]


@settings(max_examples=150, deadline=None)
@given(st.one_of(sparse_algebras(), catalog_mutants()))
def test_axioms_agree_with_oracle(a):
    rep = check_axioms(a)
    assert rep.ok == oracles.oracle_axioms(a)
    _assert_reported_exactly(rep)


@settings(max_examples=150, deadline=None)
@given(st.one_of(sparse_algebras(), catalog_mutants()))
def test_axiom_report_agrees_with_oracle(a):
    # ids, witnesses, order and exact discrepancies
    assert _rows(check_axioms(a)) == oracles.oracle_axiom_report(a, AXIOMS[int(a.level)])


@st.composite
def bimodule_inputs(draw) -> tuple[ClusterAlgebra, Bimodule]:
    """The regular bimodule of a scaled catalog algebra, perhaps mutated,
    or a sparse bimodule of a sparse algebra below level 8."""
    if draw(st.booleans()):
        a = _scaled(draw(st.sampled_from(BIMODULE_BASES)), draw(nonzero_rationals))
        return a, bimodule_from_entries(int(a.level), a.dim, a.dim,
                                        _mutated(draw, bimodule_entries(regular_bimodule(a))))
    a = draw(sparse_algebras(levels=(1, 2, 4)))
    return a, _sparse_bimodule(draw, a, draw(st.integers(1, 3)))


def _sparse_bimodule(draw, a: ClusterAlgebra, md: int) -> Bimodule:
    key = st.tuples(st.sampled_from("lr"), st.sampled_from(a.level.ops),
                    st.integers(0, a.dim - 1), *[st.integers(0, md - 1)] * 2)
    entries = draw(st.dictionaries(key, nonzero_rationals, max_size=3 * md))
    return bimodule_from_entries(int(a.level), a.dim, md,
                                 [(*k, v) for k, v in entries.items()])


def _oracle_module_rows(a: ClusterAlgebra, m: Bimodule) -> list:
    """check_bimodule's rows read from the oracle's axiom report on the raw
    A (+) V: per module slot row, per (i, j), the least failing c."""
    level, d = int(a.level), a.dim
    ids = [axiom[0] for axiom in AXIOMS[level]]
    report = {(ident, triple): diff for ident, triple, diff in
              oracles.oracle_axiom_report(oracles.semidirect(a, m), AXIOMS[level])}
    rows = []
    for ident, ax, slot, sign, swap in _MODULE_SLOTS[level]:
        for i in range(d):
            for j in range(d):
                pair = (j, i) if swap else (i, j)
                for c in range(m.module_dim):
                    diff = report.get((ids[ax], (*pair[:slot], d + c, *pair[slot:])))
                    if diff is not None and any(diff[d:]):
                        rows.append((ident, (i, j, c), tuple(sign * v for v in diff[d:])))
                        break
    return rows


@settings(max_examples=100, deadline=None)
@given(bimodule_inputs())
def test_bimodules_agree_with_oracle(case):
    a, m = case
    rep = check_bimodule(a, m)
    if oracles.oracle_axioms(a):  # else A (+) V fails off the module slots too
        assert rep.ok == oracles.oracle_bimodule(a, m)
    assert _rows(rep) == _oracle_module_rows(a, m)
    _assert_reported_exactly(rep)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_rota_baxter_agrees_with_oracle(data):
    # a catalog map and its algebra, each scaled by its own factor (which
    # keeps a Rota-Baxter operator one), the map perhaps mutated
    base, r = data.draw(st.sampled_from(MAPS))
    a = _scaled(base, data.draw(nonzero_rationals))
    c = data.draw(nonzero_rationals)
    buf = [[0] * a.dim for _ in range(a.dim)]
    rows = [(i, j, c * v) for i, j, v in r.matrix.nonzero()]
    for i, j, v in _mutated(data.draw, rows):
        buf[i][j] = v
    r = InterMap(Matrix(buf))
    rep = is_rota_baxter(a, r)
    assert rep.ok == oracles.oracle_rota_baxter(a, r.matrix)
    _assert_reported_exactly(rep)


def _sparse_grid(draw, rows: int, cols: int) -> Matrix:
    buf = [[0] * cols for _ in range(rows)]
    key = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    for (i, j), v in draw(st.dictionaries(key, nonzero_rationals,
                                          max_size=rows * cols)).items():
        buf[i][j] = v
    return Matrix(buf)


@st.composite
def o_operator_inputs(draw) -> tuple[ClusterAlgebra, Bimodule, InterMap]:
    """A sparse bimodule of a sparse algebra below level 8, on a module of
    another dimension, with a sparse rectangular map V -> A; or the regular
    bimodule of a scaled catalog algebra with a scaled catalog
    Rota-Baxter map, perhaps mutated."""
    if draw(st.booleans()):
        a = draw(sparse_algebras(levels=(1, 2, 4)))
        md = draw(st.integers(1, 4).filter(lambda n: n != a.dim))
        return a, _sparse_bimodule(draw, a, md), InterMap(_sparse_grid(draw, a.dim, md))
    base, r = draw(st.sampled_from(MAPS))
    a = _scaled(base, draw(nonzero_rationals))
    c = draw(nonzero_rationals)
    buf = [[0] * a.dim for _ in range(a.dim)]
    for i, j, v in _mutated(draw, [(i, j, c * v) for i, j, v in r.matrix.nonzero()]):
        buf[i][j] = v
    return a, regular_bimodule(a), InterMap(Matrix(buf))


@settings(max_examples=150, deadline=None)
@given(o_operator_inputs())
def test_o_operator_agrees_with_oracle(case):
    # ids, witnesses, order and exact discrepancies A-part - T(V-part)
    a, m, t = case
    rep = is_o_operator(a, m, t)
    assert _rows(rep) == oracles.oracle_o_operator(a, m, t.matrix)
    _assert_reported_exactly(rep)


@settings(max_examples=100, deadline=None)
@given(o_operator_inputs())
def test_induced_agrees_with_oracle(case):
    a, m, t = case
    induced = induced_tensors(a, m, t)
    assert {op: oracles.nested(x) for op, x in induced.items()} == \
        oracles.oracle_induced(a, m, t.matrix)


# ---------------------------------------------------------------------------
# dense inputs: every fibre holds many nonzeros, so the checkers take their
# dense path; random constants fail, constants in a dense basis pass

big_rationals = st.builds(
    Fraction, st.integers(-2**40, 2**40).filter(bool), st.sampled_from(DENOMINATORS))
# the largest dimension drawn per level
DENSE_DIMS = {1: 4, 2: 4, 4: 4, 8: 3}


def _dense_values(draw, count: int) -> Iterator[Fraction]:
    """count drawn rationals with numerators up to 2^40, one at a time."""
    return iter(draw(st.lists(big_rationals, min_size=count, max_size=count)))


def _dense_random(draw, level: int, d: int) -> ClusterAlgebra:
    values = _dense_values(draw, len(Level(level).ops) * d ** 3)
    return algebra_from_entries(level, d, [
        (op, i, j, k, next(values)) for op in Level(level).ops
        for i in range(d) for j in range(d) for k in range(d)])


def _dense_basis(draw, d: int) -> tuple[Matrix, Matrix]:
    """P = L U, L unit lower and U upper triangular with a nonzero diagonal,
    every other entry of both drawn nonzero: dense and invertible; and P^-1."""
    lower = [[draw(nonzero_rationals) if j < i else int(i == j) for j in range(d)]
             for i in range(d)]
    upper = [[draw(nonzero_rationals) if j >= i else 0 for j in range(d)]
             for i in range(d)]
    p = Matrix(lower) @ Matrix(upper)
    return p, p.inverse()


def _rebased(a: ClusterAlgebra, p: Matrix, q: Matrix, c: Fraction) -> ClusterAlgebra:
    """c times a's constants in the basis f_i = sum_x p[x, i] e_x (q = p^-1):
    an algebra of a's kind exactly when a is."""
    d = a.dim
    buf = {}
    for op, x, y, z, v in algebra_entries(a):
        for i in range(d):
            for j in range(d):
                pv = c * p[x, i] * p[y, j] * v
                for k in range(d):
                    key = (op, i, j, k)
                    buf[key] = buf.get(key, 0) + pv * q[k, z]
    return algebra_from_entries(int(a.level), d, [(*key, v) for key, v in buf.items() if v])


def _dense_catalog(draw, bases: list) -> ClusterAlgebra:
    """One of the catalog algebras bases in a dense basis, scaled."""
    base = draw(st.sampled_from(bases))
    return _rebased(base, *_dense_basis(draw, base.dim), draw(big_rationals))


def _nonzero_catalog(level: int, dim: int) -> list:
    return [a for a in ALGEBRAS if int(a.level) == level and a.dim <= dim
            and algebra_entries(a)]


@st.composite
def dense_algebras(draw, levels=(1, 2, 4, 8)) -> ClusterAlgebra:
    """Every structure constant nonzero, numerators up to 2^40 over
    DENOMINATORS; or a nonzero catalog algebra in a dense basis, scaled (no
    level-8 one is small enough); either perhaps with one entry mutated."""
    level = draw(st.sampled_from(levels))
    bases = _nonzero_catalog(level, DENSE_DIMS[level])
    if bases and draw(st.booleans()):
        a = _dense_catalog(draw, bases)
    else:
        a = _dense_random(draw, level, draw(st.integers(2, DENSE_DIMS[level])))
    return algebra_from_entries(level, a.dim, _mutated(draw, algebra_entries(a)))


@settings(max_examples=20, deadline=None)
@given(dense_algebras())
def test_dense_axiom_report_agrees_with_oracle(a):
    rep = check_axioms(a)
    assert _rows(rep) == oracles.oracle_axiom_report(a, AXIOMS[int(a.level)])
    _assert_reported_exactly(rep)


def _conjugated(m: Bimodule, pad: int, s: Matrix, t: Matrix) -> Bimodule:
    """m on V (+) K^pad, K acted on by zero, in the basis of V (+) K^pad
    given by s (t = s^-1): a bimodule exactly when m is."""
    md = m.module_dim + pad

    def moved(mat: Matrix) -> Matrix:
        grid = [[mat[r, c] if r < m.module_dim and c < m.module_dim else 0
                 for c in range(md)] for r in range(md)]
        return t @ Matrix(grid) @ s

    return Bimodule(m.level, m.algebra_dim, md,
                    {op: tuple(map(moved, mats)) for op, mats in m.lmap.items()},
                    {op: tuple(map(moved, mats)) for op, mats in m.rmap.items()})


@st.composite
def dense_bimodule_inputs(draw) -> tuple[ClusterAlgebra, Bimodule]:
    """A dense random bimodule of a dense random algebra, on a module of
    another dimension; or the regular bimodule of a dense-basis catalog algebra
    (``_dense_catalog``),
    perhaps padded by a zero summand, in a dense module basis; either
    perhaps with one entry mutated."""
    level = draw(st.sampled_from((1, 2, 4)))
    small = 3 if level == 1 else 2  # the oracle reads every triple of A (+) V
    if draw(st.booleans()):
        a = _dense_random(draw, level, draw(st.integers(2, small)))
        md = draw(st.integers(1, small + 1).filter(lambda n: n != a.dim))
        values = _dense_values(draw, 2 * len(a.level.ops) * a.dim * md * md)
        m = bimodule_from_entries(int(a.level), a.dim, md, [
            (side, op, i, r, c, next(values)) for side in "lr" for op in a.level.ops
            for i in range(a.dim) for r in range(md) for c in range(md)])
    else:
        a = _dense_catalog(draw, _nonzero_catalog(level, 3))
        pad = draw(st.integers(0, int(level == 1)))
        m = _conjugated(regular_bimodule(a), pad, *_dense_basis(draw, a.dim + pad))
    return a, bimodule_from_entries(int(a.level), a.dim, m.module_dim,
                                    _mutated(draw, bimodule_entries(m)))


@settings(max_examples=12, deadline=None)
@given(dense_bimodule_inputs())
def test_dense_bimodules_agree_with_oracle(case):
    a, m = case
    rep = check_bimodule(a, m)
    assert _rows(rep) == _oracle_module_rows(a, m)
    _assert_reported_exactly(rep)


def _dense_grid(draw, rows: int, cols: int) -> Matrix:
    values = _dense_values(draw, rows * cols)
    return Matrix([[next(values) for _ in range(cols)] for _ in range(rows)])


@st.composite
def dense_map_inputs(draw) -> tuple[ClusterAlgebra, InterMap]:
    """A catalog Rota-Baxter map with its algebra, both in one dense basis
    and each scaled by its own factor, the map perhaps mutated."""
    base, r = draw(st.sampled_from(MAPS))
    p, q = _dense_basis(draw, base.dim)
    a = _rebased(base, p, q, draw(big_rationals))
    moved = (q @ r.matrix @ p).scale(draw(big_rationals))
    buf = [[0] * a.dim for _ in range(a.dim)]
    for i, j, v in _mutated(draw, list(moved.nonzero())):
        buf[i][j] = v
    return a, InterMap(Matrix(buf))


@st.composite
def dense_o_operator_inputs(draw) -> tuple[ClusterAlgebra, Bimodule, InterMap]:
    """A dense random bimodule of a dense random algebra below level 8, on a
    module of another dimension, with a dense map V -> A; or a dense-basis
    Rota-Baxter map on the regular bimodule (``dense_map_inputs``)."""
    if draw(st.booleans()):
        level = draw(st.sampled_from((1, 2, 4)))
        a = _dense_random(draw, level, draw(st.integers(2, 3)))
        md = draw(st.integers(1, 4).filter(lambda n: n != a.dim))
        values = _dense_values(draw, 2 * len(a.level.ops) * a.dim * md * md)
        m = bimodule_from_entries(level, a.dim, md, [
            (side, op, i, r, c, next(values)) for side in "lr" for op in a.level.ops
            for i in range(a.dim) for r in range(md) for c in range(md)])
        return a, m, InterMap(_dense_grid(draw, a.dim, md))
    a, t = draw(dense_map_inputs())
    return a, regular_bimodule(a), t


@settings(max_examples=20, deadline=None)
@given(dense_o_operator_inputs())
def test_dense_o_operator_agrees_with_oracle(case):
    a, m, t = case
    rep = is_o_operator(a, m, t)
    assert _rows(rep) == oracles.oracle_o_operator(a, m, t.matrix)
    _assert_reported_exactly(rep)
    induced = induced_tensors(a, m, t)
    assert {op: oracles.nested(x) for op, x in induced.items()} == \
        oracles.oracle_induced(a, m, t.matrix)


@st.composite
def dense_homomorphism_inputs(draw) -> tuple[ClusterAlgebra, ClusterAlgebra, InterMap]:
    """A dense random finer algebra and one at half its level with a dense
    map between them, or the structure a dense-basis Rota-Baxter map
    induces on its algebra's regular bimodule, with that map."""
    if draw(st.booleans()):
        level = draw(st.sampled_from((2, 4, 8)))
        finer = _dense_random(draw, level, draw(st.integers(2, DENSE_DIMS[level])))
        a = _dense_random(draw, level // 2, draw(st.integers(2, 3)))
        return finer, a, InterMap(_dense_grid(draw, a.dim, finer.dim))
    a, t = draw(dense_map_inputs())
    return induce_on_module(a, regular_bimodule(a), t, check=False, verify=False), a, t


@settings(max_examples=30, deadline=None)
@given(dense_homomorphism_inputs())
def test_dense_homomorphism_agrees_with_oracle(case):
    finer, a, t = case
    rep = homomorphism_report(finer, a, t)
    assert _rows(rep) == oracles.oracle_homomorphism(finer, a, t.matrix)
    _assert_reported_exactly(rep)


# checker, oracle and the ids the oracle's parts evaluate, in order
EQUATIONS = {1: (check_aybe, "oracle_aybe", ("2.2.1",)),
             2: (check_d_equation, "oracle_d_equation", ("2.3.10",)),
             4: (check_q_equation, "oracle_q_equation", ("3.4.17", "3.4.18")),
             8: (check_o_equation, "oracle_o_equation",
                 ("4.4.23", "4.4.24", "4.4.25", "4.4.26"))}
CANONICAL = [canonical_double_solution(a, v) for a in ALGEBRAS for v, level in (
    ("Cor2.2.8", 2), ("Cor3.3.8", 2), ("Cor4.2.10", 4), ("Cor4.4.13", 8))
    if int(a.level) == level and a.dim <= 3]


@st.composite
def equation_inputs(draw) -> tuple[ClusterAlgebra, Tensor2]:
    """A sparse algebra with a sparse tensor, or a canonical solution on its
    double with the algebra and the tensor each scaled by its own factor
    (which keeps a solution one), the tensor perhaps mutated."""
    if draw(st.booleans()):
        a = draw(sparse_algebras())
        return a, Tensor2(_sparse_grid(draw, a.dim, a.dim))
    lift = draw(st.sampled_from(CANONICAL))
    a = _scaled(lift.double, draw(nonzero_rationals))
    c = draw(nonzero_rationals)
    buf = [[0] * a.dim for _ in range(a.dim)]
    for i, j, v in _mutated(draw, [(i, j, c * v) for i, j, v in lift.tensor.entries()]):
        buf[i][j] = v
    return a, Tensor2(Matrix(buf))


def _oracle_counts(name: str, a: ClusterAlgebra, r: Tensor2) -> tuple[bool, list[int]]:
    """The oracle's verdict, and the number of nonzero entries of each
    identity it evaluated (it stops at the first failing one)."""
    counts = []
    formal_sum = oracles._formal_sum

    def recording(*args):
        total = formal_sum(*args)
        counts.append(sum(1 for plane in total for row in plane for v in row if v))
        return total

    oracles._formal_sum = recording
    try:
        return getattr(oracles, name)(a, r), counts
    finally:
        oracles._formal_sum = formal_sum


@settings(max_examples=150, deadline=None)
@given(equation_inputs())
def test_equations_agree_with_oracle(case):
    a, r = case
    checker, oracle, ids = EQUATIONS[int(a.level)]
    rep = checker(a, r)
    ok, counts = _oracle_counts(oracle, a, r)
    assert rep.ok == ok
    per_id = [sum(1 for v in rep.violations if v.identity_id == i) for i in ids]
    assert per_id[:len(counts)] == counts
    _assert_reported_exactly(rep)


@st.composite
def homomorphism_inputs(draw) -> tuple[ClusterAlgebra, ClusterAlgebra, InterMap]:
    """A sparse finer algebra and a sparse algebra at half its level with a
    sparse map between them, or the structure a catalog Rota-Baxter map
    (a homomorphism onto its algebra) or a mutant of it induces on the
    regular bimodule of its algebra scaled by a factor."""
    if draw(st.booleans()):
        finer = draw(sparse_algebras(levels=(2, 4, 8)))
        a = draw(sparse_algebras(levels=(int(finer.level) // 2,)))
        return finer, a, InterMap(_sparse_grid(draw, a.dim, finer.dim))
    base, r = draw(st.sampled_from(MAPS))
    a = _scaled(base, draw(nonzero_rationals))
    buf = [[0] * a.dim for _ in range(a.dim)]
    for i, j, v in _mutated(draw, list(r.matrix.nonzero())):
        buf[i][j] = v
    t = InterMap(Matrix(buf))
    return induce_on_module(a, regular_bimodule(a), t, check=False, verify=False), a, t


@settings(max_examples=150, deadline=None)
@given(homomorphism_inputs())
def test_homomorphism_agrees_with_oracle(case):
    finer, a, t = case
    rep = homomorphism_report(finer, a, t)
    assert _rows(rep) == oracles.oracle_homomorphism(finer, a, t.matrix)
    _assert_reported_exactly(rep)


@st.composite
def form_inputs(draw) -> tuple[ClusterAlgebra, BilinearForm]:
    """A sparse algebra with a sparse form, or a canonical solution's double
    with its bridge form (whose cocycle flag holds), the algebra and the
    form each scaled by its own factor, the form perhaps mutated."""
    if draw(st.booleans()):
        a = draw(sparse_algebras())
        return a, BilinearForm(_sparse_grid(draw, a.dim, a.dim))
    lift = draw(st.sampled_from(CANONICAL))
    a = _scaled(lift.double, draw(nonzero_rationals))
    c = draw(nonzero_rationals)
    rows = [(i, j, c * v) for i, j, v in tensor_to_form(lift.tensor).entries()]
    return a, BilinearForm.from_entries(a.dim, _mutated(draw, rows))


# each finer identity B(x op y, z) = sign B(x, y coarse z) ("A") or
# sign B(y, z coarse x) ("B") as a form-condition row for the oracle
FINER_TABLES = {level: {f"finer-{op}": (
    (1, ("pk", op, "x", "y", "z")),
    (-sign, ("kp", "x", coarse, "y", "z") if pattern == "A" else ("kp", "y", coarse, "z", "x")))
    for op, (pattern, coarse, sign) in table.items()}
    for level, table in _FINER_IDENTITIES.items()}


@settings(max_examples=100, deadline=None)
@given(form_inputs(), st.data())
def test_form_conditions_agree_with_oracle(case, data):
    a, b = case
    level = int(a.level)
    failing = {name for name, *_ in
               oracles.oracle_form_conditions(a, b.matrix, _FORM_CONDITIONS[level])}
    expected = {name: name not in failing for name in _FORM_CONDITIONS[level]}
    expected.update((name, all(expected[p] for p in parts))
                    for name, parts in _COMPOSITES.get(level, {}).items())
    assert dict(classify_form(a, b).flags) == expected
    if level == 8 or not b.is_nondegenerate():
        return
    # the candidate finer structure satisfies the identities of its own
    # form; against a mutant of the form it may fail some of them
    candidate = finer_from_form(a, b, require_flags=False)
    other = BilinearForm.from_entries(a.dim, _mutated(data.draw, b.entries()))
    rep = finer_form_identities(a, other, candidate)
    assert _rows(rep) == [
        (name, triple, (value,)) for name, triple, value in oracles.oracle_form_conditions(
            a, other.matrix, FINER_TABLES[level], finer=candidate)]
    _assert_reported_exactly(rep)


# ---------------------------------------------------------------------------
# the two paths of each contraction: one coordinate at a time and packed

def _nonzero_rows(rows: dict) -> dict:
    return {key: row for key, row in rows.items() if any(row)}


def _both_sums(axiom, fibres, n: int, skip: int = 0) -> tuple[dict, dict]:
    return (_nonzero_rows(_sparse_sums(axiom, fibres, n, skip)),
            _nonzero_rows(_packed_sums(axiom, fibres, n, skip)))


@settings(max_examples=40, deadline=None)
@given(st.one_of(sparse_algebras(), dense_algebras()))
def test_axiom_sum_paths_agree(a):
    _, fibres = scaled_fibres(a)
    for axiom in AXIOMS[int(a.level)]:
        sparse, dense = _both_sums(axiom, fibres, a.dim)
        assert sparse == dense


@settings(max_examples=30, deadline=None)
@given(st.one_of(bimodule_inputs(), dense_bimodule_inputs()))
def test_axiom_sum_paths_agree_on_semidirect_sums(case):
    # with skip = dim A the outer products leave out the A.A block, which
    # changes the rows of the triples in A whenever A fails its axioms
    a, m = case
    _, fibres = semidirect_fibres(a, m)
    for axiom in AXIOMS[int(a.level)]:
        for skip in (0, a.dim):
            sparse, dense = _both_sums(axiom, fibres, a.dim + m.module_dim, skip)
            assert sparse == dense


@pytest.mark.parametrize("d", [2, 3])
def test_axiom_coefficients_at_the_width_bound(d):
    # prec = 1 and succ = -2 everywhere, so star = -1: each coordinate of
    # 2.1.5-1, (x < y) < z - x < (y * z), is d - (-d) = 2 d K^2 with K = 1,
    # the largest value the packed width must hold
    a = algebra_from_entries(2, d, [
        (op, i, j, k, v) for op, v in (("prec", 1), ("succ", -2))
        for i in range(d) for j in range(d) for k in range(d)])
    _, fibres = scaled_fibres(a)
    sparse, dense = _both_sums(AXIOMS[2][0], fibres, d)
    assert sparse == dense == {(i, j, k): [2 * d] * d
                               for i in range(d) for j in range(d) for k in range(d)}
    assert _rows(check_axioms(a)) == oracles.oracle_axiom_report(a, AXIOMS[2])


def _graph_maps(d: int, t: InterMap) -> tuple[list, list]:
    """is_o_operator's maps as integer columns: u -> (D_T T v_u, D_T v_u),
    and (x, v) -> D_T (x - T v) on A (+) V."""
    den_t, cols = t.matrix.scaled_cols()
    graph = [col + [(d + u, den_t)] for u, col in enumerate(cols)]
    return graph, [[(k, den_t)] for k in range(d)] + [[(r, -v) for r, v in col]
                                                       for col in cols]


@settings(max_examples=25, deadline=None)
@given(st.one_of(o_operator_inputs(), dense_o_operator_inputs()))
def test_transport_paths_agree(case):
    # the graph test's maps, and the induction's (T, inclusion of V,
    # projection to V)
    a, m, t = case
    d, md = a.dim, m.module_dim
    _, fibres = semidirect_fibres(a, m, a.level.ops)
    graph, defect = _graph_maps(d, t)
    tcols = t.matrix.scaled_cols()[1]
    inc = [[(d + c, 1)] for c in range(md)]
    proj = [[]] * d + [[(c, 1)] for c in range(md)]
    for fib in fibres.values():
        for maps, n in (((graph, graph, defect), d), ((tcols, inc, proj), md),
                        ((inc, tcols, proj), md)):
            assert _sparse_rows(fib, *maps, n) == _packed_rows(fib, *maps, n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_transport_coefficients_at_the_width_bound(n):
    # every constant, map entry and out entry 1: each coordinate is
    # |x|_1 |y|_1 (fibre 1-norm) max|out| = n^3, the width's bound
    fib = {(s, t): tuple((m, 1) for m in range(n)) for s in range(n) for t in range(n)}
    ones = [[(r, 1) for r in range(n)] for _ in range(n)]
    want = {(i, j): [n ** 3] * n for i in range(n) for j in range(n)}
    assert _sparse_rows(fib, ones, ones, ones, n) == _packed_rows(fib, ones, ones, ones, n) == want


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 80), st.integers(1, 40), st.data())
def test_pack_round_trip(width, count, data):
    top = 2 ** (width - 1) - 1  # the largest digit held either way
    digit = st.sampled_from((top, -top)) | st.integers(-top, top)
    digits = data.draw(st.lists(digit, min_size=count, max_size=count))
    assert unpacked(packed(enumerate(digits), width), count, width) == digits


@pytest.mark.parametrize("width", [2, 3, 8, 61, 64])
def test_pack_round_trip_at_the_extremes(width):
    top = 2 ** (width - 1) - 1
    for digits in ([top] * 9, [-top] * 9, [top, -top] * 5, [-top, top] * 5, [0, -top, 0]):
        assert unpacked(packed(enumerate(digits), width), len(digits), width) == digits


@given(st.integers(0, 2**200))
def test_width_holds_its_bound_and_no_more(bound):
    width = width_for(bound)
    assert bound < 2 ** (width - 1)
    assert width == 1 or 2 ** (width - 2) <= bound
