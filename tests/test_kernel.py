"""The scaled-integer checkers against the Fraction oracles.

check_axioms, check_bimodule, is_o_operator, the tensor equations,
homomorphism_report, the form conditions of classify_form and
finer_form_identities clear each object's denominators once and test
identities on integers, and induced_tensors contracts on integers too;
these properties feed them constants with coprime and large prime
denominators and compare every verdict, the axiom, bimodule,
O-operator, homomorphism and form reports row by row, and the induced
structure constants entry by entry, with the brute-force oracles in
tests/oracles.py.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from clusteralg import catalog
from clusteralg.bimodules import (_MODULE_SLOTS, Bimodule, bimodule_entries,
                                  bimodule_from_entries, check_bimodule,
                                  regular_bimodule)
from clusteralg.core import (AXIOMS, ClusterAlgebra, Level, algebra_entries,
                             algebra_from_entries, check_axioms)
from clusteralg.forms import (_COMPOSITES, _FINER_IDENTITIES, _FORM_CONDITIONS,
                              BilinearForm, classify_form, finer_form_identities,
                              finer_from_form, tensor_to_form)
from clusteralg.linalg import Matrix
from clusteralg.operators import (InterMap, homomorphism_report, induce_on_module,
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
