"""The scaled-integer checkers against the Fraction oracles.

check_axioms, check_bimodule and is_o_operator clear each object's
denominators once and test identities on integers; these properties feed
them constants with coprime and large prime denominators and compare
every verdict with the brute-force oracles in tests/oracles.py.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from clusteralg import catalog
from clusteralg.bimodules import (bimodule_entries, bimodule_from_entries,
                                  check_bimodule, regular_bimodule)
from clusteralg.core import (ClusterAlgebra, Level, algebra_entries,
                             algebra_from_entries, check_axioms)
from clusteralg.linalg import Matrix
from clusteralg.operators import InterMap, is_rota_baxter

import oracles

# Pairwise coprime small denominators and some large primes.
DENOMINATORS = (1, 2, 3, 5, 7, 11, 65537, 1000003, 2**31 - 1, 2**61 - 1)

nonzero_rationals = st.builds(
    Fraction, st.integers(-20, 20).filter(bool), st.sampled_from(DENOMINATORS))


@st.composite
def sparse_algebras(draw) -> ClusterAlgebra:
    level = draw(st.sampled_from((1, 2, 4, 8)))
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


@settings(max_examples=150, deadline=None)
@given(st.one_of(sparse_algebras(), catalog_mutants()))
def test_axioms_agree_with_oracle(a):
    rep = check_axioms(a)
    assert rep.ok == oracles.oracle_axioms(a)
    _assert_reported_exactly(rep)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_bimodules_agree_with_oracle(data):
    # the regular bimodule of a scaled catalog algebra, perhaps mutated
    a = _scaled(data.draw(st.sampled_from(BIMODULE_BASES)), data.draw(nonzero_rationals))
    reg = regular_bimodule(a)
    m = bimodule_from_entries(int(a.level), a.dim, a.dim,
                              _mutated(data.draw, bimodule_entries(reg)))
    rep = check_bimodule(a, m)
    assert rep.ok == oracles.oracle_bimodule(a, m)
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
