from __future__ import annotations

from fractions import Fraction

import pytest

from clusteralg import catalog
from clusteralg.catalog import SplitMix64
from clusteralg.core import (ClusterAlgebra, Tensor3, algebra_entries,
                             algebra_from_entries)
from clusteralg.linalg import Matrix
from clusteralg.operators import InterMap

import oracles


def entry(name: str):
    return catalog.load(name).value


@pytest.fixture(scope="session")
def nil2():
    return entry("nil2")


@pytest.fixture(scope="session")
def trunc3():
    return entry("trunc3")


@pytest.fixture(scope="session")
def ut2():
    return entry("ut2")


@pytest.fixture(scope="session")
def rb_nil2():
    return entry("rb_nil2")


@pytest.fixture(scope="session")
def int3():
    return entry("int3")


@pytest.fixture(scope="session")
def dend_rb():
    return entry("dend_from_rb_nil2")


@pytest.fixture(scope="session")
def dend_int3():
    return entry("dend_from_int3")


@pytest.fixture(scope="session")
def quadri3():
    return entry("quadri_from_int3_pair")


@pytest.fixture(scope="session")
def quadri4():
    return entry("quadri_from_int4_pair")


@pytest.fixture(scope="session")
def octo3():
    return entry("octo_from_int3_triple")


@pytest.fixture(scope="session")
def octo4():
    return entry("octo_from_int4_triple")


def _fresh_value(rng: SplitMix64, old: Fraction) -> Fraction:
    while True:
        v = rng.rational()
        if v != old:
            return v


def mutate_algebra(a: ClusterAlgebra, rng: SplitMix64) -> ClusterAlgebra:
    """Change one structure constant to a different random value."""
    ops = a.level.ops
    op = ops[rng.randrange(len(ops))]
    d = a.dim
    i, j, k = (rng.randrange(d) for _ in range(3))
    old = a.sc[op].get(i, j, k)
    entries = [(p, q, t, v) for p, q, t, v in a.sc[op].nonzero()
               if (p, q, t) != (i, j, k)]
    entries.append((i, j, k, _fresh_value(rng, old)))
    sc = dict(a.sc)
    sc[op] = Tensor3.from_entries((d, d, d), entries)
    return ClusterAlgebra(a.level, d, sc)


def mutate_map(t: InterMap, rng: SplitMix64) -> InterMap:
    rows, cols = t.matrix.shape
    i, j = rng.randrange(rows), rng.randrange(cols)
    old = t.matrix[i, j]
    buf = [list(t.matrix.row(r)) for r in range(rows)]
    buf[i][j] = _fresh_value(rng, old)
    return InterMap(Matrix(buf))


def killing_mutations(kind: str, value, base, seed: int, count: int = 10,
                      attempts: int = 8):
    """Single-entry mutants, preferring ones the brute-force oracle certifies
    as genuinely broken (equivalent mutants are resampled up to `attempts`
    times and may still slip through, which callers must tolerate)."""
    rng = SplitMix64(seed)
    out = []
    for _ in range(count):
        chosen = None
        for _ in range(attempts):
            if kind == "algebra":
                cand = mutate_algebra(value, rng)
                broken = not oracles.oracle_axioms(cand)
            else:
                cand = mutate_map(value, rng)
                broken = not oracles.oracle_rota_baxter(base, cand.matrix)
            chosen = (cand, broken)
            if broken:
                break
        out.append(chosen)
    return out


def rebased(a: ClusterAlgebra, lam) -> ClusterAlgebra:
    """a in the basis f_i = lam_i e_i: f_i op f_j = sum_k (lam_i lam_j /
    lam_k) c[op][i][j][k] f_k, an algebra of a's kind exactly when a is."""
    return algebra_from_entries(int(a.level), a.dim, [
        (op, i, j, k, v * lam[i] * lam[j] / lam[k])
        for op, i, j, k, v in algebra_entries(a)])


def rebased_map(t: InterMap, lam, c=1) -> InterMap:
    """c times t in the basis f_i = lam_i e_i of its (square) space."""
    d = t.source_dim
    return InterMap(Matrix([[c * t.matrix[i, j] * lam[j] / lam[i] for j in range(d)]
                            for i in range(d)]))
