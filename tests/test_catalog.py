import json
from fractions import Fraction
from pathlib import Path

import pytest

from clusteralg import catalog
from clusteralg.bundle import dumps, parse_bundle
from clusteralg.catalog import (CatalogCorrupt, SplitMix64, UnknownEntry,
                                catalog_bundle)
from clusteralg.core import check_axioms
from clusteralg.operators import is_rota_baxter

import oracles


def test_mandatory_entries_present_and_verified():
    assert len(catalog.MANDATORY) == 10
    for name in catalog.MANDATORY:
        entry = catalog.load(name)
        if entry.kind == "algebra":
            assert check_axioms(entry.value).ok
            assert oracles.oracle_axioms(entry.value)
        else:
            base = catalog.load(entry.base).value
            assert is_rota_baxter(base, entry.value).ok
            assert oracles.oracle_rota_baxter(base, entry.value.matrix)


def test_zero_entries_by_dimension():
    a = catalog.load("zero_5").value
    assert a.dim == 5 and int(a.level) == 1
    assert all(t.is_zero() for t in a.sc.values())
    with pytest.raises(UnknownEntry):
        catalog.load("zero_x")
    with pytest.raises(UnknownEntry):
        catalog.load("no_such_entry")


def test_nil2_is_unital_truncation(nil2):
    assert nil2.basis_product("star", 0, 0) == (Fraction(1), Fraction(0))
    assert nil2.basis_product("star", 0, 1) == (Fraction(0), Fraction(1))
    assert nil2.basis_product("star", 1, 1) == (Fraction(0), Fraction(0))


def test_int3_powers_commute(int3):
    j = int3.matrix
    j2 = j @ j
    j3 = j2 @ j
    assert j3.is_zero()
    for a in (j, j2):
        for b in (j, j2):
            assert a @ b == b @ a


def test_corrupted_entry_fails_loudly(nil2):
    from clusteralg.catalog import CatalogEntry, _verify
    from conftest import mutate_algebra
    rng = SplitMix64(3)
    # hunt a genuinely broken mutant, then confirm verification rejects it
    for _ in range(10):
        bad = mutate_algebra(nil2, rng)
        if not oracles.oracle_assoc(bad):
            break
    else:
        pytest.fail("no broken mutant found")
    entry = CatalogEntry("nil2_bad", "algebra", bad, None, "", "")
    with pytest.raises(CatalogCorrupt):
        _verify({}, entry)


def test_random_tensor2_determinism_and_parity():
    a = catalog.random_tensor2(4, "skew", 17)
    b = catalog.random_tensor2(4, "skew", 17)
    assert a.grid == b.grid
    assert a.is_skew()
    assert all(a.grid[i, i] == 0 for i in range(4))
    s = catalog.random_tensor2(4, "sym", 17)
    assert s.is_symmetric()
    assert catalog.random_tensor2(4, "none", 1).grid \
        != catalog.random_tensor2(4, "none", 2).grid
    with pytest.raises(ValueError):
        catalog.random_tensor2(3, "weird", 0)


def test_random_invertible_tensor2_skips_only_singular(monkeypatch):
    def broken(m):
        raise ZeroDivisionError("not a singularity report")

    monkeypatch.setattr(catalog, "row_echelon_pivots", broken)
    with pytest.raises(ZeroDivisionError):
        catalog.random_invertible_tensor2(4, "sym", 0)


def test_random_values_are_small_rationals():
    rng = SplitMix64(5)
    for _ in range(200):
        q = rng.rational()
        assert -4 <= q.numerator <= 4 or abs(q) <= 4
        assert q.denominator in (1, 2, 3)


def test_shipped_bundle_matches_programmatic_catalog():
    data = Path(__file__).resolve().parents[1] / "src/clusteralg/data/catalog.json"
    # byte for byte: `clusteralg ... catalog` reads this file, not the build
    assert data.read_bytes() == dumps(catalog_bundle()).encode("utf-8")
    on_disk = json.loads(data.read_text(encoding="utf-8"))
    parsed = parse_bundle(on_disk)
    for name in catalog.MANDATORY:
        entry = catalog.load(name)
        if entry.kind == "algebra":
            assert parsed.algebras[name].sc == entry.value.sc
        else:
            assert parsed.maps[name].matrix == entry.value.matrix
            assert parsed.ref("maps", name, "algebra") == entry.base
