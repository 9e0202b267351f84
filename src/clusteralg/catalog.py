"""Curated desk-scale examples, each re-verified on load.

The mandatory entries cover every level: truncated polynomial algebras
with their integration operators, the dendriform/quadri/octo structures
those operators induce, a noncommutative triangular-matrix algebra and
zero algebras.  Each entry records where it comes from and which
exhaustive check certifies it; loading a corrupted entry fails loudly.

The deterministic generators used by property tests live here too: a
splitmix64 mixer produces small rationals (numerators in [-4, 4],
denominators in {1, 2, 3}) so that intermediate exact arithmetic stays
small and every test is reproducible from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import bundle as bundle_mod
from .core import (ClusterAlgebra, Report, algebra_from_entries, check_axioms,
                   zero_algebra)
from .forms import BilinearForm
from .linalg import Matrix, row_echelon_pivots
from .operators import (InterMap, is_rota_baxter, rb_finer, rb_pair_quadri,
                        rb_triple_octo)
from .yangbaxter import Tensor2


class UnknownEntry(KeyError):
    pass


class CatalogCorrupt(RuntimeError):
    def __init__(self, name: str, report: Report):
        super().__init__(f"catalog entry {name!r} fails verification")
        self.report = report


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    kind: str                      # "algebra" or "map"
    value: object
    base: str | None               # underlying algebra for maps
    provenance: str
    oracle_note: str


def _trunc(n: int) -> ClusterAlgebra:
    entries = [("star", i, j, i + j, Fraction(1))
               for i in range(n) for j in range(n) if i + j < n]
    return algebra_from_entries(1, n, entries)


def _integration(n: int) -> InterMap:
    rows = [[Fraction(1, j + 1) if i == j + 1 else Fraction(0) for j in range(n)]
            for i in range(n)]
    return InterMap(Matrix(rows))


def _ut2() -> ClusterAlgebra:
    # basis E11, E12, E22 of upper-triangular 2x2 matrices
    one = Fraction(1)
    entries = [("star", 0, 0, 0, one), ("star", 0, 1, 1, one),
               ("star", 1, 2, 1, one), ("star", 2, 2, 2, one)]
    return algebra_from_entries(1, 3, entries)


MANDATORY = ("zero_3", "nil2", "rb_nil2", "trunc3", "int3",
             "dend_from_rb_nil2", "dend_from_int3", "quadri_from_int3_pair",
             "octo_from_int3_triple", "ut2")

EXTRA = ("zero_2", "trunc4", "int4", "quadri_from_int4_pair",
         "octo_from_int4_triple")


@lru_cache(maxsize=1)
def _build() -> dict[str, CatalogEntry]:
    nil2 = algebra_from_entries(1, 2, [("star", 0, 0, 0, 1), ("star", 0, 1, 1, 1),
                                       ("star", 1, 0, 1, 1)])
    rb_nil2 = InterMap(Matrix([[0, 0], [1, 0]]))
    trunc3, trunc4 = _trunc(3), _trunc(4)
    int3, int4 = _integration(3), _integration(4)
    entries = [
        CatalogEntry("zero_2", "algebra", zero_algebra(1, 2), None,
                     "zero product on 2 generators", "all identities vacuous"),
        CatalogEntry("zero_3", "algebra", zero_algebra(1, 3), None,
                     "zero product on 3 generators", "all identities vacuous"),
        CatalogEntry("nil2", "algebra", nil2, None,
                     "polynomials modulo x^2, basis (1, x)",
                     "associativity exhaustively over 8 triples"),
        CatalogEntry("rb_nil2", "map", rb_nil2, "nil2",
                     "nilpotent shift 1 -> x -> 0",
                     "weight-zero identity over 4 basis pairs"),
        CatalogEntry("trunc3", "algebra", trunc3, None,
                     "polynomials modulo x^3", "associativity over 27 triples"),
        CatalogEntry("int3", "map", int3, "trunc3",
                     "integration x^k -> x^(k+1)/(k+1), truncated",
                     "weight-zero identity over 9 basis pairs"),
        CatalogEntry("dend_from_rb_nil2", "algebra", rb_finer(nil2, rb_nil2), "nil2",
                     "dendriform splitting induced by rb_nil2 on nil2",
                     "the three splitting identities over all triples"),
        CatalogEntry("dend_from_int3", "algebra", rb_finer(trunc3, int3), "trunc3",
                     "dendriform splitting induced by int3 on trunc3",
                     "the three splitting identities over all triples"),
        CatalogEntry("quadri_from_int3_pair", "algebra",
                     rb_pair_quadri(trunc3, int3, int3), "trunc3",
                     "four-fold splitting from the commuting pair (int3, int3)",
                     "nine identities over 27 triples"),
        CatalogEntry("octo_from_int3_triple", "algebra",
                     rb_triple_octo(trunc3, int3, int3, int3), "trunc3",
                     "eight-fold splitting from (int3, int3, int3); every "
                     "product has total degree 3 and truncates to zero",
                     "27 identities over 27 triples"),
        CatalogEntry("ut2", "algebra", _ut2(), None,
                     "upper-triangular 2x2 matrices, basis (E11, E12, E22)",
                     "associativity over 27 triples; noncommutative"),
        CatalogEntry("trunc4", "algebra", trunc4, None,
                     "polynomials modulo x^4", "associativity over 64 triples"),
        CatalogEntry("int4", "map", int4, "trunc4",
                     "integration on trunc4", "weight-zero identity over 16 pairs"),
        CatalogEntry("quadri_from_int4_pair", "algebra",
                     rb_pair_quadri(trunc4, int4, int4), "trunc4",
                     "nonzero level-4 example on dimension 4",
                     "nine identities over 64 triples"),
        CatalogEntry("octo_from_int4_triple", "algebra",
                     rb_triple_octo(trunc4, int4, int4, int4), "trunc4",
                     "nonzero level-8 example on dimension 4",
                     "27 identities over 64 triples"),
    ]
    table = {e.name: e for e in entries}
    for entry in table.values():
        _verify(table, entry)
    return table


def _verify(table: dict[str, CatalogEntry], entry: CatalogEntry) -> None:
    if entry.kind == "algebra":
        rep = check_axioms(entry.value)
    elif entry.kind == "map":
        rep = is_rota_baxter(table[entry.base].value, entry.value)
    else:  # pragma: no cover
        raise ValueError(f"unknown catalog kind {entry.kind!r}")
    if not rep.ok:
        raise CatalogCorrupt(entry.name, rep)


def names() -> tuple[str, ...]:
    return tuple(_build())


def load(name: str) -> CatalogEntry:
    """Fetch a verified entry; zero_<d> names are served for any d >= 1."""
    table = _build()
    if name in table:
        return table[name]
    if name.startswith("zero_"):
        try:
            d = int(name.removeprefix("zero_"))
        except ValueError:
            raise UnknownEntry(name) from None
        if d >= 1:
            return CatalogEntry(name, "algebra", zero_algebra(1, d), None,
                                f"zero product on {d} generators",
                                "all identities vacuous")
    raise UnknownEntry(name)


def catalog_bundle() -> dict:
    """The full catalog as a bundle document (shipped as data/catalog.json)."""
    algebras, maps = {}, {}
    for entry in _build().values():
        if entry.kind == "algebra":
            algebras[entry.name] = bundle_mod.serialize_algebra(entry.value)
        else:
            doc = bundle_mod.serialize_intermap(entry.value)
            doc["algebra"] = entry.base
            maps[entry.name] = doc
    return {"field": "Q", "algebras": algebras, "maps": maps}


# ---------------------------------------------------------------------------
# deterministic pseudo-random generators

_M64 = (1 << 64) - 1


class SplitMix64:
    """Seeded 64-bit mixer; identical streams on every platform."""

    def __init__(self, seed: int):
        self.state = seed & _M64

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _M64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        return self.next64() % n

    def rational(self) -> Fraction:
        num = self.randrange(9) - 4
        den = (1, 2, 3)[self.randrange(3)]
        return Fraction(num, den)


def random_matrix(rows: int, cols: int, seed: int) -> Matrix:
    rng = SplitMix64(seed)
    return Matrix([[rng.rational() for _ in range(cols)] for _ in range(rows)])


def _random_grid(dim: int, parity: str, rng: SplitMix64) -> Matrix:
    buf = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            if parity == "none":
                buf[i][j] = rng.rational()
            elif j > i:
                v = rng.rational()
                buf[i][j] = v
                buf[j][i] = v if parity == "sym" else -v
            elif j == i and parity == "sym":
                buf[i][j] = rng.rational()
    return Matrix(buf)


def random_tensor2(dim: int, parity: str, seed: int) -> Tensor2:
    """Deterministic tensor with the requested parity: "skew", "sym" or "none"."""
    if parity not in ("skew", "sym", "none"):
        raise ValueError(f"parity must be skew/sym/none, got {parity!r}")
    return Tensor2(_random_grid(dim, parity, SplitMix64(seed)))


def random_form(dim: int, parity: str, seed: int) -> BilinearForm:
    if parity not in ("skew", "sym", "none"):
        raise ValueError(f"parity must be skew/sym/none, got {parity!r}")
    return BilinearForm(_random_grid(dim, parity, SplitMix64(seed ^ 0xF0F0)))


def random_invertible_tensor2(dim: int, parity: str, seed: int,
                              tries: int = 64) -> Tensor2:
    """First invertible tensor along the seed's resample chain."""
    for k in range(tries):
        t = random_tensor2(dim, parity, seed + 7919 * k)
        if len(row_echelon_pivots(t.grid)) == dim:
            return t
    raise RuntimeError(f"no invertible {parity} tensor found from seed {seed}")
