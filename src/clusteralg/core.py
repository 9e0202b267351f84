"""Finite-dimensional algebras whose product splits into 1, 2, 4 or 8 operations.

A level-N algebra carries N bilinear operations on a d-dimensional
rational vector space, given by structure constants
``c[op][i][j][k]`` with ``e_i op e_j = sum_k c[op][i][j][k] e_k``.
The admissible levels and their operation names:

    1  associative        star
    2  dendriform         succ (>), prec (<)
    4  quadri             se (SE), ne (NE), nw (NW), sw (SW)
    8  octo               se1, se2, ne1, ne2, nw1, nw2, sw1, sw2

Summing designated groups of operations yields the coarser structures
(derived operations below), and each level's defining identities make
those sums associative respectively dendriform respectively quadri.
Only associativity is written out: each operation of level N splits into
a prec and a succ part of level 2N (``SPLIT``), and each identity of level
N into three of level 2N, one per variable (``_split_axioms``).
The axiom checker evaluates every defining identity on every basis
triple and reports exact discrepancies; identity labels such as
"3.4.2-1" are stable ids used throughout reports and the CLI.

Evaluation runs on scaled integers.  ``scaled_fibres`` takes the common
denominator D of the constants of the operations a check reads, scales
each operation once, and stores D c as sparse Python-int fibres
(i, j) -> ((k, D c), ...), zeros dropped; ``listing_fibres`` does the
same for any listing of nonzero constants (the semidirect sums of
``bimodules`` use it).  Every axiom is homogeneous of degree 2 in the
constants, so ``axiom_sums`` yields D^2 times the rational defect: the
zero test is exact, and only a reported discrepancy is divided back, as
Fraction(v, D^2).  Sparse fibres are summed one coordinate at a time
over the nonzero fibres only, so a triple that no product reaches costs
nothing.  Dense fibres (two or more nonzeros each on average,
``is_dense``) are packed: each pair (i, j)'s n x n rows become one int
with one balanced base-2^B digit per coordinate (Kronecker substitution,
``linalg.packed``), so a side costs O(n^3) big-int products, a passing
pair one zero test, and only a failing pair is unpacked.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from itertools import chain
from math import lcm
from operator import itemgetter, mul
from typing import Callable, Iterable, Mapping

from .linalg import (DimensionMismatch, Fraction, Matrix, Tensor3, packed, rat, shown,
                     unpacked, width_for)


class SymbolInvalidAtLevel(ValueError):
    """A derived-operation symbol that has no defining sum at this level."""


class ProjectionInvalidAtLevel(ValueError):
    """A projection target that does not exist at this level."""


class LevelError(ValueError):
    """Operation applied at a level where it is not defined."""


class Level(IntEnum):
    ASSOC = 1
    DEND = 2
    QUADRI = 4
    OCTO = 8

    @property
    def ops(self) -> tuple[str, ...]:
        return _LEVEL_OPS[int(self)]

    @classmethod
    def of(cls, value: int) -> "Level":
        try:
            return cls(value)
        except ValueError:
            raise LevelError("level must be one of 1, 2, 4, 8, "
                             f"got {shown(value)}") from None


_LEVEL_OPS: dict[int, tuple[str, ...]] = {
    1: ("star",),
    2: ("succ", "prec"),
    4: ("se", "ne", "nw", "sw"),
    8: ("se1", "se2", "ne1", "ne2", "nw1", "nw2", "sw1", "sw2"),
}

# Derived operation symbols: componentwise sums of base operations.
# At level 2 the sum product is star; at level 4 succ/prec are the
# horizontal pair, vee/wedge the vertical pair; at level 8 the suffix-i
# families combine depth (se12...), vertical (succ_i/prec_i), horizontal
# (vee_i/wedge_i) and the two Sigma halves, with gg/ll and bigvee/bigwedge
# the dendriform-level sums.
DERIVED_SYMBOLS: dict[int, dict[str, tuple[str, ...]]] = {
    1: {"star": ("star",)},
    2: {"star": ("succ", "prec")},
    4: {
        "star": ("se", "ne", "nw", "sw"),
        "succ": ("ne", "se"),
        "prec": ("nw", "sw"),
        "vee": ("se", "sw"),
        "wedge": ("ne", "nw"),
    },
    8: {
        "star": ("se1", "se2", "ne1", "ne2", "nw1", "nw2", "sw1", "sw2"),
        "se12": ("se1", "se2"), "ne12": ("ne1", "ne2"),
        "nw12": ("nw1", "nw2"), "sw12": ("sw1", "sw2"),
        "succ1": ("ne1", "se1"), "succ2": ("ne2", "se2"),
        "prec1": ("nw1", "sw1"), "prec2": ("nw2", "sw2"),
        "vee1": ("se1", "sw1"), "vee2": ("se2", "sw2"),
        "wedge1": ("ne1", "nw1"), "wedge2": ("ne2", "nw2"),
        "bigvee": ("se1", "sw1", "se2", "sw2"),
        "bigwedge": ("ne1", "nw1", "ne2", "nw2"),
        "gg": ("ne1", "se1", "ne2", "se2"),
        "ll": ("nw1", "sw1", "nw2", "sw2"),
        "sigma1": ("se1", "ne1", "nw1", "sw1"),
        "sigma2": ("se2", "ne2", "nw2", "sw2"),
    },
}


@dataclass(frozen=True)
class Violation:
    """One failed identity: which identity, at which basis witness, off by what."""
    identity_id: str
    witness: tuple[int, ...]
    discrepancy: tuple[Fraction, ...]


@dataclass(frozen=True)
class Report:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:  # pragma: no cover - guard against misuse
        raise TypeError("use Report.ok, not truthiness")

    @staticmethod
    def passing() -> "Report":
        return Report(())


@dataclass(frozen=True, eq=True)
class ClusterAlgebra:
    """Structure constants for one algebra at level 1, 2, 4 or 8."""

    level: Level
    dim: int
    sc: Mapping[str, Tensor3]

    def __post_init__(self):
        level = Level.of(int(self.level))
        object.__setattr__(self, "level", level)
        names = set(level.ops)
        if set(self.sc) != names:
            raise LevelError(f"level {int(level)} needs tensors {sorted(names)}, "
                             f"got {sorted(self.sc)}")
        d = self.dim
        for op, t in self.sc.items():
            if t.dims != (d, d, d):
                raise DimensionMismatch(f"tensor for {op} has dims {t.dims}, want {(d, d, d)}")

    def basis_product(self, op: str, i: int, j: int) -> tuple[Fraction, ...]:
        """Coordinates of e_i op e_j."""
        return self.sc[op].fibre(i, j)


def zero_algebra(level: int, dim: int) -> ClusterAlgebra:
    lv = Level.of(level)
    z = Tensor3.zeros(dim, dim, dim)
    return ClusterAlgebra(lv, dim, {op: z for op in lv.ops})


def algebra_from_entries(level: int, dim: int,
                         entries: Iterable[tuple[str, int, int, int, Fraction]]) -> ClusterAlgebra:
    """Build from a sparse list of (op, i, j, k, value); omitted entries are 0."""
    lv = Level.of(level)
    per_op: dict[str, list[tuple[int, int, int, Fraction]]] = {op: [] for op in lv.ops}
    for op, i, j, k, v in entries:
        if op not in per_op:
            raise LevelError(f"operation {op!r} not defined at level {int(lv)}")
        per_op[op].append((i, j, k, rat(v)))
    sc = {op: Tensor3.from_entries((dim, dim, dim), rows) for op, rows in per_op.items()}
    return ClusterAlgebra(lv, dim, sc)


def algebra_entries(a: ClusterAlgebra) -> list[tuple[str, int, int, int, Fraction]]:
    """Sparse structure-constant listing, deterministically ordered."""
    out = []
    for op in a.level.ops:
        for i, j, k, v in a.sc[op].nonzero():
            out.append((op, i, j, k, v))
    return out


def _parts(level: int, sym: str) -> tuple[str, ...]:
    """The base operations whose sum a base or derived symbol denotes."""
    if sym in _LEVEL_OPS[level]:
        return (sym,)
    table = DERIVED_SYMBOLS[level]
    if sym not in table:
        raise SymbolInvalidAtLevel(f"symbol {sym!r} is not defined at level {level}")
    return table[sym]


def derived_op(a: ClusterAlgebra, sym: str) -> Tensor3:
    """Structure constants of a base or derived operation symbol."""
    parts = _parts(int(a.level), sym)
    acc = a.sc[parts[0]]
    for name in parts[1:]:
        acc = acc + a.sc[name]
    return acc


# Projection targets: which derived symbol feeds each operation of the
# coarser algebra.  Orderings follow the associated-algebra statements;
# in particular the vertical dendriform pair is (vee, wedge) and the
# Sigma dendriform pair is (sigma2, sigma1).
PROJECTIONS: dict[tuple[int, str], dict[str, str]] = {
    (2, "Assoc"): {"star": "star"},
    (4, "HorizDend"): {"succ": "succ", "prec": "prec"},
    (4, "VertDend"): {"succ": "vee", "prec": "wedge"},
    (4, "Assoc"): {"star": "star"},
    (8, "DepthQuadri"): {"se": "se12", "ne": "ne12", "nw": "nw12", "sw": "sw12"},
    (8, "VertQuadri"): {"se": "succ2", "ne": "succ1", "nw": "prec1", "sw": "prec2"},
    (8, "HorizQuadri"): {"se": "vee2", "ne": "wedge2", "nw": "wedge1", "sw": "vee1"},
    (8, "VertDend"): {"succ": "bigvee", "prec": "bigwedge"},
    (8, "HorizDend"): {"succ": "gg", "prec": "ll"},
    (8, "SigmaDend"): {"succ": "sigma2", "prec": "sigma1"},
    (8, "Assoc"): {"star": "star"},
}

_TARGET_LEVEL = {"Assoc": 1, "HorizDend": 2, "VertDend": 2, "SigmaDend": 2,
                 "DepthQuadri": 4, "VertQuadri": 4, "HorizQuadri": 4}


def projection_targets(level: int) -> tuple[str, ...]:
    return tuple(t for (lv, t) in PROJECTIONS if lv == int(level))


def project(a: ClusterAlgebra, target: str) -> ClusterAlgebra:
    """The coarser algebra obtained by summing groups of operations."""
    key = (int(a.level), target)
    if key not in PROJECTIONS:
        raise ProjectionInvalidAtLevel(
            f"no projection {target!r} from level {int(a.level)}")
    sc = {op: derived_op(a, sym) for op, sym in PROJECTIONS[key].items()}
    return ClusterAlgebra(Level.of(_TARGET_LEVEL[target]), a.dim, sc)


def mult_operator(a: ClusterAlgebra, op: str, side: str, i: int) -> Matrix:
    """Matrix of the left/right multiplication by e_i for a base or derived op.

    Left: column j holds e_i op e_j.  Right: column j holds e_j op e_i.
    """
    if not 0 <= i < a.dim:
        raise IndexError(f"basis index {i} out of range for dim {a.dim}")
    t = derived_op(a, op)
    d = a.dim
    if side == "left":
        return Matrix([[t.get(i, j, k) for j in range(d)] for k in range(d)])
    if side == "right":
        return Matrix([[t.get(j, i, k) for j in range(d)] for k in range(d)])
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def opposite(a: ClusterAlgebra) -> ClusterAlgebra:
    """The opposite algebra c'[i][j][k] = c[j][i][k] (level 1 only)."""
    if a.level != Level.ASSOC:
        raise LevelError("opposite algebra is defined at level 1 only")
    d = a.dim
    t = a.sc["star"]
    opp = Tensor3.build((d, d, d), lambda i, j, k: t.get(j, i, k))
    return ClusterAlgebra(Level.ASSOC, d, {"star": opp})


def opposite_check(a: ClusterAlgebra) -> Report:
    """Axiom report of the opposite algebra."""
    return check_axioms(opposite(a))


# ---------------------------------------------------------------------------
# axiom tables
#
# Each identity is a pair of single terms.  ("L", outer, inner) denotes
# (x inner y) outer z and ("R", outer, inner) denotes x outer (y inner z);
# both sides must agree on every basis triple (x, y, z) = (e_i, e_j, e_k).

_Term = tuple[str, str, str]
_Table = tuple[tuple[str, _Term, _Term], ...]

# level -> op -> (prec part, succ part) at twice the level
SPLIT: dict[int, dict[str, tuple[str, str]]] = {
    1: {"star": ("prec", "succ")},
    2: {"succ": ("ne", "se"), "prec": ("nw", "sw")},
    4: {op: (op + "1", op + "2") for op in _LEVEL_OPS[4]},
}

# Per shape, per variable x, y, z, the parts of (outer, inner) a split side
# keeps: on the path from the root to the variable, the prec part where it
# lies left and the succ part where it lies right; off the path, both.
_P, _S, _B = (0,), (1,), (0, 1)
_SIDES = {"L": ((_P, _P), (_P, _S), (_S, _B)), "R": ((_P, _B), (_S, _P), (_S, _S))}

# The paper's id of the identity that variable v (1, 2, 3) splits from the
# b-th identity of the level below, whose id is parent.
_AXIOM_IDS = {1: lambda parent, v, b: f"2.1.5-{v}",
              2: lambda parent, v, b: f"3.4.{v}-{b}",
              4: lambda parent, v, b: f"4.4.{3 * v - 3 + int(parent[4])}-{parent[6:]}"}


def _split_axioms(level: int, parent: _Table) -> _Table:
    """The identities of level 2N from parent, those of level N: the variable
    as the outer loop and the parent identity as the inner one; a term names
    the base or derived symbol whose parts are the set its side keeps."""
    split, finer = SPLIT[level], 2 * level
    names = {frozenset(_parts(finer, sym)): sym
             for sym in (*_LEVEL_OPS[finer], *DERIVED_SYMBOLS[finer])}

    def part(sym: str, keep: tuple[int, ...]) -> str:
        return names[frozenset(split[op][k] for op in _parts(level, sym) for k in keep)]

    return tuple(
        (_AXIOM_IDS[level](ident, v + 1, b),
         *((shape, part(outer, _SIDES[shape][v][0]), part(inner, _SIDES[shape][v][1]))
           for shape, outer, inner in sides))
        for v in range(3) for b, (ident, *sides) in enumerate(parent, 1))


AXIOMS: dict[int, _Table] = {1: (("assoc", ("L", "star", "star"), ("R", "star", "star")),)}
for _level in SPLIT:
    AXIOMS[2 * _level] = _split_axioms(_level, AXIOMS[_level])


# Sparse integer fibres: (i, j) -> ((k, c), ...) with every c nonzero.
Fibres = dict[tuple[int, int], tuple[tuple[int, int], ...]]

# The symbols the axioms of each level read.
_AXIOM_SYMBOLS = {level: {s for _, lhs, rhs in table for s in (*lhs[1:], *rhs[1:])}
                  for level, table in AXIOMS.items()}


def scaled_fibres(a: ClusterAlgebra, syms: Iterable[str] | None = None
                  ) -> tuple[int, dict[str, Fibres]]:
    """A common denominator D and, per symbol, D times its structure
    constants as sparse integer fibres (``listing_fibres`` of a's tensors).
    syms defaults to every symbol the axioms of a's level read."""
    return listing_fibres(int(a.level), lambda op: a.sc[op].nonzero(), syms)


def listing_fibres(level: int, listing: Callable[[str], Iterable[tuple[int, int, int, Fraction]]],
                   syms: Iterable[str] | None = None) -> tuple[int, dict[str, Fibres]]:
    """``scaled_fibres`` of the level-`level` operations whose nonzero
    constants listing(op) lists as (i, j, k, value), each position once.

    Only the base operations the symbols name are read, each once: D is
    the lcm of their constants' denominators, each is scaled to integers
    once, and a derived symbol's fibres are sums of its parts' integer
    rows, so every entry is an integer."""
    if syms is None:
        syms = _AXIOM_SYMBOLS[level]
    parts = {sym: _parts(level, sym) for sym in syms}
    entries = {op: list(listing(op)) for op in set().union(*parts.values())}
    den = lcm(*{v.denominator for rows in entries.values() for _, _, _, v in rows})
    base: dict[str, dict[tuple[int, int], dict[int, int]]] = {}
    for op, rows in entries.items():
        acc = base[op] = {}
        for i, j, k, v in rows:
            row = acc.get((i, j))
            if row is None:
                row = acc[i, j] = {}
            p, q = v.as_integer_ratio()
            row[k] = p * (den // q)
    out = {}
    for sym, ops in parts.items():
        if len(ops) == 1:
            out[sym] = {ij: tuple(row.items()) for ij, row in base[ops[0]].items()}
            continue
        acc = {}
        for op in ops:
            for ij, row in base[op].items():
                have = acc.get(ij)
                if have is None:
                    acc[ij] = dict(row)
                else:
                    for k, c in row.items():
                        have[k] = have.get(k, 0) + c
        out[sym] = {ij: nz for ij, row in acc.items()
                    if (nz := tuple((k, c) for k, c in row.items() if c))}
    return den, out


_VALUE = itemgetter(1)


def largest_entry(cols: Iterable[Iterable[tuple[int, int]]]) -> int:
    """The largest |v| over sparse integer columns or fibres of (index, v)."""
    return max(map(abs, map(_VALUE, chain.from_iterable(cols))), default=0)


def is_dense(*fibres: Fibres) -> bool:
    """Whether the fibres hold two or more nonzeros on average: the choice
    between a sparse and a packed contraction."""
    count = sum(map(len, fibres))
    if not count:
        return False
    nonzeros = 0
    for fib in fibres:
        nonzeros += sum(map(len, fib.values()))
    return nonzeros >= 2 * count


def axiom_sums(axiom: tuple[str, _Term, _Term], fibres: Mapping[str, Fibres], n: int,
               skip: int = 0) -> dict[tuple[int, int, int], list[int]]:
    """lhs - rhs of one axiom, keyed (i, j, k), on each basis triple of an
    n-dimensional algebra that a nonzero product reaches (the others have
    defect 0; some rows reached may be zero too), in the integers of
    ``scaled_fibres``: D^2 times the rational defect.  With skip = s the
    outer operation reads no fibre (p, q) with p, q < s.

    Sparse fibres go through ``_sparse_sums``, dense ones (``is_dense``)
    through ``_packed_sums``, which packs each coordinate vector into one
    int.  With K the largest absolute constant the axiom reads, each
    coordinate of lhs - rhs is a sum of at most n products per side, so
    its absolute value is at most 2 n K^2, and the packed path's digit
    width B = bit_length(2 n K^2) + 1 holds it as one balanced digit."""
    (_, outer, inner), (_, outer2, inner2) = axiom[1:]
    dense = is_dense(fibres[outer], fibres[inner], fibres[outer2], fibres[inner2])
    return (_packed_sums if dense else _sparse_sums)(axiom, fibres, n, skip)


def _sparse_sums(axiom, fibres, n, skip):
    """``axiom_sums`` one coordinate at a time: per side, the outer
    operation's fibres are indexed by the slot the inner product feeds,
    and each nonzero inner product is multiplied into those only."""
    acc: dict[tuple[int, int, int], list[int]] = {}
    for sign, (shape, outer, inner) in zip((1, -1), axiom[1:]):
        left = shape == "L"  # (e_i inner e_j) outer e_k, else e_i outer (e_j inner e_k)
        fed: dict[int, list[tuple[int, tuple[tuple[int, int], ...]]]] = {}
        for (p, q), fibre in fibres[outer].items():
            if p >= skip or q >= skip:
                fed.setdefault(p if left else q, []).append((q if left else p, fibre))
        for (p, q), fibre in fibres[inner].items():
            for m, c in fibre:
                c *= sign
                for r, out in fed.get(m, ()):
                    key = (p, q, r) if left else (r, p, q)
                    row = acc.get(key)
                    if row is None:
                        row = acc[key] = [0] * n
                    for t, v in out:
                        row[t] += c * v
    return acc


def _packed_sums(axiom, fibres, n, skip):
    """``axiom_sums`` with each pair (i, j)'s rows packed into one int, the
    coordinate (k, t) at digit n k + t.  The L side (e_i inner e_j) outer
    e_k adds inner[i,j,m] P_m, with P_m = sum outer[m,k,t] 2^(B(nk+t)); the
    R side e_i outer (e_j inner e_k) subtracts sum_m Q_{j,m} R_{i,m}, with
    Q_{j,m} = sum_k inner[j,k,m] 2^(Bnk) and R_{i,m} = sum_t outer[i,m,t]
    2^(Bt).  Only a nonzero pair is unpacked, into its nonzero rows."""
    big = max(largest_entry(fibres[s].values()) for s in {*axiom[1][1:], *axiom[2][1:]})
    width = width_for(2 * n * big * big)
    acc: dict[tuple[int, int], int] = {}
    for sign, (shape, outer, inner) in zip((1, -1), axiom[1:]):
        kept = [(pq, fibre) for pq, fibre in fibres[outer].items()
                if pq[0] >= skip or pq[1] >= skip]
        if shape == "L":
            p = [0] * n
            for (m, k), fibre in kept:
                p[m] += sign * packed(fibre, width) << (width * n * k)
            for ij, fibre in fibres[inner].items():
                if v := sum(c * p[m] for m, c in fibre):
                    acc[ij] = acc.get(ij, 0) + v
        else:
            q: dict[int, list[int]] = {}
            for (j, k), fibre in fibres[inner].items():
                qj = q.get(j) or q.setdefault(j, [0] * n)
                for m, c in fibre:
                    qj[m] += c << (width * n * k)
            r: dict[int, list[int]] = {}
            for (i, m), fibre in kept:
                r.setdefault(i, [0] * n)[m] = sign * packed(fibre, width)
            for i, ri in r.items():
                for j, qj in q.items():
                    if v := sum(map(mul, qj, ri)):
                        acc[i, j] = acc.get((i, j), 0) + v
    rows = {}
    for (i, j), x in acc.items():
        if x:
            digits = unpacked(x, n * n, width)
            for k in range(n):
                row = digits[n * k:n * k + n]
                if any(row):
                    rows[i, j, k] = row
    return rows


def check_axioms(a: ClusterAlgebra) -> Report:
    """Evaluate every defining identity of a's level on all basis triples
    (``axiom_sums``); violations come in triple order per identity."""
    den, fibres = scaled_fibres(a)
    return Report(tuple(
        Violation(axiom[0], key, tuple(Fraction(v, den * den) for v in row))
        for axiom in AXIOMS[int(a.level)]
        for key, row in sorted(axiom_sums(axiom, fibres, a.dim).items()) if any(row)))
