"""O-operators, Rota-Baxter operators and the finer structures they induce.

A linear map T: V -> A is an O-operator for a bimodule (l, r, V) when

    T(u) op T(v) = T( l_op(T(u)) v + r_op(T(v)) u )

holds for every operation op of the algebra's level, i.e. when the graph
{(T u, u)} is closed under every operation of the semidirect sum
A (+) V, which is how ``is_o_operator`` checks it.  Rota-Baxter
operators (weight 0) are the special case of the regular bimodule, and
every O-operator transplants the algebra structure to V with twice as
many operations; an invertible O-operator transports that structure
back onto A itself, compatibly with the original product.

The graph test, the homomorphism test, induction and the conjugation by
an invertible T carry products along maps, and each is one integer
contraction, ``_transported``, with its own maps, on the fibres of A (+) V
(``bimodules.semidirect_fibres``) or of an algebra; a result is divided
back only when reported or stored.  A Rota-Baxter operator induces on
A's own fibres (``_rb_tower``): ``rb_finer`` is one step, and the pair and
triple are two and three steps with commuting operators, each step one
contraction per new operation on the integer rows of the step before.
Sparse fibres are contracted one coordinate at a time; dense ones
(``core.is_dense``) pack each column of the out map into one int, so a
fibre (s, t) becomes one int out(op(e_s, e_t)) and a pair (i, j) one
sum of those with one zero test, each digit wide enough for the maps'
column 1-norms, the largest fibre 1-norm and the largest out entry.

Inducing operations re-verify their output by default (post-verification
is cheap at these dimensions and catches violated preconditions); pass
verify=False to skip.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .bimodules import Bimodule, PreconditionFailed, regular_bimodule, semidirect_fibres
from .core import (PROJECTIONS, SPLIT, ClusterAlgebra, Fibres, Level, LevelError,
                   Report, Violation, check_axioms, is_dense, largest_entry, project,
                   scaled_fibres)
from .linalg import (DimensionMismatch, Fraction, Matrix, Tensor3, packed, unpacked,
                     width_for)


class NotCommuting(ValueError):
    """A construction that needs commuting operators got a non-commuting pair."""


class NotRotaBaxter(PreconditionFailed):
    """A map required to be Rota-Baxter is not; carries the report."""


class VerificationFailed(RuntimeError):
    """Post-verification of a construction's output found violations."""

    def __init__(self, message: str, report: Report):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class InterMap:
    """Linear map V -> A; column j holds the coordinates of T(v_j)."""

    matrix: Matrix

    @property
    def source_dim(self) -> int:
        return self.matrix.cols

    @property
    def target_dim(self) -> int:
        return self.matrix.rows

    @classmethod
    def identity(cls, dim: int) -> "InterMap":
        return cls(Matrix.identity(dim))

    @classmethod
    def zero(cls, target_dim: int, source_dim: int) -> "InterMap":
        return cls(Matrix.zeros(target_dim, source_dim))

    def __call__(self, vec) -> tuple[Fraction, ...]:
        return self.matrix.apply(vec)


# A linear map as ``Matrix.scaled_cols`` gives it: a denominator D and D
# times the map as sparse integer columns, column c listing (row, value).
Scaled = tuple[int, list[list[tuple[int, int]]]]


def _units(rows: Iterable[int]) -> Scaled:
    """The map whose column c is e_rows[c]: an identity or an inclusion."""
    return 1, [[(r, 1)] for r in rows]


def _transported(den: int, fib: Fibres, left: Scaled, right: Scaled, out: Scaled,
                 n: int) -> tuple[dict[tuple[int, int], list[int]], int]:
    """x o y = out(op(left x, right y)) on basis vectors, from op's fibres
    scaled by den (``scaled_fibres``), for maps left, right into op's space
    and out from it into an n-dimensional one.  Returns the nonzero rows
    (i, j) -> den D_l D_r D_out (e_i o e_j) in pair order, on integers, and
    that divisor.  Sparse fibres are contracted one coordinate at a time,
    dense ones (``core.is_dense``) on packed ints (``_packed_rows``)."""
    return _contract(fib, left[1], right[1], out[1], n), den * left[0] * right[0] * out[0]


def _contract(fib: Fibres, lcols, rcols, ocols, n: int) -> dict[tuple[int, int], list[int]]:
    """``_transported``'s rows, for maps given by their integer columns."""
    return (_packed_rows if is_dense(fib) else _sparse_rows)(fib, lcols, rcols, ocols, n)


def _sparse_rows(fib, lcols, rcols, ocols, n):
    """``_contract`` one coordinate at a time, over the nonzero fibres only:
    fibre (s, t) feeds each pair (i, j) whose left column i reads s and
    whose right column j reads t."""
    lrows = _by_row(lcols)
    rrows = lrows if rcols is lcols else _by_row(rcols)
    acc: dict[tuple[int, int], list[int]] = {}
    for (s, t), fibre in fib.items():
        if (ls := lrows.get(s)) and (rt := rrows.get(t)):
            for i, sv in ls:
                for j, tv in rt:
                    c = sv * tv
                    q = acc.get((i, j))
                    if q is None:
                        q = acc[i, j] = [0] * n
                    for m, v in fibre:
                        cv = c * v
                        for k, ov in ocols[m]:
                            q[k] += cv * ov
    return {ij: acc[ij] for ij in sorted(acc) if any(acc[ij])}


def _by_row(cols) -> dict[int, list[tuple[int, int]]]:
    """Sparse integer columns indexed by row: r -> [(column, value)]."""
    rows: dict[int, list[tuple[int, int]]] = {}
    for c, col in enumerate(cols):
        for r, v in col:
            rows.setdefault(r, []).append((c, v))
    return rows


def _norm(cols) -> int:
    """The largest column 1-norm of sparse integer columns or fibres."""
    return max((sum(abs(v) for _, v in col) for col in cols), default=0)


def _bound(fib: Fibres, lcols, rcols, ocols) -> int:
    """A bound on every coordinate of a product ``_transported`` returns:
    |out(op(left x, right y))_k| is at most |x|_1 |y|_1 times the largest
    fibre 1-norm times the largest |out| entry."""
    return _norm(lcols) * _norm(rcols) * _norm(fib.values()) * largest_entry(ocols)


def _packed_rows(fib, lcols, rcols, ocols, n):
    """``_contract`` on packed ints, each digit wide enough for ``_bound``:
    each fibre (s, t) becomes one int out(op(e_s, e_t)), pair (i, j) is
    sum sv tv out(op(e_s, e_t)) over the entries sv of column i of left
    and tv of column j of right, and only a nonzero pair is unpacked."""
    width = width_for(_bound(fib, lcols, rcols, ocols))
    outs = [packed(col, width) for col in ocols]
    by_t: dict[int, list[tuple[int, int]]] = {}  # t -> [(s, out(op(e_s, e_t)))]
    for (s, t), fibre in fib.items():
        if v := sum(c * outs[m] for m, c in fibre):
            by_t.setdefault(t, []).append((s, v))
    ys = []  # per column y of right: s -> out(op(e_s, right y))
    for y in rcols:
        acc: dict[int, int] = {}
        for t, tv in y:
            for s, v in by_t.get(t, ()):
                acc[s] = acc.get(s, 0) + tv * v
        ys.append(acc)
    rows = {}
    for i, x in enumerate(lcols):
        for j, acc in enumerate(ys):
            if acc and (v := sum(sv * acc[s] for s, sv in x if s in acc)):
                rows[i, j] = unpacked(v, n, width)
    return rows


def _tensor(rows: dict[tuple[int, int], list[int]], divisor: int, n: int) -> Tensor3:
    """The n x n x n structure constants whose rows (i, j), times divisor,
    are rows, in Fraction."""
    return Tensor3.from_entries((n, n, n), [(i, j, k, Fraction(v, divisor))
                                            for (i, j), row in rows.items()
                                            for k, v in enumerate(row) if v])


# Identity ids for the per-operation O-operator conditions.
_O_IDENTITY_IDS = {
    1: {"star": "2.1.3"},
    2: {"succ": "3.3.1-succ", "prec": "3.3.1-prec"},
    4: {"se": "4.2.1", "ne": "4.2.2", "nw": "4.2.3", "sw": "4.2.4"},
}


def is_o_operator(a: ClusterAlgebra, m: Bimodule, t: InterMap) -> Report:
    """Check that the graph of T is closed under every operation of A (+) V.

    With g_i = (T v_i, v_i), the product g_i op g_j in the semidirect sum
    is (T v_i op T v_j, l_op(T v_i) v_j + r_op(T v_j) v_i), which lies on
    the graph exactly when its A-part is T of its V-part.  The violation
    at witness (i, j) carries the discrepancy A-part - T(V-part).
    """
    if int(a.level) != int(m.level):
        raise LevelError("algebra and bimodule levels differ")
    if a.dim != m.algebra_dim or t.target_dim != a.dim or t.source_dim != m.module_dim:
        raise DimensionMismatch("map does not fit the algebra/bimodule pair")
    d = a.dim
    den, fibres = semidirect_fibres(a, m, a.level.ops)
    den_t, cols = t.matrix.scaled_cols()
    # u -> (T v_u, v_u), and (x, v) -> x - T(v) on A (+) V, each times D_T
    graph = den_t, [col + [(d + u, den_t)] for u, col in enumerate(cols)]
    defect = den_t, ([[(k, den_t)] for k in range(d)]
                     + [[(r, -v) for r, v in col] for col in cols])
    ids = _O_IDENTITY_IDS[int(a.level)]
    violations = []
    for op in a.level.ops:
        rows, divisor = _transported(den, fibres[op], graph, graph, defect, d)
        violations.extend(Violation(ids[op], ij, tuple(Fraction(v, divisor) for v in row))
                          for ij, row in rows.items())
    return Report(tuple(violations))


def is_rota_baxter(a: ClusterAlgebra, r: InterMap) -> Report:
    """Weight-zero Rota-Baxter check: O-operator for the regular bimodule.

    At levels 2 and 4 this is the identity R(x) op R(y) =
    R(R(x) op y + x op R(y)) for every splitting operation.
    """
    if a.level == Level.OCTO:
        raise LevelError("no regular bimodule at level 8, so no Rota-Baxter check")
    if r.source_dim != a.dim or r.target_dim != a.dim:
        raise DimensionMismatch("Rota-Baxter candidate must be a square map on A")
    return is_o_operator(a, regular_bimodule(a), r)


# Per finer operation: ("l", op), u NEW v = l_op(T(u)) v, for the succ part
# of op (``core.SPLIT``), and ("r", op), u NEW v = r_op(T(v)) u, for its prec part.
_INDUCTION: dict[int, dict[str, tuple[str, str]]] = {
    level: {new: (side, op) for op, parts in split.items()
            for side, new in zip("rl", parts)}
    for level, split in SPLIT.items()}

_CANONICAL_COARSER = {2: "Assoc", 4: "HorizDend", 8: "DepthQuadri"}


def induced_tensors(a: ClusterAlgebra, m: Bimodule,
                    t: InterMap) -> dict[str, Tensor3]:
    """Structure constants of the doubled-level product on the module."""
    d, md = a.dim, m.module_dim
    return _induced(a, m, t.matrix.scaled_cols(), _units(range(d, d + md)),
                    _units(range(md)), md)


def _induced(a: ClusterAlgebra, m: Bimodule, t: Scaled, inc: Scaled,
             out: Scaled, n: int) -> dict[str, Tensor3]:
    """Per operation of the finer level, x NEW y = out(l_op(T x) inc y) or
    out(r_op(T y) inc x) as ``_INDUCTION`` says, read off the fibres of
    A (+) V as op(T x, inc y) or op(inc x, T y) projected to V.  T maps
    into A and inc into V, both as coordinates of A (+) V; out maps V into
    an n-dimensional space."""
    den, fibres = semidirect_fibres(a, m, a.level.ops)
    after = out[0], [[]] * a.dim + out[1]  # out after the projection to V
    sides = {"l": (t, inc), "r": (inc, t)}
    return {new: _tensor(*_transported(den, fibres[op], *sides[side], after, n), n)
            for new, (side, op) in _INDUCTION[int(a.level)].items()}


def induce_on_module(a: ClusterAlgebra, m: Bimodule, t: InterMap,
                     check: bool = True, verify: bool = True) -> ClusterAlgebra:
    """The finer (level-doubled) algebra an O-operator puts on its module.

    With check=True the O-operator identity is verified first; with
    verify=True the output is re-checked (axioms at the doubled level and
    T a homomorphism onto the coarser projection).
    """
    if check:
        rep = is_o_operator(a, m, t)
        if not rep.ok:
            raise PreconditionFailed("map is not an O-operator", rep)
    finer = ClusterAlgebra(Level.of(2 * int(a.level)), m.module_dim,
                           induced_tensors(a, m, t))
    if verify:
        _verify_induced(finer, a, t)
    return finer


def _verify_induced(finer: ClusterAlgebra, a: ClusterAlgebra, t: InterMap) -> None:
    """The axioms of an induced algebra, then T a homomorphism onto a."""
    rep = check_axioms(finer)
    if not rep.ok:
        raise VerificationFailed("induced algebra fails its axioms", rep)
    hom = homomorphism_report(finer, a, t)
    if not hom.ok:
        raise VerificationFailed("induced map is not a homomorphism", hom)


def homomorphism_report(finer: ClusterAlgebra, a: ClusterAlgebra,
                        t: InterMap) -> Report:
    """Check T(u coarse-op v) = T(u) op T(v) on all basis pairs, where
    coarse-op runs over the canonical projection of the finer algebra
    matching a's level.  Both sides are products transported on integers:
    T(u coarse-op v) through (id, id, T) on finer's fibres and T(u) op T(v)
    through (T, T, id) on a's, each out map scaled by the other side's
    divisor, so that a pair holds exactly when its two integer rows are
    equal; a defect is divided back only when reported."""
    level = int(finer.level)
    coarse = PROJECTIONS[(level, _CANONICAL_COARSER[level])]
    if level // 2 != int(a.level):
        raise LevelError("homomorphism target level mismatch")
    if t.source_dim != finer.dim or t.target_dim != a.dim:
        raise DimensionMismatch("map does not fit the two algebras")
    den_f, src = scaled_fibres(finer, coarse.values())
    den_a, dst = scaled_fibres(a, a.level.ops)
    den_t, tcols = t.matrix.scaled_cols()
    one_f = _units(range(finer.dim))[1]
    # each out map carries the other side's divisor, so that both sides are
    # den_f den_a D_T^2 times their values
    lout = [[(k, den_a * den_t * v) for k, v in col] for col in tcols]
    rout = [[(k, den_f)] for k in range(a.dim)]
    divisor = den_f * den_a * den_t * den_t
    zero = [0] * a.dim
    violations = []
    for op in a.level.ops:
        lhs = _contract(src[coarse[op]], one_f, one_f, lout, a.dim)
        rhs = _contract(dst[op], tcols, tcols, rout, a.dim)
        for ij in sorted(lhs.keys() | rhs.keys()):
            x, y = lhs.get(ij, zero), rhs.get(ij, zero)
            if x != y:
                violations.append(Violation(f"hom-{op}", ij, tuple(
                    Fraction(u - v, divisor) for u, v in zip(x, y))))
    return Report(tuple(violations))


def rb_finer(a: ClusterAlgebra, r: InterMap,
             verify: bool = True) -> ClusterAlgebra:
    """Finer algebra from a Rota-Baxter operator (regular-bimodule induction).

    Level 1 -> 2: x > y = R(x)*y, x < y = x*R(y); level 2 -> 4 splits each
    dendriform product the same way; level 4 -> 8 splits each quadri
    product, index 1 acting through R on the right argument.
    """
    _require_rb(a, r, "map")
    finer = _rb_tower(a, (r,))
    if verify:
        _verify_induced(finer, a, r)
    return finer


def _rb_tower(a: ClusterAlgebra, maps: Iterable[InterMap]) -> ClusterAlgebra:
    """``rb_finer`` with each map in turn, unchecked and unverified: one
    ``_contract`` per new operation (``_INDUCTION``) through (R, id) or (id, R)
    on the integer fibres of the level before, over a divisor that gains D_R
    per map; a's fibres are scaled once, and only the last level becomes
    Fraction."""
    level, n = int(a.level), a.dim
    den, fibres = scaled_fibres(a, a.level.ops)
    one = _units(range(n))[1]
    for r in maps:
        den_r, cols = r.matrix.scaled_cols()
        sides = {"l": (cols, one), "r": (one, cols)}
        rows = {new: _contract(fibres[op], *sides[side], one, n)
                for new, (side, op) in _INDUCTION[level].items()}
        fibres = {new: {ij: tuple((k, v) for k, v in enumerate(row) if v)
                        for ij, row in pairs.items()} for new, pairs in rows.items()}
        den, level = den * den_r, 2 * level
    return ClusterAlgebra(Level.of(level), n,
                          {op: _tensor(pairs, den, n) for op, pairs in rows.items()})


def _require_rb(a: ClusterAlgebra, r: InterMap, name: str) -> None:
    rep = is_rota_baxter(a, r)
    if not rep.ok:
        raise NotRotaBaxter(f"{name} is not a Rota-Baxter operator", rep)


def rb_pair_quadri(a: ClusterAlgebra, r1: InterMap, r2: InterMap,
                   verify: bool = True) -> ClusterAlgebra:
    """Quadri structure from two commuting Rota-Baxter operators:

        x SE y = R1R2(x)*y     x NE y = R1(x)*R2(y)
        x SW y = R2(x)*R1(y)   x NW y = x*R1R2(y)

    that is ``rb_finer`` with R1, then with R2, which is Rota-Baxter for
    the dendriform algebra R1 induces because the two commute.
    """
    return _commuting_tower(a, (r1, r2), (0, 1), "pair", "quadri", verify)


def rb_triple_octo(a: ClusterAlgebra, r1: InterMap, r2: InterMap, r3: InterMap,
                   verify: bool = True) -> ClusterAlgebra:
    """Octo structure from three pairwise commuting Rota-Baxter operators:

        x se1 y = R2R3(x)*R1(y)    x se2 y = R1R2R3(x)*y
        x ne1 y = R2(x)*R1R3(y)    x ne2 y = R1R2(x)*R3(y)
        x sw1 y = R3(x)*R1R2(y)    x sw2 y = R1R3(x)*R2(y)
        x nw1 y = x*R1R2R3(y)      x nw2 y = R1(x)*R2R3(y)

    that is ``rb_finer`` with R2, then R3, then R1 (R1 last; another order
    gives another algebra).
    """
    return _commuting_tower(a, (r1, r2, r3), (1, 2, 0), "triple", "octo", verify)


def _commuting_tower(a: ClusterAlgebra, maps: tuple[InterMap, ...], order: tuple[int, ...],
                     name: str, kind: str, verify: bool) -> ClusterAlgebra:
    """The pair or triple construction: a level-1 algebra, then each map
    Rota-Baxter and all commuting, then ``_rb_tower`` in order."""
    if a.level != Level.ASSOC:
        raise LevelError(f"{name} construction starts from a level-1 algebra")
    for i, r in enumerate(maps, 1):
        _require_rb(a, r, f"r{i}")
    for i, j in combinations(range(len(maps)), 2):
        if maps[i].matrix @ maps[j].matrix != maps[j].matrix @ maps[i].matrix:
            raise NotCommuting(f"operators {i + 1} and {j + 1} do not commute")
    out = _rb_tower(a, [maps[i] for i in order])
    if verify:
        rep = check_axioms(out)
        if not rep.ok:
            raise VerificationFailed(f"{name} construction fails {kind} axioms", rep)
    return out


def compatible_from_invertible(a: ClusterAlgebra, m: Bimodule, t: InterMap,
                               check: bool = True,
                               verify: bool = True) -> ClusterAlgebra:
    """Finer structure on A itself from an invertible O-operator.

    Conjugates the module-side induction by T, so the result lives on A
    and its canonical coarser projection is a, exactly.  Only square T
    is supported.
    """
    if t.source_dim != t.target_dim:
        raise DimensionMismatch("compatible structure needs a square invertible map")
    if check:
        rep = is_o_operator(a, m, t)
        if not rep.ok:
            raise PreconditionFailed("map is not an O-operator", rep)
    den_i, inv = t.matrix.inverse().scaled_cols()  # raises Singular when not invertible
    d = a.dim
    # x op y = T(T^-1 x NEW T^-1 y), which is T(l_op(x) T^-1 y) or
    # T(r_op(y) T^-1 x): the induction with id in place of T and T^-1 into V
    out = ClusterAlgebra(Level.of(2 * int(a.level)), d, _induced(
        a, m, _units(range(d)), (den_i, [[(d + r, v) for r, v in col] for col in inv]),
        t.matrix.scaled_cols(), d))
    if verify:
        rep = check_axioms(out)
        if not rep.ok:
            raise VerificationFailed("compatible structure fails its axioms", rep)
        back = project(out, _CANONICAL_COARSER[int(out.level)])
        if any(back.sc[op] != a.sc[op] for op in a.level.ops):
            raise VerificationFailed("compatible structure does not project back",
                                     Report(()))
    return out
