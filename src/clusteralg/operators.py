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

The graph test, the homomorphism test, induction, the Rota-Baxter pair
and triple and the conjugation by an invertible T carry products along
maps, and each is one integer contraction, ``_transported``, with its
own maps; a result is divided back only when reported or stored.

Inducing operations re-verify their output by default (post-verification
is cheap at these dimensions and catches violated preconditions); pass
verify=False to skip.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable

from .bimodules import Bimodule, PreconditionFailed, regular_bimodule, semidirect_sum
from .core import (PROJECTIONS, ClusterAlgebra, Fibres, Level, LevelError, Report,
                   Violation, check_axioms, project, scaled_fibres)
from .linalg import DimensionMismatch, Fraction, Matrix, Tensor3


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
    that divisor."""
    (den_l, lcols), (den_r, rcols), (den_o, ocols) = left, right, out
    rows = {}
    for i, x in enumerate(lcols):
        for j, y in enumerate(rcols):
            p: dict[int, int] = {}  # den D_l D_r op(left x, right y)
            for (s, sv), (t, tv) in product(x, y):
                if fibre := fib.get((s, t)):
                    c = sv * tv
                    for m, v in fibre:
                        p[m] = p.get(m, 0) + c * v
            if not p:
                continue
            q = [0] * n
            for m, v in p.items():
                for k, ov in ocols[m]:
                    q[k] += v * ov
            if any(q):
                rows[i, j] = q
    return rows, den * den_l * den_r * den_o


def _tensor(den: int, fib: Fibres, left: Scaled, right: Scaled, out: Scaled,
            n: int) -> Tensor3:
    """The structure constants of ``_transported``'s product, in Fraction."""
    rows, divisor = _transported(den, fib, left, right, out, n)
    return Tensor3.from_entries((len(left[1]), len(right[1]), n), [
        (i, j, k, Fraction(v, divisor)) for (i, j), row in rows.items()
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
    den, fibres = scaled_fibres(semidirect_sum(a, m, check=False), a.level.ops)
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


# How one operation of the finer algebra is built from the bimodule:
# ("l", op, "uv") means u NEW v = l_op(T(u)) v, ("r", op, "vu") means
# u NEW v = r_op(T(v)) u.  Keys are the finer level's operation names.
_INDUCTION: dict[int, dict[str, tuple[str, str]]] = {
    1: {"succ": ("l", "star"), "prec": ("r", "star")},
    2: {"se": ("l", "succ"), "ne": ("r", "succ"),
        "sw": ("l", "prec"), "nw": ("r", "prec")},
    4: {"se1": ("r", "se"), "se2": ("l", "se"),
        "ne1": ("r", "ne"), "ne2": ("l", "ne"),
        "nw1": ("r", "nw"), "nw2": ("l", "nw"),
        "sw1": ("r", "sw"), "sw2": ("l", "sw")},
}

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
    den, fibres = scaled_fibres(semidirect_sum(a, m, check=False), a.level.ops)
    after = out[0], [[]] * a.dim + out[1]  # out after the projection to V
    return {new: _tensor(den, fibres[op], *((t, inc) if side == "l" else (inc, t)),
                         after, n)
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
        rep = check_axioms(finer)
        if not rep.ok:
            raise VerificationFailed("induced algebra fails its axioms", rep)
        hom = homomorphism_report(finer, a, t)
        if not hom.ok:
            raise VerificationFailed("induced map is not a homomorphism", hom)
    return finer


def homomorphism_report(finer: ClusterAlgebra, a: ClusterAlgebra,
                        t: InterMap) -> Report:
    """Check T(u coarse-op v) = T(u) op T(v) on all basis pairs, where
    coarse-op runs over the canonical projection of the finer algebra
    matching a's level.  Both sides are products transported on integers:
    T(u coarse-op v) through (id, id, T) on finer's fibres and T(u) op T(v)
    through (T, T, id) on a's; each is cross-multiplied by the other's
    divisor, and a defect is divided back only when reported."""
    level = int(finer.level)
    coarse = PROJECTIONS[(level, _CANONICAL_COARSER[level])]
    if level // 2 != int(a.level):
        raise LevelError("homomorphism target level mismatch")
    if t.source_dim != finer.dim or t.target_dim != a.dim:
        raise DimensionMismatch("map does not fit the two algebras")
    den_f, src = scaled_fibres(finer, coarse.values())
    den_a, dst = scaled_fibres(a, a.level.ops)
    tmap, one_f, one_a = t.matrix.scaled_cols(), _units(range(finer.dim)), _units(range(a.dim))
    zero = [0] * a.dim
    violations = []
    for op in a.level.ops:
        lhs, dl = _transported(den_f, src[coarse[op]], one_f, one_f, tmap, a.dim)
        rhs, dr = _transported(den_a, dst[op], tmap, tmap, one_a, a.dim)
        for ij in sorted(lhs.keys() | rhs.keys()):
            diff = [x * dr - y * dl for x, y in zip(lhs.get(ij, zero), rhs.get(ij, zero))]
            if any(diff):
                violations.append(Violation(f"hom-{op}", ij, tuple(
                    Fraction(v, dl * dr) for v in diff)))
    return Report(tuple(violations))


def rb_finer(a: ClusterAlgebra, r: InterMap,
             verify: bool = True) -> ClusterAlgebra:
    """Finer algebra from a Rota-Baxter operator (regular-bimodule induction).

    Level 1 -> 2: x > y = R(x)*y, x < y = x*R(y); level 2 -> 4 splits each
    dendriform product the same way; level 4 -> 8 splits each quadri
    product, index 1 acting through R on the right argument.
    """
    _require_rb(a, r, "map")
    return induce_on_module(a, regular_bimodule(a), r, check=False, verify=verify)


def _require_rb(a: ClusterAlgebra, r: InterMap, name: str) -> None:
    rep = is_rota_baxter(a, r)
    if not rep.ok:
        raise NotRotaBaxter(f"{name} is not a Rota-Baxter operator", rep)


def _require_commuting(*mats: Matrix) -> dict[tuple[int, int], Matrix]:
    """mats[i] @ mats[j] for i < j, each checked equal to mats[j] @ mats[i]."""
    products = {}
    for i, j in combinations(range(len(mats)), 2):
        products[i, j] = mats[i] @ mats[j]
        if products[i, j] != mats[j] @ mats[i]:
            raise NotCommuting(f"operators {i + 1} and {j + 1} do not commute")
    return products


def _pair_tensors(a: ClusterAlgebra, maps: dict[str, tuple[Scaled, Scaled]]
                  ) -> dict[str, Tensor3]:
    """Per name, the structure constants of x o y = left(x) * right(y) on a
    level-1 algebra, with (left, right) = maps[name]."""
    den, fibres = scaled_fibres(a, ("star",))
    one = _units(range(a.dim))
    return {name: _tensor(den, fibres["star"], left, right, one, a.dim)
            for name, (left, right) in maps.items()}


def rb_pair_quadri(a: ClusterAlgebra, r1: InterMap, r2: InterMap,
                   verify: bool = True) -> ClusterAlgebra:
    """Quadri structure from two commuting Rota-Baxter operators:

        x SE y = R1R2(x)*y     x NE y = R1(x)*R2(y)
        x SW y = R2(x)*R1(y)   x NW y = x*R1R2(y)
    """
    if a.level != Level.ASSOC:
        raise LevelError("pair construction starts from a level-1 algebra")
    _require_rb(a, r1, "r1")
    _require_rb(a, r2, "r2")
    m12 = _require_commuting(r1.matrix, r2.matrix)[0, 1]
    s1, s2, s12 = (m.scaled_cols() for m in (r1.matrix, r2.matrix, m12))
    one = _units(range(a.dim))
    sc = _pair_tensors(a, {"se": (s12, one), "ne": (s1, s2),
                           "sw": (s2, s1), "nw": (one, s12)})
    out = ClusterAlgebra(Level.QUADRI, a.dim, sc)
    if verify:
        rep = check_axioms(out)
        if not rep.ok:
            raise VerificationFailed("pair construction fails quadri axioms", rep)
    return out


def rb_triple_octo(a: ClusterAlgebra, r1: InterMap, r2: InterMap, r3: InterMap,
                   verify: bool = True) -> ClusterAlgebra:
    """Octo structure from three pairwise commuting Rota-Baxter operators:

        x se1 y = R2R3(x)*R1(y)    x se2 y = R1R2R3(x)*y
        x ne1 y = R2(x)*R1R3(y)    x ne2 y = R1R2(x)*R3(y)
        x sw1 y = R3(x)*R1R2(y)    x sw2 y = R1R3(x)*R2(y)
        x nw1 y = x*R1R2R3(y)      x nw2 y = R1(x)*R2R3(y)
    """
    if a.level != Level.ASSOC:
        raise LevelError("triple construction starts from a level-1 algebra")
    for name, r in (("r1", r1), ("r2", r2), ("r3", r3)):
        _require_rb(a, r, name)
    products = _require_commuting(r1.matrix, r2.matrix, r3.matrix)
    s1, s2, s3, s12, s13, s23, s123 = (m.scaled_cols() for m in (
        r1.matrix, r2.matrix, r3.matrix, products[0, 1], products[0, 2],
        products[1, 2], products[0, 1] @ r3.matrix))
    one = _units(range(a.dim))
    sc = _pair_tensors(a, {
        "se1": (s23, s1), "se2": (s123, one),
        "ne1": (s2, s13), "ne2": (s12, s3),
        "sw1": (s3, s12), "sw2": (s13, s2),
        "nw1": (one, s123), "nw2": (s1, s23),
    })
    out = ClusterAlgebra(Level.OCTO, a.dim, sc)
    if verify:
        rep = check_axioms(out)
        if not rep.ok:
            raise VerificationFailed("triple construction fails octo axioms", rep)
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
