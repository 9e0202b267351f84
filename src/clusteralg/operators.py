"""O-operators, Rota-Baxter operators and the finer structures they induce.

A linear map T: V -> A is an O-operator for a bimodule (l, r, V) when

    T(u) op T(v) = T( l_op(T(u)) v + r_op(T(v)) u )

holds for every operation op of the algebra's level, i.e. when the graph
{(T u, u)} is closed under every operation of the semidirect sum
A (+) V, which is how ``is_o_operator`` checks it.  The check runs on
integers: the products use the scaled fibres of A (+) V (common
denominator D, ``core.scaled_fibres``), the graph vectors are scaled by
T's common denominator D_T, so each defect is D D_T^3 times the rational
one and only a reported discrepancy is divided back.  Rota-Baxter
operators (weight 0) are the special case of the regular bimodule, and
every O-operator transplants the algebra structure to V with twice as
many operations; an invertible O-operator transports that structure
back onto A itself, compatibly with the original product.

Inducing operations re-verify their output by default (post-verification
is cheap at these dimensions and catches violated preconditions); pass
verify=False to skip.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .bimodules import (Bimodule, PreconditionFailed, apply_action,
                        regular_bimodule, semidirect_sum)
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

    def column(self, j: int) -> tuple[Fraction, ...]:
        return self.matrix.col(j)


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
    s = semidirect_sum(a, m, check=False)
    d, md = a.dim, m.module_dim
    den, fibres = scaled_fibres(s, a.level.ops)
    # D_T times T, as sparse integer columns; graph[u] is D_T (T v_u, v_u)
    den_t, cols = t.matrix.scaled_cols()
    graph = [cols[u] + [(d + u, den_t)] for u in range(md)]
    divisor = den * den_t ** 3
    ids = _O_IDENTITY_IDS[int(a.level)]
    violations = []
    for op in a.level.ops:
        fib = fibres[op]
        for i, gi in enumerate(graph):
            for j, gj in enumerate(graph):
                # p is D D_T^2 (g_i op g_j); diff is D D_T^3 (A-part - T(V-part))
                p = [0] * (d + md)
                for (x, xv), (y, yv) in product(gi, gj):
                    xy = xv * yv
                    for k, c in fib.get((x, y), ()):
                        p[k] += xy * c
                diff = [den_t * v for v in p[:d]]
                for u, v in enumerate(p[d:]):
                    if v:
                        for r, tv in cols[u]:
                            diff[r] -= tv * v
                if any(diff):
                    violations.append(Violation(ids[op], (i, j), tuple(
                        Fraction(v, divisor) for v in diff)))
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
    md = m.module_dim
    out: dict[str, Tensor3] = {}
    for new_op, (side, op) in _INDUCTION[int(a.level)].items():
        entries = []
        for u in range(md):
            # column w of the action of T(v_u) is v_u NEW v_w ("l") or
            # v_w NEW v_u ("r")
            act = apply_action(m, side, op, t.column(u))
            entries.extend((u, w, k, v) if side == "l" else (w, u, k, v)
                           for k, w, v in act.nonzero())
        out[new_op] = Tensor3.from_entries((md, md, md), entries)
    return out


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
    matching a's level.  On integers, with D_f, D_a and D_T the common
    denominators of finer, a and T: D_a D_T times D_f D_T T(u coarse-op v)
    minus D_f times D_a D_T^2 T(u) op T(v) is D_f D_a D_T^2 times the
    defect, which is divided back only when reported."""
    level = int(finer.level)
    coarse = PROJECTIONS[(level, _CANONICAL_COARSER[level])]
    if level // 2 != int(a.level):
        raise LevelError("homomorphism target level mismatch")
    if t.source_dim != finer.dim or t.target_dim != a.dim:
        raise DimensionMismatch("map does not fit the two algebras")
    den_f, src_fibres = scaled_fibres(finer, coarse.values())
    den_a, dst_fibres = scaled_fibres(a, a.level.ops)
    den_t, cols = t.matrix.scaled_cols()
    divisor = den_f * den_a * den_t ** 2
    violations = []
    for op in a.level.ops:
        src, dst = src_fibres[coarse[op]], dst_fibres[op]
        for i, j in product(range(finer.dim), repeat=2):
            diff = [0] * a.dim
            for k, c in src.get((i, j), ()):
                c *= den_a * den_t
                for r, tv in cols[k]:
                    diff[r] += c * tv
            for (x, xv), (y, yv) in product(cols[i], cols[j]):
                c = den_f * xv * yv
                for k, v in dst.get((x, y), ()):
                    diff[k] -= c * v
            if any(diff):
                violations.append(Violation(f"hom-{op}", (i, j), tuple(
                    Fraction(v, divisor) for v in diff)))
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


def _require_commuting(*mats: Matrix) -> None:
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if mats[i] @ mats[j] != mats[j] @ mats[i]:
                raise NotCommuting(f"operators {i + 1} and {j + 1} do not commute")


def _transported(den: int, fib: Fibres, left, right, out) -> Tensor3:
    """Structure constants of x o y = out(op(left x, right y)) for square
    maps given as ``Matrix.scaled_cols``, from op's fibres scaled by den
    (``scaled_fibres``).  On integers every entry is den D_l D_r D_out
    times the rational one, and is divided back by that."""
    (den_l, lcols), (den_r, rcols), (den_o, ocols) = left, right, out
    d = len(ocols)
    divisor = den * den_l * den_r * den_o
    entries = []
    for i, x in enumerate(lcols):
        for j, y in enumerate(rcols):
            p = [0] * d  # den D_l D_r op(left x, right y)
            for (s, sv), (t, tv) in product(x, y):
                c = sv * tv
                for m, v in fib.get((s, t), ()):
                    p[m] += c * v
            q = [0] * d
            for m, v in enumerate(p):
                if v:
                    for k, ov in ocols[m]:
                        q[k] += v * ov
            entries.extend((i, j, k, Fraction(v, divisor)) for k, v in enumerate(q) if v)
    return Tensor3.from_entries((d, d, d), entries)


def _pair_tensors(a: ClusterAlgebra, maps: dict[str, tuple[Matrix, Matrix]]
                  ) -> dict[str, Tensor3]:
    """Per name, the structure constants of x o y = left(x) * right(y) on a
    level-1 algebra, with (left, right) = maps[name]."""
    den, fibres = scaled_fibres(a, ("star",))
    one = Matrix.identity(a.dim).scaled_cols()
    return {name: _transported(den, fibres["star"], left.scaled_cols(),
                               right.scaled_cols(), one)
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
    _require_commuting(r1.matrix, r2.matrix)
    m1, m2, one = r1.matrix, r2.matrix, Matrix.identity(a.dim)
    m12 = m1 @ m2
    sc = _pair_tensors(a, {"se": (m12, one), "ne": (m1, m2),
                           "sw": (m2, m1), "nw": (one, m12)})
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
    _require_commuting(r1.matrix, r2.matrix, r3.matrix)
    m1, m2, m3, one = r1.matrix, r2.matrix, r3.matrix, Matrix.identity(a.dim)
    sc = _pair_tensors(a, {
        "se1": (m2 @ m3, m1), "se2": (m1 @ m2 @ m3, one),
        "ne1": (m2, m1 @ m3), "ne2": (m1 @ m2, m3),
        "sw1": (m3, m1 @ m2), "sw2": (m1 @ m3, m2),
        "nw1": (one, m1 @ m2 @ m3), "nw2": (m1, m2 @ m3),
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
    tinv = t.matrix.inverse()  # raises Singular when not invertible
    induced = induced_tensors(a, m, t)
    level = Level.of(2 * int(a.level))
    # x op y = T(T^-1 x op_induced T^-1 y) on A
    den, fibres = scaled_fibres(ClusterAlgebra(level, m.module_dim, induced), level.ops)
    inv, fwd = tinv.scaled_cols(), t.matrix.scaled_cols()
    sc = {op: _transported(den, fib, inv, inv, fwd) for op, fib in fibres.items()}
    out = ClusterAlgebra(level, a.dim, sc)
    if verify:
        rep = check_axioms(out)
        if not rep.ok:
            raise VerificationFailed("compatible structure fails its axioms", rep)
        back = project(out, _CANONICAL_COARSER[int(out.level)])
        if any(back.sc[op] != a.sc[op] for op in a.level.ops):
            raise VerificationFailed("compatible structure does not project back",
                                     Report(()))
    return out
