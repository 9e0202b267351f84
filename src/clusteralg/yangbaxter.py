"""Tensor-square elements and the four Yang-Baxter-type equations.

An element r of A (x) A is stored by its coefficient grid ``r[i][j]``
(so r = sum r_ij e_i (x) e_j) and doubles as a linear map A* -> A via
r(f_j) = sum_i r_ij e_i, i.e. the grid itself in column convention.

The slot calculus embeds two such elements into A (x) A (x) A with a
blank in one slot each and multiplies the components meeting in the
shared slot; the left factor of the operation always comes from the
first tensor argument.  The equation checkers sum these placements on
integers: with the algebra's constants scaled by their common
denominator D (``core.scaled_fibres``) and r's by its own D_r, and every
equation of degree 1 in the algebra and 2 in r, a defect is D D_r^2
times the rational one and only a reported value is divided back:

    level 1  (id 2.2.1)   r12*r13 + r13*r23 - r23*r12 = 0
    level 2  (id 2.3.10)  r12*r13 = r13<r23 + r23>r12
    level 4  (ids 3.4.17/18, cross-check 3.4.19)
    level 8  (ids 4.4.23-4.4.26, over the depth quadri operations)

Each equation is equivalent to r being an O-operator for a specific
signed dual bimodule, and every O-operator lifts to a solution in a
semidirect double; both directions are implemented so the equivalences
can be tested rather than assumed.  The same facts give the dual
product a solution r induces on A* (the structure -r induces on A* as
an O-operator of the dual regular bimodule) and the Frobenius and
Connes doubles (two semidirect sums over dual bimodules, laid over
each other).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from typing import Iterable, Mapping, Sequence

from .bimodules import (Bimodule, PreconditionFailed, bimodule_from_entries,
                        dual_bimodule, octo_depth_bimodule, regular_bimodule,
                        restrict_bimodule, semidirect_sum)
from .core import (ClusterAlgebra, Level, LevelError, Report, Violation,
                   check_axioms, project, scaled_fibres)
from .linalg import (DimensionMismatch, Fraction, Matrix, Tensor3,
                     row_echelon_pivots, solve_consistent)
from .operators import (_CANONICAL_COARSER, _INDUCTION, InterMap, VerificationFailed,
                        _induced, _units, induced_tensors, is_o_operator)


@dataclass(frozen=True)
class Tensor2:
    """Element of A (x) A in basis coordinates."""

    grid: Matrix

    def __post_init__(self):
        if self.grid.rows != self.grid.cols:
            raise DimensionMismatch("tensor-square grid must be square")

    @property
    def dim(self) -> int:
        return self.grid.rows

    @classmethod
    def zeros(cls, dim: int) -> "Tensor2":
        return cls(Matrix.zeros(dim, dim))

    @classmethod
    def from_entries(cls, dim: int,
                     entries: Iterable[tuple[int, int, Fraction]]) -> "Tensor2":
        buf = [[Fraction(0)] * dim for _ in range(dim)]
        for i, j, v in entries:
            buf[i][j] = v
        return cls(Matrix(buf))

    def entries(self) -> list[tuple[int, int, Fraction]]:
        return list(self.grid.nonzero())

    def is_skew(self) -> bool:
        return self.grid.transpose() == -self.grid

    def is_symmetric(self) -> bool:
        return self.grid.transpose() == self.grid

    def __add__(self, other: "Tensor2") -> "Tensor2":
        return Tensor2(self.grid + other.grid)

    def scale(self, c) -> "Tensor2":
        return Tensor2(self.grid.scale(c))

    def as_intermap(self) -> InterMap:
        """r as the map A* -> A, f_j -> sum_i r_ij e_i."""
        return InterMap(self.grid)


# slot placements: how the two grids embed and which indices multiply.
# Entry: (r_mult_is_row, s_mult_is_row, assemble(k, r_free, s_free)).
_PLACEMENTS = {
    (12, 13): (True, True, lambda k, rf, sf: (k, rf, sf)),
    (13, 23): (False, False, lambda k, rf, sf: (rf, sf, k)),
    (23, 12): (True, False, lambda k, rf, sf: (sf, k, rf)),
    (12, 23): (False, True, lambda k, rf, sf: (rf, k, sf)),
    (13, 12): (True, True, lambda k, rf, sf: (k, sf, rf)),
    (23, 13): (False, False, lambda k, rf, sf: (sf, rf, k)),
}


def _slot_sums(a: ClusterAlgebra, r: Tensor2, s: Tensor2,
               equations: Sequence) -> tuple[list[dict], int]:
    """Per list of (sign, op, place) terms, its sum of slot products of r
    with s as integers keyed (p, q, t), and the divisor D D_r D_s."""
    if r.dim != a.dim or s.dim != a.dim:
        raise DimensionMismatch("tensor dims must match the algebra")
    den, fibres = scaled_fibres(a, {op for terms in equations for _, op, _ in terms})
    (den_r, r_cols), (den_s, s_cols) = r.grid.scaled_cols(), s.grid.scaled_cols()
    # each grid's entries per multiplied index: by row (True) or column
    r_lines, s_lines = ({True: g.transpose().scaled_cols()[1], False: cols}
                        for g, cols in ((r.grid, r_cols), (s.grid, s_cols)))
    sums: list[dict[tuple[int, int, int], int]] = []
    for terms in equations:
        sums.append(acc := {})
        for sign, op, place in terms:
            r_mult_row, s_mult_row, assemble = _PLACEMENTS[place]
            for (rm, sm), fibre in fibres[op].items():
                for (rf, rv), (sf, sv) in product(r_lines[r_mult_row][rm],
                                                  s_lines[s_mult_row][sm]):
                    c = sign * rv * sv
                    for k, v in fibre:
                        key = assemble(k, rf, sf)
                        acc[key] = acc.get(key, 0) + c * v
    return sums, den * den_r * den_s


def slot_product(a: ClusterAlgebra, op: str, r: Tensor2, s: Tensor2,
                 place: tuple[int, int]) -> Tensor3:
    """The product of r placed at slots place[0] with s at place[1].

    The two placements must differ; their unique shared slot receives
    the op-product of the components, with r (the first argument)
    supplying the left factor; untouched slots pass through.
    """
    if place not in _PLACEMENTS:
        raise ValueError(f"invalid slot placement {place!r}")
    (acc,), divisor = _slot_sums(a, r, s, [((1, op, place),)])
    return Tensor3.from_entries((a.dim,) * 3, [(*key, Fraction(v, divisor))
                                               for key, v in acc.items()])


# Equation tables: sum of signed slot products that must vanish.
_EQUATIONS: dict[str, tuple[tuple[int, str, tuple[int, int]], ...]] = {
    "2.2.1": ((1, "star", (12, 13)), (1, "star", (13, 23)), (-1, "star", (23, 12))),
    "2.3.10": ((1, "star", (12, 13)), (-1, "prec", (13, 23)), (-1, "succ", (23, 12))),
    "3.4.17": ((1, "succ", (13, 23)), (-1, "ne", (23, 12)),
               (-1, "nw", (23, 12)), (-1, "sw", (12, 13))),
    "3.4.18": ((1, "prec", (13, 23)), (1, "ne", (23, 12)),
               (1, "se", (12, 13)), (1, "sw", (12, 13))),
    "3.4.19": ((1, "star", (13, 23)), (-1, "nw", (23, 12)), (1, "se", (12, 13))),
    "4.2.5": ((1, "se", (13, 23)), (-1, "star", (23, 12)), (1, "nw", (12, 13))),
    "4.2.6": ((1, "ne", (13, 23)), (1, "vee", (23, 12)), (-1, "prec", (12, 13))),
    "4.2.7": ((1, "nw", (13, 23)), (-1, "se", (23, 12)), (1, "star", (12, 13))),
    "4.2.8": ((1, "sw", (13, 23)), (1, "succ", (23, 12)), (-1, "wedge", (12, 13))),
    "4.4.23": ((1, "se12", (13, 23)), (-1, "sigma1", (23, 12)), (-1, "nw2", (12, 13))),
    "4.4.24": ((1, "ne12", (13, 23)), (1, "vee1", (23, 12)), (1, "prec2", (12, 13))),
    "4.4.25": ((1, "nw12", (13, 23)), (-1, "se1", (23, 12)), (-1, "sigma2", (12, 13))),
    "4.4.26": ((1, "sw12", (13, 23)), (1, "succ1", (23, 12)), (1, "wedge2", (12, 13))),
}


def _equation_report(a: ClusterAlgebra, r: Tensor2, ids: Sequence[str]) -> Report:
    sums, divisor = _slot_sums(a, r, r, [_EQUATIONS[ident] for ident in ids])
    return Report(tuple(Violation(ident, key, (Fraction(v, divisor),)) for ident, acc
                        in zip(ids, sums) for key, v in sorted(acc.items()) if v))


def _require_level(a: ClusterAlgebra, level: int, what: str) -> None:
    if int(a.level) != level:
        raise LevelError(f"{what} needs a level-{level} algebra, got {int(a.level)}")


def check_aybe(a: ClusterAlgebra, r: Tensor2) -> Report:
    """Associative Yang-Baxter: r12*r13 + r13*r23 - r23*r12 = 0."""
    _require_level(a, 1, "the associative Yang-Baxter equation")
    return _equation_report(a, r, ("2.2.1",))


def check_d_equation(a: ClusterAlgebra, r: Tensor2) -> Report:
    """Dendriform analogue: r12*r13 = r13<r23 + r23>r12."""
    _require_level(a, 2, "the D-equation")
    return _equation_report(a, r, ("2.3.10",))


def check_q_equation(a: ClusterAlgebra, r: Tensor2) -> Report:
    """Quadri analogue: the 3.4.17/3.4.18 pair, plus 3.4.19 as cross-check.

    The report's ok reflects the defining pair only; 3.4.19 is their sum
    and its violations are included for diagnosis.
    """
    _require_level(a, 4, "the Q-equation")
    defining = _equation_report(a, r, ("3.4.17", "3.4.18"))
    cross = _equation_report(a, r, ("3.4.19",))
    if defining.ok and not cross.ok:
        raise VerificationFailed("sum identity 3.4.19 failed while the defining "
                                 "pair held", cross)
    return defining


def check_q_dual_forms(a: ClusterAlgebra, r: Tensor2) -> Report:
    """The four rewritten quadri equations 4.2.5-4.2.8 for skew r.

    For skew r the pass/fail booleans pair with the primal ones:
    3.4.17 <-> 4.2.8, 3.4.18 <-> 4.2.6, 3.4.19 <-> 4.2.5 <-> 4.2.7.
    """
    _require_level(a, 4, "the dual quadri equations")
    if not r.is_skew():
        raise ValueError("dual quadri equations need a skew-symmetric tensor")
    return _equation_report(a, r, ("4.2.5", "4.2.6", "4.2.7", "4.2.8"))


def equation_ok_by_id(report: Report, ident: str) -> bool:
    return not any(v.identity_id == ident for v in report.violations)


def check_o_equation(a: ClusterAlgebra, r: Tensor2) -> Report:
    """Octo analogue 4.4.23-4.4.26; left sides use the depth quadri products.

    The O-operator reformulation (o_equation_as_o_operator) is stated for
    symmetric r; the four tensor identities themselves are evaluated for
    any r.
    """
    _require_level(a, 8, "the O-equation")
    return _equation_report(a, r, ("4.4.23", "4.4.24", "4.4.25", "4.4.26"))


# ---------------------------------------------------------------------------
# O-operator reformulations

def aybe_as_o_operator(a: ClusterAlgebra, r: Tensor2) -> Report:
    """Skew r solves the level-1 equation iff r: A* -> A is an O-operator
    for the dual regular bimodule (R*, L*)."""
    _require_level(a, 1, "the O-operator reformulation")
    if not r.is_skew():
        raise ValueError("this reformulation needs a skew-symmetric tensor")
    dual = dual_bimodule(a, regular_bimodule(a))
    return is_o_operator(a, dual, r.as_intermap())


@dataclass(frozen=True)
class EquivalenceResult:
    """Several reports whose booleans a theorem asserts to coincide."""

    conditions: Mapping[str, Report]

    @property
    def booleans(self) -> dict[str, bool]:
        return {k: rep.ok for k, rep in self.conditions.items()}

    @property
    def agree(self) -> bool:
        vals = {rep.ok for rep in self.conditions.values()}
        return len(vals) == 1


def d_equation_equivalents(a: ClusterAlgebra, r: Tensor2) -> EquivalenceResult:
    """The four equivalent conditions for symmetric r on a dendriform algebra:

    (1) the D-equation; (2) r an O-operator of the associated associative
    algebra for (R_prec*, L_succ*); (3) identity 3.3.2; (4) identity 3.3.3.

    3.3.2 and 3.3.3 are the succ and prec conditions of r being an
    O-operator of a itself for the dual regular bimodule
    (R_star*, -L_prec*, -R_succ*, L_star*):
    r(a*) > r(b*) = r(R_star*(r(a*)) b* - L_prec*(r(b*)) a*) and
    r(a*) < r(b*) = r(-R_succ*(r(a*)) b* + L_star*(r(b*)) a*).
    """
    _require_level(a, 2, "the D-equation equivalences")
    if not r.is_symmetric():
        raise ValueError("the equivalences need a symmetric tensor")
    assoc, outer = restrict_bimodule(a, regular_bimodule(a), "assoc-outer")
    cond2 = is_o_operator(assoc, dual_bimodule(assoc, outer), r.as_intermap())
    dual = is_o_operator(a, dual_bimodule(a, regular_bimodule(a)), r.as_intermap())

    def renamed(old: str, new: str) -> Report:
        return Report(tuple(replace(v, identity_id=new) for v in dual.violations
                            if v.identity_id == old))

    return EquivalenceResult({
        "d-equation": check_d_equation(a, r),
        "o-operator": cond2,
        "3.3.2": renamed("3.3.1-succ", "3.3.2"),
        "3.3.3": renamed("3.3.1-prec", "3.3.3"),
    })


def q_equation_as_o_operator(a: ClusterAlgebra, r: Tensor2) -> Report:
    """Skew r solves the Q-equation iff it is an O-operator of the
    horizontal dendriform algebra for the dual of (L_se, R_ne, L_sw, R_nw)."""
    _require_level(a, 4, "the horizontal reformulation")
    if not r.is_skew():
        raise ValueError("this reformulation needs a skew-symmetric tensor")
    horiz, outer = restrict_bimodule(a, regular_bimodule(a), "horiz-outer")
    return is_o_operator(horiz, dual_bimodule(horiz, outer), r.as_intermap())


def q_dual_as_o_operator(a: ClusterAlgebra, r: Tensor2) -> Report:
    """Skew r satisfies all of 4.2.5-4.2.8 iff it is an O-operator of the
    quadri-algebra for the dual regular bimodule."""
    _require_level(a, 4, "the quadri reformulation")
    if not r.is_skew():
        raise ValueError("this reformulation needs a skew-symmetric tensor")
    return is_o_operator(a, dual_bimodule(a, regular_bimodule(a)), r.as_intermap())


def o_equation_as_o_operator(a: ClusterAlgebra, r: Tensor2) -> Report:
    """Symmetric r solves the O-equation iff it is an O-operator of the
    depth quadri-algebra for the dual of the depth action bimodule."""
    _require_level(a, 8, "the octo reformulation")
    if not r.is_symmetric():
        raise ValueError("this reformulation needs a symmetric tensor")
    quadri, action = octo_depth_bimodule(a)
    return is_o_operator(quadri, dual_bimodule(quadri, action), r.as_intermap())


# ---------------------------------------------------------------------------
# lifts into semidirect doubles

_LIFT_TABLE = {
    (1, "skew"): ("2.2.1",),
    (2, "sym"): ("2.3.10",),
    (4, "skew"): ("3.4.17", "3.4.18"),
}


@dataclass(frozen=True)
class LiftResult:
    double: ClusterAlgebra
    tensor: Tensor2
    equation_report: Report
    operator_report: Report

    @property
    def agree(self) -> bool:
        return self.equation_report.ok == self.operator_report.ok


def embed_map_tensor(t: InterMap, sign: int) -> Tensor2:
    """T -/+ sigma(T) as an element of (A (+) V*) (x) (A (+) V*)."""
    d, md = t.target_dim, t.source_dim
    n = d + md
    entries = []
    for j, i, v in t.matrix.nonzero():
        entries.append((j, d + i, v))
        entries.append((d + i, j, sign * v))
    return Tensor2.from_entries(n, entries)


def lift_o_operator(a: ClusterAlgebra, m: Bimodule, t: InterMap,
                    symmetry: str) -> LiftResult:
    """Form the double A |x V* over the dual bimodule, embed r = T -/+ sigma(T),
    and report both the equation check on r and the O-operator check on T.

    The two booleans coincide for every input; callers may rely on either.
    symmetry is "skew" (levels 1 and 4, r = T - sigma T) or "sym"
    (level 2, r = T + sigma T).
    """
    key = (int(a.level), symmetry)
    if key not in _LIFT_TABLE:
        raise LevelError(f"no lift with symmetry {symmetry!r} at level {int(a.level)}")
    if t.target_dim != a.dim or t.source_dim != m.module_dim:
        raise DimensionMismatch("map does not fit the algebra/bimodule pair")
    double = semidirect_sum(a, dual_bimodule(a, m), check=True)
    r = embed_map_tensor(t, -1 if symmetry == "skew" else 1)
    equation = _equation_report(double, r, _LIFT_TABLE[key])
    operator = is_o_operator(a, m, t)
    return LiftResult(double, r, equation, operator)


_CANONICAL_VARIANTS = {
    "Cor2.2.8": (2, "skew"),
    "Cor3.3.8": (2, "sym"),
    "Prop3.4.12": (4, "sym"),
    "Cor4.2.10": (4, "skew"),
    "Cor4.4.13": (8, "skew"),
}


def canonical_double_solution(a: ClusterAlgebra, variant: str) -> LiftResult:
    """The identity-map lifts: r = sum_i (e_i (x) e_i^* -/+ e_i^* (x) e_i)
    in the named semidirect double; block form [[0, I], [-/+I, 0]].

    variant        input          double                          solves
    Cor2.2.8       level 2        assoc  |x (R_prec*, L_succ*)    level-1 eq
    Cor3.3.8       level 2        dend   |x (R_prec*,0,0,L_succ*) D-equation
    Prop3.4.12     level 4        horiz dend |x dual outer        D-equation
    Cor4.2.10      level 4        quadri |x dual zero-padded      Q-equation
    Cor4.4.13      level 8        depth quadri |x dual action     Q-equation
    """
    if variant not in _CANONICAL_VARIANTS:
        raise ValueError(f"unknown canonical variant {variant!r}")
    want_level, symmetry = _CANONICAL_VARIANTS[variant]
    if int(a.level) != want_level:
        raise LevelError(f"variant {variant} needs a level-{want_level} algebra")
    if variant == "Cor2.2.8":
        base, m = restrict_bimodule(a, regular_bimodule(a), "assoc-outer")
    elif variant == "Cor3.3.8":
        base, m = a, restrict_bimodule(a, regular_bimodule(a), "outer-zero")[1]
    elif variant == "Prop3.4.12":
        base, m = restrict_bimodule(a, regular_bimodule(a), "horiz-outer")
    elif variant == "Cor4.2.10":
        base, m = a, restrict_bimodule(a, regular_bimodule(a), "outer-zero")[1]
    else:  # Cor4.4.13
        base, m = octo_depth_bimodule(a)
    return lift_o_operator(base, m, InterMap.identity(a.dim), symmetry)


def image_double_solution(a: ClusterAlgebra, m: Bimodule,
                          t: InterMap) -> LiftResult:
    """Lift of an O-operator through its image: the canonical lift of the
    corestriction s: V -> T(V) of T into a semidirect double.

    The finer algebra T induces on V is pushed forward to T(V) in the
    basis of T's pivot columns; its coarser projection is the subalgebra
    T(V) of A.  Pulled back along T(V) in A and padded with zero maps
    (rule embed-assoc or embed-dend), m is a bimodule of that image
    algebra for which s is an O-operator, and ``lift_o_operator`` puts
    r = s + sigma(s) (level-1 input, solving the D-equation) respectively
    r = s - sigma(s) (level-2 input, solving the Q-equation) into the
    double with V*.  A map of rank 0 has no image to lift into.
    """
    level = int(a.level)
    if level not in (1, 2):
        raise LevelError("image lift is defined for level-1 and level-2 inputs")
    rep = is_o_operator(a, m, t)
    if not rep.ok:
        raise PreconditionFailed("map is not an O-operator", rep)
    pivots = row_echelon_pivots(t.matrix)
    if not pivots:
        raise ValueError("image lift needs a map of positive rank: the zero "
                         "map has no image to lift into")
    d, md, k = a.dim, m.module_dim, len(pivots)
    w = Matrix.from_cols([t.matrix.col(c) for c in pivots])  # basis of T(V)
    # T = w s, so T(fibre) has the coordinates s(fibre) in the basis w
    s = Matrix.from_cols([solve_consistent(w, t.matrix.col(j)) for j in range(md)])
    den_t, cols = t.matrix.scaled_cols()
    wmap = den_t, [cols[c] for c in pivots]
    # the finer product of v_p and v_q for pivots p, q, in the basis w
    image = ClusterAlgebra(Level.of(2 * level), k, _induced(
        a, m, wmap, _units(d + c for c in pivots), s.scaled_cols(), k))
    # l_op(w_al) and r_op(w_al): the induction with w in place of T
    acts = _induced(a, m, wmap, _units(range(d, d + md)), _units(range(md)), md)
    pulled = bimodule_from_entries(level, k, md, [
        (side, op, *((p, r, q) if side == "l" else (q, r, p)), v)
        for new, (side, op) in _INDUCTION[level].items()
        for p, q, r, v in acts[new].nonzero()])
    _, module = restrict_bimodule(image, pulled,
                                  "embed-assoc" if level == 1 else "embed-dend")
    return lift_o_operator(image, module, InterMap(s),
                           "sym" if level == 1 else "skew")


# ---------------------------------------------------------------------------
# dual products induced by a solution, and double products

_DUAL_PRODUCT = {1: ("skew", Tensor2.is_skew, check_aybe),
                 2: ("symmetric", Tensor2.is_symmetric, check_d_equation)}


def induce_dual_product(a: ClusterAlgebra, r: Tensor2,
                        verify: bool = True) -> ClusterAlgebra:
    """Product on A* induced by a solution r.

    Level 1 (skew r solving the level-1 equation): the coproduct
    al(x) = (1 (x) L(x) - R(x) (x) 1) r dualises to an associative
    product on A*.  Level 2 (symmetric r solving the D-equation): the
    pair al_succ(x) = (-1 (x) L_*(x) + R_prec(x) (x) 1) r,
    al_prec(x) = (1 (x) L_succ(x) - R_*(x) (x) 1) r dualises to a
    dendriform structure on A*.

    Both are the structure that -r: A* -> A induces as an O-operator of
    the dual regular bimodule, projected to a's level (-r is an
    O-operator exactly when r is).  The coproducts agree with that
    induction only for r of the stated parity, so the parity and the
    equation are checked on every call.
    """
    level = int(a.level)
    if level not in _DUAL_PRODUCT:
        raise LevelError("dual products are induced at levels 1 and 2")
    parity, has_parity, equation = _DUAL_PRODUCT[level]
    if not has_parity(r):
        raise PreconditionFailed(f"level-{level} dual product needs {parity} r")
    rep = equation(a, r)
    if not rep.ok:
        raise PreconditionFailed("tensor does not solve its equation", rep)
    dual = dual_bimodule(a, regular_bimodule(a))
    finer = ClusterAlgebra(Level.of(2 * level), a.dim,
                           induced_tensors(a, dual, InterMap(-r.grid)))
    out = project(finer, _CANONICAL_COARSER[2 * level])
    if verify:
        rep = check_axioms(out)
        if not rep.ok:
            raise VerificationFailed("induced dual product fails its axioms", rep)
    return out


_DOUBLE_LEVELS = {"frobenius": 1, "connes": 2}


def double_product(a: ClusterAlgebra, a_dual: ClusterAlgebra, variant: str,
                   verify: bool = True) -> ClusterAlgebra:
    """Associative product on A (+) A* mixing a product on A with one on A*.

    variant "frobenius" takes two level-1 algebras, "connes" two level-2
    algebras.  The double is the semidirect sum x |x M_x* for x = a on
    A (+) A*, laid over the one for x = a_dual on A* (+) A (index i at
    (i + d) mod 2d); the two fill disjoint positions.  M_x is x's regular
    bimodule (frobenius), or its (L_succ, R_prec) part over the
    associated associative algebra (connes).
    """
    if a.dim != a_dual.dim:
        raise DimensionMismatch("the two factors must have equal dimension")
    if variant not in _DOUBLE_LEVELS:
        raise ValueError(f"unknown double product variant {variant!r}")
    want = _DOUBLE_LEVELS[variant]
    if int(a.level) != want or int(a_dual.level) != want:
        raise LevelError(f"{variant} variant needs two level-{want} algebras")

    def half(x: ClusterAlgebra) -> Tensor3:
        base, m = x, regular_bimodule(x)
        if variant == "connes":
            base, m = restrict_bimodule(x, m, "assoc-outer")
        return semidirect_sum(base, dual_bimodule(base, m), check=False).sc["star"]

    d = a.dim
    n = 2 * d
    entries = list(half(a).nonzero())
    entries.extend(((i + d) % n, (j + d) % n, (k + d) % n, v)
                   for i, j, k, v in half(a_dual).nonzero())
    out = ClusterAlgebra(Level.ASSOC, n, {"star": Tensor3.from_entries((n, n, n), entries)})
    if verify:
        rep = check_axioms(out)
        if not rep.ok:
            raise VerificationFailed("double product fails associativity", rep)
    return out
