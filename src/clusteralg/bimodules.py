"""Bimodules of cluster algebras at levels 1, 2 and 4.

A bimodule assigns to every operation of the algebra a left action
``l_op: A -> gl(V)`` and a right action ``r_op: A -> gl(V)``, and it is
a bimodule exactly when the semidirect sum on A (+) V (with V.V = 0) is
again an algebra of the same kind.  ``check_bimodule`` tests exactly
that: the bimodule identities 2.1.1-k, 3.1.k and 4.1.n-k are the level's
axioms evaluated in A (+) V on the basis triples with one module slot.
A violation's witness (i, j, c) names the algebra basis pair (e_i, e_j)
of the identity and the least module basis index c at which it fails;
its discrepancy is the V-part of lhs - rhs on v_c.  The identities run
on the scaled integer fibres of A (+) V (``core.scaled_fibres``, one
denominator D for the algebra and the actions), all three module slots
of an axiom from one ``core.axiom_sums``; a reported discrepancy is
divided back by D^2.  No level-8 bimodule is implemented: only the
recipe exists for it, not a definition, so asking for one is an error.

Action matrices act on column coordinates of V: ``lmap[op][i]`` is the
matrix of l_op(e_i), and similarly for ``rmap``.  The dual bimodule
lives on V* with transposed matrices (the matrix of a dualised map is
the transpose of the original, fixed by the standard pairing), with the
signed combinations listed in ``dual_bimodule``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Mapping, Sequence

from .core import (AXIOMS, ClusterAlgebra, Level, LevelError, Report,
                   Violation, axiom_sums, mult_operator, project,
                   scaled_fibres)
from .linalg import DimensionMismatch, Fraction, Matrix, Tensor3, rat, vec_add


class PreconditionFailed(ValueError):
    """An operation's mathematical precondition failed; carries the report."""

    def __init__(self, message: str, report: Report | None = None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class Bimodule:
    level: Level
    algebra_dim: int
    module_dim: int
    lmap: Mapping[str, tuple[Matrix, ...]]
    rmap: Mapping[str, tuple[Matrix, ...]]

    def __post_init__(self):
        level = Level.of(int(self.level))
        object.__setattr__(self, "level", level)
        if level == Level.OCTO:
            raise LevelError("no level-8 bimodule is defined")
        names = set(level.ops)
        if set(self.lmap) != names or set(self.rmap) != names:
            raise LevelError(f"bimodule needs maps for {sorted(names)}")
        d, m = self.algebra_dim, self.module_dim
        for maps in (self.lmap, self.rmap):
            for op, mats in maps.items():
                if len(mats) != d:
                    raise DimensionMismatch(f"{op}: need one matrix per basis vector")
                for mat in mats:
                    if mat.shape != (m, m):
                        raise DimensionMismatch(f"{op}: matrices must be {m}x{m}")


def zero_bimodule(level: int, algebra_dim: int, module_dim: int) -> Bimodule:
    lv = Level.of(level)
    z = tuple(Matrix.zeros(module_dim, module_dim) for _ in range(algebra_dim))
    return Bimodule(lv, algebra_dim, module_dim,
                    {op: z for op in lv.ops}, {op: z for op in lv.ops})


def bimodule_from_entries(level: int, algebra_dim: int, module_dim: int,
                          entries: Iterable[tuple[str, str, int, int, int, Fraction]]
                          ) -> Bimodule:
    """Build from sparse (side, op, i, row, col, value) rows; side is "l" or "r"."""
    lv = Level.of(level)
    buf: dict[tuple[str, str], list[list[list[Fraction]]]] = {}
    for side in ("l", "r"):
        for op in lv.ops:
            buf[(side, op)] = [[[Fraction(0)] * module_dim for _ in range(module_dim)]
                               for _ in range(algebra_dim)]
    for side, op, i, row, col, v in entries:
        if (side, op) not in buf:
            raise LevelError(f"bad bimodule entry side/op: {side!r}/{op!r}")
        buf[(side, op)][i][row][col] = rat(v)
    lmap = {op: tuple(Matrix(buf[("l", op)][i]) for i in range(algebra_dim))
            for op in lv.ops}
    rmap = {op: tuple(Matrix(buf[("r", op)][i]) for i in range(algebra_dim))
            for op in lv.ops}
    return Bimodule(lv, algebra_dim, module_dim, lmap, rmap)


def bimodule_entries(m: Bimodule) -> list[tuple[str, str, int, int, int, Fraction]]:
    out = []
    for side, maps in (("l", m.lmap), ("r", m.rmap)):
        for op in m.level.ops:
            for i, mat in enumerate(maps[op]):
                for r, c, v in mat.nonzero():
                    out.append((side, op, i, r, c, v))
    return out


# ---------------------------------------------------------------------------
# bimodule identities
#
# Since V.V = 0, (l, r, V) is a bimodule exactly when the level's axioms
# hold in A (+) V on the basis triples with one module slot.  Each row
# names one (axiom, module slot) pair: (id, axiom index in AXIOMS[level],
# module slot 0/1/2 for x/y/z, sign, swap).  The sign orients the
# discrepancy as the id's lhs - rhs; with swap set the id's witness pair
# (i, j) fills the two algebra slots in reverse order.

_MODULE_SLOTS: dict[int, tuple[tuple[str, int, int, int, bool], ...]] = {
    1: (("2.1.1-1", 0, 2, 1, False), ("2.1.1-2", 0, 0, -1, False),
        ("2.1.1-3", 0, 1, -1, False)),
    # 3.1.(3k+s) is 2.1.5-(k+1) at slot z, y, x for s = 1, 2, 3
    2: tuple((f"3.1.{3 * k + s}", k, 3 - s, 1, s != 1)
             for k in range(3) for s in (1, 2, 3)),
    # 4.1.n-s is 3.4.((n-1)%3+1)-((n-1)//3+1) at slot z, y, x for s = 1, 2, 3
    4: tuple((f"4.1.{n}-{s}", 3 * ((n - 1) % 3) + (n - 1) // 3, 3 - s, 1, False)
             for n in range(1, 10) for s in (1, 2, 3)),
}


def check_bimodule(a: ClusterAlgebra, m: Bimodule) -> Report:
    """Check every bimodule identity as an axiom of the semidirect sum.

    Violations carry witness (i, j, c): the basis pair (e_i, e_j) of A and
    the least module basis index c for which the identity fails on v_c;
    the discrepancy is the V-part of lhs - rhs there.
    """
    if int(a.level) != int(m.level):
        raise LevelError(f"algebra level {int(a.level)} vs bimodule level {int(m.level)}")
    if a.dim != m.algebra_dim:
        raise DimensionMismatch("algebra dim does not match bimodule")
    s = semidirect_sum(a, m, check=False)
    d, level = a.dim, int(a.level)
    den, fibres = scaled_fibres(s)
    den2 = den * den
    # the outer products skip the A.A block, so every triple reached has
    # exactly one module slot, and lhs - rhs lies in V
    sums = [sorted(axiom_sums(axiom, fibres, s.dim, skip=d).items())
            for axiom in AXIOMS[level]]
    violations = []
    for ident, ax, slot, sign, swap in _MODULE_SLOTS[level]:
        least: dict[tuple[int, int], tuple[int, list[int]]] = {}
        for key, row in sums[ax]:  # in key order: the least c comes first
            if key[slot] >= d and any(row[d:]):
                pair = key[:slot] + key[slot + 1:]
                least.setdefault(pair[::-1] if swap else pair, (key[slot] - d, row[d:]))
        for ij, (c, row) in sorted(least.items()):
            violations.append(Violation(ident, (*ij, c),
                                        tuple(Fraction(sign * v, den2) for v in row)))
    return Report(tuple(violations))


def regular_bimodule(a: ClusterAlgebra) -> Bimodule:
    """The algebra acting on itself by its multiplication operators."""
    if a.level == Level.OCTO:
        raise LevelError("no regular bimodule at level 8")
    d = a.dim
    lmap = {op: tuple(mult_operator(a, op, "left", i) for i in range(d))
            for op in a.level.ops}
    rmap = {op: tuple(mult_operator(a, op, "right", i) for i in range(d))
            for op in a.level.ops}
    return Bimodule(a.level, d, d, lmap, rmap)


def _family(m: Bimodule, side: str, ops: str, sign: int,
            transpose: bool) -> tuple[Matrix, ...]:
    """sign times the sum of m's side maps over the ops of an "op+op" spec,
    one matrix per basis vector of the algebra, transposed on request."""
    maps = m.lmap if side == "l" else m.rmap
    fams = [maps[op] for op in ops.split("+")]
    if len(fams) == 1 and sign == 1 and not transpose:
        return tuple(fams[0])
    out = []
    for mats in zip(*fams):
        grid = [reduce(vec_add, [mat.row(r) for mat in mats])
                for r in range(m.module_dim)]
        if sign < 0:
            grid = [[-v for v in row] for row in grid]
        out.append(Matrix(zip(*grid) if transpose else grid))
    return tuple(out)


def _from_slots(level: Level, m: Bimodule, fams: Sequence) -> Bimodule:
    """A bimodule on m's spaces from families in slot order l_op, r_op per op."""
    lmap = {op: fams[2 * k] for k, op in enumerate(level.ops)}
    rmap = {op: fams[2 * k + 1] for k, op in enumerate(level.ops)}
    return Bimodule(level, m.algebra_dim, m.module_dim, lmap, rmap)


# The dual bimodule on V*: slot k (l_op, r_op for each op in turn) is the
# signed, transposed sum (side, "op+op", sign) of m's maps.
_DUAL_SLOTS: dict[int, tuple[tuple[str, str, int], ...]] = {
    1: (("r", "star", 1), ("l", "star", 1)),
    2: (("r", "succ+prec", 1), ("l", "prec", -1),
        ("r", "succ", -1), ("l", "succ+prec", 1)),
    4: (("r", "se+ne+nw+sw", 1), ("l", "nw", 1),
        ("r", "se+sw", -1), ("l", "nw+sw", -1),
        ("r", "se", 1), ("l", "se+ne+nw+sw", 1),
        ("r", "ne+se", -1), ("l", "ne+nw", -1)),
}


def dual_bimodule(a: ClusterAlgebra, m: Bimodule) -> Bimodule:
    """The signed, transposed bimodule on V*, read from ``_DUAL_SLOTS``:

    level 1: (l', r') = (r*, l*)
    level 2: (l'_succ, r'_succ, l'_prec, r'_prec)
             = (r_succ* + r_prec*, -l_prec*, -r_succ*, l_succ* + l_prec*)
    level 4, slots (l_se, r_se, l_ne, r_ne, l_nw, r_nw, l_sw, r_sw):
             (r_star*, l_nw*, -r_vee*, -l_prec*, r_se*, l_star*, -r_succ*, -l_wedge*)
    """
    if int(a.level) != int(m.level):
        raise LevelError("algebra and bimodule levels differ")
    return _from_slots(m.level, m, [_family(m, side, ops, sign, True)
                                    for side, ops, sign in _DUAL_SLOTS[int(m.level)]])


# ---------------------------------------------------------------------------
# restriction and embedding rules
#
# Same-level rules forget down to a coarser algebra; embed rules lift a
# coarser bimodule to the ambient finer algebra `a` by padding with zero
# maps.  For embed rules, m must be a bimodule of the corresponding
# projection of a.

_ZERO_FAM = "0"


def _rule_table(level: int) -> dict[str, tuple[str | None, tuple]]:
    if level == 2:
        return {
            # -> bimodules of the associated associative algebra
            "assoc-outer": ("Assoc", (("l", "succ"), ("r", "prec"))),
            "assoc-sum": ("Assoc", (("l", "succ+prec"), ("r", "succ+prec"))),
            # -> bimodules of a itself, zero-padded
            "outer-zero": (None, (("l", "succ"), _ZERO_FAM, _ZERO_FAM, ("r", "prec"))),
            "sum-zero": (None, (("l", "succ+prec"), _ZERO_FAM, _ZERO_FAM,
                                ("r", "succ+prec"))),
            # embed a level-1 bimodule of the associated algebra into a
            "embed-assoc": (None, (("l", "star"), _ZERO_FAM, _ZERO_FAM, ("r", "star"))),
        }
    if level == 4:
        return {
            "horiz-outer": ("HorizDend", (("l", "se"), ("r", "ne"),
                                          ("l", "sw"), ("r", "nw"))),
            "horiz-sum": ("HorizDend", (("l", "ne+se"), ("r", "ne+se"),
                                        ("l", "nw+sw"), ("r", "nw+sw"))),
            "assoc-outer": ("Assoc", (("l", "se"), ("r", "nw"))),
            "assoc-horiz": ("Assoc", (("l", "ne+se"), ("r", "nw+sw"))),
            "assoc-vert": ("Assoc", (("l", "se+sw"), ("r", "ne+nw"))),
            "assoc-sum": ("Assoc", (("l", "se+ne+nw+sw"), ("r", "se+ne+nw+sw"))),
            "outer-zero": (None, (("l", "se"), _ZERO_FAM, _ZERO_FAM, ("r", "ne"),
                                  _ZERO_FAM, ("r", "nw"), ("l", "sw"), _ZERO_FAM)),
            "sum-zero": (None, (("l", "ne+se"), _ZERO_FAM, _ZERO_FAM, ("r", "ne+se"),
                                _ZERO_FAM, ("r", "nw+sw"), ("l", "nw+sw"), _ZERO_FAM)),
            # embed a level-2 bimodule of the horizontal dendriform algebra
            "embed-dend": (None, (("l", "succ"), _ZERO_FAM, _ZERO_FAM, ("r", "succ"),
                                  _ZERO_FAM, ("r", "prec"), ("l", "prec"), _ZERO_FAM)),
            # embed a level-1 bimodule of the associated associative algebra
            "embed-assoc": (None, (("l", "star"), _ZERO_FAM, _ZERO_FAM, _ZERO_FAM,
                                   _ZERO_FAM, ("r", "star"), _ZERO_FAM, _ZERO_FAM)),
        }
    raise LevelError(f"no restriction rules at level {level}")


def restriction_rules(level: int) -> tuple[str, ...]:
    return tuple(_rule_table(level))


def restrict_bimodule(a: ClusterAlgebra, m: Bimodule,
                      rule: str) -> tuple[ClusterAlgebra, Bimodule]:
    """Apply a named restriction or embedding rule.

    Restriction rules consume a bimodule of a and return (projection of
    a, coarser bimodule); embed-* rules consume a bimodule of the stated
    projection of a and return (a, zero-padded finer bimodule).
    """
    table = _rule_table(int(a.level))
    if rule not in table:
        raise LevelError(f"rule {rule!r} is not valid at level {int(a.level)}")
    target, slots = table[rule]
    want = {"embed-assoc": 1, "embed-dend": 2}.get(rule, int(a.level))
    if int(m.level) != want:
        raise LevelError(f"rule {rule!r} expects a level-{want} bimodule")
    if target is None:
        out_alg, out_level = a, a.level
    else:
        out_alg = project(a, target)
        out_level = out_alg.level
    zero = tuple(Matrix.zeros(m.module_dim, m.module_dim)
                 for _ in range(m.algebra_dim))
    return out_alg, _from_slots(out_level, m, [
        zero if spec == _ZERO_FAM else _family(m, *spec, 1, False) for spec in slots])


def semidirect_sum(a: ClusterAlgebra, m: Bimodule, check: bool = True) -> ClusterAlgebra:
    """Algebra structure on A (+) V: A-block products from a, cross
    products from the actions, V.V = 0.

    With check=True the bimodule identities are verified first and a
    failure raises PreconditionFailed carrying the report.
    """
    if int(a.level) != int(m.level) or a.dim != m.algebra_dim:
        raise DimensionMismatch("algebra and bimodule do not match")
    if check:
        rep = check_bimodule(a, m)
        if not rep.ok:
            raise PreconditionFailed("map family is not a bimodule", rep)
    d, md = a.dim, m.module_dim
    n = d + md
    sc = {}
    for op in a.level.ops:
        entries = list(a.sc[op].nonzero())
        for i in range(d):
            for r, c, v in m.lmap[op][i].nonzero():
                entries.append((i, d + c, d + r, v))
            for r, c, v in m.rmap[op][i].nonzero():
                entries.append((d + c, i, d + r, v))
        sc[op] = Tensor3.from_entries((n, n, n), entries)
    return ClusterAlgebra(a.level, n, sc)


def octo_depth_bimodule(a: ClusterAlgebra) -> tuple[ClusterAlgebra, Bimodule]:
    """The depth quadri-algebra of a level-8 algebra together with the
    canonical action of it on the underlying space: left actions by the
    index-2 operations, right actions by the index-1 operations.

    An 8-operation algebra is exactly a depth quadri-algebra plus this
    bimodule, which is what stands in for a regular bimodule at level 8.
    """
    if a.level != Level.OCTO:
        raise LevelError("depth action bimodule needs a level-8 algebra")
    quadri = project(a, "DepthQuadri")
    d = a.dim
    lmap = {op: tuple(mult_operator(a, op + "2", "left", i) for i in range(d))
            for op in Level.QUADRI.ops}
    rmap = {op: tuple(mult_operator(a, op + "1", "right", i) for i in range(d))
            for op in Level.QUADRI.ops}
    return quadri, Bimodule(Level.QUADRI, d, d, lmap, rmap)
