"""Bilinear forms on cluster algebras and the tensor-form bridge.

A form is a d x d coefficient grid B[i][j] = B(e_i, e_j).  The
classifier evaluates every form condition defined at the algebra's
level by exhaustive basis-triple evaluation; parity (symmetric/skew)
and nondegeneracy are reported separately from the conditions, which
are pure identities.

Evaluation runs on integers: the constants of the operations read are
scaled by their common denominator D (``core.scaled_fibres``) and the
grid by its own, D_B.  Every term has degree 1 in the constants and 1
in B, so a condition's sum on a triple is D D_B times the rational one
and the zero test is exact.  The finer identities read the finer
algebra's fibres (D_f) on the left and a's (D_a) on the right, and
D_a lhs - sign D_f rhs is D_f D_a D_B times the rational defect, which
is divided back only when reported.

Bridge convention (pinned): an invertible tensor r and a nondegenerate
form correspond through matrix inversion of the coefficient grid,
B = grid(r)^-1.  This normalisation is fixed by the requirement that
the canonical skew block tensor [[0, I], [-I, 0]] maps exactly to the
double-space 2-form om(x + a*, y + b*) = -<x, b*> + <a*, y>, and it
then sends the symmetric block [[0, I], [I, 0]] to
B(x + a*, y + b*) = <x, b*> + <a*, y>, as required.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Mapping

from .bimodules import PreconditionFailed, dual_bimodule, regular_bimodule
from .core import ClusterAlgebra, LevelError, Report, Violation, scaled_fibres
from .linalg import DimensionMismatch, Fraction, Matrix, Singular, row_echelon_pivots
from .operators import InterMap, VerificationFailed, compatible_from_invertible
from .yangbaxter import (Tensor2, check_aybe, check_d_equation,
                         check_q_equation)


@dataclass(frozen=True)
class BilinearForm:
    matrix: Matrix

    def __post_init__(self):
        if self.matrix.rows != self.matrix.cols:
            raise DimensionMismatch("form grid must be square")

    @property
    def dim(self) -> int:
        return self.matrix.rows

    @classmethod
    def zeros(cls, dim: int) -> "BilinearForm":
        return cls(Matrix.zeros(dim, dim))

    @classmethod
    def from_entries(cls, dim: int,
                     entries: Iterable[tuple[int, int, Fraction]]) -> "BilinearForm":
        buf = [[Fraction(0)] * dim for _ in range(dim)]
        for i, j, v in entries:
            buf[i][j] = v
        return cls(Matrix(buf))

    def entries(self) -> list[tuple[int, int, Fraction]]:
        return list(self.matrix.nonzero())

    def is_symmetric(self) -> bool:
        return self.matrix.transpose() == self.matrix

    def is_skew(self) -> bool:
        return self.matrix.transpose() == -self.matrix

    def is_nondegenerate(self) -> bool:
        return len(row_echelon_pivots(self.matrix)) == self.dim


# Form conditions per level.  Each term is signed B(product, basis) or
# B(basis, product) with variables (x, y, z) ranging over basis triples:
#   ("pk", op, a, b, c)  ->  B(e_a op e_b, e_c)
#   ("kp", a, op, b, c)  ->  B(e_a, e_b op e_c)
_FORM_CONDITIONS: dict[int, dict[str, tuple]] = {
    1: {
        "invariant_assoc": ((1, ("pk", "star", "x", "y", "z")),
                            (-1, ("kp", "x", "star", "y", "z"))),
        "connes_cocycle": ((1, ("pk", "star", "x", "y", "z")),
                           (1, ("pk", "star", "y", "z", "x")),
                           (1, ("pk", "star", "z", "x", "y"))),
    },
    2: {
        "dend_inv_succ": ((1, ("pk", "succ", "x", "y", "z")),
                          (-1, ("kp", "y", "star", "z", "x"))),
        "dend_inv_prec": ((1, ("pk", "prec", "x", "y", "z")),
                          (-1, ("kp", "x", "star", "y", "z"))),
        "dend_aux": ((1, ("pk", "succ", "x", "y", "z")),
                     (1, ("kp", "x", "prec", "y", "z"))),
        "dend_cyclic_succ": ((1, ("pk", "succ", "x", "y", "z")),
                             (1, ("pk", "succ", "y", "z", "x")),
                             (1, ("pk", "succ", "z", "x", "y"))),
        "dend_cyclic_prec": ((1, ("pk", "prec", "x", "y", "z")),
                             (1, ("pk", "prec", "y", "z", "x")),
                             (1, ("pk", "prec", "z", "x", "y"))),
        "dend_2cocycle": ((1, ("pk", "star", "x", "y", "z")),
                          (-1, ("kp", "y", "prec", "z", "x")),
                          (-1, ("kp", "x", "succ", "y", "z"))),
    },
    4: {
        "quadri_inv_se": ((1, ("pk", "se", "x", "y", "z")),
                          (-1, ("kp", "y", "star", "z", "x"))),
        "quadri_inv_ne": ((1, ("pk", "ne", "x", "y", "z")),
                          (1, ("kp", "x", "prec", "y", "z"))),
        "quadri_inv_nw": ((1, ("pk", "nw", "x", "y", "z")),
                          (-1, ("kp", "x", "star", "y", "z"))),
        "quadri_inv_sw": ((1, ("pk", "sw", "x", "y", "z")),
                          (1, ("kp", "y", "succ", "z", "x"))),
        "quadri_aux_1": ((1, ("kp", "x", "succ", "y", "z")),
                         (-1, ("pk", "wedge", "x", "y", "z"))),
        "quadri_aux_2": ((1, ("kp", "y", "prec", "z", "x")),
                         (-1, ("pk", "vee", "x", "y", "z"))),
        "quadri_aux_3": ((1, ("pk", "se", "x", "y", "z")),
                         (-1, ("kp", "x", "nw", "y", "z"))),
        "quadri_aux_4": ((1, ("pk", "ne", "x", "y", "z")),
                         (1, ("pk", "sw", "z", "x", "y")),
                         (1, ("pk", "star", "y", "z", "x"))),
        "quadri_aux_5": ((1, ("pk", "se", "x", "y", "z")),
                         (1, ("pk", "ne", "y", "z", "x")),
                         (-1, ("pk", "succ", "z", "x", "y"))),
        "quadri_aux_6": ((1, ("pk", "nw", "x", "y", "z")),
                         (1, ("pk", "sw", "z", "x", "y")),
                         (-1, ("pk", "prec", "y", "z", "x"))),
        "quadri_2cocycle_a": ((1, ("kp", "z", "succ", "x", "y")),
                              (-1, ("kp", "x", "sw", "y", "z")),
                              (1, ("kp", "y", "wedge", "z", "x"))),
        "quadri_2cocycle_b": ((1, ("kp", "z", "prec", "x", "y")),
                              (1, ("kp", "x", "vee", "y", "z")),
                              (-1, ("kp", "y", "ne", "z", "x"))),
    },
    8: {},
}

_VARS = {"x": 0, "y": 1, "z": 2}

_COMPOSITES: dict[int, dict[str, tuple[str, ...]]] = {
    2: {"dend_invariant": ("dend_inv_succ", "dend_inv_prec")},
    4: {"quadri_invariant": ("quadri_inv_se", "quadri_inv_ne",
                             "quadri_inv_nw", "quadri_inv_sw"),
        "quadri_2cocycle": ("quadri_2cocycle_a", "quadri_2cocycle_b")},
}


@dataclass(frozen=True)
class FormClassification:
    symmetric: bool
    skew: bool
    nondegenerate: bool
    flags: Mapping[str, bool]


def _scaled_grids(b: BilinearForm) -> tuple[int, tuple[list, list]]:
    """The lcm D_B of the grid's denominators, and D_B B and its transpose
    as dense int rows."""
    den, cols = b.matrix.scaled_cols()
    bt = [[0] * b.dim for _ in cols]
    for c, col in enumerate(cols):
        for r, v in col:
            bt[c][r] = v
    return den, ([list(row) for row in zip(*bt)], bt)


def _defects(d: int, terms) -> Iterator[tuple[tuple, int]]:
    """(triple, value) for every basis triple, in order, on which the sum
    of the terms is nonzero.  A term (w, fib, grid, p, q, r) stands for
    w sum_m (e_p op e_q)_m grid[m][r], with p, q, r the triple's entries
    at those positions and fib the scaled fibres of op: B(e_a op e_b, e_c)
    reads the grid of B, and B(e_a, e_b op e_c) its transpose at (b, c, a)."""
    for triple in product(range(d), repeat=3):
        total = 0
        for w, fib, grid, p, q, r in terms:
            c = triple[r]
            for m, v in fib.get((triple[p], triple[q]), ()):
                total += w * v * grid[m][c]
        if total:
            yield triple, total


def _parse(sign: int, term: tuple) -> tuple:
    """A ``_FORM_CONDITIONS`` term as (sign, op, transposed, p, q, r)."""
    if term[0] == "pk":
        _, op, p, q, r = term
    else:
        _, r, op, p, q = term
    return sign, op, term[0] == "kp", _VARS[p], _VARS[q], _VARS[r]


def classify_form(a: ClusterAlgebra, b: BilinearForm) -> FormClassification:
    """Evaluate every form condition defined at a's level.

    Parity flags report what the form is; the condition flags are pure
    identity tests (a "Connes cocycle" in the usual sense is a skew form
    whose connes_cocycle flag holds, and similarly for the 2-cocycles).
    """
    if b.dim != a.dim:
        raise DimensionMismatch("form dimension does not match the algebra")
    level = int(a.level)
    conditions = {name: [_parse(*t) for t in terms]
                  for name, terms in _FORM_CONDITIONS[level].items()}
    _, fibres = scaled_fibres(a, {t[1] for terms in conditions.values() for t in terms})
    _, grids = _scaled_grids(b)
    flags = {}
    for name, terms in conditions.items():
        resolved = [(w, fibres[op], grids[k], *pqr) for w, op, k, *pqr in terms]
        flags[name] = next(_defects(a.dim, resolved), None) is None
    for name, parts in _COMPOSITES.get(level, {}).items():
        flags[name] = all(flags[p] for p in parts)
    return FormClassification(symmetric=b.is_symmetric(), skew=b.is_skew(),
                              nondegenerate=b.is_nondegenerate(), flags=flags)


def form_to_tensor(b: BilinearForm) -> Tensor2:
    """The unique tensor whose bridge image is b (grid inversion)."""
    return Tensor2(b.matrix.inverse())


def tensor_to_form(r: Tensor2) -> BilinearForm:
    """The form corresponding to an invertible tensor (grid inversion).

    Skew tensors give skew forms and symmetric give symmetric.
    """
    return BilinearForm(r.grid.inverse())


def canonical_cocycle_form(d: int) -> BilinearForm:
    """om(x + a*, y + b*) = -<x, b*> + <a*, y> on a 2d-dimensional double."""
    entries = [(i, d + i, Fraction(-1)) for i in range(d)]
    entries += [(d + i, i, Fraction(1)) for i in range(d)]
    return BilinearForm.from_entries(2 * d, entries)


def canonical_invariant_form(d: int) -> BilinearForm:
    """B(x + a*, y + b*) = <x, b*> + <a*, y> on a 2d-dimensional double."""
    entries = [(i, d + i, Fraction(1)) for i in range(d)]
    entries += [(d + i, i, Fraction(1)) for i in range(d)]
    return BilinearForm.from_entries(2 * d, entries)


_BRIDGE = {
    1: ("skew", "connes_cocycle", check_aybe),
    2: ("sym", "dend_2cocycle", check_d_equation),
    4: ("skew", "quadri_2cocycle", check_q_equation),
}


@dataclass(frozen=True)
class BridgeResult:
    equation_report: Report
    classification: FormClassification
    flag_name: str

    @property
    def form_ok(self) -> bool:
        return self.classification.flags[self.flag_name]

    @property
    def agree(self) -> bool:
        return self.equation_report.ok == self.form_ok


def bridge_equivalence(a: ClusterAlgebra, r: Tensor2) -> BridgeResult:
    """Invertible r solves its level's equation iff its bridge form
    satisfies the level's cocycle condition; both sides are computed."""
    level = int(a.level)
    if level not in _BRIDGE:
        raise LevelError("the bridge is defined at levels 1, 2 and 4")
    parity, flag, checker = _BRIDGE[level]
    if parity == "skew" and not r.is_skew():
        raise ValueError("bridge at this level needs a skew-symmetric tensor")
    if parity == "sym" and not r.is_symmetric():
        raise ValueError("bridge at this level needs a symmetric tensor")
    form = tensor_to_form(r)  # raises Singular for degenerate input
    return BridgeResult(checker(a, r), classify_form(a, form), flag)


# finer structure solved from a nondegenerate form: for each operation of
# the finer level, B(x op_new y, z) equals a signed coarser-side value,
# either B(x, y op z) (pattern "A") or B(y, z op x) (pattern "B").
_FINER_IDENTITIES: dict[int, dict[str, tuple[str, str, int]]] = {
    1: {"succ": ("B", "star", 1), "prec": ("A", "star", 1)},
    2: {"se": ("B", "star", 1), "ne": ("A", "prec", -1),
        "nw": ("A", "star", 1), "sw": ("B", "succ", -1)},
    4: {"se1": ("A", "nw", 1), "se2": ("B", "star", 1),
        "ne1": ("A", "prec", -1), "ne2": ("B", "vee", -1),
        "nw1": ("A", "star", 1), "nw2": ("B", "se", 1),
        "sw1": ("A", "wedge", -1), "sw2": ("B", "succ", -1)},
}

_FINER_FLAG = {1: "connes_cocycle", 2: "dend_2cocycle", 4: "quadri_2cocycle"}
_FINER_PARITY = {1: "skew", 2: "sym", 4: "skew"}


def finer_form_identities(a: ClusterAlgebra, b: BilinearForm,
                          finer: ClusterAlgebra) -> Report:
    """Check the defining identities of a form-induced finer structure."""
    table = _FINER_IDENTITIES[int(a.level)]
    if int(finer.level) != 2 * int(a.level):
        raise LevelError("the finer algebra must be at twice the level")
    den_f, new_fibres = scaled_fibres(finer, table)
    den_a, coarse_fibres = scaled_fibres(a, {coarse for _, coarse, _ in table.values()})
    den_b, (grid, grid_t) = _scaled_grids(b)
    divisor = den_f * den_a * den_b
    violations = []
    for op, (pattern, coarse_op, sign) in table.items():
        # pattern "A": B(x, y op z); pattern "B": B(y, z op x)
        rhs = (1, 2, 0) if pattern == "A" else (2, 0, 1)
        terms = ((den_a, new_fibres[op], grid, 0, 1, 2),
                 (-sign * den_f, coarse_fibres[coarse_op], grid_t, *rhs))
        violations.extend(Violation(f"finer-{op}", triple, (Fraction(v, divisor),))
                          for triple, v in _defects(a.dim, terms))
    return Report(tuple(violations))


def finer_from_form(a: ClusterAlgebra, b: BilinearForm,
                    require_flags: bool = True,
                    verify: bool = True) -> ClusterAlgebra:
    """Finer (level-doubled) structure solved from a nondegenerate form.

    Implemented through the invertible-operator route: the inverse of
    the form's pairing map is an O-operator for the dual regular
    bimodule, and the compatible finer structure it induces satisfies
    the defining form identities, which are re-checked when verify=True.
    With require_flags=True the level's parity and cocycle flag are
    demanded up front; require_flags=False builds the candidate
    structure for arbitrary nondegenerate forms (no verification), which
    is dendriform/quadri/octo exactly when the flag holds.
    """
    level = int(a.level)
    if level not in _FINER_FLAG:
        raise LevelError("form-induced finer structures stop at level 4 input")
    # pairing map T: A -> A*, <T(x), y> = B(x, y) has matrix B^T; its
    # inverse A* -> A is the O-operator.
    try:
        s = InterMap(b.matrix.transpose().inverse())
    except Singular:
        raise Singular("form is degenerate") from None
    if require_flags:
        parity_ok = b.is_skew() if _FINER_PARITY[level] == "skew" else b.is_symmetric()
        if not parity_ok:
            raise PreconditionFailed(f"form must be {_FINER_PARITY[level]} at "
                                     f"level {level}")
        flag = _FINER_FLAG[level]
        if not classify_form(a, b).flags[flag]:
            raise PreconditionFailed(f"form lacks the {flag} property")
    m = dual_bimodule(a, regular_bimodule(a))
    if not require_flags:
        return compatible_from_invertible(a, m, s, check=False, verify=False)
    out = compatible_from_invertible(a, m, s, check=True, verify=verify)
    if verify:
        rep = finer_form_identities(a, b, out)
        if not rep.ok:
            raise VerificationFailed("finer structure fails its form identities", rep)
    return out
