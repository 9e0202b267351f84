from fractions import Fraction

import pytest

from clusteralg import catalog, cli
from clusteralg.bimodules import (PreconditionFailed, dual_bimodule,
                                  regular_bimodule, restrict_bimodule,
                                  semidirect_sum)
from clusteralg.core import (LevelError, algebra_entries, algebra_from_entries,
                             check_axioms, zero_algebra)
from clusteralg.bundle import dumps, serialize_algebra, serialize_tensor2
from clusteralg.linalg import DimensionMismatch, Matrix, Tensor3, format_rational
from clusteralg.operators import InterMap
from clusteralg.yangbaxter import (Tensor2, aybe_as_o_operator,
                                   canonical_double_solution, check_aybe,
                                   check_d_equation, check_o_equation,
                                   check_q_dual_forms, check_q_equation,
                                   d_equation_equivalents, double_product,
                                   equation_ok_by_id, image_double_solution,
                                   induce_dual_product, lift_o_operator,
                                   o_equation_as_o_operator,
                                   q_dual_as_o_operator,
                                   q_equation_as_o_operator, slot_product,
                                   _equation_report)

import oracles

PLACES = ((12, 13), (13, 23), (23, 12), (12, 23), (13, 12), (23, 13))


def test_slot_product_zero_factor(nil2):
    z = Tensor2.zeros(2)
    r = catalog.random_tensor2(2, "none", 3)
    for place in PLACES:
        assert slot_product(nil2, "star", z, r, place).is_zero()
        assert slot_product(nil2, "star", r, z, place).is_zero()


def test_slot_product_scalar_algebra():
    a = algebra_from_entries(1, 1, [("star", 0, 0, 0, Fraction(1))])
    r = Tensor2.from_entries(1, [(0, 0, Fraction(1))])
    for place in PLACES:
        out = slot_product(a, "star", r, r, place)
        assert list(out.nonzero()) == [(0, 0, 0, Fraction(1))]


def test_slot_product_single_term(nil2):
    # e0 x e0 placed at (12) and (13): the product e0 e0 = e0 sits in slot 1
    r = Tensor2.from_entries(2, [(0, 0, Fraction(1))])
    out = slot_product(nil2, "star", r, r, (12, 13))
    assert list(out.nonzero()) == [(0, 0, 0, Fraction(1))]


def test_slot_product_bilinearity(quadri3):
    r1 = catalog.random_tensor2(3, "none", 21)
    r2 = catalog.random_tensor2(3, "none", 22)
    s = catalog.random_tensor2(3, "none", 23)
    c = Fraction(5, 3)
    for place in PLACES:
        left = slot_product(quadri3, "succ", r1 + r2.scale(c), s, place)
        split = (slot_product(quadri3, "succ", r1, s, place)
                 + slot_product(quadri3, "succ", r2, s, place).scale(c))
        assert left == split
        right = slot_product(quadri3, "succ", s, r1 + r2.scale(c), place)
        rsplit = (slot_product(quadri3, "succ", s, r1, place)
                  + slot_product(quadri3, "succ", s, r2, place).scale(c))
        assert right == rsplit


@pytest.mark.parametrize("name,op", [("nil2", "star"), ("ut2", "star"),
                                     ("dend_from_int3", "succ"),
                                     ("dend_from_int3", "star"),
                                     ("quadri_from_int3_pair", "nw"),
                                     ("quadri_from_int3_pair", "wedge")])
def test_slot_product_matches_formal_oracle(name, op):
    a = catalog.load(name).value
    from clusteralg.core import derived_op
    c = oracles.nested(derived_op(a, op))
    for seed in range(4):
        r = catalog.random_tensor2(a.dim, "none", seed)
        s = catalog.random_tensor2(a.dim, "none", seed + 50)
        for place in PLACES:
            got = slot_product(a, op, r, s, place)
            slots = (tuple(int(ch) for ch in str(place[0])),
                     tuple(int(ch) for ch in str(place[1])))
            want = oracles.formal_mul(c, oracles.place(r, slots[0]),
                                      oracles.place(s, slots[1]), a.dim)
            assert oracles.nested(got) == want


def test_aybe_zero_and_failing_example(nil2):
    assert check_aybe(nil2, Tensor2.zeros(2)).ok
    r = Tensor2.from_entries(2, [(0, 0, Fraction(1))])
    rep = check_aybe(nil2, r)
    # hand expansion: each of the three terms is e0 x e0 x e0, so the
    # signed sum is exactly e0 x e0 x e0
    assert [(v.witness, v.discrepancy) for v in rep.violations] == \
        [((0, 0, 0), (Fraction(1),))]
    assert not oracles.oracle_aybe(nil2, r)


@pytest.mark.parametrize("name", ["nil2", "ut2", "trunc3"])
def test_aybe_checker_matches_oracle(name):
    a = catalog.load(name).value
    for seed in range(6):
        r = catalog.random_tensor2(a.dim, "none", seed)
        assert check_aybe(a, r).ok == oracles.oracle_aybe(a, r)


def test_d_equation_canonical_and_mutation(dend_rb):
    lift = canonical_double_solution(dend_rb, "Cor3.3.8")
    assert lift.equation_report.ok
    assert oracles.oracle_d_equation(lift.double, lift.tensor)
    # zeroing one entry of the canonical solution breaks it
    entries = [e for e in lift.tensor.entries() if (e[0], e[1]) != (0, 2)]
    mutated = Tensor2.from_entries(lift.tensor.dim, entries)
    assert not check_d_equation(lift.double, mutated).ok


@pytest.mark.parametrize("name", ["dend_from_rb_nil2", "dend_from_int3"])
def test_d_equation_matches_oracle(name):
    a = catalog.load(name).value
    for seed in range(6):
        r = catalog.random_tensor2(a.dim, "none", seed)
        assert check_d_equation(a, r).ok == oracles.oracle_d_equation(a, r)


def test_q_equation_canonical_and_sum_identity(quadri3):
    lift = canonical_double_solution(quadri3, "Cor4.2.10")
    assert lift.equation_report.ok
    assert oracles.oracle_q_equation(lift.double, lift.tensor)
    # 3.4.19's combination is the sum of the defining two, identically
    for seed in range(5):
        r = catalog.random_tensor2(quadri3.dim, "none", seed)
        t17 = _sum_tensor(quadri3, r, "3.4.17")
        t18 = _sum_tensor(quadri3, r, "3.4.18")
        t19 = _sum_tensor(quadri3, r, "3.4.19")
        assert t19 == t17 + t18


def _sum_tensor(a, r, ident):
    from clusteralg.yangbaxter import _EQUATIONS
    acc = Tensor3.zeros(a.dim, a.dim, a.dim)
    for sign, op, place in _EQUATIONS[ident]:
        term = slot_product(a, op, r, r, place)
        acc = acc + (term if sign > 0 else -term)
    return acc


@pytest.mark.parametrize("name", ["quadri_from_int3_pair", "quadri_from_int4_pair"])
def test_q_equation_matches_oracle(name):
    a = catalog.load(name).value
    for seed in range(5):
        r = catalog.random_tensor2(a.dim, "none", seed)
        assert check_q_equation(a, r).ok == oracles.oracle_q_equation(a, r)


@pytest.mark.parametrize("name", ["quadri_from_int3_pair", "quadri_from_int4_pair"])
def test_q_dual_pairings(name):
    a = catalog.load(name).value
    zero = Tensor2.zeros(a.dim)
    assert check_q_dual_forms(a, zero).ok
    for seed in range(10):
        r = catalog.random_tensor2(a.dim, "skew", seed)
        primal = check_q_equation(a, r)
        dual = check_q_dual_forms(a, r)
        p19 = _equation_report(a, r, ("3.4.19",)).ok
        assert equation_ok_by_id(primal, "3.4.17") == equation_ok_by_id(dual, "4.2.8")
        assert equation_ok_by_id(primal, "3.4.18") == equation_ok_by_id(dual, "4.2.6")
        assert p19 == equation_ok_by_id(dual, "4.2.5")
        assert p19 == equation_ok_by_id(dual, "4.2.7")
        assert q_dual_as_o_operator(a, r).ok == dual.ok
        assert q_equation_as_o_operator(a, r).ok == primal.ok
    with pytest.raises(ValueError):
        check_q_dual_forms(a, catalog.random_tensor2(a.dim, "sym", 3))


def test_q_canonical_passes_dual_forms(quadri3):
    lift = canonical_double_solution(quadri3, "Cor4.2.10")
    assert check_q_dual_forms(lift.double, lift.tensor).ok


def test_o_equation(octo3, octo4):
    assert check_o_equation(octo4, Tensor2.zeros(4)).ok
    for seed in range(8):
        for a8 in (octo3, octo4):
            r = catalog.random_tensor2(a8.dim, "sym", seed)
            rep = check_o_equation(a8, r)
            assert rep.ok == oracles.oracle_o_equation(a8, r)
            assert rep.ok == o_equation_as_o_operator(a8, r).ok
    # every symmetric tensor solves the equations of the zero octo algebra
    assert check_o_equation(octo3, catalog.random_tensor2(3, "sym", 1)).ok
    # perturbing a symmetric solution on the nonzero octo breaks at least one
    good = Tensor2.zeros(4)
    bad = Tensor2.from_entries(4, [(0, 0, Fraction(1))])
    assert check_o_equation(octo4, good).ok
    assert not check_o_equation(octo4, bad).ok


@pytest.mark.parametrize("name", ["nil2", "ut2", "trunc3"])
def test_aybe_operator_equivalence(name):
    a = catalog.load(name).value
    assert aybe_as_o_operator(a, Tensor2.zeros(a.dim)).ok
    for seed in range(20):
        r = catalog.random_tensor2(a.dim, "skew", seed)
        assert check_aybe(a, r).ok == aybe_as_o_operator(a, r).ok
    with pytest.raises(ValueError):
        aybe_as_o_operator(a, catalog.random_tensor2(a.dim, "sym", 0))


def test_aybe_operator_equivalence_true_case(dend_int3):
    lift = canonical_double_solution(dend_int3, "Cor2.2.8")
    assert check_aybe(lift.double, lift.tensor).ok
    assert aybe_as_o_operator(lift.double, lift.tensor).ok


@pytest.mark.parametrize("name", ["dend_from_rb_nil2", "dend_from_int3"])
def test_d_equation_four_way(name):
    a = catalog.load(name).value
    zero = d_equation_equivalents(a, Tensor2.zeros(a.dim))
    assert zero.agree and all(zero.booleans.values())
    for seed in range(20):
        r = catalog.random_tensor2(a.dim, "sym", seed)
        assert d_equation_equivalents(a, r).agree
    with pytest.raises(ValueError):
        d_equation_equivalents(a, catalog.random_tensor2(a.dim, "skew", 1))


def test_d_equation_four_way_true_case(dend_rb):
    lift = canonical_double_solution(dend_rb, "Cor3.3.8")
    res = d_equation_equivalents(lift.double, lift.tensor)
    assert res.agree and all(res.booleans.values())
    # the dual-regular condition is equivalent as well
    dm = dual_bimodule(lift.double, regular_bimodule(lift.double))
    from clusteralg.operators import is_o_operator
    assert is_o_operator(lift.double, dm, lift.tensor.as_intermap()).ok


def test_lift_zero_map(nil2):
    lift = lift_o_operator(nil2, regular_bimodule(nil2), InterMap.zero(2, 2), "skew")
    assert lift.tensor.grid.is_zero()
    assert lift.equation_report.ok and lift.operator_report.ok


def test_lift_level1(nil2, rb_nil2):
    lift = lift_o_operator(nil2, regular_bimodule(nil2), rb_nil2, "skew")
    assert lift.double.dim == 4 and int(lift.double.level) == 1
    assert lift.tensor.is_skew()
    assert lift.equation_report.ok and lift.operator_report.ok
    assert oracles.oracle_aybe(lift.double, lift.tensor)
    # perturbed candidate: both checks fail together
    bad = InterMap(Matrix([[Fraction(1, 2), 0], [1, 0]]))
    lift_bad = lift_o_operator(nil2, regular_bimodule(nil2), bad, "skew")
    assert not lift_bad.operator_report.ok
    assert not lift_bad.equation_report.ok


def test_lift_level2_and_level4(dend_rb, dend_int3, rb_nil2, int3, quadri3):
    for a, t in ((dend_rb, rb_nil2), (dend_int3, int3)):
        lift = lift_o_operator(a, regular_bimodule(a), t, "sym")
        assert lift.tensor.is_symmetric()
        assert lift.equation_report.ok and lift.operator_report.ok
    lift4 = lift_o_operator(quadri3, regular_bimodule(quadri3), int3, "skew")
    assert lift4.equation_report.ok and lift4.operator_report.ok
    with pytest.raises(LevelError):
        lift_o_operator(dend_rb, regular_bimodule(dend_rb), rb_nil2, "skew")


def test_canonical_variants_block_form(dend_rb, quadri3, octo4):
    cases = [(dend_rb, "Cor2.2.8", -1), (dend_rb, "Cor3.3.8", 1),
             (quadri3, "Prop3.4.12", 1), (quadri3, "Cor4.2.10", -1),
             (octo4, "Cor4.4.13", -1)]
    for a, variant, sign in cases:
        lift = canonical_double_solution(a, variant)
        assert lift.equation_report.ok and lift.operator_report.ok
        d = a.dim
        expect = Tensor2.from_entries(2 * d, [(i, d + i, Fraction(1)) for i in range(d)]
                                      + [(d + i, i, Fraction(sign)) for i in range(d)])
        assert lift.tensor.grid == expect.grid
    with pytest.raises(ValueError):
        canonical_double_solution(dend_rb, "Cor9.9.9")
    with pytest.raises(LevelError):
        canonical_double_solution(quadri3, "Cor2.2.8")


def test_image_lift_level1(nil2, rb_nil2):
    res = image_double_solution(nil2, regular_bimodule(nil2), rb_nil2)
    assert int(res.double.level) == 2 and res.double.dim == 3
    assert res.tensor.is_symmetric()
    assert res.equation_report.ok
    assert oracles.oracle_d_equation(res.double, res.tensor)


def test_image_lift_level2(dend_rb):
    _, outer = restrict_bimodule(dend_rb, regular_bimodule(dend_rb), "outer-zero")
    res = image_double_solution(dend_rb, outer, InterMap.identity(2))
    assert int(res.double.level) == 4 and res.double.dim == 4
    assert res.tensor.is_skew()
    assert res.equation_report.ok
    assert oracles.oracle_q_equation(res.double, res.tensor)


def test_induce_dual_product_level1(nil2, dend_int3):
    assert all(t.is_zero() for t in
               induce_dual_product(nil2, Tensor2.zeros(2)).sc.values())
    lift = canonical_double_solution(dend_int3, "Cor2.2.8")
    dual = induce_dual_product(lift.double, lift.tensor)
    assert check_axioms(dual).ok and oracles.oracle_assoc(dual)
    with pytest.raises(PreconditionFailed):
        induce_dual_product(nil2, Tensor2.from_entries(2, [(0, 0, Fraction(1))]))


def test_induce_dual_product_level2(dend_rb, dend_int3, quadri3):
    for a in (dend_rb, dend_int3):
        lift = canonical_double_solution(a, "Cor3.3.8")
        dual = induce_dual_product(lift.double, lift.tensor)
        assert check_axioms(dual).ok and oracles.oracle_dendriform(dual)
    lift = canonical_double_solution(quadri3, "Prop3.4.12")
    dual = induce_dual_product(lift.double, lift.tensor)
    assert check_axioms(dual).ok


def test_double_product_zero_dual_reduces_to_semidirect(nil2, dend_rb):
    zero1 = zero_algebra(1, 2)
    frob = double_product(nil2, zero1, "frobenius")
    semi = semidirect_sum(nil2, dual_bimodule(nil2, regular_bimodule(nil2)))
    assert dict(frob.sc) == dict(semi.sc)
    zero2 = zero_algebra(2, 2)
    conn = double_product(dend_rb, zero2, "connes")
    lift = canonical_double_solution(dend_rb, "Cor2.2.8")
    assert dict(conn.sc) == dict(lift.double.sc)


def test_double_product_frobenius_with_induced_dual(dend_int3):
    from clusteralg.forms import canonical_invariant_form, classify_form
    lift = canonical_double_solution(dend_int3, "Cor2.2.8")
    dual = induce_dual_product(lift.double, lift.tensor)
    big = double_product(lift.double, dual, "frobenius")
    assert check_axioms(big).ok and big.dim == 12
    cls = classify_form(big, canonical_invariant_form(lift.double.dim))
    assert cls.flags["invariant_assoc"]


def test_double_product_connes_with_induced_dual(dend_int3):
    from clusteralg.forms import canonical_cocycle_form, classify_form
    lift = canonical_double_solution(dend_int3, "Cor3.3.8")
    dual = induce_dual_product(lift.double, lift.tensor)
    big = double_product(lift.double, dual, "connes")
    assert check_axioms(big).ok and big.dim == 12
    cls = classify_form(big, canonical_cocycle_form(lift.double.dim))
    assert cls.flags["connes_cocycle"]


def _entry_rows(a) -> tuple:
    return tuple((op, i, j, k, format_rational(v))
                 for op, i, j, k, v in algebra_entries(a))


def _canonical_dual(case: str):
    name, variant = case.split("/")
    lift = canonical_double_solution(catalog.load(name).value, variant)
    return lift.double, induce_dual_product(lift.double, lift.tensor)


# The exact algebra_entries of the dual products induced by the canonical
# solutions, "catalog entry/variant" -> rows (op, i, j, k, value), and of
# the double products with that dual and with the zero dual,
# "catalog entry/variant/induced|zero" -> rows.
GOLDEN_DUAL_PRODUCTS = {
    "dend_from_int3/Cor2.2.8": (
        ("star", 1, 3, 0, "-1"), ("star", 2, 3, 1, "-1"),
        ("star", 2, 4, 0, "-1/2"), ("star", 3, 1, 0, "-1"),
        ("star", 3, 2, 1, "-1"), ("star", 3, 3, 4, "-2"),
        ("star", 3, 4, 5, "-3/2"), ("star", 4, 2, 0, "-1/2"),
        ("star", 4, 3, 5, "-3/2"),
    ),
    "dend_from_rb_nil2/Cor3.3.8": (
        ("succ", 2, 1, 0, "-1"), ("succ", 2, 2, 3, "-1"),
        ("prec", 1, 2, 0, "-1"), ("prec", 2, 2, 3, "-1"),
    ),
    "dend_from_int3/Cor3.3.8": (
        ("succ", 3, 1, 0, "-1"), ("succ", 3, 2, 1, "-1"),
        ("succ", 3, 3, 4, "-1"), ("succ", 3, 4, 5, "-1"),
        ("succ", 4, 2, 0, "-1/2"), ("succ", 4, 3, 5, "-1/2"),
        ("prec", 1, 3, 0, "-1"), ("prec", 2, 3, 1, "-1"),
        ("prec", 2, 4, 0, "-1/2"), ("prec", 3, 3, 4, "-1"),
        ("prec", 3, 4, 5, "-1/2"), ("prec", 4, 3, 5, "-1"),
    ),
    "quadri_from_int3_pair/Prop3.4.12": (
        ("succ", 2, 3, 0, "1"), ("succ", 3, 2, 0, "-3/2"),
        ("succ", 3, 3, 5, "-3/2"), ("prec", 2, 3, 0, "-3/2"),
        ("prec", 3, 2, 0, "1"), ("prec", 3, 3, 5, "-3/2"),
    ),
}

GOLDEN_DOUBLE_PRODUCTS = {
    "dend_from_int3/Cor2.2.8/induced": (
        ("star", 0, 0, 1, "2"), ("star", 0, 1, 2, "3/2"),
        ("star", 0, 4, 3, "1"), ("star", 0, 5, 4, "1"),
        ("star", 0, 7, 3, "-1"), ("star", 0, 7, 6, "2"),
        ("star", 0, 8, 4, "-1/2"), ("star", 0, 8, 7, "3/2"),
        ("star", 0, 9, 1, "-1"), ("star", 0, 9, 10, "1"),
        ("star", 0, 10, 2, "-1/2"), ("star", 0, 10, 11, "1"),
        ("star", 1, 0, 2, "3/2"), ("star", 1, 5, 3, "1/2"),
        ("star", 1, 8, 3, "-1"), ("star", 1, 8, 6, "3/2"),
        ("star", 1, 9, 2, "-1"), ("star", 1, 9, 11, "1/2"),
        ("star", 4, 0, 3, "1"), ("star", 4, 9, 3, "-2"),
        ("star", 4, 9, 6, "1"), ("star", 5, 0, 4, "1"),
        ("star", 5, 1, 3, "1/2"), ("star", 5, 9, 4, "-3/2"),
        ("star", 5, 9, 7, "1/2"), ("star", 5, 10, 3, "-3/2"),
        ("star", 5, 10, 6, "1"), ("star", 7, 0, 3, "-1"),
        ("star", 7, 0, 6, "2"), ("star", 7, 9, 6, "-1"),
        ("star", 8, 0, 4, "-1/2"), ("star", 8, 0, 7, "3/2"),
        ("star", 8, 1, 3, "-1"), ("star", 8, 1, 6, "3/2"),
        ("star", 8, 9, 7, "-1"), ("star", 8, 10, 6, "-1/2"),
        ("star", 9, 0, 1, "-1"), ("star", 9, 0, 10, "1"),
        ("star", 9, 1, 2, "-1"), ("star", 9, 1, 11, "1/2"),
        ("star", 9, 4, 3, "-2"), ("star", 9, 4, 6, "1"),
        ("star", 9, 5, 4, "-3/2"), ("star", 9, 5, 7, "1/2"),
        ("star", 9, 7, 6, "-1"), ("star", 9, 8, 7, "-1"),
        ("star", 9, 9, 10, "-2"), ("star", 9, 10, 11, "-3/2"),
        ("star", 10, 0, 2, "-1/2"), ("star", 10, 0, 11, "1"),
        ("star", 10, 5, 3, "-3/2"), ("star", 10, 5, 6, "1"),
        ("star", 10, 8, 6, "-1/2"), ("star", 10, 9, 11, "-3/2"),
    ),
    "dend_from_int3/Cor2.2.8/zero": (
        ("star", 0, 0, 1, "2"), ("star", 0, 1, 2, "3/2"),
        ("star", 0, 4, 3, "1"), ("star", 0, 5, 4, "1"), ("star", 0, 7, 6, "2"),
        ("star", 0, 8, 7, "3/2"), ("star", 0, 9, 10, "1"),
        ("star", 0, 10, 11, "1"), ("star", 1, 0, 2, "3/2"),
        ("star", 1, 5, 3, "1/2"), ("star", 1, 8, 6, "3/2"),
        ("star", 1, 9, 11, "1/2"), ("star", 4, 0, 3, "1"),
        ("star", 4, 9, 6, "1"), ("star", 5, 0, 4, "1"),
        ("star", 5, 1, 3, "1/2"), ("star", 5, 9, 7, "1/2"),
        ("star", 5, 10, 6, "1"), ("star", 7, 0, 6, "2"),
        ("star", 8, 0, 7, "3/2"), ("star", 8, 1, 6, "3/2"),
        ("star", 9, 0, 10, "1"), ("star", 9, 1, 11, "1/2"),
        ("star", 9, 4, 6, "1"), ("star", 9, 5, 7, "1/2"),
        ("star", 10, 0, 11, "1"), ("star", 10, 5, 6, "1"),
    ),
    "dend_from_rb_nil2/Cor3.3.8/induced": (
        ("star", 0, 0, 1, "2"), ("star", 0, 3, 2, "1"), ("star", 0, 5, 4, "1"),
        ("star", 0, 6, 1, "-1"), ("star", 0, 6, 7, "1"),
        ("star", 3, 0, 2, "1"), ("star", 3, 6, 2, "-1"),
        ("star", 5, 0, 4, "1"), ("star", 5, 6, 4, "-1"),
        ("star", 6, 0, 1, "-1"), ("star", 6, 0, 7, "1"),
        ("star", 6, 3, 2, "-1"), ("star", 6, 5, 4, "-1"),
        ("star", 6, 6, 7, "-2"),
    ),
    "dend_from_rb_nil2/Cor3.3.8/zero": (
        ("star", 0, 0, 1, "2"), ("star", 0, 3, 2, "1"), ("star", 0, 5, 4, "1"),
        ("star", 0, 6, 7, "1"), ("star", 3, 0, 2, "1"), ("star", 5, 0, 4, "1"),
        ("star", 6, 0, 7, "1"),
    ),
    "dend_from_int3/Cor3.3.8/induced": (
        ("star", 0, 0, 1, "2"), ("star", 0, 1, 2, "3/2"),
        ("star", 0, 4, 3, "1"), ("star", 0, 5, 4, "1"), ("star", 0, 7, 6, "1"),
        ("star", 0, 8, 7, "1"), ("star", 0, 9, 1, "-1"),
        ("star", 0, 9, 10, "1"), ("star", 0, 10, 2, "-1/2"),
        ("star", 0, 10, 11, "1"), ("star", 1, 0, 2, "3/2"),
        ("star", 1, 5, 3, "1/2"), ("star", 1, 8, 6, "1/2"),
        ("star", 1, 9, 2, "-1"), ("star", 1, 9, 11, "1/2"),
        ("star", 4, 0, 3, "1"), ("star", 4, 9, 3, "-1"),
        ("star", 5, 0, 4, "1"), ("star", 5, 1, 3, "1/2"),
        ("star", 5, 9, 4, "-1"), ("star", 5, 10, 3, "-1/2"),
        ("star", 7, 0, 6, "1"), ("star", 7, 9, 6, "-1"),
        ("star", 8, 0, 7, "1"), ("star", 8, 1, 6, "1/2"),
        ("star", 8, 9, 7, "-1"), ("star", 8, 10, 6, "-1/2"),
        ("star", 9, 0, 1, "-1"), ("star", 9, 0, 10, "1"),
        ("star", 9, 1, 2, "-1"), ("star", 9, 1, 11, "1/2"),
        ("star", 9, 4, 3, "-1"), ("star", 9, 5, 4, "-1"),
        ("star", 9, 7, 6, "-1"), ("star", 9, 8, 7, "-1"),
        ("star", 9, 9, 10, "-2"), ("star", 9, 10, 11, "-3/2"),
        ("star", 10, 0, 2, "-1/2"), ("star", 10, 0, 11, "1"),
        ("star", 10, 5, 3, "-1/2"), ("star", 10, 8, 6, "-1/2"),
        ("star", 10, 9, 11, "-3/2"),
    ),
    "dend_from_int3/Cor3.3.8/zero": (
        ("star", 0, 0, 1, "2"), ("star", 0, 1, 2, "3/2"),
        ("star", 0, 4, 3, "1"), ("star", 0, 5, 4, "1"), ("star", 0, 7, 6, "1"),
        ("star", 0, 8, 7, "1"), ("star", 0, 9, 10, "1"),
        ("star", 0, 10, 11, "1"), ("star", 1, 0, 2, "3/2"),
        ("star", 1, 5, 3, "1/2"), ("star", 1, 8, 6, "1/2"),
        ("star", 1, 9, 11, "1/2"), ("star", 4, 0, 3, "1"),
        ("star", 5, 0, 4, "1"), ("star", 5, 1, 3, "1/2"),
        ("star", 7, 0, 6, "1"), ("star", 8, 0, 7, "1"),
        ("star", 8, 1, 6, "1/2"), ("star", 9, 0, 10, "1"),
        ("star", 9, 1, 11, "1/2"), ("star", 10, 0, 11, "1"),
    ),
    "quadri_from_int3_pair/Prop3.4.12/induced": (
        ("star", 0, 0, 2, "3"), ("star", 0, 5, 3, "1/2"),
        ("star", 0, 8, 3, "1"), ("star", 0, 8, 6, "3/2"),
        ("star", 0, 9, 2, "-3/2"), ("star", 0, 9, 11, "3/2"),
        ("star", 5, 0, 3, "1/2"), ("star", 5, 9, 3, "-3/2"),
        ("star", 5, 9, 6, "-1"), ("star", 8, 0, 3, "1"),
        ("star", 8, 0, 6, "3/2"), ("star", 8, 9, 6, "-1/2"),
        ("star", 9, 0, 2, "-3/2"), ("star", 9, 0, 11, "3/2"),
        ("star", 9, 5, 3, "-3/2"), ("star", 9, 5, 6, "-1"),
        ("star", 9, 8, 6, "-1/2"), ("star", 9, 9, 11, "-3"),
    ),
    "quadri_from_int3_pair/Prop3.4.12/zero": (
        ("star", 0, 0, 2, "3"), ("star", 0, 5, 3, "1/2"),
        ("star", 0, 8, 6, "3/2"), ("star", 0, 9, 11, "3/2"),
        ("star", 5, 0, 3, "1/2"), ("star", 5, 9, 6, "-1"),
        ("star", 8, 0, 6, "3/2"), ("star", 9, 0, 11, "3/2"),
        ("star", 9, 5, 6, "-1"),
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_DUAL_PRODUCTS))
def test_induce_dual_product_golden(case):
    assert _entry_rows(_canonical_dual(case)[1]) == GOLDEN_DUAL_PRODUCTS[case]


@pytest.mark.parametrize("case", sorted(GOLDEN_DOUBLE_PRODUCTS))
def test_double_product_golden(case):
    name, variant, which = case.split("/")
    a, dual = _canonical_dual(f"{name}/{variant}")
    if which == "zero":
        dual = zero_algebra(int(dual.level), dual.dim)
    kind = "frobenius" if int(a.level) == 1 else "connes"
    assert _entry_rows(double_product(a, dual, kind)) == GOLDEN_DOUBLE_PRODUCTS[case]


# (catalog entry, parity, seed) -> (message, report rows or None) of the
# PreconditionFailed that induce_dual_product raises.
GOLDEN_DUAL_REFUSALS = {
    ("nil2", "sym", 1): ("level-1 dual product needs skew r", None),
    ("dend_from_rb_nil2", "skew", 1): ("level-2 dual product needs symmetric r",
                                       None),
    ("nil2", "skew", 0): ("tensor does not solve its equation", (
        ("2.2.1", (0, 1, 1), ("-9",)), ("2.2.1", (1, 0, 1), ("-9",)),
        ("2.2.1", (1, 1, 0), ("-9",)))),
    ("dend_from_rb_nil2", "sym", 1): ("tensor does not solve its equation", (
        ("2.3.10", (0, 0, 1), ("-1/4",)), ("2.3.10", (0, 1, 0), ("-1/4",)),
        ("2.3.10", (0, 1, 1), ("1/3",)), ("2.3.10", (1, 0, 0), ("1/2",)),
        ("2.3.10", (1, 0, 1), ("-1/6",)), ("2.3.10", (1, 1, 0), ("-1/6",)))),
}


@pytest.mark.parametrize("name,parity,seed", sorted(GOLDEN_DUAL_REFUSALS))
def test_induce_dual_product_refusal_golden(name, parity, seed):
    a = catalog.load(name).value
    with pytest.raises(PreconditionFailed) as exc:
        induce_dual_product(a, catalog.random_tensor2(a.dim, parity, seed))
    rows = None if exc.value.report is None else _violation_rows(exc.value.report)
    assert (str(exc.value), rows) == GOLDEN_DUAL_REFUSALS[(name, parity, seed)]


def _violation_rows(report) -> tuple:
    return tuple((v.identity_id, v.witness,
                  tuple(format_rational(x) for x in v.discrepancy))
                 for v in report.violations)


# The exact 3.3.2 and 3.3.3 reports of d_equation_equivalents on seeded
# symmetric tensors: (catalog entry, seed) -> (3.3.2 rows, 3.3.3 rows).
# Seed 2 on dend_from_rb_nil2 solves the D-equation.
GOLDEN_D_EQUIVALENTS = {
    ("dend_from_int3", 0): (
        (("3.3.2", (0, 0), ("0", "9", "-27/4")),
         ("3.3.2", (0, 1), ("-18", "9/2", "17/8")),
         ("3.3.2", (0, 2), ("27/2", "-39/8", "-2")),
         ("3.3.2", (1, 0), ("9", "-9", "11/4")),
         ("3.3.2", (1, 1), ("9/2", "0", "-3/4")),
         ("3.3.2", (1, 2), ("-39/8", "3/2", "1")),
         ("3.3.2", (2, 0), ("-27/4", "11/4", "4")),
         ("3.3.2", (2, 1), ("17/8", "-3/4", "-2")),
         ("3.3.2", (2, 2), ("-2", "1", "0"))),
        (("3.3.3", (0, 0), ("0", "9", "-27/4")),
         ("3.3.3", (0, 1), ("9", "-9", "11/4")),
         ("3.3.3", (0, 2), ("-27/4", "11/4", "4")),
         ("3.3.3", (1, 0), ("-18", "9/2", "17/8")),
         ("3.3.3", (1, 1), ("9/2", "0", "-3/4")),
         ("3.3.3", (1, 2), ("17/8", "-3/4", "-2")),
         ("3.3.3", (2, 0), ("27/2", "-39/8", "-2")),
         ("3.3.3", (2, 1), ("-39/8", "3/2", "1")),
         ("3.3.3", (2, 2), ("-2", "1", "0"))),
    ),
    ("dend_from_int3", 1): (
        (("3.3.2", (0, 0), ("0", "1/4", "-1/4")),
         ("3.3.2", (0, 1), ("-1/2", "1/6", "-29/18")),
         ("3.3.2", (0, 2), ("1/2", "8/3", "7/18")),
         ("3.3.2", (1, 0), ("1/4", "-1/3", "-19/18")),
         ("3.3.2", (1, 1), ("1/6", "0", "17/9")),
         ("3.3.2", (1, 2), ("8/3", "-34/9", "-14/9")),
         ("3.3.2", (2, 0), ("-1/4", "-19/18", "-7/9")),
         ("3.3.2", (2, 1), ("-29/18", "17/9", "28/9")),
         ("3.3.2", (2, 2), ("7/18", "-14/9", "0"))),
        (("3.3.3", (0, 0), ("0", "1/4", "-1/4")),
         ("3.3.3", (0, 1), ("1/4", "-1/3", "-19/18")),
         ("3.3.3", (0, 2), ("-1/4", "-19/18", "-7/9")),
         ("3.3.3", (1, 0), ("-1/2", "1/6", "-29/18")),
         ("3.3.3", (1, 1), ("1/6", "0", "17/9")),
         ("3.3.3", (1, 2), ("-29/18", "17/9", "28/9")),
         ("3.3.3", (2, 0), ("1/2", "8/3", "7/18")),
         ("3.3.3", (2, 1), ("8/3", "-34/9", "-14/9")),
         ("3.3.3", (2, 2), ("7/18", "-14/9", "0"))),
    ),
    ("dend_from_int3", 2): (
        (("3.3.2", (0, 1), ("0", "0", "8")),
         ("3.3.2", (0, 2), ("0", "-24", "12")),
         ("3.3.2", (1, 0), ("0", "0", "16")),
         ("3.3.2", (1, 1), ("0", "0", "4")),
         ("3.3.2", (1, 2), ("-24", "-8", "13/3")),
         ("3.3.2", (2, 0), ("0", "16", "-24")),
         ("3.3.2", (2, 1), ("8", "4", "-26/3")),
         ("3.3.2", (2, 2), ("12", "13/3", "0"))),
        (("3.3.3", (0, 1), ("0", "0", "16")),
         ("3.3.3", (0, 2), ("0", "16", "-24")),
         ("3.3.3", (1, 0), ("0", "0", "8")),
         ("3.3.3", (1, 1), ("0", "0", "4")),
         ("3.3.3", (1, 2), ("8", "4", "-26/3")),
         ("3.3.3", (2, 0), ("0", "-24", "12")),
         ("3.3.3", (2, 1), ("-24", "-8", "13/3")),
         ("3.3.3", (2, 2), ("12", "13/3", "0"))),
    ),
    ("dend_from_rb_nil2", 0): (
        (("3.3.2", (0, 0), ("0", "9")),
         ("3.3.2", (0, 1), ("-18", "9/2")),
         ("3.3.2", (1, 0), ("9", "-9")),
         ("3.3.2", (1, 1), ("9/2", "0"))),
        (("3.3.3", (0, 0), ("0", "9")),
         ("3.3.3", (0, 1), ("9", "-9")),
         ("3.3.3", (1, 0), ("-18", "9/2")),
         ("3.3.3", (1, 1), ("9/2", "0"))),
    ),
    ("dend_from_rb_nil2", 1): (
        (("3.3.2", (0, 0), ("0", "1/4")),
         ("3.3.2", (0, 1), ("-1/2", "1/6")),
         ("3.3.2", (1, 0), ("1/4", "-1/3")),
         ("3.3.2", (1, 1), ("1/6", "0"))),
        (("3.3.3", (0, 0), ("0", "1/4")),
         ("3.3.3", (0, 1), ("1/4", "-1/3")),
         ("3.3.3", (1, 0), ("-1/2", "1/6")),
         ("3.3.3", (1, 1), ("1/6", "0"))),
    ),
    ("dend_from_rb_nil2", 2): (
        (),
        (),
    ),
}


@pytest.mark.parametrize("name,seed", sorted(GOLDEN_D_EQUIVALENTS))
def test_d_equation_equivalents_golden(name, seed):
    a = catalog.load(name).value
    res = d_equation_equivalents(a, catalog.random_tensor2(a.dim, "sym", seed))
    got = (_violation_rows(res.conditions["3.3.2"]),
           _violation_rows(res.conditions["3.3.3"]))
    assert got == GOLDEN_D_EQUIVALENTS[(name, seed)]


def _image_lift_case(case: str):
    alg, bim, op = case.split("/")
    a = catalog.load(alg).value
    m = regular_bimodule(a)
    if bim != "regular":
        _, m = restrict_bimodule(a, m, bim)
    t = InterMap.identity(a.dim) if op == "identity" else catalog.load(op).value
    return image_double_solution(a, m, t)


# The full image lift, as (double, tensor entries, equation report,
# operator report) in bundle notation: "algebra/bimodule/map" -> document.
GOLDEN_IMAGE_LIFTS = {
    "nil2/regular/rb_nil2": {
        "double": {"level": 2, "dim": 3, "sc": [
            ["prec", 2, 0, 1, "1"], ["succ", 0, 2, 1, "1"],
        ]},
        "tensor": [[0, 1, "1"], [1, 0, "1"]],
        "equation_report": (),
        "operator_report": (),
    },
    "dend_from_rb_nil2/outer-zero/identity": {
        "double": {"level": 4, "dim": 4, "sc": [
            ["nw", 0, 0, 1, "1"], ["nw", 3, 0, 2, "1"],
            ["se", 0, 0, 1, "1"], ["se", 0, 3, 2, "1"],
        ]},
        "tensor": [[0, 2, "1"], [1, 3, "1"], [2, 0, "-1"], [3, 1, "-1"]],
        "equation_report": (),
        "operator_report": (),
    },
    "trunc3/regular/int3": {
        "double": {"level": 2, "dim": 5, "sc": [
            ["prec", 0, 0, 1, "1"], ["prec", 3, 0, 2, "1"],
            ["prec", 4, 0, 3, "1"], ["prec", 4, 1, 2, "1/2"],
            ["succ", 0, 0, 1, "1"], ["succ", 0, 3, 2, "1"],
            ["succ", 0, 4, 3, "1"], ["succ", 1, 4, 2, "1/2"],
        ]},
        "tensor": [[0, 2, "1"], [1, 3, "1"], [2, 0, "1"], [3, 1, "1"]],
        "equation_report": (),
        "operator_report": (),
    },
    "dend_from_int3/regular/int3": {
        "double": {"level": 4, "dim": 5, "sc": [
            ["ne", 4, 0, 2, "-1"], ["nw", 4, 0, 2, "3/2"],
            ["se", 0, 4, 2, "3/2"], ["sw", 0, 4, 2, "-1"],
        ]},
        "tensor": [[0, 2, "1"], [1, 3, "1"], [2, 0, "-1"], [3, 1, "-1"]],
        "equation_report": (),
        "operator_report": (),
    },
}


@pytest.mark.parametrize("case", sorted(GOLDEN_IMAGE_LIFTS))
def test_image_lift_golden(case):
    res = _image_lift_case(case)
    got = {"double": serialize_algebra(res.double),
           "tensor": serialize_tensor2(res.tensor)["entries"],
           "equation_report": _violation_rows(res.equation_report),
           "operator_report": _violation_rows(res.operator_report)}
    assert got == GOLDEN_IMAGE_LIFTS[case]


def test_image_lift_rank_zero(trunc3):
    with pytest.raises(ValueError, match="positive rank") as exc:
        image_double_solution(trunc3, regular_bimodule(trunc3), InterMap.zero(3, 3))
    assert not isinstance(exc.value, DimensionMismatch)


# Failing tensors with their exact `check BUNDLE r --equation EQ --json`
# output, one per equation: (catalog algebra, factor scaling each of its
# constants, tensor entries, stdout).  The tensors' denominators (3, 5, 7)
# differ from the scaled algebras' (2, 3), and every discrepancy is a
# non-integer rational.
GOLDEN_EQUATIONS = {
    "aybe": (
        "nil2", Fraction(1, 2),
        [[0, 1, "1/3"], [1, 0, "-1/3"], [1, 1, "2/5"]],
        """\
{
  "ok": false,
  "violations": [
    {
      "discrepancy": [
        "-1/18"
      ],
      "identity": "2.2.1",
      "witness": [
        0,
        1,
        1
      ]
    },
    {
      "discrepancy": [
        "-1/18"
      ],
      "identity": "2.2.1",
      "witness": [
        1,
        0,
        1
      ]
    },
    {
      "discrepancy": [
        "-1/18"
      ],
      "identity": "2.2.1",
      "witness": [
        1,
        1,
        0
      ]
    }
  ]
}
"""),
    "d": (
        "dend_from_rb_nil2", Fraction(2, 3),
        [[0, 0, "1/5"], [0, 1, "3/7"], [1, 0, "3/7"]],
        """\
{
  "ok": false,
  "violations": [
    {
      "discrepancy": [
        "-2/75"
      ],
      "identity": "2.3.10",
      "witness": [
        0,
        0,
        1
      ]
    },
    {
      "discrepancy": [
        "-2/75"
      ],
      "identity": "2.3.10",
      "witness": [
        0,
        1,
        0
      ]
    },
    {
      "discrepancy": [
        "-4/35"
      ],
      "identity": "2.3.10",
      "witness": [
        0,
        1,
        1
      ]
    },
    {
      "discrepancy": [
        "4/75"
      ],
      "identity": "2.3.10",
      "witness": [
        1,
        0,
        0
      ]
    },
    {
      "discrepancy": [
        "2/35"
      ],
      "identity": "2.3.10",
      "witness": [
        1,
        0,
        1
      ]
    },
    {
      "discrepancy": [
        "2/35"
      ],
      "identity": "2.3.10",
      "witness": [
        1,
        1,
        0
      ]
    }
  ]
}
"""),
    "q": (
        "quadri_from_int3_pair", Fraction(1, 2),
        [[0, 1, "1/5"], [1, 0, "-1/5"], [1, 2, "2/7"], [2, 1, "-2/7"]],
        """\
{
  "ok": false,
  "violations": [
    {
      "discrepancy": [
        "3/100"
      ],
      "identity": "3.4.17",
      "witness": [
        1,
        1,
        2
      ]
    },
    {
      "discrepancy": [
        "3/100"
      ],
      "identity": "3.4.17",
      "witness": [
        1,
        2,
        1
      ]
    },
    {
      "discrepancy": [
        "-1/50"
      ],
      "identity": "3.4.17",
      "witness": [
        2,
        1,
        1
      ]
    },
    {
      "discrepancy": [
        "3/100"
      ],
      "identity": "3.4.18",
      "witness": [
        1,
        1,
        2
      ]
    },
    {
      "discrepancy": [
        "-1/50"
      ],
      "identity": "3.4.18",
      "witness": [
        1,
        2,
        1
      ]
    },
    {
      "discrepancy": [
        "3/100"
      ],
      "identity": "3.4.18",
      "witness": [
        2,
        1,
        1
      ]
    }
  ]
}
"""),
    "q-dual": (
        "quadri_from_int3_pair", Fraction(1, 2),
        [[0, 2, "1/5"], [2, 0, "-1/5"], [1, 2, "2/7"], [2, 1, "-2/7"]],
        """\
{
  "ok": false,
  "violations": [
    {
      "discrepancy": [
        "2/25"
      ],
      "identity": "4.2.5",
      "witness": [
        2,
        2,
        2
      ]
    },
    {
      "discrepancy": [
        "-1/25"
      ],
      "identity": "4.2.6",
      "witness": [
        2,
        2,
        2
      ]
    },
    {
      "discrepancy": [
        "2/25"
      ],
      "identity": "4.2.7",
      "witness": [
        2,
        2,
        2
      ]
    },
    {
      "discrepancy": [
        "-1/25"
      ],
      "identity": "4.2.8",
      "witness": [
        2,
        2,
        2
      ]
    }
  ]
}
"""),
    "o": (
        "octo_from_int4_triple", Fraction(1, 3),
        [[0, 1, "1/5"], [2, 0, "2/7"]],
        """\
{
  "ok": false,
  "violations": [
    {
      "discrepancy": [
        "8/441"
      ],
      "identity": "4.4.23",
      "witness": [
        2,
        2,
        3
      ]
    },
    {
      "discrepancy": [
        "-2/63"
      ],
      "identity": "4.4.23",
      "witness": [
        2,
        3,
        1
      ]
    },
    {
      "discrepancy": [
        "-1/150"
      ],
      "identity": "4.4.23",
      "witness": [
        3,
        1,
        1
      ]
    },
    {
      "discrepancy": [
        "4/147"
      ],
      "identity": "4.4.24",
      "witness": [
        2,
        2,
        3
      ]
    },
    {
      "discrepancy": [
        "2/105"
      ],
      "identity": "4.4.24",
      "witness": [
        2,
        3,
        1
      ]
    },
    {
      "discrepancy": [
        "1/75"
      ],
      "identity": "4.4.24",
      "witness": [
        3,
        1,
        1
      ]
    },
    {
      "discrepancy": [
        "8/441"
      ],
      "identity": "4.4.25",
      "witness": [
        2,
        2,
        3
      ]
    },
    {
      "discrepancy": [
        "-1/105"
      ],
      "identity": "4.4.25",
      "witness": [
        2,
        3,
        1
      ]
    },
    {
      "discrepancy": [
        "-1/45"
      ],
      "identity": "4.4.25",
      "witness": [
        3,
        1,
        1
      ]
    },
    {
      "discrepancy": [
        "4/147"
      ],
      "identity": "4.4.26",
      "witness": [
        2,
        2,
        3
      ]
    },
    {
      "discrepancy": [
        "2/105"
      ],
      "identity": "4.4.26",
      "witness": [
        2,
        3,
        1
      ]
    },
    {
      "discrepancy": [
        "1/75"
      ],
      "identity": "4.4.26",
      "witness": [
        3,
        1,
        1
      ]
    }
  ]
}
"""),
}


def _scaled_algebra_doc(name: str, factor: Fraction) -> dict:
    doc = dict(catalog.catalog_bundle()["algebras"][name])
    doc["sc"] = [[*row[:-1], format_rational(Fraction(row[-1]) * factor)]
                 for row in doc["sc"]]
    return doc


@pytest.mark.parametrize("equation", sorted(GOLDEN_EQUATIONS))
def test_check_equation_json_golden(equation, capsys, tmp_path):
    name, factor, entries, expected = GOLDEN_EQUATIONS[equation]
    alg = _scaled_algebra_doc(name, factor)
    doc = {"field": "Q", "algebras": {"a": alg},
           "tensors": {"r": {"dim": alg["dim"], "entries": entries, "algebra": "a"}}}
    path = tmp_path / "golden.json"
    path.write_text(dumps(doc), encoding="utf-8")
    code = cli.main(["check", str(path), "r", "--equation", equation, "--json"])
    assert (code, capsys.readouterr().out) == (1, expected)
