from fractions import Fraction

import pytest

from clusteralg import catalog
from clusteralg.bimodules import (PreconditionFailed, dual_bimodule,
                                  regular_bimodule, restrict_bimodule)
from clusteralg.bundle import serialize_algebra
from clusteralg.core import (LevelError, algebra_entries, algebra_from_entries,
                             check_axioms, project, zero_algebra)
from clusteralg.forms import canonical_cocycle_form, canonical_invariant_form
from clusteralg.linalg import Matrix, Tensor3, format_rational
from clusteralg.operators import (InterMap, NotCommuting, NotRotaBaxter,
                                  compatible_from_invertible,
                                  homomorphism_report, induce_on_module,
                                  is_o_operator, is_rota_baxter, rb_finer,
                                  rb_pair_quadri, rb_triple_octo)

import oracles
from conftest import mutate_map, rebased, rebased_map
from clusteralg.catalog import SplitMix64
from clusteralg.yangbaxter import canonical_double_solution
from test_bimodules import check_json


def test_zero_map_is_o_operator(nil2):
    rep = is_o_operator(nil2, regular_bimodule(nil2), InterMap.zero(2, 2))
    assert rep.ok


def test_identity_is_o_operator_of_outer_bimodules(dend_rb, quadri3):
    # level 1: id against (L_succ, R_prec) over the associated algebra
    assoc, outer = restrict_bimodule(dend_rb, regular_bimodule(dend_rb), "assoc-outer")
    assert is_o_operator(assoc, outer, InterMap.identity(2)).ok
    # level 2: id against (L_succ, 0, 0, R_prec) over the dendriform itself
    _, padded = restrict_bimodule(dend_rb, regular_bimodule(dend_rb), "outer-zero")
    assert is_o_operator(dend_rb, padded, InterMap.identity(2)).ok
    # level 2: id against (L_se, R_ne, L_sw, R_nw) over the horizontal algebra
    horiz, houter = restrict_bimodule(quadri3, regular_bimodule(quadri3), "horiz-outer")
    assert is_o_operator(horiz, houter, InterMap.identity(3)).ok
    # level 4: id against the zero-padded quadri bimodule
    _, qpad = restrict_bimodule(quadri3, regular_bimodule(quadri3), "outer-zero")
    assert is_o_operator(quadri3, qpad, InterMap.identity(3)).ok


def test_rb_nil2_and_int3_certified(nil2, rb_nil2, trunc3, int3):
    assert is_rota_baxter(nil2, rb_nil2).ok
    assert oracles.oracle_rota_baxter(nil2, rb_nil2.matrix)
    assert is_rota_baxter(trunc3, int3).ok
    assert oracles.oracle_rota_baxter(trunc3, int3.matrix)


def test_identity_is_not_weight_zero_rb(nil2):
    rep = is_rota_baxter(nil2, InterMap.identity(2))
    assert not rep.ok
    assert (0, 0) in {v.witness for v in rep.violations}


def test_rb_checker_matches_oracle_on_mutants(nil2, rb_nil2, trunc3, int3):
    for base, t, seed in ((nil2, rb_nil2, 11), (trunc3, int3, 12)):
        rng = SplitMix64(seed)
        for _ in range(8):
            cand = mutate_map(t, rng)
            assert is_rota_baxter(base, cand).ok == \
                oracles.oracle_rota_baxter(base, cand.matrix)


def test_rb_at_levels_2_and_4(dend_rb, dend_int3, int3, rb_nil2, quadri3):
    assert is_rota_baxter(dend_rb, rb_nil2).ok
    assert is_rota_baxter(dend_int3, int3).ok
    assert is_rota_baxter(quadri3, int3).ok
    assert not is_rota_baxter(dend_rb, InterMap.identity(2)).ok


def test_no_rb_check_at_level_8(octo4, int3):
    with pytest.raises(LevelError):
        is_rota_baxter(octo4, InterMap.identity(4))


def test_induce_zero_map(nil2):
    out = induce_on_module(nil2, regular_bimodule(nil2), InterMap.zero(2, 2))
    assert all(t.is_zero() for t in out.sc.values())


def test_induce_rb_nil2_frozen_expected(nil2, rb_nil2, dend_rb):
    out = induce_on_module(nil2, regular_bimodule(nil2), rb_nil2)
    expect = {
        "succ": Tensor3.from_entries((2, 2, 2), [(0, 0, 1, Fraction(1))]),
        "prec": Tensor3.from_entries((2, 2, 2), [(0, 0, 1, Fraction(1))]),
    }
    assert dict(out.sc) == expect
    assert dict(out.sc) == dict(dend_rb.sc)


def test_rb_finer_int3_frozen_expected(trunc3, int3, dend_int3):
    out = rb_finer(trunc3, int3)
    h = Fraction(1, 2)
    expect_succ = Tensor3.from_entries((3, 3, 3), [
        (0, 0, 1, 1), (0, 1, 2, 1), (1, 0, 2, h)])
    expect_prec = Tensor3.from_entries((3, 3, 3), [
        (0, 0, 1, 1), (0, 1, 2, h), (1, 0, 2, 1)])
    assert out.sc["succ"] == expect_succ
    assert out.sc["prec"] == expect_prec
    assert dict(out.sc) == dict(dend_int3.sc)


def test_induced_quadri_from_level2(dend_rb, rb_nil2):
    out = induce_on_module(dend_rb, regular_bimodule(dend_rb), rb_nil2)
    assert int(out.level) == 4
    assert check_axioms(out).ok and oracles.oracle_quadri(out)


def test_homomorphism_identity(nil2, rb_nil2, trunc3, int3):
    for a, t in ((nil2, rb_nil2), (trunc3, int3)):
        finer = induce_on_module(a, regular_bimodule(a), t)
        assert homomorphism_report(finer, a, t).ok


# The structure a map that is no O-operator induces on the regular
# bimodule of dend_from_int3 with every constant halved: the map's
# denominators (3, 5, 7) differ from the algebra's (2), and the rows are
# the exact violations of the homomorphism test.
GOLDEN_HOMOMORPHISM = (
    ("hom-succ", (0, 0), ("0", "0", "9/70")),
    ("hom-succ", (0, 1), ("1/18", "0", "-1/28")),
    ("hom-succ", (1, 0), ("1/18", "0", "-1/14")),
    ("hom-succ", (1, 1), ("0", "-1/18", "1/10")),
    ("hom-prec", (0, 0), ("0", "0", "9/70")),
    ("hom-prec", (0, 1), ("1/18", "0", "-1/14")),
    ("hom-prec", (1, 0), ("1/18", "0", "-1/28")),
    ("hom-prec", (1, 1), ("0", "-1/18", "1/10")),
)


def test_homomorphism_report_golden(dend_int3):
    a = algebra_from_entries(2, 3, [(*row[:-1], row[-1] / 2)
                                    for row in algebra_entries(dend_int3)])
    t = InterMap(Matrix([[0, Fraction(1, 3), 0], [Fraction(3, 7), 0, 0],
                         [0, 0, Fraction(2, 5)]]))
    m = regular_bimodule(a)
    assert not is_o_operator(a, m, t).ok
    finer = induce_on_module(a, m, t, check=False, verify=False)
    rep = homomorphism_report(finer, a, t)
    assert tuple((v.identity_id, v.witness, tuple(map(format_rational, v.discrepancy)))
                 for v in rep.violations) == GOLDEN_HOMOMORPHISM


def test_induce_precondition_failure(nil2):
    bad = InterMap(Matrix([[1, 0], [0, 1]]))
    with pytest.raises(PreconditionFailed) as exc:
        induce_on_module(nil2, regular_bimodule(nil2), bad)
    assert not exc.value.report.ok


def test_rb_finer_iterates_to_quadri_and_octo(trunc3, int3):
    dend = rb_finer(trunc3, int3)
    quadri = rb_finer(dend, int3)
    assert check_axioms(quadri).ok and oracles.oracle_quadri(quadri)
    octo = rb_finer(quadri, int3)
    assert check_axioms(octo).ok and oracles.oracle_octo(octo)


def test_rb_pair_matches_catalog(trunc3, int3, quadri3):
    out = rb_pair_quadri(trunc3, int3, int3)
    assert dict(out.sc) == dict(quadri3.sc)
    assert oracles.oracle_quadri(out)


def test_rb_pair_with_distinct_powers(trunc3, int3):
    j2 = InterMap(int3.matrix @ int3.matrix)
    assert is_rota_baxter(trunc3, j2).ok
    out = rb_pair_quadri(trunc3, int3, j2)
    assert check_axioms(out).ok
    # the pair construction is the chain: split by r1, then split again by r2
    chain = rb_finer(rb_finer(trunc3, int3), j2)
    assert dict(out.sc) == dict(chain.sc)


def test_rb_triple_matches_catalog_and_chain(trunc3, int3, octo3):
    out = rb_triple_octo(trunc3, int3, int3, int3)
    assert dict(out.sc) == dict(octo3.sc)
    chain = rb_finer(rb_finer(rb_finer(trunc3, int3), int3), int3)
    assert dict(out.sc) == dict(chain.sc)


def test_rb_triple_chain_with_distinct_powers():
    trunc4 = catalog.load("trunc4").value
    j = catalog.load("int4").value
    j2 = InterMap(j.matrix @ j.matrix)
    j3 = InterMap(j.matrix @ j.matrix @ j.matrix)
    for r in (j2, j3):
        assert is_rota_baxter(trunc4, r).ok
    r1, r2, r3 = j, j2, j3
    dend = rb_finer(trunc4, r3)
    assert is_rota_baxter(dend, r2).ok
    quadri = rb_finer(dend, r2)
    assert is_rota_baxter(quadri, r1).ok
    chain = rb_finer(quadri, r1)
    # the chain built through r3 then r2 realises the triple formulas with
    # the roles of the second and third operators exchanged
    assert dict(chain.sc) == dict(rb_triple_octo(trunc4, r1, r3, r2).sc)


def test_rb_pair_errors(nil2, trunc3, int3):
    z2 = zero_algebra(1, 2)
    a = InterMap(Matrix([[0, 1], [0, 0]]))
    b = InterMap(Matrix([[0, 0], [1, 0]]))
    # every map is Rota-Baxter on a zero algebra, so commutation is what fails
    with pytest.raises(NotCommuting):
        rb_pair_quadri(z2, a, b)
    with pytest.raises(NotRotaBaxter):
        rb_pair_quadri(nil2, InterMap.identity(2), InterMap.identity(2))
    with pytest.raises(LevelError):
        rb_pair_quadri(catalog.load("dend_from_int3").value, int3, int3)


def test_compatible_from_invertible_recovers_inputs(dend_rb, quadri3, octo4):
    assoc, outer = restrict_bimodule(dend_rb, regular_bimodule(dend_rb), "assoc-outer")
    rec = compatible_from_invertible(assoc, outer, InterMap.identity(2))
    assert dict(rec.sc) == dict(dend_rb.sc)
    horiz, houter = restrict_bimodule(quadri3, regular_bimodule(quadri3), "horiz-outer")
    rec4 = compatible_from_invertible(horiz, houter, InterMap.identity(3))
    assert dict(rec4.sc) == dict(quadri3.sc)
    from clusteralg.bimodules import octo_depth_bimodule
    quadri, action = octo_depth_bimodule(octo4)
    rec8 = compatible_from_invertible(quadri, action, InterMap.identity(4))
    assert dict(rec8.sc) == dict(octo4.sc)


def test_compatible_projects_back_for_scaled_identity(dend_rb):
    assoc, outer = restrict_bimodule(dend_rb, regular_bimodule(dend_rb), "assoc-outer")
    for c in (Fraction(2), Fraction(-1, 3)):
        t = InterMap(Matrix.identity(2).scale(c))
        finer = compatible_from_invertible(assoc, outer, t)
        back = project(finer, "Assoc")
        assert dict(back.sc) == dict(assoc.sc)


def test_level2_o_operator_restricts_to_level1(dend_rb, dend_int3, rb_nil2, int3):
    # an operator for a dendriform bimodule is one for the summed
    # associative bimodule
    for a, t in ((dend_rb, rb_nil2), (dend_int3, int3)):
        m = regular_bimodule(a)
        assert is_o_operator(a, m, t).ok
        assoc, summed = restrict_bimodule(a, m, "assoc-sum")
        assert is_o_operator(assoc, summed, t).ok


def test_level4_o_operator_restricts_down(quadri3, int3):
    m = regular_bimodule(quadri3)
    assert is_o_operator(quadri3, m, int3).ok
    horiz, hsum = restrict_bimodule(quadri3, m, "horiz-sum")
    assert is_o_operator(horiz, hsum, int3).ok
    assoc, asum = restrict_bimodule(quadri3, m, "assoc-sum")
    assert is_o_operator(assoc, asum, int3).ok


def test_o_identity_mutation_sensitivity(trunc3, int3):
    rng = SplitMix64(99)
    kills = 0
    for _ in range(10):
        cand = mutate_map(int3, rng)
        if not is_rota_baxter(trunc3, cand).ok:
            kills += 1
    assert kills >= 8


# Failing O-operators with their exact `check --json` output: (algebra, map
# document, stdout).  The level-1 map goes from the 2-dimensional column
# module of ut2 into ut2; the others are Rota-Baxter checks, i.e. O-operator
# checks for the regular bimodule.
_COLUMN_MODULE = {"level": 1, "algebra_dim": 3, "module_dim": 2, "algebra": "ut2",
                  "entries": [["l", "star", 0, 0, 0, "1"], ["l", "star", 1, 0, 1, "1"],
                              ["l", "star", 2, 1, 1, "1"]]}

GOLDEN_O_OPERATORS = {
    "level1": (
        "ut2", {"source_dim": 2, "target_dim": 3, "bimodule": "col",
                "entries": [[0, 1, "1"], [1, 0, "1"]]},
        """\
{
  "ok": false,
  "violations": [
    {
      "discrepancy": [
        "0",
        "-1",
        "0"
      ],
      "identity": "2.1.3",
      "witness": [
        0,
        1
      ]
    },
    {
      "discrepancy": [
        "1",
        "0",
        "0"
      ],
      "identity": "2.1.3",
      "witness": [
        1,
        1
      ]
    }
  ]
}
"""),
    "level2": (
        "dend_from_int3", {"source_dim": 3, "target_dim": 3,
                           "entries": [[1, 2, "1"]]},
        """\
{
  "ok": false,
  "violations": [
    {
      "discrepancy": [
        "0",
        "-1",
        "0"
      ],
      "identity": "3.3.1-succ",
      "witness": [
        0,
        2
      ]
    },
    {
      "discrepancy": [
        "0",
        "-1/2",
        "0"
      ],
      "identity": "3.3.1-succ",
      "witness": [
        2,
        0
      ]
    },
    {
      "discrepancy": [
        "0",
        "-1/2",
        "0"
      ],
      "identity": "3.3.1-prec",
      "witness": [
        0,
        2
      ]
    },
    {
      "discrepancy": [
        "0",
        "-1",
        "0"
      ],
      "identity": "3.3.1-prec",
      "witness": [
        2,
        0
      ]
    }
  ]
}
"""),
    "level4": (
        "quadri_from_int4_pair", {"source_dim": 4, "target_dim": 4,
                                  "entries": [[1, 3, "1"]]},
        """\
{
  "ok": false,
  "violations": [
    {
      "discrepancy": [
        "0",
        "-1/2",
        "0",
        "0"
      ],
      "identity": "4.2.1",
      "witness": [
        0,
        3
      ]
    },
    {
      "discrepancy": [
        "0",
        "-1/6",
        "0",
        "0"
      ],
      "identity": "4.2.1",
      "witness": [
        3,
        0
      ]
    },
    {
      "discrepancy": [
        "0",
        "-1/2",
        "0",
        "0"
      ],
      "identity": "4.2.2",
      "witness": [
        0,
        3
      ]
    },
    {
      "discrepancy": [
        "0",
        "-1/2",
        "0",
        "0"
      ],
      "identity": "4.2.2",
      "witness": [
        3,
        0
      ]
    },
    {
      "discrepancy": [
        "0",
        "-1/6",
        "0",
        "0"
      ],
      "identity": "4.2.3",
      "witness": [
        0,
        3
      ]
    },
    {
      "discrepancy": [
        "0",
        "-1/2",
        "0",
        "0"
      ],
      "identity": "4.2.3",
      "witness": [
        3,
        0
      ]
    },
    {
      "discrepancy": [
        "0",
        "-1/2",
        "0",
        "0"
      ],
      "identity": "4.2.4",
      "witness": [
        0,
        3
      ]
    },
    {
      "discrepancy": [
        "0",
        "-1/2",
        "0",
        "0"
      ],
      "identity": "4.2.4",
      "witness": [
        3,
        0
      ]
    }
  ]
}
"""),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_O_OPERATORS))
def test_check_json_golden(case, capsys, tmp_path):
    alg, map_doc, expected = GOLDEN_O_OPERATORS[case]
    doc = {"field": "Q",
           "algebras": {alg: catalog.catalog_bundle()["algebras"][alg]},
           "maps": {"t": dict(map_doc, algebra=alg)}}
    if "bimodule" in map_doc:
        doc["bimodules"] = {"col": _COLUMN_MODULE}
    assert check_json(capsys, tmp_path, doc, "t") == (1, expected)


# O-operators whose map's denominators (3, 5, 7) differ from those of the
# algebra and bimodule (2, 3), with their exact `check --json` output:
# (algebra document, bimodule document or None, map document, stdout).
# The algebras are catalog entries with every constant halved.
_HALF_NIL2 = {"level": 1, "dim": 2,
              "sc": [["star", 0, 0, 0, "1/2"], ["star", 0, 1, 1, "1/2"],
                     ["star", 1, 0, 1, "1/2"]]}
_HALF_UT2 = {"level": 1, "dim": 3,
             "sc": [["star", 0, 0, 0, "1/2"], ["star", 0, 1, 1, "1/2"],
                    ["star", 1, 2, 1, "1/2"], ["star", 2, 2, 2, "1/2"]]}

GOLDEN_MIXED_DENOMINATORS = {
    "rota-baxter": (
        _HALF_NIL2, None,
        {"source_dim": 2, "target_dim": 2,
         "entries": [[0, 1, "1/3"], [1, 0, "3/7"], [1, 1, "2/5"]]},
        """\
{
  "ok": false,
  "violations": [
    {
      "discrepancy": [
        "-1/7",
        "-6/35"
      ],
      "identity": "2.1.3",
      "witness": [
        0,
        0
      ]
    },
    {
      "discrepancy": [
        "-1/15",
        "-2/25"
      ],
      "identity": "2.1.3",
      "witness": [
        0,
        1
      ]
    },
    {
      "discrepancy": [
        "-1/15",
        "-2/25"
      ],
      "identity": "2.1.3",
      "witness": [
        1,
        0
      ]
    },
    {
      "discrepancy": [
        "-1/18",
        "0"
      ],
      "identity": "2.1.3",
      "witness": [
        1,
        1
      ]
    }
  ]
}
"""),
    "column-module": (
        _HALF_UT2,
        {"level": 1, "algebra_dim": 3, "module_dim": 2,
         "entries": [["l", "star", 0, 0, 0, "1/2"], ["l", "star", 1, 0, 1, "1/2"],
                     ["l", "star", 2, 1, 1, "2/3"]]},
        {"source_dim": 2, "target_dim": 3,
         "entries": [[0, 1, "3/5"], [1, 0, "1/7"], [2, 1, "-2/5"]]},
        """\
{
  "ok": false,
  "violations": [
    {
      "discrepancy": [
        "0",
        "-19/490",
        "0"
      ],
      "identity": "2.1.3",
      "witness": [
        0,
        1
      ]
    },
    {
      "discrepancy": [
        "17/50",
        "0",
        "-2/75"
      ],
      "identity": "2.1.3",
      "witness": [
        1,
        1
      ]
    }
  ]
}
"""),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_MIXED_DENOMINATORS))
def test_check_json_golden_mixed_denominators(case, capsys, tmp_path):
    alg, bimodule, map_doc, expected = GOLDEN_MIXED_DENOMINATORS[case]
    doc = {"field": "Q", "algebras": {"a": alg},
           "maps": {"t": dict(map_doc, algebra="a")}}
    if bimodule is not None:
        doc["bimodules"] = {"m": dict(bimodule, algebra="a")}
        doc["maps"]["t"]["bimodule"] = "m"
    assert check_json(capsys, tmp_path, doc, "t") == (1, expected)


# Golden constructions with fractional maps: polynomials modulo x^5,
# rebased so that the constants have the denominators 2, 3 and 7, with its
# integration map scaled over 5 and 11 for the pair and the triple, and
# invertible maps from rebased canonical forms on the Cor2.2.8 and
# Cor3.3.8 doubles and from a form that lacks every flag for
# compatible_from_invertible.  Each golden is the serialized algebra.
_LAM5 = (Fraction(1, 2), Fraction(3), Fraction(7, 3), Fraction(2), Fraction(1, 7))
_LAM_DOUBLE = (Fraction(1, 2), Fraction(7), Fraction(6), Fraction(1))
_LAM3 = (Fraction(1, 2), Fraction(3), Fraction(7, 3))


def _trunc5_integrations(*scales):
    """trunc5 rebased, and its integration map scaled by each of scales."""
    trunc = algebra_from_entries(1, 5, [("star", i, j, i + j, 1)
                                        for i in range(5) for j in range(5) if i + j < 5])
    j = InterMap(Matrix([[Fraction(1, c + 1) if r == c + 1 else 0 for c in range(5)]
                         for r in range(5)]))
    return rebased(trunc, _LAM5), [rebased_map(j, _LAM5, c) for c in scales]


def _form_map(b: Matrix, lam=None, c=1) -> InterMap:
    """The inverse of the pairing map of the form with grid c b in the
    basis lam_i e_i: the O-operator finer_from_form uses."""
    d = b.rows
    lam = lam or (1,) * d
    g = Matrix([[c * lam[i] * lam[j] * b[i, j] for j in range(d)] for i in range(d)])
    return InterMap(g.transpose().inverse())


def _golden_construction(case: str):
    if case == "pair":
        a, maps = _trunc5_integrations(Fraction(5, 11), Fraction(2, 5))
        return rb_pair_quadri(a, *maps)
    if case == "triple":
        a, maps = _trunc5_integrations(Fraction(5, 11), Fraction(2, 5), Fraction(3, 11))
        return rb_triple_octo(a, *maps)
    dend = catalog.load("dend_from_rb_nil2").value
    if case == "compatible-l1":
        a = rebased(canonical_double_solution(dend, "Cor2.2.8").double, _LAM_DOUBLE)
        t = _form_map(canonical_cocycle_form(2).matrix, _LAM_DOUBLE, Fraction(5, 11))
    elif case == "compatible-l2":
        a = rebased(canonical_double_solution(dend, "Cor3.3.8").double, _LAM_DOUBLE)
        t = _form_map(canonical_invariant_form(2).matrix, _LAM_DOUBLE, Fraction(11, 5))
    else:  # a candidate from a map that is no O-operator
        a = rebased(catalog.load("dend_from_int3").value, _LAM3)
        t = _form_map(Matrix([[Fraction(1, 5), Fraction(2, 11), 0],
                              [Fraction(-3, 11), 0, Fraction(1, 5)],
                              [Fraction(4, 5), 0, Fraction(1, 11)]]))
        return compatible_from_invertible(a, dual_bimodule(a, regular_bimodule(a)), t,
                                          check=False, verify=False)
    return compatible_from_invertible(a, dual_bimodule(a, regular_bimodule(a)), t)


GOLDEN_CONSTRUCTIONS = {"compatible-candidate": {"dim": 3,
                          "level": 4,
                          "sc": [["ne", 0, 0, 1, "25/3354"],
                                 ["ne", 0, 0, 2, "-55/3354"],
                                 ["ne", 1, 0, 0, "-99/280"],
                                 ["ne", 1, 0, 1, "-1089/31304"],
                                 ["ne", 1, 0, 2, "11979/156520"],
                                 ["ne", 1, 1, 1, "495/7826"],
                                 ["ne", 1, 1, 2, "-1089/7826"],
                                 ["ne", 2, 0, 0, "-9/56"],
                                 ["ne", 2, 0, 1, "-495/31304"],
                                 ["ne", 2, 0, 2, "1089/31304"],
                                 ["ne", 2, 1, 1, "225/7826"],
                                 ["ne", 2, 1, 2, "-495/7826"],
                                 ["nw", 0, 0, 1, "-25/1677"],
                                 ["nw", 0, 0, 2, "55/1677"], ["nw", 1, 0, 0, "297/280"],
                                 ["nw", 1, 0, 1, "3267/31304"],
                                 ["nw", 1, 0, 2, "-35937/156520"],
                                 ["nw", 1, 1, 1, "-1485/15652"],
                                 ["nw", 1, 1, 2, "3267/15652"],
                                 ["nw", 2, 0, 0, "27/56"],
                                 ["nw", 2, 0, 1, "1485/31304"],
                                 ["nw", 2, 0, 2, "-3267/31304"],
                                 ["nw", 2, 1, 1, "-675/15652"],
                                 ["nw", 2, 1, 2, "1485/15652"],
                                 ["se", 0, 0, 1, "-25/1677"],
                                 ["se", 0, 0, 2, "55/1677"], ["se", 0, 1, 0, "297/280"],
                                 ["se", 0, 1, 1, "3267/31304"],
                                 ["se", 0, 1, 2, "-35937/156520"],
                                 ["se", 0, 2, 0, "27/56"],
                                 ["se", 0, 2, 1, "1485/31304"],
                                 ["se", 0, 2, 2, "-3267/31304"],
                                 ["se", 1, 1, 1, "-1485/15652"],
                                 ["se", 1, 1, 2, "3267/15652"],
                                 ["se", 1, 2, 1, "-675/15652"],
                                 ["se", 1, 2, 2, "1485/15652"],
                                 ["sw", 0, 0, 1, "25/3354"],
                                 ["sw", 0, 0, 2, "-55/3354"],
                                 ["sw", 0, 1, 0, "-99/280"],
                                 ["sw", 0, 1, 1, "-1089/31304"],
                                 ["sw", 0, 1, 2, "11979/156520"],
                                 ["sw", 0, 2, 0, "-9/56"],
                                 ["sw", 0, 2, 1, "-495/31304"],
                                 ["sw", 0, 2, 2, "1089/31304"],
                                 ["sw", 1, 1, 1, "495/7826"],
                                 ["sw", 1, 1, 2, "-1089/7826"],
                                 ["sw", 1, 2, 1, "225/7826"],
                                 ["sw", 1, 2, 2, "-495/7826"]]},
 "compatible-l1": {"dim": 4,
                   "level": 2,
                   "sc": [["prec", 0, 0, 1, "1/28"], ["prec", 0, 3, 2, "-1/12"],
                          ["prec", 3, 0, 2, "1/6"], ["succ", 0, 0, 1, "1/28"],
                          ["succ", 0, 3, 2, "1/6"], ["succ", 3, 0, 2, "-1/12"]]},
 "compatible-l2": {"dim": 4,
                   "level": 4,
                   "sc": [["ne", 0, 3, 2, "-1/12"], ["ne", 3, 0, 2, "-1/12"],
                          ["nw", 0, 0, 1, "1/28"], ["nw", 0, 3, 2, "1/12"],
                          ["nw", 3, 0, 2, "1/6"], ["se", 0, 0, 1, "1/28"],
                          ["se", 0, 3, 2, "1/6"], ["se", 3, 0, 2, "1/12"],
                          ["sw", 0, 3, 2, "-1/12"], ["sw", 3, 0, 2, "-1/12"]]},
 "pair": {"dim": 5,
          "level": 4,
          "sc": [["ne", 0, 0, 2, "3/154"], ["ne", 0, 1, 3, "3/44"],
                 ["ne", 0, 2, 4, "49/99"], ["ne", 1, 0, 3, "3/44"],
                 ["ne", 1, 1, 4, "63/22"], ["ne", 2, 0, 4, "49/99"],
                 ["nw", 0, 0, 2, "3/308"], ["nw", 0, 1, 3, "1/44"],
                 ["nw", 0, 2, 4, "49/396"], ["nw", 1, 0, 3, "3/44"],
                 ["nw", 1, 1, 4, "21/11"], ["nw", 2, 0, 4, "49/66"],
                 ["se", 0, 0, 2, "3/308"], ["se", 0, 1, 3, "3/44"],
                 ["se", 0, 2, 4, "49/66"], ["se", 1, 0, 3, "1/44"],
                 ["se", 1, 1, 4, "21/11"], ["se", 2, 0, 4, "49/396"],
                 ["sw", 0, 0, 2, "3/154"], ["sw", 0, 1, 3, "3/44"],
                 ["sw", 0, 2, 4, "49/99"], ["sw", 1, 0, 3, "3/44"],
                 ["sw", 1, 1, 4, "63/22"], ["sw", 2, 0, 4, "49/99"]]},
 "triple": {"dim": 5,
            "level": 8,
            "sc": [["ne1", 0, 0, 3, "3/968"], ["ne1", 0, 1, 4, "21/242"],
                   ["ne1", 1, 0, 4, "63/484"], ["ne2", 0, 0, 3, "3/968"],
                   ["ne2", 0, 1, 4, "63/484"], ["ne2", 1, 0, 4, "21/242"],
                   ["nw1", 0, 0, 3, "1/968"], ["nw1", 0, 1, 4, "21/968"],
                   ["nw1", 1, 0, 4, "21/242"], ["nw2", 0, 0, 3, "3/968"],
                   ["nw2", 0, 1, 4, "21/242"], ["nw2", 1, 0, 4, "63/484"],
                   ["se1", 0, 0, 3, "3/968"], ["se1", 0, 1, 4, "63/484"],
                   ["se1", 1, 0, 4, "21/242"], ["se2", 0, 0, 3, "1/968"],
                   ["se2", 0, 1, 4, "21/242"], ["se2", 1, 0, 4, "21/968"],
                   ["sw1", 0, 0, 3, "3/968"], ["sw1", 0, 1, 4, "21/242"],
                   ["sw1", 1, 0, 4, "63/484"], ["sw2", 0, 0, 3, "3/968"],
                   ["sw2", 0, 1, 4, "63/484"], ["sw2", 1, 0, 4, "21/242"]]}}


@pytest.mark.parametrize("case", sorted(GOLDEN_CONSTRUCTIONS))
def test_construction_golden(case):
    assert serialize_algebra(_golden_construction(case)) == GOLDEN_CONSTRUCTIONS[case]
