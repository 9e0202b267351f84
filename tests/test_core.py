from fractions import Fraction

import pytest

from clusteralg import catalog
from clusteralg.catalog import SplitMix64
from clusteralg.core import (AXIOMS, ClusterAlgebra, Level, ProjectionInvalidAtLevel,
                             SymbolInvalidAtLevel, check_axioms, derived_op,
                             mult_operator, opposite, opposite_check, project,
                             projection_targets, zero_algebra)
from clusteralg.bimodules import _MODULE_SLOTS, check_bimodule, octo_depth_bimodule
from clusteralg.linalg import Matrix, Tensor3

import oracles
from conftest import mutate_algebra
from test_bimodules import check_json, expected_json

ALGEBRA_ENTRIES = ("zero_2", "zero_3", "nil2", "trunc3", "ut2",
                   "dend_from_rb_nil2", "dend_from_int3",
                   "quadri_from_int3_pair", "quadri_from_int4_pair",
                   "octo_from_int3_triple", "octo_from_int4_triple")


def test_level_operation_names():
    assert Level.ASSOC.ops == ("star",)
    assert Level.DEND.ops == ("succ", "prec")
    assert Level.QUADRI.ops == ("se", "ne", "nw", "sw")
    assert len(Level.OCTO.ops) == 8
    for lv in Level:
        assert len(lv.ops) == int(lv)


def test_zero_algebras_pass_every_level():
    for level in (1, 2, 4, 8):
        assert check_axioms(zero_algebra(level, 3)).ok


def test_axiom_tables_equal_the_written_out_copy():
    # every level's identities, term for term and in order, ids included
    assert AXIOMS == oracles.AXIOMS


@pytest.mark.parametrize("name", ALGEBRA_ENTRIES)
def test_catalog_algebras_pass_and_match_oracle(name):
    a = catalog.load(name).value
    assert check_axioms(a).ok
    assert oracles.oracle_axioms(a)


def test_nil2_mutation_produces_cited_violation(nil2):
    # adding e0 to e0*e1 breaks associativity: (e0 e0) e1 != e0 (e0 e1)
    sc = dict(nil2.sc)
    entries = list(sc["star"].nonzero()) + [(0, 1, 0, Fraction(1))]
    bad = ClusterAlgebra(Level.ASSOC, 2, {"star": Tensor3.from_entries((2, 2, 2), entries)})
    assert not oracles.oracle_assoc(bad)
    rep = check_axioms(bad)
    assert not rep.ok
    assert all(v.identity_id == "assoc" for v in rep.violations)
    assert (0, 0, 1) in {v.witness for v in rep.violations}


@pytest.mark.parametrize("name", ALGEBRA_ENTRIES)
def test_checker_agrees_with_oracle_on_mutants(name):
    import zlib
    a = catalog.load(name).value
    rng = SplitMix64(0xC0FFEE ^ zlib.crc32(name.encode()))
    for _ in range(6):
        mutant = mutate_algebra(a, rng)
        assert check_axioms(mutant).ok == oracles.oracle_axioms(mutant)


def test_octo_table_matches_depth_action_route():
    # per-identity agreement between the direct level-8 table and the
    # substituted level-4 bimodule identities, on random non-octo inputs
    # 4.1.n-s is level-4 axiom ax with the module in slot `slot`; the level-8
    # table holds the 9 level-4 axioms once per slot, in blocks of 9 by slot
    corr = {ident: AXIOMS[8][9 * slot + ax][0] for ident, ax, slot, *_ in _MODULE_SLOTS[4]}
    for seed in range(6):
        rng = SplitMix64(seed)
        sc = {}
        for op in Level.OCTO.ops:
            entries = [(i, j, k, rng.rational()) for i in range(2) for j in range(2)
                       for k in range(2) if rng.randrange(4) == 0]
            sc[op] = Tensor3.from_entries((2, 2, 2), entries)
        a8 = ClusterAlgebra(Level.OCTO, 2, sc)
        direct = {v.identity_id for v in check_axioms(a8).violations}
        quadri, action = octo_depth_bimodule(a8)
        routed = {corr[v.identity_id] for v in check_bimodule(quadri, action).violations}
        assert direct == routed


def test_derived_op_sums(dend_rb, quadri3, octo4):
    assert derived_op(dend_rb, "star") == dend_rb.sc["succ"] + dend_rb.sc["prec"]
    four = (quadri3.sc["se"] + quadri3.sc["ne"] + quadri3.sc["nw"] + quadri3.sc["sw"])
    assert derived_op(quadri3, "star") == four
    assert derived_op(octo4, "sigma1") == (octo4.sc["se1"] + octo4.sc["ne1"]
                                           + octo4.sc["nw1"] + octo4.sc["sw1"])


def test_derived_op_route_independence(quadri3, octo4):
    assert (derived_op(quadri3, "succ") + derived_op(quadri3, "prec")
            == derived_op(quadri3, "star"))
    assert (derived_op(quadri3, "vee") + derived_op(quadri3, "wedge")
            == derived_op(quadri3, "star"))
    assert (derived_op(octo4, "sigma1") + derived_op(octo4, "sigma2")
            == derived_op(octo4, "star"))
    assert (derived_op(octo4, "gg") + derived_op(octo4, "ll")
            == derived_op(octo4, "star"))
    assert (derived_op(octo4, "bigvee") + derived_op(octo4, "bigwedge")
            == derived_op(octo4, "star"))


def test_derived_symbol_invalid_at_level(nil2, dend_rb):
    with pytest.raises(SymbolInvalidAtLevel):
        derived_op(nil2, "succ")
    with pytest.raises(SymbolInvalidAtLevel):
        derived_op(dend_rb, "sigma1")


def test_projection_targets_and_errors(nil2, quadri3):
    assert set(projection_targets(8)) == {"DepthQuadri", "VertQuadri",
                                          "HorizQuadri", "VertDend", "HorizDend",
                                          "SigmaDend", "Assoc"}
    with pytest.raises(ProjectionInvalidAtLevel):
        project(nil2, "Assoc")
    with pytest.raises(ProjectionInvalidAtLevel):
        project(quadri3, "DepthQuadri")


def test_dend_projection_example(dend_rb):
    assoc = project(dend_rb, "Assoc")
    # e0 *' e0 = 2 e1, all other products vanish
    assert assoc.sc["star"] == Tensor3.from_entries((2, 2, 2), [(0, 0, 1, Fraction(2))])
    assert check_axioms(assoc).ok


def test_zero_quadri_projects_to_zero_dend():
    z = zero_algebra(4, 3)
    for target in ("HorizDend", "VertDend"):
        p = project(z, target)
        assert all(t.is_zero() for t in p.sc.values())


@pytest.mark.parametrize("name", ["dend_from_rb_nil2", "dend_from_int3",
                                  "quadri_from_int3_pair", "quadri_from_int4_pair",
                                  "octo_from_int3_triple", "octo_from_int4_triple"])
def test_projection_closure(name):
    a = catalog.load(name).value
    for target in projection_targets(int(a.level)):
        assert check_axioms(project(a, target)).ok, (name, target)


def test_mult_operator_examples(nil2):
    zero = zero_algebra(1, 2)
    assert mult_operator(zero, "star", "left", 0).is_zero()
    assert mult_operator(nil2, "star", "left", 0) == Matrix.identity(2)
    assert mult_operator(nil2, "star", "right", 0) == Matrix.identity(2)
    assert mult_operator(nil2, "star", "left", 1) == Matrix([[0, 0], [1, 0]])


def test_mult_operator_reproduces_structure_constants(quadri3):
    for op in quadri3.level.ops:
        for i in range(quadri3.dim):
            left = mult_operator(quadri3, op, "left", i)
            right = mult_operator(quadri3, op, "right", i)
            for j in range(quadri3.dim):
                assert left.col(j) == quadri3.basis_product(op, i, j)
                assert right.col(j) == quadri3.basis_product(op, j, i)


def test_opposite_check(nil2, ut2):
    assert opposite_check(nil2).ok
    assert opposite(nil2).sc["star"] == nil2.sc["star"]  # commutative
    assert opposite_check(ut2).ok
    assert opposite(ut2).sc["star"] != ut2.sc["star"]  # noncommutative
    assert opposite_check(zero_algebra(1, 3)).ok
    with pytest.raises(Exception):
        opposite(zero_algebra(2, 2))


# Failing algebras with their exact `check --json` output: (structure
# constants, stdout).  The constants mix the denominators 2, 3 and 7, so
# every discrepancy is a non-integer rational reduced to lowest terms.
GOLDEN_AXIOMS = {
    "level1": (
        [["star", 0, 0, 0, "1/2"], ["star", 0, 1, 1, "2/3"], ["star", 1, 0, 0, "5/7"]],
        """\
{
  "ok": false,
  "violations": [
    {
      "discrepancy": [
        "0",
        "-1/9"
      ],
      "identity": "assoc",
      "witness": [
        0,
        0,
        1
      ]
    },
    {
      "discrepancy": [
        "5/42",
        "0"
      ],
      "identity": "assoc",
      "witness": [
        0,
        1,
        0
      ]
    },
    {
      "discrepancy": [
        "0",
        "10/21"
      ],
      "identity": "assoc",
      "witness": [
        1,
        0,
        1
      ]
    },
    {
      "discrepancy": [
        "-25/49",
        "0"
      ],
      "identity": "assoc",
      "witness": [
        1,
        1,
        0
      ]
    }
  ]
}
"""),
    "level2": (
        [["succ", 0, 0, 0, "1/2"], ["prec", 0, 1, 1, "2/3"], ["succ", 1, 1, 0, "-5/7"]],
        """\
{
  "ok": false,
  "violations": [
    {
      "discrepancy": [
        "0",
        "-4/9"
      ],
      "identity": "2.1.5-1",
      "witness": [
        0,
        0,
        1
      ]
    },
    {
      "discrepancy": [
        "0",
        "1/3"
      ],
      "identity": "2.1.5-2",
      "witness": [
        0,
        0,
        1
      ]
    },
    {
      "discrepancy": [
        "10/21",
        "0"
      ],
      "identity": "2.1.5-2",
      "witness": [
        1,
        0,
        1
      ]
    },
    {
      "discrepancy": [
        "0",
        "-10/21"
      ],
      "identity": "2.1.5-2",
      "witness": [
        1,
        1,
        1
      ]
    },
    {
      "discrepancy": [
        "-5/42",
        "0"
      ],
      "identity": "2.1.5-3",
      "witness": [
        0,
        1,
        1
      ]
    },
    {
      "discrepancy": [
        "-5/14",
        "0"
      ],
      "identity": "2.1.5-3",
      "witness": [
        1,
        1,
        0
      ]
    }
  ]
}
"""),
    "level4": (
        [["se", 0, 0, 1, "1/2"], ["nw", 1, 0, 1, "2/3"], ["ne", 0, 1, 0, "5/7"]],
        """\
{
  "ok": false,
  "violations": [
    {
      "discrepancy": [
        "0",
        "4/9"
      ],
      "identity": "3.4.1-1",
      "witness": [
        1,
        0,
        0
      ]
    },
    {
      "discrepancy": [
        "0",
        "-10/21"
      ],
      "identity": "3.4.1-1",
      "witness": [
        1,
        0,
        1
      ]
    },
    {
      "discrepancy": [
        "-10/21",
        "0"
      ],
      "identity": "3.4.1-2",
      "witness": [
        0,
        1,
        0
      ]
    },
    {
      "discrepancy": [
        "-5/14",
        "0"
      ],
      "identity": "3.4.1-3",
      "witness": [
        0,
        0,
        0
      ]
    },
    {
      "discrepancy": [
        "25/49",
        "0"
      ],
      "identity": "3.4.1-3",
      "witness": [
        0,
        1,
        1
      ]
    },
    {
      "discrepancy": [
        "0",
        "1/3"
      ],
      "identity": "3.4.2-2",
      "witness": [
        0,
        0,
        0
      ]
    },
    {
      "discrepancy": [
        "0",
        "-5/14"
      ],
      "identity": "3.4.2-3",
      "witness": [
        0,
        0,
        1
      ]
    },
    {
      "discrepancy": [
        "0",
        "5/14"
      ],
      "identity": "3.4.3-3",
      "witness": [
        0,
        1,
        0
      ]
    }
  ]
}
"""),
    "level8": (
        [["se1", 0, 0, 1, "1/2"], ["nw2", 1, 1, 0, "2/3"], ["ne1", 0, 1, 1, "-5/7"]],
        """\
{
  "ok": false,
  "violations": [
    {
      "discrepancy": [
        "0",
        "5/14"
      ],
      "identity": "4.4.1-3",
      "witness": [
        0,
        0,
        0
      ]
    },
    {
      "discrepancy": [
        "0",
        "-25/49"
      ],
      "identity": "4.4.1-3",
      "witness": [
        0,
        0,
        1
      ]
    },
    {
      "discrepancy": [
        "0",
        "-1/3"
      ],
      "identity": "4.4.2-2",
      "witness": [
        0,
        1,
        1
      ]
    },
    {
      "discrepancy": [
        "-1/3",
        "0"
      ],
      "identity": "4.4.4-1",
      "witness": [
        1,
        0,
        0
      ]
    },
    {
      "discrepancy": [
        "10/21",
        "0"
      ],
      "identity": "4.4.4-1",
      "witness": [
        1,
        0,
        1
      ]
    },
    {
      "discrepancy": [
        "0",
        "-10/21"
      ],
      "identity": "4.4.4-3",
      "witness": [
        1,
        1,
        1
      ]
    },
    {
      "discrepancy": [
        "0",
        "1/3"
      ],
      "identity": "4.4.6-3",
      "witness": [
        1,
        1,
        0
      ]
    },
    {
      "discrepancy": [
        "-10/21",
        "0"
      ],
      "identity": "4.4.7-2",
      "witness": [
        0,
        1,
        1
      ]
    },
    {
      "discrepancy": [
        "1/3",
        "0"
      ],
      "identity": "4.4.8-2",
      "witness": [
        0,
        0,
        1
      ]
    }
  ]
}
"""),

}


@pytest.mark.parametrize("case", sorted(GOLDEN_AXIOMS))
def test_check_json_golden(case, capsys, tmp_path):
    sc, expected = GOLDEN_AXIOMS[case]
    doc = {"field": "Q", "algebras": {"a": {"level": int(case[5:]), "dim": 2, "sc": sc}}}
    assert check_json(capsys, tmp_path, doc, "a") == (1, expected)


# Sparse algebras with constants over 2, 3 and 7 and their exact `check
# --json` rows.  In each, some identity fails at triples (i, j, k) and
# (i', j', k') with i < i' but (j, k) > (j', k'), so a report built in
# the order the products meet the triples would not be sorted:
# level -> (dim, structure constants, violation rows).
GOLDEN_SPARSE = {
    1: (4, [["star", 0, 0, 2, "-1/7"], ["star", 2, 1, 0, "-1/3"], ["star", 2, 3, 2, "-3/2"],
            ["star", 3, 2, 3, "4/7"], ["star", 1, 1, 1, "-3/2"], ["star", 1, 1, 2, "-1/3"]],
        (("assoc", (0, 0, 1), ("1/21", "0", "0", "0")),
         ("assoc", (0, 0, 3), ("0", "0", "3/14", "0")),
         ("assoc", (0, 2, 1), ("0", "0", "-1/21", "0")),
         ("assoc", (1, 1, 1), ("1/9", "0", "0", "0")),
         ("assoc", (1, 1, 3), ("0", "0", "1/2", "0")),
         ("assoc", (2, 1, 0), ("0", "0", "1/21", "0")),
         ("assoc", (2, 1, 1), ("-1/2", "0", "0", "0")),
         ("assoc", (2, 3, 1), ("1/2", "0", "0", "0")),
         ("assoc", (2, 3, 2), ("0", "0", "6/7", "0")),
         ("assoc", (2, 3, 3), ("0", "0", "9/4", "0")),
         ("assoc", (3, 0, 0), ("0", "0", "0", "4/49")),
         ("assoc", (3, 1, 1), ("0", "0", "0", "4/21")),
         ("assoc", (3, 2, 2), ("0", "0", "0", "16/49")),
         ("assoc", (3, 2, 3), ("0", "0", "0", "6/7")))),
    2: (3, [["succ", 2, 0, 1, "-2/3"], ["prec", 1, 2, 1, "1/2"], ["prec", 0, 1, 1, "-3/7"],
            ["prec", 1, 2, 0, "-2/3"], ["succ", 0, 0, 2, "-1"]],
        (("2.1.5-1", (0, 0, 1), ("0", "-9/49", "0")),
         ("2.1.5-1", (0, 1, 2), ("2/7", "0", "0")),
         ("2.1.5-1", (0, 2, 0), ("0", "-2/7", "0")),
         ("2.1.5-1", (1, 0, 0), ("-2/3", "1/2", "0")),
         ("2.1.5-1", (1, 2, 1), ("0", "2/7", "0")),
         ("2.1.5-1", (1, 2, 2), ("-1/3", "1/4", "0")),
         ("2.1.5-2", (0, 1, 2), ("0", "0", "-2/3")),
         ("2.1.5-2", (2, 0, 2), ("4/9", "-1/3", "0")),
         ("2.1.5-2", (2, 1, 2), ("0", "-4/9", "0")),
         ("2.1.5-3", (0, 0, 0), ("0", "2/3", "0")),
         ("2.1.5-3", (1, 2, 0), ("0", "0", "2/3")))),
    4: (3, [["ne", 2, 0, 1, "-2/3"], ["sw", 1, 2, 1, "1/2"], ["sw", 0, 1, 1, "-3/7"],
            ["sw", 1, 2, 0, "-2/3"], ["se", 0, 0, 2, "-1"], ["ne", 1, 2, 0, "1/3"]],
        (("3.4.1-2", (2, 1, 2), ("0", "-4/9", "0")),
         ("3.4.1-3", (1, 0, 0), ("1/3", "0", "0")),
         ("3.4.1-3", (2, 0, 2), ("-2/9", "0", "0")),
         ("3.4.1-3", (2, 1, 2), ("0", "2/9", "0")),
         ("3.4.2-1", (0, 2, 0), ("0", "-2/7", "0")),
         ("3.4.2-3", (0, 0, 0), ("0", "2/3", "0")),
         ("3.4.2-3", (0, 1, 2), ("-1/7", "0", "1/3")),
         ("3.4.2-3", (1, 2, 2), ("1/6", "0", "0")),
         ("3.4.3-1", (0, 0, 1), ("0", "-9/49", "0")),
         ("3.4.3-1", (0, 1, 2), ("2/7", "0", "0")),
         ("3.4.3-1", (1, 0, 0), ("-2/3", "1/2", "0")),
         ("3.4.3-1", (1, 2, 1), ("0", "2/7", "0")),
         ("3.4.3-1", (1, 2, 2), ("-1/3", "1/4", "0")),
         ("3.4.3-2", (0, 1, 2), ("0", "0", "-2/3")),
         ("3.4.3-2", (1, 2, 1), ("0", "-1/7", "0")),
         ("3.4.3-2", (2, 0, 2), ("4/9", "-1/3", "0")),
         ("3.4.3-3", (1, 2, 0), ("0", "0", "1/3")))),
    8: (2, [["ne1", 0, 1, 0, "5/3"], ["sw2", 1, 0, 0, "5/2"], ["sw1", 1, 0, 1, "2/7"],
            ["ne2", 0, 1, 0, "-3/2"], ["se1", 1, 0, 1, "-3/7"], ["ne2", 1, 1, 0, "3/2"]],
        (("4.4.1-2", (0, 1, 0), ("-10/21", "0")),
         ("4.4.1-3", (0, 1, 0), ("5/7", "0")),
         ("4.4.1-3", (0, 1, 1), ("25/9", "0")),
         ("4.4.2-1", (1, 0, 1), ("0", "-1/21")),
         ("4.4.2-1", (1, 1, 1), ("0", "-3/7")),
         ("4.4.2-3", (1, 0, 1), ("0", "1/14")),
         ("4.4.2-3", (1, 1, 1), ("0", "9/14")),
         ("4.4.3-1", (1, 0, 0), ("0", "4/49")),
         ("4.4.3-1", (1, 1, 0), ("0", "-5/7")),
         ("4.4.3-2", (1, 0, 0), ("0", "-6/49")),
         ("4.4.3-2", (1, 1, 0), ("0", "15/14")),
         ("4.4.3-3", (1, 0, 0), ("0", "3/49")),
         ("4.4.4-2", (0, 1, 0), ("3/7", "0")),
         ("4.4.4-2", (1, 1, 0), ("-3/7", "0")),
         ("4.4.4-3", (0, 1, 0), ("-9/14", "0")),
         ("4.4.4-3", (0, 1, 1), ("-5/2", "0")),
         ("4.4.4-3", (1, 1, 0), ("9/14", "0")),
         ("4.4.4-3", (1, 1, 1), ("5/2", "0")),
         ("4.4.5-1", (1, 0, 1), ("-25/6", "0")),
         ("4.4.5-3", (1, 0, 1), ("25/6", "0")),
         ("4.4.7-3", (0, 1, 1), ("-1/4", "0")),
         ("4.4.7-3", (1, 1, 1), ("-9/4", "0")),
         ("4.4.8-1", (1, 0, 1), ("15/4", "0")),
         ("4.4.8-1", (1, 1, 1), ("-15/4", "0")),
         ("4.4.8-3", (1, 0, 1), ("-111/28", "0")),
         ("4.4.9-1", (1, 0, 0), ("5/7", "0")),
         ("4.4.9-1", (1, 1, 0), ("-25/4", "0")),
         ("4.4.9-2", (1, 0, 0), ("-15/14", "0")))),
}


@pytest.mark.parametrize("level", sorted(GOLDEN_SPARSE))
def test_check_json_golden_sparse(level, capsys, tmp_path):
    d, sc, rows = GOLDEN_SPARSE[level]
    doc = {"field": "Q", "algebras": {"a": {"level": level, "dim": d, "sc": sc}}}
    assert check_json(capsys, tmp_path, doc, "a") == (1, expected_json(rows))
