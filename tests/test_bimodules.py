import json

import pytest

from clusteralg import catalog, cli
from clusteralg.bimodules import (Bimodule, PreconditionFailed, check_bimodule,
                                  dual_bimodule, octo_depth_bimodule,
                                  regular_bimodule, restrict_bimodule,
                                  restriction_rules, semidirect_sum,
                                  zero_bimodule)
from clusteralg.bundle import dumps
from clusteralg.core import Level, LevelError, check_axioms, project
from clusteralg.linalg import Matrix

import oracles

LEVELED = ("nil2", "trunc3", "ut2", "dend_from_rb_nil2", "dend_from_int3",
           "quadri_from_int3_pair", "quadri_from_int4_pair")


def random_maps(level: int, d: int, m: int, seed: int) -> Bimodule:
    ops = Level.of(level).ops
    lmap = {op: tuple(catalog.random_matrix(m, m, seed + 101 * k + 13 * i)
                      for i in range(d)) for k, op in enumerate(ops)}
    rmap = {op: tuple(catalog.random_matrix(m, m, seed + 977 * k + 17 * i)
                      for i in range(d)) for k, op in enumerate(ops)}
    return Bimodule(Level.of(level), d, m, lmap, rmap)


def test_zero_maps_are_bimodules():
    for name in LEVELED:
        a = catalog.load(name).value
        assert check_bimodule(a, zero_bimodule(int(a.level), a.dim, 2)).ok


@pytest.mark.parametrize("name", LEVELED)
def test_regular_bimodule_passes(name):
    a = catalog.load(name).value
    assert check_bimodule(a, regular_bimodule(a)).ok


def test_regular_bimodule_of_nil2(nil2):
    m = regular_bimodule(nil2)
    assert m.lmap["star"][0] == Matrix.identity(2)
    assert m.rmap["star"][0] == Matrix.identity(2)


def test_no_octo_bimodule(octo4):
    with pytest.raises(LevelError):
        regular_bimodule(octo4)
    with pytest.raises(LevelError):
        zero_bimodule(8, 4, 2)


def test_mutated_regular_bimodule_fails(dend_int3):
    m = regular_bimodule(dend_int3)
    lmap = dict(m.lmap)
    flipped = list(lmap["succ"])
    flipped[0] = -flipped[0]
    lmap["succ"] = tuple(flipped)
    bad = Bimodule(m.level, m.algebra_dim, m.module_dim, lmap, m.rmap)
    rep = check_bimodule(dend_int3, bad)
    assert not rep.ok
    assert {v.identity_id for v in rep.violations} >= {"3.1.1", "3.1.4"}
    # the semidirect reconstruction agrees that this is no bimodule
    assert not check_axioms(semidirect_sum(dend_int3, bad, check=False)).ok


@pytest.mark.parametrize("name", LEVELED)
def test_dual_bimodule_closure(name):
    a = catalog.load(name).value
    m = regular_bimodule(a)
    dm = dual_bimodule(a, m)
    assert check_bimodule(a, dm).ok
    # and the dual of a zero-padded restriction stays a bimodule too
    if int(a.level) in (2, 4):
        _, padded = restrict_bimodule(a, m, "outer-zero")
        assert check_bimodule(a, dual_bimodule(a, padded)).ok


def test_dual_of_zero_is_zero(nil2):
    z = zero_bimodule(1, 2, 3)
    assert check_bimodule(nil2, dual_bimodule(nil2, z)).ok


def test_dual_level1_is_transposed_swap(nil2):
    m = regular_bimodule(nil2)
    dm = dual_bimodule(nil2, m)
    for i in range(2):
        assert dm.lmap["star"][i] == m.rmap["star"][i].transpose()
        assert dm.rmap["star"][i] == m.lmap["star"][i].transpose()
    assert check_bimodule(nil2, dm).ok


@pytest.mark.parametrize("name", ["dend_from_rb_nil2", "dend_from_int3",
                                  "quadri_from_int3_pair", "quadri_from_int4_pair"])
def test_restriction_rules_produce_bimodules(name):
    a = catalog.load(name).value
    m = regular_bimodule(a)
    for rule in restriction_rules(int(a.level)):
        if rule.startswith("embed-"):
            continue
        alg, out = restrict_bimodule(a, m, rule)
        assert check_bimodule(alg, out).ok, (name, rule)


def test_embed_rules(dend_rb, quadri3):
    assoc = project(dend_rb, "Assoc")
    alg, emb = restrict_bimodule(dend_rb, regular_bimodule(assoc), "embed-assoc")
    assert alg is dend_rb and check_bimodule(alg, emb).ok
    horiz = project(quadri3, "HorizDend")
    alg4, emb4 = restrict_bimodule(quadri3, regular_bimodule(horiz), "embed-dend")
    assert alg4 is quadri3 and check_bimodule(alg4, emb4).ok
    alg41, emb41 = restrict_bimodule(
        quadri3, regular_bimodule(project(quadri3, "Assoc")), "embed-assoc")
    assert check_bimodule(alg41, emb41).ok


def test_restrict_rule_errors(nil2, dend_rb):
    with pytest.raises(LevelError):
        restrict_bimodule(nil2, regular_bimodule(nil2), "assoc-outer")
    with pytest.raises(LevelError):
        restrict_bimodule(dend_rb, regular_bimodule(dend_rb), "no-such-rule")
    with pytest.raises(LevelError):
        # embed-assoc wants a level-1 bimodule
        restrict_bimodule(dend_rb, regular_bimodule(dend_rb), "embed-assoc")


def test_zero_bimodule_semidirect_is_direct_sum(nil2):
    out = semidirect_sum(nil2, zero_bimodule(1, 2, 2))
    assert out.dim == 4
    assert check_axioms(out).ok
    # A-block survives, everything touching the complement vanishes
    for i, j, k, _ in out.sc["star"].nonzero():
        assert max(i, j, k) < 2


def test_semidirect_with_dual_regular(nil2, dend_rb):
    four = semidirect_sum(nil2, dual_bimodule(nil2, regular_bimodule(nil2)))
    assert four.dim == 4 and check_axioms(four).ok and oracles.oracle_assoc(four)
    dend4 = semidirect_sum(dend_rb, dual_bimodule(dend_rb, regular_bimodule(dend_rb)))
    assert dend4.dim == 4 and check_axioms(dend4).ok
    assert oracles.oracle_dendriform(dend4)


def test_semidirect_precondition_report(nil2):
    bad = random_maps(1, 2, 2, seed=5)
    assert not check_bimodule(nil2, bad).ok
    with pytest.raises(PreconditionFailed) as exc:
        semidirect_sum(nil2, bad)
    assert not exc.value.report.ok


@pytest.mark.parametrize("name", ["nil2", "trunc3", "ut2", "dend_from_rb_nil2",
                                  "quadri_from_int3_pair"])
def test_bimodule_iff_semidirect(name):
    a = catalog.load(name).value
    cases = [regular_bimodule(a), dual_bimodule(a, regular_bimodule(a)),
             zero_bimodule(int(a.level), a.dim, 2)]
    cases += [random_maps(int(a.level), a.dim, 2, seed) for seed in range(5)]
    for m in cases:
        is_bimodule = check_bimodule(a, m).ok
        sum_passes = check_axioms(semidirect_sum(a, m, check=False)).ok
        assert is_bimodule == sum_passes
        assert is_bimodule == oracles.oracle_bimodule(a, m)


def test_same_associated_algebra_after_padding(dend_rb, dend_int3):
    # the full semidirect and the zero-padded-sum semidirect share their
    # associated coarser algebra, exactly
    for a in (dend_rb, dend_int3):
        m = dual_bimodule(a, regular_bimodule(a))
        full = semidirect_sum(a, m)
        _, padded = restrict_bimodule(a, m, "sum-zero")
        other = semidirect_sum(a, padded)
        assert project(full, "Assoc").sc == project(other, "Assoc").sc


def test_same_horizontal_dendriform_after_padding(quadri3, quadri4):
    for a in (quadri3, quadri4):
        m = regular_bimodule(a)
        full = semidirect_sum(a, m)
        _, padded = restrict_bimodule(a, m, "sum-zero")
        other = semidirect_sum(a, padded)
        proj_full = project(full, "HorizDend")
        proj_other = project(other, "HorizDend")
        assert proj_full.sc == proj_other.sc


def test_octo_depth_bimodule(octo3, octo4):
    for a8 in (octo3, octo4):
        quadri, action = octo_depth_bimodule(a8)
        assert int(quadri.level) == 4
        assert check_bimodule(quadri, action).ok


def test_check_bimodule_level_mismatch(nil2, dend_rb):
    with pytest.raises(LevelError):
        check_bimodule(nil2, regular_bimodule(dend_rb))


def check_json(capsys, tmp_path, doc: dict, name: str) -> tuple[int, str]:
    """Exit code and stdout of `clusteralg check BUNDLE NAME --json`."""
    path = tmp_path / "golden.json"
    path.write_text(dumps(doc), encoding="utf-8")
    code = cli.main(["check", str(path), name, "--json"])
    return code, capsys.readouterr().out


# Failing bimodules with their exact `check --json` output: (algebra,
# module dim, bundle entries, stdout).  Level 1 hits 2.1.1-2 and 2.1.1-3,
# whose discrepancy is the negated axiom defect; level 2 hits 3.1.2/3/5/6/8/9
# off the diagonal, whose witness pair fills the algebra slots in reverse.
# In "level1-least-c" the identity fails on both module basis vectors and
# only the first one is reported; "level1-mixed-denominators" has actions
# with denominators 2 and 3 over an integer algebra.
GOLDEN_BIMODULES = {
    "level1-mixed-denominators": (
        "ut2", 2,
        [["l", "star", 0, 0, 0, "1/2"], ["l", "star", 1, 0, 1, "1/2"],
         ["l", "star", 2, 1, 1, "2/3"], ["r", "star", 2, 1, 0, "-3/2"]],
        """\
{
  "ok": false,
  "violations": [
    {
      "discrepancy": [
        "1/4",
        "0"
      ],
      "identity": "2.1.1-1",
      "witness": [
        0,
        0,
        0
      ]
    },
    {
      "discrepancy": [
        "1/4",
        "0"
      ],
      "identity": "2.1.1-1",
      "witness": [
        0,
        1,
        1
      ]
    },
    {
      "discrepancy": [
        "1/6",
        "0"
      ],
      "identity": "2.1.1-1",
      "witness": [
        1,
        2,
        1
      ]
    },
    {
      "discrepancy": [
        "0",
        "2/9"
      ],
      "identity": "2.1.1-1",
      "witness": [
        2,
        2,
        1
      ]
    },
    {
      "discrepancy": [
        "0",
        "-3/2"
      ],
      "identity": "2.1.1-2",
      "witness": [
        2,
        2,
        0
      ]
    },
    {
      "discrepancy": [
        "0",
        "3/4"
      ],
      "identity": "2.1.1-3",
      "witness": [
        0,
        2,
        0
      ]
    },
    {
      "discrepancy": [
        "-3/4",
        "0"
      ],
      "identity": "2.1.1-3",
      "witness": [
        1,
        2,
        0
      ]
    },
    {
      "discrepancy": [
        "0",
        "-1"
      ],
      "identity": "2.1.1-3",
      "witness": [
        2,
        2,
        0
      ]
    }
  ]
}
"""),
    "level1": (
        "nil2", 2,
        [["l", "star", 1, 1, 0, "-1"], ["r", "star", 0, 0, 0, "1"],
         ["r", "star", 1, 1, 0, "-1"]],
        """\
{
  "ok": false,
  "violations": [
    {
      "discrepancy": [
        "0",
        "-1"
      ],
      "identity": "2.1.1-1",
      "witness": [
        0,
        1,
        0
      ]
    },
    {
      "discrepancy": [
        "0",
        "-1"
      ],
      "identity": "2.1.1-1",
      "witness": [
        1,
        0,
        0
      ]
    },
    {
      "discrepancy": [
        "0",
        "-1"
      ],
      "identity": "2.1.1-2",
      "witness": [
        1,
        0,
        0
      ]
    },
    {
      "discrepancy": [
        "0",
        "-1"
      ],
      "identity": "2.1.1-3",
      "witness": [
        1,
        0,
        0
      ]
    }
  ]
}
"""),
    "level1-least-c": (
        "nil2", 2,
        [["r", "star", 0, 0, 1, "-1"], ["r", "star", 0, 1, 0, "-1"],
         ["r", "star", 0, 1, 1, "1"]],
        """\
{
  "ok": false,
  "violations": [
    {
      "discrepancy": [
        "-1",
        "0"
      ],
      "identity": "2.1.1-2",
      "witness": [
        0,
        0,
        0
      ]
    }
  ]
}
"""),
    "level2": (
        "dend_from_rb_nil2", 2,
        [["l", "prec", 0, 1, 1, "3"], ["l", "succ", 0, 0, 0, "1"],
         ["r", "prec", 0, 1, 0, "-1"], ["r", "prec", 1, 0, 1, "3"],
         ["r", "succ", 1, 0, 1, "-1"]],
        """\
{
  "ok": false,
  "violations": [
    {
      "discrepancy": [
        "0",
        "-9"
      ],
      "identity": "3.1.1",
      "witness": [
        0,
        0,
        1
      ]
    },
    {
      "discrepancy": [
        "0",
        "3"
      ],
      "identity": "3.1.2",
      "witness": [
        0,
        0,
        0
      ]
    },
    {
      "discrepancy": [
        "9",
        "0"
      ],
      "identity": "3.1.2",
      "witness": [
        1,
        0,
        1
      ]
    },
    {
      "discrepancy": [
        "-6",
        "0"
      ],
      "identity": "3.1.3",
      "witness": [
        0,
        0,
        1
      ]
    },
    {
      "discrepancy": [
        "0",
        "-3"
      ],
      "identity": "3.1.3",
      "witness": [
        0,
        1,
        1
      ]
    },
    {
      "discrepancy": [
        "-3",
        "0"
      ],
      "identity": "3.1.3",
      "witness": [
        1,
        0,
        0
      ]
    },
    {
      "discrepancy": [
        "0",
        "-1"
      ],
      "identity": "3.1.5",
      "witness": [
        0,
        0,
        0
      ]
    },
    {
      "discrepancy": [
        "-3",
        "0"
      ],
      "identity": "3.1.5",
      "witness": [
        1,
        0,
        1
      ]
    },
    {
      "discrepancy": [
        "1",
        "0"
      ],
      "identity": "3.1.6",
      "witness": [
        0,
        0,
        1
      ]
    },
    {
      "discrepancy": [
        "0",
        "1"
      ],
      "identity": "3.1.6",
      "witness": [
        0,
        1,
        1
      ]
    },
    {
      "discrepancy": [
        "-1",
        "0"
      ],
      "identity": "3.1.7",
      "witness": [
        0,
        0,
        0
      ]
    },
    {
      "discrepancy": [
        "-2",
        "0"
      ],
      "identity": "3.1.8",
      "witness": [
        1,
        0,
        1
      ]
    },
    {
      "discrepancy": [
        "1",
        "0"
      ],
      "identity": "3.1.9",
      "witness": [
        0,
        0,
        1
      ]
    },
    {
      "discrepancy": [
        "1",
        "0"
      ],
      "identity": "3.1.9",
      "witness": [
        1,
        0,
        0
      ]
    }
  ]
}
"""),
    "level4": (
        "quadri_from_int3_pair", 2,
        [["l", "se", 2, 0, 1, "1"], ["r", "sw", 0, 1, 1, "2"]],
        """\
{
  "ok": false,
  "violations": [
    {
      "discrepancy": [
        "0",
        "4"
      ],
      "identity": "4.1.3-3",
      "witness": [
        0,
        0,
        1
      ]
    },
    {
      "discrepancy": [
        "-2",
        "0"
      ],
      "identity": "4.1.6-2",
      "witness": [
        2,
        0,
        1
      ]
    },
    {
      "discrepancy": [
        "3",
        "0"
      ],
      "identity": "4.1.9-1",
      "witness": [
        0,
        0,
        1
      ]
    }
  ]
}
"""),
    "level4-rank1": (
        "quadri_from_int4_pair", 1,
        [["l", "nw", 1, 0, 0, "1"], ["r", "se", 0, 0, 0, "2"]],
        """\
{
  "ok": false,
  "violations": [
    {
      "discrepancy": [
        "-1"
      ],
      "identity": "4.1.1-1",
      "witness": [
        1,
        1,
        0
      ]
    },
    {
      "discrepancy": [
        "-2"
      ],
      "identity": "4.1.1-2",
      "witness": [
        1,
        0,
        0
      ]
    },
    {
      "discrepancy": [
        "2"
      ],
      "identity": "4.1.9-2",
      "witness": [
        1,
        0,
        0
      ]
    },
    {
      "discrepancy": [
        "4"
      ],
      "identity": "4.1.9-3",
      "witness": [
        0,
        0,
        0
      ]
    }
  ]
}
"""),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_BIMODULES))
def test_check_json_golden(case, capsys, tmp_path):
    alg, module_dim, entries, expected = GOLDEN_BIMODULES[case]
    a_doc = catalog.catalog_bundle()["algebras"][alg]
    doc = {"field": "Q", "algebras": {alg: a_doc},
           "bimodules": {"m": {"level": a_doc["level"], "algebra_dim": a_doc["dim"],
                               "module_dim": module_dim, "entries": entries,
                               "algebra": alg}}}
    assert check_json(capsys, tmp_path, doc, "m") == (1, expected)


def expected_json(rows) -> str:
    """The `check --json` stdout of a failing report with the given
    (identity, witness, discrepancy) rows, in order."""
    return json.dumps({"ok": False, "violations": [
        {"identity": ident, "witness": list(witness), "discrepancy": list(disc)}
        for ident, witness, disc in rows]}, sort_keys=True, indent=2) + "\n"


# Bimodules on a 3-dimensional module over algebras with constants over
# 2, 3 and 7 whose exact `check --json` output names, for some (i, j),
# the least of several failing module indices c (one that is not 0):
# level -> (algebra constants, bimodule entries, violation rows).
GOLDEN_LEAST_C = {
    1: ([["star", 0, 0, 0, "2/7"], ["star", 0, 1, 1, "2/7"], ["star", 1, 0, 1, "2/7"]],
        [["r", "star", 0, 1, 0, "-3/2"], ["l", "star", 1, 0, 1, "-2/7"],
         ["l", "star", 0, 1, 1, "-1/3"], ["l", "star", 0, 2, 2, "5/2"]],
        (("2.1.1-1", (0, 0, 1), ("0", "-13/63", "0")),
         ("2.1.1-1", (0, 1, 1), ("-4/49", "0", "0")),
         ("2.1.1-1", (1, 0, 1), ("-26/147", "0", "0")),
         ("2.1.1-2", (0, 0, 0), ("0", "-3/7", "0")),
         ("2.1.1-3", (0, 0, 0), ("0", "1/2", "0")),
         ("2.1.1-3", (1, 0, 0), ("3/7", "0", "0")))),
    2: ([["succ", 0, 0, 1, "9/28"], ["prec", 0, 0, 1, "9/28"]],
        [["r", "prec", 0, 1, 0, "-3/2"], ["l", "prec", 1, 0, 1, "-2/7"],
         ["l", "succ", 0, 1, 1, "-1/3"], ["l", "succ", 0, 2, 2, "5/2"]],
        (("3.1.1", (0, 0, 1), ("-9/98", "0", "0")),
         ("3.1.1", (1, 0, 1), ("-2/21", "0", "0")),
         ("3.1.2", (0, 1, 0), ("-3/7", "0", "0")),
         ("3.1.4", (0, 0, 1), ("-9/98", "0", "0")),
         ("3.1.5", (0, 0, 0), ("0", "-1/2", "0")),
         ("3.1.7", (0, 0, 1), ("0", "-1/9", "0")))),
    4: ([["se", 0, 0, 2, "4"], ["ne", 0, 0, 2, "8"], ["nw", 0, 0, 2, "4"],
         ["sw", 0, 0, 2, "8"]],
        [["l", "sw", 2, 1, 1, "5/3"], ["l", "sw", 1, 2, 2, "2"],
         ["l", "se", 1, 2, 1, "-2/7"], ["r", "nw", 1, 1, 2, "-1/2"]],
        (("4.1.2-2", (1, 1, 2), ("0", "-1", "0")),
         ("4.1.2-2", (2, 1, 2), ("0", "5/6", "0")),
         ("4.1.3-1", (0, 0, 1), ("0", "20", "0")),
         ("4.1.3-1", (1, 1, 1), ("0", "0", "4/7")),
         ("4.1.3-1", (2, 2, 1), ("0", "-25/9", "0")),
         ("4.1.5-2", (1, 1, 1), ("0", "1/7", "0")),
         ("4.1.6-1", (0, 0, 1), ("0", "20", "0")),
         ("4.1.6-1", (1, 2, 1), ("0", "0", "10/21")))),
}


@pytest.mark.parametrize("level", sorted(GOLDEN_LEAST_C))
def test_check_json_golden_least_c(level, capsys, tmp_path):
    sc, entries, rows = GOLDEN_LEAST_C[level]
    d = 2 if level < 4 else 3
    doc = {"field": "Q", "algebras": {"a": {"level": level, "dim": d, "sc": sc}},
           "bimodules": {"m": {"level": level, "algebra_dim": d, "module_dim": 3,
                               "entries": entries, "algebra": "a"}}}
    assert check_json(capsys, tmp_path, doc, "m") == (1, expected_json(rows))
