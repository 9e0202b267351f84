import json
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from clusteralg import catalog, cli
from clusteralg.bimodules import PreconditionFailed
from clusteralg.bundle import dumps, serialize_algebra, serialize_form
from clusteralg.core import LevelError, check_axioms, project, zero_algebra
from clusteralg.forms import (BilinearForm, bridge_equivalence,
                              canonical_cocycle_form, canonical_invariant_form,
                              classify_form, finer_form_identities,
                              finer_from_form, form_to_tensor, tensor_to_form)
from clusteralg.linalg import Matrix, Singular, format_rational
from clusteralg.yangbaxter import Tensor2, canonical_double_solution

import oracles
from conftest import rebased


def test_zero_form_conditions_hold_everywhere():
    for name in ("nil2", "dend_from_int3", "quadri_from_int3_pair"):
        a = catalog.load(name).value
        cls = classify_form(a, BilinearForm.zeros(a.dim))
        assert all(cls.flags.values())
        assert cls.symmetric and cls.skew and not cls.nondegenerate


def test_canonical_forms_classify_as_stated(dend_rb, dend_int3):
    for a in (dend_rb, dend_int3):
        l1 = canonical_double_solution(a, "Cor2.2.8")
        omega = canonical_cocycle_form(a.dim)
        cls = classify_form(l1.double, omega)
        assert cls.skew and cls.nondegenerate and cls.flags["connes_cocycle"]
        l2 = canonical_double_solution(a, "Cor3.3.8")
        b = canonical_invariant_form(a.dim)
        cls2 = classify_form(l2.double, b)
        assert cls2.symmetric and cls2.nondegenerate and cls2.flags["dend_2cocycle"]


def test_bridge_block_tensors_pinned(dend_int3):
    d = dend_int3.dim
    l1 = canonical_double_solution(dend_int3, "Cor2.2.8")
    assert tensor_to_form(l1.tensor).matrix == canonical_cocycle_form(d).matrix
    l2 = canonical_double_solution(dend_int3, "Cor3.3.8")
    assert tensor_to_form(l2.tensor).matrix == canonical_invariant_form(d).matrix
    # and back again
    assert form_to_tensor(canonical_cocycle_form(d)).grid == l1.tensor.grid
    assert form_to_tensor(canonical_invariant_form(d)).grid == l2.tensor.grid


def test_bridge_scalar_and_rotation():
    b = BilinearForm(Matrix([[0, 1], [-1, 0]]))
    r = form_to_tensor(b)
    assert r.grid == Matrix([[0, -1], [1, 0]])
    assert tensor_to_form(r).matrix == b.matrix
    c = Fraction(7, 3)
    rt = Tensor2.from_entries(1, [(0, 0, c)])
    assert tensor_to_form(rt).matrix == Matrix([[1 / c]])


def test_bridge_roundtrip_random():
    for seed in range(10):
        for parity in ("sym", "skew"):
            dim = 4 if parity == "skew" else 3
            r = catalog.random_invertible_tensor2(dim, parity, seed)
            b = tensor_to_form(r)
            assert b.is_symmetric() == (parity == "sym")
            assert b.is_skew() == (parity == "skew")
            assert form_to_tensor(b).grid == r.grid
            assert tensor_to_form(form_to_tensor(b)).matrix == b.matrix
    with pytest.raises(Singular):
        form_to_tensor(BilinearForm.zeros(2))


def test_bridge_equivalence_canonical(dend_int3, quadri3):
    l1 = canonical_double_solution(dend_int3, "Cor2.2.8")
    res = bridge_equivalence(l1.double, l1.tensor)
    assert res.agree and res.equation_report.ok and res.form_ok
    l2 = canonical_double_solution(dend_int3, "Cor3.3.8")
    res2 = bridge_equivalence(l2.double, l2.tensor)
    assert res2.agree and res2.form_ok
    l4 = canonical_double_solution(quadri3, "Cor4.2.10")
    res4 = bridge_equivalence(l4.double, l4.tensor)
    assert res4.agree and res4.form_ok


def test_bridge_equivalence_random(nil2, dend_rb, dend_int3, quadri3):
    # level 1, skew invertible
    for seed in range(20):
        r = catalog.random_invertible_tensor2(nil2.dim, "skew", seed)
        assert bridge_equivalence(nil2, r).agree
    # level 2, symmetric invertible
    for a in (dend_rb, dend_int3):
        for seed in range(20):
            r = catalog.random_invertible_tensor2(a.dim, "sym", seed)
            assert bridge_equivalence(a, r).agree
    # level 4 needs even dimension for invertible skew tensors
    l4 = canonical_double_solution(quadri3, "Cor4.2.10").double
    for seed in range(20):
        r = catalog.random_invertible_tensor2(l4.dim, "skew", seed)
        assert bridge_equivalence(l4, r).agree
    with pytest.raises(ValueError):
        bridge_equivalence(nil2, catalog.random_invertible_tensor2(2, "sym", 0))


def test_finer_from_form_canonical_chain(dend_int3, quadri3):
    # level-1 double + canonical cocycle -> compatible dendriform
    l1 = canonical_double_solution(dend_int3, "Cor2.2.8")
    om = tensor_to_form(l1.tensor)
    f1 = finer_from_form(l1.double, om)
    assert int(f1.level) == 2 and check_axioms(f1).ok
    assert project(f1, "Assoc").sc == l1.double.sc
    assert finer_form_identities(l1.double, om, f1).ok
    # level-2 double + canonical 2-cocycle -> compatible quadri
    l2 = canonical_double_solution(dend_int3, "Cor3.3.8")
    b = tensor_to_form(l2.tensor)
    f2 = finer_from_form(l2.double, b)
    assert int(f2.level) == 4 and check_axioms(f2).ok
    assert project(f2, "HorizDend").sc == l2.double.sc
    # level-4 double + canonical skew 2-cocycle -> compatible octo
    l4 = canonical_double_solution(quadri3, "Cor4.2.10")
    om4 = tensor_to_form(l4.tensor)
    f4 = finer_from_form(l4.double, om4)
    assert int(f4.level) == 8 and check_axioms(f4).ok
    assert project(f4, "DepthQuadri").sc == l4.double.sc
    assert finer_form_identities(l4.double, om4, f4).ok


def test_finer_from_form_requires_flags(nil2, dend_rb):
    # skew nondegenerate on nil2 exists but is not a Connes cocycle
    om = catalog.random_invertible_tensor2(2, "skew", 0)
    omf = tensor_to_form(om)
    assert not classify_form(nil2, omf).flags["connes_cocycle"]
    with pytest.raises(PreconditionFailed):
        finer_from_form(nil2, omf)
    # wrong parity
    with pytest.raises(PreconditionFailed):
        finer_from_form(nil2, tensor_to_form(
            catalog.random_invertible_tensor2(2, "sym", 1)))
    # degenerate form
    with pytest.raises(Singular):
        finer_from_form(nil2, BilinearForm.zeros(2))


def test_finer_form_identities_need_the_doubled_level(nil2):
    # succ and prec are derived symbols at level 4, so a level-4 algebra
    # must not pass for the level-2 structure a level-1 form induces
    b = tensor_to_form(catalog.random_invertible_tensor2(2, "skew", 0))
    with pytest.raises(LevelError):
        finer_form_identities(nil2, b, zero_algebra(4, 2))
    assert finer_form_identities(nil2, b, finer_from_form(nil2, b, require_flags=False)).ok


def test_prop_322_five_way(dend_rb, dend_int3):
    for a in (dend_rb, dend_int3):
        forms = [catalog.random_form(a.dim, "skew", seed) for seed in range(20)]
        forms.append(BilinearForm.zeros(a.dim))
        # a genuinely invariant skew form: the canonical cocycle transported
        lift = canonical_double_solution(a, "Cor2.2.8")
        finer = finer_from_form(lift.double, tensor_to_form(lift.tensor))
        for alg, form in [(a, f) for f in forms] + \
                [(finer, tensor_to_form(lift.tensor))]:
            fl = classify_form(alg, form).flags
            variants = [fl["dend_inv_succ"] and fl["dend_inv_prec"],
                        fl["dend_inv_succ"] and fl["dend_aux"],
                        fl["dend_inv_prec"] and fl["dend_aux"],
                        fl["dend_inv_succ"] and fl["dend_cyclic_succ"],
                        fl["dend_inv_prec"] and fl["dend_cyclic_prec"]]
            assert len(set(variants)) == 1
            assert fl["dend_invariant"] == variants[0]


def test_prop_322_item5_invariant_implies_connes(dend_int3):
    lift = canonical_double_solution(dend_int3, "Cor2.2.8")
    finer = finer_from_form(lift.double, tensor_to_form(lift.tensor))
    om = tensor_to_form(lift.tensor)
    assert classify_form(finer, om).flags["dend_invariant"]
    assert classify_form(project(finer, "Assoc"), om).flags["connes_cocycle"]
    # and on random skew forms the implication holds vacuously or not
    for seed in range(12):
        f = catalog.random_form(dend_int3.dim, "skew", seed)
        fl = classify_form(dend_int3, f).flags
        if fl["dend_invariant"]:
            assoc = project(dend_int3, "Assoc")
            assert classify_form(assoc, f).flags["connes_cocycle"]


def test_cor_323_candidate_equivalence(nil2, dend_int3):
    l1 = canonical_double_solution(dend_int3, "Cor2.2.8")
    cases = [(nil2, s) for s in range(10)] + [(l1.double, s) for s in range(10)]
    positives = 0
    for base, seed in cases:
        om = tensor_to_form(catalog.random_invertible_tensor2(base.dim, "skew", seed))
        is_cocycle = classify_form(base, om).flags["connes_cocycle"]
        candidate = finer_from_form(base, om, require_flags=False)
        invariant = classify_form(candidate, om).flags["dend_invariant"]
        assert is_cocycle == invariant
        positives += is_cocycle
    # the canonical cocycle supplies the positive branch
    om = tensor_to_form(l1.tensor)
    assert classify_form(l1.double, om).flags["connes_cocycle"]
    candidate = finer_from_form(l1.double, om, require_flags=False)
    assert classify_form(candidate, om).flags["dend_invariant"]


_TRIPLES = [(("quadri_inv_ne", "quadri_inv_nw"), "quadri_aux_1"),
            (("quadri_inv_se", "quadri_inv_sw"), "quadri_aux_2"),
            (("quadri_inv_se", "quadri_inv_nw"), "quadri_aux_3"),
            (("quadri_inv_ne", "quadri_inv_sw"), "quadri_aux_4"),
            (("quadri_inv_se", "quadri_inv_ne"), "quadri_aux_5"),
            (("quadri_inv_nw", "quadri_inv_sw"), "quadri_aux_6")]


def _two_imply_third(fl, pair, third) -> bool:
    a, b, c = fl[pair[0]], fl[pair[1]], fl[third]
    return (((not (a and b)) or c) and ((not (a and c)) or b)
            and ((not (b and c)) or a))


def test_lemma_431_six_triples(quadri3, dend_int3):
    cases = [(quadri3, catalog.random_form(3, "sym", s)) for s in range(20)]
    cases.append((quadri3, BilinearForm.zeros(3)))
    l2 = canonical_double_solution(dend_int3, "Cor3.3.8")
    qstar = finer_from_form(l2.double, tensor_to_form(l2.tensor))
    cases.append((qstar, tensor_to_form(l2.tensor)))
    positives = 0
    for alg, form in cases:
        fl = classify_form(alg, form).flags
        for pair, third in _TRIPLES:
            assert _two_imply_third(fl, pair, third)
            positives += fl[pair[0]] and fl[pair[1]]
    assert positives >= 6  # exercised on the zero form and the canonical case


def test_cor_433_and_cor_434(dend_int3):
    # invariant symmetric form on a quadri is a 2-cocycle of the horizontal
    # dendriform algebra; on the canonical compatible quadri both directions
    # of the nondegenerate statement hold
    l2 = canonical_double_solution(dend_int3, "Cor3.3.8")
    b = tensor_to_form(l2.tensor)
    qstar = finer_from_form(l2.double, b)
    fl = classify_form(qstar, b).flags
    assert fl["quadri_invariant"]
    horiz = project(qstar, "HorizDend")
    assert classify_form(horiz, b).flags["dend_2cocycle"]
    # random symmetric forms: the implication, vacuous or not
    for seed in range(12):
        f = catalog.random_form(qstar.dim, "sym", seed)
        flr = classify_form(qstar, f).flags
        if flr["quadri_invariant"]:
            assert classify_form(horiz, f).flags["dend_2cocycle"]


# Golden form classifications: the Cor2.2.8, Cor3.3.8 and Cor4.2.10
# doubles and a level-8 catalog algebra, rebased so that their constants
# have the denominators 2, 3 and 7, with the canonical forms scaled over
# 5 and 11 and some of them bent off their flags; the level-8 algebra has
# no form flags.  `classify --json` and `check FORM --require ... --json`
# must print exactly the JSON below.
_LAM4 = (Fraction(1, 2), Fraction(7), Fraction(6), Fraction(1))
_LAM6 = (Fraction(2, 7), Fraction(7), Fraction(6), Fraction(7), Fraction(6),
         Fraction(1, 2))


def _rebased_form(b: BilinearForm, lam, c, bend=()) -> BilinearForm:
    """c times b in the basis lam_i e_i, plus the entries of bend."""
    d = b.dim
    buf = [[c * lam[i] * lam[j] * b.matrix[i, j] for j in range(d)] for i in range(d)]
    for i, j, v in bend:
        buf[i][j] += v
    return BilinearForm(Matrix(buf))


@cache
def _golden_forms_doc() -> dict:
    dend = catalog.load("dend_from_rb_nil2").value
    quadri = catalog.load("quadri_from_int3_pair").value
    algebras = {
        "l1": rebased(canonical_double_solution(dend, "Cor2.2.8").double, _LAM4),
        "l2": rebased(canonical_double_solution(dend, "Cor3.3.8").double, _LAM4),
        "l4": rebased(canonical_double_solution(quadri, "Cor4.2.10").double, _LAM6),
        "l8": rebased(catalog.load("octo_from_int4_triple").value, _LAM4),
    }
    om2, om3 = canonical_cocycle_form(2), canonical_cocycle_form(3)
    inv2 = canonical_invariant_form(2)
    forms = {
        "l1_omega": _rebased_form(om2, _LAM4, Fraction(5, 11)),
        "l1_bent": _rebased_form(om2, _LAM4, Fraction(5, 11),
                                 [(0, 1, Fraction(1, 5)), (1, 0, Fraction(-1, 5))]),
        "l2_inv": _rebased_form(inv2, _LAM4, Fraction(11, 5)),
        "l2_bent": _rebased_form(inv2, _LAM4, Fraction(11, 5), [(2, 2, Fraction(3, 11))]),
        "l4_omega": _rebased_form(om3, _LAM6, Fraction(5, 11)),
        "l4_bent": _rebased_form(om3, _LAM6, Fraction(5, 11),
                                 [(0, 3, Fraction(1, 5)), (3, 0, Fraction(-1, 5))]),
        "l8_b": BilinearForm(Matrix([[0, 0, 0, Fraction(5, 11)], [0, Fraction(2, 5), 0, 0],
                                     [0, 0, 1, 0], [Fraction(-5, 11), 0, 0, 0]])),
    }
    return {"field": "Q",
            "algebras": {k: serialize_algebra(a) for k, a in algebras.items()},
            "forms": {k: {**serialize_form(b), "algebra": k.split("_")[0]}
                      for k, b in forms.items()}}


def _run_json(capsys, tmp_path, *argv) -> tuple[int, str]:
    path = tmp_path / "forms.json"
    path.write_text(dumps(_golden_forms_doc()), encoding="utf-8")
    code = cli.main([argv[0], str(path), *argv[1:]])
    return code, capsys.readouterr().out


def _pretty(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


GOLDEN_CLASSIFY = {"l1_bent": {"flags": {"connes_cocycle": False, "invariant_assoc": False},
             "nondegenerate": True,
             "skew": True,
             "symmetric": False},
 "l1_omega": {"flags": {"connes_cocycle": True, "invariant_assoc": False},
              "nondegenerate": True,
              "skew": True,
              "symmetric": False},
 "l2_bent": {"flags": {"dend_2cocycle": False,
                       "dend_aux": False,
                       "dend_cyclic_prec": False,
                       "dend_cyclic_succ": False,
                       "dend_inv_prec": False,
                       "dend_inv_succ": False,
                       "dend_invariant": False},
             "nondegenerate": True,
             "skew": False,
             "symmetric": True},
 "l2_inv": {"flags": {"dend_2cocycle": True,
                      "dend_aux": False,
                      "dend_cyclic_prec": False,
                      "dend_cyclic_succ": False,
                      "dend_inv_prec": False,
                      "dend_inv_succ": False,
                      "dend_invariant": False},
            "nondegenerate": True,
            "skew": False,
            "symmetric": True},
 "l4_bent": {"flags": {"quadri_2cocycle": False,
                       "quadri_2cocycle_a": False,
                       "quadri_2cocycle_b": False,
                       "quadri_aux_1": False,
                       "quadri_aux_2": False,
                       "quadri_aux_3": False,
                       "quadri_aux_4": False,
                       "quadri_aux_5": False,
                       "quadri_aux_6": False,
                       "quadri_inv_ne": False,
                       "quadri_inv_nw": False,
                       "quadri_inv_se": False,
                       "quadri_inv_sw": False,
                       "quadri_invariant": False},
             "nondegenerate": True,
             "skew": True,
             "symmetric": False},
 "l4_omega": {"flags": {"quadri_2cocycle": True,
                        "quadri_2cocycle_a": True,
                        "quadri_2cocycle_b": True,
                        "quadri_aux_1": False,
                        "quadri_aux_2": False,
                        "quadri_aux_3": False,
                        "quadri_aux_4": False,
                        "quadri_aux_5": False,
                        "quadri_aux_6": False,
                        "quadri_inv_ne": False,
                        "quadri_inv_nw": False,
                        "quadri_inv_se": False,
                        "quadri_inv_sw": False,
                        "quadri_invariant": False},
              "nondegenerate": True,
              "skew": True,
              "symmetric": False},
 "l8_b": {"flags": {}, "nondegenerate": True, "skew": False, "symmetric": False}}

GOLDEN_FORM_CHECKS = [("l1_omega",
  "skew,connes_cocycle,nondegenerate",
  0,
  {"flags": {"connes_cocycle": True, "nondegenerate": True, "skew": True}, "ok": True}),
 ("l1_bent",
  "connes_cocycle, skew",
  1,
  {"flags": {"connes_cocycle": False, "skew": True}, "ok": False}),
 ("l2_inv",
  "dend_2cocycle,symmetric,dend_invariant",
  1,
  {"flags": {"dend_2cocycle": True, "dend_invariant": False, "symmetric": True},
   "ok": False}),
 ("l2_bent", "dend_2cocycle", 1, {"flags": {"dend_2cocycle": False}, "ok": False}),
 ("l4_omega",
  "quadri_2cocycle,quadri_2cocycle_a,skew",
  0,
  {"flags": {"quadri_2cocycle": True, "quadri_2cocycle_a": True, "skew": True},
   "ok": True}),
 ("l4_bent",
  "quadri_2cocycle_b,quadri_aux_4,nondegenerate",
  1,
  {"flags": {"nondegenerate": True, "quadri_2cocycle_b": False, "quadri_aux_4": False},
   "ok": False}),
 ("l8_b",
  "nondegenerate,symmetric",
  1,
  {"flags": {"nondegenerate": True, "symmetric": False}, "ok": False})]


@pytest.mark.parametrize("form", sorted(GOLDEN_CLASSIFY))
def test_classify_json_golden(form, capsys, tmp_path):
    assert _run_json(capsys, tmp_path, "classify", form.split("_")[0], form, "--json") \
        == (0, _pretty(GOLDEN_CLASSIFY[form]))


@pytest.mark.parametrize("case", range(len(GOLDEN_FORM_CHECKS)))
def test_check_form_json_golden(case, capsys, tmp_path):
    form, flags, code, doc = GOLDEN_FORM_CHECKS[case]
    assert _run_json(capsys, tmp_path, "check", form, "--require", flags, "--json") \
        == (code, _pretty(doc))


# The finer-identity rows of a candidate finer_from_form builds without
# its flag (from a form G on a rebased catalog algebra that lacks every
# flag), checked against G with one entry bent: (id, witness, discrepancy)
# in report order.  A candidate always satisfies the identities of the
# form it was built from, so the bent form is what makes rows.
_G = ((Fraction(1, 5), Fraction(2, 11), 0), (Fraction(-3, 11), 0, Fraction(1, 5)),
      (Fraction(4, 5), 0, Fraction(1, 11)))
_LAM3 = (Fraction(1, 2), Fraction(3), Fraction(7, 3))

GOLDEN_FINER_ROWS = {"dend_from_int3": (("finer-se", (0, 0, 2), ("-10/1677",)),
                    ("finer-se", (0, 1, 1), ("-27/70",)),
                    ("finer-se", (0, 1, 2), ("3267/78260",)),
                    ("finer-se", (0, 2, 2), ("297/15652",)),
                    ("finer-se", (1, 1, 0), ("-27/70",)),
                    ("finer-se", (1, 1, 2), ("-297/7826",)),
                    ("finer-se", (1, 2, 2), ("-135/7826",)),
                    ("finer-ne", (0, 0, 2), ("5/1677",)),
                    ("finer-ne", (1, 0, 1), ("9/70",)),
                    ("finer-ne", (1, 0, 2), ("-1089/78260",)),
                    ("finer-ne", (1, 1, 0), ("9/35",)),
                    ("finer-ne", (1, 1, 2), ("99/3913",)),
                    ("finer-ne", (2, 0, 2), ("-99/15652",)),
                    ("finer-ne", (2, 1, 2), ("45/3913",)),
                    ("finer-nw", (0, 0, 2), ("-10/1677",)),
                    ("finer-nw", (1, 0, 1), ("-27/70",)),
                    ("finer-nw", (1, 0, 2), ("3267/78260",)),
                    ("finer-nw", (1, 1, 0), ("-27/70",)),
                    ("finer-nw", (1, 1, 2), ("-297/7826",)),
                    ("finer-nw", (2, 0, 2), ("297/15652",)),
                    ("finer-nw", (2, 1, 2), ("-135/7826",)),
                    ("finer-sw", (0, 0, 2), ("5/1677",)),
                    ("finer-sw", (0, 1, 1), ("9/70",)),
                    ("finer-sw", (0, 1, 2), ("-1089/78260",)),
                    ("finer-sw", (0, 2, 2), ("-99/15652",)),
                    ("finer-sw", (1, 1, 0), ("9/35",)),
                    ("finer-sw", (1, 1, 2), ("99/3913",)),
                    ("finer-sw", (1, 2, 2), ("45/3913",))),
 "quadri_from_int3_pair": (("finer-se1", (1, 0, 0), ("-3/140",)),
                           ("finer-se1", (1, 0, 2), ("-33/15652",)),
                           ("finer-se1", (2, 0, 2), ("-15/15652",)),
                           ("finer-se2", (0, 1, 0), ("-9/70",)),
                           ("finer-se2", (0, 1, 2), ("-99/7826",)),
                           ("finer-se2", (0, 2, 2), ("-45/7826",)),
                           ("finer-ne1", (1, 0, 0), ("9/140",)),
                           ("finer-ne1", (1, 0, 2), ("99/15652",)),
                           ("finer-ne1", (2, 0, 2), ("45/15652",)),
                           ("finer-ne2", (0, 1, 0), ("9/140",)),
                           ("finer-ne2", (0, 1, 2), ("99/15652",)),
                           ("finer-ne2", (0, 2, 2), ("45/15652",)),
                           ("finer-nw1", (1, 0, 0), ("-9/70",)),
                           ("finer-nw1", (1, 0, 2), ("-99/7826",)),
                           ("finer-nw1", (2, 0, 2), ("-45/7826",)),
                           ("finer-nw2", (0, 1, 0), ("-3/140",)),
                           ("finer-nw2", (0, 1, 2), ("-33/15652",)),
                           ("finer-nw2", (0, 2, 2), ("-15/15652",)),
                           ("finer-sw1", (1, 0, 0), ("9/140",)),
                           ("finer-sw1", (1, 0, 2), ("99/15652",)),
                           ("finer-sw1", (2, 0, 2), ("45/15652",)),
                           ("finer-sw2", (0, 1, 0), ("9/140",)),
                           ("finer-sw2", (0, 1, 2), ("99/15652",)),
                           ("finer-sw2", (0, 2, 2), ("45/15652",))),
 "trunc3": (("finer-succ", (1, 0, 2), ("-10/559",)),
            ("finer-succ", (1, 1, 1), ("-54/35",)),
            ("finer-succ", (1, 1, 2), ("3267/19565",)),
            ("finer-succ", (1, 2, 2), ("297/3913",)),
            ("finer-succ", (2, 1, 0), ("-1/5",)),
            ("finer-succ", (2, 1, 2), ("-11/559",)),
            ("finer-succ", (2, 2, 2), ("-5/559",)),
            ("finer-prec", (0, 1, 2), ("-10/559",)),
            ("finer-prec", (1, 1, 1), ("-54/35",)),
            ("finer-prec", (1, 1, 2), ("3267/19565",)),
            ("finer-prec", (1, 2, 0), ("-1/5",)),
            ("finer-prec", (1, 2, 2), ("-11/559",)),
            ("finer-prec", (2, 1, 2), ("297/3913",)),
            ("finer-prec", (2, 2, 2), ("-5/559",)))}


@pytest.mark.parametrize("name", sorted(GOLDEN_FINER_ROWS))
def test_finer_form_identities_golden(name):
    a = rebased(catalog.load(name).value, _LAM3)
    g = BilinearForm(Matrix(_G))
    assert not any(classify_form(a, g).flags.values())
    candidate = finer_from_form(a, g, require_flags=False)
    assert finer_form_identities(a, g, candidate).ok
    bent = [list(row) for row in _G]
    bent[1][2] += Fraction(2, 5)
    rep = finer_form_identities(a, BilinearForm(Matrix(bent)), candidate)
    assert tuple((v.identity_id, v.witness, tuple(map(format_rational, v.discrepancy)))
                 for v in rep.violations) == GOLDEN_FINER_ROWS[name]


small_rationals = st.one_of(st.just(Fraction(0)), st.fractions(-3, 3, max_denominator=7))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_nondegenerate_agrees_with_gauss_jordan(data):
    d = data.draw(st.integers(1, 8))
    line = st.lists(small_rationals, min_size=d, max_size=d)
    grid = data.draw(st.lists(line, min_size=d, max_size=d))
    if data.draw(st.booleans()):  # row t becomes a combination of the others
        t, cs = data.draw(st.integers(0, d - 1)), data.draw(line)
        grid[t] = [sum((cs[r] * grid[r][c] for r in range(d) if r != t), Fraction(0))
                   for c in range(d)]
    rank = len(oracles.oracle_rref(grid)[0])
    assert BilinearForm(Matrix(grid)).is_nondegenerate() == (rank == d)
