"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines.  Every tolerance is exact (zero); the stated runtime budgets
are asserted with wall-clock timing of the production checks.
"""

import time
from fractions import Fraction

from clusteralg import catalog, cli
from clusteralg.bimodules import (check_bimodule, dual_bimodule,
                                  regular_bimodule, restrict_bimodule,
                                  semidirect_sum)
from clusteralg.bundle import dumps
from clusteralg.core import (check_axioms, project, projection_targets)
from clusteralg.forms import (bridge_equivalence, canonical_cocycle_form,
                              canonical_invariant_form, classify_form,
                              finer_from_form, form_to_tensor, tensor_to_form)
from clusteralg.linalg import Matrix
from clusteralg.operators import (InterMap, homomorphism_report,
                                  induce_on_module, is_rota_baxter,
                                  rb_finer, rb_triple_octo)
from clusteralg.yangbaxter import (aybe_as_o_operator,
                                   canonical_double_solution, check_aybe,
                                   check_q_dual_forms, check_q_equation,
                                   d_equation_equivalents, equation_ok_by_id,
                                   lift_o_operator, q_dual_as_o_operator,
                                   q_equation_as_o_operator, _equation_report)

import oracles
from conftest import killing_mutations
from test_bimodules import random_maps


def _entry(name):
    return catalog.load(name)


def report(criterion: str, detail: str):
    print(f"PASS {criterion}: {detail}")


def test_criterion_1_axiom_checker_soundness():
    """All 10 mandatory entries verify; seeded mutations are caught."""
    prepared = []
    for name in catalog.MANDATORY:
        entry = _entry(name)
        base = catalog.load(entry.base).value if entry.base else None
        muts = killing_mutations(entry.kind, entry.value, base,
                                 seed=0xA11CE ^ len(name))
        prepared.append((entry, base, muts))
    start = time.perf_counter()
    total_killed = 0
    for entry, base, muts in prepared:
        if entry.kind == "algebra":
            assert check_axioms(entry.value).ok, entry.name
            killed = sum(1 for mut, _ in muts if not check_axioms(mut).ok)
        else:
            assert is_rota_baxter(base, entry.value).ok, entry.name
            killed = sum(1 for mut, _ in muts if not is_rota_baxter(base, mut).ok)
        assert killed >= 8, (entry.name, killed)
        # checker and oracle agree mutant by mutant
        for mut, oracle_killed in muts:
            got = (not check_axioms(mut).ok) if entry.kind == "algebra" \
                else (not is_rota_baxter(base, mut).ok)
            assert got == oracle_killed, entry.name
        total_killed += killed
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"checker runtime {elapsed:.3f}s exceeds 1s"
    report("criterion 1", f"10 entries verified, {total_killed}/100 mutants "
                          f"caught (>=8 per entry), checks in {elapsed:.3f}s")


def test_criterion_2_projection_closure():
    start = time.perf_counter()
    checked = 0
    for name in catalog.MANDATORY + catalog.EXTRA:
        entry = _entry(name)
        if entry.kind != "algebra":
            continue
        a = entry.value
        targets = projection_targets(int(a.level))
        for target in targets:
            assert check_axioms(project(a, target)).ok, (name, target)
            checked += 1
    octo = _entry("octo_from_int3_triple").value
    assert len(projection_targets(8)) == 7
    for target in projection_targets(8):
        assert check_axioms(project(octo, target)).ok
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"projection runtime {elapsed:.3f}s exceeds 1s"
    report("criterion 2", f"{checked} projections pass at their coarser "
                          f"levels (7/7 for the octo entry) in {elapsed:.3f}s")


def test_criterion_3_bimodule_iff_semidirect():
    # every mandatory catalog algebra at levels 1, 2 and 4
    names = ("zero_3", "nil2", "trunc3", "ut2", "dend_from_rb_nil2",
             "dend_from_int3", "quadri_from_int3_pair")
    agreements = 0
    for name in names:
        a = _entry(name).value
        for m in (regular_bimodule(a), dual_bimodule(a, regular_bimodule(a))):
            assert check_bimodule(a, m).ok, name
            assert oracles.oracle_bimodule(a, m), name
            assert check_axioms(semidirect_sum(a, m)).ok, name
            agreements += 1
        for seed in range(5):
            m = random_maps(int(a.level), a.dim, 2, seed=seed + 31 * len(name))
            is_bim = check_bimodule(a, m).ok
            assert not is_bim, (name, seed, "random tuple happened to pass")
            passes = check_axioms(semidirect_sum(a, m, check=False)).ok
            assert is_bim == passes
            assert is_bim == oracles.oracle_bimodule(a, m)
            agreements += 1
    report("criterion 3", f"{agreements} bimodule<->semidirect agreements "
                          "at levels 1/2/4, 100%")


def test_criterion_4_o_operator_induction():
    nil2, rb = _entry("nil2").value, _entry("rb_nil2").value
    trunc3, int3 = _entry("trunc3").value, _entry("int3").value
    cases = []
    for a, t in ((nil2, rb), (trunc3, int3)):
        finer = induce_on_module(a, regular_bimodule(a), t)
        assert check_axioms(finer).ok
        assert homomorphism_report(finer, a, t).ok
        cases.append(f"{a.dim}-dim level-1")
    # identity operators per the compatibility statements
    dend = _entry("dend_from_rb_nil2").value
    assoc, outer = restrict_bimodule(dend, regular_bimodule(dend), "assoc-outer")
    finer = induce_on_module(assoc, outer, InterMap.identity(2))
    assert dict(finer.sc) == dict(dend.sc)
    assert homomorphism_report(finer, assoc, InterMap.identity(2)).ok
    quadri = _entry("quadri_from_int3_pair").value
    horiz, houter = restrict_bimodule(quadri, regular_bimodule(quadri),
                                      "horiz-outer")
    finer4 = induce_on_module(horiz, houter, InterMap.identity(3))
    assert dict(finer4.sc) == dict(quadri.sc)
    assert homomorphism_report(finer4, horiz, InterMap.identity(3)).ok
    report("criterion 4", "rb_nil2, int3 and the identity operators induce "
                          "verified finer algebras with exact homomorphisms")


def test_criterion_5_rb_chains():
    trunc3, int3 = _entry("trunc3").value, _entry("int3").value
    direct = rb_triple_octo(trunc3, int3, int3, int3)
    dend = rb_finer(trunc3, int3)
    assert is_rota_baxter(dend, int3).ok
    quadri = rb_finer(dend, int3)
    assert is_rota_baxter(quadri, int3).ok
    chain = rb_finer(quadri, int3)
    assert dict(chain.sc) == dict(direct.sc)
    assert dict(direct.sc) == dict(_entry("octo_from_int3_triple").value.sc)
    # the same chain on the nonzero dimension-4 example
    trunc4, int4 = _entry("trunc4").value, _entry("int4").value
    chain4 = rb_finer(rb_finer(rb_finer(trunc4, int4), int4), int4)
    assert dict(chain4.sc) == dict(rb_triple_octo(trunc4, int4, int4, int4).sc)
    report("criterion 5", "iterated dendriform->quadri->octo chain equals the "
                          "triple construction tensor-for-tensor")


def test_criterion_6_lift_theorems():
    nil2, rb = _entry("nil2").value, _entry("rb_nil2").value
    trunc3, int3 = _entry("trunc3").value, _entry("int3").value
    dend, dend3 = _entry("dend_from_rb_nil2").value, _entry("dend_from_int3").value
    quadri = _entry("quadri_from_int3_pair").value
    bad2 = InterMap(Matrix([[Fraction(1, 2), 0], [1, 0]]))
    bad3 = InterMap(Matrix([[1, 0, 0], [1, 0, 0], [0, Fraction(1, 2), 0]]))
    matrix = [
        (nil2, regular_bimodule(nil2), rb, "skew", True),
        (nil2, regular_bimodule(nil2), bad2, "skew", False),
        (trunc3, regular_bimodule(trunc3), int3, "skew", True),
        (dend, regular_bimodule(dend), rb, "sym", True),
        (dend, regular_bimodule(dend), InterMap.identity(2), "sym", False),
        (dend3, regular_bimodule(dend3), int3, "sym", True),
        (quadri, regular_bimodule(quadri), int3, "skew", True),
        (quadri, regular_bimodule(quadri), bad3, "skew", False),
    ]
    for a, m, t, symmetry, expect in matrix:
        lift = lift_o_operator(a, m, t, symmetry)
        assert lift.operator_report.ok == expect
        assert lift.equation_report.ok == lift.operator_report.ok
    report("criterion 6", f"{len(matrix)} lift instances across levels 1/2/4, "
                          "equation and operator booleans agree in 100%")


def test_criterion_7_canonical_solutions():
    dend, quadri = _entry("dend_from_rb_nil2").value, _entry("quadri_from_int3_pair").value
    octo4 = _entry("octo_from_int4_triple").value
    cases = [(dend, "Cor2.2.8"), (dend, "Cor3.3.8"), (quadri, "Prop3.4.12"),
             (quadri, "Cor4.2.10"), (octo4, "Cor4.4.13"),
             (_entry("octo_from_int3_triple").value, "Cor4.4.13")]
    for a, variant in cases:
        lift = canonical_double_solution(a, variant)
        assert lift.equation_report.ok, variant
        assert lift.operator_report.ok, variant
    l1 = canonical_double_solution(dend, "Cor2.2.8")
    omega = tensor_to_form(l1.tensor)
    assert omega.matrix == canonical_cocycle_form(dend.dim).matrix
    assert classify_form(l1.double, omega).flags["connes_cocycle"]
    l2 = canonical_double_solution(dend, "Cor3.3.8")
    b = tensor_to_form(l2.tensor)
    assert b.matrix == canonical_invariant_form(dend.dim).matrix
    assert classify_form(l2.double, b).flags["dend_2cocycle"]
    report("criterion 7", "all five canonical variants solve their equations; "
                          "induced forms classify as Connes cocycle and 2-cocycle")


def test_criterion_8_equivalence_batteries():
    start = time.perf_counter()
    trials = 0
    for name in ("nil2", "ut2", "trunc3"):
        a = _entry(name).value
        for seed in range(20):
            r = catalog.random_tensor2(a.dim, "skew", seed)
            assert check_aybe(a, r).ok == aybe_as_o_operator(a, r).ok
            trials += 1
    for name in ("dend_from_rb_nil2", "dend_from_int3"):
        a = _entry(name).value
        for seed in range(20):
            r = catalog.random_tensor2(a.dim, "sym", seed)
            assert d_equation_equivalents(a, r).agree
            trials += 1
    for name in ("quadri_from_int3_pair", "quadri_from_int4_pair"):
        a = _entry(name).value
        for seed in range(20):
            r = catalog.random_tensor2(a.dim, "skew", seed)
            primal = check_q_equation(a, r)
            dual = check_q_dual_forms(a, r)
            p19 = _equation_report(a, r, ("3.4.19",)).ok
            assert equation_ok_by_id(primal, "3.4.17") == equation_ok_by_id(dual, "4.2.8")
            assert equation_ok_by_id(primal, "3.4.18") == equation_ok_by_id(dual, "4.2.6")
            assert p19 == equation_ok_by_id(dual, "4.2.5") == equation_ok_by_id(dual, "4.2.7")
            assert q_equation_as_o_operator(a, r).ok == primal.ok
            assert q_dual_as_o_operator(a, r).ok == dual.ok
            trials += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"battery runtime {elapsed:.3f}s exceeds 10s"
    report("criterion 8", f"{trials} randomized equivalence trials agree in "
                          f"100% ({elapsed:.2f}s)")


def test_criterion_9_form_bridge():
    start = time.perf_counter()
    nil2 = _entry("nil2").value
    dend3 = _entry("dend_from_int3").value
    quadri = _entry("quadri_from_int3_pair").value
    level4_double = canonical_double_solution(quadri, "Cor4.2.10").double
    batteries = [(nil2, "skew"), (dend3, "sym"), (level4_double, "skew")]
    for a, parity in batteries:
        for seed in range(20):
            r = catalog.random_invertible_tensor2(a.dim, parity, seed)
            res = bridge_equivalence(a, r)
            assert res.agree
            assert form_to_tensor(tensor_to_form(r)).grid == r.grid
    lift = canonical_double_solution(dend3, "Cor2.2.8")
    assert tensor_to_form(lift.tensor).matrix == canonical_cocycle_form(dend3.dim).matrix
    lift2 = canonical_double_solution(dend3, "Cor3.3.8")
    assert tensor_to_form(lift2.tensor).matrix == canonical_invariant_form(dend3.dim).matrix
    elapsed = time.perf_counter() - start
    report("criterion 9", f"60 bridge agreements with exact roundtrips; pinned "
                          f"block forms reproduced ({elapsed:.2f}s)")


def test_criterion_10_form_induced_finer_structures():
    dend3 = _entry("dend_from_int3").value
    quadri = _entry("quadri_from_int3_pair").value
    cases = [(canonical_double_solution(dend3, "Cor2.2.8"), "Assoc", 2),
             (canonical_double_solution(dend3, "Cor3.3.8"), "HorizDend", 4),
             (canonical_double_solution(quadri, "Cor4.2.10"), "DepthQuadri", 8)]
    for lift, back, finer_level in cases:
        form = tensor_to_form(lift.tensor)
        finer = finer_from_form(lift.double, form)
        assert int(finer.level) == finer_level
        assert check_axioms(finer).ok
        assert project(finer, back).sc == lift.double.sc
    report("criterion 10", "canonical doubles induce verified finer structures "
                           "at levels 2/4/8 that project back exactly")


def test_criterion_11_form_condition_logic():
    from test_forms import _TRIPLES, _two_imply_third
    dend3 = _entry("dend_from_int3").value
    quadri = _entry("quadri_from_int3_pair").value
    checks = 0
    # five-way agreement on 20 seeded skew forms
    for seed in range(20):
        fl = classify_form(dend3, catalog.random_form(3, "skew", seed)).flags
        variants = [fl["dend_inv_succ"] and fl["dend_inv_prec"],
                    fl["dend_inv_succ"] and fl["dend_aux"],
                    fl["dend_inv_prec"] and fl["dend_aux"],
                    fl["dend_inv_succ"] and fl["dend_cyclic_succ"],
                    fl["dend_inv_prec"] and fl["dend_cyclic_prec"]]
        assert len(set(variants)) == 1 and fl["dend_invariant"] == variants[0]
        checks += 1
    # nondegenerate skew forms: cocycle iff invariant on the solved dendriform
    l1 = canonical_double_solution(dend3, "Cor2.2.8")
    for seed in range(20):
        om = tensor_to_form(catalog.random_invertible_tensor2(l1.double.dim,
                                                              "skew", seed))
        cocycle = classify_form(l1.double, om).flags["connes_cocycle"]
        candidate = finer_from_form(l1.double, om, require_flags=False)
        assert cocycle == classify_form(candidate, om).flags["dend_invariant"]
        checks += 1
    omega = tensor_to_form(l1.tensor)
    assert classify_form(l1.double, omega).flags["connes_cocycle"]
    cand = finer_from_form(l1.double, omega, require_flags=False)
    assert classify_form(cand, omega).flags["dend_invariant"]
    # six two-imply-the-third triples on 20 seeded symmetric forms
    l2 = canonical_double_solution(dend3, "Cor3.3.8")
    qstar = finer_from_form(l2.double, tensor_to_form(l2.tensor))
    cases = [(quadri, catalog.random_form(3, "sym", seed)) for seed in range(20)]
    cases.append((qstar, tensor_to_form(l2.tensor)))
    for alg, form in cases:
        fl = classify_form(alg, form).flags
        for pair, third in _TRIPLES:
            assert _two_imply_third(fl, pair, third)
            checks += 1
    # invariant quadri forms are 2-cocycles of the horizontal dendriform algebra
    b = tensor_to_form(l2.tensor)
    assert classify_form(qstar, b).flags["quadri_invariant"]
    assert classify_form(project(qstar, "HorizDend"), b).flags["dend_2cocycle"]
    for seed in range(20):
        f = catalog.random_form(qstar.dim, "sym", seed)
        if classify_form(qstar, f).flags["quadri_invariant"]:
            assert classify_form(project(qstar, "HorizDend"), f).flags["dend_2cocycle"]
        checks += 1
    report("criterion 11", f"{checks} form-logic checks agree in 100%")


def test_criterion_12_cli(tmp_path, capsys):
    start = time.perf_counter()
    for name in catalog.names():
        assert cli.main(["check", "catalog", name]) == 0, name
    doc = catalog.catalog_bundle()
    doc["algebras"]["dend_from_int3"]["sc"] = [
        row for row in doc["algebras"]["dend_from_int3"]["sc"]
        if row[:4] != ["succ", 0, 0, 1]]
    path = tmp_path / "corrupted.json"
    path.write_text(dumps(doc), encoding="utf-8")
    assert cli.main(["check", str(path), "dend_from_int3"]) == 1
    out = capsys.readouterr().out
    assert "violated 2.1.5-" in out
    assert cli.main(["check", "catalog", "not_there"]) == 2
    capsys.readouterr()
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"CLI smoke runtime {elapsed:.3f}s exceeds 5s"
    report("criterion 12", f"CLI verifies the shipped catalog, flags the "
                           f"corrupted bundle by identity id ({elapsed:.2f}s)")
