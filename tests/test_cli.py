import json
from pathlib import Path

import pytest

from clusteralg import catalog, cli
from clusteralg.bundle import MAX_DIM, dumps


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def corrupted_bundle(tmp_path) -> Path:
    doc = catalog.catalog_bundle()
    sc = doc["algebras"]["dend_from_int3"]["sc"]
    doc["algebras"]["dend_from_int3"]["sc"] = \
        [row for row in sc if row[:4] != ["succ", 0, 0, 1]]
    path = tmp_path / "corrupted.json"
    path.write_text(dumps(doc), encoding="utf-8")
    return path


@pytest.fixture()
def catalog_path(tmp_path) -> Path:
    path = tmp_path / "catalog_copy.json"
    path.write_text(dumps(catalog.catalog_bundle()), encoding="utf-8")
    return path


def test_check_catalog_entries_exit_zero(capsys):
    for name in catalog.names():
        code, out, _ = run(capsys, "check", "catalog", name)
        assert code == 0, name
        assert out.startswith("ok:")


def test_check_corrupted_bundle_exit_one(capsys, corrupted_bundle):
    code, out, _ = run(capsys, "check", str(corrupted_bundle), "dend_from_int3")
    assert code == 1
    assert "violated 2.1.5-" in out  # cites the broken identity by id


def test_check_missing_name_exit_two(capsys):
    code, _, err = run(capsys, "check", "catalog", "missing_object")
    assert code == 2
    assert "missing_object" in err


def test_check_unparsable_bundle_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "check", str(bad), "anything")
    assert code == 2
    missing_field = tmp_path / "nofield.json"
    missing_field.write_text(json.dumps({"algebras": {}}), encoding="utf-8")
    code, _, err = run(capsys, "check", str(missing_field), "x")
    assert code == 2 and "field" in err


def test_check_map_and_tensor_dispatch(capsys, tmp_path):
    code, out, _ = run(capsys, "check", "catalog", "int3")
    assert code == 0
    # a tensor with an embedded algebra reference checks its level's equation
    doc = catalog.catalog_bundle()
    doc["tensors"] = {"zero_r": {"dim": 2, "entries": [],
                                 "algebra": "nil2", "symmetry": "skew"}}
    path = tmp_path / "with_tensor.json"
    path.write_text(dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "check", str(path), "zero_r")
    assert code == 0


def test_declared_symmetry_is_verified(capsys, tmp_path):
    doc = catalog.catalog_bundle()
    doc["tensors"] = {"bad": {"dim": 2, "entries": [[0, 1, "1"]],
                              "algebra": "nil2", "symmetry": "skew"}}
    path = tmp_path / "bad_sym.json"
    path.write_text(dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "check", str(path), "bad")
    assert code == 2 and "skew" in err


def test_classify_command(capsys, tmp_path):
    from clusteralg.bundle import serialize_form
    from clusteralg.forms import canonical_cocycle_form
    from clusteralg.yangbaxter import canonical_double_solution
    from clusteralg import bundle as bundle_mod
    dend = catalog.load("dend_from_rb_nil2").value
    lift = canonical_double_solution(dend, "Cor2.2.8")
    doc = {"field": "Q",
           "algebras": {"double": bundle_mod.serialize_algebra(lift.double)},
           "forms": {"omega": serialize_form(canonical_cocycle_form(dend.dim))}}
    path = tmp_path / "classify.json"
    path.write_text(dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "classify", str(path), "double", "omega")
    assert code == 0
    assert "connes_cocycle: true" in out
    code, out, _ = run(capsys, "check", str(path), "omega",
                       "--algebra", "double", "--require", "connes_cocycle,skew")
    assert code == 0


@pytest.mark.parametrize("flags", [None, "", ",", " , ", ",,"])
@pytest.mark.parametrize("as_json", [False, True])
def test_check_form_without_flags_exit_two(capsys, tmp_path, flags, as_json):
    # a --require that names no flag checks nothing, so it is refused
    from clusteralg.bundle import serialize_form
    from clusteralg.forms import BilinearForm
    doc = {"field": "Q", "algebras": {"nil2": catalog.catalog_bundle()["algebras"]["nil2"]},
           "forms": {"b": {**serialize_form(BilinearForm.zeros(2)), "algebra": "nil2"}}}
    path = tmp_path / "form.json"
    path.write_text(dumps(doc), encoding="utf-8")
    argv = ["check", str(path), "b"] + (["--require", flags] if flags is not None else [])
    code, out, err = run(capsys, *argv, *(["--json"] if as_json else []))
    assert (code, out) == (2, "")
    assert "checking a form needs --require FLAG[,FLAG...]" in err


def test_derive_rb_finer_and_roundtrip(capsys, tmp_path, catalog_path):
    out_path = tmp_path / "derived.json"
    code, out, _ = run(capsys, "derive", str(catalog_path), "rb-finer",
                       "trunc3", "int3", "--name", "dend3",
                       "--out", str(out_path))
    assert code == 0
    # the derived object re-parses and re-verifies from its serialised form
    code, out, _ = run(capsys, "check", str(out_path), "dend3")
    assert code == 0


def test_derive_canonical_solution_and_lift(capsys, tmp_path, catalog_path):
    out_path = tmp_path / "canon.json"
    code, _, _ = run(capsys, "derive", str(catalog_path), "canonical-solution",
                     "dend_from_rb_nil2", "--variant", "Cor2.2.8",
                     "--name", "canon", "--out", str(out_path))
    assert code == 0
    code, _, _ = run(capsys, "check", str(out_path), "canon_tensor",
                     "--algebra", "canon_double")
    assert code == 0
    code, _, _ = run(capsys, "derive", str(catalog_path), "lift",
                     "nil2", "regular", "rb_nil2", "--symmetry", "skew",
                     "--name", "lifted", "--out", str(out_path))
    assert code == 0
    code, _, _ = run(capsys, "check", str(out_path), "lifted_tensor",
                     "--algebra", "lifted_double")
    assert code == 0


def test_derive_project_and_errors(capsys, catalog_path):
    code, out, _ = run(capsys, "derive", str(catalog_path), "project",
                       "octo_from_int4_triple", "DepthQuadri")
    assert code == 0
    code, _, err = run(capsys, "derive", str(catalog_path), "project",
                       "nil2", "DepthQuadri")
    assert code == 2
    code, _, err = run(capsys, "derive", str(catalog_path), "rb-pair",
                       "nil2", "rb_nil2")
    assert code == 2  # wrong arity
    code, _, err = run(capsys, "derive", str(catalog_path), "no-such", "x")
    assert code == 2


def test_derive_precondition_exit_one(capsys, tmp_path, catalog_path):
    # identity is not a Rota-Baxter operator on nil2
    doc = catalog.catalog_bundle()
    doc["maps"]["idmap"] = {"source_dim": 2, "target_dim": 2,
                            "entries": [[0, 0, "1"], [1, 1, "1"]],
                            "algebra": "nil2"}
    path = tmp_path / "with_id.json"
    path.write_text(dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "derive", str(path), "rb-finer", "nil2", "idmap")
    assert code == 1


def test_json_output_deterministic(capsys, corrupted_bundle):
    outs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "check", str(corrupted_bundle),
                           "dend_from_int3", "--json")
        assert code == 1
        outs.add(out)
    assert len(outs) == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    assert all(v["identity"].startswith("2.1.5-") for v in doc["violations"])


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest", "--seed", "3")
    assert code == 0
    assert "ok: catalog entry nil2" in out


def test_env_override_catalog_dir(capsys, tmp_path, monkeypatch):
    target = tmp_path / "catdir"
    target.mkdir()
    (target / "catalog.json").write_text(dumps(catalog.catalog_bundle()),
                                         encoding="utf-8")
    monkeypatch.setenv("CLUSTERALG_CATALOG", str(target))
    code, out, _ = run(capsys, "check", "catalog", "ut2")
    assert code == 0


@pytest.mark.parametrize("section, obj", [
    ("bimodules", {"level": 1, "algebra_dim": 2, "module_dim": 2,
                   "entries": [["l", "star", -1, 0, 0, "1"]]}),
    ("maps", {"source_dim": 2, "target_dim": 2, "entries": [[-1, 0, "1"]]}),
    ("tensors", {"dim": 2, "entries": [[-1, 0, "1"]]}),
    ("forms", {"dim": 2, "entries": [[0, -1, "1"]]}),
])
def test_negative_index_exit_two(capsys, tmp_path, section, obj):
    doc = {"field": "Q", "algebras": {"nil2": catalog.catalog_bundle()["algebras"]["nil2"]},
           section: {"bad": dict(obj, algebra="nil2")}}
    path = tmp_path / "negative.json"
    path.write_text(dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "check", str(path), "bad")
    assert code == 2
    assert f"{section}/bad: entry {obj['entries'][0]!r}" in err


def test_classify_missing_name_exit_two(capsys):
    code, _, err = run(capsys, "classify", "catalog", "nosuch", "x")
    assert code == 2 and "no algebra named 'nosuch' in the bundle" in err
    code, _, err = run(capsys, "classify", "catalog", "nil2", "nosuch")
    assert code == 2 and "no form named 'nosuch' in the bundle" in err


@pytest.mark.parametrize("argv, message", [
    (("check", "catalog", "int3", "--algebra", "nosuch"), "no algebra named"),
    (("check", "catalog", "int3", "--algebra", "trunc3", "--bimodule", "nosuch"),
     "no bimodule named"),
    (("derive", "catalog", "semidirect", "nil2", "nosuch"), "no bimodule named"),
    (("derive", "catalog", "rb-finer", "nosuch", "int3"), "no algebra named"),
    (("derive", "catalog", "rb-finer", "trunc3", "nosuch"), "no map named"),
])
def test_missing_reference_names_the_object(capsys, argv, message):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert f"{message} 'nosuch' in the bundle" in err


_NIL2 = catalog.catalog_bundle()["algebras"]["nil2"]


@pytest.mark.parametrize("section, obj, message", [
    # JSON booleans and floats are not coerced into levels, dims and indices
    ("algebras", {"level": 1, "dim": 2.7, "sc": []},
     "dim 2.7 is not a non-negative integer"),
    ("algebras", {"level": True, "dim": 2, "sc": []},
     "level True is not a non-negative integer"),
    ("tensors", {"dim": 2, "entries": [[True, 0, "1"]]},
     "entry [True, 0, '1']: index True is not a non-negative integer"),
    ("maps", {"source_dim": 2, "target_dim": 2, "entries": [[0, 1.0, "1"]]},
     "entry [0, 1.0, '1']: index 1.0 is not a non-negative integer"),
    # nor is a negative dim read as an empty range
    ("tensors", {"dim": -1, "entries": []}, "dim -1 is not a non-negative integer"),
    ("maps", {"source_dim": -3, "target_dim": 2, "entries": []},
     "source_dim -3 is not a non-negative integer"),
    # a second entry at the same position is refused, not last-write-wins
    ("algebras", dict(_NIL2, sc=_NIL2["sc"] + [["star", 0, 0, 0, "2"]]),
     "entry ['star', 0, 0, 0, '2']: duplicate"),
    ("bimodules", {"level": 1, "algebra_dim": 2, "module_dim": 1,
                   "entries": [["l", "star", 0, 0, 0, "1"], ["l", "star", 0, 0, 0, "1"]]},
     "entry ['l', 'star', 0, 0, 0, '1']: duplicate"),
    ("maps", {"source_dim": 2, "target_dim": 2, "entries": [[0, 0, "1"], [0, 0, "2"]]},
     "entry [0, 0, '2']: duplicate"),
    ("tensors", {"dim": 2, "entries": [[1, 0, "1"], [1, 0, "0"]]},
     "entry [1, 0, '0']: duplicate"),
    ("forms", {"dim": 2, "entries": [[0, 1, "1"], [0, 1, "1"]]},
     "entry [0, 1, '1']: duplicate"),
    # no dim may exceed the cap
    ("algebras", {"level": 1, "dim": MAX_DIM + 1, "sc": []},
     f"dim {MAX_DIM + 1} exceeds the cap of {MAX_DIM}"),
    ("bimodules", {"level": 1, "algebra_dim": MAX_DIM + 1, "module_dim": 1},
     f"algebra_dim {MAX_DIM + 1} exceeds the cap"),
    ("bimodules", {"level": 1, "algebra_dim": 2, "module_dim": MAX_DIM + 1},
     f"module_dim {MAX_DIM + 1} exceeds the cap"),
    ("maps", {"source_dim": MAX_DIM + 1, "target_dim": 2},
     f"source_dim {MAX_DIM + 1} exceeds the cap"),
    ("maps", {"source_dim": 2, "target_dim": MAX_DIM + 1},
     f"target_dim {MAX_DIM + 1} exceeds the cap"),
    ("tensors", {"dim": MAX_DIM + 1}, f"dim {MAX_DIM + 1} exceeds the cap"),
    ("forms", {"dim": MAX_DIM + 1}, f"dim {MAX_DIM + 1} exceeds the cap"),
])
def test_loose_bundle_entry_exit_two(capsys, tmp_path, section, obj, message):
    if section != "algebras":
        obj = dict(obj, algebra="nil2")
    doc = {"field": "Q", "algebras": {"nil2": _NIL2}}
    doc.setdefault(section, {})["bad"] = obj
    path = tmp_path / "loose.json"
    path.write_text(dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "check", str(path), "bad")
    assert code == 2
    assert f"{section}/bad: {message}" in err


def test_derive_out_replaces_the_bundle_in_one_step(capsys, tmp_path, catalog_path,
                                                     monkeypatch):
    out_path = tmp_path / "derived.json"
    derive = ("derive", str(catalog_path), "rb-finer", "trunc3", "int3", "--out")
    assert run(capsys, *derive, str(out_path))[0] == 0
    before = out_path.read_bytes()

    def refuse(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(cli.os, "replace", refuse)
    code, _, err = run(capsys, *derive, str(out_path), "--name", "again")
    assert code == 2 and "cannot write bundle" in err
    # the old bundle is untouched and no temporary file is left behind
    assert out_path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["catalog_copy.json",
                                                          "derived.json"]
    monkeypatch.undo()
    code, _, err = run(capsys, *derive, str(tmp_path / "nodir" / "out.json"))
    assert code == 2 and "cannot write bundle" in err


# The dual and double products of the Cor3.3.8 lift of dend_from_rb_nil2 as
# `derive ... --json` prints them: the entries of GOLDEN_DUAL_PRODUCTS and
# GOLDEN_DOUBLE_PRODUCTS in tests/test_yangbaxter.py, sorted as in a bundle.
_DUAL_SC = [["prec", 1, 2, 0, "-1"], ["prec", 2, 2, 3, "-1"],
            ["succ", 2, 1, 0, "-1"], ["succ", 2, 2, 3, "-1"]]
_DOUBLE_SC = [["star", 0, 0, 1, "2"], ["star", 0, 3, 2, "1"], ["star", 0, 5, 4, "1"],
              ["star", 0, 6, 1, "-1"], ["star", 0, 6, 7, "1"],
              ["star", 3, 0, 2, "1"], ["star", 3, 6, 2, "-1"],
              ["star", 5, 0, 4, "1"], ["star", 5, 6, 4, "-1"],
              ["star", 6, 0, 1, "-1"], ["star", 6, 0, 7, "1"],
              ["star", 6, 3, 2, "-1"], ["star", 6, 5, 4, "-1"],
              ["star", 6, 6, 7, "-2"]]


def _canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_derive_dual_and_double_product_json_golden(capsys, tmp_path, catalog_path):
    path = tmp_path / "canon.json"
    assert run(capsys, "derive", str(catalog_path), "canonical-solution",
               "dend_from_rb_nil2", "--variant", "Cor3.3.8", "--name", "canon",
               "--out", str(path))[0] == 0
    code, out, _ = run(capsys, "derive", str(path), "dual-product", "canon_double",
                       "canon_tensor", "--name", "dual", "--out", str(path), "--json")
    assert code == 0
    assert out == _canonical_json({"field": "Q", "algebras": {
        "dual": {"level": 2, "dim": 4, "sc": _DUAL_SC}}})
    code, out, _ = run(capsys, "derive", str(path), "double-product", "canon_double",
                       "dual", "--variant", "connes", "--json")
    assert code == 0
    assert out == _canonical_json({"field": "Q", "algebras": {
        "derived_double_product": {"level": 1, "dim": 8, "sc": _DOUBLE_SC}}})


@pytest.mark.parametrize("algebra, parity, seed, stderr", [
    ("dend_from_rb_nil2", "skew", 1,
     "error: level-2 dual product needs symmetric r\n"),
    ("nil2", "skew", 0,
     "error: tensor does not solve its equation\n"
     "  violated 2.2.1 at (0, 1, 1)\n"
     "  violated 2.2.1 at (1, 0, 1)\n"
     "  violated 2.2.1 at (1, 1, 0)\n"),
])
def test_derive_dual_product_refusal_golden(capsys, tmp_path, algebra, parity,
                                            seed, stderr):
    from clusteralg.bundle import serialize_tensor2
    a = catalog.load(algebra).value
    doc = catalog.catalog_bundle()
    doc["tensors"] = {"r": dict(serialize_tensor2(
        catalog.random_tensor2(a.dim, parity, seed), symmetry=parity),
        algebra=algebra)}
    path = tmp_path / "refused.json"
    path.write_text(dumps(doc), encoding="utf-8")
    assert run(capsys, "derive", str(path), "dual-product", algebra, "r",
               "--json") == (1, "", stderr)


def test_consecutive_calls_share_no_option(capsys):
    assert cli.build_parser() is cli.build_parser()
    code, out, _ = run(capsys, "check", "catalog", "int3", "--json")
    assert code == 0 and json.loads(out)["ok"] is True
    assert run(capsys, "check", "catalog", "int3") == (0, "ok: int3\n", "")
    canonical = ("derive", "catalog", "canonical-solution", "dend_from_rb_nil2")
    assert run(capsys, *canonical, "--variant", "Cor2.2.8")[0] == 0
    code, _, err = run(capsys, *canonical)
    assert code == 2 and "canonical-solution needs --variant" in err


def test_derive_out_that_cannot_be_read_exit_two(capsys, tmp_path, catalog_path):
    derive = ("derive", str(catalog_path), "project", "dend_from_int3", "Assoc", "--out")
    code, out, err = run(capsys, *derive, str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read bundle: ") and "Is a directory" in err
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"field": "Q", "algebras": {"\xe9": 1}}'.encode("latin-1"))
    code, _, err = run(capsys, *derive, str(latin1))
    assert code == 2
    assert err.startswith("error: cannot read bundle: 'utf-8' codec can't decode")
    assert latin1.read_bytes().endswith(b"1}}")  # left as it was


def test_non_utf8_bundle_names_the_failure(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"field": "Q", "forms": {"\xe9": {"dim": 0}}}'.encode("latin-1"))
    code, _, err = run(capsys, "check", str(path), "x")
    assert code == 2
    assert err.startswith("error: cannot read bundle: 'utf-8' codec can't decode")


# Documents every input path refuses before reading any object: (text,
# stderr).  Without the refusal the first ends in a RecursionError, the
# second checks as its second algebra and the third drops its first "sc".
_ALGEBRA = '{"level": 1, "dim": 1, "sc": [["star", 0, 0, 0, "1"]]}'
REFUSED_DOCUMENTS = {
    "deep": ("[" * 200_000, "error: bundle nests too deeply to parse\n"),
    "repeated-name": (
        f'{{"field": "Q", "algebras": {{"a": {_ALGEBRA}, "a": {_ALGEBRA}}}}}',
        "error: bundle repeats the key 'a' in one JSON object\n"),
    "repeated-sc": (
        '{"field": "Q", "algebras": {"a": {"level": 1, "dim": 1, '
        '"sc": [["star", 0, 0, 0, "1"]], "sc": []}}}',
        "error: bundle repeats the key 'sc' in one JSON object\n"),
}


@pytest.mark.parametrize("case", sorted(REFUSED_DOCUMENTS))
@pytest.mark.parametrize("source", ("bundle", "derive-out", "catalog-override"))
def test_deep_or_repeated_key_bundle_exit_two(capsys, tmp_path, monkeypatch,
                                              catalog_path, case, source):
    text, message = REFUSED_DOCUMENTS[case]
    path = tmp_path / "catalog.json"
    path.write_text(text, encoding="utf-8")
    if source == "bundle":
        argv = ("check", str(path), "a")
    elif source == "derive-out":
        argv = ("derive", str(catalog_path), "project", "dend_from_int3", "Assoc",
                "--out", str(path))
    else:
        monkeypatch.setenv("CLUSTERALG_CATALOG", str(tmp_path))
        argv = ("check", "catalog", "a")
    assert run(capsys, *argv) == (2, "", message)
    assert path.read_text(encoding="utf-8") == text  # left as it was


# Documents whose offending value is too long to echo whole: the error
# names it by a cut-short repr.  (document text, start of stderr)  The
# level nests 500 deep, well inside the JSON parser's depth under pytest;
# its whole repr is 1,000 characters.
OVERSIZED_VALUES = {
    "long-literal": (
        '{"field": "Q", "algebras": {"a": {"level": 1, "dim": 1, '
        f'"sc": [["star", 0, 0, 0, "{"1" * 5000}"]]}}}}}}',
        "error: algebras/a: not a rational literal: '1111"),
    "deep-level": (
        '{"field": "Q", "algebras": {"a": {"level": '
        f'{"[" * 500}{"]" * 500}, "dim": 1, "sc": []}}}}}}',
        "error: algebras/a: level [[[["),
}


@pytest.mark.parametrize("case", sorted(OVERSIZED_VALUES))
def test_oversized_value_is_cut_short(capsys, tmp_path, case):
    text, start = OVERSIZED_VALUES[case]
    path = tmp_path / "big.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "check", str(path), "a")
    assert (code, out) == (2, "")
    assert err.startswith(start) and len(err.encode("utf-8")) < 300, err[:400]
