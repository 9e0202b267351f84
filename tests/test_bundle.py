"""Bundle parsing: the dimension cap, empty shapes, arbitrary documents,
the exact first error, and objects built only when they are read."""

import contextlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from clusteralg import bundle, catalog, cli
from clusteralg.bimodules import bimodule_from_entries, regular_bimodule
from clusteralg.bundle import (MAX_DIM, SECTIONS, BundleError, dumps, parse_bundle,
                               serialize_bimodule, serialize_intermap)
from clusteralg.core import Level, algebra_from_entries
from clusteralg.forms import BilinearForm
from clusteralg.linalg import Matrix, parse_rational
from clusteralg.operators import InterMap
from clusteralg.yangbaxter import Tensor2


def test_map_without_rows_keeps_its_source_dim():
    doc = {"source_dim": 2, "target_dim": 0, "entries": []}
    t = parse_bundle({"field": "Q", "maps": {"t": doc}}).maps["t"]
    assert (t.target_dim, t.source_dim) == (0, 2)
    assert serialize_intermap(t) == doc
    wide = parse_bundle({"field": "Q", "maps": {"t": serialize_intermap(t)}}).maps["t"]
    assert wide == t


def test_unhashable_reference_is_a_bundle_error():
    with pytest.raises(BundleError, match="reference algebra=\\['a'\\] does not resolve"):
        parse_bundle({"field": "Q", "tensors": {"b": {"dim": 1, "algebra": ["a"]}}})


def test_dim_cap_is_checked_before_allocating(monkeypatch):
    def refuse(*args):
        raise AssertionError("allocated an object over the dimension cap")

    monkeypatch.setattr(bundle, "algebra_from_entries", refuse)
    monkeypatch.setattr(bundle, "bimodule_from_entries", refuse)
    over = MAX_DIM + 1
    for section, obj in (("algebras", {"level": 8, "dim": over, "sc": []}),
                         ("bimodules", {"level": 1, "algebra_dim": 1,
                                        "module_dim": over})):
        with pytest.raises(BundleError, match=f"{section}/x: .* {over} exceeds the cap"):
            parse_bundle({"field": "Q", section: {"x": obj}})
    # the cap itself is allowed
    t = parse_bundle({"field": "Q", "maps": {"t": {"source_dim": MAX_DIM,
                                                   "target_dim": 1}}}).maps["t"]
    assert t.source_dim == MAX_DIM


# ---------------------------------------------------------------------------
# arbitrary documents: parse_bundle raises nothing but BundleError, and
# `check` on any document that parses exits 0, 1 or 2

_LEAVES = (st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
           | st.text(max_size=3) | st.sampled_from(["1", "-1/2", "x", "1/0"]))
ANY_JSON = st.recursive(_LEAVES, lambda inner: st.lists(inner, max_size=3)
                        | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                        max_leaves=12)

NAMES = ("a", "b", "m", "t")
# small dims, plus values the parser must refuse; none is large and allowed
DIMS = st.integers(0, 3) | st.sampled_from([-1, MAX_DIM + 1, 2**40, True, 2.0, "2"])
INDICES = st.integers(0, 3) | st.sampled_from([-1, True, 1.0])
VALUES = st.sampled_from(["0", "1", "-1", "1/2", "-5/7", "1/0", "x", 1])
OPS = st.sampled_from(["star", "succ", "prec", "se", "ne", "nw", "sw",
                       "se1", "sw2", "vee", "bogus"])
REFS = st.sampled_from(NAMES) | st.sampled_from([None, 0, ["a"]])


def _entries(*fields):
    row = st.tuples(*fields).map(list)
    return st.lists(row | ANY_JSON, max_size=6)


def _object(required: dict, optional: dict):
    return st.fixed_dictionaries(required, optional=optional) | ANY_JSON


SECTION_OBJECTS = {
    "algebras": _object({"level": st.sampled_from([1, 2, 4, 8, 3]), "dim": DIMS,
                         "sc": _entries(OPS, INDICES, INDICES, INDICES, VALUES)}, {}),
    "bimodules": _object({"level": st.sampled_from([1, 2, 4, 8]), "algebra_dim": DIMS,
                          "module_dim": DIMS},
                         {"entries": _entries(st.sampled_from("lrx"), OPS, INDICES,
                                              INDICES, INDICES, VALUES),
                          "algebra": REFS}),
    "maps": _object({"source_dim": DIMS, "target_dim": DIMS},
                    {"entries": _entries(INDICES, INDICES, VALUES),
                     "algebra": REFS, "bimodule": REFS}),
    "tensors": _object({"dim": DIMS},
                       {"entries": _entries(INDICES, INDICES, VALUES), "algebra": REFS,
                        "symmetry": st.sampled_from(["skew", "sym", "none", "odd"])}),
    "forms": _object({"dim": DIMS},
                     {"entries": _entries(INDICES, INDICES, VALUES), "algebra": REFS}),
}

BUNDLES = st.fixed_dictionaries(
    {"field": st.just("Q") | ANY_JSON},
    optional={section: st.dictionaries(st.sampled_from(NAMES), obj, max_size=2)
              for section, obj in SECTION_OBJECTS.items()})


GOOD_VALUES = st.sampled_from(["1", "-1", "1/2", "-5/7", "3"])


def _sparse(draw, *fields) -> list:
    """Entries with distinct positions drawn from fields and good values;
    none when a field is an empty range (None)."""
    if None in fields:
        return []
    rows = draw(st.dictionaries(st.tuples(*fields), GOOD_VALUES, max_size=5))
    return [[*pos, v] for pos, v in rows.items()]


def _below(n: int):
    return st.integers(0, n - 1) if n else None


@st.composite
def well_formed_bundles(draw) -> dict:
    """An algebra "a" with, maybe, a bimodule "m", a map "t", a tensor "b"
    and a form "f" on it: documents that parse, so that `check` runs."""
    level = draw(st.sampled_from([1, 2, 4, 8]))
    d, md = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    ops = st.sampled_from(Level(level).ops)
    doc = {"field": "Q", "algebras": {"a": {
        "level": level, "dim": d, "sc": _sparse(draw, ops, _below(d), _below(d), _below(d))}}}
    t = {"algebra": "a", "target_dim": d, "source_dim": d}
    if level != 8 and draw(st.booleans()):
        doc["bimodules"] = {"m": {
            "level": level, "algebra_dim": d, "module_dim": md, "algebra": "a",
            "entries": _sparse(draw, st.sampled_from("lr"), ops, _below(d),
                               _below(md), _below(md))}}
        t.update(bimodule="m", source_dim=md)
    t["entries"] = _sparse(draw, _below(t["target_dim"]), _below(t["source_dim"]))
    doc["maps"] = {"t": t}
    doc["tensors"] = {"b": {"dim": d, "algebra": "a",
                            "entries": _sparse(draw, _below(d), _below(d))}}
    doc["forms"] = {"f": {"dim": d, "algebra": "a",
                          "entries": _sparse(draw, _below(d), _below(d))}}
    return doc


@settings(max_examples=300, deadline=None)
@given(st.one_of(ANY_JSON, BUNDLES))
def test_parse_bundle_raises_only_bundle_errors(doc):
    try:
        parse_bundle(doc)
    except BundleError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.one_of(BUNDLES, well_formed_bundles()), st.sampled_from(NAMES + ("f",)))
def test_check_exits_zero_one_or_two(doc, name):
    try:
        parse_bundle(doc)
    except BundleError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["check", str(path), name])
    assert code in (0, 1, 2)


# ---------------------------------------------------------------------------
# golden error corpus: the exact first BundleError of broken documents

def _q(**sections) -> dict:
    return {"field": "Q", **sections}


_ALG = {"level": 1, "dim": 2, "sc": [["star", 0, 0, 1, "1"]]}
_DEND = {"level": 2, "dim": 2, "sc": [["succ", 0, 0, 1, "1"]]}


def _alg(**kw) -> dict:
    return {"algebras": {"a": {**_ALG, **kw}}}


def _bim(**kw) -> dict:
    return {"bimodules": {"m": {"level": 1, "algebra_dim": 2, "module_dim": 2, **kw}}}


def _map(**kw) -> dict:
    return {"maps": {"t": {"source_dim": 2, "target_dim": 2, **kw}}}


def _ten(**kw) -> dict:
    return {"tensors": {"r": {"dim": 2, **kw}}}


def _form(**kw) -> dict:
    return {"forms": {"f": {"dim": 2, **kw}}}


GOLDEN_ERRORS = [
    # not a bundle
    ([], "bundle must be a JSON object"),
    ({"algebras": {}}, 'bundle must declare "field": "Q"'),
    (_q(extra=1, more=2), "unknown top-level keys: ['extra', 'more']"),
    (_q(maps=[]), "section 'maps' must be a name->object map"),
    # rational literals
    (_q(**_alg(sc=[["star", 0, 0, 0, 1]])), "algebras/a: rationals must be strings, got 1"),
    (_q(**_bim(entries=[["l", "star", 0, 0, 0, None]])),
     "bimodules/m: rationals must be strings, got None"),
    (_q(**_map(entries=[[0, 0, "x"]])), "maps/t: not a rational literal: 'x'"),
    (_q(**_ten(entries=[[0, 1, "1/0"]])), "tensors/r: not a rational literal: '1/0'"),
    (_q(**_form(entries=[[0, 0, "1.5"]])), "forms/f: not a rational literal: '1.5'"),
    (_q(**_form(entries=[[0, 0, " 1_0 / -4 "], [0, 1, "1__0"]])),
     "forms/f: not a rational literal: '1__0'"),
    (_q(**_map(entries=[[0, 0, "+3"], [1, 1, "1 0"]])),
     "maps/t: not a rational literal: '1 0'"),
    (_q(**_ten(entries=[[0, 0, "_1"]])), "tensors/r: not a rational literal: '_1'"),
    # indices
    (_q(**_alg(sc=[["star", True, 0, 0, "1"]])),
     "algebras/a: entry ['star', True, 0, 0, '1']: index True is not a non-negative integer"),
    (_q(**_bim(entries=[["r", "star", 0, 1.0, 0, "1"]])),
     "bimodules/m: entry ['r', 'star', 0, 1.0, 0, '1']: index 1.0 is not a "
     "non-negative integer"),
    (_q(**_map(entries=[[2, 0, "1"]])),
     "maps/t: entry [2, 0, '1']: index 2 is outside 0..1"),
    (_q(**_map(target_dim=0, entries=[[0, 0, "1"]])),
     "maps/t: entry [0, 0, '1']: index 0 is outside 0..-1"),
    (_q(**_form(entries=[[0, -1, "1"]])),
     "forms/f: entry [0, -1, '1']: index -1 is not a non-negative integer"),
    (_q(**_ten(entries=[["0", 0, "1"]])),
     "tensors/r: entry ['0', 0, '1']: index '0' is not a non-negative integer"),
    # duplicates
    (_q(**_alg(sc=[["star", 0, 0, 1, "1"], ["star", 0, 0, 1, "2"]])),
     "algebras/a: entry ['star', 0, 0, 1, '2']: duplicate of an earlier entry "
     "at the same position"),
    (_q(**_ten(entries=[[1, 0, "1"], [0, 1, "1"], [1, 0, "1"]])),
     "tensors/r: entry [1, 0, '1']: duplicate of an earlier entry at the same position"),
    # operations, sides and the level-8 bimodule
    (_q(algebras={"a": {**_DEND, "sc": [["succ", 0, 0, 0, "1"], ["star", 0, 1, 1, "1"]]}}),
     "algebras/a: bad algebra object: operation 'star' not defined at level 2"),
    (_q(**_bim(entries=[["x", "star", 0, 0, 0, "1"]])),
     "bimodules/m: bad bimodule object: bad bimodule entry side/op: 'x'/'star'"),
    (_q(**_bim(level=4, entries=[["l", "se", 0, 0, 0, "1"], ["r", "succ", 0, 0, 0, "1"]])),
     "bimodules/m: bad bimodule object: bad bimodule entry side/op: 'r'/'succ'"),
    (_q(**_bim(level=8, entries=[["l", "se1", 0, 0, 0, "1"]])),
     "bimodules/m: bad bimodule object: no level-8 bimodule is defined"),
    # levels and keys
    (_q(**_alg(level=3)), "algebras/a: bad algebra object: level must be one of 1, 2, 4, 8, "
     "got 3"),
    (_q(**_alg(level="2")), "algebras/a: level '2' is not a non-negative integer"),
    (_q(**_bim(level=0)), "bimodules/m: bad bimodule object: level must be one of 1, 2, 4, "
     "8, got 0"),
    (_q(algebras={"a": {"level": 1, "dim": 2}}), "algebras/a: bad algebra object: 'sc'"),
    (_q(algebras={"a": {"dim": 1, "sc": []}}), "algebras/a: bad algebra object: 'level'"),
    (_q(bimodules={"m": {"level": 1, "algebra_dim": 1}}),
     "bimodules/m: bad bimodule object: 'module_dim'"),
    (_q(maps={"t": {"target_dim": 1}}), "maps/t: bad map object: 'source_dim'"),
    (_q(tensors={"r": {"entries": []}}), "tensors/r: bad tensor object: 'dim'"),
    (_q(forms={"f": [1, 2]}),
     "forms/f: bad form object: list indices must be integers or slices, not str"),
    (_q(**_alg(sc=5)), "algebras/a: bad algebra object: 'int' object is not iterable"),
    # entries of the wrong shape
    (_q(**_alg(sc=[["star", 0, 0, 1]])),
     "algebras/a: bad algebra object: not enough values to unpack (expected 5, got 4)"),
    (_q(**_bim(entries=[["l", "star", 0, 0, 0, "1", "2"]])),
     "bimodules/m: bad bimodule object: too many values to unpack (expected 6)"),
    (_q(**_map(entries=[7])), "maps/t: bad map object: cannot unpack non-iterable int object"),
    (_q(**_ten(entries=[[0, 1]])),
     "tensors/r: bad tensor object: not enough values to unpack (expected 3, got 2)"),
    (_q(**_form(entries=["ab"])),
     "forms/f: bad form object: not enough values to unpack (expected 3, got 2)"),
    (_q(**_alg(sc=[[["star"], 0, 0, 0, "1"]])),
     "algebras/a: bad algebra object: unhashable type: 'list'"),
    # declared symmetry
    (_q(**_ten(symmetry="odd")), "tensors/r: unknown symmetry 'odd'"),
    (_q(**_ten(symmetry=["skew"])), "tensors/r: unknown symmetry ['skew']"),
    (_q(**_ten(symmetry="skew", entries=[[0, 1, "1"], [1, 0, "1"]])),
     "tensors/r: tensor declared skew is not skew-symmetric"),
    (_q(**_ten(symmetry="skew", entries=[[1, 1, "1/2"]])),
     "tensors/r: tensor declared skew is not skew-symmetric"),
    (_q(**_ten(symmetry="sym", entries=[[0, 1, "1/2"], [1, 0, "2/4 "], [1, 1, "3"],
                                        [0, 0, "1"], [1, 0, "-1"]])),
     "tensors/r: entry [1, 0, '-1']: duplicate of an earlier entry at the same position"),
    (_q(**_ten(symmetry="sym", entries=[[0, 1, "1/2"], [1, 0, "-1/2"]])),
     "tensors/r: tensor declared sym is not symmetric"),
    (_q(**_ten(symmetry="sym", entries=[[0, 1, "1"]])),
     "tensors/r: tensor declared sym is not symmetric"),
    # references and the dimension cap
    (_q(**_map(algebra="nosuch")), "maps/t: reference algebra='nosuch' does not resolve"),
    (_q(**_alg(), **_map(algebra="a", bimodule="a")),
     "maps/t: reference bimodule='a' does not resolve"),
    (_q(**_ten(algebra=3)), "tensors/r: reference algebra=3 does not resolve"),
    (_q(**_alg(dim=MAX_DIM + 1)), f"algebras/a: dim {MAX_DIM + 1} exceeds the cap of {MAX_DIM}"),
    (_q(**_ten(dim=MAX_DIM + 1)), f"tensors/r: dim {MAX_DIM + 1} exceeds the cap of {MAX_DIM}"),
    (_q(**_bim(level=8, module_dim=2**40)),
     f"bimodules/m: module_dim {2**40} exceeds the cap of {MAX_DIM}"),
    # precedence: two faults in one object
    (_q(**_alg(level=3, sc=[["star", 0, 0, 0, "x"]])), "algebras/a: not a rational literal: 'x'"),
    (_q(algebras={"a": {**_DEND, "sc": [["star", 0, 0, 0, "1"], ["succ", 0, 0, 0, "x"]]}}),
     "algebras/a: not a rational literal: 'x'"),
    (_q(**_alg(sc=[["star", 0, 0, 0, "1"], ["star", 0, 0, 0, "x"]])),
     "algebras/a: entry ['star', 0, 0, 0, 'x']: duplicate of an earlier entry "
     "at the same position"),
    (_q(**_map(entries=[[0, 5, "x"]])), "maps/t: entry [0, 5, 'x']: index 5 is outside 0..1"),
    (_q(**_bim(level=8, entries=[["l", "star", 0, 0, 0, "1"]])),
     "bimodules/m: bad bimodule object: bad bimodule entry side/op: 'l'/'star'"),
    (_q(**_bim(level=9, entries=[["l", "star", 0, 0, 0, "1"], ["l", "star", 0, 0, 1, "y"]])),
     "bimodules/m: not a rational literal: 'y'"),
    (_q(**_ten(symmetry="odd", entries=[[0, 0, "1"], [0, 0, "1"]])),
     "tensors/r: entry [0, 0, '1']: duplicate of an earlier entry at the same position"),
    (_q(**_ten(symmetry="sym", entries=[[0, 1, "1"]], algebra="nosuch")),
     "tensors/r: tensor declared sym is not symmetric"),
    (_q(**_alg(sc=[["star", 0, 0, 0, "1"], ["star", 0, 0]], level="x")),
     "algebras/a: bad algebra object: not enough values to unpack (expected 5, got 3)"),
    # precedence: faults in two sections or two objects
    (_q(**_map(entries=[[0, 0, "x"]]), **_alg(level=3)),
     "algebras/a: bad algebra object: level must be one of 1, 2, 4, 8, got 3"),
    (_q(**_form(entries=[[0, 0, "x"]]), **_ten(symmetry="odd")),
     "tensors/r: unknown symmetry 'odd'"),
    (_q(**_map(algebra="nosuch"), **_form(entries=[[0, 0, "x"]])),
     "forms/f: not a rational literal: 'x'"),
    (_q(maps={"t": {"source_dim": 1, "target_dim": 1, "algebra": "z"},
              "s": {"source_dim": 1, "target_dim": 1, "algebra": "y"}}),
     "maps/t: reference algebra='z' does not resolve"),
    (_q(maps={"t": {"source_dim": 1, "target_dim": 1, "bimodule": "z"}},
        **_bim(algebra="y")),
     "bimodules/m: reference algebra='y' does not resolve"),
    (_q(forms={"g": {"dim": 1, "entries": [[0, 0, 0]]}, "f": {"dim": 1, "entries": [[1, 0, "1"]]}}),
     "forms/g: rationals must be strings, got 0"),
]


@pytest.mark.parametrize("doc, message", GOLDEN_ERRORS,
                         ids=[f"{i:02d}" for i in range(len(GOLDEN_ERRORS))])
def test_golden_bundle_errors(doc, message):
    with pytest.raises(BundleError) as info:
        parse_bundle(doc)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# literals are checked as parse_rational reads them, without a Fraction

_SPACES = st.sampled_from(["", " ", "  ", "\t", "\n "])


def _underscored(n: int) -> str:
    return f"{n:_}"


LITERAL_LIKE = st.one_of(
    st.text(),
    st.lists(st.sampled_from(["0", "1", "7", "_", " ", "-", "+", "/", "\t", "\u0663",
                              "x", ".", "e"]), max_size=8).map("".join),
    st.builds("{}{}{}".format, _SPACES, st.integers(-10**6, 10**6).map(_underscored),
              _SPACES),
    st.builds("{}{}{}/{}{}".format, _SPACES, st.integers(-10**6, 10**6).map(_underscored),
              _SPACES, st.integers(-10**4, 10**4).map(_underscored), _SPACES),
)


@settings(max_examples=400, deadline=None)
@given(LITERAL_LIKE)
def test_literal_check_accepts_what_parse_rational_accepts(text):
    doc = {"field": "Q", "forms": {"f": {"dim": 1, "entries": [[0, 0, text]]}}}
    try:
        value = parse_rational(text)
    except ValueError as exc:
        with pytest.raises(BundleError) as info:
            bundle._literal(text)
        assert str(info.value) == str(exc)
        with pytest.raises(BundleError) as info:
            parse_bundle(doc)
        assert str(info.value) == f"forms/f: {exc}"
    else:
        bundle._literal(text)
        assert parse_bundle(doc).forms["f"] == BilinearForm(Matrix([[value]]))


# ---------------------------------------------------------------------------
# every accepted document builds each object as an eager reference does

def _reference(section: str, obj: dict):
    """The object built straight from its document, with no bundle code."""
    if section == "algebras":
        return algebra_from_entries(obj["level"], obj["dim"], [
            (op, i, j, k, parse_rational(v)) for op, i, j, k, v in obj["sc"]])
    if section == "bimodules":
        return bimodule_from_entries(
            obj["level"], obj["algebra_dim"], obj["module_dim"],
            [(side, op, i, r, c, parse_rational(v))
             for side, op, i, r, c, v in obj.get("entries", [])])
    rows_n, cols_n = ((obj["target_dim"], obj["source_dim"]) if section == "maps"
                      else (obj["dim"], obj["dim"]))
    grid = [[Fraction(0)] * cols_n for _ in range(rows_n)]
    for r, c, v in obj.get("entries", []):
        grid[r][c] = parse_rational(v)
    matrix = Matrix(grid) if rows_n else Matrix.zeros(0, cols_n)
    return {"maps": InterMap, "tensors": Tensor2, "forms": BilinearForm}[section](matrix)


@settings(max_examples=300, deadline=None)
@given(st.one_of(BUNDLES, well_formed_bundles()))
def test_accepted_documents_build_every_object_as_the_reference(doc):
    try:
        parsed = parse_bundle(doc)
    except BundleError:
        return
    for section in SECTIONS:
        objects = doc.get(section, {})
        assert list(parsed.section(section)) == list(objects)
        assert len(parsed.section(section)) == len(objects)
        for name, obj in objects.items():
            built = parsed.section(section)[name]
            assert built == _reference(section, obj)
            assert parsed.section(section)[name] is built  # built once, then kept


# ---------------------------------------------------------------------------
# a command builds only the objects it reads

def _wide_bundle() -> dict:
    """Four algebras, three regular bimodules and six maps."""
    cat = catalog.catalog_bundle()
    algebras = {"a1": "trunc3", "a2": "dend_from_int3", "a4": "quadri_from_int3_pair",
                "a8": "octo_from_int3_triple"}
    doc = {"field": "Q", "algebras": {k: cat["algebras"][v] for k, v in algebras.items()},
           "bimodules": {}, "maps": {}}
    for lv in (1, 2, 4):
        alg = catalog.load(algebras[f"a{lv}"]).value
        doc["bimodules"][f"m{lv}"] = {**serialize_bimodule(regular_bimodule(alg)),
                                      "algebra": f"a{lv}"}
        identity = serialize_intermap(InterMap.identity(3))
        doc["maps"][f"r{lv}"] = {**identity, "algebra": f"a{lv}"}
        doc["maps"][f"o{lv}"] = {**identity, "algebra": f"a{lv}", "bimodule": f"m{lv}"}
    return doc


def _counting(monkeypatch, name: str) -> list:
    calls = []
    real = getattr(bundle, name)

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(bundle, name, counted)
    return calls


@pytest.mark.parametrize("name, algebras, bimodules", [
    ("a4", 1, 0), ("r2", 1, 0), ("o1", 1, 1), ("m2", 1, 1)])
def test_check_builds_only_what_it_reads(monkeypatch, tmp_path, name, algebras,
                                         bimodules):
    path = tmp_path / "wide.json"
    path.write_text(dumps(_wide_bundle()), encoding="utf-8")
    alg_calls = _counting(monkeypatch, "algebra_from_entries")
    bim_calls = _counting(monkeypatch, "bimodule_from_entries")
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(["check", str(path), name])
    assert code in (0, 1) and out.getvalue()
    assert (len(alg_calls), len(bim_calls)) == (algebras, bimodules)


def test_membership_iteration_and_len_build_nothing(monkeypatch):
    calls = (_counting(monkeypatch, "algebra_from_entries"),
             _counting(monkeypatch, "bimodule_from_entries"))
    parsed = parse_bundle(_wide_bundle())
    sizes = {s: len(parsed.section(s)) for s in SECTIONS}
    assert sizes == {"algebras": 4, "bimodules": 3, "maps": 6, "tensors": 0, "forms": 0}
    for section in SECTIONS:
        assert all(name in parsed.section(section) for name in parsed.section(section))
        assert "nosuch" not in parsed.section(section)
    assert parsed.ref("maps", "o2", "bimodule") == "m2"
    assert calls == ([], [])
