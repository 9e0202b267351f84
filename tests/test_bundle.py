"""Bundle parsing: the dimension cap, empty shapes, and arbitrary documents."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from clusteralg import bundle, cli
from clusteralg.bundle import MAX_DIM, BundleError, parse_bundle, serialize_intermap
from clusteralg.core import Level


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
