"""Bundle documents: the JSON on-disk format for every object kind.

A bundle is a JSON object with "field": "Q" and up to five sections,
each a name -> object map:

    algebras   {"level", "dim", "sc": [[op, i, j, k, "p/q"], ...]}
    bimodules  {"level", "algebra_dim", "module_dim",
                "entries": [["l"|"r", op, i, row, col, "p/q"], ...],
                "algebra": name?}
    maps       {"source_dim", "target_dim", "entries": [[row, col, "p/q"]],
                "algebra": name?, "bimodule": name?}
    tensors    {"dim", "entries": [[i, j, "p/q"]], "algebra": name?,
                "symmetry": "skew"|"sym"|"none"?}
    forms      {"dim", "entries": [[i, j, "p/q"]], "algebra": name?}

No JSON object may repeat a key, and nesting deeper than the parser
takes is refused.  Omitted entries are zero; rationals are strings "p"
or "p/q"; levels, dims and basis indices are non-negative JSON integers
(booleans, floats and negatives are refused), no dim may exceed
``MAX_DIM``, indices are 0-based and must lie in 0..dim-1, and no two
entries of an object may name the same position.  A declared tensor
symmetry is verified at parse time, and all name cross-references must
resolve.  Serialisation is canonical (sorted entries and keys) so
identical objects give byte-identical documents.

``parse_bundle`` checks every object and refuses the first fault, but
builds nothing (literals stay strings): an object is built the first
time it is read from its section, then kept, so checking one object
builds only it and the objects it names.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

from .bimodules import Bimodule, bimodule_entries, bimodule_from_entries
from .core import (ClusterAlgebra, Level, LevelError, algebra_entries,
                   algebra_from_entries)
from .forms import BilinearForm
from .linalg import Matrix, format_rational, parse_rational, rational_parts, shown
from .operators import InterMap
from .yangbaxter import Tensor2

SECTIONS = ("algebras", "bimodules", "maps", "tensors", "forms")

# The largest dim, algebra_dim, module_dim, source_dim or target_dim a
# bundle may declare.  Objects are stored densely (an algebra holds its
# level times dim^3 constants), so the cap is checked before anything is
# allocated.  It lies well above the desk-scale dimensions the checks
# are meant for.
MAX_DIM = 64


class BundleError(ValueError):
    pass


def _literal(value) -> None:
    """Check a rational literal's syntax; it stays a string until built."""
    if not isinstance(value, str):
        raise BundleError(f"rationals must be strings, got {shown(value)}")
    try:
        rational_parts(value)
    except ValueError as exc:
        raise BundleError(str(exc)) from None


def _int(value, what: str) -> int:
    """A JSON integer >= 0; booleans, floats and negatives are refused."""
    if type(value) is not int or value < 0:
        raise BundleError(f"{what} {shown(value)} is not a non-negative integer")
    return value


def _dim(doc: dict, key: str) -> int:
    """A declared dimension: an integer in 0..MAX_DIM."""
    value = _int(doc[key], key)
    if value > MAX_DIM:
        raise BundleError(f"{key} {shown(value)} exceeds the cap of {MAX_DIM}")
    return value


def _bad_index(entry, value, dim: int) -> NoReturn:
    """Refuse a basis index of an entry that is not in 0..dim-1."""
    _int(value, f"entry {shown(entry)}: index")  # raises unless an integer >= 0
    raise BundleError(f"entry {shown(entry)}: index {shown(value)} "
                      f"is outside 0..{dim - 1}")


def _fields(entry, width: int) -> tuple:
    """An entry that is not a list of width items, unpacked as its kind
    unpacks it: a wrong shape raises the unpacking error."""
    if width == 3:
        r, c, v = entry
        return r, c, v
    if width == 5:
        op, i, j, k, v = entry
        return op, i, j, k, v
    side, op, i, r, c, v = entry
    return side, op, i, r, c, v


def _rows(entries, lead: int, dims: tuple[int, ...], literals: set) -> dict[tuple, str]:
    """Check the entries [*names, *indices, "p/q"] of one object: lead
    names (side, op), one basis index per dim, a rational literal.

    Returns position -> literal in entry order.  Each entry is checked in
    turn: its shape, its indices in order, then its position against the
    earlier entries, then its literal unless it is in literals, the set of
    the bundle's literals already checked.
    """
    width = lead + len(dims) + 1
    indices = tuple(enumerate(dims, lead))  # (field number, dim)
    rows: dict[tuple, str] = {}
    for entry in entries:
        fields = (entry if type(entry) is list and len(entry) == width
                  else _fields(entry, width))
        for n, dim in indices:
            x = fields[n]
            if type(x) is not int or not 0 <= x < dim:
                _bad_index(entry, x, dim)
        pos = tuple(fields[:-1])
        if pos in rows:
            raise BundleError(f"entry {shown(entry)}: duplicate of an earlier entry "
                              "at the same position")
        v = rows[pos] = fields[-1]
        if type(v) is not str or v not in literals:
            _literal(v)
            literals.add(v)
    return rows


def _values(rows: dict[tuple, str]) -> list[tuple]:
    """Checked rows as (*position, Fraction); each literal is parsed once."""
    value = {v: parse_rational(v) for v in set(rows.values())}
    return [(*pos, value[v]) for pos, v in rows.items()]


def serialize_algebra(a: ClusterAlgebra) -> dict:
    sc = sorted([op, i, j, k, format_rational(v)]
                for op, i, j, k, v in algebra_entries(a))
    return {"level": int(a.level), "dim": a.dim, "sc": sc}


def _check_algebra(doc: dict, literals: set) -> tuple:
    dim = _dim(doc, "dim")
    rows = _rows(doc["sc"], 1, (dim, dim, dim), literals)
    level = Level.of(_int(doc["level"], "level"))
    ops = level.ops
    bad = [op for op, *_ in rows if op not in ops]
    if bad:
        raise LevelError(f"operation {shown(bad[0])} not defined at level {int(level)}")
    return level, dim, rows


def serialize_bimodule(m: Bimodule) -> dict:
    rows = sorted([side, op, i, r, c, format_rational(v)]
                  for side, op, i, r, c, v in bimodule_entries(m))
    return {"level": int(m.level), "algebra_dim": m.algebra_dim,
            "module_dim": m.module_dim, "entries": rows}


def _check_bimodule(doc: dict, literals: set) -> tuple:
    d, md = _dim(doc, "algebra_dim"), _dim(doc, "module_dim")
    rows = _rows(doc.get("entries", []), 2, (d, md, md), literals)
    level = Level.of(_int(doc["level"], "level"))
    ops = level.ops
    bad = [pos for pos in rows if pos[0] not in ("l", "r") or pos[1] not in ops]
    if bad:
        side, op = bad[0][:2]
        raise LevelError(f"bad bimodule entry side/op: {shown(side)}/{shown(op)}")
    if level == Level.OCTO:
        raise LevelError("no level-8 bimodule is defined")
    return level, d, md, rows


def serialize_intermap(t: InterMap) -> dict:
    rows = sorted([r, c, format_rational(v)] for r, c, v in t.matrix.nonzero())
    return {"source_dim": t.source_dim, "target_dim": t.target_dim,
            "entries": rows}


def _check_grid(doc: dict, literals: set, rows_key="dim", cols_key="dim") -> tuple:
    rows_n, cols_n = _dim(doc, rows_key), _dim(doc, cols_key)
    return rows_n, cols_n, _rows(doc.get("entries", []), 0, (rows_n, cols_n), literals)


def _matrix(rows_n: int, cols_n: int, values: list) -> Matrix:
    """A matrix from (row, col, value) rows; omitted entries are zero."""
    buf = [[0] * cols_n for _ in range(rows_n)]
    for r, c, v in values:
        buf[r][c] = v
    return Matrix(buf) if rows_n else Matrix.zeros(0, cols_n)


def _grid_entries(mat: Matrix) -> list:
    return sorted([i, j, format_rational(v)] for i, j, v in mat.nonzero())


def serialize_tensor2(t: Tensor2, symmetry: str | None = None) -> dict:
    doc = {"dim": t.dim, "entries": _grid_entries(t.grid)}
    if symmetry is not None:
        doc["symmetry"] = symmetry
    return doc


def _symmetric(rows: dict, sign: int) -> bool:
    """Whether the grid equals sign times its transpose."""
    value = {pos: parse_rational(v) for pos, v in rows.items()}
    return all(x == sign * value.get((j, i), 0) for (i, j), x in value.items())


def _check_tensor(doc: dict, literals: set) -> tuple:
    checked = _check_grid(doc, literals)
    declared = doc.get("symmetry")
    if declared == "skew" and not _symmetric(checked[2], -1):
        raise BundleError("tensor declared skew is not skew-symmetric")
    if declared == "sym" and not _symmetric(checked[2], 1):
        raise BundleError("tensor declared sym is not symmetric")
    if declared not in (None, "skew", "sym", "none"):
        raise BundleError(f"unknown symmetry {shown(declared)}")
    return checked


def serialize_form(b: BilinearForm) -> dict:
    return {"dim": b.dim, "entries": _grid_entries(b.matrix)}


# per section: the kind named in errors, the reference keys, the check
# (raising the first fault, building nothing; it returns (*parts, rows))
# and the build from (*parts, rows as values), which looks its
# constructor up when it runs
_KINDS = {
    "algebras": ("algebra", (), _check_algebra, lambda *c: algebra_from_entries(*c)),
    "bimodules": ("bimodule", ("algebra",), _check_bimodule,
                  lambda *c: bimodule_from_entries(*c)),
    "maps": ("map", ("algebra", "bimodule"),
             lambda doc, lits: _check_grid(doc, lits, "target_dim", "source_dim"),
             lambda *c: InterMap(_matrix(*c))),
    "tensors": ("tensor", ("algebra",), _check_tensor, lambda *c: Tensor2(_matrix(*c))),
    "forms": ("form", ("algebra",), _check_grid, lambda *c: BilinearForm(_matrix(*c))),
}

_REF_SECTION = {"algebra": "algebras", "bimodule": "bimodules"}


class Section(Mapping):
    """One section of a parsed bundle, name -> object.  Membership,
    iteration and len build nothing; an object is built on its first read."""

    def __init__(self, build: Callable, checked: dict[str, tuple]):
        self._build, self._checked, self._built = build, checked, {}

    def __getitem__(self, name: str):
        if name not in self._built:
            *parts, rows = self._checked[name]
            self._built[name] = self._build(*parts, _values(rows))
        return self._built[name]

    def __contains__(self, name) -> bool:
        return name in self._checked

    def __iter__(self) -> Iterator[str]:
        return iter(self._checked)

    def __len__(self) -> int:
        return len(self._checked)


@dataclass(frozen=True)
class Bundle:
    algebras: Section
    bimodules: Section
    maps: Section
    tensors: Section
    forms: Section
    refs: dict[tuple[str, str], dict[str, str]]
    raw: dict

    def section(self, kind: str) -> Section:
        return getattr(self, kind)

    def find(self, name: str, kind: str | None = None) -> tuple[str, object]:
        """Locate an object by name, optionally within one section."""
        if kind is not None:
            if kind not in SECTIONS:
                raise BundleError(f"unknown section {shown(kind)}")
            try:
                return kind, self.section(kind)[name]
            except KeyError:
                raise BundleError(f"no {kind[:-1]} named {shown(name)} "
                                  "in the bundle") from None
        kinds = [s for s in SECTIONS if name in self.section(s)]
        if not kinds:
            raise BundleError(f"no object named {shown(name)} in the bundle")
        if len(kinds) > 1:
            raise BundleError(f"name {shown(name)} is ambiguous across sections "
                              f"{kinds}; pass --kind")
        return kinds[0], self.section(kinds[0])[name]

    def ref(self, kind: str, name: str, key: str) -> str | None:
        return self.refs.get((kind, name), {}).get(key)


def parse_bundle(doc: dict) -> Bundle:
    """Check every object of doc; each is built when it is first read."""
    if not isinstance(doc, dict):
        raise BundleError("bundle must be a JSON object")
    if doc.get("field") != "Q":
        raise BundleError('bundle must declare "field": "Q"')
    unknown = set(doc) - set(SECTIONS) - {"field"}
    if unknown:
        raise BundleError(f"unknown top-level keys: {sorted(unknown)}")
    checked: dict[str, dict[str, tuple]] = {}
    refs: dict[tuple[str, str], dict[str, str]] = {}
    literals: set[str] = set()  # checked once for the whole bundle
    for section in SECTIONS:
        objects = doc.get(section, {})
        if not isinstance(objects, dict):
            raise BundleError(f"section {shown(section)} must be a name->object map")
        what, ref_keys, check, _ = _KINDS[section]
        checked[section] = {}
        for name, obj in objects.items():
            try:
                checked[section][name] = check(obj, literals)
            except BundleError as exc:
                raise BundleError(f"{section}/{shown(name, str)}: {exc}") from None
            except Exception as exc:
                raise BundleError(f"{section}/{shown(name, str)}: bad {what} object: "
                                  f"{exc}") from None
            obj_refs = {k: obj[k] for k in ref_keys if k in obj}
            if obj_refs:
                refs[(section, name)] = obj_refs
    for (section, name), obj_refs in refs.items():
        for key, target in obj_refs.items():
            if not isinstance(target, str) or target not in checked[_REF_SECTION[key]]:
                raise BundleError(f"{section}/{shown(name, str)}: reference "
                                  f"{key}={shown(target)} does not resolve")
    return Bundle(**{s: Section(_KINDS[s][3], checked[s]) for s in SECTIONS},
                  refs=refs, raw=doc)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's dict; a key it repeats is refused, not overwritten."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise BundleError(f"bundle repeats the key {shown(key)} in one JSON object")
        doc[key] = value
    return doc


def load_bundle(path: str | Path) -> Bundle:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise BundleError(f"cannot read bundle: {exc}") from exc
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except BundleError:
        raise
    except ValueError as exc:  # JSONDecodeError, or an integer over the digit limit
        raise BundleError(f"bundle is not valid JSON: {exc}") from exc
    except RecursionError:
        raise BundleError("bundle nests too deeply to parse") from None
    return parse_bundle(doc)


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
