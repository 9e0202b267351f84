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

Omitted entries are zero; rationals are strings "p" or "p/q"; levels,
dims and basis indices are non-negative JSON integers (booleans, floats
and negatives are refused), no dim may exceed ``MAX_DIM``, indices are
0-based and must lie in 0..dim-1, and no two entries of an object may
name the same position.  A declared tensor symmetry is verified at parse
time, and all name cross-references must resolve.  Serialisation is
canonical (sorted entries and keys) so identical objects give
byte-identical documents.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .bimodules import Bimodule, bimodule_entries, bimodule_from_entries
from .core import ClusterAlgebra, algebra_entries, algebra_from_entries
from .forms import BilinearForm
from .linalg import Matrix, format_rational, parse_rational
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


def _rat(value) -> object:
    if not isinstance(value, str):
        raise BundleError(f"rationals must be strings, got {value!r}")
    try:
        return parse_rational(value)
    except ValueError as exc:
        raise BundleError(str(exc)) from None


def _int(value, what: str) -> int:
    """A JSON integer >= 0; booleans, floats and negatives are refused."""
    if type(value) is not int or value < 0:
        raise BundleError(f"{what} {value!r} is not a non-negative integer")
    return value


def _dim(doc: dict, key: str) -> int:
    """A declared dimension: an integer in 0..MAX_DIM."""
    value = _int(doc[key], key)
    if value > MAX_DIM:
        raise BundleError(f"{key} {value} exceeds the cap of {MAX_DIM}")
    return value


def _index(entry, value, dim: int) -> int:
    """One basis index of an entry: an integer in 0..dim-1."""
    if type(value) is not int or not 0 <= value < dim:
        _int(value, f"entry {entry!r}: index")  # raises unless an integer >= 0
        raise BundleError(f"entry {entry!r}: index {value} is outside 0..{dim - 1}")
    return value


def _first(seen: set, entry, key) -> None:
    """Record an entry's position; a second entry for it is refused."""
    if key in seen:
        raise BundleError(f"entry {entry!r}: duplicate of an earlier entry "
                          "at the same position")
    seen.add(key)


def serialize_algebra(a: ClusterAlgebra) -> dict:
    sc = sorted([op, i, j, k, format_rational(v)]
                for op, i, j, k, v in algebra_entries(a))
    return {"level": int(a.level), "dim": a.dim, "sc": sc}


def parse_algebra(doc: dict) -> ClusterAlgebra:
    try:
        dim = _dim(doc, "dim")
        rows, seen = [], set()
        for entry in doc["sc"]:
            op, i, j, k, v = entry
            row = (op, _index(entry, i, dim), _index(entry, j, dim),
                   _index(entry, k, dim))
            _first(seen, entry, row)
            rows.append((*row, _rat(v)))
        return algebra_from_entries(_int(doc["level"], "level"), dim, rows)
    except BundleError:
        raise
    except Exception as exc:
        raise BundleError(f"bad algebra object: {exc}") from exc


def serialize_bimodule(m: Bimodule) -> dict:
    rows = sorted([side, op, i, r, c, format_rational(v)]
                  for side, op, i, r, c, v in bimodule_entries(m))
    return {"level": int(m.level), "algebra_dim": m.algebra_dim,
            "module_dim": m.module_dim, "entries": rows}


def parse_bimodule(doc: dict) -> Bimodule:
    try:
        d = _dim(doc, "algebra_dim")
        md = _dim(doc, "module_dim")
        rows, seen = [], set()
        for entry in doc.get("entries", []):
            side, op, i, r, c, v = entry
            row = (side, op, _index(entry, i, d), _index(entry, r, md),
                   _index(entry, c, md))
            _first(seen, entry, row)
            rows.append((*row, _rat(v)))
        return bimodule_from_entries(_int(doc["level"], "level"), d, md, rows)
    except BundleError:
        raise
    except Exception as exc:
        raise BundleError(f"bad bimodule object: {exc}") from exc


def serialize_intermap(t: InterMap) -> dict:
    rows = sorted([r, c, format_rational(v)] for r, c, v in t.matrix.nonzero())
    return {"source_dim": t.source_dim, "target_dim": t.target_dim,
            "entries": rows}


def parse_intermap(doc: dict) -> InterMap:
    try:
        rows_n = _dim(doc, "target_dim")
        cols_n = _dim(doc, "source_dim")
        return InterMap(_parse_entries(doc, rows_n, cols_n))
    except BundleError:
        raise
    except Exception as exc:
        raise BundleError(f"bad map object: {exc}") from exc


def _grid_entries(mat: Matrix) -> list:
    return sorted([i, j, format_rational(v)] for i, j, v in mat.nonzero())


def _parse_entries(doc: dict, rows_n: int, cols_n: int) -> Matrix:
    """A matrix from [[row, col, "p/q"], ...]; omitted entries are zero."""
    buf = [[0] * cols_n for _ in range(rows_n)]
    seen: set = set()
    for entry in doc.get("entries", []):
        r, c, v = entry
        r, c = _index(entry, r, rows_n), _index(entry, c, cols_n)
        _first(seen, entry, (r, c))
        buf[r][c] = _rat(v)
    return Matrix(buf) if rows_n else Matrix.zeros(0, cols_n)


def _parse_grid(doc: dict) -> Matrix:
    dim = _dim(doc, "dim")
    return _parse_entries(doc, dim, dim)


def serialize_tensor2(t: Tensor2, symmetry: str | None = None) -> dict:
    doc = {"dim": t.dim, "entries": _grid_entries(t.grid)}
    if symmetry is not None:
        doc["symmetry"] = symmetry
    return doc


def parse_tensor2(doc: dict) -> Tensor2:
    try:
        t = Tensor2(_parse_grid(doc))
    except BundleError:
        raise
    except Exception as exc:
        raise BundleError(f"bad tensor object: {exc}") from exc
    declared = doc.get("symmetry")
    if declared == "skew" and not t.is_skew():
        raise BundleError("tensor declared skew is not skew-symmetric")
    if declared == "sym" and not t.is_symmetric():
        raise BundleError("tensor declared sym is not symmetric")
    if declared not in (None, "skew", "sym", "none"):
        raise BundleError(f"unknown symmetry {declared!r}")
    return t


def serialize_form(b: BilinearForm) -> dict:
    return {"dim": b.dim, "entries": _grid_entries(b.matrix)}


def parse_form(doc: dict) -> BilinearForm:
    try:
        return BilinearForm(_parse_grid(doc))
    except BundleError:
        raise
    except Exception as exc:
        raise BundleError(f"bad form object: {exc}") from exc


_PARSERS = {"algebras": parse_algebra, "bimodules": parse_bimodule,
            "maps": parse_intermap, "tensors": parse_tensor2,
            "forms": parse_form}

_REF_KEYS = {"algebras": (), "bimodules": ("algebra",),
             "maps": ("algebra", "bimodule"), "tensors": ("algebra",),
             "forms": ("algebra",)}

_REF_SECTION = {"algebra": "algebras", "bimodule": "bimodules"}


@dataclass
class Bundle:
    algebras: dict[str, ClusterAlgebra] = field(default_factory=dict)
    bimodules: dict[str, Bimodule] = field(default_factory=dict)
    maps: dict[str, InterMap] = field(default_factory=dict)
    tensors: dict[str, Tensor2] = field(default_factory=dict)
    forms: dict[str, BilinearForm] = field(default_factory=dict)
    refs: dict[tuple[str, str], dict[str, str]] = field(default_factory=dict)
    raw: dict = field(default_factory=dict)

    def section(self, kind: str) -> dict:
        return getattr(self, kind)

    def find(self, name: str, kind: str | None = None) -> tuple[str, object]:
        """Locate an object by name, optionally within one section."""
        if kind is not None:
            if kind not in SECTIONS:
                raise BundleError(f"unknown section {kind!r}")
            try:
                return kind, self.section(kind)[name]
            except KeyError:
                raise BundleError(f"no {kind[:-1]} named {name!r} in the bundle") from None
        hits = [(s, self.section(s)[name]) for s in SECTIONS
                if name in self.section(s)]
        if not hits:
            raise BundleError(f"no object named {name!r} in the bundle")
        if len(hits) > 1:
            raise BundleError(f"name {name!r} is ambiguous across sections "
                              f"{[s for s, _ in hits]}; pass --kind")
        return hits[0]

    def ref(self, kind: str, name: str, key: str) -> str | None:
        return self.refs.get((kind, name), {}).get(key)


def parse_bundle(doc: dict) -> Bundle:
    if not isinstance(doc, dict):
        raise BundleError("bundle must be a JSON object")
    if doc.get("field") != "Q":
        raise BundleError('bundle must declare "field": "Q"')
    unknown = set(doc) - set(SECTIONS) - {"field"}
    if unknown:
        raise BundleError(f"unknown top-level keys: {sorted(unknown)}")
    out = Bundle(raw=doc)
    for section in SECTIONS:
        objects = doc.get(section, {})
        if not isinstance(objects, dict):
            raise BundleError(f"section {section!r} must be a name->object map")
        for name, obj in objects.items():
            try:
                parsed = _PARSERS[section](obj)
            except BundleError as exc:
                raise BundleError(f"{section}/{name}: {exc}") from None
            out.section(section)[name] = parsed
            refs = {k: obj[k] for k in _REF_KEYS[section] if k in obj}
            if refs:
                out.refs[(section, name)] = refs
    for (section, name), refs in out.refs.items():
        for key, target in refs.items():
            if not isinstance(target, str) or target not in out.section(_REF_SECTION[key]):
                raise BundleError(f"{section}/{name}: reference {key}={target!r} "
                                  "does not resolve")
    return out


def load_bundle(path: str | Path) -> Bundle:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise BundleError(f"cannot read bundle: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BundleError(f"bundle is not valid JSON: {exc}") from exc
    return parse_bundle(doc)


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
