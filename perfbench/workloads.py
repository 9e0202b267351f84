"""The three workloads: seeded inputs, the fixed op cycle, expected results.

Each workload has two halves.  ``build_*`` generates the inputs from the
seed and writes them as bundle files; it is part of the timed set-up.
``ops_*`` is the reference pass: it derives every op's expected result
from the brute-force oracles in ``tests/oracles.py`` (or, for
``derive-chain``, from what the construction must produce) and returns
the op cycle.  The program itself only ever sees the bundle files and
the CLI arguments.

No cycle length L makes 0.5 L or 0.9 L a whole number (45, 35 and 75
ops), and the timed loop runs whole cycles, so once a run holds ten
cycles the 50th and 90th percentile ranks fall inside a group of copies
of one op rather than on the boundary between two cost classes (see
``run.py``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

# ---------------------------------------------------------------------------
# ops and their expectations


@dataclass
class Op:
    """One CLI call and how to judge it.

    `expect(rc, stdout)` says whether the call returned the expected
    result.  `before` runs untimed just before the call, `after` runs
    untimed just after it and is a further check of the call's effect.
    """
    label: str
    argv: list[str]
    expect: Callable[[int, str], bool]
    before: Callable[[], None] | None = None
    after: Callable[[], bool] | None = None


def _prints(text: str, rc: int = 0):
    return lambda got_rc, out: got_rc == rc and out == text


def _verdict(ok: bool, name: str):
    """Plain `check` output for an oracle verdict."""
    if ok:
        return _prints(f"ok: {name}\n")
    return lambda rc, out: rc == 1 and out.splitlines()[-1].startswith(f"FAIL: {name}: ")


def _json_verdict(ok: bool, count: int | None):
    """`check --json` output: verdict, and violation count where known."""
    def expect(rc: int, out: str) -> bool:
        doc = json.loads(out)
        if rc != (0 if ok else 1) or doc["ok"] is not ok:
            return False
        return count is None or len(doc["violations"]) == count
    return expect


def _write(ca, path: Path, doc: dict) -> None:
    path.write_text(ca.bundle.dumps(doc), encoding="utf-8")


def _seeds(ca, seed: int, salt: int):
    """Independent sub-seed stream for one workload."""
    rng = ca.catalog.SplitMix64(seed ^ salt)
    return rng.next64


def _nonzero_rational(rng) -> Fraction:
    while True:
        v = rng.rational()
        if v:
            return v


def _trunc_int(ca, d: int, scale: list[Fraction] | None = None):
    """trunc_d and its integration operator, in the basis f_i = s_i e_i."""
    s = scale or [Fraction(1)] * d
    entries = [("star", i, j, i + j, s[i] * s[j] / s[i + j])
               for i in range(d) for j in range(d) if i + j < d]
    rows = [[s[j] / (s[i] * (j + 1)) if i == j + 1 else 0 for j in range(d)]
            for i in range(d)]
    return (ca.core.algebra_from_entries(1, d, entries),
            ca.operators.InterMap(ca.linalg.Matrix(rows)))


def _tower(ca, a, r, levels=(1, 2, 4, 8)) -> dict[int, object]:
    """The level-1/2/4/8 algebras the integration operator induces."""
    ops = ca.operators
    build = {1: lambda: a, 2: lambda: ops.rb_finer(a, r),
             4: lambda: ops.rb_pair_quadri(a, r, r),
             8: lambda: ops.rb_triple_octo(a, r, r, r)}
    return {lv: build[lv]() for lv in levels}


def _inverse(rows: list[list[Fraction]]) -> list[list[Fraction]] | None:
    """Gauss-Jordan inverse over Q, or None when singular.  Kept apart from
    the program's own solver so that expectations do not rest on it."""
    n = len(rows)
    work = [list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(rows)]
    for c in range(n):
        piv = next((r for r in range(c, n) if work[r][c]), None)
        if piv is None:
            return None
        work[c], work[piv] = work[piv], work[c]
        inv = 1 / work[c][c]
        work[c] = [v * inv for v in work[c]]
        for r in range(n):
            if r != c and work[r][c]:
                f = work[r][c]
                work[r] = [v - f * p for v, p in zip(work[r], work[c])]
    return [row[n:] for row in work]


# ---------------------------------------------------------------------------
# derive-chain: construct and verify, on rescaled sparse trunc_d / int_d

_CANONICAL = {  # variant -> (source algebra, tensor symmetry)
    "Cor2.2.8": ("dend", "skew"), "Cor3.3.8": ("dend", "sym"),
    "Prop3.4.12": ("quadri", "sym"), "Cor4.2.10": ("quadri", "skew"),
    "Cor4.4.13": ("octo", "skew"),
}
_FULL_CHAIN = ("check trunc", "check int", "rb-finer", "rb-pair", "rb-triple",
               "check dend", "check quadri", "check octo",
               *_CANONICAL, *(f"check {v}" for v in _CANONICAL),
               "classify", "finer-from-form", "check finer")
# A cycle of 45 ops is kept near one second, so that a run holds twenty or
# more and each op's median rests on as many calls.  d=4 leaves out the
# Cor4.4.13 and finer-from-form branches (about 0.2 s each; both run at
# d=3), and d=6 and d=8 keep ops that take well under 0.15 s at this commit.
_D4_DROPPED = ("check int", "Cor4.4.13", "check Cor4.4.13", "finer-from-form",
               "check finer")
CHAIN_OPS = {
    3: _FULL_CHAIN,
    4: tuple(op for op in _FULL_CHAIN if op not in _D4_DROPPED),
    6: ("check trunc", "rb-finer", "rb-pair", "check dend", "check quadri"),
    8: ("check trunc", "rb-finer", "check dend"),
}
SMOKE_CHAIN_OPS = {2: _FULL_CHAIN}


def build_derive_chain(ca, work: Path, seed: int, smoke: bool) -> dict:
    next_seed = _seeds(ca, seed, 0xD1)
    bases = {}
    for d in (SMOKE_CHAIN_OPS if smoke else CHAIN_OPS):
        a, r = _trunc_int(ca, d, _signed(ca, d, next_seed()))
        doc = {"field": "Q",
               "algebras": {"trunc": ca.bundle.serialize_algebra(a)},
               "maps": {"int": {**ca.bundle.serialize_intermap(r), "algebra": "trunc"}}}
        bases[d] = work / f"chain_d{d}.json"
        _write(ca, bases[d], doc)
    return {"bases": bases}


def _reparses(ca, path: Path, want: dict[str, tuple[str, ...]]) -> Callable[[], bool]:
    """An --out document must parse and hold the named objects."""
    def after() -> bool:
        parsed = ca.bundle.load_bundle(path)
        return all(name in parsed.section(section)
                   for section, names in want.items() for name in names)
    return after


def ops_derive_chain(ca, inputs: dict, oracles, cycle_dir: Path, smoke: bool) -> list[Op]:
    ops = []
    for d, base in inputs["bases"].items():
        c = cycle_dir
        src = {lv: c / f"d{d}_{lv}.json" for lv in ("dend", "quadri", "octo")}
        wanted = CHAIN_OPS.get(d) or SMOKE_CHAIN_OPS[d]
        table: dict[str, Op] = {}

        def derive(label, args, out, want):
            table[label] = Op(f"d{d} {label}", ["derive", *args, "--out", str(out)],
                              _prints(f"wrote {sum(map(len, want.values()))} "
                                      f"object(s) to {out}\n"),
                              after=_reparses(ca, out, want))

        def check(label, path, name):
            table[label] = Op(f"d{d} {label}", ["check", str(path), name],
                              _prints(f"ok: {name}\n"))

        b = str(base)
        check("check trunc", base, "trunc")
        check("check int", base, "int")
        derive("rb-finer", [b, "rb-finer", "trunc", "int", "--name", "dend"],
               src["dend"], {"algebras": ("dend",)})
        derive("rb-pair", [b, "rb-pair", "trunc", "int", "int", "--name", "quadri"],
               src["quadri"], {"algebras": ("quadri",)})
        derive("rb-triple", [b, "rb-triple", "trunc", "int", "int", "int",
                             "--name", "octo"], src["octo"], {"algebras": ("octo",)})
        for lv in ("dend", "quadri", "octo"):
            check(f"check {lv}", src[lv], lv)
        for variant, (lv, _) in _CANONICAL.items():
            name = "c" + variant.replace(".", "")
            out = c / f"d{d}_{name}.json"
            derive(variant, [str(src[lv]), "canonical-solution", lv, "--variant",
                             variant, "--name", name], out,
                   {"algebras": (f"{name}_double",), "tensors": (f"{name}_tensor",)})
            check(f"check {variant}", out, f"{name}_tensor")

        # the canonical cocycle form on the Cor2.2.8 double is a nondegenerate
        # skew Connes cocycle, because the canonical tensor solves its equation
        canon = c / f"d{d}_cCor228.json"
        with_form = c / f"d{d}_cCor228_form.json"

        def add_form(canon=canon, with_form=with_form, d=d):
            doc = json.loads(canon.read_text(encoding="utf-8"))
            omega = ca.forms.canonical_cocycle_form(d)
            doc["forms"] = {"omega": ca.bundle.serialize_form(omega)}
            _write(ca, with_form, doc)

        want_flags = ("skew: true", "nondegenerate: true", "connes_cocycle: true")
        table["classify"] = Op(
            f"d{d} classify", ["classify", str(with_form), "cCor228_double", "omega"],
            lambda rc, out: rc == 0 and all(f in out.splitlines() for f in want_flags),
            before=add_form)
        finer = c / f"d{d}_finer.json"
        derive("finer-from-form", [str(with_form), "finer-from-form",
                                   "cCor228_double", "omega", "--name", "finer"],
               finer, {"algebras": ("finer",)})
        table["finer-from-form"].before = add_form
        check("check finer", finer, "finer")
        ops.extend(table[label] for label in wanted)
    return ops


# ---------------------------------------------------------------------------
# dense-verify: checks that must pass, on densely rebased rational data

# Levels checked per dimension.  At d=5, level-8 axioms take over a second
# (their oracle several more), and the level-4 map checks and level-2
# bimodule check each take about as long as the whole d=3 part; they are
# left out to keep a cycle short.
DENSE_LEVELS = {3: (1, 2, 4, 8), 4: (1, 2, 4, 8), 5: (1, 2, 4)}
DENSE_MAP_LEVELS = {3: (1, 2, 4), 4: (1, 2, 4), 5: (2,)}
DENSE_BIMODULE_LEVELS = {3: (1, 2, 4), 4: (1, 2, 4), 5: (1,)}
# (what, d, level): one seeded one-entry mutant each, 3 of 35 ops
DENSE_MUTANTS = (("algebra", 3, 4), ("map", 4, 2), ("bimodule", 3, 2))
SMOKE_DENSE = ({2: (1, 2, 4, 8)}, {2: (1, 2, 4)}, {2: (1, 2, 4)},
               (("algebra", 2, 2), ("map", 2, 1), ("bimodule", 2, 1)))


def _rebase(ca, a, p, q):
    """Structure constants of `a` in the basis f_i = sum_x p[x][i] e_x."""
    d = a.dim
    sc = {}
    for op, t in a.sc.items():
        nz = list(t.nonzero())
        buf = [Fraction(0)] * d ** 3
        for i in range(d):
            for j in range(d):
                for x, y, c, v in nz:
                    pv = p[x, i] * p[y, j] * v
                    if pv:
                        for k in range(d):
                            if q[k, c]:
                                buf[(i * d + j) * d + k] += pv * q[k, c]
        sc[op] = ca.linalg.Tensor3((d, d, d), buf)
    return ca.core.ClusterAlgebra(a.level, d, sc)


# Magnitudes of the rationals in the rescaling and the basis change, by
# position.  A seed picks their signs, so every seed varies the values while
# the size of the exact arithmetic, and with it the cost, stays the same.
_MAGNITUDES = tuple(Fraction(n, q) for n, q in
                    ((1, 2), (2, 3), (3, 2), (1, 3), (3, 4), (4, 3), (2, 1), (1, 1)))


def _signed(ca, count: int, seed: int) -> list[Fraction]:
    rng = ca.catalog.SplitMix64(seed)
    return [_MAGNITUDES[i % len(_MAGNITUDES)] * (1 - 2 * rng.randrange(2))
            for i in range(count)]


def _random_invertible(ca, d: int, rng):
    """P = L U, L unit lower and U upper triangular with diagonal 2, their
    other entries seeded: dense, and det P = 2^d for every seed."""
    below = iter(_signed(ca, d * (d - 1) // 2, rng()))
    above = iter(_signed(ca, d * (d - 1) // 2, rng()))
    lower = [[next(below) if j < i else int(i == j) for j in range(d)] for i in range(d)]
    upper = [[next(above) if j > i else 2 * int(i == j) for j in range(d)] for i in range(d)]
    p = ca.linalg.Matrix(lower) @ ca.linalg.Matrix(upper)
    return p, p.inverse()


def _mutate_entries(ca, entries: list, index: int, delta: Fraction) -> list:
    """Shift one entry's value (the last field) by a nonzero delta."""
    out = [list(e) for e in entries]
    value = ca.linalg.parse_rational(out[index][-1]) + delta
    out[index][-1] = ca.linalg.format_rational(value)
    return out


def build_dense_verify(ca, work: Path, seed: int, smoke: bool) -> dict:
    levels, map_levels, bim_levels, mutants = (
        SMOKE_DENSE if smoke else
        (DENSE_LEVELS, DENSE_MAP_LEVELS, DENSE_BIMODULE_LEVELS, DENSE_MUTANTS))
    next_seed = _seeds(ca, seed, 0xDE)
    ser = ca.bundle
    per_d = {}
    for d in levels:
        a, r = _trunc_int(ca, d)
        p, q = _random_invertible(ca, d, next_seed)
        tower = {lv: _rebase(ca, alg, p, q)
                 for lv, alg in _tower(ca, a, r, levels[d]).items()}
        rb = ca.operators.InterMap(q @ r.matrix @ p)
        doc = {"field": "Q", "algebras": {}, "maps": {}, "bimodules": {}}
        for lv, alg in tower.items():
            doc["algebras"][f"a{lv}"] = ser.serialize_algebra(alg)
            if lv in map_levels[d]:
                doc["maps"][f"r{lv}"] = {**ser.serialize_intermap(rb), "algebra": f"a{lv}"}
                doc["maps"][f"o{lv}"] = {**ser.serialize_intermap(rb),
                                         "algebra": f"a{lv}", "bimodule": f"m{lv}"}
            if lv in map_levels[d] or lv in bim_levels[d]:
                doc["bimodules"][f"m{lv}"] = {
                    **ser.serialize_bimodule(ca.bimodules.regular_bimodule(alg)),
                    "algebra": f"a{lv}"}
        per_d[d] = doc
    # mutants: one entry of one object shifted, in bundles of their own so
    # that they do not change the size of the bundles the passing checks read
    for what, d, lv in mutants:
        rng = ca.catalog.SplitMix64(next_seed())
        src = per_d[d]
        doc = {"field": "Q", "algebras": {f"a{lv}": src["algebras"][f"a{lv}"]}}
        if what == "algebra":
            key, field = ("algebras", f"a{lv}"), "sc"
        elif what == "map":
            doc["maps"] = {f"r{lv}": dict(src["maps"][f"r{lv}"])}
            key, field = ("maps", f"r{lv}"), "entries"
        elif what == "o-map":
            doc["maps"] = {f"o{lv}": dict(src["maps"][f"o{lv}"])}
            doc["bimodules"] = {f"m{lv}": src["bimodules"][f"m{lv}"]}
            key, field = ("maps", f"o{lv}"), "entries"
        else:
            doc["bimodules"] = {f"m{lv}": dict(src["bimodules"][f"m{lv}"])}
            key, field = ("bimodules", f"m{lv}"), "entries"
        obj = dict(doc[key[0]][key[1]])
        entries = obj[field]
        obj[field] = _mutate_entries(ca, entries, rng.randrange(len(entries)),
                                     _nonzero_rational(rng))
        doc[key[0]][key[1]] = obj
        per_d[(what, d, lv)] = doc
    paths = {}
    for key, doc in per_d.items():
        name = f"dense_d{key}.json" if isinstance(key, int) else "mut_{}_d{}_l{}.json".format(*key)
        paths[key] = work / name
        _write(ca, paths[key], doc)
    return {"paths": paths, "levels": levels, "map_levels": map_levels,
            "bim_levels": bim_levels, "mutants": mutants}


def _semidirect_oracle(ca, oracles, a, m) -> bool:
    """A bimodule verdict: rebuild A (+) V from the raw action matrices and
    ask the brute-force axiom oracle whether it is an algebra of a's kind."""
    d, md = a.dim, m.module_dim
    entries = []
    for op in a.level.ops:
        entries += [(op, i, j, k, v) for i, j, k, v in a.sc[op].nonzero()]
        for i in range(d):
            for row in range(md):
                for col in range(md):
                    if m.lmap[op][i][row, col]:
                        entries.append((op, i, d + col, d + row, m.lmap[op][i][row, col]))
                    if m.rmap[op][i][row, col]:
                        entries.append((op, d + col, i, d + row, m.rmap[op][i][row, col]))
    return oracles.oracle_axioms(ca.core.algebra_from_entries(int(a.level), d + md, entries))


def ops_dense_verify(ca, inputs: dict, oracles, cycle_dir: Path, smoke: bool) -> list[Op]:
    loaded = {key: ca.bundle.load_bundle(path) for key, path in inputs["paths"].items()}

    def verdicts(bundle, name, kind):
        if kind == "algebras":
            return oracles.oracle_axioms(bundle.algebras[name])
        if kind == "maps":
            alg = bundle.algebras[bundle.ref("maps", name, "algebra")]
            bim = bundle.ref("maps", name, "bimodule")
            if bim:  # a map T is an O-operator for the regular bimodule
                # exactly when it is a weight-zero Rota-Baxter operator
                regular = ca.bimodules.regular_bimodule(alg)
                if bundle.bimodules[bim] != regular:
                    raise ValueError("O-operator checks use the regular bimodule")
            return oracles.oracle_rota_baxter(alg, bundle.maps[name].matrix)
        alg = bundle.algebras[bundle.ref("bimodules", name, "algebra")]
        return _semidirect_oracle(ca, oracles, alg, bundle.bimodules[name])

    def op(key, name, kind):
        bundle = loaded[key]
        ok = verdicts(bundle, name, kind)
        return Op(f"{key} {kind} {name}", ["check", str(inputs["paths"][key]), name],
                  _verdict(ok, name))

    ops = []
    for d, levels in inputs["levels"].items():
        ops += [op(d, f"a{lv}", "algebras") for lv in levels]
        maps = inputs["map_levels"][d]
        ops += [op(d, f"r{lv}", "maps") for lv in maps]
        ops += [op(d, f"o{lv}", "maps") for lv in maps]
        ops += [op(d, f"m{lv}", "bimodules") for lv in inputs["bim_levels"][d]]
    kinds = {"algebra": ("a", "algebras"), "map": ("r", "maps"),
             "o-map": ("o", "maps"), "bimodule": ("m", "bimodules")}
    for what, d, lv in inputs["mutants"]:
        prefix, kind = kinds[what]
        ops.append(op((what, d, lv), f"{prefix}{lv}", kind))
    return ops


# ---------------------------------------------------------------------------
# screen-tensors: many cheap, mostly failing checks on fixed-size bundles

SCREEN_DIMS = (3, 4, 5)
# equation per level; the q-dual forms take skew tensors only
_SCREEN_EQ = {1: (("aybe", ("skew", "sym", "none", "zero")),),
              2: (("d", ("skew", "sym", "none", "zero")),),
              4: (("q", ("skew", "none", "zero")), ("q-dual", ("skew", "zero"))),
              8: (("o", ("skew", "sym", "none", "zero")),)}
# forms classified per level (the parity the level's bridge flag needs first)
_SCREEN_FORMS = {1: ("skew", "sym"), 2: ("sym", "skew"), 4: ("skew", "sym"), 8: ()}
# known solutions: canonical tensors on the d=3 doubles
_SCREEN_CANON = (("Cor2.2.8", "aybe"), ("Cor3.3.8", "d"), ("Cor4.2.10", "q"),
                 ("Cor4.2.10", "q-dual"), ("Cor4.4.13", "q"))
# oracle for each equation, and the form flag the tensor-form bridge ties
# to it: an invertible r solves the equation iff B = grid(r)^-1 has the flag
_ORACLE = {"aybe": "oracle_aybe", "d": "oracle_d_equation", "q": "oracle_q_equation",
           "q-dual": "oracle_q_equation", "o": "oracle_o_equation"}
_BRIDGE = {1: ("skew", "connes_cocycle", "aybe"), 2: ("symmetric", "dend_2cocycle", "d"),
           4: ("skew", "quadri_2cocycle", "q")}
# oracle parts per equation: a violation count is known when all were evaluated
_ORACLE_PARTS = {"aybe": 1, "d": 1, "q": 2, "o": 4}


def _zero_free_grid(ca, d: int, parity: str, seed: int):
    """A seeded d x d grid of the given parity ("skew", "sym" or "none")
    whose entries are all nonzero where the parity allows.  What a failing
    check costs depends on where its tensor or form is zero, so a fixed
    zero pattern leaves a seed only the values to vary: the cost stays the
    same from seed to seed, as in the other workloads."""
    rng = ca.catalog.SplitMix64(seed)
    grid = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            if parity == "none" or (i == j and parity == "sym"):
                grid[i][j] = _nonzero_rational(rng)
            elif j > i:
                v = _nonzero_rational(rng)
                grid[i][j], grid[j][i] = v, v if parity == "sym" else -v
    return ca.linalg.Matrix(grid)


def build_screen_tensors(ca, work: Path, seed: int, smoke: bool) -> dict:
    next_seed = _seeds(ca, seed, 0x5C)
    ser, cat = ca.bundle, ca.catalog
    paths = {}
    for d in ((3,) if smoke else SCREEN_DIMS):
        a, r = _trunc_int(ca, d)
        for lv, alg in _tower(ca, a, r).items():
            tensors = {"r_zero": ser.serialize_tensor2(ca.yangbaxter.Tensor2.zeros(d))}
            for parity in ("skew", "sym", "none"):
                t = ca.yangbaxter.Tensor2(_zero_free_grid(ca, d, parity, next_seed()))
                tensors[f"r_{parity}"] = ser.serialize_tensor2(t, symmetry=parity)
            forms = {f"b_{parity}": ser.serialize_form(
                         ca.forms.BilinearForm(_zero_free_grid(ca, d, parity, next_seed())))
                     for parity in ("skew", "sym")}
            for section in (tensors, forms):
                for doc in section.values():
                    doc["algebra"] = "A"
            paths[(lv, d)] = work / f"screen_l{lv}_d{d}.json"
            _write(ca, paths[(lv, d)], {"field": "Q",
                                        "algebras": {"A": ser.serialize_algebra(alg)},
                                        "tensors": tensors, "forms": forms})
    dend, quadri, octo = (cat.load(n).value for n in (
        "dend_from_int3", "quadri_from_int3_pair", "octo_from_int3_triple"))
    source = {"Cor2.2.8": dend, "Cor3.3.8": dend, "Cor4.2.10": quadri, "Cor4.4.13": octo}
    for variant in dict(_SCREEN_CANON):
        lift = ca.yangbaxter.canonical_double_solution(source[variant], variant)
        tensor = {**ser.serialize_tensor2(lift.tensor, symmetry=_CANONICAL[variant][1]),
                  "algebra": "A"}
        doc = {"field": "Q", "algebras": {"A": ser.serialize_algebra(lift.double)},
               "tensors": {"canon": tensor}}
        if variant == "Cor2.2.8":
            omega = ca.forms.canonical_cocycle_form(lift.double.dim // 2)
            doc["forms"] = {"omega": {**ser.serialize_form(omega), "algebra": "A"}}
        paths[variant] = work / f"screen_{variant}.json"
        _write(ca, paths[variant], doc)
    return {"paths": paths}


def _oracle_equation(oracles, eq: str, a, r) -> tuple[bool, int | None]:
    """Oracle verdict, and the nonzero count of the identities it evaluated
    when it evaluated every one (the oracle stops at the first failing part)."""
    parts = []
    formal_sum = oracles._formal_sum

    def recording(*args):
        total = formal_sum(*args)
        parts.append(sum(1 for plane in total for row in plane for v in row if v))
        return total

    oracles._formal_sum = recording
    try:
        ok = getattr(oracles, _ORACLE[eq])(a, r)
    finally:
        oracles._formal_sum = formal_sum
    full = eq in _ORACLE_PARTS and len(parts) == _ORACLE_PARTS[eq]
    return ok, (sum(parts) if full else None)


def _classify_expect(ca, oracles, alg, form):
    """Parity and nondegeneracy from the raw grid; the level's bridge flag
    from the equation oracle on grid(B)^-1 where the bridge applies."""
    d = form.dim
    grid = [[form.matrix[i, j] for j in range(d)] for i in range(d)]
    want = {"symmetric": all(grid[i][j] == grid[j][i] for i in range(d) for j in range(d)),
            "skew": all(grid[i][j] == -grid[j][i] for i in range(d) for j in range(d))}
    inverse = _inverse(grid)
    want["nondegenerate"] = inverse is not None
    flags = {}
    bridge = _BRIDGE.get(int(alg.level))
    if bridge and inverse is not None and want[bridge[0]]:
        r = ca.yangbaxter.Tensor2(ca.linalg.Matrix(inverse))
        flags[bridge[1]] = _oracle_equation(oracles, bridge[2], alg, r)[0]

    def expect(rc: int, out: str) -> bool:
        doc = json.loads(out)
        return (rc == 0 and all(doc[k] is v for k, v in want.items())
                and all(doc["flags"][k] is v for k, v in flags.items()))
    return expect


def ops_screen_tensors(ca, inputs: dict, oracles, cycle_dir: Path, smoke: bool) -> list[Op]:
    paths = inputs["paths"]
    ops = []

    def eq_op(path, name, eq, alg, tensor, label):
        ok, count = _oracle_equation(oracles, eq, alg, tensor)
        return Op(label, ["check", str(path), name, "--equation", eq, "--json"],
                  _json_verdict(ok, count))

    for key, path in paths.items():
        if not isinstance(key, tuple):
            continue
        lv, d = key
        bundle = ca.bundle.load_bundle(path)
        alg = bundle.algebras["A"]
        for eq, names in _SCREEN_EQ[lv]:
            ops += [eq_op(path, f"r_{n}", eq, alg, bundle.tensors[f"r_{n}"],
                          f"l{lv} d{d} {eq} {n}") for n in names]
        for parity in _SCREEN_FORMS[lv]:
            ops.append(Op(f"l{lv} d{d} classify {parity}",
                          ["classify", str(path), "A", f"b_{parity}", "--json"],
                          _classify_expect(ca, oracles, alg, bundle.forms[f"b_{parity}"])))
    for variant, eq in _SCREEN_CANON:
        bundle = ca.bundle.load_bundle(paths[variant])
        ops.append(eq_op(paths[variant], "canon", eq, bundle.algebras["A"],
                         bundle.tensors["canon"], f"{variant} {eq}"))
    omega_bundle = ca.bundle.load_bundle(paths["Cor2.2.8"])
    ops.append(Op("Cor2.2.8 classify omega",
                  ["classify", str(paths["Cor2.2.8"]), "A", "omega", "--json"],
                  _classify_expect(ca, oracles, omega_bundle.algebras["A"],
                                   omega_bundle.forms["omega"])))
    return ops


WORKLOADS = {
    "derive-chain": (build_derive_chain, ops_derive_chain),
    "dense-verify": (build_dense_verify, ops_dense_verify),
    "screen-tensors": (build_screen_tensors, ops_screen_tensors),
}
