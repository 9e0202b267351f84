"""Independent brute-force verifiers used as test oracles.

Everything here is written directly from the defining identities with
raw nested loops over coordinates, deliberately not sharing code with
the production checkers: products are evaluated through plain nested
lists, bimodule-style statements are certified through raw semidirect
reconstruction, and the tensor equations go through a small formal
placed-tensor engine instead of closed-form index formulas.  The only
names imported from the package are the data types ClusterAlgebra and
Tensor3 (tests/test_oracles.py enforces this).
"""

from __future__ import annotations

from fractions import Fraction

from clusteralg.core import ClusterAlgebra
from clusteralg.linalg import Tensor3

F0 = Fraction(0)


def nested(t: Tensor3) -> list:
    """t as nested lists, read entry by entry (not through its listing)."""
    d1, d2, d3 = t.dims
    return [[[t.get(p, q, r) for r in range(d3)] for q in range(d2)] for p in range(d1)]


def sc_nested(a: ClusterAlgebra) -> dict[str, list]:
    return {op: nested(t) for op, t in a.sc.items()}


def add_sc(*cs: list) -> list:
    d = len(cs[0])
    return [[[sum((c[i][j][k] for c in cs), F0) for k in range(d)]
             for j in range(d)] for i in range(d)]


def prod(c: list, x: list, y: list) -> list:
    """Coordinates of x o y for the structure constants c (nested lists)."""
    d = len(c)
    out = [F0] * d
    for i, xv in enumerate(x):
        if not xv:
            continue
        for j, yv in enumerate(y):
            if not yv:
                continue
            row = c[i][j]
            for k in range(d):
                if row[k]:
                    out[k] += xv * yv * row[k]
    return out


def _basis(d: int, i: int) -> list:
    e = [F0] * d
    e[i] = Fraction(1)
    return e


def _triples_hold(d: int, identities) -> bool:
    for i in range(d):
        x = _basis(d, i)
        for j in range(d):
            y = _basis(d, j)
            for k in range(d):
                z = _basis(d, k)
                for lhs, rhs in identities:
                    if lhs(x, y, z) != rhs(x, y, z):
                        return False
    return True


def oracle_assoc(a: ClusterAlgebra) -> bool:
    c = nested(a.sc["star"])
    return _triples_hold(a.dim, [
        (lambda x, y, z: prod(c, prod(c, x, y), z),
         lambda x, y, z: prod(c, x, prod(c, y, z))),
    ])


def oracle_dendriform(a: ClusterAlgebra) -> bool:
    cs = sc_nested(a)
    gt, lt = cs["succ"], cs["prec"]
    st = add_sc(gt, lt)
    return _triples_hold(a.dim, [
        # (x < y) < z = x < (y * z)
        (lambda x, y, z: prod(lt, prod(lt, x, y), z),
         lambda x, y, z: prod(lt, x, prod(st, y, z))),
        # (x > y) < z = x > (y < z)
        (lambda x, y, z: prod(lt, prod(gt, x, y), z),
         lambda x, y, z: prod(gt, x, prod(lt, y, z))),
        # (x * y) > z = x > (y > z)
        (lambda x, y, z: prod(gt, prod(st, x, y), z),
         lambda x, y, z: prod(gt, x, prod(gt, y, z))),
    ])


def oracle_quadri(a_or_sc, dim: int | None = None) -> bool:
    if isinstance(a_or_sc, ClusterAlgebra):
        cs = sc_nested(a_or_sc)
        d = a_or_sc.dim
    else:
        cs, d = a_or_sc, dim
    se, ne, nw, sw = cs["se"], cs["ne"], cs["nw"], cs["sw"]
    succ = add_sc(ne, se)
    prec = add_sc(nw, sw)
    vee = add_sc(se, sw)
    wedge = add_sc(ne, nw)
    star = add_sc(se, ne, nw, sw)
    rows = [
        (nw, nw, nw, star), (nw, ne, ne, prec), (ne, wedge, ne, succ),
        (nw, sw, sw, wedge), (nw, se, se, nw), (ne, vee, se, ne),
        (sw, prec, sw, vee), (sw, succ, se, sw), (se, star, se, se),
    ]
    identities = [
        (lambda x, y, z, o=o, i=i: prod(o, prod(i, x, y), z),
         lambda x, y, z, o2=o2, i2=i2: prod(o2, x, prod(i2, y, z)))
        for o, i, o2, i2 in rows
    ]
    return _triples_hold(d, identities)


def oracle_octo(a: ClusterAlgebra) -> bool:
    """An 8-tuple is an octo-algebra iff the depth sums form a quadri-algebra
    and adjoining a second copy of the space, acted on from the left by the
    index-2 operations and from the right by the index-1 operations, is again
    a quadri-algebra.  Both facts are checked with raw loops."""
    cs = sc_nested(a)
    d = a.dim
    depth = {op: add_sc(cs[op + "1"], cs[op + "2"]) for op in ("se", "ne", "nw", "sw")}
    if not oracle_quadri(depth, d):
        return False
    n = 2 * d
    big = {}
    for op in ("se", "ne", "nw", "sw"):
        c = [[[F0] * n for _ in range(n)] for _ in range(n)]
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    v = depth[op][i][j][k]
                    if v:
                        c[i][j][k] = v
                    # left action of e_i on the copy: the index-2 operation
                    v2 = cs[op + "2"][i][j][k]
                    if v2:
                        c[i][d + j][d + k] = v2
                    # right action of e_j on the copy: the index-1 operation
                    v1 = cs[op + "1"][i][j][k]
                    if v1:
                        c[d + i][j][d + k] = v1
        big[op] = c
    return oracle_quadri(big, n)


def oracle_axioms(a: ClusterAlgebra) -> bool:
    return {1: oracle_assoc, 2: oracle_dendriform, 4: oracle_quadri,
            8: oracle_octo}[int(a.level)](a)


def semidirect(a: ClusterAlgebra, m) -> ClusterAlgebra:
    """A (+) V with e_i . v = l(e_i) v, v . e_i = r(e_i) v and V.V = 0,
    rebuilt entry by entry from raw nested lists."""
    d, md = a.dim, m.module_dim
    n = d + md
    sc = {}
    for op, t in a.sc.items():
        c = [[[F0] * n for _ in range(n)] for _ in range(n)]
        base = nested(t)
        for i in range(d):
            for j in range(d):
                c[i][j][:d] = base[i][j]
            lmat, rmat = m.lmap[op][i], m.rmap[op][i]
            for row in range(md):
                for col in range(md):
                    c[i][d + col][d + row] = lmat[row, col]
                    c[d + col][i][d + row] = rmat[row, col]
        sc[op] = Tensor3((n, n, n), [v for plane in c for line in plane for v in line])
    return ClusterAlgebra(a.level, n, sc)


def oracle_bimodule(a: ClusterAlgebra, m) -> bool:
    """(l, r, V) is a bimodule iff A (+) V is an algebra of a's level."""
    return oracle_axioms(semidirect(a, m))


def oracle_axiom_report(a: ClusterAlgebra, table) -> list:
    """The failing rows of the identities in table, as (id, (i, j, k),
    lhs - rhs on (e_i, e_j, e_k)) in table order and then basis-triple
    order; an empty list means every identity holds.  table lists (id,
    ("L", outer, inner), ("R", outer, inner)), for (x inner y) outer z =
    x outer (y inner z); an op is a base or summed operation of a.  Raw
    loops over nested lists, in Fraction."""
    d = a.dim
    ops = _operations(a)
    rows = []
    for ident, *sides in table:
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    x, y, z = _basis(d, i), _basis(d, j), _basis(d, k)
                    total = [F0] * d
                    for sign, (shape, outer, inner) in zip((1, -1), sides):
                        if shape == "L":
                            value = prod(ops[outer], prod(ops[inner], x, y), z)
                        else:
                            value = prod(ops[outer], x, prod(ops[inner], y, z))
                        total = [t + sign * v for t, v in zip(total, value)]
                    if any(total):
                        rows.append((ident, (i, j, k), tuple(total)))
    return rows


def oracle_rota_baxter(a: ClusterAlgebra, matrix) -> bool:
    """R(x) o R(y) = R(R(x) o y + x o R(y)) for every operation, raw loops."""
    d = a.dim
    cols = [[matrix[r, c] for r in range(d)] for c in range(d)]

    def apply(vec):
        out = [F0] * d
        for c, v in enumerate(vec):
            if v:
                for r in range(d):
                    out[r] += v * cols[c][r]
        return out

    for op in a.level.ops:
        c = nested(a.sc[op])
        for i in range(d):
            x = _basis(d, i)
            rx = apply(x)
            for j in range(d):
                y = _basis(d, j)
                ry = apply(y)
                lhs = prod(c, rx, ry)
                inner = [u + v for u, v in zip(prod(c, rx, y), prod(c, x, ry))]
                if lhs != apply(inner):
                    return False
    return True


# The canonical coarser projection of each finer level, written out: each
# operation of the coarser algebra is the sum of the listed finer ones.
_COARSER = {
    2: {"star": ("succ", "prec")},
    4: {"succ": ("ne", "se"), "prec": ("nw", "sw")},
    8: {"se": ("se1", "se2"), "ne": ("ne1", "ne2"), "nw": ("nw1", "nw2"),
        "sw": ("sw1", "sw2")},
}


def oracle_homomorphism(finer: ClusterAlgebra, a: ClusterAlgebra, matrix) -> list:
    """The failing rows of T(e_i o e_j) = T(e_i) op T(e_j), where o runs over
    the canonical coarser projection of finer and T: finer -> a has the
    given matrix, as ("hom-op", (i, j), T(e_i o e_j) - T(e_i) op T(e_j))
    in the checker's order.  Raw loops; an empty list means T is a
    homomorphism."""
    d, n = a.dim, finer.dim
    cols = [[matrix[r, c] for r in range(d)] for c in range(n)]
    rows = []
    for op, parts in _COARSER[int(finer.level)].items():
        coarse = add_sc(*(nested(finer.sc[p]) for p in parts))
        c = nested(a.sc[op])
        for i in range(n):
            for j in range(n):
                lhs = [F0] * d
                for k in range(n):
                    for r in range(d):
                        lhs[r] += coarse[i][j][k] * cols[k][r]
                rhs = prod(c, cols[i], cols[j])
                diff = tuple(x - y for x, y in zip(lhs, rhs))
                if any(diff):
                    rows.append((f"hom-{op}", (i, j), diff))
    return rows


# ---------------------------------------------------------------------------
# formal placed-tensor engine for the equations

def place(r, slots: tuple[int, int]) -> list:
    """Terms (coef, contents) with contents a 3-slot tuple, None = blank."""
    out = []
    for i, j, v in r.grid.nonzero():
        contents = [None, None, None]
        contents[slots[0] - 1] = i
        contents[slots[1] - 1] = j
        out.append((v, tuple(contents)))
    return out


def formal_mul(c: list, xs: list, ys: list, d: int) -> list:
    """Product of two placed tensors; the shared slot multiplies via c with
    the first argument on the left.  Returns a dense d^3 nested list."""
    out = [[[F0] * d for _ in range(d)] for _ in range(d)]
    for cx, xc in xs:
        for cy, yc in ys:
            shared = [s for s in range(3) if xc[s] is not None and yc[s] is not None]
            assert len(shared) == 1, "placements must overlap in exactly one slot"
            s = shared[0]
            coef = cx * cy
            row = c[xc[s]][yc[s]]
            base = [xc[t] if xc[t] is not None else yc[t] for t in range(3)]
            for k in range(d):
                if row[k]:
                    idx = list(base)
                    idx[s] = k
                    out[idx[0]][idx[1]][idx[2]] += coef * row[k]
    return out


# The summed operations the axioms, equations and form conditions use,
# written out per level.
_SUMS = {
    2: {"star": ("succ", "prec")},
    4: {"succ": ("ne", "se"), "prec": ("nw", "sw"), "vee": ("se", "sw"),
        "wedge": ("ne", "nw"), "star": ("se", "ne", "nw", "sw")},
    8: {"se12": ("se1", "se2"), "ne12": ("ne1", "ne2"), "nw12": ("nw1", "nw2"),
        "sw12": ("sw1", "sw2"), "succ1": ("ne1", "se1"), "prec2": ("nw2", "sw2"),
        "vee1": ("se1", "sw1"), "wedge2": ("ne2", "nw2"),
        "sigma1": ("se1", "ne1", "nw1", "sw1"), "sigma2": ("se2", "ne2", "nw2", "sw2"),
        "succ2": ("ne2", "se2"), "prec1": ("nw1", "sw1"), "vee2": ("se2", "sw2"),
        "wedge1": ("ne1", "nw1"), "gg": ("ne1", "se1", "ne2", "se2"),
        "ll": ("nw1", "sw1", "nw2", "sw2"), "bigvee": ("se1", "sw1", "se2", "sw2"),
        "bigwedge": ("ne1", "nw1", "ne2", "nw2"),
        "star": ("se1", "se2", "ne1", "ne2", "nw1", "nw2", "sw1", "sw2")},
}


def _operations(a: ClusterAlgebra) -> dict[str, list]:
    """The base and summed operations of a as nested lists."""
    ops = sc_nested(a)
    ops.update((sym, add_sc(*(ops[p] for p in parts)))
               for sym, parts in _SUMS.get(int(a.level), {}).items())
    return ops


def _formal_sum(a: ClusterAlgebra, r, terms) -> list:
    d = a.dim
    cache: dict[str, list] = {}

    def tens(sym: str) -> list:
        if sym not in cache:
            base = sc_nested(a)
            if sym in base:
                cache[sym] = base[sym]
            else:
                cache[sym] = add_sc(*(base[p] for p in _SUMS[int(a.level)][sym]))
        return cache[sym]

    total = [[[F0] * d for _ in range(d)] for _ in range(d)]
    for sign, op, p1, p2 in terms:
        term = formal_mul(tens(op), place(r, p1), place(r, p2), d)
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    total[i][j][k] += sign * term[i][j][k]
    return total


def _is_zero3(t: list) -> bool:
    return all(v == 0 for plane in t for row in plane for v in row)


def oracle_aybe(a: ClusterAlgebra, r) -> bool:
    return _is_zero3(_formal_sum(a, r, [
        (1, "star", (1, 2), (1, 3)), (1, "star", (1, 3), (2, 3)),
        (-1, "star", (2, 3), (1, 2))]))


def oracle_d_equation(a: ClusterAlgebra, r) -> bool:
    return _is_zero3(_formal_sum(a, r, [
        (1, "star", (1, 2), (1, 3)), (-1, "prec", (1, 3), (2, 3)),
        (-1, "succ", (2, 3), (1, 2))]))


def oracle_q_equation(a: ClusterAlgebra, r) -> bool:
    first = _formal_sum(a, r, [
        (1, "succ", (1, 3), (2, 3)), (-1, "ne", (2, 3), (1, 2)),
        (-1, "nw", (2, 3), (1, 2)), (-1, "sw", (1, 2), (1, 3))])
    second = _formal_sum(a, r, [
        (1, "prec", (1, 3), (2, 3)), (1, "ne", (2, 3), (1, 2)),
        (1, "se", (1, 2), (1, 3)), (1, "sw", (1, 2), (1, 3))])
    return _is_zero3(first) and _is_zero3(second)


def oracle_o_equation(a: ClusterAlgebra, r) -> bool:
    parts = [
        [(1, "se12", (1, 3), (2, 3)), (-1, "sigma1", (2, 3), (1, 2)),
         (-1, "nw2", (1, 2), (1, 3))],
        [(1, "ne12", (1, 3), (2, 3)), (1, "vee1", (2, 3), (1, 2)),
         (1, "prec2", (1, 2), (1, 3))],
        [(1, "nw12", (1, 3), (2, 3)), (-1, "se1", (2, 3), (1, 2)),
         (-1, "sigma2", (1, 2), (1, 3))],
        [(1, "sw12", (1, 3), (2, 3)), (1, "succ1", (2, 3), (1, 2)),
         (1, "wedge2", (1, 2), (1, 3))],
    ]
    return all(_is_zero3(_formal_sum(a, r, p)) for p in parts)


# ---------------------------------------------------------------------------
# form conditions

def oracle_form_conditions(a: ClusterAlgebra, grid, table, finer=None) -> list:
    """The failing rows of the form conditions in table, as (name, (i, j,
    k), value) in table order and then basis-triple order, where value is
    the condition's signed sum on (e_i, e_j, e_k) in Fraction; an empty
    list means every condition holds.  table maps a name to terms
    (sign, ("pk", op, u, v, w)) for B(u op v, w) and (sign, ("kp", u, op,
    v, w)) for B(u, v op w), with u, v, w among "x", "y", "z"; grid is
    indexed grid[i, j] = B(e_i, e_j).  An op is a base or summed
    operation of a, or a base operation of finer when one is given.
    Raw loops over nested lists."""
    d = a.dim
    b = [[grid[i, j] for j in range(d)] for i in range(d)]
    ops = _operations(a)
    if finer is not None:
        ops.update(sc_nested(finer))
    rows = []
    for name, terms in table.items():
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    at = {"x": i, "y": j, "z": k}
                    total = F0
                    for sign, term in terms:
                        # e_i op e_j has the coordinates ops[op][i][j]
                        if term[0] == "pk":  # B(u op v, w)
                            _, op, u, v, w = term
                            uv, col = ops[op][at[u]][at[v]], [row[at[w]] for row in b]
                        else:  # B(u, v op w)
                            _, u, op, v, w = term
                            uv, col = ops[op][at[v]][at[w]], b[at[u]]
                        total += sign * sum((x * y for x, y in zip(uv, col) if x), F0)
                    if total:
                        rows.append((name, (i, j, k), total))
    return rows


# ---------------------------------------------------------------------------
# linear algebra

def oracle_rref(grid: list) -> tuple[tuple[int, ...], list]:
    """The pivot columns and the rows of the reduced row-echelon form of
    grid (nested lists of rationals), by Gauss-Jordan elimination in
    Fraction: each pivot row is divided by its pivot, and the pivot
    column is cleared above and below.  The zero rows come last."""
    rows = [[Fraction(v) for v in row] for row in grid]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [v / rows[r][col] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    return tuple(pivots), rows
