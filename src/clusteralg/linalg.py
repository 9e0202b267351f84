"""Exact rational scalars, dense matrices and order-3 tensors.

Everything in this package is computed over the rational field; there
is no floating point anywhere, so every identity check reduces to an
exact zero test.  The objects here store ``fractions.Fraction`` entries
densely, which suits building and transforming desk-scale objects; a
``Tensor3`` also keeps the sorted listing of its nonzero entries.  The
identity checkers and every product a map transports (one contraction,
``operators._transported``) do not evaluate in ``Fraction``: they clear
each object's denominators once (``core.scaled_fibres``, ``Matrix.scaled_cols``)
and sum over nonzero entries only, on Python ints: several times faster, as exact.
On dense data they pack an integer vector into one int (``packed``, one
balanced base-2^B digit per entry, B from ``width_for`` a bound on every
entry) and unpack only a nonzero result (``unpacked``).

Every exact solve (``Matrix.solve`` and ``inverse``, ``solve_consistent``)
and the rank profile (``row_echelon_pivots``) read one fraction-free
Gauss-Jordan reduction (Bareiss) of the integer-cleared augmented matrix,
``_eliminate``: its divisions are exact and its entries stay polynomially
bounded, and a solution is a reduced right-hand side over the pivot.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Iterator, Sequence

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Singular(ArithmeticError):
    """Raised when an exact solve meets a rank-deficient square matrix."""


class DimensionMismatch(ValueError):
    """Operands whose shapes cannot be combined."""


def rat(value) -> Fraction:
    """Coerce an int, string ("p" or "p/q") or Fraction to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


# The longest repr an error message shows whole.
_SHOWN = 64


def shown(value, show: Callable[[object], str] = repr) -> str:
    """show(value) for an error message: whole up to _SHOWN characters,
    cut short after that, so an oversized input is not echoed back."""
    text = show(value)
    if len(text) <= _SHOWN:
        return text
    return f"{text[:_SHOWN]}... ({len(text)} characters)"


def rational_parts(text: str) -> tuple[int, int]:
    """p and q != 0 of "p" or "p/q" as written: parse_rational's check."""
    num, sep, den = text.strip().partition("/")
    try:
        p, q = int(num), int(den) if sep else 1
    except ValueError as exc:
        raise ValueError(f"not a rational literal: {shown(text)}") from exc
    if not q:
        raise ValueError(f"not a rational literal: {shown(text)}")
    return p, q


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" with integer p, q and q > 0 after reduction."""
    return Fraction(*rational_parts(text))


def format_rational(value: Fraction) -> str:
    """Render as "p" when the denominator is 1, else "p/q"."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------------------
# vectors (plain tuples of Fractions)

def vec_add(u: Sequence[Fraction], v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u: Sequence[Fraction], v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_scale(c: Fraction, u: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(c * a for a in u)


# ---------------------------------------------------------------------------
# integer vectors packed into one int (Kronecker substitution)

def width_for(bound: int) -> int:
    """The digit width B of ``packed`` at which every integer of absolute
    value at most bound is one balanced digit: 2^(B-1) > bound."""
    return bound.bit_length() + 1


def packed(entries: Iterable[tuple[int, int]], width: int) -> int:
    """sum v 2^(width p) over the (p, v) entries: the vector with v at
    position p, as one int."""
    return sum(v << (width * p) for p, v in entries)


def unpacked(x: int, count: int, width: int) -> list[int]:
    """The count balanced base-2^width digits of x, lowest first, each in
    [-2^(width-1), 2^(width-1)): the inverse of ``packed`` for vectors
    whose entries all lie strictly inside that range."""
    mask, half, digits = (1 << width) - 1, 1 << (width - 1), []
    while x and len(digits) < count:
        v = x & mask
        x >>= width
        if v >= half:  # a negative digit borrowed one from the next
            v -= 1 << width
            x += 1
        digits.append(v)
    return digits + [0] * (count - len(digits))


class Matrix:
    """Immutable dense matrix over Q, stored as a tuple of row tuples."""

    __slots__ = ("rows", "cols", "_r")

    def __init__(self, entries: Iterable[Iterable]):
        r = tuple(tuple(rat(x) for x in row) for row in entries)
        if r and any(len(row) != len(r[0]) for row in r):
            raise DimensionMismatch("ragged rows")
        self._r = r
        self.rows = len(r)
        self.cols = len(r[0]) if r else 0

    # -- constructors -------------------------------------------------
    def _keep_cols(self, cols: int) -> "Matrix":
        """Set the column count of a matrix without rows, which its rows
        cannot carry; returns self."""
        if not self.rows:
            self.cols = cols
        return self

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls([[_ZERO] * cols for _ in range(rows)])._keep_cols(cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def from_cols(cls, cols: Sequence[Sequence[Fraction]]) -> "Matrix":
        n = len(cols[0]) if cols else 0
        return cls([[col[i] for col in cols] for i in range(n)])._keep_cols(len(cols))

    # -- access --------------------------------------------------------
    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self._r[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self._r[i]

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self._r)

    def nonzero(self) -> Iterator[tuple[int, int, Fraction]]:
        for i, row in enumerate(self._r):
            for j, v in enumerate(row):
                if v:
                    yield i, j, v

    def scaled_cols(self) -> tuple[int, list[list[tuple[int, int]]]]:
        """The lcm D of the denominators, and D times the matrix as sparse
        integer columns: column c lists (row, D m[row, c]) where nonzero."""
        den = lcm(*(v.denominator for row in self._r for v in row))
        return den, [[(r, v.numerator * (den // v.denominator))
                      for r, row in enumerate(self._r) if (v := row[c])]
                     for c in range(self.cols)]

    def is_zero(self) -> bool:
        return all(v == 0 for row in self._r for v in row)

    # -- algebra --------------------------------------------------------
    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(vec_add(a, b) for a, b in zip(self._r, other._r))._keep_cols(self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(vec_sub(a, b) for a, b in zip(self._r, other._r))._keep_cols(self.cols)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        c = rat(c)
        return Matrix(vec_scale(c, row) for row in self._r)._keep_cols(self.cols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.shape} by {other.shape}")
        cols = [other.col(j) for j in range(other.cols)]
        return Matrix(
            [sum((a * b for a, b in zip(row, col)), _ZERO) for col in cols]
            for row in self._r
        )._keep_cols(other.cols)

    def transpose(self) -> "Matrix":
        return Matrix.from_cols(self._r) if self._r else Matrix([()] * self.cols)

    def apply(self, vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
        if len(vec) != self.cols:
            raise DimensionMismatch(f"vector of length {len(vec)} for {self.shape}")
        return tuple(sum((a * b for a, b in zip(row, vec)), _ZERO) for row in self._r)

    # -- misc ------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.cols == other.cols
                and self._r == other._r)

    def __hash__(self):
        return hash(self._r)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(format_rational(v) for v in row) for row in self._r)
        return f"Matrix[{body}]"

    def _same_shape(self, other: "Matrix") -> None:
        if self.shape != other.shape:
            raise DimensionMismatch(f"{self.shape} vs {other.shape}")

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of a non-square matrix")
        return self.solve(Matrix.identity(self.rows))

    def solve(self, rhs: "Matrix") -> "Matrix":
        """Solve self @ X = rhs for square self; raises Singular."""
        n = self.rows
        if n != self.cols:
            raise DimensionMismatch("solve needs a square coefficient matrix")
        if rhs.rows != n:
            raise DimensionMismatch("right-hand side has wrong height")
        pivots, m = _eliminate(a + b for a, b in zip(self._r, rhs._r))
        if pivots[:n] != list(range(n)):
            raise Singular("matrix is singular")
        return Matrix([Fraction(x, row[i]) for x in row[n:]]
                      for i, row in enumerate(m))._keep_cols(rhs.cols)


def _eliminate(rows: Iterable[Sequence[Fraction]]) -> tuple[list[int], list[list[int]]]:
    """Fraction-free Gauss-Jordan reduction (Bareiss) of rational rows.

    Each row is first cleared of denominators, which keeps its span.
    Returns the pivot columns and the reduced integer rows: row i has its
    pivot in column pivots[i], every pivot entry equals the last pivot,
    a pivot column is zero outside its pivot row, and the rows past the
    pivot rows are zero.  Every entry is a minor of the cleared matrix,
    so each division is exact and entries stay polynomially bounded.
    """
    m = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        m.append([x.numerator * (den // x.denominator) for x in row])
    pivots: list[int] = []
    prev = 1
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        top, p = m[r], m[r][c]
        for i, row in enumerate(m):
            if i != r:
                f = row[c]
                m[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        pivots.append(c)
        prev = p
    return pivots, m


def row_echelon_pivots(a: Matrix) -> tuple[int, ...]:
    """Pivot column indices of a row-echelon reduction (rank profile)."""
    return tuple(_eliminate(a._r)[0])


def solve_consistent(a: Matrix, b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """One exact solution of a @ x = b (free variables set to 0).

    Works for rectangular or rank-deficient systems; raises Singular when
    the system is inconsistent.
    """
    pivots, m = _eliminate([*a.row(i), rat(b[i])] for i in range(a.rows))
    if a.cols in pivots:  # a zero row of a with a nonzero right-hand side
        raise Singular("inconsistent linear system")
    x = [_ZERO] * a.cols
    for row, c in zip(m, pivots):
        x[c] = Fraction(row[-1], row[c])
    return tuple(x)


class Tensor3:
    """Order-3 tensor over Q with flat immutable storage, and the sorted
    listing of its nonzero entries, made once (``nonzero``)."""

    __slots__ = ("dims", "_e", "_nz", "_written")

    def __init__(self, dims: tuple[int, int, int], entries: Sequence[Fraction]):
        d1, d2, d3 = dims
        if len(entries) != d1 * d2 * d3:
            raise DimensionMismatch("entry count does not match dims")
        self.dims = (d1, d2, d3)
        self._e = tuple(entries)
        self._nz: tuple[tuple[int, int, int, Fraction], ...] | None = None
        self._written: list[int] | None = None  # flat positions from_entries set

    @classmethod
    def zeros(cls, d1: int, d2: int, d3: int) -> "Tensor3":
        return cls((d1, d2, d3), (_ZERO,) * (d1 * d2 * d3))

    @classmethod
    def from_entries(cls, dims: tuple[int, int, int],
                     entries: Iterable[tuple[int, int, int, Fraction]]) -> "Tensor3":
        d1, d2, d3 = dims
        buf = [_ZERO] * (d1 * d2 * d3)
        written = []
        for p, q, t, v in entries:
            if not (0 <= p < d1 and 0 <= q < d2 and 0 <= t < d3):
                raise DimensionMismatch(f"index ({p},{q},{t}) out of range for {dims}")
            idx = (p * d2 + q) * d3 + t
            buf[idx] = rat(v)
            written.append(idx)
        out = cls(dims, buf)
        out._written = written
        return out

    @classmethod
    def build(cls, dims: tuple[int, int, int],
              fn: Callable[[int, int, int], Fraction]) -> "Tensor3":
        d1, d2, d3 = dims
        return cls(dims, [rat(fn(p, q, t))
                          for p in range(d1) for q in range(d2) for t in range(d3)])

    def get(self, p: int, q: int, t: int) -> Fraction:
        d1, d2, d3 = self.dims
        return self._e[(p * d2 + q) * d3 + t]

    def fibre(self, p: int, q: int) -> tuple[Fraction, ...]:
        """The vector (self[p,q,0], ..., self[p,q,d3-1])."""
        d1, d2, d3 = self.dims
        base = (p * d2 + q) * d3
        return self._e[base:base + d3]

    def nonzero(self) -> Iterator[tuple[int, int, int, Fraction]]:
        """The nonzero entries (p, q, t, value) in (p, q, t) order; a tensor
        from ``from_entries`` reads only the positions it set."""
        if self._nz is None:
            _, d2, d3 = self.dims
            e, written = self._e, self._written
            at = range(len(e)) if written is None else sorted(set(written))
            self._nz = tuple((i // (d2 * d3), i // d3 % d2, i % d3, e[i]) for i in at if e[i])
            self._written = None
        return iter(self._nz)

    def is_zero(self) -> bool:
        return all(v == 0 for v in self._e)

    def __add__(self, other: "Tensor3") -> "Tensor3":
        self._same(other)
        return Tensor3(self.dims, tuple(x + y for x, y in zip(self._e, other._e)))

    def __sub__(self, other: "Tensor3") -> "Tensor3":
        self._same(other)
        return Tensor3(self.dims, tuple(x - y for x, y in zip(self._e, other._e)))

    def __neg__(self) -> "Tensor3":
        return Tensor3(self.dims, tuple(-x for x in self._e))

    def scale(self, c) -> "Tensor3":
        c = rat(c)
        return Tensor3(self.dims, tuple(c * x for x in self._e))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Tensor3)
                and self.dims == other.dims and self._e == other._e)

    def __hash__(self):
        return hash((self.dims, self._e))

    def __repr__(self) -> str:
        nz = list(self.nonzero())
        if len(nz) > 8:
            return f"Tensor3{self.dims}<{len(nz)} nonzero entries>"
        body = ", ".join(f"({p},{q},{t})={format_rational(v)}" for p, q, t, v in nz)
        return f"Tensor3{self.dims}[{body}]"

    def _same(self, other: "Tensor3") -> None:
        if self.dims != other.dims:
            raise DimensionMismatch(f"{self.dims} vs {other.dims}")


def permute_tensor3(t: Tensor3, perm: tuple[int, int, int]) -> Tensor3:
    """Relocate slot contents: the factor in slot s moves to slot perm[s-1].

    perm is a permutation of (1, 2, 3); e.g. (2, 3, 1) sends x@y@z to
    z@x@y.  Requires a cubic tensor.  Composition is contravariant:
    permuting by p then by q equals permuting once by q o p.
    """
    d1, d2, d3 = t.dims
    if not (d1 == d2 == d3):
        raise DimensionMismatch("slot permutation needs a cubic tensor")
    if sorted(perm) != [1, 2, 3]:
        raise ValueError(f"not a permutation of (1,2,3): {perm!r}")
    d = d1
    buf = [_ZERO] * (d * d * d)
    for p, q, r, v in t.nonzero():
        new = [0, 0, 0]
        new[perm[0] - 1] = p
        new[perm[1] - 1] = q
        new[perm[2] - 1] = r
        buf[(new[0] * d + new[1]) * d + new[2]] = v
    return Tensor3((d, d, d), buf)
