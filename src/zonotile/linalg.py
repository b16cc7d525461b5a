"""Exact rational 3-vectors, small determinants, and integer normal forms.

Every geometric predicate downstream (incidence, membership, independence)
reduces to exact arithmetic in this module, so verdicts are exact rather than
correct up to a floating tolerance. ``int_row`` clears a row of rationals to
integers over their least common denominator, and the hot paths run on those
integers: a zonotope keeps its generators as integer triples over one
denominator, membership in a body or a paving cell is an integer half-space
test n . X <= h * d for x = X / d, and ``rank_of`` eliminates fraction-free.
A lattice keeps its basis and dual coordinate rows, and a frame its vectors,
as integer triples over one denominator, so box ranges, translate
multiplicities, the counting kernel's coordinates, the spectral support check
and the zero-set test are integer dot products with exact floor division.
``Fraction`` and ``Vec3`` values are the API edge.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

RationalLike = Fraction | int | str

# a larger decimal exponent makes Fraction build a huge power of ten; the
# bound mirrors Python's default int digit limit
_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*\Z", re.IGNORECASE)


def rat(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or string like ``"3/4"`` / ``"0.25"`` to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        m = _EXPONENT.search(value)
        digits = m.group(1).replace("_", "").lstrip("0") if m else ""
        if len(digits) > len(str(_MAX_EXPONENT)) or int(digits or 0) > _MAX_EXPONENT:
            raise ValueError(f"decimal exponent above {_MAX_EXPONENT} in {value!r}")
        return Fraction(value)
    raise TypeError(f"not a rational value: {value!r}")


def int_row(values: Iterable[Fraction | int]) -> tuple[list[int], int]:
    """(numerators, den): the values as integers over their least common denominator."""
    vals = tuple(values)
    den = lcm(*(t.denominator for t in vals))
    return [t.numerator * (den // t.denominator) for t in vals], den


def rat_str(value: Fraction) -> str:
    """Render a rational as ``"p/q"``, or ``"p"`` when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True, order=True)
class Vec3:
    """Immutable exact 3-vector. Comparison order is lexicographic."""

    x: Fraction
    y: Fraction
    z: Fraction

    @staticmethod
    def of(x: RationalLike, y: RationalLike, z: RationalLike) -> "Vec3":
        return Vec3(rat(x), rat(y), rat(z))

    def __iter__(self):
        yield self.x
        yield self.y
        yield self.z

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x, -self.y, -self.z)

    def __mul__(self, s) -> "Vec3":
        s = rat(s)
        return Vec3(self.x * s, self.y * s, self.z * s)

    __rmul__ = __mul__

    def dot(self, other: "Vec3") -> Fraction:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Vec3") -> "Vec3":
        return Vec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm_sq(self) -> Fraction:
        return self.dot(self)

    def is_zero(self) -> bool:
        return not (self.x or self.y or self.z)

    def parallel_to(self, other: "Vec3") -> bool:
        return self.cross(other).is_zero()

    def geometric_inverse(self) -> "Vec3":
        """x / |x|^2, the reciprocal point used for plane family spacing."""
        n = Fraction(self.norm_sq())
        if not n:
            raise ZeroDivisionError("geometric inverse of the zero vector")
        return Vec3(self.x / n, self.y / n, self.z / n)

    def as_floats(self) -> tuple[float, float, float]:
        return (float(self.x), float(self.y), float(self.z))


VEC_ZERO = Vec3.of(0, 0, 0)


def primitive_triple(c: Sequence[int]) -> tuple[int, int, int]:
    """The primitive integer triple parallel to c, first nonzero coordinate > 0."""
    x, y, z = c
    g = gcd(x, y, z)
    if not g:
        raise ValueError("primitive vector of zero")
    if (x or y or z) < 0:
        g = -g
    return x // g, y // g, z // g


def primitive(v: Vec3) -> Vec3:
    """Integer primitive vector parallel to v with first nonzero coordinate > 0."""
    return Vec3.of(*primitive_triple(int_row(v)[0]))


def det3(a: Vec3, b: Vec3, c: Vec3) -> Fraction:
    return a.dot(b.cross(c))


def rank_of(vectors: Iterable[Sequence[Fraction | int]]) -> int:
    """Rank of a set of rational 3-vectors: ``Vec3``s or integer triples.

    Each row is cleared to integers with ``int_row``; fraction-free (Bareiss)
    elimination then keeps every entry an integer minor, so each division by
    the previous pivot is exact.
    """
    rows = [int_row(v)[0] for v in vectors]
    rank, prev = 0, 1
    for col in range(3):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank]
        pc = p[col]
        for i in range(rank + 1, len(rows)):
            r = rows[i]
            rc = r[col]
            rows[i] = [(pc * r[j] - rc * p[j]) // prev for j in range(3)]
        prev = pc
        rank += 1
        if rank == 3:
            break
    return rank


def inverse_rows(b1: Vec3, b2: Vec3, b3: Vec3) -> tuple[Vec3, Vec3, Vec3]:
    """Rows of the inverse of the matrix with columns b1, b2, b3.

    Row i dotted with a point gives that point's i-th coordinate in the
    (b1, b2, b3) basis; this is the dual basis of the columns.
    """
    d = Fraction(det3(b1, b2, b3))
    if not d:
        raise ValueError("singular basis")
    return (b2.cross(b3) * (1 / d), b3.cross(b1) * (1 / d), b1.cross(b2) * (1 / d))


# ---------------------------------------------------------------------------
# integer matrices
# ---------------------------------------------------------------------------


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def det_int(m: Sequence[Sequence[int]]) -> int:
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if n == 3:
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
    raise ValueError("det_int supports n <= 3")


def smith_normal_form(
    m: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form over the integers.

    Returns (u, s, v) with u @ m @ v == s, u and v unimodular, s diagonal with
    nonnegative entries d_1 | d_2 | ... Works for any small rectangular shape.
    """
    nr = len(m)
    nc = len(m[0]) if nr else 0
    s = [[int(x) for x in row] for row in m]
    for row in s:
        if len(row) != nc:
            raise ValueError("ragged matrix")
    u = _identity(nr)
    v = _identity(nc)

    def row_sub(i: int, j: int, q: int) -> None:  # row_i -= q * row_j
        s[i] = [a - q * b for a, b in zip(s[i], s[j])]
        u[i] = [a - q * b for a, b in zip(u[i], u[j])]

    def col_sub(i: int, j: int, q: int) -> None:  # col_i -= q * col_j
        for row in s:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def row_swap(i: int, j: int) -> None:
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i: int, j: int) -> None:
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    for t in range(min(nr, nc)):
        while True:
            # smallest-magnitude nonzero pivot in the trailing block
            best = None
            for i in range(t, nr):
                for j in range(t, nc):
                    if s[i][j] and (best is None or abs(s[i][j]) < abs(s[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            if best != (t, t):
                row_swap(t, best[0])
                col_swap(t, best[1])
            # gcd-reduce column t and row t against the pivot
            dirty = False
            for i in range(t + 1, nr):
                if s[i][t]:
                    q = s[i][t] // s[t][t]
                    row_sub(i, t, q)
                    if s[i][t]:
                        dirty = True
            for j in range(t + 1, nc):
                if s[t][j]:
                    q = s[t][j] // s[t][t]
                    col_sub(j, t, q)
                    if s[t][j]:
                        dirty = True
            if dirty:
                continue
            # pivot must divide the whole trailing block for the chain
            viol = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if s[i][j] % s[t][t]:
                        viol = i
                        break
                if viol is not None:
                    break
            if viol is None:
                break
            row_sub(t, viol, -1)  # fold the offending row in, then re-reduce
        if t < nr and t < nc and s[t][t] < 0:
            s[t] = [-x for x in s[t]]
            u[t] = [-x for x in u[t]]
    return u, s, v


def hermite_row_basis(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Basis of the integer row span of ``rows`` (row-style Hermite form).

    Returned rows are the nonzero rows of an upper-echelon form reached by
    unimodular row operations; they generate the same subgroup of Z^n.
    """
    mat = [list(map(int, r)) for r in rows]
    if not mat:
        return []
    ncols = len(mat[0])
    r = 0
    for c in range(ncols):
        while True:
            live = [i for i in range(r, len(mat)) if mat[i][c]]
            if not live:
                break
            piv = min(live, key=lambda i: abs(mat[i][c]))
            mat[r], mat[piv] = mat[piv], mat[r]
            done = True
            for i in range(r + 1, len(mat)):
                if mat[i][c]:
                    q = mat[i][c] // mat[r][c]
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
                    if mat[i][c]:
                        done = False
            if done:
                break
        if r < len(mat) and mat[r][c]:
            if mat[r][c] < 0:
                mat[r] = [-x for x in mat[r]]
            r += 1
            if r == len(mat):
                break
    return [row for row in mat[:r]]
