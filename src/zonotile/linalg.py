"""Exact rational 3-vectors, small determinants, and integer normal forms.

Every geometric predicate downstream (incidence, membership, independence)
reduces to exact arithmetic in this module, so verdicts are exact rather than
correct up to a floating tolerance. A ``Vec3`` holds integer numerators over
one positive denominator, reduced, so its sums, differences, products, dot
and cross products and comparisons are integer arithmetic, and
``int_row(v)`` hands out those integers as they are; ``Vec3.from_ints`` builds
a vector from numerators without any ``Fraction``. ``int_row`` also clears any
row of rationals to integers over their least common denominator, and
``int_triples`` puts several vectors over one. The hot paths run on those
integers: a zonotope keeps its generators as integer triples over one
denominator, membership in a body or a paving cell is an integer half-space
test n . X <= h * d for x = X / d, and ``rank_of`` eliminates fraction-free.
A lattice keeps its basis and dual coordinate rows, and a frame its vectors,
as integer triples over one denominator, so box ranges, translate
multiplicities, the counting kernel's coordinates, the spectral support check
and the zero-set test are integer dot products with exact floor division.
``Fraction`` values, such as a ``Vec3``'s ``x``, ``y`` and ``z``, are the API
edge.
"""
from __future__ import annotations

import numbers
import re
import sys
from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

RationalLike = Fraction | int | str

# a larger decimal exponent makes Fraction build a huge power of ten; the
# bound mirrors Python's default int digit limit
_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*\Z", re.IGNORECASE)


def rat(value: RationalLike) -> Fraction:
    """Coerce an integer, Fraction, or string like ``"3/4"`` / ``"0.25"`` to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, numbers.Rational):  # int, bool, numpy integers as Python ints
        return Fraction(int(value.numerator), int(value.denominator))
    if isinstance(value, str):
        m = _EXPONENT.search(value)
        digits = m.group(1).replace("_", "").lstrip("0") if m else ""
        if len(digits) > len(str(_MAX_EXPONENT)) or int(digits or 0) > _MAX_EXPONENT:
            raise ValueError(f"decimal exponent above {_MAX_EXPONENT} in {value!r}")
        return Fraction(value)
    raise TypeError(f"not a rational value: {value!r}")


def int_row(values: Iterable[Fraction | int]) -> tuple[list[int], int]:
    """(numerators, den): the values as integers over their least common denominator.

    A ``Vec3`` already holds this form, so it is returned as it is.
    """
    if values.__class__ is Vec3:
        n0, n1, n2, d = values._nd
        return [n0, n1, n2], d
    vals = tuple(values)
    den = lcm(*(t.denominator for t in vals))
    return [t.numerator * (den // t.denominator) for t in vals], den


def rat_str(value: Fraction) -> str:
    """Render a rational as ``"p/q"``, or ``"p"`` when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class Vec3:
    """Immutable exact 3-vector: integer numerators over one positive denominator.

    The vector (x, y, z) is kept as (n0, n1, n2) / d with d > 0 and
    gcd(n0, n1, n2, d) == 1, so d is the least common denominator of the
    coordinates and every vector has exactly one representation. Arithmetic,
    ``dot``, ``cross``, equality and ordering run on those integers, and
    ``int_row(v)`` returns them without any work. ``x``, ``y`` and ``z`` are
    ``Fraction``s built on each read. Equality, hashing, ordering and ``repr``
    agree with a frozen dataclass over the three ``Fraction`` coordinates:
    ``Vec3(1, 0, 0)`` equals and hashes like ``Vec3.of(1, 0, 0)``, and both
    show ``x=Fraction(1, 1)``. Comparison order is lexicographic. It is not a
    dataclass: assigning an attribute raises ``FrozenInstanceError``, and
    pickling and copying keep the numerators.
    """

    __slots__ = ("_nd",)

    def __init__(self, x: RationalLike, y: RationalLike, z: RationalLike):
        if type(x) is int and type(y) is int and type(z) is int:
            _set_nd(self, (x, y, z, 1))
            return
        x, y, z = _rational(x), _rational(y), _rational(z)
        dx, dy, dz = x.denominator, y.denominator, z.denominator
        d = dx if dx == dy == dz else lcm(dx, dy, dz)
        # reduced coordinates over their lcm share no factor with it
        nd = (x.numerator * (d // dx), y.numerator * (d // dy), z.numerator * (d // dz), d)
        _set_nd(self, nd)

    @classmethod
    def from_ints(cls, n0: int, n1: int, n2: int, d: int = 1) -> "Vec3":
        """The vector (n0, n1, n2) / d, for integers n0, n1, n2 and d != 0."""
        if d <= 0:
            if not d:
                raise ZeroDivisionError("Vec3 with denominator 0")
            n0, n1, n2, d = -n0, -n1, -n2, -d
        return _reduced(n0, n1, n2, d)

    @staticmethod
    def of(x: RationalLike, y: RationalLike, z: RationalLike) -> "Vec3":
        return Vec3(x, y, z)

    @property
    def x(self) -> Fraction:
        return Fraction(self._nd[0], self._nd[3])

    @property
    def y(self) -> Fraction:
        return Fraction(self._nd[1], self._nd[3])

    @property
    def z(self) -> Fraction:
        return Fraction(self._nd[2], self._nd[3])

    def __iter__(self):
        n0, n1, n2, d = self._nd
        yield Fraction(n0, d)
        yield Fraction(n1, d)
        yield Fraction(n2, d)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (Vec3.from_ints, self._nd)

    def __repr__(self) -> str:
        x, y, z = self
        return f"{self.__class__.__qualname__}(x={x!r}, y={y!r}, z={z!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._nd == other._nd

    def __hash__(self) -> int:
        # hash((x, y, z)) of the Fraction coordinates: a rational p / q hashes
        # to p * q^-1 modulo the hash modulus (sys.hash_info)
        n0, n1, n2, d = self._nd
        if d == 1:
            return hash((n0, n1, n2))
        if not d % _HASH_MODULUS:
            return hash(tuple(self))
        inv = pow(d, -1, _HASH_MODULUS)
        return hash(tuple(_rational_hash(n, inv) for n in (n0, n1, n2)))

    def _cmp_keys(self, other: "Vec3"):
        # both sides over the product of the denominators, which is positive
        a0, a1, a2, ad = self._nd
        b0, b1, b2, bd = other._nd
        if ad == bd:
            return (a0, a1, a2), (b0, b1, b2)
        return (a0 * bd, a1 * bd, a2 * bd), (b0 * ad, b1 * ad, b2 * ad)

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        a, b = self._cmp_keys(other)
        return a < b

    def __le__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        a, b = self._cmp_keys(other)
        return a <= b

    def __gt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        a, b = self._cmp_keys(other)
        return a > b

    def __ge__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        a, b = self._cmp_keys(other)
        return a >= b

    def __add__(self, other: "Vec3") -> "Vec3":
        a0, a1, a2, ad = self._nd
        b0, b1, b2, bd = other._nd
        if ad == bd:
            return _reduced(a0 + b0, a1 + b1, a2 + b2, ad)
        g = gcd(ad, bd)
        sa, sb = bd // g, ad // g
        return _reduced(a0 * sa + b0 * sb, a1 * sa + b1 * sb, a2 * sa + b2 * sb, ad * sa)

    def __sub__(self, other: "Vec3") -> "Vec3":
        a0, a1, a2, ad = self._nd
        b0, b1, b2, bd = other._nd
        if ad == bd:
            return _reduced(a0 - b0, a1 - b1, a2 - b2, ad)
        g = gcd(ad, bd)
        sa, sb = bd // g, ad // g
        return _reduced(a0 * sa - b0 * sb, a1 * sa - b1 * sb, a2 * sa - b2 * sb, ad * sa)

    def __neg__(self) -> "Vec3":
        n0, n1, n2, d = self._nd
        return _make(-n0, -n1, -n2, d)

    def __mul__(self, s) -> "Vec3":
        n0, n1, n2, d = self._nd
        if type(s) is int:
            # gcd(s / g, d / g) == 1 keeps the result reduced
            g = gcd(s, d)
            s //= g
            return _make(n0 * s, n1 * s, n2 * s, d // g)
        s = rat(s)
        p = s.numerator
        return _reduced(n0 * p, n1 * p, n2 * p, d * s.denominator)

    __rmul__ = __mul__

    def dot(self, other: "Vec3") -> Fraction:
        a0, a1, a2, ad = self._nd
        b0, b1, b2, bd = other._nd
        return Fraction(a0 * b0 + a1 * b1 + a2 * b2, ad * bd)

    def cross(self, other: "Vec3") -> "Vec3":
        a0, a1, a2, ad = self._nd
        b0, b1, b2, bd = other._nd
        return _reduced(a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0, ad * bd)

    def norm_sq(self) -> Fraction:
        return self.dot(self)

    def is_zero(self) -> bool:
        n0, n1, n2, _d = self._nd
        return not (n0 or n1 or n2)

    def parallel_to(self, other: "Vec3") -> bool:
        a0, a1, a2, _ad = self._nd
        b0, b1, b2, _bd = other._nd
        return not (a1 * b2 - a2 * b1 or a2 * b0 - a0 * b2 or a0 * b1 - a1 * b0)

    def as_floats(self) -> tuple[float, float, float]:
        n0, n1, n2, d = self._nd
        return (n0 / d, n1 / d, n2 / d)


_HASH_MODULUS = sys.hash_info.modulus
_new = object.__new__
_set_nd = Vec3._nd.__set__  # the slot's own setter, past the frozen __setattr__


def _make(n0: int, n1: int, n2: int, d: int) -> Vec3:
    """The vector (n0, n1, n2) / d, already reduced with d > 0."""
    v = _new(Vec3)
    _set_nd(v, (n0, n1, n2, d))
    return v


def _reduced(n0: int, n1: int, n2: int, d: int) -> Vec3:
    """The vector (n0, n1, n2) / d for d > 0, reduced by the common gcd."""
    if d != 1:
        g = gcd(n0, n1, n2, d)
        if g != 1:
            n0, n1, n2, d = n0 // g, n1 // g, n2 // g, d // g
    return _make(n0, n1, n2, d)


def _rational(value) -> Fraction | int:
    return value if type(value) is int or type(value) is Fraction else rat(value)


def _rational_hash(n: int, inv: int) -> int:
    """hash(Fraction(n, d)), given the inverse of d modulo the hash modulus."""
    h = abs(n) % _HASH_MODULUS * inv % _HASH_MODULUS
    h = h if n >= 0 else -h
    return -2 if h == -1 else h


def int_triples(vectors: Iterable[Vec3]) -> tuple[tuple[tuple[int, int, int], ...], int]:
    """(triples, den): the vectors as integer triples over their least common denominator."""
    nds = [v._nd for v in vectors]
    den = lcm(*(nd[3] for nd in nds))
    return tuple((a * (den // d), b * (den // d), c * (den // d)) for a, b, c, d in nds), den


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
