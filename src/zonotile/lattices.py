"""Rational lattices of rank 1..3 in R^3: duals, membership, cosets, enumeration.

A lattice puts its basis and its dual coordinate rows over one denominator
each, once, at construction. Membership, coset indexing, box enumeration, the
spectral candidate scan and translate multiplicities read those integers.
``lattice_points_in_box`` returns exactly the lattice points in a closed box:
which points lie inside is decided on integers, line by line, and a ``Vec3``
is built straight from its numerators only for a point inside.
``box_point_ints`` keeps the whole coordinate parallelepiped as one (N, 3)
numerator array, broadcast from the coordinate ranges against the basis, which
the spectral scan filters by a ball; it is int64 while the ranges' ends bound
every numerator below ``_INT64_SAFE`` and holds Python ints past that.
``box_count`` sizes it before anything is built.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .linalg import (
    Vec3,
    adjugate,
    det_int,
    hermite_row_basis,
    int_row,
    int_triples,
    rank_of,
    smith_normal_form,
)

# integer arrays stay int64 while every entry is below this in size
_INT64_SAFE = 2**62


class Lattice:
    """Free abelian group of rational 3-vectors with an explicit basis.

    Rank 1, 2, or 3. The basis is completed by normals to its span (b1 x b2;
    at rank 1, n and b1 x n), and the rows dual to that completed basis are
    kept over one denominator: ``_coord_ints`` is (triples R_i, d), where
    R_i . p / d is coordinate i of p for i < rank and vanishes on the span
    for i >= rank, and ``_basis_ints`` is (triples B_i, d) with b_i = B_i / d.
    The rows are the ``adjugate`` of the completed basis cleared to integer
    columns C / c: R_i / d = c A_i / det, reduced, with d > 0.
    """

    def __init__(self, basis: Iterable[Vec3]):
        basis = tuple(basis)
        if not 1 <= len(basis) <= 3:
            raise ValueError("lattice rank must be 1, 2, or 3")
        if rank_of(basis) != len(basis):
            raise ValueError("basis not linearly independent")
        self.basis = basis
        self.rank = len(basis)
        full = basis
        if self.rank == 1:
            (x, y, _), _ = int_row(basis[0])
            full += (Vec3.from_ints(-y, x, 0) if x or y else Vec3.from_ints(1, 0, 0),)
        if len(full) == 2:
            full += (full[0].cross(full[1]),)
        self._basis_ints = int_triples(basis)
        cols, c = int_triples(full)
        rows, det = adjugate(cols)
        g = math.gcd(det, c * math.gcd(*(a for r in rows for a in r))) * (1 if det > 0 else -1)
        self._coord_ints = tuple(tuple(c * a // g for a in r) for r in rows), det // g

    def __eq__(self, other) -> bool:
        return isinstance(other, Lattice) and self.basis == other.basis

    def __hash__(self) -> int:
        return hash(self.basis)

    def __repr__(self) -> str:
        return f"Lattice({list(self.basis)!r})"

    def _solve(self, nums: Sequence[int], den: int) -> tuple[tuple[int, int, int], int]:
        """The coordinates R_i . p / (rden den) of the point nums / den, den > 0,
        as reduced numerators c over d > 0; past the rank they vanish on the span."""
        (a0, a1, a2), (b0, b1, b2), (e0, e1, e2) = self._coord_ints[0]
        p0, p1, p2 = nums
        c0 = a0 * p0 + a1 * p1 + a2 * p2
        c1 = b0 * p0 + b1 * p1 + b2 * p2
        c2 = e0 * p0 + e1 * p1 + e2 * p2
        d = self._coord_ints[1] * den
        g = math.gcd(c0, c1, c2, d)
        return (c0 // g, c1 // g, c2 // g), d // g

    def _point_coords(self, nums: Sequence[int], den: int) -> list[int] | None:
        """Integer coordinates of the point nums / den, or None off the lattice."""
        c, d = self._solve(nums, den)
        if d != 1 or any(c[self.rank :]):
            return None
        return list(c[: self.rank])

    def contains(self, p: Vec3) -> bool:
        return self._point_coords(*int_row(p)) is not None

    def covolume(self) -> Fraction:
        if self.rank != 3:
            raise ValueError("full-rank lattice required")
        rows, den = self._basis_ints
        return Fraction(abs(det_int(rows)), den**3)

    def point(self, coeffs: Sequence[int]) -> Vec3:
        rows, den = self._basis_ints
        ks = [(int(k), r) for k, r in zip(coeffs, rows)]
        return Vec3.from_ints(*(sum(k * r[i] for k, r in ks) for i in range(3)), den)


def dual_lattice(lat: Lattice) -> Lattice:
    """Dual of a full-rank lattice: all x with <x, v> integral for v in lat."""
    if lat.rank != 3:
        raise ValueError("full-rank lattice required")
    rows, den = lat._coord_ints
    return Lattice(Vec3.from_ints(*r, den) for r in rows)


def lattice_from_vectors(vectors: Iterable[Vec3]) -> Lattice:
    """Lattice generated by finitely many rational vectors (not nec. a basis)."""
    vecs = [v for v in vectors if not v.is_zero()]
    if not vecs:
        raise ValueError("no nonzero generators")
    rows, den = int_triples(vecs)
    return Lattice(Vec3.from_ints(*r, den) for r in hermite_row_basis(rows))


def plane_section(lat: Lattice, normal: Vec3) -> Lattice:
    """Rank-2 sublattice of a full-rank lattice lying in the plane normal^perp.

    The kernel of v -> <v, normal> on lattice coordinates is computed by
    integer normal-form reduction, so the result is the whole section, not
    just a finite-index part of it.
    """
    if lat.rank != 3:
        raise ValueError("full-rank lattice required")
    if normal.is_zero():
        raise ValueError("zero normal")
    row, _ = int_row(b.dot(normal) for b in lat.basis)
    _, s, v = smith_normal_form([row])
    if s[0][0] == 0:
        raise ValueError("normal orthogonal to the whole lattice")
    return lattice_from_vectors(lat.point([v[i][j] for i in range(3)]) for j in (1, 2))


class CosetEnumeration:
    """Cosets of a rank-2 sublattice g inside a full-rank lattice gamma.

    gamma/g is (free of rank 1) x (finite torsion); cosets are indexed by a
    single integer j via j = q * torsion_order + r with q the free coordinate
    and r in [0, torsion_order). rep(0) = 0, and rep(ell * torsion_order) =
    ell * gamma1, so the whole line gamma1 * Z is a subset of the reps.
    """

    def __init__(self, gamma: Lattice, sub: Lattice):
        if gamma.rank != 3 or sub.rank != 2:
            raise ValueError("rank mismatch: need full-rank gamma and rank-2 g")
        coords = [gamma._point_coords(*int_row(b)) for b in sub.basis]
        if None in coords:
            raise ValueError("not a sublattice")
        # columns of m are g's basis in gamma coordinates
        m = [[coords[j][i] for j in range(2)] for i in range(3)]
        u, s, _v = smith_normal_form(m)
        d1, d2 = s[0][0], s[1][1]
        if d1 == 0 or d2 == 0:
            raise ValueError("not a sublattice")  # degenerate image
        self.gamma = gamma
        self.sub = sub
        self.d = (d1, d2)
        self.torsion_order = d1 * d2
        self._u = u
        rows, det = adjugate(list(zip(*u)))
        if det not in (1, -1):
            raise ValueError("non-unimodular transform (internal error)")
        # the rows of u's inverse, adj(u) / det, integral since u is unimodular
        self._u_inv = [[det * a for a in r] for r in rows]
        self.gamma1 = self.rep(self.torsion_order)
        # |index| <= _bound * max |coordinate|
        self._bound = max(sum(map(abs, row)) for row in u) * (self.torsion_order + 1)

    def rep(self, j: int) -> Vec3:
        """gamma . x for the gamma coordinates x = u^-1 (r1, r2, q) of coset j."""
        q, r = divmod(j, self.torsion_order)
        r1, r2 = divmod(r, self.d[1])
        return self.gamma.point([a * r1 + b * r2 + c * q for a, b, c in self._u_inv])

    def index_of_coords(self, x: Sequence[int] | np.ndarray) -> int | np.ndarray:
        """Coset index from gamma-basis coordinates (integer arithmetic only).

        One coordinate triple gives an int, on Python ints; an (N, 3) array
        gives an (N,) array, on int64 while no product can overflow.
        """
        d1, d2 = self.d
        if not (isinstance(x, np.ndarray) and x.ndim == 2):
            c0, c1, c2 = map(int, x)
            (a0, a1, a2), (b0, b1, b2), (e0, e1, e2) = self._u
            y0, y1 = a0 * c0 + a1 * c1 + a2 * c2, b0 * c0 + b1 * c1 + b2 * c2
            return (e0 * c0 + e1 * c1 + e2 * c2) * self.torsion_order + (y0 % d1) * d2 + y1 % d2
        a = x
        if a.dtype != object and int(np.abs(a).max(initial=0)) * self._bound >= _INT64_SAFE:
            a = a.astype(object)  # int64 could overflow: use Python ints
        y = a @ np.array(self._u, dtype=a.dtype).T
        return y[:, 2] * self.torsion_order + (y[:, 0] % d1) * d2 + y[:, 1] % d2

    def index_of(self, p: Vec3) -> int:
        """Index of the coset of p; p must be a point of gamma."""
        c = self.gamma._point_coords(*int_row(p))
        if c is None:
            raise ValueError("point not in gamma")
        return self.index_of_coords(c)


def _box_ints(shift: Vec3, lo: Vec3, hi: Vec3) -> tuple:
    """(s, sden, l, h, wden): the shift as s / sden and the box ends as l / wden, h / wden."""
    s, sden = int_row(shift)
    l, ld = int_row(lo)
    h, hd = int_row(hi)
    if ld == hd:
        return s, sden, l, h, ld
    wden = math.lcm(ld, hd)
    ls, hs = wden // ld, wden // hd
    return s, sden, [v * ls for v in l], [v * hs for v in h], wden


def _coord_ranges(lat: Lattice, box: tuple, count: int) -> list[range]:
    """``box_ranges`` of the first count coordinates, on the integers of ``_box_ints``."""
    (s0, s1, s2), sden, l, h, wden = box
    rows, rden = lat._coord_ints
    big = rden * sden * wden
    ranges = []
    for r in rows[:count]:
        # the extremes of r . x over the box, times wden
        low = high = 0
        for a, b, c in zip(r, l, h):
            if a > 0:
                low, high = low + a * b, high + a * c
            else:
                low, high = low + a * c, high + a * b
        rs = (r[0] * s0 + r[1] * s1 + r[2] * s2) * wden
        ranges.append(range(-((rs - low * sden) // big), (high * sden - rs) // big + 1))
    return ranges


def _scaled(lat: Lattice, box: tuple) -> tuple[Sequence[tuple[int, ...]], tuple[int, ...], int]:
    """(basis, start, den): the basis rows and the shift as numerators over one den."""
    rows, bden = lat._basis_ints
    (s0, s1, s2), sden = box[0], box[1]
    if bden == sden:
        return rows, (s0, s1, s2), sden
    den = math.lcm(bden, sden)
    bs, ss = den // bden, den // sden
    basis = [(b0 * bs, b1 * bs, b2 * bs) for b0, b1, b2 in rows]
    return basis, (s0 * ss, s1 * ss, s2 * ss), den


def box_ranges(lat: Lattice, shift: Vec3, lo: Vec3, hi: Vec3) -> list[range]:
    """For each basis coordinate, the integers it takes on x - shift over the box.

    Coordinate i of x - shift is R_i . (x - shift) / d, so over the box [lo, hi]
    its extremes are sums of per-axis extremes of R_i . x; the range ends are
    their exact integer ceil and floor. Every point of shift + lat in the box
    has its coordinates in these ranges.
    """
    return _coord_ranges(lat, _box_ints(shift, lo, hi), lat.rank)


def box_count(lat: Lattice, shift: Vec3, lo: Vec3, hi: Vec3) -> int:
    """Size of the coordinate parallelepiped of ``box_ranges``, counted before
    anything is built: the number of points ``box_point_ints`` returns, and an
    upper bound on the number ``lattice_points_in_box`` returns.
    """
    return math.prod(max(0, r.stop - r.start) for r in box_ranges(lat, shift, lo, hi))


def box_point_ints(lat: Lattice, shift: Vec3, lo: Vec3, hi: Vec3) -> tuple[np.ndarray, int]:
    """(points, den): the points shift + sum k_i b_i over ``box_ranges``, as an
    (N, 3) array of numerators over den.

    The whole coordinate parallelepiped, which holds every point of shift + lat
    in the box and, on a skewed basis, many outside it. Ordered like nested
    loops over k_1, k_2, k_3, the last coordinate fastest: each range is
    broadcast against its basis row. The array is int64 when the ranges' ends
    bound every numerator below _INT64_SAFE, checked before it is built, and
    holds Python ints otherwise.
    """
    box = _box_ints(shift, lo, hi)
    basis, start, den = _scaled(lat, box)
    ranges = _coord_ranges(lat, box, lat.rank)
    ends = [max(1, abs(r.start), abs(r.stop - 1)) for r in ranges]
    wide = any(
        abs(s) + sum(k * abs(b[j]) for k, b in zip(ends, basis)) >= _INT64_SAFE
        for j, s in enumerate(start)
    )
    dtype = object if wide else np.int64
    pts = np.array([start], dtype=dtype)
    for ks, b in zip(ranges, basis):
        k = np.array(ks, dtype=object) if wide else np.arange(ks.start, ks.stop)
        pts = (pts[:, None, :] + k[:, None] * np.array(b, dtype=dtype)).reshape(-1, 3)
    return pts, den


def lattice_points_in_box(
    lat: Lattice, shift: Vec3, lo: Vec3, hi: Vec3
) -> list[Vec3]:
    """Exactly the points of shift + lat in the closed box [lo, hi].

    Ordered like nested loops over the lattice coordinates k_1, k_2, k_3, the
    last coordinate fastest. The leading coordinates run over their
    ``box_ranges``. On each such line p + k b_last, the last coordinate takes
    the integers k with lo <= p + k b_last <= hi on every axis: an exact
    integer ceil and floor per axis along which the line moves, and one
    comparison per axis along which it does not. A line costs a few integer
    divisions, and a ``Vec3`` is built, by ``Vec3.from_ints`` on its
    numerators, only for a point inside the box. On a skewed basis some
    leading lines hold no point; at most ``box_count`` points are returned.
    """
    box = _box_ints(shift, lo, hi)
    *_, l, h, wden = box
    basis, start, den = _scaled(lat, box)
    *outer, last = basis[: lat.rank]
    lines = [start]
    for ks, (b0, b1, b2) in zip(_coord_ranges(lat, box, lat.rank - 1), outer):
        lines = [(x + k * b0, y + k * b1, z + k * b2) for x, y, z in lines for k in ks]
    # p + k c in the box on axis j, over den * wden: l_j den <= (p_j + k c_j) wden <= h_j den
    # moving: (j, c_j wden, e, f), the box ends in the order a rising k meets them;
    # fixed: (j, l_j den, h_j den), for the axes with c_j = 0
    moving, fixed = [], []
    for j in range(3):
        c, a, b = last[j], l[j] * den, h[j] * den
        if c > 0:
            moving.append((j, c * wden, a, b))
        elif c:
            moving.append((j, c * wden, b, a))
        else:  # the whole line is in or out of the box on this axis
            fixed.append((j, a, b))
    (j0, c0, e0, f0), *rest = moving
    spans = []
    for p in lines:
        for j, a, b in fixed:
            if not a <= p[j] * wden <= b:
                break
        else:
            # with c = c_j wden: ceil((e - p_j wden) / c) <= k <= floor((f - p_j wden) / c)
            pw = p[j0] * wden
            k_lo, k_hi = -((pw - e0) // c0), (f0 - pw) // c0
            for j, c, e, f in rest:
                pw = p[j] * wden
                k_lo, k_hi = max(k_lo, -((pw - e) // c)), min(k_hi, (f - pw) // c)
            if k_lo <= k_hi:
                spans.append((p, range(k_lo, k_hi + 1)))
    b0, b1, b2 = last
    from_ints = Vec3.from_ints
    return [
        from_ints(x + k * b0, y + k * b1, z + k * b2, den) for (x, y, z), ks in spans for k in ks
    ]
