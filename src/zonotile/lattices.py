"""Rational lattices of rank 1..3 in R^3: duals, membership, cosets, enumeration.

A lattice puts its basis and its dual coordinate rows over one denominator
each, once, at construction. Membership, coset indexing, box enumeration, the
spectral candidate scan and translate multiplicities read those integers, and
box points are built as ``Vec3``s straight from their numerators.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .linalg import (
    Vec3,
    VEC_ZERO,
    det_int,
    hermite_row_basis,
    int_row,
    int_triples,
    inverse_rows,
    rank_of,
    smith_normal_form,
)


class Lattice:
    """Free abelian group of rational 3-vectors with an explicit basis.

    Rank 1, 2, or 3. The basis is completed by normals to its span (b1 x b2;
    at rank 1, n and b1 x n), and the rows dual to that completed basis are
    kept over one denominator: ``_coord_ints`` is (triples R_i, d), where
    R_i . p / d is coordinate i of p for i < rank and vanishes on the span
    for i >= rank. ``_coord_rows`` holds the first rank rows as ``Vec3``s,
    and ``_basis_ints`` is (triples B_i, d) with b_i = B_i / d.
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
        rows = inverse_rows(*full)
        self._coord_rows = rows[: self.rank]
        self._basis_ints = int_triples(basis)
        self._coord_ints = int_triples(rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, Lattice) and self.basis == other.basis

    def __hash__(self) -> int:
        return hash(self.basis)

    def __repr__(self) -> str:
        return f"Lattice({list(self.basis)!r})"

    def _point_coords(self, nums: Sequence[int], den: int) -> list[int] | None:
        """Integer coordinates of the point nums / den, or None off the lattice."""
        (rows, rden), (p0, p1, p2) = self._coord_ints, nums
        big = den * rden
        k = []
        for i, (r0, r1, r2) in enumerate(rows):
            c, rem = divmod(r0 * p0 + r1 * p1 + r2 * p2, big)
            if rem or (c and i >= self.rank):
                return None
            k.append(c)
        return k[: self.rank]

    def contains(self, p: Vec3) -> bool:
        return self._point_coords(*int_row(p)) is not None

    def covolume(self) -> Fraction:
        if self.rank != 3:
            raise ValueError("full-rank lattice required")
        rows, den = self._basis_ints
        return Fraction(abs(det_int(rows)), den**3)

    def point(self, coeffs: Sequence[int]) -> Vec3:
        p = VEC_ZERO
        for k, b in zip(coeffs, self.basis):
            p = p + b * k
        return p


def dual_lattice(lat: Lattice) -> Lattice:
    """Dual of a full-rank lattice: all x with <x, v> integral for v in lat."""
    if lat.rank != 3:
        raise ValueError("full-rank lattice required")
    return Lattice(inverse_rows(*lat.basis))


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
    vecs = []
    for j in (1, 2):
        pt = VEC_ZERO
        for i in range(3):
            pt = pt + v[i][j] * lat.basis[i]
        vecs.append(pt)
    return lattice_from_vectors(vecs)


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
        if det_int(u) not in (1, -1):
            raise ValueError("non-unimodular transform (internal error)")
        # the rows of u's inverse, integral since u is unimodular
        self._u_inv = [int_row(r)[0] for r in inverse_rows(*(Vec3.from_ints(*c) for c in zip(*u)))]
        self.gamma1 = self.rep(self.torsion_order)
        # |index| <= _bound * max |coordinate|
        self._bound = max(sum(map(abs, row)) for row in u) * (self.torsion_order + 1)

    def _from_snf_coords(self, y: Sequence[int]) -> Vec3:
        x = [sum(self._u_inv[i][k] * y[k] for k in range(3)) for i in range(3)]
        return self.gamma.point(x)

    def rep(self, j: int) -> Vec3:
        d1, d2 = self.d
        q, r = divmod(j, self.torsion_order)
        r1, r2 = divmod(r, d2)
        return self._from_snf_coords((r1, r2, q))

    def index_of_coords(self, x: Sequence[int] | np.ndarray) -> int | np.ndarray:
        """Coset index from gamma-basis coordinates (integer arithmetic only).

        One coordinate triple gives an int, on Python ints; an (N, 3) array
        gives an (N,) array, on int64 while no product can overflow.
        """
        d1, d2 = self.d
        if not (isinstance(x, np.ndarray) and x.ndim == 2):
            c0, c1, c2 = map(int, x)
            y0, y1, y2 = (r0 * c0 + r1 * c1 + r2 * c2 for r0, r1, r2 in self._u)
            return y2 * self.torsion_order + (y0 % d1) * d2 + y1 % d2
        a = x
        if a.dtype != object and int(np.abs(a).max(initial=0)) * self._bound >= 2**62:
            a = a.astype(object)  # int64 could overflow: use Python ints
        y = a @ np.array(self._u, dtype=a.dtype).T
        return y[:, 2] * self.torsion_order + (y[:, 0] % d1) * d2 + y[:, 1] % d2

    def index_of(self, p: Vec3) -> int:
        """Index of the coset of p; p must be a point of gamma."""
        c = self.gamma._point_coords(*int_row(p))
        if c is None:
            raise ValueError("point not in gamma")
        return self.index_of_coords(c)


def box_ranges(lat: Lattice, shift: Vec3, lo: Vec3, hi: Vec3) -> list[range]:
    """For each basis coordinate, the integers it takes on x - shift over the box.

    Coordinate i of x - shift is R_i . (x - shift) / d, so over the box [lo, hi]
    its extremes are sums of per-axis extremes of R_i . x; the range ends are
    their exact integer ceil and floor. Every point of shift + lat in the box
    has its coordinates in these ranges.
    """
    rows, rden = lat._coord_ints
    (s, l, h), d = int_triples((shift, lo, hi))
    big = rden * d
    ranges = []
    for r in rows[: lat.rank]:
        rs = r[0] * s[0] + r[1] * s[1] + r[2] * s[2]
        terms = [(a * b, a * c) for a, b, c in zip(r, l, h)]
        low = sum(map(min, terms)) - rs
        high = sum(map(max, terms)) - rs
        ranges.append(range(-(-low // big), high // big + 1))
    return ranges


def box_count(lat: Lattice, shift: Vec3, lo: Vec3, hi: Vec3) -> int:
    """How many points ``lattice_points_in_box`` returns, without building them."""
    return math.prod(max(0, r.stop - r.start) for r in box_ranges(lat, shift, lo, hi))


def box_point_ints(
    lat: Lattice, shift: Vec3, lo: Vec3, hi: Vec3
) -> tuple[list[tuple[int, int, int]], int]:
    """(numerator triples, den): the points shift + sum k_i b_i over ``box_ranges``.

    Ordered like nested loops over k_1, k_2, k_3, the last coordinate fastest.
    """
    rows, bden = lat._basis_ints
    (s0, s1, s2), sden = int_row(shift)
    den = math.lcm(bden, sden)
    bs, ss = den // bden, den // sden
    pts = [(s0 * ss, s1 * ss, s2 * ss)]
    for ks, (b0, b1, b2) in zip(box_ranges(lat, shift, lo, hi), rows):
        b0, b1, b2 = b0 * bs, b1 * bs, b2 * bs
        pts = [(x + k * b0, y + k * b1, z + k * b2) for x, y, z in pts for k in ks]
    return pts, den


def lattice_points_in_box(
    lat: Lattice, shift: Vec3, lo: Vec3, hi: Vec3
) -> list[Vec3]:
    """Points of shift + lat whose coordinates lie in the box's coordinate ranges.

    Complete: every point of shift + lat inside the box [lo, hi] is produced.
    Not exact: the result is every point of the coordinate parallelepiped
    spanned by ``box_ranges``, which for a skewed basis or a lower rank holds
    many points outside the box (on [-3, 3]^3 the Hermite basis of Z^3 with
    rows (1, 2, -1), (0, 1, -2), (0, 0, 1) gives 4,921 points for 343 inside).
    Callers filter with their own box or membership predicate. Each point is
    built from the numerators of ``box_point_ints`` by ``Vec3.from_ints``,
    with no ``Fraction`` in between.
    """
    pts, den = box_point_ints(lat, shift, lo, hi)
    return [Vec3.from_ints(x, y, z, den) for x, y, z in pts]
