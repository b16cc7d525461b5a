"""Zonotopes in R^3: facets, edge frames, half-open pavings, membership.

A zonotope is a Minkowski sum of segments [0, v_i] plus a translate. Its
denominators are cleared once, at construction: the generators and the
translate are kept as integer triples over one denominator D, and the
direction classes, facet normals, offsets and supports, the bounding box, the
volume, the frames, the facet polygons and the half-open paving are all
computed on Python ints. The paving takes one sign pass over the generators
per generator pair, O(n^3) in all; a cell's faces are its edges' ``adjugate``
rows. ``Fraction`` and ``Vec3`` values are built only at the API edge: the
``direction_classes`` at construction, the paving cells' anchors, ``facets``
on first read, ``Frame`` fields and polygon vertices on each read, so the
deciders, which read only integers, never build them.
Membership in the body and in a paving cell is one integer half-space test
per facet or cell face: the point is cleared to X / d, and its excess over
the face's integer row is compared with 0. No float takes part in a verdict.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Iterable, Sequence

from .linalg import (
    Vec3,
    VEC_ZERO,
    adjugate,
    cross_int,
    det_int,
    int_row,
    int_triples,
    primitive_triple,
    rank_of,
)


class Location(enum.Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


class BoundaryHit(Exception):
    """A queried point lies exactly on a boundary; callers should resample."""

    def __init__(self, point: Vec3):
        super().__init__(f"boundary point {point}")
        self.point = point


@dataclass(frozen=True)
class Facet:
    """One facet of the zonotope, as outward normal plus incidence data."""

    normal: Vec3                       # primitive integer outward normal
    support: Fraction                  # <x, normal> == support on the facet
    offset: Vec3                       # a vertex of the facet (support point)
    plane_generators: tuple[int, ...]  # indices of generators parallel to the facet
    opposite_index: int


class Frame:
    """Four parallel edges: two opposite edges of a facet and their reflections.

    Legs are the segments base + [0, e], base + tau1 + [0, e] on one facet and
    base + tau2 + [0, e], base + tau1 + tau2 + [0, e] on the opposite facet.
    A frame holds one state: e, tau1 and tau2 as nine integers and the base
    as three, all over one denominator. ``vector_ints()`` returns the nine
    with it. A zonotope builds its frames from its own integers; a frame
    built from ``Vec3``s clears them once, at construction. The ``Vec3``
    fields e, base, tau1 and tau2 are built from the integers on each read.
    Frames are immutable, and equality, hashing and ``repr`` run over
    (e, base, tau1, tau2, facet_index), as for a frozen dataclass.
    """

    __slots__ = ("_facet_index", "_ints", "_base", "_e_dir")

    def __init__(self, e: Vec3, base: Vec3, tau1: Vec3, tau2: Vec3, facet_index: int):
        (e, base, tau1, tau2), den = int_triples((e, base, tau1, tau2))
        self._ints: tuple[tuple[int, ...], int] = ((*e, *tau1, *tau2), den)
        self._base: tuple[int, ...] = base
        self._e_dir: tuple[int, int, int] | None = None
        self._facet_index = facet_index

    @classmethod
    def _from_ints(cls, e, base, tau1, tau2, den: int, facet_index: int, e_dir) -> Frame:
        """The frame of integer numerator triples over den."""
        fr = cls.__new__(cls)
        fr._ints = ((*e, *tau1, *tau2), den)
        fr._base = tuple(base)
        fr._e_dir = e_dir
        fr._facet_index = facet_index
        return fr

    @property
    def e(self) -> Vec3:
        c, den = self._ints
        return _vec(c[:3], den)

    @property
    def base(self) -> Vec3:
        return _vec(self._base, self._ints[1])

    @property
    def tau1(self) -> Vec3:
        c, den = self._ints
        return _vec(c[3:6], den)

    @property
    def tau2(self) -> Vec3:
        c, den = self._ints
        return _vec(c[6:], den)

    @property
    def facet_index(self) -> int:
        return self._facet_index

    def _key(self) -> tuple:
        return (self.e, self.base, self.tau1, self.tau2, self._facet_index)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"Frame(e={self.e!r}, base={self.base!r}, tau1={self.tau1!r}, "
            f"tau2={self.tau2!r}, facet_index={self._facet_index!r})"
        )

    def vectors(self) -> tuple[Vec3, Vec3, Vec3]:
        return (self.e, self.tau1, self.tau2)

    def vector_ints(self) -> tuple[tuple[int, ...], int]:
        return self._ints

    def is_degenerate(self) -> bool:
        c = self._ints[0]
        return det_int((c[:3], c[3:6], c[6:])) == 0

    def leg_bases(self) -> tuple[Vec3, Vec3, Vec3, Vec3]:
        b, tau1, tau2 = self.base, self.tau1, self.tau2
        return (b, b + tau1, b + tau2, b + tau1 + tau2)


@dataclass(frozen=True)
class PavingCell:
    """Half-open parallelepiped anchor + {t1 e1 + t2 e2 + t3 e3 : 0 <= t_i <= 1}.

    include_zero_face[i] tells whether the face t_i = 0 belongs to the cell
    (then t_i = 1 does not), so the paving is an exact partition. Each face is
    an integer half-space (n, h, closed) from an ``adjugate`` row of the edges,
    and the volume is |det| / den^3.
    """

    anchor: Vec3
    edges: tuple[Vec3, Vec3, Vec3]
    include_zero_face: tuple[bool, bool, bool]
    _faces: tuple[tuple[int, int, int, int, bool], ...] = field(
        init=False, repr=False, compare=False
    )
    _volume: Fraction = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        (p, *edges), den = int_triples((self.anchor, *self.edges))
        rows, det = adjugate(edges)
        sign, s = (1, det) if det > 0 else (-1, -det)
        faces = []
        for r, inc in zip(rows, self.include_zero_face):
            # for edges E / den and anchor P / den, t_i = den r . (x - P / den) / det
            # with r the i-th row above; that is (a . x - c) / s for
            # (a, c, s) = (sign den r, sign r . P, |det|) over their gcd
            a1, a2, a3 = (sign * den * rk for rk in r)
            c = sign * _dot(r, p)
            g = gcd(a1, a2, a3, c, s)
            a1, a2, a3, c = a1 // g, a2 // g, a3 // g, c // g
            faces += [(-a1, -a2, -a3, -c, inc), (a1, a2, a3, c + s // g, not inc)]
        object.__setattr__(self, "_faces", tuple(faces))
        object.__setattr__(self, "_volume", Fraction(s, den**3))

    def volume(self) -> Fraction:
        return self._volume

    def contains(self, x: Vec3) -> bool:
        (x1, x2, x3), d = int_row(x)
        return self._contains_ints(x1, x2, x3, d)

    def _contains_ints(self, x1: int, x2: int, x3: int, d: int) -> bool:
        for n1, n2, n3, h, closed in self._faces:
            excess = n1 * x1 + n2 * x2 + n3 * x3 - h * d
            if excess > 0 or (excess == 0 and not closed):
                return False
        return True


@dataclass(frozen=True)
class Paving:
    cells: tuple[PavingCell, ...]

    def total_volume(self) -> Fraction:
        return sum((c.volume() for c in self.cells), Fraction(0))

    def locate(self, x: Vec3) -> list[int]:
        (x1, x2, x3), d = int_row(x)
        return [i for i, c in enumerate(self.cells) if c._contains_ints(x1, x2, x3, d)]

    def count(self, x: Vec3) -> int:
        return len(self.locate(x))


class Zonotope:
    """Minkowski sum of segments [0, v_i] translated by ``translate``.

    Generators must be nonzero and span R^3. The direction classes, the
    facets' integer half-spaces and the bounding box are computed at
    construction; the ``Facet`` tuple, the frames, the paving and the counting
    kernel's offset boxes are built on first use and cached. Treat instances
    as immutable.
    """

    def __init__(self, generators: Iterable[Vec3], translate: Vec3 = VEC_ZERO):
        gens = tuple(generators)
        for v in gens:
            if v.is_zero():
                raise ValueError("zero segment")
        self.generators = gens
        self.translate = translate
        # the translate and the generators as integer triples over one denominator
        (t, *g), den = int_triples((translate, *gens))
        self._den, self._t, self._g = den, t, g
        if rank_of(g) != 3:
            raise ValueError("degenerate zonotope: generators must span R^3")
        # twice the center, over den
        self._c2 = tuple(2 * t[k] + sum(v[k] for v in g) for k in range(3))
        self.center = _vec(self._c2, 2 * den)
        lo = [t[k] + sum(v[k] for v in g if v[k] < 0) for k in range(3)]
        hi = [t[k] + sum(v[k] for v in g if v[k] > 0) for k in range(3)]
        self._bounding_box = (_vec(lo, den), _vec(hi, den))
        classes: dict[tuple[int, int, int], list[int]] = {}
        for i, v in enumerate(g):
            classes.setdefault(primitive_triple(v), []).append(i)
        self._classes = tuple((d, tuple(m)) for d, m in classes.items())
        self.direction_classes = tuple((_vec(d), m) for d, m in self._classes)
        self._build_facets()
        self._facets: tuple[Facet, ...] | None = None
        self._frames: tuple[Frame, ...] | None = None
        self._paving: Paving | None = None
        self._boxes: dict = {}  # lattice -> tiling._offset_box

    # -- construction helpers ------------------------------------------------

    def _build_facets(self) -> None:
        """Facets in pairs (n, -n), one pair per plane spanned by two classes.

        Sets ``_facet_sides``: per facet the normal n, the support and
        offset numerators over ``_den``, the in-plane generators and the
        opposite index. ``contains`` reads the half-space <x, n> <= h / den
        from it, and ``facets`` turns it into ``Facet``s on first read.
        """
        den, g = self._den, self._g
        dirs = [d for d, _ in self._classes]
        normals: dict[tuple[int, int, int], None] = {}
        for i, a in enumerate(dirs):
            for b in dirs[i + 1 :]:
                # distinct sign-canonical primitive directions are never parallel
                normals[primitive_triple(cross_int(a, b))] = None
        sides: list[tuple] = []
        for n in normals:
            n0, n1, n2 = n
            pos, neg = list(self._t), list(self._t)
            plane: list[int] = []
            for i, v in enumerate(g):
                s = v[0] * n0 + v[1] * n1 + v[2] * n2
                if s:
                    side = pos if s > 0 else neg
                    side[0] += v[0]
                    side[1] += v[1]
                    side[2] += v[2]
                else:
                    plane.append(i)
            fi = len(sides)
            for m, o, opp in ((n, pos, fi + 1), ((-n0, -n1, -n2), neg, fi)):
                h = m[0] * o[0] + m[1] * o[1] + m[2] * o[2]
                sides.append((m, h, o, tuple(plane), opp))
        self._facet_sides = tuple(sides)

    @property
    def facets(self) -> tuple[Facet, ...]:
        if self._facets is None:
            den = self._den
            self._facets = tuple(
                Facet(_vec(m), Fraction(h, den), _vec(o, den), plane, opp)
                for m, h, o, plane, opp in self._facet_sides
            )
        return self._facets

    # -- exact membership ----------------------------------------------------

    def support_value(self, n: Vec3) -> Fraction:
        (n0, n1, n2), q = int_row(n)
        h = self._t[0] * n0 + self._t[1] * n1 + self._t[2] * n2
        for v0, v1, v2 in self._g:
            s = v0 * n0 + v1 * n1 + v2 * n2
            if s > 0:
                h += s
        return Fraction(h, self._den * q)

    def contains(self, x: Vec3) -> Location:
        """OUTSIDE if x is beyond a facet's plane, else BOUNDARY if on one."""
        # x = X / d is beyond facet (n, h / den) when den (n . X) > h d
        (x1, x2, x3), d = int_row(x)
        den = self._den
        on_boundary = False
        for (n1, n2, n3), h, _o, _plane, _opp in self._facet_sides:
            excess = den * (n1 * x1 + n2 * x2 + n3 * x3) - h * d
            if excess > 0:
                return Location.OUTSIDE
            on_boundary = on_boundary or excess == 0
        return Location.BOUNDARY if on_boundary else Location.INTERIOR

    def bounding_box(self) -> tuple[Vec3, Vec3]:
        return self._bounding_box

    def interior_mask(self, points: Sequence[Vec3]) -> list[bool]:
        """Per-point strict-interior flags; raises BoundaryHit."""
        mask = []
        for p in points:
            loc = self.contains(p)
            if loc is Location.BOUNDARY:
                raise BoundaryHit(p)
            mask.append(loc is Location.INTERIOR)
        return mask

    # -- volume and paving -----------------------------------------------------

    def volume(self) -> Fraction:
        total = sum(abs(det_int(m)) for m in combinations(self._g, 3))
        return Fraction(total, self._den**3)

    def pave(self) -> Paving:
        """Half-open parallelepiped paving, one cell per independent triple.

        Built on the integer generators in O(n^3), in input order. The cell
        of triple i < j < m is anchored by the visibility sign rule: one pass
        per pair (i, j) reads the sign of g_l . (g_i x g_j) for every l and
        keeps a running anchor on each side of the pair's plane. Half-open
        faces are chosen by a fixed generic direction q, so that the cells
        partition the body.
        """
        if self._paving is not None:
            return self._paving
        g, ig = self.generators, self._g
        pairs = [
            (i, j, n)
            for i, j in combinations(range(len(ig)), 2)
            if (n := cross_int(ig[i], ig[j])) != (0, 0, 0)
        ]
        # q = (1, t, t^2) for the first t >= 1 off every pair plane; each
        # normal n rules out at most the two roots of n0 + n1 t + n2 t^2
        t = 1
        while any(n0 + n1 * t + n2 * t * t == 0 for _i, _j, (n0, n1, n2) in pairs):
            t += 1
        q = (1, t, t * t)
        cells: list[PavingCell] = []
        for i, j, n in pairs:
            gi = ig[i]
            w = cross_int(n, gi)  # in-plane normal of g_i, on g_j's side
            # flag k of cell (i, j, m) is r_k . q > 0 for the rows r_k of the
            # inverse of (g_i, g_j, g_m): (g_j x g_m, g_m x g_i, n) / det with
            # det = g_m . n, and the first two dot q as g_m . u and g_m . v
            u, v, nq = cross_int(q, ig[j]), cross_int(gi, q), _dot(n, q) > 0
            sums = [self._t, self._t]  # the running anchors below and above the plane
            for l, x in enumerate(ig):
                if s := _dot(x, n):
                    o = sums[up := s > 0]
                    if l > j:
                        flags = ((_dot(x, u) > 0) == up, (_dot(x, v) > 0) == up, nq == up)
                        cells.append(PavingCell(_vec(o, self._den), (g[i], g[j], g[l]), flags))
                    sums[up] = (o[0] + x[0], o[1] + x[1], o[2] + x[2])
                # in the plane: off g_i's line when l < j on g_j's side, on it
                # when l < i along g_i; both come before every m > j, and
                # g_i and g_j fail their own rule
                elif (l < j and sw > 0) if (sw := _dot(x, w)) else (l < i and _dot(x, gi) > 0):
                    sums = [(o[0] + x[0], o[1] + x[1], o[2] + x[2]) for o in sums]
        self._paving = Paving(tuple(cells))
        return self._paving

    # -- facet polygons --------------------------------------------------------

    def facet_polygon(self, facet_index: int) -> list[Vec3]:
        """Vertices of a facet in order, oriented counterclockwise seen from
        outside (right-hand rule about the outward normal). Walked on the
        integers over ``_den``; a ``Vec3`` is built only for each vertex."""
        n, _h, base, _plane, _opp = self._facet_sides[facet_index]
        segs = []
        for d, members in self._classes:
            if _dot(d, n):
                continue
            seg = (0, 0, 0)
            for v in (self._g[i] for i in members):
                if _dot(v, d) > 0:
                    seg = _add(seg, v)
                else:
                    seg, base = _add(seg, v, -1), _add(base, v)  # [0, v] == v + [0, -v]
            segs.append(seg)
        u1 = segs[0]
        u2 = cross_int(n, u1)
        keyed = []
        for seg in segs:
            a, b = _dot(seg, u1), _dot(seg, u2)
            if b < 0 or (b == 0 and a < 0):
                base, seg, a, b = _add(base, seg), (-seg[0], -seg[1], -seg[2]), -a, -b
            keyed.append((seg, a, b))
        # u1 x u2 = |u1|^2 n: a rising angle in (u1, u2) turns counterclockwise about n
        ordered = [seg for seg, _a, _b in sorted(keyed, key=_AngleKey)]
        verts = [base]
        for seg in ordered:
            verts.append(_add(verts[-1], seg))
        for seg in ordered[:-1]:
            verts.append(_add(verts[-1], seg, -1))
        return [_vec(v, self._den) for v in verts]

    def vertex_set(self) -> list[Vec3]:
        return sorted({v for i in range(len(self._facet_sides)) for v in self.facet_polygon(i)})

    # -- frames ----------------------------------------------------------------

    def frames(self) -> tuple[Frame, ...]:
        if self._frames is None:
            self._build_frames()
        return self._frames

    def _build_frames(self) -> None:
        """Frames of every facet pair, on the integer generators over ``_den``.

        Every frame is non-degenerate. Take the facet normal n, the class
        direction d in the facet plane and w = n x d, so d, w and n are
        orthogonal. e is a positive sum of class members, so e is a nonzero
        multiple of d. tau1 lies in the facet plane, and its component along
        w is plus or minus the sum of |v . w| over the members v of the
        other in-plane classes. The plane is spanned by two classes, so
        there is such a v, and v . w != 0 for each, so that component is
        nonzero. The base lies on the facet, so
        n . tau2 = 2 (n . center - support), which is negative because the
        center is interior. In the basis (d, w, n) the matrix of
        (e, tau1, tau2) is triangular with a nonzero diagonal, so
        det(e, tau1, tau2) != 0.
        """
        den, g, c2 = self._den, self._g, self._c2
        frames: list[Frame] = []
        # the first facet of each pair (n, -n)
        for fi in range(0, len(self._facet_sides), 2):
            n, _h, o, _plane, _opp = self._facet_sides[fi]
            in_plane = [(d, members) for d, members in self._classes if not _dot(d, n)]
            for d, members in in_plane:
                e, neg = [0, 0, 0], [0, 0, 0]
                for idx in members:
                    v = g[idx]
                    if v[0] * d[0] + v[1] * d[1] + v[2] * d[2] > 0:
                        e = [e[k] + v[k] for k in range(3)]
                    else:
                        e = [e[k] - v[k] for k in range(3)]
                        neg = [neg[k] + v[k] for k in range(3)]
                w0, w1, w2 = cross_int(n, d)
                base_a = [o[k] + neg[k] for k in range(3)]
                base_b = list(base_a)
                for dc, mem in in_plane:
                    if dc is d:
                        continue
                    for idx in mem:
                        v = g[idx]
                        side = base_a if v[0] * w0 + v[1] * w1 + v[2] * w2 > 0 else base_b
                        side[0] += v[0]
                        side[1] += v[1]
                        side[2] += v[2]
                base, other = (base_a, base_b) if base_a < base_b else (base_b, base_a)
                tau1 = [other[k] - base[k] for k in range(3)]
                tau2 = [c2[k] - 2 * base[k] - tau1[k] - e[k] for k in range(3)]
                if det_int((e, tau1, tau2)) == 0:
                    raise AssertionError("degenerate frame: implementation bug")
                frames.append(Frame._from_ints(e, base, tau1, tau2, den, fi, d))
        self._frames = tuple(frames)


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _add(a: Sequence[int], b: Sequence[int], k: int = 1) -> tuple[int, int, int]:
    return (a[0] + k * b[0], a[1] + k * b[1], a[2] + k * b[2])


def _vec(ints: Sequence[int], den: int = 1) -> Vec3:
    """The API-edge vector of integer numerators over den."""
    return Vec3.from_ints(*ints, den)


class _AngleKey:
    """Sort key for exact angular order in the closed upper half plane."""

    def __init__(self, item):
        _s, self.a, self.b = item

    def __lt__(self, other) -> bool:
        return self.a * other.b - self.b * other.a > 0
