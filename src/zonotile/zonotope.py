"""Zonotopes in R^3: facets, edge frames, half-open pavings, membership.

A zonotope is a Minkowski sum of segments [0, v_i] plus a translate. Its
denominators are cleared once, at construction: the generators and the
translate are kept as integer triples over one denominator D, and the
direction classes, facet normals, offsets and supports, the bounding box, the
volume, the frames, the facet polygons and the half-open paving are all
computed on Python ints. The paving takes one sign pass over the generators
per generator pair, O(n^3) in all, and gives each cell its faces and volume
from the integers of that pass: the adjugate rows g_j x g_l, g_l x g_i and
g_i x g_j of the cell's generators and the determinant the pass reads. A
facet's polygon and frames read one sum per in-plane direction class
(``_in_plane``). ``Fraction`` and ``Vec3`` values are built only at the API
edge: the bounding box at construction, the paving cells' anchors,
``facets`` on first read, ``Frame`` fields and polygon vertices on each read,
so the deciders, which read only integers, never build them.
Membership in the body and in a paving cell is one integer half-space test
per facet or cell face: the point is cleared to X / d, and its excess over
the face's integer row is compared with 0. ``interior_mask`` also takes many
points at once as one numerator array, and tests them all with one product
against the facet rows, which are kept as arrays on first use. No float
takes part in a verdict.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .linalg import (
    Vec3,
    VEC_ZERO,
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
    """A queried point lies exactly on a boundary; callers should resample.

    ``index`` is the point's position among the points queried at once, or
    None for a single point.
    """

    def __init__(self, point: Vec3, index: int | None = None):
        super().__init__(f"boundary point {point}")
        self.point = point
        self.index = index


class _FacetRows(NamedTuple):
    """The facet half-spaces (n . x) den <= h as arrays over the body's den.

    n and zn = den n are the (F, 3) normals and h the (F,) support
    numerators, object arrays of Python ints; g1 is the largest |n|_1.
    """

    n: np.ndarray
    zn: np.ndarray
    h: np.ndarray
    g1: int


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
    (then t_i = 1 does not), so the paving is an exact partition. Cells come
    from ``Zonotope.pave``, which derives each face, an integer half-space
    (n, h, closed), and the volume |det| / den^3 from the integers it already
    holds for the cell's generators.
    """

    anchor: Vec3
    edges: tuple[Vec3, Vec3, Vec3]
    include_zero_face: tuple[bool, bool, bool]
    _faces: tuple[tuple[int, int, int, int, bool], ...] = field(repr=False, compare=False)
    _volume: Fraction = field(repr=False, compare=False)

    @classmethod
    def _from_ints(cls, edges, p, den: int, rows, det: int, q) -> PavingCell:
        """The cell P / den + edges whose edge numerators over den have the
        adjugate rows r_i and determinant det, half-open along q.

        t_i = den r_i . (x - P / den) / det, that is (a . x - c) / s for
        (a, c, s) = (sign den r_i, sign r_i . P, |det|) over their gcd. The
        face t_i = 0 is included iff r_i . q / det > 0.
        """
        up = det > 0
        sign, s = (1, det) if up else (-1, -det)
        faces, flags = [], []
        for r in rows:
            inc = (_dot(r, q) > 0) == up
            a1, a2, a3 = sign * den * r[0], sign * den * r[1], sign * den * r[2]
            c = sign * _dot(r, p)
            g = gcd(a1, a2, a3, c, s)
            a1, a2, a3, c = a1 // g, a2 // g, a3 // g, c // g
            faces += [(-a1, -a2, -a3, -c, inc), (a1, a2, a3, c + s // g, not inc)]
            flags.append(inc)
        return cls(_vec(p, den), edges, tuple(flags), tuple(faces), Fraction(s, den**3))

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
    construction; the ``Facet`` tuple, the facet rows as arrays, the frames,
    the paving and the counting kernel's offset boxes are built on first use
    and cached. The body is centrally symmetric about the midpoint of its
    bounding box, and its direction classes group ``generators`` by
    ``linalg.primitive``. Treat instances as immutable.
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
        lo = [t[k] + sum(v[k] for v in g if v[k] < 0) for k in range(3)]
        hi = [t[k] + sum(v[k] for v in g if v[k] > 0) for k in range(3)]
        self._bounding_box = (_vec(lo, den), _vec(hi, den))
        classes: dict[tuple[int, int, int], list[int]] = {}
        for i, v in enumerate(g):
            classes.setdefault(primitive_triple(v), []).append(i)
        self._classes = tuple((d, tuple(m)) for d, m in classes.items())
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

    @cached_property
    def _facet_rows(self) -> _FacetRows:
        """The facet half-spaces as integer arrays, for tests of many points."""
        n = np.array([m for m, *_ in self._facet_sides], dtype=object)
        h = np.array([h for _m, h, *_ in self._facet_sides], dtype=object)
        g1 = int(np.abs(n).sum(axis=1).max())
        return _FacetRows(n, self._den * n, h, g1)

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

    def interior_mask(self, points, den: int | None = None) -> list[bool]:
        """Per-point strict-interior flags, as a list of bools.

        points is a sequence of ``Vec3``s, or, with den > 0 given, one
        (N, 3) integer array (int64 or object) of numerators over den. The
        ``Vec3``s are cleared to such an array over their least common
        denominator. Every row X is tested at once: its excesses
        den_z (n . X) - h den over the facet rows are one product on Python
        ints against ``_facet_rows``. Either form raises BoundaryHit, with
        the point as a ``Vec3`` and its index, at the first point on a facet
        and beyond none.
        """
        if den is None:
            rows, den = int_triples(points)
            points = np.array(rows, dtype=object).reshape(-1, 3)
        elif den <= 0:
            raise ValueError("denominator must be positive")
        facets = self._facet_rows
        excess = points.astype(object, copy=False) @ facets.zn.T - facets.h * den
        interior = (excess < 0).all(axis=1)
        rest = np.flatnonzero(~interior)
        if len(on := rest[(excess[rest] <= 0).all(axis=1)]):
            i = int(on[0])
            raise BoundaryHit(Vec3.from_ints(*(int(c) for c in points[i]), den), i)
        return interior.tolist()

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
        den, cells = self._den, []
        for i, j, n in pairs:
            gi, gj = ig[i], ig[j]
            w = cross_int(n, gi)  # in-plane normal of g_i, on g_j's side
            sums = [self._t, self._t]  # the running anchors below and above the plane
            for l, x in enumerate(ig):
                if s := _dot(x, n):
                    o = sums[up := s > 0]
                    if l > j:
                        # the adjugate rows of (g_i, g_j, g_l), whose determinant is s
                        rows = (cross_int(gj, x), cross_int(x, gi), n)
                        cells.append(PavingCell._from_ints((g[i], g[j], g[l]), o, den, rows, s, q))
                    sums[up] = (o[0] + x[0], o[1] + x[1], o[2] + x[2])
                # in the plane: off g_i's line when l < j on g_j's side, on it
                # when l < i along g_i; both come before every m > j, and
                # g_i and g_j fail their own rule
                elif (l < j and sw > 0) if (sw := _dot(x, w)) else (l < i and _dot(x, gi) > 0):
                    sums = [(o[0] + x[0], o[1] + x[1], o[2] + x[2]) for o in sums]
        self._paving = Paving(tuple(cells))
        return self._paving

    # -- facet polygons --------------------------------------------------------

    def _in_plane(self, n: Sequence[int], o: Sequence[int]) -> tuple[tuple[int, int, int], list]:
        """(vertex, [(d, e), ...]) for the facet with normal n and support point o.

        Per direction class d in the plane n . x = 0, in class order, e is the
        sum of the members oriented along d, a positive multiple of d. A member
        v against d moves the vertex by v, since [0, v] == v + [0, -v], so the
        facet is the vertex plus the segments [0, e].
        """
        classes = []
        for d, members in self._classes:
            if not _dot(d, n):
                e = (0, 0, 0)
                for v in (self._g[i] for i in members):
                    if _dot(v, d) > 0:
                        e = _add(e, v)
                    else:
                        e, o = _add(e, v, -1), _add(o, v)
                classes.append((d, e))
        return tuple(o), classes

    def facet_polygon(self, facet_index: int) -> list[Vec3]:
        """Vertices of a facet in order, oriented counterclockwise seen from
        outside (right-hand rule about the outward normal). Walked on the
        integers over ``_den``; a ``Vec3`` is built only for each vertex."""
        n, _h, o, _plane, _opp = self._facet_sides[facet_index]
        base, classes = self._in_plane(n, o)
        segs = [e for _d, e in classes]
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
        den, c2 = self._den, self._c2
        frames: list[Frame] = []
        # the first facet of each pair (n, -n)
        for fi in range(0, len(self._facet_sides), 2):
            n, _h, o, _plane, _opp = self._facet_sides[fi]
            vertex, in_plane = self._in_plane(n, o)
            for d, e in in_plane:
                w = cross_int(n, d)
                # the other classes' sums, split by the side of w they point to
                base_a = base_b = vertex
                for dc, ec in in_plane:
                    if dc is not d:
                        if _dot(dc, w) > 0:
                            base_a = _add(base_a, ec)
                        else:
                            base_b = _add(base_b, ec)
                base, other = (base_a, base_b) if base_a < base_b else (base_b, base_a)
                tau1 = _add(other, base, -1)
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
