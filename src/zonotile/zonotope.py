"""Zonotopes in R^3: facets, edge frames, half-open pavings, membership.

A zonotope is a Minkowski sum of segments [0, v_i] plus a translate. Its
denominators are cleared once, at construction: the generators and the
translate are kept as integer triples over one denominator D, and the
direction classes, facet normals, offsets and supports, the bounding box, the
volume and the two-opposite-edges frames are all computed on Python ints.
``Fraction`` and ``Vec3`` values are built only at the API edge: the
``direction_classes`` at construction, the ``facets`` tuple and each
``Frame``'s fields on first read, so the deciders, which read only integers,
never build them. Membership in the body and in a paving cell is one integer
half-space test: each facet or cell face is cleared to integers n, h, each
point to X / d, and the point's excess n . X - h * d is compared with 0. No
float takes part in a verdict.
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
    det3,
    det_int,
    int_row,
    int_triples,
    inverse_rows,
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
    ``vector_ints()`` gives e, tau1 and tau2 as nine integers over one
    denominator. A zonotope builds its frames from integer numerators over
    its own denominator, and the ``Vec3`` fields e, base, tau1 and tau2 are
    built from them on first read and cached; a frame built from ``Vec3``s
    clears them to integers on the first ``vector_ints()`` call. Frames are
    immutable, and equality, hashing and ``repr`` run over
    (e, base, tau1, tau2, facet_index), as for a frozen dataclass.
    """

    __slots__ = ("_facet_index", "_vecs", "_ints", "_base", "_e_dir")

    def __init__(self, e: Vec3, base: Vec3, tau1: Vec3, tau2: Vec3, facet_index: int):
        self._vecs: tuple[Vec3, Vec3, Vec3, Vec3] | None = (e, base, tau1, tau2)
        self._ints: tuple[tuple[int, ...], int] | None = None
        self._base: tuple[int, ...] = ()
        self._e_dir: tuple[int, int, int] | None = None
        self._facet_index = facet_index

    @classmethod
    def _from_ints(cls, e, base, tau1, tau2, den: int, facet_index: int, e_dir) -> Frame:
        """The frame of integer numerator triples over den; fields built on first read."""
        fr = cls.__new__(cls)
        fr._vecs = None
        fr._ints = ((*e, *tau1, *tau2), den)
        fr._base = tuple(base)
        fr._e_dir = e_dir
        fr._facet_index = facet_index
        return fr

    def _fields(self) -> tuple[Vec3, Vec3, Vec3, Vec3]:
        if self._vecs is None:
            c, den = self._ints
            e, tau1, tau2 = (_vec(c[k : k + 3], den) for k in (0, 3, 6))
            self._vecs = (e, _vec(self._base, den), tau1, tau2)
        return self._vecs

    @property
    def e(self) -> Vec3:
        return self._fields()[0]

    @property
    def base(self) -> Vec3:
        return self._fields()[1]

    @property
    def tau1(self) -> Vec3:
        return self._fields()[2]

    @property
    def tau2(self) -> Vec3:
        return self._fields()[3]

    @property
    def facet_index(self) -> int:
        return self._facet_index

    def _key(self) -> tuple:
        return (*self._fields(), self._facet_index)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        e, base, tau1, tau2 = self._fields()
        return (
            f"Frame(e={e!r}, base={base!r}, tau1={tau1!r}, "
            f"tau2={tau2!r}, facet_index={self._facet_index!r})"
        )

    def vectors(self) -> tuple[Vec3, Vec3, Vec3]:
        e, _base, tau1, tau2 = self._fields()
        return (e, tau1, tau2)

    def vector_ints(self) -> tuple[tuple[int, ...], int]:
        if self._ints is None:
            rows, den = int_triples(self.vectors())
            self._ints = (tuple(c for row in rows for c in row), den)
        return self._ints

    def is_degenerate(self) -> bool:
        return det3(*self.vectors()) == 0

    def leg_bases(self) -> tuple[Vec3, Vec3, Vec3, Vec3]:
        b = self.base
        return (b, b + self.tau1, b + self.tau2, b + self.tau1 + self.tau2)


@dataclass(frozen=True)
class PavingCell:
    """Half-open parallelepiped anchor + {t1 e1 + t2 e2 + t3 e3 : 0 <= t_i <= 1}.

    include_zero_face[i] tells whether the face t_i = 0 belongs to the cell
    (then t_i = 1 does not), so the paving is an exact partition. Each face
    is kept as an integer half-space (n, h, closed).
    """

    anchor: Vec3
    edges: tuple[Vec3, Vec3, Vec3]
    include_zero_face: tuple[bool, bool, bool]
    _faces: tuple[tuple[int, int, int, int, bool], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        faces = []
        (p1, p2, p3), q = int_row(self.anchor)
        for r, inc in zip(inverse_rows(*self.edges), self.include_zero_face):
            # t_i = r . (x - anchor) = (a . x - c) / s for r = R / rden and
            # anchor = P / q, with (a, c, s) = (q R, R . P, q rden) over their gcd
            (r1, r2, r3), rden = int_row(r)
            a1, a2, a3, c, s = q * r1, q * r2, q * r3, r1 * p1 + r2 * p2 + r3 * p3, q * rden
            g = gcd(a1, a2, a3, c, s)
            a1, a2, a3, c, s = a1 // g, a2 // g, a3 // g, c // g, s // g
            faces += [(-a1, -a2, -a3, -c, inc), (a1, a2, a3, c + s, not inc)]
        object.__setattr__(self, "_faces", tuple(faces))

    def volume(self) -> Fraction:
        return abs(det3(*self.edges))

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

        Sets the integer half-spaces ``_facet_ints`` (<x, n> < h iff
        n' . X < h' * d for x = X / d) and ``_facet_sides``: per facet the
        normal, the support and offset numerators over ``_den``, the in-plane
        generators and the opposite index, which ``facets`` turns into
        ``Facet``s on first read.
        """
        den, g = self._den, self._g
        dirs = [d for d, _ in self._classes]
        normals: dict[tuple[int, int, int], None] = {}
        for i, (a0, a1, a2) in enumerate(dirs):
            for b0, b1, b2 in dirs[i + 1 :]:
                # distinct sign-canonical primitive directions are never parallel
                n = (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
                normals[primitive_triple(n)] = None
        sides: list[tuple] = []
        rows: list[tuple[int, int, int, int]] = []
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
                q = gcd(h, den)
                rows.append((m[0] * (den // q), m[1] * (den // q), m[2] * (den // q), h // q))
                sides.append((m, h, o, tuple(plane), opp))
        self._facet_sides = tuple(sides)
        self._facet_ints = tuple(rows)

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
        (x1, x2, x3), d = int_row(x)
        on_boundary = False
        for n1, n2, n3, h in self._facet_ints:
            excess = n1 * x1 + n2 * x2 + n3 * x3 - h * d
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

    def _generic_direction(self) -> Vec3:
        """Rational direction transversal to every generator-pair plane."""
        g = self.generators
        normals = []
        for i in range(len(g)):
            for j in range(i + 1, len(g)):
                n = g[i].cross(g[j])
                if not n.is_zero():
                    normals.append(n)
        t = 1
        while True:
            q = Vec3.of(1, t, t * t)
            if all(q.dot(n) != 0 for n in normals):
                return q
            t += 1

    def pave(self) -> Paving:
        """Half-open parallelepiped paving, one cell per independent triple.

        Generators are processed in input order; the cell of triple i<j<m is
        anchored by the visibility sign rule, and half-open faces are chosen
        by a fixed generic direction so that the cells partition the body.
        """
        if self._paving is not None:
            return self._paving
        g = self.generators
        q = self._generic_direction()
        cells: list[PavingCell] = []
        for i in range(len(g)):
            for j in range(i + 1, len(g)):
                n2_raw = g[i].cross(g[j])
                if n2_raw.is_zero():
                    continue
                n1 = n2_raw.cross(g[i])  # in-plane normal of g[i]
                if g[j].dot(n1) < 0:
                    n1 = -n1
                for m in range(j + 1, len(g)):
                    sm = g[m].dot(n2_raw)
                    if sm == 0:
                        continue
                    n2 = n2_raw if sm > 0 else -n2_raw
                    anchor = self.translate
                    for l, vl in enumerate(g):
                        if l in (i, j, m):
                            continue
                        s2 = vl.dot(n2)
                        if s2 != 0:
                            if l < m and s2 > 0:
                                anchor = anchor + vl
                        elif not vl.parallel_to(g[i]):
                            if l < j and vl.dot(n1) > 0:
                                anchor = anchor + vl
                        else:
                            if l < i and vl.dot(g[i]) > 0:
                                anchor = anchor + vl
                    edges = (g[i], g[j], g[m])
                    rows = inverse_rows(*edges)
                    flags = tuple(r.dot(q) > 0 for r in rows)
                    cells.append(PavingCell(anchor, edges, flags))
        self._paving = Paving(tuple(cells))
        return self._paving

    # -- facet polygons --------------------------------------------------------

    def facet_polygon(self, facet_index: int) -> list[Vec3]:
        """Vertices of a facet in order, oriented counterclockwise seen from
        outside (right-hand rule about the outward normal)."""
        f = self.facets[facet_index]
        segs: list[Vec3] = []
        base = f.offset
        for d, members in self.direction_classes:
            if d.dot(f.normal) != 0:
                continue
            vec = VEC_ZERO
            for idx in members:
                v = self.generators[idx]
                if v.dot(d) > 0:
                    vec = vec + v
                else:
                    vec = vec - v
                    base = base + v  # start of [0, v] relative to aligned sum
            segs.append(vec)
        # orient segments into the closed upper half plane and sort by angle
        u1 = segs[0]
        u2 = f.normal.cross(u1)
        plane_coords = []
        for s in segs:
            a, b = s.dot(u1), s.dot(u2)
            if b < 0 or (b == 0 and a < 0):
                base = base + s  # [0, s] == s + [0, -s]
                s, a, b = -s, -a, -b
            plane_coords.append((s, a, b))
        ordered = sorted(plane_coords, key=_AngleKey)
        verts = [base]
        for s, _a, _b in ordered:
            verts.append(verts[-1] + s)
        for s, _a, _b in ordered[:-1]:
            verts.append(verts[-1] - s)
        # drop duplicate closing vertex handled implicitly; fix orientation
        e1 = verts[1] - verts[0]
        e2 = verts[2] - verts[1]
        if e1.cross(e2).dot(f.normal) < 0:
            verts.reverse()
        return verts

    def vertex_set(self) -> list[Vec3]:
        return sorted({v for i in range(len(self.facets)) for v in self.facet_polygon(i)})

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
            (n0, n1, n2), _h, o, _plane, _opp = self._facet_sides[fi]
            in_plane = [
                (d, members)
                for d, members in self._classes
                if d[0] * n0 + d[1] * n1 + d[2] * n2 == 0
            ]
            for d, members in in_plane:
                e, neg = [0, 0, 0], [0, 0, 0]
                for idx in members:
                    v = g[idx]
                    if v[0] * d[0] + v[1] * d[1] + v[2] * d[2] > 0:
                        e = [e[k] + v[k] for k in range(3)]
                    else:
                        e = [e[k] - v[k] for k in range(3)]
                        neg = [neg[k] + v[k] for k in range(3)]
                w0, w1, w2 = n1 * d[2] - n2 * d[1], n2 * d[0] - n0 * d[2], n0 * d[1] - n1 * d[0]
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


def _vec(ints: Sequence[int], den: int = 1) -> Vec3:
    """The API-edge vector of integer numerators over den."""
    return Vec3.from_ints(*ints, den)


class _AngleKey:
    """Sort key for exact angular order in the closed upper half plane."""

    def __init__(self, item):
        _s, self.a, self.b = item

    def __lt__(self, other) -> bool:
        return self.a * other.b - self.b * other.a > 0
