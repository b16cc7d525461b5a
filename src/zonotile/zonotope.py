"""Zonotopes in R^3: facets, edge frames, half-open pavings, membership.

A zonotope is a Minkowski sum of segments [0, v_i] plus a translate. All
derived structure here (facet planes, the two-opposite-edges frames, the
parallelepiped paving) is computed in exact rational arithmetic. Membership in
the body and in a paving cell is one integer half-space test: each facet or
cell face is cleared to integers n, h, each point to X / d, and the point's
excess n . X - h * d is compared with 0. No float takes part in a membership
verdict.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .linalg import Vec3, VEC_ZERO, det3, int_row, inverse_rows, primitive, rank_of


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


@dataclass(frozen=True)
class Frame:
    """Four parallel edges: two opposite edges of a facet and their reflections.

    Legs are the segments base + [0, e], base + tau1 + [0, e] on one facet and
    base + tau2 + [0, e], base + tau1 + tau2 + [0, e] on the opposite facet.
    """

    e: Vec3
    base: Vec3
    tau1: Vec3
    tau2: Vec3
    facet_index: int

    def vectors(self) -> tuple[Vec3, Vec3, Vec3]:
        return (self.e, self.tau1, self.tau2)

    def is_degenerate(self) -> bool:
        return det3(self.e, self.tau1, self.tau2) == 0

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
        for r, inc in zip(inverse_rows(*self.edges), self.include_zero_face):
            # t_i = r . (x - anchor) = (a . x - c) / s
            (a1, a2, a3, c), s = int_row((*r, r.dot(self.anchor)))
            faces += [(-a1, -a2, -a3, -c, inc), (a1, a2, a3, c + s, not inc)]
        object.__setattr__(self, "_faces", tuple(faces))

    def volume(self) -> Fraction:
        return abs(det3(*self.edges))

    def contains(self, x: Vec3) -> bool:
        (x1, x2, x3), d = int_row(x)
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
        return [i for i, c in enumerate(self.cells) if c.contains(x)]

    def count(self, x: Vec3) -> int:
        return len(self.locate(x))


class Zonotope:
    """Minkowski sum of segments [0, v_i] translated by ``translate``.

    Generators must be nonzero and span R^3. Facets are enumerated at
    construction; frames and the paving are built on first use and cached.
    Treat instances as immutable.
    """

    def __init__(self, generators: Iterable[Vec3], translate: Vec3 = VEC_ZERO):
        gens = tuple(generators)
        for v in gens:
            if v.is_zero():
                raise ValueError("zero segment")
        if rank_of(gens) != 3:
            raise ValueError("degenerate zonotope: generators must span R^3")
        self.generators = gens
        self.translate = translate
        half = Fraction(1, 2)
        self.center = translate + sum((v for v in gens), VEC_ZERO) * half
        self.direction_classes = self._direction_classes()
        self.facets = self._build_facets()
        # <x, n> < h iff n' . X < h' * d for x = X / d; (n', h') clears (n, h)
        self._facet_ints = tuple(int_row((*f.normal, f.support))[0] for f in self.facets)
        self._frames: tuple[Frame, ...] | None = None
        self._degenerate_frames: tuple[Frame, ...] | None = None
        self._paving: Paving | None = None

    # -- construction helpers ------------------------------------------------

    def _direction_classes(self) -> tuple[tuple[Vec3, tuple[int, ...]], ...]:
        classes: dict[Vec3, list[int]] = {}
        for i, v in enumerate(self.generators):
            classes.setdefault(primitive(v), []).append(i)
        return tuple((d, tuple(m)) for d, m in classes.items())

    def _build_facets(self) -> tuple[Facet, ...]:
        normals: dict[Vec3, None] = {}
        for a in range(len(self.direction_classes)):
            for b in range(a + 1, len(self.direction_classes)):
                da = self.direction_classes[a][0]
                db = self.direction_classes[b][0]
                n = da.cross(db)
                if not n.is_zero():
                    normals[primitive(n)] = None
        facets: list[Facet] = []
        for n0 in normals:
            base_idx = len(facets)
            for n, opp in ((n0, base_idx + 1), (-n0, base_idx)):
                offset = self.translate
                plane: list[int] = []
                for i, v in enumerate(self.generators):
                    s = v.dot(n)
                    if s > 0:
                        offset = offset + v
                    elif s == 0:
                        plane.append(i)
                facets.append(
                    Facet(
                        normal=n,
                        support=offset.dot(n),
                        offset=offset,
                        plane_generators=tuple(plane),
                        opposite_index=opp,
                    )
                )
        return tuple(facets)

    # -- exact membership ----------------------------------------------------

    def support_value(self, n: Vec3) -> Fraction:
        h = self.translate.dot(n)
        for v in self.generators:
            s = v.dot(n)
            if s > 0:
                h += s
        return h

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
        lo, hi = self.translate, self.translate
        lo_c, hi_c = list(lo), list(hi)
        for v in self.generators:
            for i, c in enumerate(v):
                if c > 0:
                    hi_c[i] += c
                else:
                    lo_c[i] += c
        return Vec3(*lo_c), Vec3(*hi_c)

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
        total = Fraction(0)
        g = self.generators
        for i in range(len(g)):
            for j in range(i + 1, len(g)):
                for k in range(j + 1, len(g)):
                    total += abs(det3(g[i], g[j], g[k]))
        return total

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

    def degenerate_frames(self) -> tuple[Frame, ...]:
        if self._degenerate_frames is None:
            self._build_frames()
        return self._degenerate_frames

    def _build_frames(self) -> None:
        frames: list[Frame] = []
        bad: list[Frame] = []
        for fi, f in enumerate(self.facets):
            if fi > f.opposite_index:
                continue  # one frame set per facet pair
            in_plane_classes = [
                (d, members)
                for d, members in self.direction_classes
                if d.dot(f.normal) == 0
            ]
            for d, members in in_plane_classes:
                neg = VEC_ZERO
                e = VEC_ZERO
                for idx in members:
                    v = self.generators[idx]
                    if v.dot(d) > 0:
                        e = e + v
                    else:
                        e = e - v
                        neg = neg + v
                w = f.normal.cross(d)
                shift_pos = VEC_ZERO
                shift_neg = VEC_ZERO
                for dc, mem in in_plane_classes:
                    if dc == d:
                        continue
                    for idx in mem:
                        v = self.generators[idx]
                        if v.dot(w) > 0:
                            shift_pos = shift_pos + v
                        else:
                            shift_neg = shift_neg + v
                base_a = f.offset + neg + shift_pos
                base_b = f.offset + neg + shift_neg
                base, other = (base_a, base_b) if base_a < base_b else (base_b, base_a)
                tau1 = other - base
                tau2 = self.center * 2 - base * 2 - tau1 - e
                frame = Frame(e=e, base=base, tau1=tau1, tau2=tau2, facet_index=fi)
                if frame.is_degenerate():
                    bad.append(frame)
                else:
                    frames.append(frame)
        self._frames = tuple(frames)
        self._degenerate_frames = tuple(bad)


class _AngleKey:
    """Sort key for exact angular order in the closed upper half plane."""

    def __init__(self, item):
        _s, self.a, self.b = item

    def __lt__(self, other) -> bool:
        return self.a * other.b - self.b * other.a > 0
