"""Zonotope face structure, membership, frames, and the half-open paving."""
import functools
import hashlib
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zonotile import zonotope
from zonotile.io import export_off
from zonotile.linalg import VEC_ZERO, Vec3, int_triples, primitive, rank_of, rat
from zonotile.zonotope import BoundaryHit, Facet, Frame, Location, Zonotope

from conftest import (
    E1,
    E2,
    E3,
    TWO_FLAT_12,
    det3,
    inverse_rows,
    random_rat_vec,
    random_zonotope,
)


def zonotope_from_rows(generators, translate=None) -> Zonotope:
    gens = [Vec3.of(*map(rat, row)) for row in generators]
    tr = Vec3.of(*map(rat, translate)) if translate is not None else VEC_ZERO
    return Zonotope(gens, tr)


def oracle_contains(z: Zonotope, x: Vec3) -> Location:
    """Fraction facet test, independent of the integer half-spaces."""
    on_boundary = False
    for f in oracle_facets(z):
        s = x.dot(f.normal)
        if s > f.support:
            return Location.OUTSIDE
        if s == f.support:
            on_boundary = True
    return Location.BOUNDARY if on_boundary else Location.INTERIOR


def oracle_cell_contains(cell, x: Vec3) -> bool:
    """Fraction cell coordinates t_i, each in (0, 1) or on its included face."""
    d = x - cell.anchor
    for r, inc in zip(inverse_rows(*cell.edges), cell.include_zero_face):
        t = r.dot(d)
        if t == 0:
            if not inc:
                return False
        elif t == 1:
            if inc:
                return False
        elif not 0 < t < 1:
            return False
    return True


def oracle_classes(z: Zonotope) -> dict[Vec3, list[int]]:
    classes: dict[Vec3, list[int]] = {}
    for i, v in enumerate(z.generators):
        classes.setdefault(primitive(v), []).append(i)
    return classes


def oracle_facets(z: Zonotope) -> tuple[Facet, ...]:
    """Facets by Fraction dot products over the generators as given."""
    dirs = list(oracle_classes(z))
    normals = dict.fromkeys(primitive(a.cross(b)) for a, b in itertools.combinations(dirs, 2))
    facets = []
    for n0 in normals:
        base_idx = len(facets)
        for n, opp in ((n0, base_idx + 1), (-n0, base_idx)):
            offset = z.translate
            for v in z.generators:
                if v.dot(n) > 0:
                    offset = offset + v
            plane = tuple(i for i, v in enumerate(z.generators) if v.dot(n) == 0)
            facets.append(Facet(n, offset.dot(n), offset, plane, opp))
    return tuple(facets)


def oracle_frames(z: Zonotope) -> tuple[Frame, ...]:
    """Frames by Fraction vector sums over the generators, with no degeneracy test."""
    center = z.translate + sum(z.generators, VEC_ZERO) * Fraction(1, 2)
    frames = []
    for fi, f in enumerate(oracle_facets(z)):
        if fi > f.opposite_index:
            continue
        in_plane = [(d, m) for d, m in oracle_classes(z).items() if d.dot(f.normal) == 0]
        for d, members in in_plane:
            e, neg = VEC_ZERO, VEC_ZERO
            for idx in members:
                v = z.generators[idx]
                e, neg = (e + v, neg) if v.dot(d) > 0 else (e - v, neg + v)
            w = f.normal.cross(d)
            base_a = base_b = f.offset + neg
            for dc, mem in in_plane:
                if dc == d:
                    continue
                for idx in mem:
                    v = z.generators[idx]
                    if v.dot(w) > 0:
                        base_a = base_a + v
                    else:
                        base_b = base_b + v
            base, other = sorted((base_a, base_b))
            tau1 = other - base
            frames.append(Frame(e, base, tau1, center * 2 - base * 2 - tau1 - e, fi))
    return tuple(frames)


def oracle_facet_polygon(z: Zonotope, facet_index: int) -> list[Vec3]:
    """A facet's vertices by ``Vec3`` sums over the ``Facet`` and the direction
    classes, oriented and angle-sorted on Fraction dot products."""
    f = oracle_facets(z)[facet_index]
    segs, base = [], f.offset
    for d, members in oracle_classes(z).items():
        if d.dot(f.normal) != 0:
            continue
        vec = VEC_ZERO
        for idx in members:
            v = z.generators[idx]
            if v.dot(d) > 0:
                vec = vec + v
            else:
                vec = vec - v
                base = base + v  # start of [0, v] relative to the aligned sum
        segs.append(vec)
    # orient the segments into the closed upper half plane of (u1, n x u1)
    u1 = segs[0]
    u2 = f.normal.cross(u1)
    plane_coords = []
    for s in segs:
        a, b = s.dot(u1), s.dot(u2)
        if b < 0 or (b == 0 and a < 0):
            base = base + s  # [0, s] == s + [0, -s]
            s, a, b = -s, -a, -b
        plane_coords.append((s, a, b))
    # by rising angle: p before q when p x q points along n
    ordered = sorted(plane_coords, key=functools.cmp_to_key(lambda p, q: p[2] * q[1] - p[1] * q[2]))
    verts = [base]
    for s, _a, _b in ordered:
        verts.append(verts[-1] + s)
    for s, _a, _b in ordered[:-1]:
        verts.append(verts[-1] - s)
    return verts


def midpoint(z: Zonotope) -> Vec3:
    """The center of the centrally symmetric body: its bounding box's midpoint."""
    lo, hi = z.bounding_box()
    return (lo + hi) * Fraction(1, 2)


def independent_triple_volume(gens):
    """Independent volume oracle: sum |det| over linearly independent triples."""
    total = Fraction(0)
    for a, b, c in itertools.combinations(gens, 3):
        total += abs(det3(a, b, c))
    return total


def test_construction_rejects_degenerate_input():
    with pytest.raises(ValueError, match="zero segment"):
        Zonotope((E1, Vec3(0, 0, 0), E2))
    with pytest.raises(ValueError, match="degenerate"):
        Zonotope((E1, E2, E1 + E2))


def test_center_is_translate_plus_half_generator_sum(rd4):
    assert midpoint(rd4) == Vec3(1, 1, 1)
    shifted = Zonotope(rd4.generators, Vec3(1, 0, 0))
    assert midpoint(shifted) == midpoint(rd4) + Vec3(1, 0, 0)


def test_cube_combinatorics(cube):
    assert len(cube.facets) == 6
    assert len(cube.vertex_set()) == 8
    edges = sum(len(cube.facet_polygon(i)) for i in range(6))
    assert edges == 2 * 12


def test_rd4_combinatorics(rd4):
    # rhombic dodecahedron: every pair of the 4 directions spans a facet class
    assert len(rd4.facets) == 12
    assert len(rd4.vertex_set()) == 14
    edges = sum(len(rd4.facet_polygon(i)) for i in range(12))
    assert edges == 2 * 24


# sha256 of repr(vertex_set()) and of export_off for six direction classes and a
# rational translate, from the code that counted facets through ``facets``
SIX_CLASS_DIGESTS = (
    "7ef57acc21486697a3e49e1ad3831a9cde7a59e33cfc9bb7e9df5d32c5233375",
    "11cd3594ed96c821cf281864f38331c718587e578012bd7d0cb036f5ba514a27",
)


def test_vertex_set_and_export_off_build_no_facet_tuple():
    def six():
        gens = (E1, E2, E3, Vec3(1, 1, 1), Vec3(1, -2, Fraction(1, 3)), Vec3(Fraction(2, 5), 1, -1))
        return Zonotope(gens, Vec3(Fraction(1, 3), 0, Fraction(-2, 7)))

    z = six()
    got = (z.vertex_set(), export_off(z))
    assert z._facets is None
    texts = (repr(got[0]), got[1])
    assert tuple(hashlib.sha256(t.encode()).hexdigest() for t in texts) == SIX_CLASS_DIGESTS
    # a body whose Facet tuple was read first gives the same output
    built = six()
    assert len(built.facets) == 30
    assert (built.vertex_set(), export_off(built)) == got


def test_facets_come_in_opposite_pairs(rd4):
    for i, f in enumerate(rd4.facets):
        opp = rd4.facets[f.opposite_index]
        assert opp.normal == -f.normal
        assert opp.opposite_index == i


def test_volume_matches_triple_determinant_sum(cube, rd4):
    assert cube.volume() == 1
    assert rd4.volume() == 4
    rng = random.Random(11)
    for _ in range(5):
        z = random_zonotope(rng, 5)
        assert z.volume() == independent_triple_volume(z.generators)


def test_support_value_equals_vertex_maximum(rd4):
    rng = random.Random(2)
    verts = rd4.vertex_set()
    for _ in range(10):
        d = random_rat_vec(rng)
        if d.is_zero():
            continue
        assert rd4.support_value(d) == max(v.dot(d) for v in verts)


def test_contains_classifies_hand_points(cube):
    inside = Vec3(Fraction(1, 2), Fraction(1, 3), Fraction(1, 7))
    assert cube.contains(inside) is Location.INTERIOR
    assert cube.contains(Vec3(0, Fraction(1, 2), Fraction(1, 2))) is Location.BOUNDARY
    assert cube.contains(Vec3(2, 0, 0)) is Location.OUTSIDE
    assert cube.contains(Vec3(1, 1, 1)) is Location.BOUNDARY


def test_contains_agrees_with_segment_sum_witness(rd4):
    # any [0,1]-combination of generators is in the body
    rng = random.Random(5)
    for _ in range(20):
        t = [Fraction(rng.randint(0, 8), 8) for _ in rd4.generators]
        p = rd4.translate
        for ti, g in zip(t, rd4.generators):
            p = p + g * ti
        assert rd4.contains(p) is not Location.OUTSIDE


def test_count_interior_and_mask(cube):
    pts = [
        Vec3(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)),
        Vec3(2, 2, 2),
        Vec3(Fraction(1, 4), Fraction(3, 4), Fraction(1, 8)),
    ]
    assert cube.interior_mask(pts) == [True, False, True]
    assert sum(cube.interior_mask(pts)) == 2
    with pytest.raises(BoundaryHit):
        sum(cube.interior_mask([Vec3(0, 0, 0)]))


def test_interior_mask_exact_far_from_origin():
    # the facet x + y = h of a body near (1e11, -1e11): a float x + y is off
    # by about 1e-5 there, so points within 1e-6 of the facet need exact sums
    big = 10**11
    corner = Vec3(big + Fraction(1, 7), -big + Fraction(2, 7), 0)
    body = Zonotope((Vec3(1, -1, 0), E3, Vec3(1, 1, 0)), corner)
    (h,) = [f.support for f in body.facets if f.normal == Vec3(1, 1, 0)]
    rng = random.Random(1)
    pts = []
    for _ in range(200):
        x = corner.x + 1 + Fraction(rng.getrandbits(30) + 1, 2**31)
        d = Fraction(rng.randint(-50, 50) or 1, 7 * 10**7)
        pts.append(Vec3(x + d, h - x, Fraction(1, 2)))
    assert body.interior_mask(pts) == [
        oracle_contains(body, p) is Location.INTERIOR for p in pts
    ]
    on_facet = corner.x + Fraction(3, 2)
    with pytest.raises(BoundaryHit):
        body.interior_mask([Vec3(on_facet, h - on_facet, Fraction(1, 2))])
    # on the facet's plane but outside the body: outside, not a boundary hit
    off_facet = corner.x + Fraction(1, 2)
    assert body.interior_mask([Vec3(off_facet, h - off_facet, Fraction(1, 2))]) == [False]


def test_bounding_box(rd4):
    lo, hi = rd4.bounding_box()
    assert lo == Vec3(0, 0, 0)
    assert hi == Vec3(2, 2, 2)


def test_frames_satisfy_leg_relation(cube, rd4):
    # tau2 closes the loop: base + e + tau1 + tau2 reflects to 2*center
    for z in (cube, rd4):
        assert z.frames()
        for fr in z.frames():
            assert fr.tau2 == midpoint(z) * 2 - fr.base * 2 - fr.tau1 - fr.e
            assert not fr.e.cross(fr.tau1).is_zero()


def test_cube_frame_count(cube):
    # per (facet pair, edge direction): 3 facet pairs x 2 directions each
    assert len(cube.frames()) == 6


def test_degenerate_frame_is_an_implementation_bug(monkeypatch):
    # det(e, tau1, tau2) != 0 for every frame (see Zonotope._build_frames);
    # a zero det can only come from a broken construction
    monkeypatch.setattr("zonotile.zonotope.det_int", lambda rows: 0)
    with pytest.raises(AssertionError, match="degenerate frame"):
        Zonotope((E1, E2, E3)).frames()


def test_parallel_generators_merge_for_facets_not_paving():
    z = Zonotope((E1, E1, E2, E3))
    assert len(z.facets) == 6
    assert z.volume() == 2
    assert len(z.pave().cells) == 2


def test_paving_partitions_volume(cube, rd4):
    rng = random.Random(13)
    for z in (cube, rd4, random_zonotope(rng, 5), random_zonotope(rng, 6)):
        paving = z.pave()
        assert paving.total_volume() == z.volume()
        lo, hi = z.bounding_box()
        hits = 0
        for _ in range(300):
            p = Vec3(
                lo.x + (hi.x - lo.x) * Fraction(rng.getrandbits(30), 2**30),
                lo.y + (hi.y - lo.y) * Fraction(rng.getrandbits(30), 2**30),
                lo.z + (hi.z - lo.z) * Fraction(rng.getrandbits(30), 2**30),
            )
            if z.contains(p) is not Location.INTERIOR:
                continue
            hits += 1
            assert paving.count(p) == 1
        assert hits > 50


def test_paving_cells_are_half_open(cube):
    (cell,) = cube.pave().cells
    assert cell.volume() == 1
    assert cell.contains(cell.anchor) == all(cell.include_zero_face)


def test_zonotope_from_rows_parses_rationals():
    z = zonotope_from_rows([["1", "0", "0"], ["0", "1/2", "0"], [0, 0, 2]], ["1/4", 0, 0])
    assert z.generators[1] == Vec3(0, Fraction(1, 2), 0)
    assert z.translate == Vec3(Fraction(1, 4), 0, 0)



FAR = 10**25
small_rats = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 7))
# a coefficient t in [-2/7, 9/7]: 0 and 1 put a point on a face
coeffs = st.builds(Fraction, st.integers(-2, 9), st.just(7))


@st.composite
def rational_bodies(draw) -> Zonotope:
    vecs = st.builds(Vec3, small_rats, small_rats, small_rats)
    gens = draw(st.lists(vecs, min_size=3, max_size=6))
    assume(all(not g.is_zero() for g in gens) and rank_of(gens) == 3)
    if draw(st.booleans()):
        # far from the origin, with sevenths in every coordinate
        far = (FAR * s + Fraction(draw(st.integers(-20, 20)), 7) for s in (1, -1, 1))
        return Zonotope(gens, Vec3(*far))
    return Zonotope(gens, draw(vecs))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(rational_bodies())
def test_facet_polygons_turn_counterclockwise_about_outward_normal(z):
    # the orientation export_off promises: every turn of a facet's boundary,
    # the closing ones included, is counterclockwise seen from outside
    verts = z.vertex_set()
    for i, f in enumerate(z.facets):
        poly = z.facet_polygon(i)
        assert len(set(poly)) == len(poly) >= 4
        # outward: the facet's plane holds the body's largest <x, n>
        assert max(v.dot(f.normal) for v in verts) == poly[0].dot(f.normal) == f.support
        assert all(v.dot(f.normal) == f.support for v in poly)
        k = len(poly)
        for j in range(k):
            a, b, c = poly[j], poly[(j + 1) % k], poly[(j + 2) % k]
            assert (b - a).cross(c - b).dot(f.normal) > 0


@st.composite
def bodies_with_parallel_generators(draw) -> Zonotope:
    """Rational bodies whose generators repeat, reverse or halve earlier ones."""
    vecs = st.builds(Vec3, small_rats, small_rats, small_rats)
    gens = draw(st.lists(vecs, min_size=3, max_size=5))
    assume(all(not g.is_zero() for g in gens) and rank_of(gens) == 3)
    for _ in range(draw(st.integers(1, 4))):
        g = draw(st.sampled_from(gens))
        gens.append(g * draw(st.sampled_from([1, -1, Fraction(1, 2), Fraction(-1, 2)])))
    return Zonotope(draw(st.permutations(gens)), draw(vecs))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(bodies_with_parallel_generators() | rational_bodies())
def test_facet_polygons_match_the_vec3_oracle(z):
    polys = [z.facet_polygon(i) for i in range(len(z.facets))]
    assert polys == [oracle_facet_polygon(z, i) for i in range(len(z.facets))]
    assert z.vertex_set() == sorted({v for poly in polys for v in poly})


def combination(base: Vec3, vectors, ts) -> Vec3:
    for v, t in zip(vectors, ts):
        base = base + v * t
    return base


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.data())
def test_integer_membership_matches_fraction_oracles(data):
    z = data.draw(rational_bodies())
    cells = z.pave().cells
    points = []
    for _ in range(4):
        # on a facet's plane, inside the facet or beyond its edges
        f = data.draw(st.sampled_from(z.facets))
        n = len(f.plane_generators)
        ts = data.draw(st.lists(coeffs, min_size=n, max_size=n))
        points.append(combination(f.offset, [z.generators[i] for i in f.plane_generators], ts))
        # near a cell, with one coordinate t_i forced onto the face t_i = 0 or 1
        cell = data.draw(st.sampled_from(cells))
        ts = data.draw(st.lists(coeffs, min_size=3, max_size=3))
        ts[data.draw(st.integers(0, 2))] = data.draw(st.sampled_from([0, 1]))
        points.append(combination(cell.anchor, cell.edges, ts))
        # anywhere in or near the body
        n = len(z.generators)
        ts = data.draw(st.lists(coeffs, min_size=n, max_size=n))
        points.append(combination(z.translate, z.generators, ts))
    for p in points:
        loc = oracle_contains(z, p)
        assert z.contains(p) is loc
        inside = [c.contains(p) for c in cells]
        assert inside == [oracle_cell_contains(c, p) for c in cells]
        if loc is Location.INTERIOR:
            assert sum(inside) == 1
        if loc is Location.BOUNDARY:
            with pytest.raises(BoundaryHit):
                z.interior_mask([p])
        else:
            assert z.interior_mask([p]) == [loc is Location.INTERIOR]


def mask_or_hit(z, *args):
    """z.interior_mask(*args), or the (point, index) of the BoundaryHit it raises."""
    try:
        return z.interior_mask(*args)
    except BoundaryHit as hit:
        return hit.point, hit.index


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.data())
def test_interior_mask_on_numerator_arrays_matches_contains(data):
    z = data.draw(rational_bodies())
    points = []
    for _ in range(data.draw(st.integers(1, 6))):
        if data.draw(st.booleans()):
            # on a facet's plane: on the facet (a boundary row) or beyond its edges
            f = data.draw(st.sampled_from(z.facets))
            vecs = [z.generators[i] for i in f.plane_generators]
            base = f.offset
        else:
            vecs, base = z.generators, z.translate
        ts = data.draw(st.lists(coeffs, min_size=len(vecs), max_size=len(vecs)))
        points.append(combination(base, vecs, ts))
    rows, den = int_triples(points)
    # the same points as an int64 array, or over den scaled past 2^62
    scale = data.draw(st.sampled_from([1, 2**62 + 1]))
    nums = np.array(rows, dtype=object) * scale
    den *= scale
    if scale == 1 and max(abs(c) for row in rows for c in row) < 2**62:
        nums = nums.astype(np.int64)
    # the same flags, or the same raised point and index, as the Vec3 form
    mask = mask_or_hit(z, nums, den)
    assert mask == mask_or_hit(z, points)
    if isinstance(mask, list):
        assert all(type(b) is bool for b in mask) and type(sum(mask)) is int
    for i, p in enumerate(points):
        loc = z.contains(p)
        hit = (p, 0) if loc is Location.BOUNDARY else [loc is Location.INTERIOR]
        assert mask_or_hit(z, nums[i : i + 1], den) == hit
        assert mask_or_hit(z, points[i : i + 1]) == hit
    assert z.interior_mask(nums[:0], den) == [] == z.interior_mask([])


def test_interior_mask_on_vec3s_runs_the_array_test(cube, monkeypatch):
    monkeypatch.setattr(Zonotope, "contains", lambda *_: pytest.fail("contains called"))
    h = Fraction(1, 2)
    # mixed denominators, a point beyond a facet's plane, then two on the boundary
    pts = [Vec3(h, Fraction(1, 3), Fraction(1, 7)), Vec3(2, 2, 2), Vec3(0, h, h), Vec3(1, 1, 1)]
    assert cube.interior_mask(pts[:2]) == [True, False]
    assert cube.interior_mask([]) == []
    with pytest.raises(BoundaryHit) as hit:
        cube.interior_mask(pts)
    assert (hit.value.point, hit.value.index) == (Vec3(0, h, h), 2)
    assert repr(hit.value.point) == repr(pts[2]) and str(hit.value) == f"boundary point {pts[2]}"


def test_interior_mask_on_numerator_arrays_near_and_far(cube):
    # the cube's facets at 0 and 1; int64 rows over 4, and object rows over 4 (2^62 + 1)
    pts = [(2, 2, 2), (1, 3, 2), (0, 2, 2), (5, 2, 2), (2, 2, -1)]
    for k, dtype in ((1, np.int64), (2**62 + 1, object)):
        nums = np.array(pts, dtype=object).astype(dtype) * k
        assert cube.interior_mask(nums[:2], 4 * k) == [True, True]
        assert cube.interior_mask(nums[3:], 4 * k) == [False, False]
        with pytest.raises(BoundaryHit) as hit:
            cube.interior_mask(nums, 4 * k)
        assert (hit.value.point, hit.value.index) == (Vec3(0, Fraction(1, 2), Fraction(1, 2)), 2)
    with pytest.raises(ValueError, match="positive"):
        cube.interior_mask(np.array(pts), -4)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(rational_bodies())
def test_integer_structure_matches_fraction_oracles(z):
    classes = tuple((Vec3(*d), m) for d, m in z._classes)
    assert classes == tuple((d, tuple(m)) for d, m in oracle_classes(z).items())
    assert z.facets == oracle_facets(z)
    frames = oracle_frames(z)
    # no oracle frame is degenerate, and the body keeps every one
    assert all(det3(*f.vectors()) != 0 for f in frames)
    assert z.frames() == frames
    assert midpoint(z) == z.translate + sum(z.generators, VEC_ZERO) * Fraction(1, 2)
    lo, hi = z.bounding_box()
    for t, a, b, *coords in zip(z.translate, lo, hi, *z.generators):
        assert a == t + sum(c for c in coords if c < 0)
        assert b == t + sum(c for c in coords if c > 0)
    assert z.bounding_box() is z.bounding_box()
    assert z.volume() == independent_triple_volume(z.generators)
    for d in (E1, Vec3(Fraction(1, 3), Fraction(-5, 2), 7), -z.generators[0]):
        oracle = z.translate.dot(d) + sum(max(v.dot(d), 0) for v in z.generators)
        assert z.support_value(d) == oracle


# sha256 prefixes of repr(frames()) and repr(facets),
# and the direction classes, for integer, repeated and rational translated
# generators: the order and the Fraction form of every field are pinned
RATIONAL_ROWS = (
    ("1/2", "0", "1"), ("0", "2/3", "-1"), ("-1/3", "1", "2/5"),
    ("3/4", "-1/2", "0"), ("1", "1", "1"), ("-3/2", "1/5", "1"),
)
PINNED_STRUCTURE = {
    "cube": (
        (E1, E2, E3), VEC_ZERO,
        ("ff42390401c833cd", "c7c8800b71716fa9", "9791b7809bc54df6", "2c7eed8ebf5868e6",
         "3ebf4e2b7ed716cb"), 1,
        (((1, 0, 0), (0,)), ((0, 1, 0), (1,)), ((0, 0, 1), (2,))),
    ),
    "rd4": (
        (E1, E2, E3, Vec3(1, 1, 1)), VEC_ZERO,
        ("fc02992c8c1e9413", "7a49b9b070927841", "f3b1bbb884718d32", "1bdc7a4dd2c5b337",
         "1dc1e0f49e6f799d"), 4,
        (((1, 0, 0), (0,)), ((0, 1, 0), (1,)), ((0, 0, 1), (2,)), ((1, 1, 1), (3,))),
    ),
    "two_flat_12": (
        tuple(Vec3.of(*r) for r in TWO_FLAT_12), VEC_ZERO,
        ("d0436a10f94e89ac", "6436a51fec063bab", "383a4c151d9e4809", "becb9ec607b99626",
         "2e55b482701d9c7e"), 150,
        (
            ((1, 2, 0), (0,)), ((1, 1, 1), (1, 2, 5)), ((0, 1, -1), (3, 4)),
            ((2, -2, -5), (6,)), ((2, 0, -1), (7,)), ((2, 2, 3), (8,)),
            ((2, -1, -3), (9,)), ((4, 1, 0), (10, 11)),
        ),
    ),
    "rational_sevenths": (
        tuple(Vec3.of(*r) for r in RATIONAL_ROWS), Vec3.of("3/7", "-5/7", "22/7"),
        ("a5ebe81d52f86be1", "561ae511875b83ab", "84bbb125fdf45af4", "e74a331f96222a7a",
         "7166a97b0e8e5794"), 20,
        (
            ((1, 0, 2), (0,)), ((0, 2, -3), (1,)), ((5, -15, -6), (2,)),
            ((3, -2, 0), (3,)), ((1, 1, 1), (4,)), ((15, -2, -10), (5,)),
        ),
    ),
    # the only pinned body whose paving adds an antiparallel in-plane generator
    # to an anchor; the translate is far from the origin and rational
    "antiparallel_far": (
        tuple(
            Vec3.of(*r)
            for r in ((-2, 0, 0), (0, 1, 0), (1, 0, 0), (0, 0, 1), (1, 1, 1), ("1/3", 0, 0), (0, -1, "1/2"))
        ),
        Vec3.of(Fraction(10**25) + Fraction(1, 7), -(10**25), "22/7"),
        ("8c8341dccbeeed73", "bf6aee8af20a741c", "c90766144eededfa", "6f3fe492605ae7bd",
         "102eef87671b0007"), 21,
        (
            ((1, 0, 0), (0, 2, 5)), ((0, 1, 0), (1,)), ((0, 0, 1), (3,)),
            ((1, 1, 1), (4,)), ((0, 2, -1), (6,)),
        ),
    ),
    # 40 rational generators in 32 classes, some of whose members point
    # against their class direction: 8,775 cells
    "forty": (
        tuple(
            Vec3.of(*(Fraction(a, 1 + k % 3) for a in (k % 5 - 2, 3 * k % 7 - 3, k * k % 5 - 2)))
            for k in range(40)
        ),
        Vec3.of("1/3", "-5/2", "7"),
        ("7b8775030f438732", "3be24cf271bea1b3", "365c5692f3409f8b", "bf1d3296ea34e4f2",
         "2c8329b8aedf161f"), 8775,
        (
            ((2, 3, 2), (0, 35)), ((1, 0, 1), (1, 15, 36)), ((0, 3, 2), (2, 37)),
            ((1, -1, 2), (3, 38)), ((2, 2, -1), (4, 39)), ((1, 1, 1), (5, 31)),
            ((1, -1, 1), (6, 25)), ((0, 3, -2), (7,)), ((1, 0, 2), (8,)), ((2, 3, -1), (9,)),
            ((2, 1, 2), (10,)), ((1, -2, 1), (11,)), ((0, 1, -1), (12,)), ((1, 1, 2), (13,)),
            ((2, -3, -1), (14,)), ((1, -3, 1), (16,)), ((0, 1, -2), (17,)), ((1, 2, 2), (18,)),
            ((2, -2, -1), (19,)), ((2, -1, 2), (20,)), ((1, 3, 1), (21,)), ((0, 0, 1), (22,)),
            ((1, 3, 2), (23,)), ((2, -1, -1), (24,)), ((1, 2, 1), (26,)), ((0, 1, 2), (27,)),
            ((1, -3, 2), (28,)), ((2, 0, -1), (29,)), ((2, -3, 2), (30,)), ((0, 1, 1), (32,)),
            ((1, -2, 2), (33,)), ((2, 1, -1), (34,)),
        ),
    ),
}


@pytest.mark.parametrize("name", PINNED_STRUCTURE)
def test_pinned_facets_frames_and_classes(name):
    gens, translate, digests, n_cells, classes = PINNED_STRUCTURE[name]
    z = Zonotope(gens, translate)

    def digest(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    paving = z.pave()
    faces = tuple(c._faces for c in paving.cells)
    reprs = map(repr, (z.frames(), z.facets, paving, faces))
    assert (*map(digest, reprs), digest(export_off(z, 6))) == digests
    assert len(paving.cells) == n_cells
    assert z._classes == classes


def test_pave_builds_cells_without_clearing_vectors_again(monkeypatch):
    # every cell takes its faces and volume from the integers pave already holds
    gens, translate, _digests, n_cells, _classes = PINNED_STRUCTURE["forty"]
    z = Zonotope(gens, translate)
    want = Zonotope(gens, translate).pave()

    def fail(*_args):
        pytest.fail("pave cleared a vector or took an adjugate again")

    monkeypatch.setattr(zonotope, "int_triples", fail)
    monkeypatch.setattr(zonotope, "adjugate", fail, raising=False)
    paving = z.pave()
    assert len(paving.cells) == n_cells and paving == want
    assert [c._faces for c in paving.cells] == [c._faces for c in want.cells]
    assert paving.total_volume() == z.volume()
