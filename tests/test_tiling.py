"""Coverage counting, level verification, and density."""
import dataclasses
import hashlib
import math
import random
import time
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from zonotile import tiling
from zonotile.lattices import box_ranges, lattice_from_vectors
from zonotile.linalg import Vec3, int_row, int_triples, rank_of
from zonotile.tiling import (
    LatticeComponent,
    LatticeUnion,
    SlabChoice,
    _kernel_counts,
    coverage,
    density,
    translate_families,
    translate_multiplicity,
    verify_level,
)
from zonotile.weird import build_construction, build_weird, construction_from_indices
from zonotile.zonotope import BoundaryHit, Zonotope

from conftest import E1, E2, E3, ZERO, fraction_coords, random_zonotope

HALF = Fraction(1, 2)
W6 = (Vec3(-3, -3, -3), Vec3(3, 3, 3))


def z3():
    return lattice_from_vectors([E1, E2, E3])


def kernel_counts(z, lam, xs):
    """The batch kernel's counts and boundary mask at Vec3 points, as window draws.

    Over the points' common denominator w, lo is the least numerator per axis
    and width a power of two above the span, so r = (X - lo) 2^62 / width is
    an exact draw.
    """
    nums, w = int_triples(xs)
    lo = tuple(map(min, zip(*nums)))
    width = tuple(1 << (max(col) - a).bit_length() for col, a in zip(zip(*nums), lo))
    r = [[(x - a) * 2**62 // b for x, a, b in zip(p, lo, width)] for p in nums]
    return _kernel_counts(z, lam, tiling._Draws(np.array(r, dtype=np.int64), lo, width, w))


def test_component_validation():
    with pytest.raises(ValueError):
        LatticeComponent(lattice_from_vectors([E1, E2]), ZERO)
    with pytest.raises(ValueError):
        LatticeComponent(z3(), ZERO, weight=0)


def test_density_examples(cube):
    assert density(LatticeUnion((LatticeComponent(z3(), ZERO),))) == 1
    half_lat = lattice_from_vectors([E1 * HALF, E2 * HALF, E3 * HALF])
    both = LatticeUnion(
        (LatticeComponent(z3(), ZERO), LatticeComponent(half_lat, ZERO))
    )
    assert density(both) == 9
    weird = build_weird(build_construction(cube))
    assert density(weird) == 2


def test_coverage_hand_values(cube, z3_union):
    x = Vec3(HALF, HALF, HALF)
    assert coverage(cube, z3_union, x) == 1
    two = LatticeUnion(
        (
            LatticeComponent(z3(), ZERO),
            LatticeComponent(z3(), Vec3(HALF, HALF, 0)),
        )
    )
    assert coverage(cube, two, Vec3(Fraction(1, 3), Fraction(1, 5), Fraction(1, 7))) == 2
    weighted = LatticeUnion((LatticeComponent(z3(), ZERO, weight=3),))
    assert coverage(cube, weighted, x) == 3


def test_coverage_boundary_raises(cube, z3_union):
    x = Vec3(0, HALF, HALF)
    with pytest.raises(BoundaryHit) as hit:
        coverage(cube, z3_union, x)
    assert hit.value.point == x
    # a family record of weight 0 contributes no translate, so no boundary
    assert coverage(cube, (tiling._family(z3(), ZERO, 0),), x) == 0


def test_coverage_translation_equivariance(cube):
    rng = random.Random(3)
    for _ in range(8):
        t = Vec3(
            Fraction(rng.randint(-9, 9), 7),
            Fraction(rng.randint(-9, 9), 5),
            Fraction(rng.randint(-9, 9), 3),
        )
        x = Vec3(Fraction(1, 3), Fraction(1, 5), Fraction(1, 7))
        lam = LatticeUnion((LatticeComponent(z3(), ZERO),))
        lam_t = LatticeUnion((LatticeComponent(z3(), t),))
        assert coverage(cube, lam, x) == coverage(cube, lam_t, x + t)


def test_coverage_splits_over_components(cube):
    rng = random.Random(9)
    comp_a = LatticeComponent(z3(), Vec3(Fraction(1, 3), 0, 0))
    comp_b = LatticeComponent(lattice_from_vectors([E1 * 2, E2, E3]), ZERO, weight=2)
    lam = LatticeUnion((comp_a, comp_b))
    for _ in range(10):
        # odd/22 avoids every face plane in play (integers and thirds)
        x = Vec3(
            Fraction(2 * rng.randint(-15, 15) + 1, 22),
            Fraction(2 * rng.randint(-15, 15) + 1, 22),
            Fraction(2 * rng.randint(-15, 15) + 1, 22),
        )
        a = coverage(cube, LatticeUnion((comp_a,)), x)
        b = coverage(cube, LatticeUnion((comp_b,)), x)
        assert coverage(cube, lam, x) == a + b


def test_translate_multiplicity(cube):
    lam = LatticeUnion((LatticeComponent(z3(), ZERO, weight=2),))
    assert translate_multiplicity(lam, Vec3(1, -2, 3)) == 2
    assert translate_multiplicity(lam, Vec3(HALF, 0, 0)) == 0
    weird = build_weird(build_construction(cube))
    assert translate_multiplicity(weird, ZERO) >= 1


def test_families_are_built_once_per_multiset(cube, z3_union):
    weird = build_weird(build_construction(cube), choice={0: "T", 2: "S"})
    for lam in (z3_union, weird):
        fams = translate_families(lam)
        assert translate_families(lam) is fams
        with pytest.raises(dataclasses.FrozenInstanceError):
            fams[0].weight = 5
    # the cube's S family is {0, (1/2, 1/2, 0)}, its T family {(1/2, 0, 0), (0, 1/2, 0)}:
    # each offset counts once by default or not at all, and coset 0 swaps them
    assert [f.weight for f in translate_families(weird)] == [1, 1, 0, 0]
    assert [dict(f.counts) for f in translate_families(weird)] == [{0: 0}, {0: 0}, {0: 1}, {0: 1}]


def test_slab_choice_is_frozen(cube):
    choice = {0: "T"}
    lam = build_weird(build_construction(cube), choice)
    with pytest.raises(dataclasses.FrozenInstanceError):
        lam.choice = {}
    with pytest.raises(dataclasses.FrozenInstanceError):
        lam.s_offsets = lam.t_offsets
    with pytest.raises(TypeError):
        lam.choice[1] = "T"
    # the map is copied, so changing the caller's dict changes nothing
    again = SlabChoice(lam.gamma, lam.sub, lam.cosets, lam.s_offsets, lam.t_offsets, choice)
    choice[0] = "S"
    assert again.choice == lam.choice == {0: "T"}
    assert translate_multiplicity(again, ZERO) == 0


def test_verify_level_leaves_facets_unbuilt(rd4, cube, z3_union):
    weird = build_weird(build_construction(cube), choice={0: "T", -1: "T"})
    for body, lam, level in ((rd4, z3_union, 4), (cube, weird, 2)):
        fresh = Zonotope(body.generators)
        rep = verify_level(fresh, lam, W6, samples=300, seed=3)
        assert fresh._facets is None
        built = Zonotope(body.generators)
        assert built.facets
        assert verify_level(built, lam, W6, samples=300, seed=3) == rep
        assert rep.level == level and rep.density_consistent is True


def test_kernel_refuses_offset_box_above_limit(z3_union):
    # a cube of side s spans the Z^3 coordinates 0..s on each axis; take the
    # least side whose offset box exceeds the bound, sized from the ranges
    # alone, so the kernel never runs at that size
    def offsets(side):
        return math.prod(map(len, box_ranges(z3(), ZERO, ZERO, Vec3(side, side, side))))

    side = 1
    while offsets(side) <= tiling._KERNEL_LIMIT:
        side += 1
    size = offsets(side)
    assert tiling._KERNEL_LIMIT < size < 1.1 * tiling._KERNEL_LIMIT
    big = Zonotope((E1 * side, E2 * side, E3 * side))
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"spans {size} lattice offsets"):
        verify_level(big, z3_union, W6, samples=1)
    assert time.perf_counter() - start < 1


def test_kernel_offset_bound_is_inclusive(z3_union, monkeypatch):
    # the cube of side 2 spans 3^3 = 27 offsets of Z^3
    def body():
        return Zonotope((E1 * 2, E2 * 2, E3 * 2))

    monkeypatch.setattr(tiling, "_KERNEL_LIMIT", 27)
    assert verify_level(body(), z3_union, W6, samples=20).level == 8
    monkeypatch.setattr(tiling, "_KERNEL_LIMIT", 26)
    # a fresh body, since a body keeps the boxes it has built
    with pytest.raises(ValueError, match="spans 27 lattice offsets"):
        verify_level(body(), z3_union, W6, samples=20)


def test_batch_counts_agree_with_single_point_coverage(cube):
    rng = random.Random(21)
    weird = build_weird(build_construction(cube), choice={0: "T", 3: "T"})
    union = LatticeUnion(
        (
            LatticeComponent(z3(), Vec3(Fraction(1, 3), 0, 0)),
            LatticeComponent(lattice_from_vectors([E1 * 2, E2, E3]), ZERO, weight=2),
        )
    )
    for lam in (union, weird):
        xs = []
        while len(xs) < 40:
            x = Vec3(
                Fraction(rng.getrandbits(40), 2**40) * 6 - 3,
                Fraction(rng.getrandbits(40), 2**40) * 6 - 3,
                Fraction(rng.getrandbits(40), 2**40) * 6 - 3,
            )
            xs.append(x)
        got, border = kernel_counts(cube, lam, xs)
        assert not border.any()
        for x, c in zip(xs, got):
            assert c == coverage(cube, lam, x)


def test_batch_counts_flags_boundary_points(cube, z3_union):
    xs = [Vec3(HALF, HALF, HALF), Vec3(0, HALF, HALF), Vec3(1, HALF, HALF)]
    got, border = kernel_counts(cube, z3_union, xs)
    assert got[0] == 1
    assert border.tolist() == [False, True, True]


def test_verify_level_unit_tiling(cube, z3_union):
    rep = verify_level(cube, z3_union, W6, samples=400, seed=0)
    assert rep.level == 1
    assert rep.violations == ()
    assert rep.density == 1
    assert rep.density_consistent is True


def test_verify_level_superimposed_two_tiling(cube):
    lam = LatticeUnion(
        (
            LatticeComponent(z3(), ZERO),
            LatticeComponent(z3(), Vec3(Fraction(1, 3), 0, 0)),
        )
    )
    rep = verify_level(cube, lam, W6, samples=300, seed=4)
    assert rep.level == 2 and rep.density_consistent is True


def test_verify_level_gap_detection(cube):
    sparse = LatticeUnion((LatticeComponent(lattice_from_vectors([E1 * 2, E2, E3]), ZERO),))
    rep = verify_level(cube, sparse, W6, samples=200, seed=5)
    assert rep.level is None
    assert rep.violations
    assert rep.density_consistent is None
    # every violation point records its observed multiplicity
    for p, c in rep.violations:
        assert coverage(cube, sparse, p) == c


def test_verify_level_density_mismatch_in_small_window(cube):
    sparse = LatticeUnion((LatticeComponent(lattice_from_vectors([E1 * 2, E2 * 2, E3 * 2]), ZERO),))
    inner = (Vec3(Fraction(1, 10), Fraction(1, 10), Fraction(1, 10)),
             Vec3(Fraction(2, 10), Fraction(2, 10), Fraction(2, 10)))
    rep = verify_level(cube, sparse, inner, samples=50, seed=6)
    # every sample lands inside the one translate, but the density law exposes it
    assert rep.level == 1
    assert rep.density == Fraction(1, 8)
    assert rep.density_consistent is False


def test_verify_level_deterministic(cube, z3_union):
    a = verify_level(cube, z3_union, W6, samples=120, seed=77)
    b = verify_level(cube, z3_union, W6, samples=120, seed=77)
    assert a == b


def test_verify_level_random_bodies_against_their_own_lattice():
    # Z^3-translates of a random zonotope tile at level = volume when the
    # generators are integral: density 1 times integer volume
    rng = random.Random(15)
    for _ in range(3):
        z = random_zonotope(rng, 4)
        lam = LatticeUnion((LatticeComponent(z3(), ZERO),))
        rep = verify_level(z, lam, W6, samples=150, seed=rng.randint(0, 10**6))
        assert rep.level == z.volume()
        assert rep.density_consistent is True


THIRD = Fraction(1, 3)


def thin_tiling(offset):
    """A 1/3-thin box and its own lattice, shifted by offset."""
    lat = lattice_from_vectors([E1 * THIRD, E2, E3])
    return Zonotope(lat.basis), LatticeUnion((LatticeComponent(lat, offset),))


@pytest.mark.parametrize("big", [10**11, 10**25])
@pytest.mark.parametrize("far_shift", [False, True])
def test_kernel_exact_near_faces_far_from_origin(big, far_shift, monkeypatch):
    # faces at x = 1/7 + k/3; points within 4e-6 of the face x = big + 1/7,
    # reached by a far lattice point or by a far shift. The body tiles, so
    # every point off the faces is covered exactly once.
    shift = Vec3(Fraction(1, 7), Fraction(2, 7), THIRD)
    if far_shift:
        shift = shift + Vec3(big, big, -big)
    body, lam = thin_tiling(shift)
    face = big + Fraction(1, 7)
    rng = random.Random(big % 1000)
    xs = [
        Vec3(
            face + Fraction(rng.randint(-4000, 4000) or 1, 10**9) / 7,
            big + Fraction(rng.getrandbits(40), 2**40),
            -big + Fraction(rng.getrandbits(40), 2**40),
        )
        for _ in range(600)
    ]
    got, border = kernel_counts(body, lam, xs)
    assert not border.any() and (got == 1).all()
    for x in xs[:10]:
        assert coverage(body, lam, x) == 1
    eps = Fraction(4, 10**6)
    window = (Vec3(face - eps, big, -big), Vec3(face + eps, big + 1, -big + 1))
    rep = verify_level(body, lam, window, samples=1200, seed=7)
    assert rep.level == 1 and rep.violations == () and rep.density_consistent is True
    # put every tenth first-round sample on the face: only those rows reach
    # _exact, and their redraws settle, unless x - shift itself is near 1e25
    # (the window far, the shift not), where every row takes the exact path
    real_draw, drawn = tiling._draw, []

    def draw(rng, n):
        r = real_draw(rng, n)
        if not drawn:
            r[::10, 0] = 2**61  # lo + width / 2, the face itself
        drawn.append(n)
        return r

    monkeypatch.setattr(tiling, "_draw", draw)
    seen = exact_rows_spy(monkeypatch)
    rep = verify_level(body, lam, window, samples=1200, seed=7)
    assert rep.level == 1 and rep.violations == () and drawn == [1200, 120]
    if big == 10**25 and not far_shift:
        assert seen == {"exact": [1200, 120], "settle": 0}
    else:
        assert seen == {"exact": [120], "settle": 2}


def test_kernel_exact_for_a_body_translated_far():
    # a body near 1e25 puts its facet thresholds beyond int64
    big = 10**25
    _, lam = thin_tiling(Vec3(0, 0, Fraction(1, 5)))
    body = Zonotope((E1 * THIRD, E2, E3), Vec3(big + Fraction(1, 7), -big, THIRD))
    rng = random.Random(25)
    xs = [
        Vec3(
            Fraction(rng.randint(-10**6, 10**6), 3 * 10**5),
            Fraction(rng.getrandbits(40), 2**40),
            Fraction(rng.randint(-10**6, 10**6), 7 * 10**5),
        )
        for _ in range(200)
    ]
    got, border = kernel_counts(body, lam, xs)
    assert not border.any() and (got == 1).all()
    for x in xs[:10]:
        assert coverage(body, lam, x) == 1


def test_verify_level_rejects_flat_window_fast(cube, z3_union):
    start = time.perf_counter()
    with pytest.raises(ValueError):
        verify_level(cube, z3_union, (Vec3(0, 0, 0), Vec3(1, 1, 0)))
    assert time.perf_counter() - start < 1


def test_verify_level_caps_boundary_resamples(cube, z3_union, monkeypatch):
    class Stuck(random.Random):
        def getrandbits(self, k):
            return 0  # every sample is the window corner, a cube vertex

    monkeypatch.setattr(tiling.random, "Random", Stuck)
    with pytest.raises(ValueError, match="resample"):
        verify_level(cube, z3_union, (Vec3(0, 0, 0), Vec3(1, 1, 1)), samples=20)


# -- property: kernel counts against single-point exact coverage -------------

small_rat = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 6, 7]))
rat_vec = st.builds(Vec3, small_rat, small_rat, small_rat)
int_vec = st.builds(Vec3, *[st.integers(-1, 1)] * 3).filter(lambda v: not v.is_zero())
points = st.lists(rat_vec, min_size=1, max_size=8)
generators = st.lists(int_vec, min_size=3, max_size=4).filter(lambda g: rank_of(g) == 3)


def assert_kernel_matches_coverage(z, lam, xs):
    got, border = kernel_counts(z, lam, xs)
    for i, x in enumerate(xs):
        try:
            want = coverage(z, lam, x)
        except BoundaryHit:
            assert border[i]
        else:
            assert not border[i] and got[i] == want


@settings(derandomize=True, max_examples=40, deadline=None)
@given(gens=generators, offset=rat_vec, xs=points)
def test_kernel_matches_coverage_own_lattice(gens, offset, xs):
    lam = LatticeUnion((LatticeComponent(lattice_from_vectors(gens), offset),))
    assert_kernel_matches_coverage(Zonotope(gens), lam, xs)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(gens=generators, a=rat_vec, b=rat_vec, weight=st.integers(1, 3), xs=points)
def test_kernel_matches_coverage_two_component_union(gens, a, b, weight, xs):
    lam = LatticeUnion(
        (
            LatticeComponent(z3(), a),
            LatticeComponent(lattice_from_vectors([E1 * 2, E2 + E3 * THIRD, E3]), b, weight),
        )
    )
    assert_kernel_matches_coverage(Zonotope(gens), lam, xs)


_CUBE_CONSTRUCTION = build_construction(Zonotope((E1, E2, E3)))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    choice=st.dictionaries(st.integers(-6, 6), st.sampled_from("ST"), max_size=6),
    families=st.none() | st.lists(rat_vec, min_size=4, max_size=4),
    xs=points,
)
def test_kernel_matches_coverage_slab_choice(choice, families, xs):
    # the construction's own offset families, or drawn ones whose boundaries
    # need not match, so translates of zero multiplicity matter
    lam = build_weird(_CUBE_CONSTRUCTION, choice)
    if families is not None:
        s_off, t_off = tuple(families[:2]), tuple(families[2:])
        lam = SlabChoice(lam.gamma, lam.sub, lam.cosets, s_off, t_off, choice)
    assert_kernel_matches_coverage(_CUBE_CONSTRUCTION.zonotope, lam, xs)


# -- property: translate multiplicity against Fraction lattice coordinates ---


def coords_multiplicity(lam, p):
    """Multiplicity of the translate p from Fraction lattice coordinates and coset indices."""
    if isinstance(lam, LatticeUnion):
        return sum(c.weight for c in lam.components if on_lattice(c.lattice, p - c.offset))
    total = 0
    for u in dict.fromkeys(lam.s_offsets + lam.t_offsets):
        if on_lattice(lam.gamma, p - u):
            total += lam.offsets_for(lam.cosets.index_of(p - u)).count(u)
    return total


def pointwise_families(lam):
    """(lattice, shift, multiplicity of lattice coordinates) per translate family."""
    if isinstance(lam, LatticeUnion):
        return [(c.lattice, c.offset, lambda k, w=c.weight: w) for c in lam.components]
    return [
        (lam.gamma, u, lambda k, u=u: lam.offsets_for(lam.cosets.index_of_coords(k)).count(u))
        for u in dict.fromkeys(lam.s_offsets + lam.t_offsets)
    ]


def family_count(lat, shift, mult, p):
    """How often the translate p occurs in one family (0 if off the lattice).

    Coordinate i of p - shift is R_i . (P - S) / (d * den) for the lattice's
    integer coordinate rows R_i over den and p, shift = P / d, S / d.
    """
    (p0, p1, p2, s0, s1, s2), d = int_row((*p, *shift))
    rows, den = lat._coord_ints
    big = d * den
    coords = []
    for r0, r1, r2 in rows:
        k, rem = divmod(r0 * (p0 - s0) + r1 * (p1 - s1) + r2 * (p2 - s2), big)
        if rem:
            return 0
        coords.append(k)
    return mult(coords)


def pointwise_multiplicity(lam, p):
    """Translate multiplicity summed per family from integer coordinates."""
    return sum(family_count(*family, p) for family in pointwise_families(lam))


def on_lattice(lat, v):
    c = fraction_coords(lat, v)
    return c is not None and all(t.denominator == 1 for t in c)


@st.composite
def union_points(draw):
    """A union of Z^3 and a non-diagonal lattice, and points on, near and off it."""
    lats = [z3(), lattice_from_vectors([E1 * 2, E2 + E3 * THIRD, E3 + E1 * HALF])]
    comps = tuple(
        LatticeComponent(lat, draw(rat_vec), draw(st.integers(1, 3))) for lat in lats
    )
    pts = []
    for _ in range(draw(st.integers(1, 6))):
        c = draw(st.sampled_from(comps))
        k = draw(st.lists(st.integers(-3, 3), min_size=3, max_size=3))
        pts.append(c.lattice.point(k) + c.offset + draw(st.sampled_from([ZERO, ZERO, E1 * HALF])))
    return LatticeUnion(comps), pts + draw(points)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(union_points())
def test_translate_multiplicity_matches_coords_union(case):
    lam, pts = case
    for p in pts:
        want = coords_multiplicity(lam, p)
        assert translate_multiplicity(lam, p) == want == pointwise_multiplicity(lam, p)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    choice=st.dictionaries(st.integers(-6, 6), st.sampled_from("ST"), max_size=6),
    families=st.none() | st.lists(rat_vec, min_size=4, max_size=4),
    ks=st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3), max_size=6),
    xs=points,
)
def test_translate_multiplicity_matches_coords_slab_choice(choice, families, ks, xs):
    lam = build_weird(_CUBE_CONSTRUCTION, choice)
    if families is not None:
        s_off, t_off = tuple(families[:2]), tuple(families[2:])
        lam = SlabChoice(lam.gamma, lam.sub, lam.cosets, s_off, t_off, choice)
    # lattice points of gamma shifted by each offset, plus drawn rational points
    on = [lam.gamma.point(k) + u for k in ks for u in lam.s_offsets + lam.t_offsets]
    hits = 0
    for p in on + xs:
        want = coords_multiplicity(lam, p)
        assert translate_multiplicity(lam, p) == want == pointwise_multiplicity(lam, p)
        hits += want > 0
    assert hits or not ks


def test_verify_level_builds_each_offset_box_once(cube, monkeypatch):
    # a slab choice's four families share gamma; the first round's samples all
    # sit on the window corner, a cube vertex, so a second round must run
    class CornerFirst(random.Random):
        calls = 0

        def getrandbits(self, k):
            CornerFirst.calls += 1
            return 0 if CornerFirst.calls <= 3 * 20 else super().getrandbits(k)

    built = []

    class Boxes(dict):
        """A body's box cache that lists the lattices it is filled for."""

        def __setitem__(self, lat, box):
            built.append(lat)
            super().__setitem__(lat, box)

    monkeypatch.setattr(tiling.random, "Random", CornerFirst)
    lam = build_weird(build_construction(cube), choice={0: "T", 3: "T"})
    assert len({f.lattice for f in translate_families(lam)}) == 1 < len(translate_families(lam))
    cube._boxes = Boxes()
    window = (Vec3(0, 0, 0), Vec3(3, 3, 3))
    rep = verify_level(cube, lam, window, samples=20, seed=2)
    assert CornerFirst.calls > 3 * 20 and rep.level == 2
    assert built == [lam.gamma]
    # the body keeps its boxes: a second call builds none
    assert verify_level(cube, lam, window, samples=20, seed=3).level == 2
    assert built == [lam.gamma]
    # equal lattices built apart share one box; distinct lattices get one each
    wide = lattice_from_vectors([E1 * 2, E2, E3])
    union = LatticeUnion(
        (
            LatticeComponent(z3(), ZERO),
            LatticeComponent(z3(), Vec3(Fraction(1, 3), 0, 0)),
            LatticeComponent(wide, ZERO),
            LatticeComponent(lattice_from_vectors([E1 * 2, E2, E3]), E1),
        )
    )
    body = Zonotope(cube.generators)
    body._boxes = Boxes()
    built.clear()
    assert verify_level(body, union, W6, samples=30, seed=1).level == 3
    assert built == [z3(), wide]
    assert verify_level(body, union, W6, samples=30, seed=2).level == 3
    assert built == [z3(), wide]


def test_kernel_refuses_offset_facet_cells_above_limit(z3_union):
    # RD4 scaled by s spans the Z^3 coordinates 0..2s on each axis and has 12
    # facets; take the least s whose offsets x 12 exceed 6 x _KERNEL_LIMIT,
    # sized from the ranges alone, so the kernel never runs at that size
    def offsets(s):
        return math.prod(map(len, box_ranges(z3(), ZERO, ZERO, Vec3(2 * s, 2 * s, 2 * s))))

    s = 1
    while 12 * offsets(s) <= 6 * tiling._KERNEL_LIMIT:
        s += 1
    size = offsets(s)
    cells = 6 * tiling._KERNEL_LIMIT
    assert size <= tiling._KERNEL_LIMIT and cells < 12 * size < 1.1 * cells
    body = Zonotope((E1 * s, E2 * s, E3 * s, Vec3(s, s, s)))
    assert len(body._facet_sides) == 12
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"spans {size} lattice offsets on 12 facets"):
        verify_level(body, z3_union, W6, samples=1)
    assert time.perf_counter() - start < 1


# -- the kernel's int64 fixed-point step against exact Fractions -------------


@st.composite
def settle_cases(draw):
    """Facet rows with |G_f|_1 up to 2^60 (so P from 1 to 61), a shift c and x.

    Fractions are (m + d) / 2^P for m at and next to 0 and 2^P - 1 and d in
    [0, 1) at and next to its ends, so the fixed-point errors of x and c can
    cancel or add up in either direction; or thirds and sevenths. c may also
    have denominator 3, 7 or a power of two.
    """
    width = draw(st.integers(0, 2) | st.integers(0, 58))
    entry = st.integers(-(2**width), 2**width)
    g = draw(st.lists(st.tuples(entry, entry, entry).filter(any), min_size=1, max_size=4))
    h = draw(st.lists(st.integers(-9, 9), min_size=len(g), max_size=len(g)))
    bits = tiling._fraction_bits(max(sum(map(abs, r)) for r in g))
    m = st.sampled_from([0, 1, 2**bits - 2, 2**bits - 1]) | st.integers(0, 2**bits - 1)
    d = st.sampled_from([0, Fraction(1, 7), Fraction(6, 7), Fraction(1, 2**30), 1 - Fraction(1, 2**30)])
    fixed = st.builds(lambda a, b: Fraction(a + b) / 2**bits, m, d)
    ruled = st.builds(Fraction, st.integers(0, 20), st.sampled_from([3, 7, 21]))
    sden = st.sampled_from([3, 7]) | st.integers(0, 64).map(lambda k: 2**k)
    shift = fixed | ruled | sden.flatmap(lambda q: st.builds(Fraction, st.integers(0, 2 * q), st.just(q)))
    c = [draw(st.integers(-5, 5)) + draw(shift) for _ in range(3)]
    x = [t + draw(st.integers(-5, 5)) + draw(fixed | ruled) for t in c]
    return g, h, bits, x, c


# with G_f = (1, 1, 0) and P = 60, F = (2^P - 1, 2) makes G_f . F = 2^P + 1,
# but the fixed-point errors add up: 2^P G_f . phi = 2^P - 4/7 lies below the
# multiple 2^P = lo + 1, and only the full width |G_f|_1 keeps the row unsettled
_P60 = 2**60
_ERRORS_ADD_UP = (
    [(1, 1, 0)], [0], 60,
    [Fraction(7 * _P60 - 7, 7 * _P60), Fraction(15, 7 * _P60), Fraction(1, 3)],
    [Fraction(6, 7 * _P60), Fraction(6, 7 * _P60), Fraction(0)],
)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(settle_cases())
@example(_ERRORS_ADD_UP)
def test_settled_rows_match_exact_ceil_and_integrality(case):
    g, h, bits, x, c = case
    xd, cd = lcm(*(t.denominator for t in x)), lcm(*(t.denominator for t in c))
    fu, fx = tiling._fixed(np.array([[int(t * xd) for t in x]], dtype=object), xd, bits)
    parts = [tiling._fixed(int(t * cd), cd, bits) for t in c]
    gh64 = np.array([[*r, hf] for r, hf in zip(g, h)], dtype=np.int64)
    fl, q, settled = tiling._settle(fu.astype(np.int64), fx.astype(np.int64), parts, gh64, bits)
    y = [a - b for a, b in zip(x, c)]
    floor = [math.floor(t) for t in y]
    phi = [t - f for t, f in zip(y, floor)]
    dots = [sum(gi * p for gi, p in zip(r, phi)) for r in g]
    if 0 in phi or any(d.denominator == 1 for d in dots):
        assert not settled[0]  # a boundary row never settles
    if settled[0]:
        assert fl[0].tolist() == floor
        assert q[0].tolist() == [hf - math.ceil(d) for hf, d in zip(h, dots)]
        assert all(d.denominator != 1 for d in dots)  # so thr = q + 1


def test_generic_rows_settle():
    # random 64-bit numerators over 3 * 2^62 against the cube's facets, with a
    # shift in sevenths: every row settles, so the exact formula runs on none
    rng = random.Random(62)
    bits = tiling._fraction_bits(1)
    gh64 = np.array([[1, 0, 0, 1], [-1, 0, 0, 0], [0, 1, 0, 1], [0, -1, 0, 0],
                     [0, 0, 1, 1], [0, 0, -1, 0]], dtype=np.int64)
    u = np.array([[rng.getrandbits(64) - 2**63 for _ in range(3)] for _ in range(500)],
                 dtype=object)
    fu, fx = tiling._fixed(u, 2**62 * 3, bits)
    parts = [tiling._fixed(t, 7, bits) for t in (1, 2, -3)]
    _, _, settled = tiling._settle(fu.astype(np.int64), fx.astype(np.int64), parts, gh64, bits)
    assert settled.all()


# -- window draws: one bulk call, and lattice coordinates on int64 limbs ------


@pytest.mark.parametrize("n", [1, 2, 7, 1000])
def test_bulk_draw_matches_per_call_getrandbits(n):
    for seed in range(5):
        bulk, calls = random.Random(seed), random.Random(seed)
        r = tiling._draw(bulk, n)
        assert r.dtype == np.int64 and r.shape == (n, 3)
        assert r.ravel().tolist() == [calls.getrandbits(62) for _ in range(3 * n)]
        assert bulk.getstate() == calls.getstate()


# denominators 1, 3, 7 and 2^k, and window denominators around D = w rden = 2^31
_DENS = st.sampled_from([1, 3, 7]) | st.integers(0, 12).map(lambda k: 2**k)
_FAR_DENS = st.sampled_from([3**19, 7**11, 2**31 - 1, 2**31, 2**32])
_DRAW = st.sampled_from([0, 1, 2**61, 2**62 - 1]) | st.integers(0, 2**62 - 1)


@st.composite
def limb_cases(draw):
    """Window draws r over w, lattice rows R over rden and P bits."""
    w, rden = draw(_DENS | _FAR_DENS), draw(_DENS)
    rows = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * 3), min_size=3, max_size=3))
    lo = draw(st.tuples(*[st.integers(-40, 40) | st.integers(-(10**30), 10**30)] * 3))
    width = draw(st.lists(st.integers(1, 2**26), min_size=3, max_size=3))
    if draw(st.booleans()):
        # |M| = |R_ij| width_j at, around and past 2^29
        width[draw(st.integers(0, 2))] = draw(st.sampled_from([2**28, 2**29 - 1, 2**29]))
    width = tuple(width)
    r = draw(st.lists(st.tuples(*[_DRAW] * 3), min_size=1, max_size=6))
    bits = draw(st.integers(1, 61))
    return rows, rden, tiling._Draws(np.array(r, dtype=np.int64), lo, width, w), bits


_INSIDE = ([(1, 0, 0), (0, -1, 0), (1, 1, -1)], 1,
           tiling._Draws(np.array([[1, 2**62 - 1, 0], [2**62 - 1, 1, 2**61]]),
                         (-7, 3, -(10**25)), (2**29 - 1, 2**29 - 1, 1), 2**31 - 1), 61)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(limb_cases())
@example(_INSIDE)
@example((_INSIDE[0], 2, _INSIDE[2], 30))  # D = 2^32 - 2, past the bound
@example((_INSIDE[0], 1, _INSIDE[2]._replace(width=(2**29, 1, 1)), 30))  # |M| = 2^29
def test_limb_coords_match_fixed_on_python_ints(case):
    rows, rden, draws, bits = case
    got = tiling._limb_coords(draws, rows, rden, bits)
    m = max(abs(rij * wj) for row in rows for rij, wj in zip(row, draws.width))
    if draws.w * rden >= tiling._LIMB_DEN or m >= tiling._LIMB_M:
        assert got is None
        return
    fu, fx, c = got
    assert fu.dtype == fx.dtype == np.int64
    u = draws.nums() @ np.array(rows, dtype=object).T
    want_fu, want_fx = tiling._fixed(u, draws.den * rden, bits)
    assert (fu.astype(object) + np.array(c, dtype=object) == want_fu).all()
    assert (fx.astype(object) == want_fx).all()


def exact_rows_spy(monkeypatch):
    """Record the rows each ``_exact`` call gets and whether ``_settle`` ran."""
    seen = {"exact": [], "settle": 0}
    real_exact, real_settle = tiling._exact, tiling._settle

    def exact(nums, *args):
        seen["exact"].append(len(nums))
        return real_exact(nums, *args)

    def settle(*args):
        seen["settle"] += 1
        return real_settle(*args)

    monkeypatch.setattr(tiling, "_exact", exact)
    monkeypatch.setattr(tiling, "_settle", settle)
    return seen


def test_kernel_near_1e25_takes_the_exact_path(cube, monkeypatch):
    # lattice coordinates near 1e25 do not fit the int64 step: every row of
    # both families takes the exact formula, boundary points included
    big = 10**25
    shift = Vec3(big + Fraction(1, 7), -big + Fraction(2, 3), Fraction(1, 3))
    lam = LatticeUnion(
        (LatticeComponent(z3(), shift), LatticeComponent(z3(), shift + Vec3(HALF, 0, 0), 2))
    )
    rng = random.Random(25)
    xs = [
        shift + Vec3(
            Fraction(rng.randint(-12, 12), rng.choice([2, 3, 7])),
            Fraction(rng.getrandbits(40), 2**40),
            Fraction(rng.randint(-12, 12), rng.choice([1, 3, 7])),
        )
        for _ in range(60)
    ]
    seen = exact_rows_spy(monkeypatch)
    assert_kernel_matches_coverage(cube, lam, xs)
    assert seen == {"exact": [len(xs), len(xs)], "settle": 0}
    assert kernel_counts(cube, lam, xs)[1].any()


def test_kernel_on_facet_points_takes_fallback_rows(cube, monkeypatch):
    # points on facets of the 1/3-shifted copy fall back to the exact formula,
    # row by row; generic points settle on int64. Denominators 3 2^20 keep
    # D = w rden inside the limb bound.
    lam = LatticeUnion((LatticeComponent(z3(), ZERO), LatticeComponent(z3(), Vec3(THIRD, 0, 0))))
    rng = random.Random(3)
    generic = [
        Vec3(*(Fraction(rng.getrandbits(20), 2**20) * 6 - 3 for _ in range(3))) for _ in range(40)
    ]
    on_facets = [Vec3(Fraction(3 * rng.randint(-3, 3) + 1, 3), p.y, p.z) for p in generic[:10]]
    seen = exact_rows_spy(monkeypatch)
    assert_kernel_matches_coverage(cube, lam, generic + on_facets)
    assert seen["settle"] == 2
    assert seen["exact"] == [10]  # the Z^3 family settles every row
    got, border = kernel_counts(cube, lam, generic + on_facets)
    assert np.flatnonzero(border).tolist() == list(range(40, 50)) and (got[:40] == 2).all()


# -- pinned verify_level reports ---------------------------------------------


def pinned_report_cases():
    cube = Zonotope((E1, E2, E3))
    rd4 = Zonotope((E1, E2, E3, Vec3(1, 1, 1)))
    w = (Vec3(-3, -3, -3), Vec3(3, 3, 3))
    one = LatticeUnion((LatticeComponent(z3(), ZERO),))
    two = LatticeUnion((LatticeComponent(z3(), ZERO), LatticeComponent(z3(), Vec3(HALF, HALF, HALF))))
    con = construction_from_indices(cube, [0, 1], coefficients=(HALF, HALF))
    slab = build_weird(con, {0: "T", 3: "T", -2: "T", 5: "S"})
    thin, _ = thin_tiling(ZERO)
    off = Vec3(10**11 + Fraction(3, 7), 10**11 + Fraction(5, 7), -10**11 + Fraction(2, 3))
    far = thin_tiling(off)[1]
    off25 = Vec3(10**25 + Fraction(3, 7), -10**25 + Fraction(1, 7), THIRD)
    far25 = thin_tiling(off25)[1]
    broken = LatticeUnion(
        (
            LatticeComponent(lattice_from_vectors([E1 * 2, E2, E3]), ZERO),
            LatticeComponent(z3(), Vec3(THIRD, Fraction(1, 4), 0)),
        )
    )
    # a body over its own lattice, in a window whose denominators 65537 and
    # 65539 put D = w rden past the int64 limb bound
    body = Zonotope((E1, E2 * HALF, Vec3(THIRD, 0, Fraction(3, 2))))
    shift = Vec3(Fraction(1, 7), Fraction(2, 3), 0)
    own = LatticeUnion((LatticeComponent(lattice_from_vectors(body.generators), shift),))
    wide = (Vec3(Fraction(-2, 65537), Fraction(-1, 65539), Fraction(-3, 2)),
            Vec3(Fraction(150000, 65537), 2, Fraction(7, 3)))
    return {
        "lattice": (cube, one, w, 1, 400),
        "union": (cube, two, w, 2, 400),
        "rd4": (rd4, one, w, 3, 400),
        "slab": (cube, slab, (Vec3(-5, -5, -5), Vec3(5, 5, 5)), 4, 400),
        "far": (thin, far, (w[0] + off, w[1] + off), 5, 400),
        "far25": (thin, far25, (w[0] + off25, w[1] + off25), 6, 400),
        "broken": (cube, broken, w, 7, 400),
        # counts 2 then 1: the tie goes to the count seen first, the larger one
        "broken2": (cube, broken, w, 1, 2),
        "fallback": (body, own, wide, 8, 400),
    }


# sha256 of repr(verify_level(..., samples, seed)) per case, from the kernel
# that computed every threshold on Python ints ("broken2" and "fallback": from
# the kernel with the Python-int coordinate path for draws past the limb bounds)
PINNED_REPORTS = {
    "lattice": (1, 0, "90ecc12fd1389b2e39ccd86f66f1336ce1776a5af49b2bdaee73c558f176e365"),
    "union": (2, 0, "c04daecbfb0ab166f521ad30995e7be9779e114337b9fb23315d31089f20db4b"),
    "rd4": (4, 0, "672c4ece8af6dcda57a132a35c4e648751768fb0015c7e0829aaade9cc5d3f02"),
    "slab": (2, 0, "ba6f645bbb45744713466b78630dd931297b1105e350872e6e3ae1b32764d469"),
    "far": (1, 0, "c590a61d10d8c65a3b06d1ee8ad79dd8555f4ec27ed59ad1ca64a0fcb8e8e89a"),
    "far25": (1, 0, "ff6a4880af16fa1abaa216387b6bee8de15bbe6e033f5733735be5b5e3c025f5"),
    "broken": (None, 194, "8cb47ea4c265d1a056aa18db309add5742d1489d78e3dbcee4ab86a7a7ef8d2e"),
    "broken2": (None, 1, "6ed3f4c676283a0fe0d013f136731b8fc4c51e12be9e593f1f1e2e6f47779b14"),
    "fallback": (1, 0, "15f2d9e2c6434715abcff0c64f7eccc6b5454f9ff2f2d153273fb1a6ae740892"),
}


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_verify_level_reports_are_pinned(name):
    z, lam, window, seed, samples = pinned_report_cases()[name]
    rep = verify_level(z, lam, window, samples=samples, seed=seed)
    level, violations, digest = PINNED_REPORTS[name]
    assert (rep.level, len(rep.violations)) == (level, violations)
    assert hashlib.sha256(repr(rep).encode()).hexdigest() == digest
