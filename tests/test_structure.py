"""Structural deciders checked against brute-force oracles."""
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from zonotile.linalg import Vec3, int_row, primitive, primitive_triple, rank_of
from zonotile.structure import (
    IntersectionVerdict,
    TwoFlatVerdict,
    canonical_perp,
    classify,
    intersection_property,
    two_flat,
)
from zonotile.zonotope import Frame, Zonotope

from conftest import (
    E1,
    E2,
    E3,
    TWO_FLAT_12,
    ZERO,
    random_int_vec,
    random_rat_vec,
    random_two_flat_zonotope,
    random_zonotope,
)


def oracle_intersection_property(frames) -> bool:
    """Exhaustive witness search.

    A witness u is orthogonal to some member of every frame. If the chosen
    members span rank >= 2, u is parallel to a cross product of two members;
    if they are all parallel to one direction d, any u orthogonal to d works.
    So checking all cross products plus all shared directions is exhaustive.
    """
    trios = [(f.e, f.tau1, f.tau2) for f in frames]
    for d in trios[0]:
        if all(any(d.parallel_to(m) for m in trio) for trio in trios):
            return False
    vecs = list(dict.fromkeys(m for trio in trios for m in trio))
    for a, b in itertools.combinations(vecs, 2):
        u = a.cross(b)
        if u.is_zero():
            continue
        if all(any(u.dot(m) == 0 for m in trio) for trio in trios):
            return False
    return True


def oracle_two_flat(z) -> bool:
    """Try every split of the direction classes into two rank <= 2 sides."""
    dirs = [d for d, _ in z.direction_classes]
    n = len(dirs)
    for mask in range(2**n):
        side1 = [dirs[i] for i in range(n) if mask >> i & 1]
        side2 = [dirs[i] for i in range(n) if not mask >> i & 1]
        if rank_of(side1) <= 2 and rank_of(side2) <= 2:
            return True
    return False


def check_witness(z, verdict):
    assert verdict.witness is not None and not verdict.witness.is_zero()
    u = verdict.witness
    frames = z.frames()
    assert verdict.satisfied_indices is not None
    assert len(verdict.satisfied_indices) == len(frames)
    for fr, idx in zip(frames, verdict.satisfied_indices):
        assert u.dot((fr.e, fr.tau1, fr.tau2)[idx]) == 0


def test_intersection_property_cube_fails_with_witness(cube):
    v = intersection_property(cube.frames())
    assert not v.holds
    check_witness(cube, v)
    assert oracle_intersection_property(cube.frames()) is False


def test_intersection_property_five_generator_example_holds():
    z = Zonotope((E1, E2, E3, Vec3(1, 1, 1), Vec3(1, 2, 3)))
    v = intersection_property(z.frames())
    assert v.holds
    assert oracle_intersection_property(z.frames()) is True


def test_intersection_property_matches_oracle_on_random_bodies():
    rng = random.Random(23)
    agree = 0
    for _ in range(20):
        n = rng.randint(3, 6)
        z = random_two_flat_zonotope(rng, 2, n - 2) if rng.random() < 0.5 else random_zonotope(rng, n)
        v = intersection_property(z.frames())
        assert v.holds == oracle_intersection_property(z.frames())
        if not v.holds:
            check_witness(z, v)
        agree += 1
    assert agree == 20


def test_two_flat_cube_prism_split(cube):
    v = two_flat(cube)
    assert v.is_two_flat
    assert sorted(v.h1_indices + v.h2_indices) == [0, 1, 2]


def test_two_flat_partition_is_valid_when_found():
    rng = random.Random(31)
    for _ in range(15):
        z = random_two_flat_zonotope(rng, rng.randint(2, 3), rng.randint(2, 3))
        v = two_flat(z)
        assert v.is_two_flat == oracle_two_flat(z)
        if v.is_two_flat:
            gens = z.generators
            assert sorted(v.h1_indices + v.h2_indices) == list(range(len(gens)))
            assert rank_of([gens[i] for i in v.h1_indices]) <= 2
            assert rank_of([gens[i] for i in v.h2_indices]) <= 2
            for i in v.h1_indices:
                assert v.h1_normal.dot(gens[i]) == 0
            for i in v.h2_indices:
                assert v.h2_normal.dot(gens[i]) == 0


def test_two_flat_negative_example():
    # no three generators coplanar, five directions: not coverable by two planes
    z = Zonotope((E1, E2, E3, Vec3(1, 1, 1), Vec3(1, 2, 3)))
    assert not two_flat(z).is_two_flat
    assert not oracle_two_flat(z)


def test_two_flat_any_four_directions_split():
    z = Zonotope((E1, E2, E3, Vec3(1, 1, 1)))
    assert two_flat(z).is_two_flat
    assert oracle_two_flat(z)


def test_classify_verdicts(cube):
    c = classify(cube)
    assert c.verdict == "TwoFlatRationalDiscrete"
    assert c.weird_tiling_available and not c.quasi_periodic_guarantee
    z = Zonotope((E1, E2, E3, Vec3(1, 1, 1), Vec3(1, 2, 3)))
    c2 = classify(z)
    assert c2.verdict == "NotTwoFlat"
    assert c2.quasi_periodic_guarantee and not c2.weird_tiling_available
    assert c2.intersection.holds


def test_classify_never_contradicts_structure_theorem():
    rng = random.Random(47)
    for _ in range(25):
        n = rng.randint(3, 6)
        z = random_two_flat_zonotope(rng, 2, n - 2) if rng.random() < 0.4 else random_zonotope(rng, n)
        c = classify(z)  # raises AssertionError on contradiction
        if not c.intersection.holds:
            assert c.two_flat.is_two_flat


# -- pinned scan order -----------------------------------------------------
# the reported witness is the first failing candidate in scan order, so exact
# witnesses, satisfied indices and splits pin that order, not just validity

CUBE_ROWS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
RD4_ROWS = CUBE_ROWS + ((1, 1, 1),)
NOT_TWO_FLAT_12 = (
    (1, -2, 1), (-1, 2, 0), (2, 2, -1), (-2, 2, -1), (2, -2, 1), (2, 1, 2),
    (1, 1, 2), (1, 2, -2), (-2, -1, 0), (0, 0, 1), (0, -2, 0), (-1, 0, 0),
)
PINNED = {
    "cube": (CUBE_ROWS, (0, 0, 1), "000101", ((0, 1), (2,), (0, 0, 1), (0, 1, 0))),
    "rd4": (RD4_ROWS, (0, 0, 1), "000101010122", ((0, 1), (2, 3), (0, 0, 1), (1, -1, 0))),
    "two_flat_12": (
        TWO_FLAT_12,
        (2, -1, -1),
        "00001010101010101010101010101010122222",
        ((0, 1, 2, 3, 4, 5), (6, 7, 8, 9, 10, 11), (2, -1, -1), (1, -4, 2)),
    ),
    "not_two_flat_12": (NOT_TWO_FLAT_12, None, "", ((), (), None, None)),
}


def body(rows, scale=1) -> Zonotope:
    return Zonotope(tuple(Vec3(*(Fraction(c) * scale for c in row)) for row in rows))


def vec_or_none(t):
    return None if t is None else Vec3(*t)


@pytest.mark.parametrize("name", PINNED)
def test_classify_pinned_witness_and_split(name):
    rows, witness, indices, (h1, h2, n1, n2) = PINNED[name]
    c = classify(body(rows))
    assert c.intersection.holds == (witness is None)
    assert c.intersection.witness == vec_or_none(witness)
    assert "".join(map(str, c.intersection.satisfied_indices or ())) == indices
    tf = c.two_flat
    assert (tf.h1_indices, tf.h2_indices) == (h1, h2)
    assert (tf.h1_normal, tf.h2_normal) == (vec_or_none(n1), vec_or_none(n2))


@pytest.mark.parametrize("scale", [Fraction(10**30), Fraction(1, 7**20)], ids=["1e30", "7^-20"])
@pytest.mark.parametrize("name", PINNED)
def test_classify_is_scale_invariant(name, scale):
    rows = PINNED[name][0]
    assert classify(body(rows, scale)) == classify(body(rows))


@pytest.mark.parametrize("name", ["rd4", "two_flat_12", "not_two_flat_12"])
def test_classify_exact_beyond_int64(name):
    # uniform scaling leaves the primitive triples small; stretching the axes
    # by 10^30 and 7^-20 makes those off the axes, and their cross products,
    # exceed int64. An invertible linear map keeps the verdicts and the split
    stretch = (Fraction(10**30), Fraction(1), Fraction(1, 7**20))
    rows = PINNED[name][0]
    z = Zonotope(tuple(Vec3(*(s * c for s, c in zip(stretch, row))) for row in rows))
    c, ref = classify(z), classify(body(rows))
    assert max(abs(t) for fr in z.frames() for v in fr.vectors() for t in primitive(v)) > 2**63
    assert c.verdict == ref.verdict and c.intersection.holds == ref.intersection.holds
    if not c.intersection.holds:
        check_witness(z, c.intersection)
    assert (c.two_flat.h1_indices, c.two_flat.h2_indices) == (
        ref.two_flat.h1_indices,
        ref.two_flat.h2_indices,
    )


# -- property: deciders against the oracles on rational bodies -------------

small_rat = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 5))
rat_gen = st.builds(Vec3, small_rat, small_rat, small_rat).filter(lambda v: not v.is_zero())
rat_bodies = st.lists(rat_gen, min_size=3, max_size=9).filter(lambda g: rank_of(g) == 3)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(gens=rat_bodies)
def test_deciders_match_oracles_on_rational_bodies(gens):
    z = Zonotope(gens)
    iv = intersection_property(z.frames())
    assert iv.holds == oracle_intersection_property(z.frames())
    if not iv.holds:
        check_witness(z, iv)
    assert two_flat(z).is_two_flat == oracle_two_flat(z)


# -- witness identity: candidate search against the all-pairs scan ---------


def oracle_intersection_scan(frames):
    """(holds, witness, satisfied indices) by scanning every direction pair.

    Shared directions first, then the cross products of all pairs i < j of
    distinct primitive frame directions in first-seen order; the first
    candidate orthogonal to a member of every frame is the witness.
    """
    trios = list(
        dict.fromkeys(tuple(primitive_triple(int_row(v)[0]) for v in fr.vectors()) for fr in frames)
    )
    dirs = list(dict.fromkeys(d for trio in trios for d in trio))

    def failing(u):
        sat = tuple(next(i for i, v in enumerate(fr.vectors()) if v.dot(u) == 0) for fr in frames)
        return False, u, sat

    for d in dirs:
        if all(d in trio for trio in trios):
            return failing(canonical_perp(Vec3.of(*d)))
    for (a0, a1, a2), (b0, b1, b2) in itertools.combinations(dirs, 2):
        u0, u1, u2 = primitive_triple((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0))
        if all(any(v0 * u0 + v1 * u1 + v2 * u2 == 0 for v0, v1, v2 in t) for t in trios):
            return failing(Vec3.of(u0, u1, u2))
    return True, None, None


def rational_copy(rng, z) -> Zonotope:
    """z with each generator scaled by a signed rational and a rational translate."""
    gens = [v * Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9)) for v in z.generators]
    return Zonotope(gens, random_rat_vec(rng))


def seeded_bodies(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        if rng.random() < 0.5:
            z = random_zonotope(rng, rng.randint(3, 7))
        else:
            z = random_two_flat_zonotope(rng, rng.randint(2, 4), rng.randint(1, 4))
        yield rational_copy(rng, z) if rng.random() < 0.5 else z


def test_intersection_witness_matches_pair_scan():
    branches = {True: 0, False: 0}
    for z in seeded_bodies(91, 320):
        iv = intersection_property(z.frames())
        assert (iv.holds, iv.witness, iv.satisfied_indices) == oracle_intersection_scan(z.frames())
        branches[iv.holds] += 1
    assert branches[False] >= 100 and branches[True] >= 50


def stretched(rows) -> Zonotope:
    """The body of rows with its axes stretched by 10^30, 1 and 7^-20."""
    stretch = (Fraction(10**30), Fraction(1), Fraction(1, 7**20))
    return Zonotope(tuple(Vec3(*(s * c for s, c in zip(stretch, row))) for row in rows))


HAND_BUILT_CASES = {
    **{name: body(rows) for name, (rows, *_) in PINNED.items()},
    **{f"{n}-stretched": stretched(PINNED[n][0]) for n in PINNED if n != "cube"},
    **{f"seeded-{k}": z for k, z in enumerate(seeded_bodies(17, 12))},
}


@pytest.mark.parametrize("name", HAND_BUILT_CASES)
def test_hand_built_frames_clear_their_own_integers(name):
    # frames built outside a zonotope carry no cached integers, so
    # vector_ints() clears their Fraction vectors on first use
    z = HAND_BUILT_CASES[name]
    rebuilt = tuple(Frame(f.e, f.base, f.tau1, f.tau2, f.facet_index) for f in z.frames())
    assert all(f._ints is None for f in rebuilt)
    assert intersection_property(rebuilt) == intersection_property(z.frames())
    assert intersection_property(rebuilt) == IntersectionVerdict(*oracle_intersection_scan(rebuilt))


def test_intersection_property_on_arbitrary_frame_sets():
    # frames not taken from one zonotope, with repeats: the witness may be
    # orthogonal to any member of the first frame, and indices are per frame
    rng = random.Random(5)
    branches = {True: 0, False: 0}
    for _ in range(400):
        frames = [
            Frame(random_int_vec(rng), ZERO, random_int_vec(rng), random_int_vec(rng), k)
            for k in range(rng.randint(1, 5))
        ]
        frames += rng.sample(frames, rng.randint(0, len(frames)))
        iv = intersection_property(tuple(frames))
        assert (iv.holds, iv.witness, iv.satisfied_indices) == oracle_intersection_scan(frames)
        branches[iv.holds] += 1
    assert min(branches.values()) >= 50


@pytest.mark.parametrize("name", HAND_BUILT_CASES)
def test_lazy_zonotope_frames_equal_hand_built_frames(name):
    # a zonotope's frames build their Vec3 fields on first read; equality,
    # hashing and repr must not tell them from frames built from those Vec3s
    z = HAND_BUILT_CASES[name]

    def fresh():
        frames = Zonotope(z.generators, z.translate).frames()
        assert all(f._vecs is None for f in frames)
        return frames

    hand = tuple(Frame(f.e, f.base, f.tau1, f.tau2, f.facet_index) for f in fresh())
    assert fresh() == hand
    assert hand == fresh()
    # a frozen dataclass hashes the tuple of its fields
    fields = [(f.e, f.base, f.tau1, f.tau2, f.facet_index) for f in hand]
    assert [hash(f) for f in fresh()] == [hash(t) for t in fields]
    assert hash(fresh()) == hash(hand)
    assert len({*fresh(), *hand}) == len(hand)
    assert repr(fresh()) == repr(hand)
    assert fresh() != tuple(Frame(f.e, f.base, f.tau1, f.tau2, f.facet_index + 1) for f in hand)


# -- two-flat split: integer plane test against the rank scan --------------


def oracle_two_flat_scan(z) -> TwoFlatVerdict:
    """The split by a ``rank_of`` test per pair of classes, then per single class.

    A pair's plane takes every class in it as h1, and the split is found when
    the rest has rank <= 2; then each class alone is tried as h1. Rank tests
    on ``Vec3``s, independent of the integer plane test in ``two_flat``, and
    with the single-class loop that ``two_flat`` proves it does not need.
    """
    classes = z.direction_classes
    dirs = [d for d, _ in classes]

    def verdict(h1_cls):
        h2_cls = [k for k in range(len(dirs)) if k not in h1_cls]

        def indices(cls):
            return tuple(sorted(i for k in cls for i in classes[k][1]))

        def normal_of(cls):
            if len(cls) >= 2:
                return primitive(dirs[cls[0]].cross(dirs[cls[1]]))
            return canonical_perp(dirs[cls[0]])

        return TwoFlatVerdict(
            True, indices(h1_cls), indices(h2_cls), normal_of(h1_cls), normal_of(h2_cls)
        )

    if len(dirs) <= 4:
        return verdict([0, 1])
    for i, j in itertools.combinations(range(len(dirs)), 2):
        n = dirs[i].cross(dirs[j])
        h1 = [k for k, d in enumerate(dirs) if n.dot(d) == 0]
        rest = [d for k, d in enumerate(dirs) if k not in h1]
        if not rest or rank_of(rest) <= 2:
            return verdict(h1)
    for i in range(len(dirs)):
        if rank_of([d for k, d in enumerate(dirs) if k != i]) <= 2:
            return verdict([i])
    return TwoFlatVerdict(False)


def test_two_flat_verdict_matches_rank_scan():
    kinds = {"two-flat, 5+ classes": 0, "not two-flat": 0}
    for z in [*seeded_bodies(29, 320), *HAND_BUILT_CASES.values()]:
        tf = two_flat(z)
        assert tf == oracle_two_flat_scan(z)
        if tf.is_two_flat and len(z.direction_classes) >= 5:
            kinds["two-flat, 5+ classes"] += 1
        elif not tf.is_two_flat:
            kinds["not two-flat"] += 1
    assert kinds["two-flat, 5+ classes"] >= 50 and kinds["not two-flat"] >= 50
