"""Lattices: spans, duals, coset enumeration, box enumeration, plane sections."""
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from zonotile.lattices import (
    CosetEnumeration,
    Lattice,
    box_count,
    coset_reps,
    dual_lattice,
    lattice_from_vectors,
    lattice_points_in_box,
    plane_section,
    subspace_dual,
)
from zonotile.linalg import VEC_ZERO, Vec3, int_row, inverse_rows, rank_of

from conftest import corner_box_points, corner_ranges

E1, E2, E3 = Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1)


def test_lattice_from_vectors_reduces_rank():
    lat = lattice_from_vectors([Vec3(2, 0, 0), Vec3(1, 0, 0), Vec3(3, 0, 0)])
    assert lat.rank == 1
    assert lat.contains(Vec3(5, 0, 0))
    assert not lat.contains(Vec3(Fraction(1, 2), 0, 0))


def test_membership_and_coords_round_trip():
    lat = lattice_from_vectors([Vec3(1, 1, 0), Vec3(0, 2, 0), Vec3(0, 0, 3)])
    rng = random.Random(7)
    for _ in range(20):
        c = [rng.randint(-4, 4) for _ in range(3)]
        p = lat.point(c)
        assert lat.contains(p)
        got = lat.coords(p)
        assert got is not None and [int(t) for t in got] == c
    assert not lat.contains(Vec3(0, 1, 0))
    assert lat.coords(Vec3(0, 0, Fraction(3, 2))) == (0, 0, Fraction(1, 2))


def test_covolume():
    assert lattice_from_vectors([E1, E2, E3]).covolume() == 1
    assert lattice_from_vectors([E1 * 2, E2, E3 * 3]).covolume() == 6
    with pytest.raises(ValueError):
        lattice_from_vectors([E1, E2]).covolume()


def test_dual_lattice_pairing():
    lat = lattice_from_vectors([Vec3(1, 1, 0), Vec3(0, 2, 1), Vec3(1, 0, 3)])
    dual = dual_lattice(lat)
    # defining property: integer pairing both ways, covolumes reciprocal
    for d in dual.basis:
        for b in lat.basis:
            assert d.dot(b).denominator == 1
    assert dual.covolume() * lat.covolume() == 1
    assert dual_lattice(lattice_from_vectors([E1 * 2, E2 * 2, E3 * 2])).contains(
        Vec3(Fraction(1, 2), 0, 0)
    )


def test_subspace_dual_gram_relation():
    # rank-2 in-plane dual: <d_i, b_j> = delta_ij solved through the Gram matrix
    lat = lattice_from_vectors([Vec3(1, 1, 0), Vec3(0, 2, 0)])
    dual = subspace_dual(lat)
    assert dual.rank == 2
    for i, d in enumerate(dual.basis):
        assert lat.in_span(d)
        for j, b in enumerate(lat.basis):
            assert d.dot(b) == (1 if i == j else 0)


def test_coset_enumeration_free_part_only():
    gamma = lattice_from_vectors([E1, E2, E3])
    sub = lattice_from_vectors([E1, E2])
    ce = coset_reps(gamma, sub)
    assert ce.torsion_order == 1
    for j in range(-5, 6):
        r = ce.rep(j)
        assert ce.index_of(r) == j
    # the whole line gamma1 * Z is represented
    for ell in range(-4, 5):
        assert ce.rep(ell * ce.torsion_order) == ce.gamma1 * ell


def test_coset_enumeration_with_torsion():
    gamma = lattice_from_vectors([E1, E2, E3])
    sub = lattice_from_vectors([E1 * 2, E2 * 3])
    ce = coset_reps(gamma, sub)
    assert ce.torsion_order == 6
    seen = set()
    for j in range(-18, 18):
        r = ce.rep(j)
        assert ce.index_of(r) == j
        seen.add(r)
    assert len(seen) == 36
    # two points in the same coset iff difference in sub
    a, b = ce.rep(4), ce.rep(4) + sub.point([5, -2])
    assert ce.index_of(a) == ce.index_of(b)


def test_index_of_coords_matches_index_of():
    gamma = lattice_from_vectors([Vec3(1, 1, 0), Vec3(0, 2, 1), Vec3(1, 0, 3)])
    sub = lattice_from_vectors([gamma.basis[0] * 2, gamma.basis[1]])
    ce = coset_reps(gamma, sub)
    rng = random.Random(3)
    for _ in range(30):
        c = [rng.randint(-6, 6) for _ in range(3)]
        assert ce.index_of_coords(c) == ce.index_of(gamma.point(c))


def test_index_of_coords_array_matches_scalar():
    gamma = lattice_from_vectors([Vec3(1, 1, 0), Vec3(0, 2, 1), Vec3(1, 0, 3)])
    sub = lattice_from_vectors([gamma.basis[0] * 2, gamma.basis[1]])
    ce = coset_reps(gamma, sub)
    rng = random.Random(5)
    # small coordinates stay int64; ones near 2^62 and 1e30 go through Python ints
    for span in (6, 2**62, 10**30):
        coords = [[rng.randint(-span, span) for _ in range(3)] for _ in range(40)]
        got = ce.index_of_coords(np.array(coords))
        assert list(got) == [ce.index_of_coords(c) for c in coords]
    assert len(ce.index_of_coords(np.zeros((0, 3), dtype=np.int64))) == 0


def test_coset_enumeration_rejects_non_sublattice():
    gamma = lattice_from_vectors([E1 * 2, E2, E3])
    with pytest.raises(ValueError):
        coset_reps(gamma, lattice_from_vectors([E1, E2]))


def test_plane_section_basic():
    z3 = lattice_from_vectors([E1, E2, E3])
    sect = plane_section(z3, E3)
    assert sect.rank == 2
    assert sect.contains(E1) and sect.contains(E2)
    assert all(b.dot(E3) == 0 for b in sect.basis)


def test_plane_section_exceeds_visible_sublattice():
    # gamma generated by 2e1, e2, e3, e1+e3 is all of Z^3, so its section by
    # the (2e1, e2)-plane contains e1 even though the two in-plane generators
    # only span index 2 inside it
    gamma = lattice_from_vectors([E1 * 2, E2, E3, E1 + E3])
    sect = plane_section(gamma, E3)
    assert sect.contains(E1)
    visible = lattice_from_vectors([E1 * 2, E2])
    assert not visible.contains(E1)


def test_plane_section_skew_normal():
    lat = lattice_from_vectors([Vec3(1, 0, 1), Vec3(0, 1, 1), Vec3(0, 0, 2)])
    n = Vec3(1, 1, 1)
    sect = plane_section(lat, n)
    assert sect.rank == 2
    for b in sect.basis:
        assert b.dot(n) == 0 and lat.contains(b)
    # completeness: every lattice point in the plane within a small box is in the section
    pts = lattice_points_in_box(lat, Vec3(0, 0, 0), Vec3(-4, -4, -4), Vec3(4, 4, 4))
    for p in pts:
        if lat.contains(p) and p.dot(n) == 0:
            assert sect.contains(p)


def test_plane_section_rejects_orthogonal_normal():
    lat = lattice_from_vectors([E1, E2, E3])
    with pytest.raises(ValueError):
        plane_section(lat, Vec3(0, 0, 0))


def test_lattice_points_in_box_exact_for_full_rank():
    z3 = lattice_from_vectors([E1, E2, E3])
    pts = lattice_points_in_box(z3, Vec3(0, 0, 0), Vec3(0, 0, 0), Vec3(2, 2, 2))
    assert len(pts) == 27
    skew = lattice_from_vectors([Vec3(1, 1, 0), Vec3(0, 1, 1), Vec3(0, 0, 2)])
    lo, hi = Vec3(-2, -2, -2), Vec3(3, 3, 3)
    got = set(lattice_points_in_box(skew, Vec3(Fraction(1, 2), 0, 0), lo, hi))
    # brute force over a generous coefficient range
    brute = set()
    for a in range(-8, 9):
        for b in range(-8, 9):
            for c in range(-8, 9):
                p = skew.point([a, b, c]) + Vec3(Fraction(1, 2), 0, 0)
                if lo.x <= p.x <= hi.x and lo.y <= p.y <= hi.y and lo.z <= p.z <= hi.z:
                    brute.add(p)
    assert brute <= got  # complete
    for p in got:
        assert skew.contains(p - Vec3(Fraction(1, 2), 0, 0))


small_rat = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3]))
rat_vec = st.builds(Vec3, small_rat, small_rat, small_rat)


@st.composite
def shifted_boxes(draw):
    """A lattice of rank 1 to 3 on a random (not reduced) basis, a shift and a box."""
    rank = draw(st.integers(1, 3))
    basis = draw(st.lists(rat_vec, min_size=rank, max_size=rank))
    assume(rank_of(basis) == rank)
    lat = Lattice(basis)
    lo, width = draw(rat_vec), draw(st.lists(small_rat, min_size=3, max_size=3))
    hi = Vec3(*(a + abs(w) for a, w in zip(lo, width)))
    return lat, draw(rat_vec), lo, hi


@settings(max_examples=150, derandomize=True, deadline=None)
@given(shifted_boxes())
def test_box_enumeration_matches_corner_ranges(case):
    lat, shift, lo, hi = case
    ranges = corner_ranges(lat, shift, lo, hi)
    assume(np.prod([len(r) for r in ranges]) <= 4000)
    got = lattice_points_in_box(lat, shift, lo, hi)
    assert got == corner_box_points(lat, shift, lo, hi)  # same points, same order
    assert box_count(lat, shift, lo, hi) == len(got)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(
    st.lists(st.integers(-3, 3), min_size=6, max_size=6),
    st.lists(st.tuples(*[st.integers(-(2**80), 2**80)] * 3).map(list), min_size=1, max_size=6),
)
def test_one_coset_triple_matches_the_array_path_and_the_coset(ab, coords):
    # g is spanned by two integer combinations of gamma's basis, with torsion
    gamma = lattice_from_vectors([Vec3(1, 1, 0), Vec3(0, 2, 1), Vec3(Fraction(1, 3), 0, 3)])
    a, b = ab[:3], ab[3:]
    assume(rank_of([a, b]) == 2)
    ce = CosetEnumeration(gamma, Lattice([gamma.point(a), gamma.point(b)]))
    # small coordinates take the int64 array path, the rest Python ints
    coords = coords + [[c % 7 - 3 for c in row] for row in coords]
    got = ce.index_of_coords(np.array(coords, dtype=object))
    small = ce.index_of_coords(np.array(coords[len(coords) // 2 :], dtype=np.int64))
    assert list(small) == list(got[len(coords) // 2 :])
    for c, j in zip(coords, got):
        one = ce.index_of_coords(c)
        assert type(one) is int and one == j
        assert ce.index_of_coords(tuple(c)) == ce.index_of_coords(np.array(c, dtype=object)) == j
        # the coset index names the coset of the point: it and rep(j) differ by g
        assert ce.sub.contains(gamma.point(c) - ce.rep(one))


def span_dual_rows(lat):
    """Rows dual to the basis inside its span, by one formula per rank: the
    inverse at rank 3, the Gram inverse at rank 2 and b / |b|^2 at rank 1."""
    if lat.rank == 3:
        return inverse_rows(*lat.basis)
    if lat.rank == 2:
        b1, b2 = lat.basis
        g11, g12, g22 = b1.dot(b1), b1.dot(b2), b2.dot(b2)
        det = g11 * g22 - g12 * g12
        return (b1 * (g22 / det) - b2 * (g12 / det), b2 * (g11 / det) - b1 * (g12 / det))
    (b1,) = lat.basis
    return (b1 * (1 / b1.dot(b1)),)


def fraction_coords(lat, p):
    """p's coordinates in the basis, in Fractions, or None off the span: the
    in-span dual rows give the only candidate, and it must rebuild p."""
    c = tuple(r.dot(p) for r in span_dual_rows(lat))
    q = VEC_ZERO
    for t, b in zip(c, lat.basis):
        q = q + b * t
    return c if q == p else None


def span_normals(basis):
    """The vectors that complete the basis: b1 x b2, or n = (-y, x, 0) (e1 when
    that is 0) and b1 x n. A lattice point plus an integer combination of them
    has integer coordinates in the completed basis, yet lies off the span."""
    if len(basis) == 2:
        return [basis[0].cross(basis[1])]
    if len(basis) == 3:
        return []
    (x, y, _), _ = int_row(basis[0])
    n = Vec3(-y, x, 0) if x or y else E1
    return [n, basis[0].cross(n)]


@st.composite
def lattices_and_points(draw):
    """A lattice of rank 1 to 3 and a point on it, in its span, or off it."""
    rank = draw(st.integers(1, 3))
    basis = draw(st.lists(rat_vec, min_size=rank, max_size=rank))
    assume(rank_of(basis) == rank)
    kind = draw(st.sampled_from(["lattice", "span", "off", "normal"]))
    coeffs = st.integers(-5, 5)
    if kind == "span":
        coeffs = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([2, 3, 5]))
    p = VEC_ZERO
    for b in basis:
        p = p + b * draw(coeffs)
    if kind == "off":
        p = p + draw(rat_vec)
    if kind == "normal":
        for n in span_normals(basis):
            p = p + n * draw(st.integers(-2, 2))
    return Lattice(basis), p


@settings(max_examples=300, derandomize=True, deadline=None)
@given(lattices_and_points())
@example((Lattice([Vec3(0, 0, 2)]), Vec3(0, 0, -4)))
@example((Lattice([Vec3(0, 0, 2)]), Vec3(Fraction(1, 3), 0, -4)))
@example((Lattice([Vec3(1, 2, 0), Vec3(0, 0, 3)]), Vec3(2, 4, Fraction(3, 2))))
def test_point_coords_match_a_fraction_solve(case):
    lat, p = case
    assert lat._coord_rows == span_dual_rows(lat)
    want = fraction_coords(lat, p)
    nums, den = int_row(p)
    got = lat._point_coords(nums, den)
    assert lat._point_coords([3 * n for n in nums], 3 * den) == got  # any denominator
    assert lat.in_span(p) == (want is not None)
    assert lat.coords(p) == want
    if want is not None and all(t.denominator == 1 for t in want):
        assert got == [int(t) for t in want] and lat.contains(p)
    else:
        assert got is None and not lat.contains(p)
