"""Shared fixtures, random-object helpers, and the criterion summary hook."""
import math
import random
import re
from fractions import Fraction

import pytest

_criterion_results: dict[str, str] = {}


def pytest_runtest_logreport(report):
    m = re.search(r"test_criterion_(\d+)\w*", report.nodeid)
    if not m:
        return
    key = m.group(1)
    if report.when == "call":
        _criterion_results[key] = "PASS" if report.passed else "FAIL"
    elif report.when == "setup" and report.failed:
        _criterion_results[key] = "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _criterion_results:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria")
    for key in sorted(_criterion_results):
        terminalreporter.write_line(f"  criterion {key}: {_criterion_results[key]}")

from zonotile.lattices import lattice_from_vectors
from zonotile.linalg import VEC_ZERO, Vec3, int_row, rank_of
from zonotile.tiling import LatticeComponent, LatticeUnion
from zonotile.zonotope import Location, Zonotope

E1 = Vec3(1, 0, 0)
E2 = Vec3(0, 1, 0)
E3 = Vec3(0, 0, 1)
ZERO = Vec3(0, 0, 0)
# 12 generators along 8 directions, two-flat
TWO_FLAT_12 = (
    (-1, -2, 0), (-2, -2, -2), (-1, -1, -1), (0, 1, -1), (0, 1, -1), (-2, -2, -2),
    (2, -2, -5), (-4, 0, 2), (-2, -2, -3), (4, -2, -6), (-4, -1, 0), (4, 1, 0),
)


@pytest.fixture
def cube() -> Zonotope:
    return Zonotope((E1, E2, E3))


@pytest.fixture
def rd4() -> Zonotope:
    # cube generators plus the long diagonal; 12 rhombic facets
    return Zonotope((E1, E2, E3, Vec3(1, 1, 1)))


@pytest.fixture
def z3_union() -> LatticeUnion:
    lat = lattice_from_vectors([E1, E2, E3])
    return LatticeUnion((LatticeComponent(lat, ZERO),))


def det3(a: Vec3, b: Vec3, c: Vec3) -> Fraction:
    """Determinant of the matrix with columns a, b, c, as a Fraction triple product."""
    return a.dot(b.cross(c))


def inverse_rows(b1: Vec3, b2: Vec3, b3: Vec3) -> tuple[Vec3, Vec3, Vec3]:
    """Rows of the inverse of the matrix with columns b1, b2, b3, in Fractions.

    Row i dotted with a point gives that point's i-th coordinate in the
    (b1, b2, b3) basis: the Fraction oracle for the library's integer inverses.
    """
    d = det3(b1, b2, b3)
    if not d:
        raise ValueError("singular basis")
    return (b2.cross(b3) * (1 / d), b3.cross(b1) * (1 / d), b1.cross(b2) * (1 / d))


def random_int_vec(rng: random.Random, span: int = 2) -> Vec3:
    while True:
        v = Vec3(rng.randint(-span, span), rng.randint(-span, span), rng.randint(-span, span))
        if not v.is_zero():
            return v


def random_rat_vec(rng: random.Random, span: int = 3, den: int = 3) -> Vec3:
    return Vec3(
        Fraction(rng.randint(-span, span), rng.randint(1, den)),
        Fraction(rng.randint(-span, span), rng.randint(1, den)),
        Fraction(rng.randint(-span, span), rng.randint(1, den)),
    )


def random_zonotope(rng: random.Random, count: int, span: int = 2) -> Zonotope:
    """Random integer-generator zonotope of full rank."""
    while True:
        gens = tuple(random_int_vec(rng, span) for _ in range(count))
        if rank_of(gens) == 3:
            return Zonotope(gens)


def random_two_flat_zonotope(rng: random.Random, n1: int, n2: int) -> Zonotope:
    """n1 generators inside one plane, n2 inside another, full rank overall."""
    while True:
        a, b = random_int_vec(rng), random_int_vec(rng)
        if rank_of([a, b]) == 2:
            break
    while True:
        c, d = random_int_vec(rng), random_int_vec(rng)
        if rank_of([c, d]) == 2 and rank_of([a, b, c, d]) == 3:
            break

    def in_plane(p: Vec3, q: Vec3) -> Vec3:
        while True:
            v = p * rng.randint(-2, 2) + q * rng.randint(-2, 2)
            if not v.is_zero():
                return v

    gens = [in_plane(a, b) for _ in range(n1)] + [in_plane(c, d) for _ in range(n2)]
    if rank_of(gens) < 3:
        return random_two_flat_zonotope(rng, n1, n2)
    return Zonotope(tuple(gens))


def corner_ranges(lat, shift: Vec3, lo: Vec3, hi: Vec3) -> list[range]:
    """Coordinate ranges from the eight box corners, in Fraction arithmetic.

    The enumeration ``lattice_points_in_box`` used before its ranges moved to
    integers, kept as the oracle for the ranges and for the points and order
    of ``box_point_ints``; filtered to the box, for ``lattice_points_in_box``.
    """
    corners = [Vec3(cx, cy, cz) for cx in (lo.x, hi.x) for cy in (lo.y, hi.y) for cz in (lo.z, hi.z)]
    ranges = []
    for row in span_dual_rows(lat):
        vals = [row.dot(c - shift) for c in corners]
        ranges.append(range(math.ceil(min(vals)), math.floor(max(vals)) + 1))
    return ranges


def corner_box_points(lat, shift: Vec3, lo: Vec3, hi: Vec3) -> list[Vec3]:
    """shift + sum k_i b_i over ``corner_ranges``, nested loops, last k fastest."""
    points = [shift]
    for ks, b in zip(corner_ranges(lat, shift, lo, hi), lat.basis):
        points = [p + b * k for p in points for k in ks]
    return points


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


def count_at(fam, nums, den: int) -> int:
    """How often the translate nums / den occurs in the family record fam (0 if
    off its lattice), by one ``_point_coords`` solve of nums / den - shift."""
    (p0, p1, p2), ((s0, s1, s2), sden) = nums, int_row(fam.shift)
    v = (sden * p0 - den * s0, sden * p1 - den * s1, sden * p2 - den * s2)
    if (k := fam.lattice._point_coords(v, den * sden)) is None:
        return 0
    return fam.count_coords(k)


def brute_coverage(z: Zonotope, families, x: Vec3) -> tuple[int, bool]:
    """(count, on_border) at x over family records, by brute force.

    The candidates are ``corner_box_points`` of each family over the box
    [x - hi, x - lo] of the body's bounding box [lo, hi], each weighed by
    ``count_at``; ``Zonotope.contains`` places x - t. on_border is True when
    x lies on the boundary of a translate of nonzero multiplicity, and the
    count then means nothing. Neither ``lattice_points_in_box`` nor
    ``interior_mask`` is used.
    """
    lo, hi = z.bounding_box()
    total, on_border = 0, False
    for fam in families:
        for t in corner_box_points(fam.lattice, fam.shift, x - hi, x - lo):
            if not (m := count_at(fam, *int_row(t))):
                continue
            loc = z.contains(x - t)
            on_border = on_border or loc is Location.BOUNDARY
            total += m if loc is Location.INTERIOR else 0
    return total, on_border


def rescanning_families(lam) -> list[tuple[Vec3, int, dict[int, int]]]:
    """(shift, weight, counts) per family record of a ``SlabChoice``, in record
    order, by rescanning both offset tuples for every distinct offset and
    every choice key: the records as built before each side was counted once.
    """
    out = []
    for u in dict.fromkeys(lam.s_offsets + lam.t_offsets):
        default = lam.s_offsets.count(u)
        counts = {j: c for j in lam.choice if (c := lam.offsets_for(j).count(u)) != default}
        out.append((u, default, counts))
    return out
