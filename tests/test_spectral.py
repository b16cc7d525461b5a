"""Leg-measure Fourier transforms, zero sets, and the support-bound check."""
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zonotile import spectral
from zonotile.lattices import Lattice, dual_lattice, lattice_from_vectors
from zonotile.linalg import Vec3, det3, rank_of
from zonotile.spectral import (
    SupportReport,
    _cyclotomic,
    gaussian_leg_pairing,
    leg_ft,
    leg_level_zero_check,
    leg_measure,
    rou_sum_is_zero,
    support_bound_check,
    zero_set_member,
)
from zonotile.tiling import LatticeComponent, LatticeUnion
from zonotile.zonotope import Frame, Zonotope

from conftest import E1, E2, E3, ZERO, corner_box_points, corner_ranges


def quad_leg_ft(legs, xi, n=4000):
    """Composite-Simpson quadrature of the transform over the four segments."""
    xi_f = np.asarray(xi, dtype=float)
    w_simp = np.ones(n + 1)
    w_simp[1:-1:2] = 4.0
    w_simp[2:-1:2] = 2.0
    total = 0j
    for base, edge, w in legs:
        bf = np.array(base.as_floats())
        ef = np.array(edge.as_floats())
        ts = np.linspace(0.0, 1.0, n + 1)
        pts = bf[None, :] + ts[:, None] * ef[None, :]
        vals = np.exp(-2j * math.pi * (pts @ xi_f))
        total += w * float(np.linalg.norm(ef)) * (vals @ w_simp) / (3.0 * n)
    return complex(total)


def sample_in_family(rng: random.Random, fam, j: int | None = None) -> Vec3:
    """Rational point with <xi, fam.vector> = j (j random when omitted)."""
    x = fam.vector
    if j is None:
        j = rng.choice([k for k in range(-3, 4) if k != 0 or not fam.punctured])
    assert not (fam.punctured and j == 0)
    axis = E1 if not x.parallel_to(E1) else E2
    p1 = x.cross(axis)
    p2 = x.cross(p1)
    t1 = Fraction(rng.randint(-12, 12), rng.randint(1, 7))
    t2 = Fraction(rng.randint(-12, 12), rng.randint(1, 7))
    return x * (j / x.norm_sq()) + p1 * t1 + p2 * t2


def test_legs_have_zero_total_mass(cube, rd4):
    for z in (cube, rd4):
        for fr in z.frames():
            m = leg_measure(fr)
            legs = m.legs()
            assert len(legs) == 4
            lengths = {edge.norm_sq() for _, edge, _ in legs}
            assert len(lengths) == 1
            assert sorted(w for _, _, w in legs) == [-1, -1, 1, 1]
            # sign convention: the lexicographically least base carries +1
            least = min(base for base, _, _ in legs)
            assert [w for base, _, w in legs if base == least] == [1]


def test_leg_ft_vanishes_at_zero(cube):
    m = leg_measure(cube.frames()[0])
    assert abs(leg_ft(m, (0.0, 0.0, 0.0))) < 1e-15


def test_leg_ft_vanishes_on_offset_planes(cube):
    fr = cube.frames()[0]
    m = leg_measure(fr)
    # build xi with <xi, tau1> = 1 by scaling
    t = fr.tau1
    xi = t * (1 / t.norm_sq())
    assert abs(leg_ft(m, xi)) < 1e-12


def test_leg_ft_matches_quadrature_oracle(cube, rd4):
    rng = random.Random(17)
    worst = 0.0
    for z in (cube, rd4):
        for fr in z.frames()[:3]:
            m = leg_measure(fr)
            for _ in range(5):
                xi = tuple(rng.uniform(-3, 3) for _ in range(3))
                diff = abs(leg_ft(m, xi) - quad_leg_ft(m.legs(), xi))
                worst = max(worst, diff)
    assert worst <= 1e-8


def test_leg_ft_accepts_exact_and_float_points(cube):
    m = leg_measure(cube.frames()[0])
    xi_exact = Vec3(Fraction(1, 3), Fraction(2, 7), Fraction(-1, 5))
    xi_float = tuple(float(c) for c in xi_exact)
    assert abs(leg_ft(m, xi_exact) - leg_ft(m, xi_float)) < 1e-12


def test_zero_set_membership_examples(cube):
    fr = next(f for f in cube.frames() if f.e.parallel_to(E1))
    assert zero_set_member(fr, Vec3(0, 0, 0))  # <0, tau1> = 0
    assert not zero_set_member(fr, Vec3(Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)))
    assert zero_set_member(fr, Vec3(2, Fraction(1, 3), Fraction(1, 5)))


def test_zero_set_families_annihilate_ft(cube, rd4):
    rng = random.Random(29)
    for z in (cube, rd4):
        for fr in z.frames():
            m = leg_measure(fr)
            for fam in m.zero_set():
                for _ in range(5):
                    xi = sample_in_family(rng, fam)
                    assert zero_set_member(fr, xi)
                    assert abs(leg_ft(m, xi)) <= 1e-9


def test_nonmembers_bounded_away_from_zero(cube):
    rng = random.Random(41)
    fr = cube.frames()[0]
    m = leg_measure(fr)
    for _ in range(50):
        xi = Vec3(
            Fraction(rng.randint(-20, 20), 7),
            Fraction(rng.randint(-20, 20), 11),
            Fraction(rng.randint(-20, 20), 13),
        )
        if zero_set_member(fr, xi):
            continue
        assert abs(leg_ft(m, xi)) > 1e-9


def test_rou_sum_exact_cancellation():
    third = Fraction(1, 3)
    assert rou_sum_is_zero([(Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0))])
    assert rou_sum_is_zero([(Fraction(1), Fraction(0)), (Fraction(1), Fraction(1, 2))])
    assert rou_sum_is_zero([(Fraction(1), k * third) for k in range(3)])
    assert rou_sum_is_zero([(Fraction(2), Fraction(k, 5)) for k in range(5)])
    assert not rou_sum_is_zero([(Fraction(1), Fraction(0))])
    assert not rou_sum_is_zero([(Fraction(1), Fraction(0)), (Fraction(1), third)])
    assert not rou_sum_is_zero(
        [(Fraction(1), Fraction(1, 2)), (Fraction(1), Fraction(1, 3))]
    )
    # sixth roots through mixed denominators: w^1 + w^5 = 1 (w primitive 6th)
    assert rou_sum_is_zero(
        [
            (Fraction(1), Fraction(1, 6)),
            (Fraction(1), Fraction(5, 6)),
            (Fraction(-1), Fraction(0)),
        ]
    )


def ball_points(radius):
    r = int(radius)
    return [
        (a, b, c)
        for a in range(-r, r + 1)
        for b in range(-r, r + 1)
        for c in range(-r, r + 1)
        if a * a + b * b + c * c <= radius * radius
    ]


def test_support_bound_cube_lattice(cube, z3_union):
    rep = support_bound_check(cube, z3_union, 3)
    assert rep.holds and not rep.violations
    assert rep.candidates == len(ball_points(3))
    assert rep.cancelled == ()


def test_support_bound_two_tiling_cancellation(cube):
    lat = lattice_from_vectors([E1, E2, E3])
    lam = LatticeUnion(
        (
            LatticeComponent(lat, ZERO),
            LatticeComponent(lat, Vec3(Fraction(1, 2), 0, 0)),
        )
    )
    rep = support_bound_check(cube, lam, 3)
    assert rep.holds and not rep.violations
    # weights 1 + exp(-pi i a) cancel exactly at odd first coordinates
    odd = sum(1 for a, b, c in ball_points(3) if a % 2)
    assert len(rep.cancelled) == odd


def test_support_bound_detects_failure(cube):
    sparse = lattice_from_vectors([E1 * 2, E2 * 2, E3 * 2])
    lam = LatticeUnion((LatticeComponent(sparse, ZERO),))
    rep = support_bound_check(cube, lam, 2)
    assert not rep.holds
    assert rep.violations
    for xi in rep.violations:
        assert not all(zero_set_member(fr, xi) for fr in cube.frames())


def test_support_bound_requires_periodic_input(cube):
    class FakeSlab:
        pass

    with pytest.raises(ValueError, match="periodic"):
        support_bound_check(cube, FakeSlab(), 2)


def test_support_bound_check_refuses_large_boxes_before_building(cube, monkeypatch):
    lat = lattice_from_vectors([E1, E2, E3])
    one = LatticeUnion((LatticeComponent(lat, ZERO),))
    two = LatticeUnion((LatticeComponent(lat, ZERO), LatticeComponent(lat, Vec3.of("1/2", 0, 0))))
    monkeypatch.setattr(spectral, "box_point_ints", lambda *a: pytest.fail("box points built"))
    # radius 29: 59^3 = 205,379 dual points in one box
    with pytest.raises(ValueError, match="205379 dual points, more than 200000"):
        support_bound_check(cube, one, 29)
    # radius 23: 47^3 = 103,823 in each box, 207,646 summed over both
    with pytest.raises(ValueError, match="207646 dual points"):
        support_bound_check(cube, two, 23)


def test_leg_measure_refuses_a_degenerate_frame():
    # e and tau1 are parallel, so det(e, tau1, tau2) = 0; no zonotope builds
    # such a frame, but one built by hand reaches the check
    fr = Frame(E1, ZERO, E1 * 2, E2, 0)
    assert det3(*fr.vectors()) == 0
    with pytest.raises(ValueError, match="degenerate"):
        leg_measure(fr)


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"trials": 0}, "trials"),
        ({"trials": -2}, "trials"),
        ({"tol": 0.0}, "tol"),
        ({"tol": -1e-6}, "tol"),
        ({"tol": math.inf}, "tol"),
        ({"tol": math.nan}, "tol"),
    ],
)
def test_leg_level_zero_check_refuses_vacuous_arguments(cube, z3_union, kwargs, name):
    m = leg_measure(cube.frames()[0])
    with pytest.raises(ValueError, match=name):
        leg_level_zero_check(m, z3_union, **kwargs)


def test_gaussian_pairing_level_zero(cube, z3_union):
    m = leg_measure(cube.frames()[0])
    rep = leg_level_zero_check(m, z3_union, trials=3, tol=1e-6, seed=5)
    assert rep.passed
    assert rep.max_abs <= 1e-6
    assert len(rep.values) == 3


def test_gaussian_pairing_positive_control(cube, z3_union):
    m = leg_measure(cube.frames()[0])
    positive = [(base, edge, abs(w)) for base, edge, w in m.legs()]
    val = gaussian_leg_pairing(positive, z3_union, (0.3, 0.1, -0.2))
    # four unit legs of mass one each against a unit-density lattice:
    # total mass times the Gaussian integral, far from zero
    assert abs(val - 4 * (2 * math.pi) ** 1.5) < 1e-6


def test_gaussian_pairing_translation_invariance(cube):
    lat = lattice_from_vectors([E1, E2, E3])
    shifted = LatticeUnion((LatticeComponent(lat, Vec3(Fraction(1, 7), 0, 0)),))
    m = leg_measure(cube.frames()[1])
    rep = leg_level_zero_check(m, shifted, trials=2, tol=1e-6, seed=9)
    assert rep.passed


# -- oracle: the support check in plain Fraction arithmetic -----------------


def fraction_zero_set_member(fr, xi):
    se = xi.dot(fr.e)
    if se.denominator == 1 and se != 0:
        return True
    return any(xi.dot(tau).denominator == 1 for tau in (fr.tau1, fr.tau2))


def fraction_rou_sum_is_zero(terms):
    q = math.lcm(*(phase.denominator for _, phase in terms))
    coeffs = [Fraction(0)] * q
    for coeff, phase in terms:
        coeffs[-phase.numerator * (q // phase.denominator) % q] += coeff
    phi = _cyclotomic(q)
    deg = len(phi) - 1
    for i in range(q - 1, deg - 1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        coeffs[i] = Fraction(0)
        for j, d in enumerate(phi[:-1]):
            coeffs[i - deg + j] -= c * d
    return all(c == 0 for c in coeffs[:deg])


def reference_support_check(z, lam, radius):
    """Every dual point in the ball as a Vec3, with Fraction dot products."""
    r = Fraction(radius)
    corner = Vec3(r, r, r)
    cands = list(dict.fromkeys(
        p
        for comp in lam.components
        for p in corner_box_points(dual_lattice(comp.lattice), ZERO, -corner, corner)
        if p.norm_sq() <= r * r
    ))
    violations, cancelled = [], []
    for xi in cands:
        terms = [
            (Fraction(comp.weight) / abs(det3(*comp.lattice.basis)), comp.offset.dot(xi))
            for comp in lam.components
            if all(xi.dot(b).denominator == 1 for b in comp.lattice.basis)
        ]
        if fraction_rou_sum_is_zero(terms):
            if not xi.is_zero():
                cancelled.append(xi)
        elif not xi.is_zero() and not all(fraction_zero_set_member(fr, xi) for fr in z.frames()):
            violations.append(xi)
    return SupportReport(r, len(cands), tuple(violations), tuple(cancelled), not violations)


oracle_rat = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3]))
oracle_vec = st.builds(Vec3, oracle_rat, oracle_rat, oracle_rat)
body_gen = st.builds(Vec3, *[st.integers(-1, 1)] * 3).filter(lambda v: not v.is_zero())
radii = st.sampled_from([1, 2, 3, Fraction(3, 2), Fraction(5, 2), Fraction(7, 3)])
shear = st.builds(Fraction, st.integers(-1, 1), st.sampled_from([1, 2, 3]))
pitch = st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)])


@st.composite
def components(draw):
    """A sheared triangular basis, mixed by a unimodular step, so non-diagonal."""
    p1, p2, p3 = (draw(pitch) for _ in range(3))
    s12, s13, s23 = (draw(shear) for _ in range(3))
    b1, b2, b3 = Vec3(p1, s12, s13), Vec3(0, p2, s23), Vec3(0, 0, p3)
    k = draw(st.integers(-1, 1))
    basis = (b1 + b2 * k, b2 + b3 * draw(st.integers(-1, 1)), b3)
    return LatticeComponent(Lattice(basis), draw(oracle_vec), draw(st.integers(1, 2)))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    gens=st.lists(body_gen, min_size=3, max_size=5).filter(lambda g: rank_of(g) == 3),
    comps=st.lists(components(), min_size=1, max_size=3),
    twin=st.booleans(),
    radius=radii,
)
def test_support_bound_matches_fraction_reference(gens, comps, twin, radius):
    if twin:  # a copy half a period along b1 away: the weights cancel where <xi, b1> is odd
        c = comps[0]
        comps.append(LatticeComponent(c.lattice, c.offset + c.lattice.basis[0] * Fraction(1, 2), c.weight))
    r = Fraction(radius)
    corner = Vec3(r, r, r)
    for c in comps:
        ranges = corner_ranges(dual_lattice(c.lattice), ZERO, -corner, corner)
        assume(np.prod([len(k) for k in ranges]) <= 1500)
    z, lam = Zonotope(gens), LatticeUnion(tuple(comps))
    assert support_bound_check(z, lam, radius) == reference_support_check(z, lam, radius)


def test_support_bound_matches_reference_with_violations_and_cancellation(rd4):
    # two sparse components half a period apart along E1 cancel where 2 xi_x
    # is odd and the third component's dual misses xi; most other nonzero
    # frequencies lie off some frame's zero set
    sparse = Lattice((E1 * 2, E2 * 2 + E3 * Fraction(2, 3), E3 * 2))
    lam = LatticeUnion(
        (
            LatticeComponent(sparse, Vec3(Fraction(1, 3), 0, Fraction(1, 2))),
            LatticeComponent(sparse, Vec3(Fraction(4, 3), 0, Fraction(1, 2)), 1),
            LatticeComponent(lattice_from_vectors([E1, E2 + E1 * Fraction(1, 2), E3 * 3]), ZERO, 2),
        )
    )
    rep = support_bound_check(rd4, lam, Fraction(5, 2))
    assert rep.violations and rep.cancelled
    assert rep == reference_support_check(rd4, lam, Fraction(5, 2))
