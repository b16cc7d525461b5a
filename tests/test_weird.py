"""The coset slab construction, its identities, and the aperiodicity certificate."""
import dataclasses
import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from zonotile import tiling, weird
from zonotile.lattices import lattice_from_vectors, plane_section
from zonotile.linalg import Vec3, primitive
from zonotile.tiling import coverage, verify_level
from zonotile.weird import (
    BLACK,
    RED,
    Coloring,
    ap_coloring,
    build_construction,
    build_weird,
    choose_coefficients,
    construction_from_indices,
    irregularity_certificate,
    slab_identity_check,
)
from zonotile.zonotope import BoundaryHit, Location, Zonotope

from conftest import E1, E2, E3, ZERO

HALF = Fraction(1, 2)
W5 = (Vec3(-5, -5, -5), Vec3(5, 5, 5))


def cube_construction(cube):
    return construction_from_indices(cube, [0, 1], coefficients=(HALF, HALF))


def test_cube_construction_offsets_and_levels(cube):
    c = cube_construction(cube)
    assert c.v_indices == (0, 1) and c.w_indices == (2,)
    assert c.n_value == 2 and c.base_level == 1
    assert set(c.s_offsets) == {ZERO, Vec3(HALF, HALF, 0)}
    assert set(c.t_offsets) == {Vec3(HALF, 0, 0), Vec3(0, HALF, 0)}
    assert c.cosets is not None and c.cosets.torsion_order == 1


def test_construction_input_validation(cube):
    with pytest.raises(ValueError, match="empty"):
        construction_from_indices(cube, [])
    with pytest.raises(IndexError):
        construction_from_indices(cube, [0, 5])
    with pytest.raises(ValueError, match="span all of space"):
        construction_from_indices(cube, [0, 1, 2])
    with pytest.raises(ValueError, match="one coefficient"):
        construction_from_indices(cube, [0, 1], coefficients=(HALF,))
    with pytest.raises(ValueError, match="zero coefficient"):
        construction_from_indices(cube, [0, 1], coefficients=(0, HALF))
    with pytest.raises(ValueError, match="lands in the base group"):
        construction_from_indices(cube, [0, 1], coefficients=(1, 1))


def test_build_construction_picks_plane_side(cube):
    c = build_construction(cube)
    assert len(c.v_indices) == 2
    assert c.g.rank == 2
    assert len(c.s_offsets) == len(c.t_offsets) == c.n_value


def test_build_construction_rejects_non_two_flat():
    z = Zonotope((E1, E2, E3, Vec3(1, 1, 1), Vec3(1, 2, 3)))
    with pytest.raises(ValueError, match="two-flat"):
        build_construction(z)


def test_choose_coefficients_avoids_plane_section():
    # e1 = (e1+e3) - e3 lies in the plane of (2e1, e2) without being in their
    # lattice; coefficients must dodge the full section, not just the lattice
    z = Zonotope((E1 * 2, E2, E3, E1 + E3))
    gamma = lattice_from_vectors(list(z.generators))
    v = [z.generators[0], z.generators[1]]
    sect = plane_section(gamma, primitive(v[0].cross(v[1])))
    coeffs = choose_coefficients(sect, v)
    assert len(coeffs) == 2
    for mask in (1, 2, 3):
        s = ZERO
        for i in range(2):
            if mask >> i & 1:
                s = s + v[i] * coeffs[i]
        assert not sect.contains(s)
    # the full path accepts the body and stays collision-free
    c = construction_from_indices(z, [0, 1])
    for u in c.s_offsets + c.t_offsets:
        assert u.is_zero() or not c.gamma.contains(u)


def test_choose_coefficients_refuses_generators_off_the_group():
    # e1 lies in the plane of (2e1, e2) but not in their lattice, so its
    # subset sums have no integer coordinates there
    g = lattice_from_vectors([E1 * 2, E2])
    with pytest.raises(ValueError, match="outside its own group"):
        choose_coefficients(g, [E1, E2])
    with pytest.raises(ValueError, match="outside its own group"):
        choose_coefficients(g, [E3])
    assert choose_coefficients(g, [E1 * 2, E2]) == (Fraction(1, 2), Fraction(1, 2))


def test_user_coefficients_may_collide_with_gamma_but_certificate_refuses():
    z = Zonotope((E1 * 2, E2, E3, E1 + E3))
    # (1/2, 1/2) passes the base-group check: e1 is not in the (2e1, e2) lattice
    c = construction_from_indices(z, [0, 1], coefficients=(HALF, HALF))
    assert any(not u.is_zero() and c.gamma.contains(u) for u in c.s_offsets + c.t_offsets)
    with pytest.raises(ValueError, match="translation lattice"):
        irregularity_certificate(c, ap_coloring(40), -5, 5)
    # the level is still choice-independent even with the collision
    for choice in (None, {0: "T"}, {2: "T", -1: "T"}):
        rep = verify_level(z, build_weird(c, choice), W5, samples=120, seed=8)
        assert rep.level == c.n_value * c.base_level
        assert rep.density_consistent is True


def test_slab_identity_cube(cube):
    c = cube_construction(cube)
    rep = slab_identity_check(c, samples=200, seed=3)
    assert rep.passed and rep.mismatches == ()
    assert rep.samples == 200


def test_slab_identity_singleton_side(cube):
    c = construction_from_indices(cube, [2])
    assert c.n_value == 1
    rep = slab_identity_check(c, samples=100, seed=4)
    assert rep.passed


def test_build_weird_levels(cube):
    c = cube_construction(cube)
    for choice in (None, {0: "T"}, {1: "T", -3: "T", 7: "T"}):
        lam = build_weird(c, choice)
        assert lam.expected_level == 2
        rep = verify_level(cube, lam, W5, samples=200, seed=11)
        assert rep.level == 2 and rep.density_consistent is True


def test_build_weird_requires_plane(cube):
    c = construction_from_indices(cube, [2])
    with pytest.raises(ValueError, match="rank-2"):
        build_weird(c)


def test_random_two_flat_construction_level():
    z = Zonotope((Vec3(1, 1, 0), Vec3(1, -1, 0), E3, Vec3(1, 0, 1)))
    c = build_construction(z)
    lam = build_weird(c, {0: "T", 5: "T"})
    rep = verify_level(z, lam, W5, samples=150, seed=2)
    assert rep.level == c.n_value * c.base_level
    assert rep.density_consistent is True


def test_ap_coloring_defeats_every_processed_progression():
    col = ap_coloring(80)
    assert col.processed
    for d, a in col.processed:
        colors = {col.color_of(a + k * d) for k in range(-200, 201)}
        assert colors == {RED, BLACK}


def test_ap_coloring_deterministic_and_total():
    a, b = ap_coloring(50), ap_coloring(50)
    assert a.assigned == b.assigned
    assert Coloring({}, ()).color_of(123456) == RED


def test_irregularity_certificate_cube(cube):
    c = cube_construction(cube)
    col = ap_coloring(120)
    rep = irregularity_certificate(c, col, -30, 30)
    assert rep.ok and rep.has_present and rep.has_absent
    for ell, color, mult in rep.entries:
        assert mult == (1 if color == RED else 0)
        assert color == col.color_of(ell)


def test_slab_identity_check_rejects_flat_window(cube):
    c = build_construction(cube)
    with pytest.raises(ValueError):
        slab_identity_check(c, window=(Vec3(0, 0, 0), Vec3(1, 0, 1)), samples=4)


@pytest.mark.parametrize("samples", [0, -5])
def test_slab_identity_check_refuses_no_samples(cube, samples):
    # no sample would pass vacuously
    with pytest.raises(ValueError, match="at least one sample"):
        slab_identity_check(cube_construction(cube), samples=samples)


def test_irregularity_certificate_refuses_empty_range(cube):
    # an empty coset line would certify nothing and still report ok
    c = cube_construction(cube)
    with pytest.raises(ValueError, match="lo <= hi"):
        irregularity_certificate(c, ap_coloring(40), 5, 4)
    assert len(irregularity_certificate(c, ap_coloring(40), 4, 4).entries) == 1


# -- slab identity: failing constructions, the shared sampler, pinned reports --


def moved_construction(c):
    """c with its first T offset moved off its subset sum, across G's plane."""
    moved = c.t_offsets[0] + Vec3(0, 0, Fraction(1, 4))
    return dataclasses.replace(c, t_offsets=(moved, *c.t_offsets[1:]))


def brute_slab_count(c, x, offsets, reach=6):
    """How many pairs (u, g), u an offset and g = a g1 + b g2 with |a|, |b| <= reach,
    put x - u - g inside the body; every such g must lie well inside the reach.
    None when x - u - g lies on the body's boundary for some pair."""
    total = 0
    for u in offsets:
        for a in range(-reach, reach + 1):
            for b in range(-reach, reach + 1):
                loc = c.zonotope.contains(x - u - c.g.point((a, b)))
                if loc is Location.BOUNDARY:
                    return None
                if loc is Location.INTERIOR:
                    assert max(abs(a), abs(b)) < reach
                    total += 1
    return total


def test_slab_identity_check_fails_on_moved_offset(cube):
    c = moved_construction(cube_construction(cube))
    rep = slab_identity_check(c, samples=64, seed=5)
    assert rep.passed is False and rep.mismatches
    for x, s, t in rep.mismatches:
        assert s != t
        assert (s, t) == (brute_slab_count(c, x, c.s_offsets), brute_slab_count(c, x, c.t_offsets))


def slab_constructions():
    cube = Zonotope((E1, E2, E3))
    skew = Zonotope((Vec3(1, 1, 0), Vec3(1, -1, 0), E3, Vec3(1, 0, 1)))
    return {"cube": cube_construction(cube), "two_flat": build_construction(skew)}


SLAB_CONSTRUCTIONS = slab_constructions()
# coordinates in [-3, 4] over 24, so that some points land on a facet of a translate
slab_coords = st.integers(-72, 96).map(lambda n: Fraction(n, 24))


@settings(max_examples=120, derandomize=True, deadline=None)
@given(st.sampled_from(sorted(SLAB_CONSTRUCTIONS)), slab_coords, slab_coords, slab_coords)
def test_slab_family_coverage_matches_brute_force(name, x0, x1, x2):
    c, x = SLAB_CONSTRUCTIONS[name], Vec3(x0, x1, x2)
    for offsets in (c.s_offsets, c.t_offsets):
        # the records slab_identity_check counts: each offset u is u + G, weight 1
        families = tuple(tiling._family(c.g, u, 1) for u in offsets)
        want = brute_slab_count(c, x, offsets, reach=10)
        if want is None:
            with pytest.raises(BoundaryHit) as hit:
                coverage(c.zonotope, families, x)
            assert hit.value.point == x
        else:
            assert coverage(c.zonotope, families, x) == want


def test_slab_identity_check_redraws_first_round_facet_samples(cube, monkeypatch):
    # every fourth first-round sample is put on the plane x = 0 inside the
    # slab 0 < z < 1, a facet of the translates over G; only those are redrawn
    real_draw, drawn = tiling._draw, []

    def draw(rng, n):
        r = real_draw(rng, n)
        if not drawn:
            r[::4, 0] = 2**61  # x = -2 + 4 * 2^61 / 2^62 = 0
            r[::4, 2] = 2**61 + 2**59  # z = 1/2
        drawn.append(n)
        return r

    monkeypatch.setattr(tiling, "_draw", draw)
    window = (Vec3(-2, -2, -2), Vec3(2, 2, 2))
    rep = slab_identity_check(cube_construction(cube), window=window, samples=64, seed=1)
    assert rep.passed and rep.samples == 64 and drawn == [64, 16]


def test_slab_identity_check_caps_boundary_resamples(cube, monkeypatch):
    class Stuck(random.Random):
        def getrandbits(self, k):
            return 0  # every sample is the window corner, a cube vertex

    monkeypatch.setattr(tiling.random, "Random", Stuck)
    with pytest.raises(ValueError, match="resample"):
        slab_identity_check(cube_construction(cube), window=(ZERO, Vec3(1, 1, 1)), samples=5)


def pinned_slab_cases():
    cube = Zonotope((E1, E2, E3))
    con = cube_construction(cube)
    skew = Zonotope((Vec3(1, 1, 0), Vec3(1, -1, 0), E3, Vec3(1, 0, 1)))
    wide = (Vec3(-2, Fraction(-1, 3), 0), Vec3(3, 2, Fraction(5, 7)))
    return {
        "cube": (con, None, 3, 200),
        "singleton": (construction_from_indices(cube, [2]), None, 4, 100),
        "skew": (build_construction(skew), None, 2, 64),
        "window": (con, wide, 9, 64),
        "broken": (moved_construction(con), None, 5, 64),
    }


# sha256 of repr(slab_identity_check(c, window, samples, seed)) per case, from
# the check that drew each sample with its own getrandbits calls and retried it
# on the spot after a boundary hit
PINNED_SLAB_REPORTS = {
    "cube": (True, 0, "d0537e322452876a3ba223c1d7f97b49092fc57b0d7a4ef89f8e4c16099b9222"),
    "singleton": (True, 0, "4f9d65567c03c8c989852464f4d3237ae5a4c4e691ab8f2ed848a19b594db180"),
    "skew": (True, 0, "ad3b31db935d92f3349609a9286e76a65d7249dccaf988b7bdab687904a07abe"),
    "window": (True, 0, "48d170c66251bec9caae7f2217d19d0bf846e4a928ea21ada0b598a768d4226f"),
    "broken": (False, 18, "5936fd7cb5e9debc354fbc9931dd560b74def5b2e2649eeb3eebcd33980bb43f"),
}


@pytest.mark.parametrize("name", sorted(PINNED_SLAB_REPORTS))
def test_slab_identity_reports_are_pinned(name):
    c, window, seed, samples = pinned_slab_cases()[name]
    rep = slab_identity_check(c, window=window, samples=samples, seed=seed)
    passed, mismatches, digest = PINNED_SLAB_REPORTS[name]
    assert (rep.passed, len(rep.mismatches)) == (passed, mismatches)
    assert hashlib.sha256(repr(rep).encode()).hexdigest() == digest


def test_construction_refuses_too_many_subset_sums(monkeypatch):
    # one generator past the bound, in one plane, plus one across it; the
    # refusal comes before any subset sum is built
    n = weird._SUBSET_LIMIT.bit_length()
    assert 1 << n > weird._SUBSET_LIMIT >= 1 << (n - 1)
    z = Zonotope(tuple(Vec3(1 + i, i * i % 7, 0) for i in range(n)) + (E3,))
    monkeypatch.setattr(weird, "_subset_sums", lambda *a: pytest.fail("subset sums built"))
    monkeypatch.setattr(weird, "choose_coefficients", lambda *a: pytest.fail("coefficients chosen"))
    with pytest.raises(ValueError, match=f"{1 << n} subset sums, more than"):
        construction_from_indices(z, range(n))
    with pytest.raises(ValueError, match="subset sums"):
        build_construction(z)
