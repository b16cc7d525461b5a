"""The coset slab construction, its identities, and the aperiodicity certificate."""
import dataclasses
import hashlib
import random
from collections import Counter, deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zonotile import tiling, weird
from zonotile.io import translate_set_to_json
from zonotile.lattices import box_count, lattice_from_vectors, plane_section
from zonotile.linalg import Vec3, int_row, primitive
from zonotile.tiling import SlabChoice, verify_level
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
from zonotile.zonotope import Location, Zonotope

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


def test_build_weird_refuses_choice_keys_that_are_not_integers(cube):
    c = cube_construction(cube)
    j = c.cosets.rep(0)
    assert tiling.translate_multiplicity(build_weird(c, {0: "T"}), j) == 0
    for key in ("0", True, False, 0.0, Fraction(0), None):
        for emit in (lambda ch: build_weird(c, ch), c.base.with_choice):
            with pytest.raises(ValueError, match="integer coset indices"):
                emit({key: "T"})
    for value in ("X", "s", None):
        for emit in (lambda ch: build_weird(c, ch), c.base.with_choice):
            with pytest.raises(ValueError, match="'S' or 'T'"):
                emit({0: value})
    lam = build_weird(c, {np.int64(0): "T"})
    assert [type(k) for k in lam.choice] == [int]
    assert tiling.translate_multiplicity(lam, j) == 0
    assert translate_set_to_json(lam)["choice"] == {"0": "T"}


def test_build_weird_requires_plane(cube):
    c = construction_from_indices(cube, [2])
    assert c.cosets is None
    with pytest.raises(ValueError, match="rank-2"):
        build_weird(c)
    with pytest.raises(ValueError, match="rank-2"):
        c.base


def test_constructions_from_the_same_input_compare_equal(cube):
    a, b = cube_construction(cube), cube_construction(cube)
    assert a == b and hash(a) == hash(b)
    assert build_weird(a) == build_weird(b)


def test_replaced_group_reaches_cosets_multisets_and_certificate(cube):
    c = cube_construction(cube)
    assert c.cosets.torsion_order == 1
    # g = span(2 e1, e2) inside Z^3 has two torsion cosets per line
    r = dataclasses.replace(c, g=lattice_from_vectors([E1 * 2, E2]))
    assert (r.cosets.sub, r.cosets.torsion_order) == (r.g, 2)
    lam = build_weird(r, {0: "T"})
    assert lam.sub == r.g and lam.cosets is r.cosets
    rep = irregularity_certificate(r, ap_coloring(60), -10, 10)
    assert rep.ok and rep.has_present and rep.has_absent


def test_emitted_multisets_share_the_cosets_and_not_the_families(cube):
    c = cube_construction(cube)
    j = c.cosets.rep(0)
    # the all-S base builds its families first; no choice may inherit them
    assert tiling.translate_multiplicity(c.base, j) == 1
    flipped = build_weird(c, {0: "T"})
    assert tiling.translate_multiplicity(flipped, j) == 0
    plain = build_weird(c)
    assert tiling.translate_multiplicity(plain, j) == 1
    assert flipped.cosets is plain.cosets is c.cosets is c.base.cosets
    assert dict(flipped.choice) == {0: "T"} and dict(plain.choice) == {} == dict(c.base.choice)
    assert flipped == SlabChoice(c.gamma, c.g, c.s_offsets, c.t_offsets, {0: "T"}, 2)


def test_irregularity_certificate_requires_plane(cube):
    c = construction_from_indices(cube, [2])
    with pytest.raises(ValueError, match="rank-2"):
        irregularity_certificate(c, ap_coloring(20), 0, 3)


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


def restarting_ap_coloring(num_steps: int) -> Coloring:
    """``ap_coloring`` with each visit rescanning its progression from a."""
    queue, fresh = deque(), weird._fresh_aps()
    assigned, processed = {}, []
    for _ in range(num_steps):
        if not queue:
            queue.append(next(fresh))
        d, a = queue.popleft()
        found = []
        for val in weird._ap_members(d, a):
            if val not in assigned:
                found.append(val)
                if len(found) == 2:
                    break
        assigned[found[0]], assigned[found[1]] = RED, BLACK
        processed.append((d, a))
        queue.append((d, a))
        queue.append(next(fresh))
    return Coloring(assigned, tuple(processed))


@pytest.mark.parametrize("num_steps", [0, 1, 2, 7, 200, 1000, 5000])
def test_ap_coloring_matches_the_restarting_scan(num_steps):
    got = ap_coloring(num_steps)
    want = restarting_ap_coloring(num_steps)
    assert got == want and list(got.assigned.items()) == list(want.assigned.items())


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


def test_ap_coloring_refuses_steps_past_its_bound(monkeypatch):
    # criterion 11 and the benchmark color 200 steps, far inside the bound
    assert weird._AP_STEP_LIMIT >= 100 * 200
    monkeypatch.setattr(weird, "_AP_STEP_LIMIT", 50)
    assert len(ap_coloring(50).processed) == 50
    monkeypatch.setattr(weird, "_fresh_aps", lambda: pytest.fail("coloring loop ran"))
    with pytest.raises(ValueError, match="51 coloring steps, more than 50"):
        ap_coloring(51)


def test_irregularity_certificate_refuses_lines_past_its_bound(cube, monkeypatch):
    # criterion 11 and the benchmark certify 101 line indices
    assert weird._LINE_LIMIT >= 100 * 101
    col = ap_coloring(40)
    monkeypatch.setattr(weird, "_LINE_LIMIT", 11)
    assert len(irregularity_certificate(cube_construction(cube), col, -5, 5).entries) == 11
    monkeypatch.setattr(weird, "translate_multiplicity", lambda *a: pytest.fail("line loop ran"))
    c = cube_construction(cube)
    with pytest.raises(ValueError, match="12 indices, more than 11"):
        irregularity_certificate(c, col, -5, 6)
    assert "base" not in vars(c)  # no multiset was built


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


def slab_count(z, families, x):
    """``tiling._coverage_counts`` at the one point x: (count, on_border)."""
    nums, den = int_row(x)
    got, border = tiling._coverage_counts(z, families, np.array([nums], dtype=object), den)
    return int(got[0]), bool(border[0])


# coordinates in [-3, 4] over 24, so that some points land on a facet of a translate
slab_coords = st.integers(-72, 96).map(lambda n: Fraction(n, 24))


@settings(max_examples=120, derandomize=True, deadline=None)
@given(st.sampled_from(sorted(SLAB_CONSTRUCTIONS)), slab_coords, slab_coords, slab_coords)
def test_slab_family_coverage_matches_brute_force(name, x0, x1, x2):
    c, x = SLAB_CONSTRUCTIONS[name], Vec3(x0, x1, x2)
    for offsets in (c.s_offsets, c.t_offsets):
        # the records slab_identity_check counts: each distinct offset u is u + G,
        # weighing its count on its side
        families = tuple(tiling.TranslateFamily(c.g, u, k) for u, k in Counter(offsets).items())
        want = brute_slab_count(c, x, offsets, reach=10)
        got, on_border = slab_count(c.zonotope, families, x)
        assert on_border == (want is None)
        if want is not None:
            assert got == want


def test_slab_identity_check_splits_the_boxes_of_a_wide_window(cube, monkeypatch):
    # a window 50 times the cube across G's plane: a round's union box spans
    # more lattice points than the cap, so the points are split until every
    # walk fits under it, and the reports match those of unsplit walks
    window = (Vec3(-25, -25, -1), Vec3(25, 25, 2))
    cases = [cube_construction(cube), moved_construction(cube_construction(cube))]
    real, cap, sizes = tiling.lattice_points_in_box, tiling._BOX_CAP, []

    def walk(lat, shift, lo, hi):
        sizes.append(box_count(lat, shift, lo, hi))
        return real(lat, shift, lo, hi)

    monkeypatch.setattr(tiling, "lattice_points_in_box", walk)
    reps = [slab_identity_check(c, window=window, samples=64, seed=6) for c in cases]
    assert reps[0].passed and not reps[1].passed and reps[1].mismatches
    assert sizes and max(sizes) <= cap
    sizes.clear()
    monkeypatch.setattr(tiling, "_BOX_CAP", 10**9)
    assert [slab_identity_check(c, window=window, samples=64, seed=6) for c in cases] == reps
    assert max(sizes) > cap


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


def far_window(c):
    """c's default slab window, shifted by (10^25 / 3, -10^25 / 7, 0): its
    samples and the differences the check forms from them take Python ints."""
    lo, hi = c.zonotope.bounding_box()
    shift, pad = Vec3(Fraction(10**25, 3), Fraction(-(10**25), 7), 0), Vec3(1, 1, 1)
    return (lo - pad + shift, hi + pad + shift)


def pinned_slab_cases():
    cube = Zonotope((E1, E2, E3))
    con = cube_construction(cube)
    skew = build_construction(Zonotope((Vec3(1, 1, 0), Vec3(1, -1, 0), E3, Vec3(1, 0, 1))))
    wide = (Vec3(-2, Fraction(-1, 3), 0), Vec3(3, 2, Fraction(5, 7)))
    broken = moved_construction(con)
    return {
        "cube": (con, None, 3, 200),
        "singleton": (construction_from_indices(cube, [2]), None, 4, 100),
        "skew": (skew, None, 2, 64),
        "window": (con, wide, 9, 64),
        "broken": (broken, None, 5, 64),
        "far_cube": (con, far_window(con), 3, 200),
        "far_skew": (skew, far_window(skew), 2, 64),
        "far_broken": (broken, far_window(broken), 5, 64),
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
    "far_broken": (False, 18, "5c34cd58f44f8114442ad6d82e8dc80a8a4f054d4dfa6977c55252f7282ae909"),
}


@pytest.mark.parametrize("name", sorted(PINNED_SLAB_REPORTS))
def test_slab_identity_reports_are_pinned(name):
    c, window, seed, samples = pinned_slab_cases()[name]
    rep = slab_identity_check(c, window=window, samples=samples, seed=seed)
    passed, mismatches, digest = PINNED_SLAB_REPORTS[name]
    assert (rep.passed, len(rep.mismatches)) == (passed, mismatches)
    assert hashlib.sha256(repr(rep).encode()).hexdigest() == digest


def test_slab_check_tests_pairs_without_scalar_membership(monkeypatch):
    # _coverage_counts hands its closed-body pairs to interior_mask as one
    # integer array per batch, never one point at a time through contains
    real, calls = Zonotope.interior_mask, []

    def contains(self, x):
        raise AssertionError("Zonotope.contains called in the slab check")

    def interior_mask(self, points, den=None):
        calls.append(den)
        return real(self, points, den)

    monkeypatch.setattr(Zonotope, "contains", contains)
    monkeypatch.setattr(Zonotope, "interior_mask", interior_mask)
    c, window, seed, samples = pinned_slab_cases()["cube"]
    rep = slab_identity_check(c, window=window, samples=samples, seed=seed)
    assert hashlib.sha256(repr(rep).encode()).hexdigest() == PINNED_SLAB_REPORTS["cube"][2]
    assert calls and None not in calls


def repeated_offsets_construction():
    """Generators (1, k, 0) for k < 6 in one plane, plus e3 across it: 32
    subset sums per side, of which 20 (S) and 22 (T) are distinct."""
    body = Zonotope(tuple(Vec3(1, k, 0) for k in range(6)) + (E3,))
    return construction_from_indices(body, range(6))


def pinned_repeated_cases():
    c = repeated_offsets_construction()
    # T offset 6 occurs twice; one occurrence moves across G's plane
    assert c.t_offsets.count(c.t_offsets[6]) == 2
    moved = (*c.t_offsets[:6], c.t_offsets[6] + Vec3(0, 0, Fraction(1, 4)), *c.t_offsets[7:])
    return {"repeated": c, "moved": dataclasses.replace(c, t_offsets=moved)}


# sha256 of repr(slab_identity_check(c, samples=64, seed=6)) per case, from the
# check that counted each occurrence of an offset as its own family
PINNED_REPEATED_SLAB = {
    "repeated": (True, 0, "ef7993c119e79a308aaf2853db49082c53dc9e2771008622dda0f60a51023eec"),
    "moved": (False, 12, "550d6ad2e09ee1ba4b8bbb10927d1336a1c0f219cd682b6aa3cb99b578796c8b"),
}


@pytest.mark.parametrize("name", sorted(PINNED_REPEATED_SLAB))
def test_slab_identity_reports_on_repeated_offsets_are_pinned(name, monkeypatch):
    # one family per distinct offset per side, weighing its count there
    real, seen = weird._coverage_counts, []

    def counts(z, families, nums, den):
        seen.append(sorted(f.weight for f in families))
        return real(z, families, nums, den)

    monkeypatch.setattr(weird, "_coverage_counts", counts)
    c = pinned_repeated_cases()[name]
    rep = slab_identity_check(c, samples=64, seed=6)
    passed, mismatches, digest = PINNED_REPEATED_SLAB[name]
    assert (rep.passed, len(rep.mismatches)) == (passed, mismatches)
    assert hashlib.sha256(repr(rep).encode()).hexdigest() == digest
    sides = [sorted(Counter(c.s_offsets).values()), sorted(Counter(c.t_offsets).values())]
    assert seen == sides * (len(seen) // 2) and [sum(w) for w in sides] == [32, 32]
    assert [len(w) for w in sides] == ([20, 22] if name == "repeated" else [20, 23])


# sha256 of repr([(counts.tolist(), border.tolist()), ...]) over the calls of
# weird._coverage_counts, in call order, per pinned slab case: a passing
# report's digest pins only passed, samples and seed, these pin every count.
# The cube constructions' counts depend on z alone, which the far window does
# not shift, so their far cases pin the digests of the near ones
PINNED_SLAB_COUNTS = {
    "cube": "a9feb666b69d086b6596b50c2cd29b5cdbc978fe4435e69c6045d196864489da",
    "singleton": "c919f932f71218ade255801dadac5a740dcd45ee71a84f193ce421b126881d67",
    "skew": "34012a30fb468a48c0f3876345a4bedcab3b98269f484fdd14a9809f57ba3918",
    "window": "ded499a3fcccae91b003d7f440dcf7d03e7e81ac4a90fa7169e33053c6a44b07",
    "broken": "ef8715861ed5717c4707322ecce0b4eb9e5e6f65e0ef626219e91212b4469b3c",
    "repeated": "29a3551b7d20396f924cd80ad5db07af2bbba406a75c07fc7d851a3df0e3363f",
    "moved": "0253e0ae3ff55658f0ed57833572a25749df64473937300f02923e102938b61e",
    "far_cube": "a9feb666b69d086b6596b50c2cd29b5cdbc978fe4435e69c6045d196864489da",
    "far_skew": "5ec5ee0456a5bd89899fa13ba8f184735ca65a3f41dde92bf1680f08a99efb72",
    "far_broken": "ef8715861ed5717c4707322ecce0b4eb9e5e6f65e0ef626219e91212b4469b3c",
}


@pytest.mark.parametrize("name", sorted(PINNED_SLAB_COUNTS))
def test_slab_identity_counts_are_pinned(name, monkeypatch):
    real, seen = weird._coverage_counts, []

    def counts(z, families, nums, den):
        got, border = real(z, families, nums, den)
        seen.append((got.tolist(), border.tolist()))
        return got, border

    monkeypatch.setattr(weird, "_coverage_counts", counts)
    if name in PINNED_REPEATED_SLAB:
        slab_identity_check(pinned_repeated_cases()[name], samples=64, seed=6)
    else:
        c, window, seed, samples = pinned_slab_cases()[name]
        slab_identity_check(c, window=window, samples=samples, seed=seed)
    # one call per side in the one round: no case draws a boundary sample
    assert len(seen) == 2
    assert hashlib.sha256(repr(seen).encode()).hexdigest() == PINNED_SLAB_COUNTS[name]


REPEATED = repeated_offsets_construction()
# coordinates over 24 across the body's bounding box [0, 6] x [0, 15] x [0, 1], and past it
repeated_coords = st.tuples(*(st.integers(-24, 24 * m + 24) for m in (6, 15, 1)))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(repeated_coords)
def test_weighted_offset_families_count_as_one_family_per_occurrence(nums):
    # a weight-k record for an offset repeated k times gives the count, and the
    # boundary hit, of its k weight-1 records
    x, z = Vec3(*(Fraction(n, 24) for n in nums)), REPEATED.zonotope
    g = REPEATED.g
    for offsets in (REPEATED.s_offsets, REPEATED.t_offsets):
        weighted = tuple(tiling.TranslateFamily(g, u, k) for u, k in Counter(offsets).items())
        single = tuple(tiling.TranslateFamily(g, u, 1) for u in offsets)
        want, on_border = slab_count(z, single, x)
        got, weighted_border = slab_count(z, weighted, x)
        assert weighted_border == on_border
        if not on_border:
            assert got == want


# sha256 of repr(irregularity_certificate(c, ap_coloring(200), -50, 50)) on the
# cube and on g = span(2 e1, e2) inside Z^3, whose line of cosets has torsion
# 2; both certify the same coloring, so the reports agree
PINNED_CERTIFICATE = "e4180fe53238388b4836a5e78998bcedccf1fa5f78ca903d890282f27b7b6b1e"


def torsion_construction():
    body = Zonotope((E1 * 2, E2, E3, E1))
    return construction_from_indices(body, [0, 1], coefficients=(Fraction(1, 3), HALF))


@pytest.mark.parametrize("name", ["cube", "torsion"])
def test_irregularity_certificates_are_pinned(cube, name):
    c = cube_construction(cube) if name == "cube" else torsion_construction()
    assert c.cosets.torsion_order == (1 if name == "cube" else 2)
    rep = irregularity_certificate(c, ap_coloring(200), -50, 50)
    assert hashlib.sha256(repr(rep).encode()).hexdigest() == PINNED_CERTIFICATE


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
