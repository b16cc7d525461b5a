"""JSON schemas, OFF export, and the command line."""
import dataclasses
import functools
import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from zonotile import cli, tiling, weird
from zonotile import io as zio
from zonotile.cli import main
from zonotile.io import (
    coverage_report_to_json,
    decimal_str,
    dumps,
    export_off,
    lattice_from_json,
    lattice_to_json,
    translate_set_from_json,
    translate_set_to_json,
    vec_from_json,
    vec_to_json,
    zonotope_from_json,
    zonotope_to_json,
)
from zonotile.lattices import Lattice, lattice_from_vectors
from zonotile.linalg import Vec3, int_row, rank_of
from zonotile.structure import TwoFlatVerdict
from zonotile.tiling import LatticeComponent, LatticeUnion, verify_level
from zonotile.weird import build_weird, construction_from_indices
from zonotile.zonotope import Zonotope

from conftest import E1, E2, E3, ZERO, count_at

HALF = Fraction(1, 2)

CUBE_JSON = '{"generators": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}'


def test_zonotope_json_round_trip_is_byte_identical():
    z = Zonotope((E1, Vec3(0, HALF, 0), Vec3(Fraction(1, 3), 0, 2)), Vec3(HALF, 0, 0))
    text = dumps(zonotope_to_json(z))
    again = dumps(zonotope_to_json(zonotope_from_json(json.loads(text))))
    assert again == text


def test_translate_set_round_trips_both_variants(cube):
    union = LatticeUnion(
        (
            LatticeComponent(lattice_from_vectors([E1, E2, E3]), Vec3(HALF, 0, 0), 2),
            LatticeComponent(lattice_from_vectors([E1 * 2, E2, E3]), ZERO),
        )
    )
    slab = build_weird(
        construction_from_indices(cube, [0, 1], coefficients=(HALF, HALF)),
        {0: "T", -2: "T"},
    )
    for lam in (union, slab):
        text = dumps(translate_set_to_json(lam))
        back = translate_set_from_json(json.loads(text))
        assert dumps(translate_set_to_json(back)) == text
    back = translate_set_from_json(json.loads(dumps(translate_set_to_json(slab))))
    assert back.choice == slab.choice and back.expected_level == slab.expected_level


# -- JSON round trips as properties --------------------------------------------

_rden = st.sampled_from([1, 2, 3, 7, 2**40])
_rrat = st.builds(Fraction, st.integers(-40, 40) | st.integers(-(10**25), 10**25), _rden)
_rvec = st.builds(Vec3, _rrat, _rrat, _rrat)
_small_rvec = st.builds(Vec3, *[st.builds(Fraction, st.integers(-3, 3), _rden)] * 3)
_generator = _small_rvec.filter(lambda v: not v.is_zero())


def _independent(n: int, vec=_small_rvec):
    return st.lists(vec, min_size=n, max_size=n).filter(lambda b: rank_of(b) == n)


def _via_text(obj):
    """obj after dumps and json.loads, as a file would give it back."""
    return json.loads(dumps(obj))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(gens=st.lists(_generator, min_size=3, max_size=5), translate=_rvec)
def test_zonotope_json_round_trip_property(gens, translate):
    if rank_of(gens) < 3:
        gens = [*gens, E1, E2 * Fraction(1, 3), E3 * 7][-5:]
    z = Zonotope(tuple(gens), translate)
    back = zonotope_from_json(_via_text(zonotope_to_json(z)))
    assert back.generators == z.generators and back.translate == z.translate
    assert dumps(zonotope_to_json(back)) == dumps(zonotope_to_json(z))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(basis=st.integers(1, 3).flatmap(lambda n: _independent(n, _rvec)))
def test_lattice_json_round_trip_property(basis):
    lat = Lattice(basis)
    back = lattice_from_json(_via_text(lattice_to_json(lat)))
    assert back == lat and back.rank == lat.rank


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    comps=st.lists(
        st.tuples(_independent(3), _rvec, st.integers(1, 5)), min_size=1, max_size=3
    )
)
def test_lattice_union_json_round_trip_property(comps):
    lam = LatticeUnion(tuple(LatticeComponent(Lattice(b), o, w) for b, o, w in comps))
    text = dumps(translate_set_to_json(lam))
    back = translate_set_from_json(json.loads(text))
    assert back == lam and dumps(translate_set_to_json(back)) == text


@functools.cache
def _construction(coefficients):
    return construction_from_indices(Zonotope((E1, E2, E3)), [0, 1], coefficients=coefficients)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    coefficients=st.sampled_from([(HALF, HALF), (HALF, Fraction(2, 5))]),
    choice=st.dictionaries(st.integers(-12, 12), st.sampled_from("ST"), max_size=6),
)
def test_slab_choice_json_round_trip_property(coefficients, choice):
    lam = build_weird(_construction(coefficients), choice)
    text = dumps(translate_set_to_json(lam))
    back = translate_set_from_json(json.loads(text))
    assert dumps(translate_set_to_json(back)) == text
    assert (back.gamma, back.sub, back.s_offsets, back.t_offsets) == (
        lam.gamma, lam.sub, lam.s_offsets, lam.t_offsets
    )
    assert back.choice == lam.choice and back.expected_level == lam.expected_level


@settings(derandomize=True, max_examples=25, deadline=None)
@given(
    offset=_small_rvec,
    broken=st.booleans(),
    corner=_rvec,
    size=st.builds(Fraction, st.integers(1, 12), st.sampled_from([1, 3, 7])),
    seed=st.integers(0, 2**31 - 1),
)
def test_coverage_report_dumps_is_stable(offset, broken, corner, size, seed):
    # a Z^3 tiling, or one with a 2Z x Z x Z copy on top, which breaks the level
    cube = Zonotope((E1, E2, E3))
    comps = [LatticeComponent(lattice_from_vectors([E1, E2, E3]), offset)]
    if broken:
        comps.append(LatticeComponent(lattice_from_vectors([E1 * 2, E2, E3]), ZERO))
    lam = LatticeUnion(tuple(comps))
    window = (corner, corner + Vec3(size, size, size))
    text = dumps(coverage_report_to_json(verify_level(cube, lam, window, samples=60, seed=seed)))
    rep = verify_level(cube, lam, window, samples=60, seed=seed)
    assert dumps(coverage_report_to_json(rep)) == text
    back = (
        zonotope_from_json(_via_text(zonotope_to_json(cube))),
        translate_set_from_json(_via_text(translate_set_to_json(lam))),
        tuple(vec_from_json(_via_text(vec_to_json(v))) for v in window),
    )
    again = verify_level(*back, samples=60, seed=seed)
    assert dumps(coverage_report_to_json(again)) == text


def test_json_rejects_inexact_numbers():
    with pytest.raises((TypeError, ValueError)):
        zonotope_from_json({"generators": [[0.5, 0, 0], [0, 1, 0], [0, 0, 1]]})
    with pytest.raises((TypeError, ValueError)):
        zonotope_from_json({"generators": [[True, 0, 0], [0, 1, 0], [0, 0, 1]]})
    with pytest.raises(ValueError, match="malformed rational"):
        zonotope_from_json({"generators": [["x/y", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]})


def test_decimal_str_half_away_from_zero():
    assert decimal_str(Fraction(1, 2), 0) == "1"
    assert decimal_str(Fraction(-1, 2), 0) == "-1"
    assert decimal_str(Fraction(1, 3), 3) == "0.333"
    assert decimal_str(Fraction(2, 3), 3) == "0.667"
    assert decimal_str(Fraction(5, 4), 1) == "1.3"
    assert decimal_str(Fraction(0), 2) == "0.00"


def off_counts(text: str) -> tuple[int, int, int]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    assert lines[0] == "OFF"
    nv, nf, ne = (int(t) for t in lines[1].split())
    return nv, nf, ne


def test_export_off_counts(cube, rd4):
    assert off_counts(export_off(cube)) == (8, 6, 12)
    assert off_counts(export_off(rd4)) == (14, 12, 24)


def test_export_off_faces_index_valid_vertices(rd4):
    lines = [ln for ln in export_off(rd4).splitlines() if ln.strip()]
    nv, nf, _ = off_counts(export_off(rd4))
    verts = lines[2 : 2 + nv]
    faces = lines[2 + nv : 2 + nv + nf]
    assert all(len(v.split()) == 3 for v in verts)
    for f in faces:
        parts = [int(t) for t in f.split()]
        assert parts[0] == len(parts) - 1
        assert all(0 <= i < nv for i in parts[1:])


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_cli_classify(tmp_path, capsys):
    z = write(tmp_path, "z.json", CUBE_JSON)
    assert main(["classify", z]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] == "TwoFlatRationalDiscrete"


def test_cli_verify_tiling_pass_and_fail(tmp_path, capsys):
    z = write(tmp_path, "z.json", CUBE_JSON)
    lam = write(
        tmp_path,
        "lam.json",
        json.dumps(
            {
                "kind": "lattice_union",
                "components": [
                    {
                        "basis": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                        "offset": ["0", "0", "0"],
                        "weight": 1,
                    }
                ],
            }
        ),
    )
    assert main(["verify-tiling", z, lam, "--samples", "60", "--seed", "1"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["level"] == 1 and rep["density"] == "1"

    sparse = write(
        tmp_path,
        "sparse.json",
        json.dumps(
            {
                "kind": "lattice_union",
                "components": [
                    {
                        "basis": [["2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                        "offset": ["0", "0", "0"],
                        "weight": 1,
                    }
                ],
            }
        ),
    )
    assert main(["verify-tiling", z, sparse, "--samples", "60", "--seed", "1"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["level"] is None and rep["violations"]


def test_cli_weird_gen_and_materialize(tmp_path, capsys):
    z = write(tmp_path, "z.json", CUBE_JSON)
    code = main(
        [
            "weird-gen", z,
            "--v-indices", "0 1",
            "--coefficients", "1/2 1/2",
            "--choice", "0=T",
            "--materialize",
            "--window", "-1 1 -1 1 -1 1",
        ]
    )
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["construction"]["n_value"] == 2 and rep["construction"]["base_level"] == 1
    pts = rep["points"]
    assert pts and all(len(p["point"]) == 3 and p["multiplicity"] >= 1 for p in pts)


def test_cli_materialize_refuses_huge_window(tmp_path, capsys, monkeypatch):
    z = write(tmp_path, "z.json", CUBE_JSON)
    argv = ["weird-gen", z, "--v-indices", "0 1", "--coefficients", "1/2 1/2", "--materialize"]
    huge = "--window=-1e6 1e6 -1e6 1e6 -1e6 1e6"
    assert main(argv + [huge]) == 2  # refused from the coordinate ranges alone
    assert "candidate translates" in capsys.readouterr().err
    # in [-1, 1]^3 the offsets 0, (1/2, 0, 0), (0, 1/2, 0) and (1/2, 1/2, 0)
    # of the cube's families over Z^3 have 27 + 18 + 18 + 12 candidates
    small = "--window=-1 1 -1 1 -1 1"
    monkeypatch.setattr(cli, "_MATERIALIZE_LIMIT", 74)
    assert main(argv + [small]) == 2
    capsys.readouterr()
    monkeypatch.setattr(cli, "_MATERIALIZE_LIMIT", 75)
    assert main(argv + [small]) == 0
    assert json.loads(capsys.readouterr().out)["points"]


def brute_force_materialize(lam, sides, shear, lo, hi):
    """(point, multiplicity) of every translate in [lo, hi], sorted, from Fractions.

    gamma is spanned by (a, 0, 0), (0, b, 0) and (s1, s2, c), a triangular
    basis, so the points of u + gamma in the window are found axis by axis,
    z first, and each is charged to the family its coset chose.
    """
    (a, b, c), (s1, s2) = sides, shear
    found: dict[Vec3, int] = {}
    for u in dict.fromkeys(lam.s_offsets + lam.t_offsets):
        for k3 in range(math.ceil((lo.z - u.z) / c), math.floor((hi.z - u.z) / c) + 1):
            x0, y0 = u.x + k3 * s1, u.y + k3 * s2
            for k2 in range(math.ceil((lo.y - y0) / b), math.floor((hi.y - y0) / b) + 1):
                for k1 in range(math.ceil((lo.x - x0) / a), math.floor((hi.x - x0) / a) + 1):
                    p = Vec3(x0 + k1 * a, y0 + k2 * b, u.z + k3 * c)
                    m = lam.offsets_for(lam.cosets.index_of(p - u)).count(u)
                    found[p] = found.get(p, 0) + m
    return sorted((p, m) for p, m in found.items() if m)


_side = st.sampled_from([HALF, Fraction(2, 3), Fraction(1), Fraction(3, 2)])
_end = st.sampled_from([Fraction(-3, 2), Fraction(-1), Fraction(-2, 3), Fraction(0), Fraction(1, 4)])
_width = st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(7, 3), Fraction(2)])


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    sides=st.lists(_side, min_size=3, max_size=3),
    shear=st.lists(st.sampled_from([Fraction(0), HALF, Fraction(-1, 3)]), min_size=2, max_size=2),
    coefficients=st.lists(
        st.sampled_from([HALF, Fraction(1, 3), Fraction(2, 5), Fraction(1, 7)]),
        min_size=2,
        max_size=2,
    ),
    choice=st.dictionaries(st.integers(-4, 4), st.sampled_from("ST"), max_size=5),
    window=st.lists(st.tuples(_end, _width), min_size=3, max_size=3),
)
def test_cli_materialize_matches_brute_force(
    tmp_path_factory, sides, shear, coefficients, choice, window
):
    # a sheared box over mixed denominators: its lattice coordinate box holds
    # points outside the window, and the common denominator mixes every input
    a, b, c = sides
    body = {"generators": [[str(a), "0", "0"], ["0", str(b), "0"],
                           [str(shear[0]), str(shear[1]), str(c)]]}
    tmp = tmp_path_factory.mktemp("mat")
    z = write(tmp, "z.json", json.dumps(body))
    argv = [
        "weird-gen", z, "--out", str(tmp / "out.json"), "--v-indices", "0 1",
        "--coefficients", " ".join(map(str, coefficients)),
        "--materialize",
        "--window=" + " ".join(f"{lo} {lo + w}" for lo, w in window),
    ]
    if choice:
        argv.append("--choice=" + ",".join(f"{j}={f}" for j, f in choice.items()))
    assert main(argv) == 0
    rep = json.loads((tmp / "out.json").read_text())
    lam = translate_set_from_json(rep["translate_set"])
    lo = Vec3(*(lo for lo, _ in window))
    hi = Vec3(*(lo + w for lo, w in window))
    got = [(vec_from_json(e["point"]), e["multiplicity"]) for e in rep["points"]]
    assert got == brute_force_materialize(lam, sides, shear, lo, hi)


@pytest.mark.parametrize(
    "k", [(1, 0, 0), (0, -2, 0), (0, 0, 1), (1, 1, -1)], ids=["e1", "e2", "g3", "mixed"]
)
def test_materialize_sums_families_that_share_points(k):
    # the first T offset is moved to the first S offset plus the gamma vector
    # k1 a e1 + k2 b e2 + k3 (s1, s2, c), so the two families share every
    # point of that class. A shared point lies in one coset for both when
    # k3 = 0, so at most one family counts there; an odd k3 puts it in
    # neighbouring cosets, whose alternating choices differ, so in every
    # other coset both count and the point occurs twice
    sides, shear = (HALF, Fraction(2, 3), Fraction(3, 2)), (HALF, Fraction(-1, 3))
    (a, b, c), (s1, s2) = sides, shear
    z = Zonotope((Vec3(a, 0, 0), Vec3(0, b, 0), Vec3(s1, s2, c)))
    con = construction_from_indices(z, [0, 1], (HALF, Fraction(1, 3)))
    lam = build_weird(con, {j: "ST"[j % 2] for j in range(-6, 7)})
    (k1, k2, k3), u = k, lam.s_offsets[0]
    v = u + Vec3(k1 * a + k3 * s1, k2 * b + k3 * s2, k3 * c)
    lam = dataclasses.replace(lam, t_offsets=(v, lam.t_offsets[1]))
    lo, hi = Vec3(-2, -2, -2), Vec3(2, 2, 2)
    got = cli._materialize(lam, lo, hi)
    assert got == brute_force_materialize(lam, sides, shear, lo, hi)
    fam = {f.shift: f for f in tiling.translate_families(lam)}
    shared = [(p, m) for p, m in got if lam.gamma.contains(p - u)]
    both = [m for p, m in shared if all(count_at(fam[w], *int_row(p)) for w in (u, v))]
    assert shared and all(m == 2 for m in both)
    assert bool(both) == (k3 % 2 == 1)


def test_cli_verify_tiling_refuses_huge_offset_box(tmp_path, capsys, monkeypatch):
    # the cube of side 3 spans 4^3 = 64 offsets of Z^3, one above the bound
    monkeypatch.setattr(tiling, "_KERNEL_LIMIT", 63)
    z = write(tmp_path, "z.json", CUBE_JSON.replace('"1"', '"3"'))
    lam = write(tmp_path, "lam.json", json.dumps(translate_set_to_json(
        LatticeUnion((LatticeComponent(lattice_from_vectors([E1, E2, E3]), ZERO),)))))
    assert_input_error(capsys, ["verify-tiling", z, lam, "--samples", "10"])
    monkeypatch.setattr(tiling, "_KERNEL_LIMIT", 64)
    assert main(["verify-tiling", z, lam, "--samples", "10"]) == 0
    assert json.loads(capsys.readouterr().out)["level"] == 27


def test_cli_round_trip_weird_translates_into_verify(tmp_path, capsys):
    z = write(tmp_path, "z.json", CUBE_JSON)
    assert main(["weird-gen", z, "--v-indices", "0 1", "--coefficients", "1/2 1/2"]) == 0
    rep = json.loads(capsys.readouterr().out)
    lam = write(tmp_path, "lam.json", json.dumps(rep["translate_set"]))
    assert main(["verify-tiling", z, lam, "--samples", "80", "--window", "-5 5 -5 5 -5 5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["level"] == 2


# sha256 of weird-gen --materialize output: the body, the options after it,
# and the digest. "body" (a torsion-free line of cosets) and "torsion"
# (g = span(2 e1, e2) inside Z^3, two torsion cosets per line) use the
# window of the hash-seed comparison. The four "box" cases are the
# benchmark's box shapes, each with a sign-symmetric choice map
# (choice[j] == choice[-j]) and a window of half-width 2 shifted off the
# origin; "repeated" is the hash-seed comparison's body with generators
# (1, k, 0) for k < 6 and e3, whose sides repeat offsets
_HASH_SEED_WINDOW = "-2 3/2 -1 2 -3/2 7/3"
_STEP_CHOICE = "0=T,2=T,-1=T"


def _box_body(a1, a2, a3):
    gens = [[str(a1), "0", "0"], ["0", str(a2), "0"], ["0", "0", str(a3)]]
    return json.dumps({"generators": gens})


def _box_options(coefficients, choice, window):
    # "--choice=" keeps a map that starts with a negative index an argument
    return ("--v-indices", "0 1", "--coefficients", coefficients, f"--choice={choice}",
            "--materialize", "--window", window)


PINNED_WEIRD_GEN = {
    "body": (
        '{"generators": [["1", "0", "0"], ["0", "1/2", "0"], ["1/3", "0", "3/2"]]}',
        _box_options("1/2 2/5", _STEP_CHOICE, _HASH_SEED_WINDOW),
        "e18d4f3e1bfb8acc266654f7d87ffba7e14e991c19fef3213606e289abad8e1c",
    ),
    "torsion": (
        '{"generators": [["2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"], ["1", "0", "0"]]}',
        _box_options("1/3 1/2", _STEP_CHOICE, _HASH_SEED_WINDOW),
        "af2f6687dee7c9dd04f8f80e82bd4346277bcd24e2b8b13b08b90dffe66ccddc",
    ),
    "box-211": (
        _box_body(2, 1, 1),
        _box_options("1/3 1/5", "-6=T,-4=S,-3=T,-1=T,1=T,3=T,4=S,6=T",
                     "-11/4 5/4 -3/2 5/2 -7/4 9/4"),
        "532002021122d4d04ce3b04b9defec1443a1fd0be8a75662d455674cd0d30328",
    ),
    "box-111": (
        _box_body(1, 1, 1),
        _box_options("1/2 1/4", "-7=S,-5=T,-2=T,0=S,2=T,5=T,7=S",
                     "-5/4 11/4 -9/4 7/4 -2 2"),
        "5d443817bbc4d8022fa3e708e16554d508c7f50e36aa4bca48463af01c369ea7",
    ),
    "box-121": (
        _box_body(1, 2, 1),
        _box_options("1/5 1/3", "-6=T,-3=T,-1=S,0=T,1=S,3=T,6=T",
                     "-7/4 9/4 -5/2 3/2 -5/4 11/4"),
        "eb9b6df1e77169e9999b55b1489c8297c1aa1aced553ff803e44a304af632611",
    ),
    "box-112": (
        _box_body(1, 1, 2),
        _box_options("1/4 1/2", "-5=T,-4=T,-2=S,-1=T,1=T,2=S,4=T,5=T",
                     "-2 2 -11/4 5/4 -9/4 7/4"),
        "b33e1f82a7eff845519b04ceb0b6b7d2d7f20fa76ba9aa5cd76ec73531a15e80",
    ),
    "repeated": (
        json.dumps({"generators": [["1", str(k), "0"] for k in range(6)] + [["0", "0", "1"]]}),
        ("--v-indices", "0 1 2 3 4 5", "--choice", _STEP_CHOICE,
         "--materialize", "--window", _HASH_SEED_WINDOW),
        "c9f91d868d056b6b5c3480dd10c5535e21ed9ce4996e58862d6467166d9958f9",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_WEIRD_GEN))
def test_weird_gen_materialize_output_is_pinned(tmp_path, name):
    body, options, digest = PINNED_WEIRD_GEN[name]
    z, out = write(tmp_path, "z.json", body), tmp_path / "out.json"
    assert main(["weird-gen", z, *options, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_cli_verify_tiling_exits_1_off_the_expected_level(tmp_path, capsys):
    # the cube's slab choice covers at level 2, and a report that reads 2
    # against an expected 3 fails
    z = write(tmp_path, "z.json", CUBE_JSON)
    lam = write(tmp_path, "lam.json", json.dumps(_slab_json(expected_level=3)))
    assert main(["verify-tiling", z, lam, "--samples", "40", "--window", "-3 3 -3 3 -3 3"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["level"] == 2 and not out["violations"]


@settings(derandomize=True, max_examples=20, deadline=None)
@given(
    torsion=st.booleans(),
    choice=st.dictionaries(st.integers(-6, 6), st.sampled_from("ST"), max_size=5),
)
def test_slab_choice_keeps_its_multiset_through_json(torsion, choice):
    con = _construction((HALF, Fraction(2, 5)))
    if torsion:
        # g = span(2 e1, e2) inside Z^3 has two torsion cosets per line
        body = Zonotope((E1 * 2, E2, E3, E1))
        con = construction_from_indices(body, [0, 1], coefficients=(Fraction(1, 3), HALF))
        assert con.cosets.torsion_order == 2
    lam = build_weird(con, choice)
    back = translate_set_from_json(_via_text(translate_set_to_json(lam)))
    lo, hi = Vec3(-3, -3, -2), Vec3(3, 3, 2)
    assert cli._materialize(back, lo, hi) == cli._materialize(lam, lo, hi)


def test_cli_fourier_eval(tmp_path, capsys):
    z = write(tmp_path, "z.json", CUBE_JSON)
    pts = write(tmp_path, "pts.json", json.dumps([["0", "0", "0"], ["1/2", "1/3", "1/5"]]))
    assert main(["fourier-eval", z, pts]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert len(rep["points"]) == 2
    first = rep["points"][0]["frames"]
    assert all(f["in_zero_set"] and f["abs"] <= 1e-9 for f in first)


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_cli_fourier_eval_refuses_bad_tolerance(tmp_path, capsys, tol):
    # nan would report "near_zero": false at abs 0.0, and inf would call
    # every value near zero
    z = write(tmp_path, "z.json", CUBE_JSON)
    pts = write(tmp_path, "pts.json", json.dumps([["0", "0", "0"]]))
    assert main(["fourier-eval", z, pts, "--tol", tol]) == 2
    assert "tolerance must be positive and finite" in capsys.readouterr().err
    assert main(["fourier-eval", z, pts, "--tol", "1e-300"]) == 0


def test_cli_export_mesh(tmp_path, capsys):
    z = write(tmp_path, "z.json", CUBE_JSON)
    out = str(tmp_path / "cube.off")
    assert main(["export-mesh", z, "--precision", "3", "--out", out]) == 0
    assert off_counts(open(out).read()) == (8, 6, 12)


def test_cli_export_mesh_bounds_precision(tmp_path, capsys, monkeypatch):
    # a body with vertex coordinates in thirds prints every decimal place it
    # is asked for: the bound is the most Python prints by default
    body = {"generators": [["1/3", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}
    z = write(tmp_path, "z.json", json.dumps(body))
    bound = zio._PRECISION_LIMIT
    assert main(["export-mesh", z, "--precision", str(bound)]) == 0
    assert "0." + "3" * bound in capsys.readouterr().out
    with pytest.raises(ValueError, match="precision"):
        export_off(zonotope_from_json(body), bound + 1)
    # refused before the body is read
    monkeypatch.setattr(zio, "zonotope_from_json", lambda doc: pytest.fail("body read"))
    for precision in (bound + 1, -1):
        assert_input_error(capsys, ["export-mesh", z, "--precision", str(precision)])
    assert main(["export-mesh", z, "--precision", str(bound + 1)]) == 2
    assert f"precision must be between 0 and {bound}" in capsys.readouterr().err


def test_cli_weird_gen_refuses_too_many_subset_sums(tmp_path, capsys):
    # one in-plane generator past the subset-sum bound, plus one across the plane
    n = weird._SUBSET_LIMIT.bit_length()
    gens = [[str(1 + i), str(i * i % 7), "0"] for i in range(n)] + [["0", "0", "1"]]
    z = write(tmp_path, "z.json", json.dumps({"generators": gens}))
    assert_input_error(capsys, ["weird-gen", z])
    assert_input_error(capsys, ["weird-gen", z, "--v-indices", " ".join(map(str, range(n)))])
    assert main(["weird-gen", z, "--v-indices", " ".join(map(str, range(n)))]) == 2
    assert f"{1 << n} subset sums, more than {weird._SUBSET_LIMIT}" in capsys.readouterr().err


def test_cli_pave_and_frames(tmp_path, capsys):
    z = write(tmp_path, "z.json", CUBE_JSON)
    assert main(["pave", z]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["total_volume"] == "1" and len(rep["cells"]) == 1
    assert main(["frames", z]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert len(rep["frames"]) == 6


def test_cli_check_intersection(tmp_path, capsys):
    z = write(tmp_path, "z.json", CUBE_JSON)
    assert main(["check-intersection", z]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["holds"] is False and rep["witness"]


def test_cli_reused_parser_matches_fresh_processes(tmp_path, capsys):
    # one process runs every command through the one cached parser; each
    # command also runs in its own interpreter, which builds a parser afresh
    z = write(tmp_path, "z.json", CUBE_JSON)
    runs = [
        [
            "weird-gen", z, "--v-indices", "0 1", "--coefficients", "1/2 1/2",
            "--choice", "0=T", "--materialize", "--window", "-1 1 -1 1 -1 1",
        ],
        ["classify", z],
        ["weird-gen", z, "--materialize", "--no-such-option"],
        ["weird-gen", z],
    ]
    root = Path(__file__).resolve().parents[1]
    path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    codes = []
    for i, argv in enumerate(runs):
        here, fresh = tmp_path / f"here{i}.json", tmp_path / f"fresh{i}.json"
        try:
            code = main([*argv, "--out", str(here)])
        except SystemExit as exc:
            code = exc.code
        codes.append(code)
        err = capsys.readouterr().err
        proc = subprocess.run(
            [sys.executable, "-m", "zonotile", *argv, "--out", str(fresh)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (code, err) == (proc.returncode, proc.stderr)
        assert here.exists() == fresh.exists() == (code == 0)
        if code == 0:
            assert here.read_bytes() == fresh.read_bytes()
    assert codes == [0, 0, 2, 0]
    assert [json.loads((tmp_path / f"here{i}.json").read_text()).keys() for i in (0, 3)] == [
        {"construction", "translate_set", "points"},
        {"construction", "translate_set"},
    ]


def test_cli_input_errors_exit_2(tmp_path, capsys):
    bad = write(tmp_path, "bad.json", "{not json")
    assert main(["classify", bad]) == 2
    assert "error:" in capsys.readouterr().err
    z = write(tmp_path, "z.json", CUBE_JSON)
    lam = write(tmp_path, "lam.json", json.dumps({"kind": "nonsense"}))
    assert main(["verify-tiling", z, lam]) == 2
    assert main(["verify-tiling", z, lam, "--window", "1 -1 0 1 0 1"]) == 2
    assert main(["classify", str(tmp_path / "missing.json")]) == 2


def test_cli_theorem_contradiction_exits_2(tmp_path, capsys, monkeypatch):
    # the cube fails the intersection property; a decider that denies its
    # two-flat split contradicts the structure theorem inside classify
    monkeypatch.setattr("zonotile.structure.two_flat", lambda z: TwoFlatVerdict(False))
    z = write(tmp_path, "z.json", CUBE_JSON)
    assert main(["classify", z]) == 2
    captured = capsys.readouterr()
    assert "theorem contradiction" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_cli_output_is_canonical_json(tmp_path, capsys):
    z = write(tmp_path, "z.json", CUBE_JSON)
    assert main(["classify", z]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n")
    obj = json.loads(out)
    assert json.dumps(obj, indent=2, ensure_ascii=False) + "\n" == out


def assert_input_error(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    return err


def test_cli_generators_not_an_array_exits_2(tmp_path, capsys):
    bad = write(tmp_path, "z.json", '{"generators": 5}')
    assert_input_error(capsys, ["classify", bad])


@pytest.mark.parametrize(
    "component",
    ["1", '{"basis": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], "weight": [1]}'],
    ids=["not-an-object", "weight-not-an-integer"],
)
def test_cli_malformed_component_exits_2(tmp_path, capsys, component):
    z = write(tmp_path, "z.json", CUBE_JSON)
    text = f'{{"kind": "lattice_union", "components": [{component}]}}'
    assert_input_error(capsys, ["verify-tiling", z, write(tmp_path, "lam.json", text)])


@pytest.mark.parametrize("flag", [True, False])
def test_cli_boolean_weight_exits_2(tmp_path, capsys, flag):
    # JSON true and false are not integers, although Python's bool is an int
    z = write(tmp_path, "z.json", CUBE_JSON)
    obj = translate_set_to_json(
        LatticeUnion((LatticeComponent(lattice_from_vectors([E1, E2, E3]), ZERO),))
    )
    obj["components"][0]["weight"] = flag
    lam = write(tmp_path, "lam.json", json.dumps(obj))
    assert f"not an integer: {flag}" in assert_input_error(capsys, ["verify-tiling", z, lam])


@pytest.mark.parametrize("flag", [True, False])
def test_cli_boolean_expected_level_exits_2(tmp_path, capsys, cube, flag):
    z = write(tmp_path, "z.json", CUBE_JSON)
    con = construction_from_indices(cube, [0, 1], coefficients=(HALF, HALF))
    obj = translate_set_to_json(build_weird(con))
    obj["expected_level"] = flag
    lam = write(tmp_path, "lam.json", json.dumps(obj))
    assert f"not an integer: {flag}" in assert_input_error(capsys, ["verify-tiling", z, lam])


def test_cli_slab_choice_not_an_object_exits_2(tmp_path, capsys, cube):
    z = write(tmp_path, "z.json", CUBE_JSON)
    con = construction_from_indices(cube, [0, 1], coefficients=(HALF, HALF))
    obj = translate_set_to_json(build_weird(con))
    obj["choice"] = [1]
    lam = write(tmp_path, "lam.json", json.dumps(obj))
    assert_input_error(capsys, ["verify-tiling", z, lam])


def test_cli_huge_decimal_exponent_exits_2(tmp_path, capsys):
    huge = CUBE_JSON.replace('"1"', '"1e5000"', 1)
    assert_input_error(capsys, ["classify", write(tmp_path, "huge.json", huge)])
    z = write(tmp_path, "z.json", CUBE_JSON)
    union = LatticeUnion((LatticeComponent(lattice_from_vectors([E1, E2, E3]), ZERO),))
    lam = write(tmp_path, "lam.json", dumps(translate_set_to_json(union)))
    assert_input_error(capsys, ["verify-tiling", z, lam, "--window", "0 1e5000 0 1 0 1"])


# spellings Fraction reads on some Pythons only ("1_0", "1e1_000" from 3.11,
# " 1 / 2 " from 3.12) or on all (" 3 ", an Arabic-Indic digit); the one
# ASCII grammar refuses each on every version
OFF_GRAMMAR = ["1_0", "1e1_000", " 1 / 2 ", " 3 ", "\u0663"]


@pytest.mark.parametrize("text", OFF_GRAMMAR)
def test_cli_rational_outside_the_grammar_exits_2(tmp_path, capsys, text):
    z = write(tmp_path, "z.json", CUBE_JSON)
    lam = write(tmp_path, "lam.json", Z3_UNION_JSON)
    body = json.loads(CUBE_JSON)
    body["generators"][0][0] = text
    union = json.loads(Z3_UNION_JSON)
    union["components"][0]["offset"][1] = text
    runs = [
        [write(tmp_path, "bad-z.json", json.dumps(body)), lam],
        [z, write(tmp_path, "bad-lam.json", json.dumps(union))],
    ]
    if text.strip() == text:  # a window splits on spaces
        runs.append([z, lam, "--window", f"-1 {text} 0 1 0 1"])
    for args in runs:
        assert repr(text) in assert_input_error(capsys, ["verify-tiling", *args])


@pytest.mark.parametrize("text", OFF_GRAMMAR)
def test_cli_integer_option_outside_the_grammar_exits_2(tmp_path, capsys, monkeypatch, text):
    z = write(tmp_path, "z.json", CUBE_JSON)
    lam = write(tmp_path, "lam.json", Z3_UNION_JSON)
    pts = write(tmp_path, "pts.json", json.dumps([["0", "0", "0"]]))
    # each option is refused before any input file is read
    monkeypatch.setattr(zio, "zonotope_from_json", lambda doc: pytest.fail("body read"))
    runs = (
        ["verify-tiling", z, lam, "--samples", text],
        ["verify-tiling", z, lam, "--samples", "10", "--seed", text],
        ["export-mesh", z, "--precision", text],
        ["fourier-eval", z, pts, "--tol", text],
    )
    for argv in runs:
        assert repr(text) in assert_input_error(capsys, argv)


_digits = st.text("0123456789", min_size=1, max_size=12)
_grammar_rational = st.builds(
    lambda sign, body: sign + body,
    st.sampled_from(["", "+", "-"]),
    st.builds(lambda n, d: f"{n}/{d}", _digits, _digits.filter(lambda d: int(d) > 0))
    | st.builds(
        lambda whole, frac, exp: whole + frac + exp,
        _digits,
        st.sampled_from(["", "."]) | st.builds(lambda d: "." + d, _digits),
        st.just("") | st.builds(lambda e, n: e + n, st.sampled_from(["e", "E", "e-", "E+"]),
                                st.integers(0, 40).map(str)),
    )
    | st.builds(lambda d: "." + d, _digits),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(_grammar_rational, min_size=3, max_size=3))
def test_grammar_rationals_round_trip(texts):
    v = vec_from_json(texts)
    assert tuple(v) == tuple(Fraction(t) for t in texts)
    out = vec_to_json(v)
    assert vec_from_json(out) == v and vec_to_json(vec_from_json(out)) == out


def _slab_json(**fields):
    con = construction_from_indices(Zonotope((E1, E2, E3)), [0, 1], coefficients=(HALF, HALF))
    return {**translate_set_to_json(build_weird(con)), **fields}


@pytest.mark.parametrize(
    "choice, message",
    [
        ({"1": "S", "01": "T", " 1": "S"}, "choice names coset 1 twice"),
        ({"-2": "T", "-02": "S"}, "choice names coset -2 twice"),
        ({"1": "S", " 1": "S"}, "not an integer: ' 1'"),
        ({"1_0": "T"}, "not an integer: '1_0'"),
    ],
)
def test_cli_choice_key_twice_or_off_grammar_exits_2(tmp_path, capsys, choice, message):
    z = write(tmp_path, "z.json", CUBE_JSON)
    lam = write(tmp_path, "lam.json", json.dumps(_slab_json(choice=choice)))
    assert message in assert_input_error(capsys, ["verify-tiling", z, lam])


def test_cli_json_key_named_twice_exits_2(tmp_path, capsys):
    # json.load alone keeps the last of two equal keys
    z = write(tmp_path, "z.json", CUBE_JSON)
    text = json.dumps(_slab_json(choice={"1": "S"})).replace('"1": "S"', '"1": "S", "1": "T"')
    assert '"choice": {"1": "S", "1": "T"}' in text
    err = assert_input_error(capsys, ["verify-tiling", z, write(tmp_path, "lam.json", text)])
    assert "lam.json" in err and "'1' twice" in err
    twice = CUBE_JSON.replace("{", '{"translate": ["0", "0", "0"], "translate": ["1", "0", "0"], ')
    body = write(tmp_path, "t.json", twice)
    assert "'translate' twice" in assert_input_error(capsys, ["classify", body])


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"t_offsets": [["1/2", "0", "0"]]}, "offset families must have equal size"),
        ({"choice": {"1": "U"}}, "choice values must be 'S' or 'T'"),
    ],
)
def test_cli_slab_choice_refusals_exit_2(tmp_path, capsys, fields, message):
    z = write(tmp_path, "z.json", CUBE_JSON)
    lam = write(tmp_path, "lam.json", json.dumps(_slab_json(**fields)))
    assert message in assert_input_error(capsys, ["verify-tiling", z, lam])


def test_cli_choice_option_naming_a_coset_twice_exits_2(tmp_path, capsys):
    z = write(tmp_path, "z.json", CUBE_JSON)
    argv = ["weird-gen", z, "--v-indices", "0 1", "--coefficients", "1/2 1/2", "--choice"]
    assert "choice names coset 1 twice" in assert_input_error(capsys, argv + ["1=S,1=T"])
    assert "choice names coset 0 twice" in assert_input_error(capsys, argv + ["0=T, +0=T"])
    assert "not an integer" in assert_input_error(capsys, argv + ["1_0=T"])
    assert main(argv + ["0=T, 1=S,"]) == 0


@pytest.mark.parametrize(
    "window, message",
    [
        ("-1 1 -1 1 -1", "six rationals"),
        ("-1 1 -1 1 -1 1 2", "six rationals"),
        ("-1 1 1 -1 -1 1", "window is empty"),
        ("-1 1 -1 1 1/2 2/4", "window is empty"),
    ],
)
def test_cli_window_refusals_exit_2(tmp_path, capsys, window, message):
    z = write(tmp_path, "z.json", CUBE_JSON)
    lam = write(tmp_path, "lam.json", Z3_UNION_JSON)
    assert message in assert_input_error(capsys, ["verify-tiling", z, lam, "--window", window])
    argv = ["weird-gen", z, "--v-indices", "0 1", "--coefficients", "1/2 1/2", "--materialize"]
    assert message in assert_input_error(capsys, argv + ["--window", window])


# -- fuzz: any JSON document gives an exit code, never a traceback ----------

_leaf = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats()
    | st.text(max_size=5)
    | st.sampled_from(["0", "1", "-1", "2", "1/2", "-2/3", "0.25", "1e3", "1/0", "x", ""])
)
_json = st.recursive(
    _leaf,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(
        st.sampled_from(["generators", "translate", "a"]) | st.text(max_size=3), kids, max_size=3
    ),
    max_leaves=10,
)
_coord = st.sampled_from(["0", "1", "-1", "2", "1/2", "-2/3"])
# well-formed bodies include zero, parallel and non-spanning generators;
# malformed ones put arbitrary JSON where vectors and coordinates belong
_vec = st.lists(_coord, min_size=3, max_size=3)
_bad_vec = _json | st.lists(_coord | _leaf, max_size=4)
_body = st.fixed_dictionaries(
    {"generators": st.lists(_vec, min_size=3, max_size=5)}, optional={"translate": _vec}
)
_bad_body = st.fixed_dictionaries(
    {"generators": _json | st.lists(_vec | _bad_vec, max_size=4)}, optional={"translate": _bad_vec}
)

FUZZED_COMMANDS = ("classify", "frames", "check-intersection", "pave", "export-mesh", "weird-gen")


@settings(derandomize=True, max_examples=100, deadline=None)
@given(doc=_body | _bad_body | _json)
def test_cli_fuzzed_json_never_raises(tmp_path_factory, doc):
    d = tmp_path_factory.mktemp("fuzz")
    path = d / "z.json"
    path.write_text(json.dumps(doc))
    for cmd in FUZZED_COMMANDS:
        assert main([cmd, str(path), "--out", str(d / "out")]) in (0, 1, 2)


# well-formed translate sets, with degenerate bases, non-sublattices, odd
# weights and choices; malformed ones put arbitrary JSON in each field
_basis3 = st.lists(_vec, min_size=3, max_size=3)
_component = st.fixed_dictionaries(
    {"basis": _basis3}, optional={"offset": _vec, "weight": st.integers(-1, 2) | _leaf}
)
_union = st.fixed_dictionaries(
    {"kind": st.just("lattice_union"), "components": st.lists(_component, max_size=2)}
)
_slab = st.fixed_dictionaries(
    {
        "kind": st.just("slab_choice"),
        "gamma": _basis3,
        "sub": st.lists(_vec, min_size=2, max_size=2),
        "s_offsets": st.lists(_vec, max_size=2),
        "t_offsets": st.lists(_vec, max_size=2),
    },
    optional={
        "choice": st.dictionaries(st.sampled_from(["0", "1", "-1", "x"]), st.just("T") | _leaf),
        "expected_level": st.integers(0, 2) | _leaf,
    },
)
_bad_translates = st.fixed_dictionaries(
    {"kind": st.sampled_from(["lattice_union", "slab_choice"]) | _leaf},
    optional={
        key: _json | st.lists(_vec | _bad_vec | _json, max_size=3)
        for key in ("components", "gamma", "sub", "s_offsets", "t_offsets", "choice")
    },
)
_far = st.sampled_from(["1e300", "-7/3", "1e-9"])
_points = st.lists(_vec | st.lists(_far, min_size=3, max_size=3))
Z3_UNION = LatticeUnion((LatticeComponent(lattice_from_vectors([E1, E2, E3]), ZERO),))
Z3_UNION_JSON = dumps(translate_set_to_json(Z3_UNION))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    body=_body | _bad_body | _json,
    translates=_union | _slab | _bad_translates | _json,
    points=_points | _bad_vec | _json,
)
def test_cli_fuzzed_second_input_never_raises(tmp_path_factory, body, translates, points):
    # verify-tiling with one of its two files fuzzed, fourier-eval with its
    # points file fuzzed (and with the body fuzzed against valid points)
    d = tmp_path_factory.mktemp("fuzz")
    files = {
        "cube": CUBE_JSON,
        "z3": Z3_UNION_JSON,
        "origin": '[["0", "1/2", "0"]]',
        "body": json.dumps(body),
        "translates": json.dumps(translates),
        "points": json.dumps(points),
    }
    for name, text in files.items():
        (d / name).write_text(text)
    runs = (
        ("verify-tiling", "cube", "translates", "--samples", "20"),
        ("verify-tiling", "body", "z3", "--samples", "20"),
        ("fourier-eval", "cube", "points"),
        ("fourier-eval", "body", "origin"),
    )
    for cmd, first, second, *opts in runs:
        argv = [cmd, str(d / first), str(d / second), *opts, "--out", str(d / "out")]
        assert main(argv) in (0, 1, 2)


def test_cli_verify_tiling_bounds_samples(tmp_path, capsys):
    # the bound is checked before any input is read: just above it the run
    # stops on the sample count, at it on the missing files
    missing = str(tmp_path / "absent.json")
    argv = ["verify-tiling", missing, missing, "--samples"]
    assert main(argv + [str(cli._SAMPLES_LIMIT + 1)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: samples must be between 1 and") and "Traceback" not in err
    assert main(argv + [str(cli._SAMPLES_LIMIT)]) == 2
    err = capsys.readouterr().err
    assert "absent.json" in err and "samples" not in err


def test_json_refuses_generators_beyond_triple_bound(tmp_path, capsys, monkeypatch):
    # 108 generators make C(108, 3) = 204,156 triples, one generator past the
    # bound; the body is refused before any generator is parsed or built
    n = 1
    while math.comb(n + 1, 3) <= zio._TRIPLE_LIMIT:
        n += 1
    assert (n, math.comb(n + 1, 3)) == (107, 204_156)
    monkeypatch.setattr(zio, "vec_from_json", lambda arr: pytest.fail("generator parsed"))
    doc = {"generators": [["1", "0", "0"]] * (n + 1)}
    with pytest.raises(ValueError, match="108 generators make 204156 triples"):
        zonotope_from_json(doc)
    body = write(tmp_path, "z.json", json.dumps(doc))
    for cmd in (["pave", body], ["classify", body]):
        assert_input_error(capsys, cmd)


def test_json_generator_bound_is_inclusive(monkeypatch):
    # four generators make C(4, 3) = 4 triples
    gens = {"generators": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"], ["1", "1", "1"]]}
    monkeypatch.setattr(zio, "_TRIPLE_LIMIT", 4)
    assert zonotope_from_json(gens).volume() == 4
    monkeypatch.setattr(zio, "_TRIPLE_LIMIT", 3)
    with pytest.raises(ValueError, match="4 generators make 4 triples, more than 3"):
        zonotope_from_json(gens)


def test_cli_verify_tiling_refuses_offset_facet_cells(tmp_path, capsys, monkeypatch):
    # RD4 spans 3^3 = 27 offsets of Z^3 on 12 facets: 324 cells, 6 * 54
    rd4 = '{"generators": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"], ["1", "1", "1"]]}'
    z = write(tmp_path, "z.json", rd4)
    lam = write(tmp_path, "lam.json", json.dumps(translate_set_to_json(
        LatticeUnion((LatticeComponent(lattice_from_vectors([E1, E2, E3]), ZERO),)))))
    monkeypatch.setattr(tiling, "_KERNEL_LIMIT", 53)
    assert_input_error(capsys, ["verify-tiling", z, lam, "--samples", "10"])
    monkeypatch.setattr(tiling, "_KERNEL_LIMIT", 54)
    assert main(["verify-tiling", z, lam, "--samples", "10"]) == 0
    assert json.loads(capsys.readouterr().out)["level"] == 4
