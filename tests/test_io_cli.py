"""JSON schemas, OFF export, and the command line."""
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from zonotile import cli
from zonotile.cli import main
from zonotile.io import (
    decimal_str,
    dumps,
    export_off,
    translate_set_from_json,
    translate_set_to_json,
    zonotope_from_json,
    zonotope_to_json,
)
from zonotile.lattices import lattice_from_vectors
from zonotile.linalg import Vec3
from zonotile.structure import TwoFlatVerdict
from zonotile.tiling import LatticeComponent, LatticeUnion
from zonotile.weird import build_weird, construction_from_indices
from zonotile.zonotope import Zonotope

from conftest import E1, E2, E3, ZERO

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


def test_cli_round_trip_weird_translates_into_verify(tmp_path, capsys):
    z = write(tmp_path, "z.json", CUBE_JSON)
    assert main(["weird-gen", z, "--v-indices", "0 1", "--coefficients", "1/2 1/2"]) == 0
    rep = json.loads(capsys.readouterr().out)
    lam = write(tmp_path, "lam.json", json.dumps(rep["translate_set"]))
    assert main(["verify-tiling", z, lam, "--samples", "80", "--window", "-5 5 -5 5 -5 5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["level"] == 2


def test_cli_fourier_eval(tmp_path, capsys):
    z = write(tmp_path, "z.json", CUBE_JSON)
    pts = write(tmp_path, "pts.json", json.dumps([["0", "0", "0"], ["1/2", "1/3", "1/5"]]))
    assert main(["fourier-eval", z, pts]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert len(rep["points"]) == 2
    first = rep["points"][0]["frames"]
    assert all(f["in_zero_set"] and f["abs"] <= 1e-9 for f in first)


def test_cli_export_mesh(tmp_path, capsys):
    z = write(tmp_path, "z.json", CUBE_JSON)
    out = str(tmp_path / "cube.off")
    assert main(["export-mesh", z, "--precision", "3", "--out", out]) == 0
    assert off_counts(open(out).read()) == (8, 6, 12)


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
