"""Exact rational vector and integer matrix primitives."""
import copy
import dataclasses
import math
import pickle
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zonotile.linalg import (
    VEC_ZERO,
    Vec3,
    adjugate,
    det_int,
    hermite_row_basis,
    int_row,
    int_triples,
    primitive,
    rank_of,
    rat,
    rat_str,
    smith_normal_form,
)

from conftest import inverse_rows


def mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def test_rat_accepts_int_str_fraction():
    assert rat(3) == 3
    assert rat("-7/2") == Fraction(-7, 2)
    assert rat("5") == 5
    assert rat(Fraction(1, 3)) == Fraction(1, 3)


def test_rat_rejects_floats_and_garbage():
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(ValueError):
        rat("a/b")
    # decimal strings are exact and therefore allowed
    assert rat("1.5") == Fraction(3, 2)


def test_rat_str_round_trip():
    for s in ("0", "3", "-7/2", "1/3"):
        assert rat_str(rat(s)) == s


def test_vec3_algebra():
    a = Vec3(1, 2, 3)
    b = Vec3(Fraction(1, 2), 0, -1)
    assert a + b == Vec3(Fraction(3, 2), 2, 2)
    assert a - a == Vec3(0, 0, 0)
    assert a * Fraction(1, 3) == Vec3(Fraction(1, 3), Fraction(2, 3), 1)
    assert a.dot(b) == Fraction(1, 2) - 3
    # cross orthogonality and anti-symmetry
    c = a.cross(b)
    assert c.dot(a) == 0 and c.dot(b) == 0
    assert b.cross(a) == -c


def test_cross_matches_cofactor_expansion():
    a, b = Vec3(2, -1, 3), Vec3(1, 4, -2)
    assert a.cross(b) == Vec3(
        a.y * b.z - a.z * b.y, a.z * b.x - a.x * b.z, a.x * b.y - a.y * b.x
    )


def test_primitive_clears_denominators_and_content():
    assert primitive(Vec3(Fraction(1, 2), Fraction(1, 3), 0)) == Vec3(3, 2, 0)
    assert primitive(Vec3(4, -6, 2)) == Vec3(2, -3, 1)
    v = primitive(Vec3(0, 0, Fraction(-5, 7)))
    assert v.parallel_to(Vec3(0, 0, 1)) and math.gcd(int(v.x), int(v.y), int(v.z)) == 1


def test_det3_against_permutation_expansion():
    rows = [(1, 2, 3), (0, 1, 4), (5, 6, 0)]
    # Sarrus by hand: 1*(1*0-4*6) - 2*(0*0-4*5) + 3*(0*6-1*5) = -24+40-15 = 1
    assert adjugate(rows)[1] == 1
    assert adjugate([rows[1], rows[0], rows[2]])[1] == -1
    with pytest.raises(ValueError, match="singular basis"):
        adjugate([rows[0], rows[1], (1, 3, 7)])


def test_rank_of_small_cases():
    assert rank_of([Vec3(0, 0, 0)]) == 0
    assert rank_of([Vec3(1, 1, 0), Vec3(2, 2, 0)]) == 1
    assert rank_of([Vec3(1, 0, 0), Vec3(1, 1, 0), Vec3(2, 1, 0)]) == 2
    assert rank_of([Vec3(1, 0, 0), Vec3(1, 1, 0), Vec3(0, 0, 7)]) == 3


def oracle_rank_of(vectors) -> int:
    """Rank by Gaussian elimination on Fractions."""
    rows = [list(v) for v in vectors]
    rank = 0
    for col in range(3):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = Fraction(rows[i][col]) / rows[rank][col]
            rows[i] = [rows[i][j] - f * rows[rank][j] for j in range(3)]
        rank += 1
    return rank


# entries beyond int64 over denominators up to 10^30
huge_rats = st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**30))
small_rats = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 5))


@st.composite
def row_sets(draw) -> list[Vec3]:
    """1-12 rows drawn from the span of 0-3 rational vectors, zero rows included."""
    entries = draw(st.sampled_from([huge_rats, small_rats]))
    basis = draw(st.lists(st.builds(Vec3, entries, entries, entries), max_size=3))
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        cs = draw(st.lists(small_rats, min_size=len(basis), max_size=len(basis)))
        rows.append(sum((b * c for b, c in zip(basis, cs)), VEC_ZERO))
    return rows


@settings(max_examples=200, derandomize=True, deadline=None)
@given(row_sets())
def test_rank_of_matches_fraction_elimination(rows):
    assert rank_of(rows) == oracle_rank_of(rows)


def test_inverse_rows_is_a_left_inverse():
    b = ((1, 2, 0), (0, 1, 1), (1, 0, 3))
    rows, det = adjugate(b)
    for i, r in enumerate(rows):
        for j, v in enumerate(b):
            assert sum(x * y for x, y in zip(r, v)) == (det if i == j else 0)
    # over the determinant, the rows are the Fraction inverse
    assert tuple(Vec3.from_ints(*r, det) for r in rows) == inverse_rows(*(Vec3(*v) for v in b))


def test_smith_normal_form_properties():
    m = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    u, s, v = smith_normal_form(m)
    assert mat_mul(mat_mul(u, m), v) == s
    assert abs(det_int(u)) == 1 and abs(det_int(v)) == 1
    d = [s[i][i] for i in range(3)]
    # divisibility chain, off-diagonal zero
    for i in range(3):
        for j in range(3):
            if i != j:
                assert s[i][j] == 0
    assert d[1] % d[0] == 0 and d[2] % d[1] == 0
    assert abs(d[0] * d[1] * d[2]) == abs(det_int(m))


def test_hermite_row_basis_spans_same_row_lattice():
    from zonotile.lattices import lattice_from_vectors

    rows = [[2, 0, 0], [1, 1, 0], [0, 0, 3], [3, 1, 3]]
    basis = hermite_row_basis(rows)
    assert len(basis) == 3 and det_int(basis) != 0
    lat = lattice_from_vectors([Vec3(*b) for b in basis])
    other = lattice_from_vectors([Vec3(*r) for r in rows])
    # same lattice both ways: every row in the basis lattice and vice versa
    for r in rows:
        assert lat.contains(Vec3(*r))
    for b in basis:
        assert other.contains(Vec3(*b))


def test_int_row_clears_to_the_least_common_denominator():
    assert int_row([Fraction(1, 6), Fraction(-3, 4), 2]) == ([2, -9, 24], 12)
    assert int_row(Vec3(Fraction(5, 7), 0, Fraction(2, 7))) == ([5, 0, 2], 7)
    assert int_row([]) == ([], 1)
    # far from the origin: the numerators are exact Python ints
    big = 10**25
    assert int_row([big + Fraction(1, 7), Fraction(-2, 3)]) == ([21 * big + 3, -14], 21)


def test_rat_bounds_decimal_exponents():
    assert rat("1e4300") == 10**4300
    assert rat("2.5E-0004300") == Fraction(5, 2 * 10**4300)
    for text in ("1e4301", "1e-4301", "1E+5000", "3.5e00000000000000004301", "1e" + "9" * 5000):
        with pytest.raises(ValueError, match="exponent"):
            rat(text)
    # Fraction reads an underscore from Python 3.11 on: the string grammar refuses it everywhere
    with pytest.raises(ValueError):
        rat("1e1_000")


# Vec3 against Fraction-triple arithmetic: numerators beyond 2^64, mixed
# denominators (including the hash modulus and its double)
_HASH_P = sys.hash_info.modulus
big_ints = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70))
dens = st.one_of(st.integers(1, 6), st.integers(1, 2**66), st.just(_HASH_P), st.just(2 * _HASH_P))
coords = st.builds(Fraction, big_ints, dens)
triples = st.tuples(coords, coords, coords)


def as_vec(t, draw_int):
    # integer coordinates go in as ints or as Fractions, which must not matter
    return Vec3(*(int(c) if draw_int and c.denominator == 1 else c for c in t))


def fields(v):
    return (v.x, v.y, v.z)


def assert_is(v, t):
    # the same coordinates, and the one reduced form: equal to a fresh vector
    nums, den = int_row(v)
    assert fields(v) == t and den > 0 and math.gcd(*nums, den) == 1
    assert v == Vec3(*t) and hash(v) == hash(Vec3(*t))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(triples, triples, st.one_of(big_ints, coords), st.booleans(), st.booleans())
def test_vec3_matches_fraction_triple_arithmetic(ta, tb, s, ia, ib):
    a, b = as_vec(ta, ia), as_vec(tb, ib)
    assert_is(a, ta)
    assert all(type(c) is Fraction for c in fields(a)) and tuple(a) == ta
    assert_is(a + b, tuple(p + q for p, q in zip(ta, tb)))
    assert_is(a - b, tuple(p - q for p, q in zip(ta, tb)))
    assert_is(-a, tuple(-p for p in ta))
    assert_is(a * s, tuple(p * s for p in ta))
    assert_is(s * a, tuple(p * s for p in ta))
    dot = sum(p * q for p, q in zip(ta, tb))
    assert a.dot(b) == dot and type(a.dot(b)) is Fraction
    assert a.norm_sq() == sum(p * p for p in ta)
    (x1, y1, z1), (x2, y2, z2) = ta, tb
    assert_is(a.cross(b), (y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2))
    assert a.is_zero() == (ta == (0, 0, 0))
    assert (a == b) == (ta == tb) and (a != b) == (ta != tb)
    assert (a < b) == (ta < tb) and (a <= b) == (ta <= tb)
    assert (a > b) == (ta > tb) and (a >= b) == (ta >= tb)
    # equal vectors hash equal, however they were built
    assert hash(a) == hash(Vec3.of(*map(str, ta))) == hash(as_vec(ta, not ia))
    # a frozen dataclass over (x, y, z) shows each Fraction
    assert repr(a) == f"Vec3(x={ta[0]!r}, y={ta[1]!r}, z={ta[2]!r})"
    assert int_row(a) == int_row(ta)
    nums, den = int_row(a)
    (ra, rb), common = int_triples((a, b))
    assert ([*ra, *rb], common) == int_row(ta + tb)
    for twin in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert twin == a and hash(twin) == hash(a) and repr(twin) == repr(a)
    # the same vector built from unreduced numerators is the same vector
    k = 3 + abs(nums[0]) % 5
    for nd in ((*(n * k for n in nums), den * k), (*(-n for n in nums), -den)):
        twin = Vec3.from_ints(*nd)
        assert twin == a and hash(twin) == hash(a)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(st.lists(triples, min_size=2, max_size=12), st.booleans())
def test_vec3_sorts_like_fraction_triples(ts, draw_int):
    vs = [as_vec(t, draw_int) for t in ts]
    assert [fields(v) for v in sorted(vs)] == sorted(ts)
    assert len(set(vs)) == len(set(ts))


def test_vec3_is_immutable():
    v = Vec3(Fraction(1, 2), 0, 3)
    for name in ("x", "y", "z", "_nd", "w"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(v, name, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del v.x
    assert v == Vec3(Fraction(1, 2), 0, 3)


def test_vec3_from_integers_equals_vec3_of_fractions():
    # Vec3(1, 0, 0) reads its coordinates as Fractions, like Vec3.of(1, 0, 0)
    a, b = Vec3(1, 0, 0), Vec3.of(1, 0, 0)
    twins = (Vec3.of("1", "0", "0"), Vec3.from_ints(2, 0, 0, 2), Vec3(Fraction(1), Fraction(0), 0))
    assert all(a == b == t and hash(a) == hash(b) == hash(t) for t in twins)
    assert repr(a) == repr(b) == "Vec3(x=Fraction(1, 1), y=Fraction(0, 1), z=Fraction(0, 1))"
    assert a.x == 1 and type(a.x) is Fraction
    assert Vec3.of("1/2", "-3", 2) == Vec3(Fraction(1, 2), -3, 2)
    with pytest.raises(TypeError):
        Vec3(0.5, 0, 0)
    with pytest.raises(ZeroDivisionError):
        Vec3.from_ints(1, 2, 3, 0)


def test_vec3_takes_numpy_integers_as_python_ints():
    v = Vec3(np.int64(3), np.int32(-1), Fraction(1, 2))
    assert v == Vec3(3, -1, Fraction(1, 2))
    assert all(type(n) is int for n in int_row(v)[0])
    # a numpy product would wrap at 2^63; the numerators are Python ints
    assert (v * 2**62).x == 3 * 2**62
