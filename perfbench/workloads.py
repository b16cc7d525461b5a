"""Seeded inputs, operations and oracles of the four benchmark workloads.

A workload is one cycle of operations built from ``random.Random(seed)``;
the measured phase repeats the cycle. Each operation is one call into
zonotile whose verdict the benchmark checks against a value known from
theory, computed here without the layer under test. Every slot of a cycle
has a fixed kind and size; the seed varies only the data inside a slot, so
cost stays comparable from seed to seed.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable

from zonotile import cli
from zonotile.lattices import Lattice, lattice_from_vectors
from zonotile.linalg import Vec3
from zonotile.spectral import support_bound_check
from zonotile.structure import classify
from zonotile.tiling import LatticeComponent, LatticeUnion, verify_level
from zonotile.weird import (
    ap_coloring,
    build_weird,
    construction_from_indices,
    irregularity_certificate,
    slab_identity_check,
)
from zonotile.zonotope import Location, Zonotope

HALF = Fraction(1, 2)
ORIGIN = Vec3.of(0, 0, 0)
E1, E2, E3 = Vec3.of(1, 0, 0), Vec3.of(0, 1, 0), Vec3.of(0, 0, 1)


@dataclass(frozen=True)
class Op:
    """One closed-loop request: ``run`` returns a verdict, ``check`` judges it."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]


# -- independent oracles -------------------------------------------------------


def _int_det(a, b, c) -> int:
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def _int_cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def triple_volume(gens: list[tuple[int, int, int]]) -> int:
    """Zonotope volume as the sum of |det| over generator triples."""
    return sum(abs(_int_det(a, b, c)) for a, b, c in combinations(gens, 3))


def is_two_flat(gens: list[tuple[int, int, int]]) -> bool:
    """Can the generators be split into two sets each lying in a plane?

    Any such split has a side spanning a plane through two generators (or a
    single direction), so trying every plane through a generator pair, and
    every single generator direction, as one side is exhaustive.
    """

    def coplanar(vs) -> bool:
        vs = list(vs)
        for a, b in combinations(vs, 2):
            n = _int_cross(a, b)
            if n != (0, 0, 0):
                return all(n[0] * v[0] + n[1] * v[1] + n[2] * v[2] == 0 for v in vs)
        return True  # all parallel

    for a, b in combinations(gens, 2):
        n = _int_cross(a, b)
        if n == (0, 0, 0):
            continue
        rest = [v for v in gens if n[0] * v[0] + n[1] * v[1] + n[2] * v[2] != 0]
        if coplanar(rest):
            return True
    for a in gens:
        rest = [v for v in gens if _int_cross(a, v) != (0, 0, 0)]
        if coplanar(rest):
            return True
    return False


def _random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.getrandbits(40), 2**40)


# -- verify ----------------------------------------------------------------------

# (kind, window half-width) per slot; lattice jobs are cheap, slab-choice jobs
# and wide windows dear, so one block spans the whole cost range. The middle
# third of a block (union at 4, RD4 at 4, far at 4, lattice at 6) costs about
# the same and holds op_p50_ms; the two widest slab-choice jobs are the top
# sixth and hold op_p90_ms.
_VERIFY_SLOTS = (
    ("lattice", 3), ("union", 4), ("rd4", 3), ("rd4", 4), ("far", 3), ("lattice", 6),
    ("slab", 5), ("union", 3), ("rd4", 5), ("far", 4), ("lattice", 8), ("slab", 5),
)


def verify_block(rng: random.Random, workdir: str, index: int) -> list[Op]:
    cube = Zonotope((E1, E2, E3))
    rd4 = Zonotope((E1, E2, E3, Vec3.of(1, 1, 1)))
    z3 = lattice_from_vectors([E1, E2, E3])
    lattice_union = LatticeUnion((LatticeComponent(z3, ORIGIN),))
    two_copies = LatticeUnion(
        (LatticeComponent(z3, ORIGIN), LatticeComponent(z3, Vec3(HALF, HALF, HALF)))
    )
    construction = construction_from_indices(cube, [0, 1], coefficients=(HALF, HALF))
    third = Vec3.of(Fraction(1, 3), 0, 0)
    thin = Zonotope((third, E2, E3))
    thin_lattice = lattice_from_vectors([third, E2, E3])
    ops = []
    for kind, h in _VERIFY_SLOTS:
        lo, hi = Vec3.of(-h, -h, -h), Vec3.of(h, h, h)
        if kind == "lattice":
            body, lam, level = cube, lattice_union, 1
        elif kind == "union":
            body, lam, level = cube, two_copies, 2
        elif kind == "rd4":
            body, lam, level = rd4, lattice_union, 4
        elif kind == "slab":
            # criterion-02 style choice maps
            keys = rng.sample(range(-12, 13), 4)
            lam = build_weird(construction, {j: rng.choice("ST") for j in keys})
            body, level = cube, 2
        else:
            # lattice offset and window near 1e11 with denominators 3 and 7
            big = 10**11 + rng.randrange(10**6)
            offset = Vec3.of(
                big + Fraction(rng.randint(1, 6), 7),
                big + Fraction(rng.randint(1, 6), 7),
                -big + Fraction(rng.randint(1, 2), 3),
            )
            body, level = thin, 1
            lam = LatticeUnion((LatticeComponent(thin_lattice, offset),))
            lo, hi = lo + offset, hi + offset
        seed = rng.randrange(2**31)

        def run(body=body, lam=lam, window=(lo, hi), seed=seed):
            return verify_level(body, lam, window, samples=1000, seed=seed)

        def check(rep, level=level):
            return rep.level == level and rep.density_consistent is True and not rep.violations

        ops.append(Op(kind, run, check))
    return ops


# -- exact_points ----------------------------------------------------------------


def _slab_check_size(c) -> int:
    """Candidate points one in-plane box enumeration of the slab check yields.

    Computed as the library's box enumeration sizes it: the product, over the
    group's two dual coordinate rows, of the integer ranges a box the size of
    the body's bounding box spans.
    """
    b1, b2 = c.g.basis
    g11, g12, g22 = b1.dot(b1), b1.dot(b2), b2.dot(b2)
    det = g11 * g22 - g12 * g12
    rows = (b1 * (g22 / det) - b2 * (g12 / det), b2 * (g11 / det) - b1 * (g12 / det))
    half = [sum(abs(v) for v in coords) / 2 for coords in zip(*c.zonotope.generators)]
    corners = [
        Vec3(sx * half[0], sy * half[1], sz * half[2])
        for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)
    ]
    size = 1
    for r in rows:
        vals = [r.dot(p) for p in corners]
        size *= math.floor(max(vals)) - math.ceil(min(vals)) + 1
    return size


def _random_two_flat_construction(rng: random.Random):
    """Three generators in one rational plane and two outside (criterion 03).

    Slab-check cost grows with the in-plane box enumeration size, so draws
    outside a fixed band of it are rejected: every seed gets bodies of one size.
    """
    while True:
        a = Vec3.of(*(rng.randint(-2, 2) for _ in range(3))) * Fraction(1, rng.randint(1, 2))
        b = Vec3.of(*(rng.randint(-2, 2) for _ in range(3))) * Fraction(1, rng.randint(1, 2))
        n = a.cross(b)
        if n.is_zero():
            continue
        w = []
        while len(w) < 2:
            u = Vec3.of(*(rng.randint(-2, 2) for _ in range(3)))
            if n.dot(u) != 0:
                w.append(u)
        try:
            c = construction_from_indices(Zonotope((a, b, a + b, *w)), [0, 1, 2])
        except (ValueError, ArithmeticError, RuntimeError):
            continue
        if 15 <= _slab_check_size(c) <= 35:
            return c


def _random_int_gens(rng: random.Random, count: int) -> list[tuple[int, int, int]]:
    while True:
        gens = []
        while len(gens) < count:
            v = tuple(rng.randint(-2, 2) for _ in range(3))
            if v != (0, 0, 0):
                gens.append(v)
        if any(_int_det(a, b, c) for a, b, c in combinations(gens, 3)):
            return gens


def _pave_op(rng: random.Random, n: int) -> Op:
    gens = _random_int_gens(rng, n)
    volume = triple_volume(gens)
    # sums of t_i * g_i with every t_i in (0, 1) are interior, since a linear
    # surjection maps the open cube onto an open set; bounding-box points may
    # fall anywhere
    inner = [
        Vec3(*(sum(t * g[i] for t, g in zip(ts, gens)) for i in range(3)))
        for ts in ([_random_rational(rng) or HALF for _ in gens] for _ in range(20))
    ]
    lo = [sum(min(g[i], 0) for g in gens) for i in range(3)]
    hi = [sum(max(g[i], 0) for g in gens) for i in range(3)]
    box = [
        Vec3(*(lo[i] + (hi[i] - lo[i]) * _random_rational(rng) for i in range(3)))
        for _ in range(20)
    ]
    points = inner + box

    def run():
        z = Zonotope([Vec3.of(*g) for g in gens])
        paving = z.pave()
        counts = [paving.count(p) for p in points if z.contains(p) is Location.INTERIOR]
        return paving.total_volume(), z.volume(), counts

    def check(result):
        total, vol, counts = result
        return total == vol == volume and len(counts) >= len(inner) and all(c == 1 for c in counts)

    return Op("pave", run, check)


def _slab_op(rng: random.Random, construction) -> Op:
    seed = rng.randrange(2**31)

    def run():
        return slab_identity_check(construction, samples=64, seed=seed)

    def check(rep):
        return rep.passed and not rep.mismatches and rep.samples == 64

    return Op("slab", run, check)


def _irregularity_op(rng: random.Random, construction) -> Op:
    lo = rng.randint(-80, -20)
    hi = lo + 100

    def run():
        coloring = ap_coloring(200)
        return coloring, irregularity_certificate(construction, coloring, lo, hi)

    def check(result):
        coloring, rep = result
        # the coset line point ell*gamma1 is a translate (offset 0 of the S
        # family) exactly on red cosets, where the T family is not chosen
        want = [
            (ell, "black" if coloring.assigned.get(ell) == "black" else "red")
            for ell in range(lo, hi + 1)
        ]
        got = [(ell, color) for ell, color, _ in rep.entries]
        mults = [m for _, _, m in rep.entries]
        return (
            rep.ok
            and got == want
            and mults == [1 if color == "red" else 0 for _, color in want]
            and rep.has_present == (1 in mults)
            and rep.has_absent == (0 in mults)
        )

    return Op("irregularity", run, check)


def exact_points_block(rng: random.Random, workdir: str, index: int) -> list[Op]:
    # of twenty ops, the one random-body slab check is the dearest and the
    # three cube slab checks hold op_p90_ms; op_p50_ms falls among the
    # five-generator pavings
    cube = construction_from_indices(Zonotope((E1, E2, E3)), [0, 1], coefficients=(HALF, HALF))
    return [
        _pave_op(rng, 3), _pave_op(rng, 4), _slab_op(rng, cube), _pave_op(rng, 5),
        _pave_op(rng, 6), _irregularity_op(rng, cube), _pave_op(rng, 3), _pave_op(rng, 4),
        _slab_op(rng, cube), _pave_op(rng, 5), _slab_op(rng, _random_two_flat_construction(rng)),
        _pave_op(rng, 6), _pave_op(rng, 3), _pave_op(rng, 4), _slab_op(rng, cube),
        _pave_op(rng, 5), _pave_op(rng, 6), _irregularity_op(rng, cube), _pave_op(rng, 4),
        _pave_op(rng, 5),
    ]


# -- classify --------------------------------------------------------------------


def _nonzero(rng: random.Random) -> tuple[int, int, int]:
    while True:
        v = tuple(rng.randint(-2, 2) for _ in range(3))
        if v != (0, 0, 0):
            return v


def _two_flat_gens(rng: random.Random, n: int) -> list[tuple[int, int, int]]:
    """n generators in [-2, 2]^3 drawn from two planes, full rank overall."""

    def in_plane(p, q):
        while True:
            s, t = rng.randint(-1, 1), rng.randint(-1, 1)
            v = tuple(s * p[i] + t * q[i] for i in range(3))
            if v != (0, 0, 0) and max(abs(c) for c in v) <= 2:
                return v

    while True:
        a, b, c, d = (_nonzero(rng) for _ in range(4))
        if _int_cross(a, b) == (0, 0, 0) or _int_cross(c, d) == (0, 0, 0):
            continue
        n1 = rng.randint(2, n - 2)
        gens = [in_plane(a, b) for _ in range(n1)] + [in_plane(c, d) for _ in range(n - n1)]
        if any(_int_det(x, y, z) for x, y, z in combinations(gens, 3)):
            rng.shuffle(gens)
            return gens


def _gens_with_directions(rng: random.Random, n: int, k: int) -> list[tuple[int, int, int]]:
    """n generators in [-2, 2]^3 along exactly k distinct directions."""
    while True:
        dirs: list[tuple[int, int, int]] = []
        while len(dirs) < k:
            v = _nonzero(rng)
            g = math.gcd(*v)
            d = tuple(c // g for c in v)
            if d not in dirs and tuple(-c for c in d) not in dirs:
                dirs.append(d)
        if any(_int_det(a, b, c) for a, b, c in combinations(dirs, 3)):
            break
    picks = dirs + [rng.choice(dirs) for _ in range(n - k)]
    gens = []
    for d in picks:
        m = rng.choice([m for m in (-2, -1, 1, 2) if max(abs(m * c) for c in d) <= 2])
        gens.append(tuple(m * c for c in d))
    rng.shuffle(gens)
    return gens


def _classify_op(gens: list[tuple[int, int, int]]) -> Op:
    expected = "TwoFlatRationalDiscrete" if is_two_flat(gens) else "NotTwoFlat"

    def run():
        return classify(Zonotope([Vec3.of(*g) for g in gens]))

    def check(cl):
        return cl.verdict == expected and (cl.intersection.holds or cl.two_flat.is_two_flat)

    return Op("classify", run, check)


def classify_block(rng: random.Random, workdir: str, index: int) -> list[Op]:
    # cost follows the number of distinct directions, so each block holds the
    # same direction counts: four cheap two-flat bodies, eight bodies with 7
    # directions and three with 8. op_p50_ms falls near the middle of the
    # 7-direction class and op_p90_ms near the middle of the 8-direction
    # one, away from the gaps between classes
    ops = []
    for _ in range(4):
        gens = _two_flat_gens(rng, rng.randint(6, 12))
        if not is_two_flat(gens):
            raise RuntimeError("two-flat generator produced a non-two-flat body")
        ops.append(_classify_op(gens))
    for k in (7, 7, 8, 7, 7, 8, 7, 7, 8, 7, 7):
        ops.append(_classify_op(_gens_with_directions(rng, rng.randint(k, 12), k)))
    rng.shuffle(ops)
    return ops


# -- enumerate -------------------------------------------------------------------


def _ball_count(moduli: list[tuple[int, int, int]], radius: int) -> int:
    """Integer points q with |q| <= radius and q_i divisible by m_i for some m."""
    r = radius
    return sum(
        1
        for q in (
            (a, b, c)
            for a in range(-r, r + 1)
            for b in range(-r, r + 1)
            for c in range(-r, r + 1)
        )
        if q[0] ** 2 + q[1] ** 2 + q[2] ** 2 <= r * r
        and any(all(q[i] % m[i] == 0 for i in range(3)) for m in moduli)
    )


def _cancelled_count(comps, radius: int) -> int:
    """Nonzero dual points whose union weight vanishes, in floating point."""
    r = radius
    count = 0
    span = range(-r, r + 1)
    for q in ((a, b, c) for a in span for b in span for c in span):
        if q == (0, 0, 0) or q[0] ** 2 + q[1] ** 2 + q[2] ** 2 > r * r:
            continue
        weight, present = 0j, False
        for m, offset, w in comps:
            if all(q[i] % m[i] == 0 for i in range(3)):
                present = True
                phase = sum(float(q[i] * offset[i]) for i in range(3))
                weight += w * m[0] * m[1] * m[2] * cmath.exp(-2j * math.pi * phase)
        if present and abs(weight) < 1e-9:
            count += 1
    return count


def _support_op(rng: random.Random, comps, radius: int) -> Op:
    """comps: (m, offset, weight); lattice diag(1/m) tiles the unit cube."""
    cube = Zonotope((E1, E2, E3))
    lam = LatticeUnion(
        tuple(
            LatticeComponent(
                Lattice((E1 * Fraction(1, m[0]), E2 * Fraction(1, m[1]), E3 * Fraction(1, m[2]))),
                Vec3(*offset),
                w,
            )
            for m, offset, w in comps
        )
    )
    candidates = _ball_count([m for m, _, _ in comps], radius)
    cancelled = _cancelled_count(comps, radius)

    def run():
        return support_bound_check(cube, lam, radius)

    def check(rep):
        return (
            rep.holds
            and not rep.violations
            and rep.candidates == candidates
            and len(rep.cancelled) == cancelled
        )

    return Op("support", run, check)


def _seeded_union(rng: random.Random):
    moduli = [(1, 1, 1), (1, 1, 2), (1, 2, 2)]
    comps = []
    for m in moduli:
        perm = list(m)
        rng.shuffle(perm)
        offset = tuple(Fraction(rng.randint(0, 5), rng.randint(1, 6)) for _ in range(3))
        comps.append((tuple(perm), offset, rng.randint(1, 2)))
    return comps


def _materialize_op(rng: random.Random, workdir: str, slot: int, sides, half_width: int) -> Op:
    """weird-gen --materialize on a box body with a sign-symmetric choice map.

    Coset j of the in-plane group is the slab z = +-j * side_z, so a choice
    map with choice[j] == choice[-j] fixes the family of every slab no matter
    which sign the coset enumeration picks.
    """
    a1, a2, a3 = sides
    c1, c2 = (Fraction(1, rng.randint(2, 5)) for _ in range(2))
    choice = {}
    for j in rng.sample(range(0, 8), 4):
        choice[j] = choice[-j] = rng.choice("ST")
    shift = [Fraction(rng.randint(-3, 3), 4) for _ in range(3)]
    window = [(shift[i] - half_width, shift[i] + half_width) for i in range(3)]
    body_path = os.path.join(workdir, f"body{slot}.json")
    out_path = os.path.join(workdir, f"points{slot}.json")
    with open(body_path, "w", encoding="utf-8") as fh:
        json.dump({"generators": [[a1, 0, 0], [0, a2, 0], [0, 0, a3]]}, fh)
    argv = [
        "weird-gen", body_path, "--v-indices", "0 1",
        "--coefficients", f"{c1} {c2}",
        "--choice=" + ",".join(f"{j}={f}" for j, f in sorted(choice.items())),
        "--materialize",
        "--window=" + " ".join(f"{lo} {hi}" for lo, hi in window),
        "--out", out_path,
    ]
    s_family = [(0, 0), (c1 * a1, c2 * a2)]
    t_family = [(c1 * a1, 0), (0, c2 * a2)]

    def brute_force_count() -> int:
        def hits(u: Fraction, side: int, lo: Fraction, hi: Fraction) -> int:
            k = math.floor((lo - u) / side) - 1
            n = 0
            while u + k * side <= hi:
                n += lo <= u + k * side
                k += 1
            return n

        total = 0
        (x0, x1), (y0, y1), (z0, z1) = window
        for q in range(math.floor(z0 / a3) - 1, math.ceil(z1 / a3) + 2):
            if not z0 <= q * a3 <= z1:
                continue
            family = t_family if choice.get(q) == "T" else s_family
            total += sum(hits(ux, a1, x0, x1) * hits(uy, a2, y0, y1) for ux, uy in family)
        return total

    expected = brute_force_count()

    def run():
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            return exc.code

    def check(code):
        if code != 0:
            return False
        with open(out_path, encoding="utf-8") as fh:
            points = json.load(fh)["points"]
        return len(points) == expected and all(p["multiplicity"] == 1 for p in points)

    return Op("materialize", run, check)


def enumerate_block(rng: random.Random, workdir: str, index: int) -> list[Op]:
    # the two radius-5 checks are the top fifth of a block and hold
    # op_p90_ms; the four radius-3 checks hold ranks 4 to 7 and op_p50_ms
    cancel = [((1, 1, 1), (0, 0, 0), 1), ((1, 1, 1), (HALF, HALF, HALF), 1)]
    slot = 4 * index
    return [
        _support_op(rng, _seeded_union(rng), 3),
        _materialize_op(rng, workdir, slot, (2, 1, 1), 2),
        _support_op(rng, cancel, 5),
        _materialize_op(rng, workdir, slot + 1, (1, 1, 1), 2),
        _support_op(rng, _seeded_union(rng), 3),
        _materialize_op(rng, workdir, slot + 2, (1, 2, 1), 2),
        _support_op(rng, _seeded_union(rng), 3),
        _materialize_op(rng, workdir, slot + 3, (1, 1, 2), 2),
        _support_op(rng, _seeded_union(rng), 3),
        _support_op(rng, cancel, 5),
    ]


# name -> (one block of operations, operations in a block, CPU seconds one
# block takes on a 2-core reference box); a run builds enough blocks that
# inputs do not repeat
WORKLOADS = {
    "verify": (verify_block, len(_VERIFY_SLOTS), 2.9),
    "exact_points": (exact_points_block, 20, 1.65),
    "classify": (classify_block, 15, 1.95),
    "enumerate": (enumerate_block, 10, 1.75),
}


def warm_up(name: str, workdir: str) -> list[Op]:
    """One operation of each kind, from one block that every seed shares."""
    seen = {}
    for op in WORKLOADS[name][0](random.Random(f"{name}:warm-up"), workdir, 0):
        seen.setdefault(op.kind, op)
    return list(seen.values())


def build(name: str, seed: int, workdir: str, blocks: int) -> list[Op]:
    """The operation cycle of a workload: ``blocks`` blocks from one seed."""
    block = WORKLOADS[name][0]
    rng = random.Random(f"{name}:{seed}")
    return [op for i in range(blocks) for op in block(rng, workdir, i)]
