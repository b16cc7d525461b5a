"""Translate multisets and exact multiplicity verification.

Two descriptions of a translate multiset are supported: a weighted finite
union of shifted full-rank lattices, and a choice system that picks, per coset
of a rank-2 sublattice, one of two finite offset families. Both are read as
translate families: a shifted lattice with a multiplicity per lattice point.

``coverage`` counts one point in exact Fractions. ``verify_level`` counts all
samples at once with an integer kernel: in each family's lattice coordinates
the body's facets become small integer thresholds, so membership is exact at
any coordinate scale. Points on a contributing translate's boundary raise
BoundaryHit in ``coverage`` and are resampled by ``verify_level``.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import product
from math import floor
from typing import Callable, Iterator, Mapping

import numpy as np

from .lattices import CosetEnumeration, Lattice, lattice_points_in_box
from .linalg import Vec3, int_row
from .zonotope import BoundaryHit, Location, Zonotope

__all__ = [
    "LatticeComponent",
    "LatticeUnion",
    "SlabChoice",
    "CoverageReport",
    "density",
    "coverage",
    "translate_families",
    "verify_level",
]

# kernel arrays stay int64 while every entry is below this
_INT64_SAFE = 2**62
# sample x candidate x facet cells compared in one broadcast
_CHUNK = 1 << 20
# boundary resample rounds before a window is given up
_RESAMPLE_LIMIT = 64


@dataclass(frozen=True)
class LatticeComponent:
    lattice: Lattice
    offset: Vec3
    weight: int = 1

    def __post_init__(self):
        if self.lattice.rank != 3:
            raise ValueError("full-rank lattice required")
        if self.weight < 1:
            raise ValueError("weight must be a positive integer")


@dataclass(frozen=True)
class LatticeUnion:
    components: tuple[LatticeComponent, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("empty union")


@dataclass
class SlabChoice:
    """Per-coset choice between two offset families over a rank-2 sublattice.

    The translate multiset is the union over coset indices j of
    (sub + rep(j)) + each offset of the selected family; cosets the choice map
    leaves out default to the first family.
    """

    gamma: Lattice
    sub: Lattice
    cosets: CosetEnumeration
    s_offsets: tuple[Vec3, ...]
    t_offsets: tuple[Vec3, ...]
    choice: Mapping[int, str] = field(default_factory=dict)
    expected_level: int | None = None

    def __post_init__(self):
        if len(self.s_offsets) != len(self.t_offsets):
            raise ValueError("offset families must have equal size")
        for v in self.choice.values():
            if v not in ("S", "T"):
                raise ValueError("choice values must be 'S' or 'T'")

    def offsets_for(self, j: int) -> tuple[Vec3, ...]:
        return self.t_offsets if self.choice.get(j, "S") == "T" else self.s_offsets


@dataclass(frozen=True)
class CoverageReport:
    level: int | None
    samples: int
    violations: tuple[tuple[Vec3, int], ...]
    density: Fraction
    density_consistent: bool | None
    window: tuple[Vec3, Vec3]
    seed: int


def density(lam: LatticeUnion | SlabChoice) -> Fraction:
    """Average number of translates per unit volume."""
    if isinstance(lam, LatticeUnion):
        return sum(
            (Fraction(c.weight) / c.lattice.covolume() for c in lam.components),
            Fraction(0),
        )
    # each coset of sub inside gamma carries one offset family
    return Fraction(len(lam.s_offsets)) / lam.gamma.covolume()


Multiplicity = Callable[[np.ndarray], np.ndarray]


def translate_families(
    lam: LatticeUnion | SlabChoice,
) -> Iterator[tuple[Lattice, Vec3, Multiplicity]]:
    """(lattice, shift, multiplicity) per family shift + lattice of translates.

    multiplicity maps an (N, 3) array of lattice coordinates to how often each
    translate occurs: a union component's weight, or for a slab choice how
    often the shift occurs in the offset family its coset chose.
    """
    if isinstance(lam, LatticeUnion):
        for comp in lam.components:
            yield comp.lattice, comp.offset, lambda c, w=comp.weight: np.full(len(c), w)
    else:
        for u in dict.fromkeys(lam.s_offsets + lam.t_offsets):
            yield lam.gamma, u, partial(_coset_multiplicity, lam, u)


def _coset_multiplicity(lam: SlabChoice, u: Vec3, coords: np.ndarray) -> np.ndarray:
    keys, inverse = np.unique(lam.cosets.index_of_coords(coords), return_inverse=True)
    per_key = [lam.offsets_for(int(j)).count(u) for j in keys]
    return np.array(per_key, dtype=np.int64)[inverse]


def _family_count(lat: Lattice, shift: Vec3, mult: Multiplicity, p: Vec3) -> int:
    """How often the translate p occurs in one family (0 if off the lattice).

    Coordinate i of p - shift is R_i . (P - S) / (d * den) for the lattice's
    integer coordinate rows R_i over den and p, shift = P / d, S / d.
    """
    (p0, p1, p2, s0, s1, s2), d = int_row((*p, *shift))
    rows, den = lat._coord_ints
    big = d * den
    coords = []
    for r0, r1, r2 in rows:
        k, rem = divmod(r0 * (p0 - s0) + r1 * (p1 - s1) + r2 * (p2 - s2), big)
        if rem:
            return 0
        coords.append(k)
    return int(mult(np.array([coords]))[0])


def coverage(z: Zonotope, lam: LatticeUnion | SlabChoice, x: Vec3) -> int:
    """Exact multiplicity sum_t [x in interior(z + t)] over the multiset.

    Raises BoundaryHit when x lies on the boundary of a contributing
    translate, since interior counts are ill-defined there.
    """
    lo_p, hi_p = z.bounding_box()
    total = 0
    for lat, shift, mult in translate_families(lam):
        for p in lattice_points_in_box(lat, shift, x - hi_p, x - lo_p):
            loc = z.contains(x - p)
            if loc is Location.OUTSIDE or not (m := _family_count(lat, shift, mult, p)):
                continue
            if loc is Location.BOUNDARY:
                raise BoundaryHit(x)
            total += m
    return total


def translate_multiplicity(lam: LatticeUnion | SlabChoice, point: Vec3) -> int:
    """How many times the point itself occurs in the translate multiset."""
    return sum(_family_count(*family, point) for family in translate_families(lam))


def _kernel_counts(
    z: Zonotope, lam: LatticeUnion | SlabChoice, nums, den: int
) -> tuple[list[int | None], list[int]]:
    """Exact coverage counts at the points nums / den (one numerator triple each).

    Points on a contributing translate's boundary come back as None, their
    indices listed. Per family, with lattice coordinates y of x, the translate
    at lattice point floor(y) - k covers x iff k + frac(y) satisfies every
    facet G_f . w < h_f of the body's image, G_f = basis^T n_f; only the k of
    the image's bounding box can. Scaled to integers per facet: interior iff
    G_f . k < thr, closed iff G_f . k <= q, q = floor(h_f - G_f . frac(y)) and
    thr = q + 1 unless that floor is exact.
    """
    nums = np.array(nums, dtype=object).reshape(-1, 3)
    counts = np.zeros(len(nums), dtype=np.int64)
    border = np.zeros(len(nums), dtype=bool)
    for lat, shift, mult in translate_families(lam):
        rows, rden = lat._coord_ints
        (s0, s1, s2), sden = int_row(shift)
        # row i: r_i and r_i . shift, times rden * sden
        a = np.array(
            [(r0 * sden, r1 * sden, r2 * sden, r0 * s0 + r1 * s1 + r2 * s2) for r0, r1, r2 in rows],
            dtype=object,
        )
        big = den * rden * sden
        y = nums @ a[:, :3].T - a[:, 3] * den
        fl = y // big
        gh = np.array(
            [int_row((*(f.normal.dot(b) for b in lat.basis), f.support))[0] for f in z.facets],
            dtype=object,
        )
        g = gh[:, :3]
        side = gh[:, 3] * big - (y - fl * big) @ g.T
        q = side // big
        thr = q + (side - q * big != 0)
        ranges = [range(floor(-z.support_value(-r)), floor(z.support_value(r)) + 1)
                  for r in lat._coord_rows]
        ks = np.array(list(product(*ranges)), dtype=object)
        gk = ks @ g.T
        if all(np.abs(t).max(initial=0) < _INT64_SAFE for t in (thr, gk, ks, fl)):
            q, thr, gk, ks, fl = (t.astype(np.int64) for t in (q, thr, gk, ks, fl))
        step = max(1, _CHUNK // gk.size)
        for s0 in range(0, len(nums), step):
            si, ki = np.nonzero((gk[None] <= q[s0 : s0 + step, None]).all(axis=2))
            si += s0
            inside = (gk[ki] < thr[si]).all(axis=1)
            m = mult(fl[si] - ks[ki])
            np.add.at(counts, si[inside], m[inside])
            border[si[~inside & (m > 0)]] = True
    got = [None if b else c for c, b in zip(counts.tolist(), border.tolist())]
    return got, np.flatnonzero(border).tolist()


def _check_window(window: tuple[Vec3, Vec3]) -> None:
    lo, hi = window
    if not all(a < b for a, b in zip(lo, hi)):
        raise ValueError("window needs lo < hi in every coordinate")


def verify_level(
    z: Zonotope,
    lam: LatticeUnion | SlabChoice,
    window: tuple[Vec3, Vec3],
    samples: int = 200,
    seed: int = 0,
) -> CoverageReport:
    """Sample coverage at random window points and report the observed level.

    level is the common count when all samples agree, else None with the
    off-mode samples listed as violations. Boundary hits are resampled, for
    at most _RESAMPLE_LIMIT rounds. density_consistent compares
    density * volume against the observed level.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    _check_window(window)
    lo, hi = window
    # coordinate lo + (hi - lo) * r / 2^62 as an integer numerator over den
    ends, w = int_row((*lo, *hi))
    base = np.array([a << 62 for a in ends[:3]], dtype=object)
    width = np.array([b - a for a, b in zip(ends[:3], ends[3:])], dtype=object)
    den = w << 62
    rng = random.Random(seed)

    def draw(n: int) -> np.ndarray:
        bits = np.array([rng.getrandbits(62) for _ in range(3 * n)], dtype=object)
        return bits.reshape(n, 3) * width + base

    nums = draw(samples)
    counts = [0] * samples
    pending = list(range(samples))
    for _ in range(_RESAMPLE_LIMIT):
        got, border = _kernel_counts(z, lam, nums[pending], den)
        for slot, c in zip(pending, got):
            counts[slot] = c  # None on a boundary, replaced next round
        pending = [pending[i] for i in border]
        if not pending:
            break
        nums[pending] = draw(len(pending))
    else:
        raise ValueError(f"still on boundaries after {_RESAMPLE_LIMIT} resample rounds")
    hist = Counter(counts)
    dens = density(lam)
    if len(hist) == 1:
        level = counts[0]
        violations: tuple[tuple[Vec3, int], ...] = ()
        consistent = dens * z.volume() == level
    else:
        level = None
        mode = hist.most_common(1)[0][0]
        violations = tuple(
            (Vec3(*(Fraction(t, den) for t in nums[i])), c)
            for i, c in enumerate(counts)
            if c != mode
        )
        consistent = None
    return CoverageReport(level, samples, violations, dens, consistent, window, seed)
