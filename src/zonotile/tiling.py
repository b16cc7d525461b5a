"""Translate multisets and exact multiplicity verification.

Two descriptions of a translate multiset are supported: a weighted finite
union of shifted full-rank lattices, and a choice system that picks, per coset
of a rank-2 sublattice, one of two finite offset families. Each multiset is
read through ``TranslateFamily`` records, built once and kept on it: a shifted
lattice with a constant weight per lattice point or a count per coset.
``coverage``, ``verify_level``'s integer kernel, ``translate_multiplicity``
and ``density`` all read them, taking integers from the lattice and the shift.

Every full-rank multiset is counted by one integer kernel: ``verify_level``
counts all samples at once, ``coverage`` one point as a width-0 window. In
each family's lattice coordinates the body's facets become small integer
thresholds, so membership is exact at any coordinate scale. Samples are
kept as their 62-bit draws, one int64 (N, 3) array, and reach each
lattice's coordinates by one of two routes. While the window's and the
lattice's denominators are small (D = w rden < 2^31), the coordinates are
split on int64 limbs into an integer part and a P-bit fixed-point fraction,
with |G_f|_1 2^P < 2^62 for the largest facet row G_f, and per family a
sample's thresholds are settled on int64 unless a coordinate of its
fraction lies within about 2^-P of an integer or some G_f . fraction within
about |G_f|_1 2^-P of one; those rows take the exact formula on Python
ints. Otherwise, and where facet offsets or the coordinates of x - shift
reach 2^61, every row of the lattice takes the exact formula. No float
decides a count. ``_coverage_counts`` counts the slab identity check's
rank-2 offset records, a sampling round at once, by box walks and an
integer facet prefilter.
Points on a contributing translate's boundary raise BoundaryHit in
``coverage`` and are resampled by ``verify_level`` and the slab check.
"""

from __future__ import annotations

import math
import numbers
import random
from collections import Counter
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cached_property
from itertools import product
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .lattices import _INT64_SAFE, CosetEnumeration, Lattice, box_count, lattice_points_in_box
from .linalg import Vec3, int_row, int_triples
from .zonotope import BoundaryHit, Zonotope

__all__ = [
    "LatticeComponent",
    "LatticeUnion",
    "SlabChoice",
    "TranslateFamily",
    "CoverageReport",
    "density",
    "coverage",
    "translate_families",
    "verify_level",
]

# the int64 step runs while integer parts and h_f stay below this, so fl and q fit
_PART_SAFE = 2**61
# draws take the int64 limb step while D = w rden and every |M_ij| stay below these
_LIMB_DEN = 2**31
_LIMB_M = 2**29
_LOW31 = 2**31 - 1
_LOW62 = 2**62 - 1
# sample x candidate x facet cells compared in one broadcast
_CHUNK = 1 << 20
# lattice points one box walk of _coverage_counts spans at most before its points are split
_BOX_CAP = 1024
# boundary resample rounds before a window is given up
_RESAMPLE_LIMIT = 64
# lattice offsets of one family the kernel tries at most; checked before any is built
_KERNEL_LIMIT = 200_000


@dataclass(frozen=True, eq=False)
class TranslateFamily:
    """The translates shift + lattice. The translate at lattice coordinates k
    occurs counts[j] times if counts names its coset j of ``cosets``, else
    ``weight`` times. The record keeps no integers of its own: readers take
    the lattice's coordinate rows from ``lattice._coord_ints`` and the shift's
    numerators from ``int_row(shift)``.
    """

    lattice: Lattice
    shift: Vec3
    weight: int
    cosets: CosetEnumeration | None = None
    counts: Mapping[int, int] = field(default_factory=lambda: MappingProxyType({}))

    def count_at(self, nums: Sequence[int], den: int) -> int:
        """How often the translate nums / den occurs (0 if off the lattice)."""
        (p0, p1, p2), ((s0, s1, s2), sden) = nums, int_row(self.shift)
        v = (sden * p0 - den * s0, sden * p1 - den * s1, sden * p2 - den * s2)
        if (k := self.lattice._point_coords(v, den * sden)) is None:
            return 0
        if not self.counts:
            return self.weight
        return self.counts.get(self.cosets.index_of_coords(k), self.weight)

    def multiplicity(self, coords: np.ndarray) -> np.ndarray:
        """How often the translate at each row of (N, 3) lattice coordinates occurs."""
        if not self.counts:
            return np.full(len(coords), self.weight, dtype=np.int64)
        keys, inverse = np.unique(self.cosets.index_of_coords(coords), return_inverse=True)
        return np.array([self.counts.get(int(j), self.weight) for j in keys])[inverse]


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

    @cached_property
    def _families(self) -> tuple[TranslateFamily, ...]:
        return tuple(TranslateFamily(c.lattice, c.offset, c.weight) for c in self.components)


@dataclass(frozen=True)
class SlabChoice:
    """Per-coset choice between two offset families over a rank-2 sublattice.

    The translate multiset is the union over coset indices j of ``cosets``,
    built from gamma / sub, of (sub + rep(j)) + each offset of the selected
    family; cosets the choice map leaves out default to the first family. The
    choice map is kept read-only; a key that is not an integer (a bool, a
    string) names no coset and is refused.
    """

    gamma: Lattice
    sub: Lattice
    s_offsets: tuple[Vec3, ...]
    t_offsets: tuple[Vec3, ...]
    choice: Mapping[int, str] = field(default_factory=dict)
    expected_level: int | None = None
    cosets: CosetEnumeration = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.s_offsets) != len(self.t_offsets):
            raise ValueError("offset families must have equal size")
        object.__setattr__(self, "cosets", CosetEnumeration(self.gamma, self.sub))
        self._set_choice(self.choice)

    def _set_choice(self, choice: Mapping[int, str]) -> None:
        checked = {}
        for j, v in choice.items():
            if isinstance(j, bool) or not isinstance(j, numbers.Integral):
                raise ValueError(f"choice keys must be integer coset indices, not {j!r}")
            if v not in ("S", "T"):
                raise ValueError("choice values must be 'S' or 'T'")
            checked[int(j)] = v
        object.__setattr__(self, "choice", MappingProxyType(checked))

    def with_choice(self, choice: Mapping[int, str]) -> SlabChoice:
        """This multiset under another choice map; ``cosets`` is shared, ``_families`` is not."""
        out = object.__new__(SlabChoice)
        for f in fields(self):
            object.__setattr__(out, f.name, getattr(self, f.name))
        out._set_choice(choice)
        return out

    def offsets_for(self, j: int) -> tuple[Vec3, ...]:
        return self.t_offsets if self.choice.get(j, "S") == "T" else self.s_offsets

    @cached_property
    def _families(self) -> tuple[TranslateFamily, ...]:
        s, t = Counter(self.s_offsets), Counter(self.t_offsets)
        t_keys = [j for j, v in self.choice.items() if v == "T"]
        # one read-only {T coset: k} map per distinct T count k, shared by its families
        maps = {k: MappingProxyType(dict.fromkeys(t_keys, k)) for k in {0, *t.values()}}
        none = MappingProxyType({})
        return tuple(
            TranslateFamily(self.gamma, u, s[u], self.cosets, none if s[u] == t[u] else maps[t[u]])
            for u in s | t  # first-seen order, S before T
        )


@dataclass(frozen=True)
class CoverageReport:
    level: int | None
    samples: int
    violations: tuple[tuple[Vec3, int], ...]
    density: Fraction
    density_consistent: bool | None
    window: tuple[Vec3, Vec3]
    seed: int


def translate_families(lam: LatticeUnion | SlabChoice) -> tuple[TranslateFamily, ...]:
    """The multiset's ``TranslateFamily`` records, built once and kept on it: one
    of constant weight per union component, or one per distinct slab offset u
    over gamma, weighing u's count in the S family except in the cosets listed.
    """
    return lam._families


def density(lam: LatticeUnion | SlabChoice) -> Fraction:
    """Average number of translates per unit volume (a choice map is finite)."""
    return sum(
        (Fraction(f.weight) / f.lattice.covolume() for f in translate_families(lam)),
        Fraction(0),
    )


def coverage(z: Zonotope, lam: LatticeUnion | SlabChoice, x: Vec3) -> int:
    """Exact multiplicity sum_t [x in interior(z + t)] over the multiset.

    The one-point call of ``_kernel_counts``, on the width-0 window at x.
    Raises BoundaryHit at x when x lies on the boundary of a contributing
    translate, since interior counts are ill-defined there.
    """
    nums, den = int_row(x)
    point = _Draws(np.zeros((1, 3), dtype=np.int64), tuple(nums), (0, 0, 0), den)
    counts, border = _kernel_counts(z, lam, point)
    if border[0]:
        raise BoundaryHit(x)
    return int(counts[0])


def _coverage_counts(
    z: Zonotope, families: Sequence[TranslateFamily], nums: np.ndarray, den: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exact coverage counts at the points nums / den, and a mask of boundary points.

    nums is an (N, 3) object array of Python ints; families are the slab
    check's records u + G, one per distinct offset u, weighing u's count (>= 1)
    on its side. A point on a translate's boundary is marked in the mask, and
    its count means nothing. With [lo, hi] the body's
    bounding box, only a translate t in the closed box [x - hi, x - lo] can
    hold x in z + t, inside or on the boundary. So per family one
    ``lattice_points_in_box`` walk over the union of the points' boxes yields
    every candidate; while that box holds more than _BOX_CAP lattice points
    (``box_count``), the points are split at the median of their widest axis.
    A facet m . y <= h / zden holds at y = x - T / dt iff
    m . T >= ceil(dt (m . x - h / zden)), a Python-int ceiling per point and
    facet; the compare runs on int64 while every value is below _INT64_SAFE,
    else on object arrays. Only the pairs with x in the closed body z + t
    reach ``interior_mask``, which tells interior from boundary; a
    BoundaryHit marks the point it came from, and the family's other pairs
    are tested again.
    """
    n = len(nums)
    counts = np.zeros(n, dtype=np.int64)
    border = np.zeros(n, dtype=bool)
    zden, sides = z._den, z._facet_sides
    ms = np.array([m for m, *_ in sides], dtype=object)
    g1 = int(np.abs(ms).sum(axis=1).max())
    # ceil(dt (m . x - h / zden)) = ceil(dt p / q), (facets, N); one table per dt
    p = zden * (ms @ nums.T) - np.array([[h] for _, h, *_ in sides], dtype=object) * den
    q = den * zden
    rhs: dict[int, np.ndarray] = {}
    lo_z, hi_z = z.bounding_box()
    for fam in families:
        live = np.flatnonzero(~border)
        stack = [live] if len(live) else []
        while stack:
            rows = stack.pop()
            sub = nums[rows]
            a, b = sub.min(axis=0), sub.max(axis=0)
            lo, hi = Vec3.from_ints(*a, den) - hi_z, Vec3.from_ints(*b, den) - lo_z
            if (b != a).any() and box_count(fam.lattice, fam.shift, lo, hi) > _BOX_CAP:
                order = rows[np.argsort(sub[:, np.argmax(b - a)], kind="stable")]
                stack += [order[len(order) // 2 :], order[: len(order) // 2]]
                continue
            if not (pts := lattice_points_in_box(fam.lattice, fam.shift, lo, hi)):
                continue
            triples, dt = int_triples(pts)
            t = np.array(triples, dtype=object)
            if dt not in rhs:
                rhs[dt] = _int64(-((-dt * p) // q))
            r = rhs[dt][:, rows]
            if r.dtype == object or (int(np.abs(t).max()) + 1) * g1 >= _INT64_SAFE:
                gt, r = ms @ t.T, r.astype(object)
            else:
                gt = ms.astype(np.int64) @ t.T.astype(np.int64)
            # the (point, translate) pairs with x in the closed body z + t
            si, tj, step = [], [], max(1, _CHUNK // gt.size)
            for c0 in range(0, len(rows), step):
                s, j = np.nonzero((gt[:, None] >= r[:, c0 : c0 + step, None]).all(axis=0))
                si.append(rows[s + c0])
                tj.append(j)
            si, tj = np.concatenate(si), np.concatenate(tj)
            diffs = [
                Vec3.from_ints(x0 * dt - t0 * den, x1 * dt - t1 * den, x2 * dt - t2 * den, den * dt)
                for (x0, x1, x2), (t0, t1, t2) in zip(nums[si], t[tj])
            ]
            while diffs:
                try:
                    inside = np.array(z.interior_mask(diffs), dtype=bool)
                except BoundaryHit as hit:
                    keep = si != si[diffs.index(hit.point)]
                    border[si[~keep]] = True
                    si = si[keep]
                    diffs = [d for d, k in zip(diffs, keep) if k]
                    continue
                np.add.at(counts, si[inside], fam.weight)
                break
    return counts, border


def translate_multiplicity(lam: LatticeUnion | SlabChoice, point: Vec3) -> int:
    """How many times the point itself occurs in the translate multiset."""
    nums, den = int_row(point)
    return sum(fam.count_at(nums, den) for fam in translate_families(lam))


class _OffsetBox(NamedTuple):
    """A body's facet rows and candidate offsets in one lattice's coordinates."""

    gh: np.ndarray  # (facets, 4) objects: G_f and h_f
    ks: np.ndarray  # (offsets, 3) offsets k, int64 when they fit
    gk: np.ndarray  # (offsets, facets) k @ G^T, int64 when it fits
    gh64: np.ndarray | None  # gh as int64, None when the int64 step cannot run
    bits: int  # P, the fixed-point fraction bits of the int64 step


def _int64(t: np.ndarray) -> np.ndarray:
    """t as int64 when every entry is below _INT64_SAFE in size, else t."""
    return t.astype(np.int64) if np.abs(t).max(initial=0) < _INT64_SAFE else t


def _fraction_bits(g1: int) -> int:
    """P for facet rows of largest |G_f|_1 = g1: g1 * 2^P stays below 2^62."""
    return 62 - g1.bit_length()


def _fixed(u, d: int, bits: int):
    """u // d and floor(2^bits * frac(u / d)), on ints or object arrays."""
    fl = u // d
    return fl, ((u - fl * d) << bits) // d


class _Draws(NamedTuple):
    """Window samples kept as their 62-bit draws r, an int64 (N, 3) array.

    Coordinate j of sample i is (lo_j + width_j r_ij / 2^62) / w, that is
    the numerator (lo_j << 62) + width_j r_ij over den = w << 62.
    """

    r: np.ndarray
    lo: tuple[int, int, int]
    width: tuple[int, int, int]
    w: int

    @property
    def den(self) -> int:
        return self.w << 62

    def nums(self, rows=slice(None)) -> np.ndarray:
        """The Python-int numerators of the given rows, an (n, 3) object array."""
        base = np.array([a << 62 for a in self.lo], dtype=object)
        return self.r[rows].astype(object) * np.array(self.width, dtype=object) + base

    def points(self, rows=slice(None)) -> list[Vec3]:
        """The samples of the given rows as ``Vec3``s."""
        return [Vec3.from_ints(*p, self.den) for p in self.nums(rows)]


def _draw(rng: random.Random, n: int) -> np.ndarray:
    """3n values of rng.getrandbits(62) as an int64 (n, 3) array, from one call.

    getrandbits(62) takes two 32-bit words, low word first, and drops the two
    low bits of the second; getrandbits(192 n) takes the same 6n words in the
    same order, so the values and the generator's later state are the same.
    """
    w = np.frombuffer(rng.getrandbits(192 * n).to_bytes(24 * n, "little"), "<u4").astype(np.int64)
    return (w[0::2] | (w[1::2] >> 2) << 32).reshape(n, 3)


def _limb_coords(draws: _Draws, rows, rden: int, bits: int):
    """fu - c, fx and c of the draws' lattice coordinates, on int64, or None.

    For coordinate rows R over rden, let L = R lo and M = R diag(width), as
    Python ints, and D = w rden. Coordinate i is u_i / d = (L_i + S_i / 2^62)
    / D with S = r @ M^T. Split r = a 2^31 + b: A = a @ M^T and B = b @ M^T
    are exact on int64 while |M| < 2^29, and with C = (A mod 2^31) 2^31 + B,
    S = s_hi 2^62 + s_lo for s_hi = (A >> 31) + (C >> 62) and s_lo = C mod
    2^62. With c = L // D and T = L - c D + s_hi, the integer part is
    c + T // D, and the fraction's P bits are floor(2^P (m + s_lo / 2^62) / D)
    for m = T mod D, found by long division in chunks of 62 - bitlen(D) bits;
    each chunk is exact on int64, since the remainder stays below D. c is kept
    apart, so fu - c stays small when the window is far from the origin.
    None when D >= 2^31 or some |M_ij| >= 2^29.
    """
    d = draws.w * rden
    m = [[rij * wj for rij, wj in zip(row, draws.width)] for row in rows]
    if d >= _LIMB_DEN or max(abs(v) for row in m for v in row) >= _LIMB_M:
        return None
    big = [sum(rij * lj for rij, lj in zip(row, draws.lo)) for row in rows]
    c = tuple(t // d for t in big)
    mt = np.array(m, dtype=np.int64).T
    a, b = draws.r >> 31, draws.r & _LOW31
    hi = a @ mt
    low = ((hi & _LOW31) << 31) + b @ mt
    t = np.array([v - ci * d for v, ci in zip(big, c)], dtype=np.int64) + (hi >> 31) + (low >> 62)
    fu = t // d
    rem = t - fu * d
    # the fraction's bits below m: the top P bits of s_lo
    tail = (low & _LOW62) >> (62 - bits)
    fx = np.zeros_like(rem)
    step, left = 62 - d.bit_length(), bits
    while left > 0:
        k = min(step, left)
        left -= k
        rem = (rem << k) | ((tail >> left) & ((1 << k) - 1))
        q = rem // d
        rem -= q * d
        fx = (fx << k) | q
    return fu, fx, c


def _offset_box(z: Zonotope, lat: Lattice) -> _OffsetBox:
    """Facet rows (G_f, h_f) in lat's coordinates, offsets k and k @ G^T.

    For basis rows B_i over bden and a facet m . x <= h / zden, sum_i w_i b_i
    is on its inner side iff sum_i zden (m . B_i) w_i <= h bden (over the gcd).
    The box is built once per body and lattice and kept on the body. The
    offsets are counted before any is built: at most _KERNEL_LIMIT, and at
    most 6 * _KERNEL_LIMIT offset-facet cells (a 6-facet body at the offset
    bound). The int64 step runs when |h_f| < 2^61 and P >= 1.
    """
    if (box := z._boxes.get(lat)) is not None:
        return box
    basis, bden = lat._basis_ints
    rows = []
    for (m0, m1, m2), h, *_ in z._facet_sides:
        row = [z._den * (m0 * b0 + m1 * b1 + m2 * b2) for b0, b1, b2 in basis] + [h * bden]
        q = math.gcd(*row)
        rows.append([c // q for c in row])
    coord, cden = lat._coord_ints
    ranges = [range(math.floor(-z.support_value(-r)), math.floor(z.support_value(r)) + 1)
              for r in (Vec3.from_ints(*c, cden) for c in coord[: lat.rank])]
    if (size := math.prod(map(len, ranges))) > _KERNEL_LIMIT:
        raise ValueError(f"body spans {size} lattice offsets, more than {_KERNEL_LIMIT}")
    if (cells := size * len(rows)) > 6 * _KERNEL_LIMIT:
        raise ValueError(
            f"body spans {size} lattice offsets on {len(rows)} facets, {cells} cells,"
            f" more than {6 * _KERNEL_LIMIT}"
        )
    gh = np.array(rows, dtype=object)
    ks = np.array(list(product(*ranges)), dtype=object)
    bits = _fraction_bits(max(sum(map(abs, row[:3])) for row in rows))
    fits = bits > 0 and max(abs(h) for *_, h in rows) < _PART_SAFE
    gh64 = gh.astype(np.int64) if fits else None
    box = z._boxes[lat] = _OffsetBox(gh, _int64(ks), _int64(ks @ gh[:, :3].T), gh64, bits)
    return box


def _settle(fu, fx, shift_parts, gh64: np.ndarray, bits: int):
    """fl and q of one family from fixed-point lattice coordinates, on int64.

    fu and fx are (N, 3) integer parts and P-bit fractions of x's lattice
    coordinates, shift_parts those of the shift's; both integer parts may be
    less the same c, which cancels. With a borrow, fl = fu - fc
    (less 1 where fx < fxc) and F = fx - fxc (plus 2^P there). Each fraction
    is off by less than 1 unit of 2^-P, so the true P-scaled fraction 2^P phi
    of x - shift lies in (F - 1, F + 1), and 2^P G_f . phi lies strictly
    between lo = G_f . F - |G_f|_1 and hi = G_f . F + |G_f|_1. A row is
    settled when no coordinate of F is 0, so 0 < phi < 1 and fl is exact,
    and lo >> P == hi >> P for every facet, so G_f . phi is not an integer
    and its ceiling is (hi >> P) + 1: q = h_f - that ceiling and thr = q + 1.
    The returned mask marks the settled rows; fl and q mean nothing elsewhere.
    """
    fc, fxc = (np.array(t, dtype=np.int64) for t in zip(*shift_parts))
    f = fx - fxc
    borrow = (f < 0).astype(np.int64)
    f += borrow << bits
    g, g1 = gh64[:, :3], np.abs(gh64[:, :3]).sum(axis=1)
    gf = f @ g.T
    floor = (gf + g1) >> bits
    settled = ((gf - g1) >> bits == floor).all(axis=1) & f.all(axis=1)
    return fu - fc - borrow, gh64[:, 3] - floor - 1, settled


def _exact(nums: np.ndarray, den: int, fam: TranslateFamily, gh: np.ndarray):
    """fl, q and thr of one family at the points nums / den, on Python ints."""
    (rows, rden), ((s0, s1, s2), sden) = fam.lattice._coord_ints, int_row(fam.shift)
    # row i: r_i and r_i . shift, times rden * sden
    a = np.array(
        [(r0 * sden, r1 * sden, r2 * sden, r0 * s0 + r1 * s1 + r2 * s2) for r0, r1, r2 in rows],
        dtype=object,
    )
    big = den * rden * sden
    y = nums @ a[:, :3].T - a[:, 3] * den
    fl = y // big
    side = gh[:, 3] * big - (y - fl * big) @ gh[:, :3].T
    q = side // big
    return fl, q, q + (side - q * big != 0)


def _kernel_counts(
    z: Zonotope, lam: LatticeUnion | SlabChoice, draws: _Draws
) -> tuple[np.ndarray, np.ndarray]:
    """Exact coverage counts at window draws, and a mask of boundary points.

    A point on a contributing translate's boundary is marked in the mask, and
    its count means nothing. Per family, with lattice coordinates y of
    x - shift, the translate at lattice point floor(y) - k covers x iff
    k + frac(y) satisfies every facet G_f . w < h_f of the body's image; only
    the k of the image's bounding box (``_offset_box``) can. Scaled to
    integers per facet: interior iff G_f . k < thr, closed iff G_f . k <= q,
    q = floor(h_f - G_f . frac(y)) and thr = q + 1 unless that floor is exact.

    The coordinate step runs once per lattice, by one of two routes. While
    D = w rden < 2^31 and |M| < 2^29, ``_limb_coords`` gives x's lattice
    coordinates on int64 limbs as integer parts fu and P-bit fractions fx,
    with |G_f|_1 2^P < 2^62 for every facet (``_fraction_bits``), and a
    Python-int c per lattice kept apart from fu; c is taken off the shift's
    integer parts instead, so fl = fu - fc - borrow is unchanged. ``_settle``
    then finds fl, q and thr per family on int64 for each row unless a
    coordinate of frac(y) lies within about 2^-P of an integer or some
    G_f . frac(y) within about |G_f|_1 2^-P of one; no boundary point
    settles, and the other rows take ``_exact`` on Python ints. Otherwise
    every row takes ``_exact``: past the limb bounds, where h_f reaches 2^61,
    and for a family whose shift's integer parts less c do. Python-int
    numerators of the draws are built only for the rows that need them. Both
    kinds of row feed one scan; no float is computed.
    """
    n, den, nums = len(draws.r), draws.den, None
    counts = np.zeros(n, dtype=np.int64)
    border = np.zeros(n, dtype=bool)
    coords: dict[Lattice, tuple | None] = {}
    for fam in translate_families(lam):
        lat = fam.lattice
        rows, rden = lat._coord_ints
        gh, ks, gk, gh64, bits = _offset_box(z, lat)
        if lat not in coords:
            coords[lat] = None if gh64 is None else _limb_coords(draws, rows, rden, bits)
        rest = np.arange(n)
        if (xc := coords[lat]) is not None:
            # the shift's lattice coordinates r_i . s / (sden rden), fixed-point,
            # less the lattice's c
            fu, fx, c = xc
            (a0, a1, a2), sd = int_row(fam.shift)
            sd *= rden
            parts = [_fixed(r0 * a0 + r1 * a1 + r2 * a2, sd, bits) for r0, r1, r2 in rows]
            parts = [(fc - ci, fxc) for (fc, fxc), ci in zip(parts, c)]
            if max(abs(fc) for fc, _ in parts) < _PART_SAFE:
                fl, q, settled = _settle(fu, fx, parts, gh64, bits)
                thr = q + 1
                rest = np.flatnonzero(~settled)
        if len(rest) == n:
            if nums is None:
                nums = draws.nums()
            fl, q, thr = (_int64(t) for t in _exact(nums, den, fam, gh))
        elif len(rest):
            # these values fit: fl is within 1 of fu - fc, and |q| <= |h_f| + |G_f|_1
            rows = nums[rest] if nums is not None else draws.nums(rest)
            fl[rest], q[rest], thr[rest] = _exact(rows, den, fam, gh)
        step = max(1, _CHUNK // gk.size)
        for c0 in range(0, n, step):
            si, ki = np.nonzero((gk[None] <= q[c0 : c0 + step, None]).all(axis=2))
            si += c0
            inside = (gk[ki] < thr[si]).all(axis=1)
            m = fam.multiplicity(fl[si] - ks[ki])
            np.add.at(counts, si[inside], m[inside])
            border[si[~inside & (m > 0)]] = True
    return counts, border


def _sample(
    window: tuple[Vec3, Vec3],
    samples: int,
    seed: int,
    count: Callable[[_Draws], tuple[np.ndarray, np.ndarray]],
) -> tuple[_Draws, np.ndarray]:
    """Draw window samples from random.Random(seed) and count them with count.

    count(draws) returns the draws' counts and a mask of those on a boundary,
    whose counts mean nothing; these are redrawn in slot order and counted
    again, for at most _RESAMPLE_LIMIT counting rounds. Returns draws, counts.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    (lo, hi), w = int_triples(window)
    width = tuple(b - a for a, b in zip(lo, hi))
    if min(width) <= 0:
        raise ValueError("window needs lo < hi in every coordinate")
    rng = random.Random(seed)
    r = _draw(rng, samples)
    counts, border = count(_Draws(r, lo, width, w))
    pending = np.flatnonzero(border)
    for _ in range(_RESAMPLE_LIMIT - 1):
        if not len(pending):
            break
        r[pending] = _draw(rng, len(pending))
        # a boundary sample's count is replaced
        counts[pending], border = count(_Draws(r[pending], lo, width, w))
        pending = pending[border]
    if len(pending):
        raise ValueError(f"still on boundaries after {_RESAMPLE_LIMIT} resample rounds")
    return _Draws(r, lo, width, w), counts


def verify_level(
    z: Zonotope,
    lam: LatticeUnion | SlabChoice,
    window: tuple[Vec3, Vec3],
    samples: int = 200,
    seed: int = 0,
) -> CoverageReport:
    """Sample coverage at random window points and report the observed level.

    level is the common count when all samples agree, else None with the
    off-mode samples listed as violations. Boundary hits are resampled by
    ``_sample``. density_consistent compares density * volume against the
    observed level.
    """
    draws, counts = _sample(window, samples, seed, lambda d: _kernel_counts(z, lam, d))
    values, first, freq = np.unique(counts, return_index=True, return_counts=True)
    dens = density(lam)
    if len(values) == 1:
        level = int(values[0])
        violations: tuple[tuple[Vec3, int], ...] = ()
        consistent = dens * z.volume() == level
    else:
        level = None
        # the most frequent count; a tie goes to the count seen first
        top = freq == freq.max()
        mode = values[top][np.argmin(first[top])]
        off = np.flatnonzero(counts != mode)
        violations = tuple(zip(draws.points(off), counts[off].tolist()))
        consistent = None
    return CoverageReport(level, samples, violations, dens, consistent, window, seed)
