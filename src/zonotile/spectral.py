"""Fourier side of the frame obstruction.

Each frame carries a signed measure: arc length on its four parallel legs
with weights (+,-,-,+), normalized so the leg at the lexicographically
smallest base point gets weight +1. Pairing any tiling translate set against
this measure kills it, which on the Fourier side pins the spectrum of the
translate set inside the measure's zero set. Membership in that zero set is
decided exactly for rational frequencies, and the support bound for periodic
translate sets is verified with exact root-of-unity arithmetic so that
cancellation is never a floating-point judgement call.

Both run on integers: a frequency is an integer triple over one denominator,
the dual lattices and the frames carry their vectors cleared to integers, and
every pairing (ball, zero-set planes, phase numerators) is an integer dot
product. The support check holds its frequencies as rows of one integer
array (int64 under a bound checked up front, Python ints past it), takes each
pairing as one matrix product, and asks ``zero_set_member``, the one statement
of the zero-set rule, once per residue class of the frame pairings.
``Fraction`` values appear only as the root-of-unity phases and in the
reported frequencies.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .lattices import _INT64_SAFE, box_count, box_point_ints, dual_lattice, lattice_points_in_box
from .linalg import VEC_ZERO, Vec3, int_row, rat
from .tiling import LatticeUnion
from .zonotope import Frame, Zonotope

__all__ = [
    "PlaneFamily",
    "LegMeasure",
    "leg_measure",
    "leg_ft",
    "zero_set_member",
    "SupportReport",
    "support_bound_check",
    "PairingReport",
    "leg_level_zero_check",
    "gaussian_leg_pairing",
]

# dual box points support_bound_check builds at most, as ``--materialize``
_CANDIDATE_LIMIT = 200_000
# steps rou_sum_is_zero takes at most, counted as q * (q - phi(q) + 1) for q
# the lcm of the phase denominators: building phi_q divides x^q - 1 by the
# cyclotomic polynomial of every proper divisor of q, whose degrees sum to
# q - phi(q), and the reduction takes at most (q - phi(q)) * phi(q) steps.
# Below it a cold call takes at most about 0.6 s CPU on a 2-core x86 box (a
# prime q near 2^20, whose count is 2q); q = 30030 counts 7.3e8 and took 74 s.
_PHASE_WORK_LIMIT = 2**21


@dataclass(frozen=True)
class PlaneFamily:
    """Frequencies whose pairing with a segment direction is integral.

    The family {xi : <xi, vector> in Z}, with the nonzero-integer variant
    (punctured=True) used for the frame edge, whose transform also vanishes
    nowhere on the zeroth plane.
    """

    vector: Vec3
    punctured: bool = False

    def __post_init__(self):
        if self.vector.is_zero():
            raise ValueError("zero vector")


@dataclass(frozen=True)
class LegMeasure:
    frame: Frame
    sign: int

    def legs(self) -> tuple[tuple[Vec3, Vec3, int], ...]:
        """(base, edge, weight) for the four legs, weights summing to zero."""
        e, s = self.frame.e, self.sign
        return tuple((b, e, w) for b, w in zip(self.frame.leg_bases(), (s, -s, -s, s)))

    def zero_set(self) -> tuple[PlaneFamily, PlaneFamily, PlaneFamily]:
        fr = self.frame
        return (
            PlaneFamily(fr.e, punctured=True),
            PlaneFamily(fr.tau1),
            PlaneFamily(fr.tau2),
        )


def leg_measure(fr: Frame) -> LegMeasure:
    if fr.is_degenerate():
        raise ValueError("degenerate frame carries no usable measure")
    bases = fr.leg_bases()
    low = min(bases)
    sign = 1 if low in (bases[0], bases[3]) else -1
    return LegMeasure(fr, sign)


def _phase(s) -> complex:
    """exp(-2 pi i s), reducing rational s mod 1 first for precision."""
    if isinstance(s, Fraction):
        s = s - math.floor(s)
    return cmath.exp(-2j * math.pi * float(s))


def _sinc(s: float) -> float:
    if abs(s) < 1e-9:
        return 1.0
    return math.sin(math.pi * s) / (math.pi * s)


def leg_ft(m: LegMeasure, xi) -> complex:
    """Fourier transform integral exp(-2 pi i <xi, y>) d(measure)(y).

    Closed form: the edge factor is |e| * phase(<xi, base + e/2>) * sinc of
    <xi, e>, and each frame offset contributes (1 - phase(<xi, tau>)).
    Accepts an exact Vec3 or a float 3-tuple.
    """
    fr = m.frame
    c, den = fr.vector_ints()
    vs = (c[:3], c[3:6], c[6:], fr._base)
    if isinstance(xi, Vec3):
        # exact pairings: integer dots over xi's and the frame's denominators
        (x0, x1, x2), d = int_row(xi)
        se, s1, s2, sb = (Fraction(x0 * v0 + x1 * v1 + x2 * v2, d * den) for v0, v1, v2 in vs)
    else:
        # x_i * (v_i / den) rounds as float * Fraction does; sum() rounds differently from 3.12
        x0, x1, x2 = (float(t) for t in xi)
        se, s1, s2, sb = (x0 * (v0 / den) + x1 * (v1 / den) + x2 * (v2 / den) for v0, v1, v2 in vs)
    sb += se / 2
    length = math.sqrt((c[0] ** 2 + c[1] ** 2 + c[2] ** 2) / den**2)
    val = m.sign * length * _sinc(float(se)) * _phase(sb)
    return val * (1 - _phase(s1)) * (1 - _phase(s2))


def zero_set_member(fr: Frame, xi: Vec3) -> bool:
    """Exact test that the frame measure's transform vanishes at rational xi.

    It does iff <xi, e> is a nonzero integer or <xi, tau1> or <xi, tau2> is
    an integer; each pairing is an integer dot product over the frame's and
    xi's denominators.
    """
    (x0, x1, x2), d = int_row(xi)
    (e0, e1, e2, a0, a1, a2, b0, b1, b2), den = fr.vector_ints()
    m = d * den
    se = x0 * e0 + x1 * e1 + x2 * e2
    if se and se % m == 0:
        return True
    return (x0 * a0 + x1 * a1 + x2 * a2) % m == 0 or (x0 * b0 + x1 * b1 + x2 * b2) % m == 0


# -- exact vanishing of weighted root-of-unity sums -------------------------


def _poly_div_int(num: list[int], den: tuple[int, ...]) -> list[int]:
    # exact division of integer polynomials, divisor monic, ascending coeffs
    out = [0] * (len(num) - len(den) + 1)
    work = list(num)
    for i in range(len(out) - 1, -1, -1):
        c = work[i + len(den) - 1]
        out[i] = c
        for j, d in enumerate(den):
            work[i + j] -= c * d
    if any(work):
        raise ArithmeticError("inexact polynomial division")
    return out


def _totient(n: int) -> int:
    out, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple[int, ...]:
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div_int(poly, _cyclotomic(d))
    return tuple(poly)


def rou_sum_is_zero(terms: Sequence[tuple[Fraction, Fraction]]) -> bool:
    """Does sum of coeff * exp(-2 pi i phase) vanish, decided exactly.

    Writes the sum as a rational polynomial in a primitive q-th root of unity
    (q the lcm of phase denominators) and reduces modulo the q-th cyclotomic
    polynomial; the sum is zero iff the remainder is the zero polynomial.
    The coefficients are cleared to integers first, so the reduction runs on
    integers (phi is monic with integer coefficients).

    Building phi_q divides x^q - 1 by the cyclotomic polynomial of every
    proper divisor of q, so the call takes about q * (q - phi(q) + 1) steps:
    2q for a prime q, far more for a q with many divisors. Raises
    ValueError, before the coefficient list or phi_q is built, when that
    count passes _PHASE_WORK_LIMIT.
    """
    nums, q = int_row(phase for _, phase in terms)
    # the count is at least q, so q alone refuses a large one before it is factored
    if q > _PHASE_WORK_LIMIT or q * (q - _totient(q) + 1) > _PHASE_WORK_LIMIT:
        raise ValueError(
            f"phase denominator {q} needs more than {_PHASE_WORK_LIMIT} reduction steps"
        )
    weights, _ = int_row(coeff for coeff, _ in terms)
    coeffs = [0] * q
    for w, num in zip(weights, nums):
        coeffs[-num % q] += w
    phi = _cyclotomic(q)
    deg = len(phi) - 1
    for i in range(q - 1, deg - 1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        coeffs[i] = 0
        for j, d in enumerate(phi[:-1]):
            coeffs[i - deg + j] -= c * d
    return not any(coeffs[:deg])


@dataclass(frozen=True)
class SupportReport:
    radius: Fraction
    candidates: int
    violations: tuple[Vec3, ...]
    cancelled: tuple[Vec3, ...]
    holds: bool


def _first_seen_groups(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, labels) for the distinct rows of the (N, k) array a.

    first[g] is the index of group g's first row and labels[n] the group of
    row n, the groups numbered in the order their first rows appear. The
    lexsort is stable, so each run of equal rows starts at its first row; it
    sorts int64 and object arrays alike.
    """
    order = np.lexsort(a.T[::-1])
    s = a[order]
    new = np.ones(len(a), dtype=bool)
    new[1:] = (s[1:] != s[:-1]).any(axis=1)
    heads = order[new]
    by_first = np.argsort(heads)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(len(by_first))
    labels = np.empty(len(a), dtype=np.intp)
    labels[order] = rank[np.cumsum(new) - 1]
    return heads[by_first], labels


def support_bound_check(z: Zonotope, lam: LatticeUnion, radius) -> SupportReport:
    """Verify the spectrum of a periodic translate set obeys the frame bound.

    Enumerates every frequency of the union's dual lattices up to the given
    Euclidean radius, computes its weight as an exact root-of-unity sum, and
    demands that each frequency with nonvanishing weight is either zero or in
    the transform zero set of every frame. Frequencies whose weights cancel
    exactly are exempt and reported separately.

    Frequencies are integer triples X over one denominator q, xi = X / q, held
    as rows of one array: the ball test, the phase numerators <offset, xi> and
    the frame pairings are integer matrix products. Each component's dual box
    parallelepiped holds every point of its dual lattice in the cube
    [-r, r]^3, which holds the ball, exactly once, so xi is in that dual
    exactly when that box yields it. The dual box points are counted before
    any is built: at most _CANDIDATE_LIMIT. The arrays are int64 when the
    largest box numerator bounds every product below _INT64_SAFE, checked
    before any product, and hold Python ints otherwise.

    Rows are grouped by a stable lexsort, in first-seen order, so the reports
    keep the order of the component-by-component scan. A frequency's weight
    depends only on its cancellation key: the pairs (component index, phase
    numerator mod that component's denominator) over the components whose
    dual lattice holds it. Each distinct key of a nonzero frequency is reduced
    once, by rou_sum_is_zero, which raises ValueError when a key's phases need
    more than _PHASE_WORK_LIMIT reduction steps: offsets with a denominator
    past about 2^20, or one with many divisors (30030). Zero-set membership
    depends only on <X, v> mod q den for each frame vector v over its
    denominator den, and on whether <X, e> is zero, so zero_set_member decides
    one representative of each such residue class.
    """
    if not isinstance(lam, LatticeUnion):
        raise ValueError("periodic description required")
    r = rat(radius)
    if r <= 0:
        raise ValueError("radius must be positive")
    corner = Vec3(r, r, r)
    duals = [dual_lattice(c.lattice) for c in lam.components]
    if (size := sum(box_count(d, VEC_ZERO, -corner, corner) for d in duals)) > _CANDIDATE_LIMIT:
        raise ValueError(f"radius {r} spans {size} dual points, more than {_CANDIDATE_LIMIT}")
    boxes = [box_point_ints(d, VEC_ZERO, -corner, corner) for d in duals]
    q = math.lcm(*(den for _, den in boxes))
    # |X|^2 / q^2 <= r^2, cleared of denominators
    ball = (r.numerator * q) ** 2
    rd2 = r.denominator**2
    offsets = [int_row(c.offset) for c in lam.components]
    oqs = [oden * q for _, oden in offsets]
    frames = z.frames()
    ints = [fr.vector_ints() for fr in frames]
    # rows e, tau1, tau2 of every frame, and the modulus q den of each row
    vecs = [c[i : i + 3] for c, _ in ints for i in (0, 3, 6)]
    mods = [q * den for _, den in ints for _ in range(3)]
    # every entry of X, and q, is at most xmax in size, so each product below is
    # at most xmax |v|_1 for v an offset or frame row
    xmax = max(q, *(int(np.abs(pts).max(initial=0)) * (q // den) for pts, den in boxes))
    vmax = max(sum(map(abs, v)) for v in [o for o, _ in offsets] + vecs)
    wide = max(3 * xmax * xmax * rd2, ball, xmax * vmax, *oqs, *mods) >= _INT64_SAFE
    dtype = object if wide else np.int64
    # each component's ball points in box order, and their phase numerators
    rows, phase = [], []
    for (pts, den), (o, _), oq in zip(boxes, offsets, oqs):
        pts, s = pts.astype(dtype), q // den
        x = pts[(pts * pts).sum(axis=1) * (s * s * rd2) <= ball] * s
        rows.append(x)
        phase.append(x @ np.array(o, dtype=dtype) % oq)
    points = np.concatenate(rows)
    first, labels = _first_seen_groups(points)
    freqs = points[first]
    # key row of each distinct frequency: its phase numerator per component, -1 off its dual
    keys = np.full((len(freqs), len(rows)), -1, dtype=dtype)
    keys[labels, np.repeat(np.arange(len(rows)), [len(x) for x in rows])] = np.concatenate(phase)
    # the weights are positive, so the zero frequency never cancels
    nonzero = np.flatnonzero((freqs != 0).any(axis=1))
    kfirst, klabels = _first_seen_groups(keys[nonzero])
    weights = [Fraction(c.weight) / c.lattice.covolume() for c in lam.components]
    zero = np.array(
        [
            rou_sum_is_zero(
                [(w, Fraction(n, oq)) for w, n, oq in zip(weights, key, oqs) if n >= 0]
            )
            for key in keys[nonzero[kfirst]].tolist()
        ],
        dtype=bool,
    )[klabels]
    cancelled = nonzero[zero]
    rest = nonzero[~zero]
    pairs = freqs[rest] @ np.array(vecs, dtype=dtype).T
    classes = np.concatenate([pairs % np.array(mods, dtype=dtype), pairs[:, ::3] != 0], axis=1)
    cfirst, clabels = _first_seen_groups(classes)
    member = np.array(
        [
            all(zero_set_member(fr, Vec3.from_ints(*x, q)) for fr in frames)
            for x in freqs[rest[cfirst]].tolist()
        ],
        dtype=bool,
    )[clabels]
    violations = rest[~member]
    return SupportReport(
        r,
        len(freqs),
        tuple(Vec3.from_ints(*x, q) for x in freqs[violations].tolist()),
        tuple(Vec3.from_ints(*x, q) for x in freqs[cancelled].tolist()),
        not len(violations),
    )


# -- Gaussian pairing check --------------------------------------------------


@dataclass(frozen=True)
class PairingReport:
    passed: bool
    max_abs: float
    values: tuple[float, ...]
    trials: int
    tol: float
    seed: int


def _leg_integral(
    base: Vec3, edge: Vec3, shifts: np.ndarray, center: np.ndarray, tol: float
) -> float:
    """integral over the segment, summed over shifted copies, of the unit
    Gaussian at center; Gauss-Legendre panels doubled until stable."""
    b = np.array(base.as_floats())
    e = np.array(edge.as_floats())
    length = math.sqrt(float(edge.norm_sq()))
    prev = None
    panels = 1
    while True:
        x0, w0 = leggauss(32)
        nodes = np.concatenate(
            [(x0 + 1.0) / (2.0 * panels) + k / panels for k in range(panels)]
        )
        weights = np.tile(w0 / (2.0 * panels), panels)
        pts = b + nodes[:, None] * e  # (n, 3)
        diff = pts[None, :, :] + shifts[:, None, :] - center
        vals = np.exp(-0.5 * np.einsum("knj,knj->kn", diff, diff))
        total = length * float(np.einsum("kn,n->", vals, weights))
        if prev is not None and abs(total - prev) < tol / 100.0:
            return total
        if panels >= 256:
            return total
        prev = total
        panels *= 2


def gaussian_leg_pairing(
    legs: Sequence[tuple[Vec3, Vec3, float]],
    lam: LatticeUnion,
    center: Sequence[float],
    tol: float = 1e-8,
) -> float:
    """Pair weighted segments, translated by the whole set, with a unit
    Gaussian at center, truncating lattice sums at eight standard deviations.
    """
    c = np.array([float(v) for v in center])
    ends = [b.as_floats() for b, _, _ in legs]
    ends += [(b + e).as_floats() for b, e, _ in legs]
    lo_l = [min(p[i] for p in ends) for i in range(3)]
    hi_l = [max(p[i] for p in ends) for i in range(3)]
    lo = Vec3(*(Fraction(float(c[i])) - Fraction(hi_l[i]) - 8 for i in range(3)))
    hi = Vec3(*(Fraction(float(c[i])) - Fraction(lo_l[i]) + 8 for i in range(3)))
    total = 0.0
    for comp in lam.components:
        pts = lattice_points_in_box(comp.lattice, comp.offset, lo, hi)
        if not pts:
            continue
        shifts = np.array([p.as_floats() for p in pts])
        for base, edge, weight in legs:
            total += comp.weight * weight * _leg_integral(base, edge, shifts, c, tol)
    return total


def leg_level_zero_check(
    m: LegMeasure,
    lam: LatticeUnion,
    trials: int = 6,
    tol: float = 1e-8,
    seed: int = 0,
) -> PairingReport:
    """Numerically confirm the translate-summed frame measure kills Gaussians.

    For each trial a unit Gaussian is centered at a random point of the first
    component's basis box; the pairing must vanish to within tol. A failing
    report (not an exception) is returned when it does not, so callers can
    surface the offending values. Needs trials >= 1 and a finite tol > 0.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    rng = random.Random(seed)
    basis = lam.components[0].lattice.basis
    vals = []
    for _ in range(trials):
        coeffs = [rng.random() for _ in basis]
        center = [
            sum(t * float(b.as_floats()[i]) for t, b in zip(coeffs, basis))
            for i in range(3)
        ]
        vals.append(gaussian_leg_pairing(m.legs(), lam, center, tol))
    mx = max(abs(v) for v in vals)
    return PairingReport(mx < tol, mx, tuple(vals), trials, tol, seed)
