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
every pairing (ball, dual membership, zero-set planes, phase numerators) is an
integer dot product. ``Fraction`` values appear only as the phases handed to
the root-of-unity reduction and in the reported frequencies.
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

from .lattices import box_count, box_point_ints, dual_lattice, lattice_points_in_box
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

    def contains(self, xi: Vec3) -> bool:
        s = xi.dot(self.vector)
        if s.denominator != 1:
            return False
        return s != 0 if self.punctured else True


@dataclass(frozen=True)
class LegMeasure:
    frame: Frame
    sign: int

    def legs(self) -> tuple[tuple[Vec3, Vec3, int], ...]:
        """(base, edge, weight) for the four legs, weights summing to zero."""
        fr = self.frame
        b = fr.base
        return (
            (b, fr.e, self.sign),
            (b + fr.tau1, fr.e, -self.sign),
            (b + fr.tau2, fr.e, -self.sign),
            (b + fr.tau1 + fr.tau2, fr.e, self.sign),
        )

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
    if isinstance(xi, Vec3):
        se = xi.dot(fr.e)
        s1 = xi.dot(fr.tau1)
        s2 = xi.dot(fr.tau2)
        sb = xi.dot(fr.base) + se / 2
    else:
        fx = tuple(float(c) for c in xi)

        def fdot(v: Vec3) -> float:
            vf = v.as_floats()
            return fx[0] * vf[0] + fx[1] * vf[1] + fx[2] * vf[2]

        se = fdot(fr.e)
        s1 = fdot(fr.tau1)
        s2 = fdot(fr.tau2)
        sb = fdot(fr.base) + se / 2
    length = math.sqrt(float(fr.e.norm_sq()))
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
    """
    nums, q = int_row(phase for _, phase in terms)
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


def support_bound_check(z: Zonotope, lam: LatticeUnion, radius) -> SupportReport:
    """Verify the spectrum of a periodic translate set obeys the frame bound.

    Enumerates every frequency of the union's dual lattices up to the given
    Euclidean radius, computes its weight as an exact root-of-unity sum, and
    demands that each frequency with nonvanishing weight is either zero or in
    the transform zero set of every frame. Frequencies whose weights cancel
    exactly are exempt and reported separately.

    Frequencies are integer triples X over one denominator q, xi = X / q: the
    ball test, dual membership (<xi, b> integral for every basis vector b)
    and the phase numerators <offset, xi> are integer dot products. The dual
    box points are counted before any is built: at most _CANDIDATE_LIMIT.
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
    cands: dict[tuple[int, int, int], None] = {}
    for pts, den in boxes:
        s = q // den
        for x, y, w in pts:
            if (x * x + y * y + w * w) * s * s * rd2 <= ball:
                cands[(x * s, y * s, w * s)] = None
    # per component: basis rows and offset over q-scaled denominators, weight / covolume
    comps = []
    for c in lam.components:
        rows, bden = c.lattice._basis_ints
        off, oden = int_row(c.offset)
        comps.append((rows, bden * q, off, oden * q, Fraction(c.weight) / c.lattice.covolume()))
    frames = z.frames()
    violations: list[Vec3] = []
    cancelled: list[Vec3] = []
    for x, y, w in cands:
        if not (x or y or w):
            continue  # the weights are positive, so the zero frequency never cancels
        terms = [
            (coeff, Fraction(o0 * x + o1 * y + o2 * w, oq))
            for rows, bq, (o0, o1, o2), oq, coeff in comps
            if all((b0 * x + b1 * y + b2 * w) % bq == 0 for b0, b1, b2 in rows)
        ]
        xi = Vec3.from_ints(x, y, w, q)
        if rou_sum_is_zero(terms):
            cancelled.append(xi)
        elif not all(zero_set_member(fr, xi) for fr in frames):
            violations.append(xi)
    return SupportReport(
        r, len(cands), tuple(violations), tuple(cancelled), not violations
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
