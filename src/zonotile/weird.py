"""Construction of non-quasi-periodic multiple tilings for two-flat bodies.

Starting from generators v_1..v_n spanning one plane of a two-flat zonotope,
form the group G they generate, the full translation lattice Gamma, and the
two offset families given by even- and odd-cardinality subset sums of
perturbed generators c_i v_i. Convolving the body with G and either family
gives the same slab function, so along each coset of G inside Gamma the two
families can be swapped independently; every choice map yields the same
covering level. Choosing the swaps along a line of cosets according to a
coloring in which no arithmetic progression is monochromatic produces a
tiling that no quasi-periodic structure can match.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import filterfalse, islice
from typing import Iterator, Mapping, Sequence

import numpy as np

# lattice_points_in_box is unused here, but perfbench's tracer wraps this binding
from .lattices import (  # noqa: F401
    CosetEnumeration,
    Lattice,
    lattice_from_vectors,
    lattice_points_in_box,
    plane_section,
)
from .linalg import VEC_ZERO, Vec3, int_row, primitive, rank_of, rat
from .structure import two_flat
from .tiling import (
    SlabChoice,
    TranslateFamily,
    _coverage_counts,
    _offset_counts,
    _sample,
    translate_multiplicity,
)
from .zonotope import Zonotope

__all__ = [
    "WeirdConstruction",
    "choose_coefficients",
    "construction_from_indices",
    "build_construction",
    "SlabIdentityReport",
    "slab_identity_check",
    "build_weird",
    "Coloring",
    "ap_coloring",
    "IrregularityReport",
    "irregularity_certificate",
]

RED = "red"
BLACK = "black"
# subset sums of the selected generators a construction builds at most (16
# generators); checked before any sum is built
_SUBSET_LIMIT = 1 << 16
# ap_coloring steps and irregularity_certificate line indices run at most,
# each about 2 s of CPU at the bound on a 2-core x86 box; checked before any
# loop runs
_AP_STEP_LIMIT = 32_000
_LINE_LIMIT = 200_000


@dataclass(frozen=True)
class WeirdConstruction:
    """Ingredients shared by every tiling the construction can emit.

    g is the group generated by the chosen in-plane generators (rank 2 for
    the full construction; rank 1 degenerate variants still satisfy the slab
    identity but carry no coset enumeration). n_value is the size of each
    offset family and base_level the covering level of Gamma itself, so the
    emitted tilings cover at level n_value * base_level.
    """

    zonotope: Zonotope
    v_indices: tuple[int, ...]
    w_indices: tuple[int, ...]
    g: Lattice
    gamma: Lattice
    coefficients: tuple[Fraction, ...]
    s_offsets: tuple[Vec3, ...]
    t_offsets: tuple[Vec3, ...]
    n_value: int
    base_level: int

    @cached_property
    def base(self) -> SlabChoice:
        """The multiset with the S family in every coset, built on first use."""
        if self.g.rank != 2:
            raise ValueError("rank-2 base group required")
        level = self.n_value * self.base_level
        return SlabChoice(self.gamma, self.g, self.s_offsets, self.t_offsets, {}, level)

    @property
    def cosets(self) -> CosetEnumeration | None:
        """``base.cosets``, shared by every multiset ``build_weird`` emits; None at rank 1."""
        return self.base.cosets if self.g.rank == 2 else None


def _primes():
    n = 2
    while True:
        if all(n % d for d in range(2, int(n**0.5) + 1)):
            yield n
        n += 1


def _subset_sums(vectors: Sequence[Vec3], scale: Sequence) -> list[Vec3]:
    # sums over all index subsets, entry at position mask; mask 0 gives 0
    sums = [VEC_ZERO] * (1 << len(vectors))
    for mask in range(1, len(sums)):
        low = mask & -mask
        i = low.bit_length() - 1
        sums[mask] = sums[mask ^ low] + scale[i] * vectors[i]
    return sums


def choose_coefficients(g: Lattice, v: Sequence[Vec3]) -> tuple[Fraction, ...]:
    """Deterministic coefficients whose nonempty subset sums avoid the group.

    Tries integer weight patterns m_i = t^i for t = 1, 2, ... (t = 1 is the
    all-equal pattern) and scales each by 1/p over increasing primes p. A
    pattern with some vanishing weighted subset sum can never work; otherwise
    only the finitely many primes dividing a subset sum's coordinates fail,
    so the search terminates quickly.
    """
    if not v:
        raise ValueError("no generators to perturb")
    for t in range(1, 65):
        m = [t**i for i in range(len(v))]
        sums = _subset_sums(v, m)[1:]
        rows = [g._point_coords(*int_row(s)) for s in sums]
        if None in rows:
            raise ValueError("generator outside its own group")
        if any(all(x == 0 for x in row) for row in rows):
            continue
        for p in islice(_primes(), 300):
            if not any(all(x % p == 0 for x in row) for row in rows):
                return tuple(Fraction(mi, p) for mi in m)
    raise RuntimeError("coefficient search exhausted")


def construction_from_indices(
    z: Zonotope,
    v_indices: Sequence[int],
    coefficients: Sequence[Fraction] | None = None,
) -> WeirdConstruction:
    """Assemble groups, offsets, and levels for a chosen generator subset."""
    vi = tuple(sorted(set(v_indices)))
    if not vi:
        raise ValueError("empty generator selection")
    if vi[0] < 0 or vi[-1] >= len(z.generators):
        raise IndexError("generator index out of range")
    if (size := 1 << len(vi)) > _SUBSET_LIMIT:
        raise ValueError(f"{len(vi)} generators give {size} subset sums, more than {_SUBSET_LIMIT}")
    wi = tuple(i for i in range(len(z.generators)) if i not in vi)
    v = [z.generators[i] for i in vi]
    g = lattice_from_vectors(v)
    if g.rank == 3:
        raise ValueError("selected generators span all of space")
    gamma = lattice_from_vectors(list(z.generators))
    if gamma.rank != 3:
        raise ValueError("generators do not span a full-rank lattice")
    k = z.volume() / gamma.covolume()
    if k.denominator != 1:
        raise ArithmeticError("volume is not an integer multiple of the covolume")
    if coefficients is None:
        # avoid the full plane section of gamma, which can exceed g when a
        # cross-plane generator folds back into the plane; subset sums kept
        # out of it make the per-line multiplicity bookkeeping exact
        avoid = g
        if g.rank == 2:
            avoid = plane_section(gamma, primitive(g.basis[0].cross(g.basis[1])))
        c = choose_coefficients(avoid, v)
    else:
        c = tuple(rat(x) for x in coefficients)
        if len(c) != len(v):
            raise ValueError("one coefficient per selected generator required")
        if any(ci == 0 for ci in c):
            raise ValueError("zero coefficient")
    sums = _subset_sums(v, c)
    for mask in range(1, len(sums)):
        if g.contains(sums[mask]):
            raise ValueError("coefficient subset sum lands in the base group")
    s_off = tuple(s for mask, s in enumerate(sums) if bin(mask).count("1") % 2 == 0)
    t_off = tuple(s for mask, s in enumerate(sums) if bin(mask).count("1") % 2 == 1)
    return WeirdConstruction(z, vi, wi, g, gamma, c, s_off, t_off, 2 ** (len(v) - 1), int(k))


def build_construction(
    z: Zonotope, coefficients: Sequence[Fraction] | None = None
) -> WeirdConstruction:
    """Run the construction on the plane side of ``two_flat``'s split."""
    flats = two_flat(z)
    if not flats.is_two_flat:
        raise ValueError("not a two-flat zonotope")
    for side in (flats.h1_indices, flats.h2_indices):
        if side and rank_of([z.generators[i] for i in side]) == 2:
            return construction_from_indices(z, side, coefficients)
    raise ValueError("neither side of the split spans a plane")


@dataclass(frozen=True)
class SlabIdentityReport:
    passed: bool
    samples: int
    mismatches: tuple[tuple[Vec3, int, int], ...]
    seed: int


def slab_identity_check(
    c: WeirdConstruction,
    window: tuple[Vec3, Vec3] | None = None,
    samples: int = 64,
    seed: int = 0,
) -> SlabIdentityReport:
    """Sample the slab identity 1_P * delta_G * (delta_S - delta_T) = 0.

    Both offset families, convolved with the body indicator and the group,
    must give the same function. It is checked only at random window points
    (default: the bounding box grown by 1), each counted exactly for both;
    a disagreement is reported as (point, S count, T count). Each sampling
    round is counted by one ``tiling._coverage_counts`` call per family,
    over all of the round's points. Points on a translate's boundary are
    redrawn by ``tiling._sample``.
    """
    if window is None:
        lo, hi = c.zonotope.bounding_box()
        pad = Vec3.of(1, 1, 1)
        window = (lo - pad, hi + pad)
    # each distinct offset u is the family u + G, weighing its count on its side
    families = [tuple(TranslateFamily(c.g, u, k) for u, k in _offset_counts(f))
                for f in (c.s_offsets, c.t_offsets)]

    def count(draws):
        nums, z = draws.nums(), c.zonotope
        (s, s_border), (t, t_border) = (_coverage_counts(z, f, nums, draws.den) for f in families)
        return np.stack([s, t], axis=1), s_border | t_border

    draws, counts = _sample(window, samples, seed, count)
    off = np.flatnonzero(counts[:, 0] != counts[:, 1])
    mismatches = tuple((x, s, t) for x, (s, t) in zip(draws.points(off), counts[off].tolist()))
    return SlabIdentityReport(not mismatches, samples, mismatches, seed)


def build_weird(
    c: WeirdConstruction, choice: Mapping[int, str] | None = None
) -> SlabChoice:
    """Emit the translate multiset for a per-coset choice of offset family."""
    return c.base.with_choice(choice or {})


@dataclass
class Coloring:
    """Two-coloring of the integers with no monochromatic infinite AP.

    Integers outside the assigned map default to red; color_of is total.
    """

    assigned: dict[int, str]
    processed: tuple[tuple[int, int], ...]

    def color_of(self, i: int) -> str:
        return self.assigned.get(i, RED)


def _fresh_aps():
    s = 1
    while True:
        for d in range(1, s + 1):
            a = s - d
            if 0 <= a < d:
                yield (d, a)
        s += 1


def _ap_members(d: int, a: int):
    yield a
    k = 1
    while True:
        yield a + d * k
        yield a - d * k
        k += 1


def ap_coloring(num_steps: int) -> Coloring:
    """Round-robin defeat of arithmetic progressions.

    Maintains a queue of progressions (d, a): each step pops one, paints its
    first two uncolored members red then black (scanning a, a+d, a-d, ...),
    requeues it, and admits the next fresh progression in (d + a, d) order.
    Every progression is revisited forever, so in the limit each one carries
    both colors; num_steps controls how much of that schedule runs. A visit
    resumes its progression's scan where the last visit stopped, but still
    steps over the members other progressions colored (about 45 per step at
    1,000 steps, 260 at 32,000). Memory is linear in num_steps, and time
    grows about as num_steps^1.5 (1.7 s CPU at 32,000 steps on a 2-core x86
    box), so more than ``_AP_STEP_LIMIT`` steps are refused.
    """
    if num_steps > _AP_STEP_LIMIT:
        raise ValueError(f"{num_steps} coloring steps, more than {_AP_STEP_LIMIT}")
    # each queued progression keeps its member iterator: every member before
    # the last one it painted is colored, so a visit resumes where the last stopped
    queue: deque[tuple[int, int, Iterator[int]]] = deque()
    fresh = ((d, a, _ap_members(d, a)) for d, a in _fresh_aps())
    assigned: dict[int, str] = {}
    processed: list[tuple[int, int]] = []
    for _ in range(num_steps):
        if not queue:
            queue.append(next(fresh))
        d, a, members = ap = queue.popleft()
        red, black = islice(filterfalse(assigned.__contains__, members), 2)
        assigned[red] = RED
        assigned[black] = BLACK
        processed.append((d, a))
        queue.append(ap)
        queue.append(next(fresh))
    return Coloring(assigned, tuple(processed))


@dataclass(frozen=True)
class IrregularityReport:
    entries: tuple[tuple[int, str, int], ...]  # (line index, color, multiplicity)
    ok: bool
    has_present: bool
    has_absent: bool


def irregularity_certificate(
    c: WeirdConstruction, coloring: Coloring, lo: int, hi: int
) -> IrregularityReport:
    """Check the tiling built from a coloring realizes it along a coset line.

    The torsion-free coset representatives lie on the line gamma1 * Z; using
    the T family exactly on the black cosets of that line must make the
    multiset contain gamma1 * l once when l is red and not at all when l is
    black. Any mismatch is an implementation error and raises. It makes one
    ``translate_multiplicity`` call per line index (about 2 us each on the
    cube's construction, one residue lookup on a 2-core x86 box), so the
    cost is linear in hi - lo and in the coloring's size; a range of more
    than ``_LINE_LIMIT`` indices is refused.
    """
    if lo > hi:
        raise ValueError("coset line range needs lo <= hi")
    if hi - lo + 1 > _LINE_LIMIT:
        raise ValueError(f"coset line range holds {hi - lo + 1} indices, more than {_LINE_LIMIT}")
    ce = c.base.cosets
    for u in c.s_offsets + c.t_offsets:
        if not u.is_zero() and c.gamma.contains(u):
            raise ValueError("a nonzero offset lies in the translation lattice")
    t = ce.torsion_order
    choice = {
        ell * t: "T" for ell, col in coloring.assigned.items() if col == BLACK
    }
    lam = c.base.with_choice(choice)
    entries = []
    for ell in range(lo, hi + 1):
        pt = ell * ce.gamma1
        if ce.rep(ell * t) != pt:
            raise AssertionError("coset representative drift")
        mult = translate_multiplicity(lam, pt)
        color = coloring.color_of(ell)
        expected = 1 if color == RED else 0
        if mult != expected:
            raise AssertionError("irregularity certificate mismatch")
        entries.append((ell, color, mult))
    mults = {m for _, _, m in entries}
    return IrregularityReport(tuple(entries), True, 1 in mults, 0 in mults)
