"""Deciders for the two main structural properties of a zonotope's frames.

``intersection_property`` asks whether the frame vector families intersect
only at the origin: for every nonzero direction u, some frame has no member
orthogonal to u. When it holds, the spectrum of any tiling translate set is
forced to be discrete, which guarantees quasi-periodicity. When it fails the
witness line must be explained by a two-flat generator split, and ``classify``
cross-checks exactly that implication. Unless one direction lies in every
frame, a witness is parallel to a x b for a member a of the first frame and
a member b of the first frame that lacks a, so the decider tests at most
nine candidate directions instead of every pair. Both deciders work on
primitive integer triples, read from the frames' and the generators'
integers, with exact integer dot and cross products, at any coordinate scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

# rank_of is unused here, but perfbench's tracer wraps this module's binding
from .linalg import Vec3, primitive, primitive_triple, rank_of  # noqa: F401
from .zonotope import Frame, Zonotope

_AXES = (Vec3.of(1, 0, 0), Vec3.of(0, 1, 0), Vec3.of(0, 0, 1))


@dataclass(frozen=True)
class IntersectionVerdict:
    holds: bool
    witness: Vec3 | None = None
    # for a failing verdict: per frame, the first index into (e, tau1, tau2)
    # whose vector is orthogonal to the witness
    satisfied_indices: tuple[int, ...] | None = None


@dataclass(frozen=True)
class TwoFlatVerdict:
    is_two_flat: bool
    h1_indices: tuple[int, ...] = ()
    h2_indices: tuple[int, ...] = ()
    h1_normal: Vec3 | None = None
    h2_normal: Vec3 | None = None


@dataclass(frozen=True)
class Classification:
    verdict: str  # NotTwoFlat | TwoFlatRationalDiscrete
    quasi_periodic_guarantee: bool
    weird_tiling_available: bool
    two_flat: TwoFlatVerdict
    intersection: IntersectionVerdict


def canonical_perp(d: Vec3) -> Vec3:
    """Deterministic primitive vector orthogonal to d.

    Lexicographically smallest among the sign-canonical primitive reductions
    of d x e_i (the lex minimum over all primitive orthogonal vectors does not
    exist, so the candidate set is pinned to the three axis crosses).
    """
    cands = []
    for ax in _AXES:
        c = d.cross(ax)
        if not c.is_zero():
            cands.append(primitive(c))
    return min(cands)


def intersection_property(frames: tuple[Frame, ...]) -> IntersectionVerdict:
    """Decide whether the frames' orthogonal-complement union intersects in 0.

    Fails with witness u exactly when every frame owns a vector orthogonal
    to u. Each frame's e, tau1 and tau2 are read as primitive integer triples
    from ``Frame.vector_ints()``. If one direction d lies in every frame, the
    witness is ``canonical_perp(d)``. Otherwise take a witness u: some a in the
    first frame is orthogonal to u, the first frame without a has some b
    orthogonal to u, and b is not parallel to a, so u is parallel to a x b.
    Those at most nine cross products are therefore every witness direction;
    each is tested against all frames, and none passing means the property
    holds. The reported witness is the first pair (i, j), i < j, of distinct
    frame directions in first-seen order whose cross product is a witness.
    For a witness u that pair is u's first two orthogonal directions, so the
    earliest one over the passing candidates is taken without a pair scan.
    """
    if not frames:
        raise ValueError("no frames")
    per_frame = []
    for fr in frames:
        c = fr.vector_ints()[0]
        per_frame.append(tuple(primitive_triple(c[k : k + 3]) for k in (0, 3, 6)))
    trios = list(dict.fromkeys(per_frame))

    def orthogonal(v: tuple[int, int, int], u: tuple[int, int, int]) -> bool:
        return v[0] * u[0] + v[1] * u[1] + v[2] * u[2] == 0

    def failing(u: tuple[int, int, int]) -> IntersectionVerdict:
        sat = tuple(next(i for i, v in enumerate(t) if orthogonal(v, u)) for t in per_frame)
        return IntersectionVerdict(False, Vec3.of(*u), sat)

    for d in trios[0]:
        if all(d in trio for trio in trios):
            return failing(tuple(c.numerator for c in canonical_perp(Vec3.of(*d))))
    cands = set()
    for a in trios[0]:
        for b in next(t for t in trios if a not in t):
            # distinct sign-canonical primitive directions are never parallel
            cands.add(primitive_triple(_cross(a, b)))
    valid = [u for u in cands if all(any(orthogonal(v, u) for v in t) for t in trios)]
    if not valid:
        return IntersectionVerdict(True)
    dirs = list(dict.fromkeys(d for trio in trios for d in trio))

    def first_pair(u: tuple[int, int, int]) -> list[int]:
        return list(islice((i for i, d in enumerate(dirs) if orthogonal(d, u)), 2))

    return failing(min(valid, key=first_pair))


def two_flat(z: Zonotope) -> TwoFlatVerdict:
    """Can the generators be split into two sets, each spanning at most a plane?

    With at most four direction classes any 2+2 split works. Otherwise, for
    each pair of classes in order, h1 is every class in the plane of the pair
    and the split is found if the rest spans at most a plane. Distinct
    sign-canonical primitive classes are never parallel, so the rest does
    iff it has at most two members or every member is orthogonal to
    rest[0] x rest[1], an integer test. The scan is complete: a split of five
    or more classes has a side with two classes a, b spanning its plane, and
    the pair (a, b) puts that whole side in h1 and leaves a rest inside the
    other side. Testing single classes as h1 as well would add nothing: if
    the rest without class d spans a plane P, those four or more classes
    reach the pair scan first at their first two, whose h1 is every class in
    P and whose rest is [d] (d is not in P, as the body has full rank).
    """
    classes = z._classes  # primitive integer triples and member indices
    ints = [d for d, _ in classes]

    def verdict(h1_cls: list[int]) -> TwoFlatVerdict:
        h2_cls = [k for k in range(len(classes)) if k not in h1_cls]
        h1_idx = sorted(i for k in h1_cls for i in classes[k][1])
        h2_idx = sorted(i for k in h2_cls for i in classes[k][1])

        def normal_of(cls: list[int]) -> Vec3:
            if len(cls) >= 2:
                return Vec3.of(*primitive_triple(_cross(ints[cls[0]], ints[cls[1]])))
            return canonical_perp(Vec3.of(*ints[cls[0]]))

        return TwoFlatVerdict(
            True, tuple(h1_idx), tuple(h2_idx), normal_of(h1_cls), normal_of(h2_cls)
        )

    if len(classes) <= 4:
        return verdict([0, 1])
    for i, a in enumerate(ints):
        for b in ints[i + 1 :]:
            n0, n1, n2 = _cross(a, b)
            h1 = [k for k, (c0, c1, c2) in enumerate(ints) if n0 * c0 + n1 * c1 + n2 * c2 == 0]
            rest = [ints[k] for k in range(len(classes)) if k not in h1]
            if len(rest) <= 2:
                return verdict(h1)
            r0, r1, r2 = _cross(rest[0], rest[1])
            if all(r0 * c0 + r1 * c1 + r2 * c2 == 0 for c0, c1, c2 in rest[2:]):
                return verdict(h1)
    return TwoFlatVerdict(False)


def _cross(a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple[int, int, int]:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def classify(z: Zonotope) -> Classification:
    """Structural verdict for a zonotope.

    With exact rational generators the group they generate is always discrete,
    so a two-flat body always lands in TwoFlatRationalDiscrete. A failing
    intersection property must be explained by a two-flat split; anything
    else is an implementation bug, not a verdict.
    """
    tf = two_flat(z)
    iv = intersection_property(z.frames())
    if not iv.holds and not tf.is_two_flat:
        raise AssertionError("theorem contradiction: implementation bug")
    if not tf.is_two_flat:
        return Classification("NotTwoFlat", True, False, tf, iv)
    return Classification("TwoFlatRationalDiscrete", False, True, tf, iv)
