"""Deciders for the two main structural properties of a zonotope's frames.

``intersection_property`` asks whether the frame vector families intersect
only at the origin: for every nonzero direction u, some frame has no member
orthogonal to u. When it holds, the spectrum of any tiling translate set is
forced to be discrete, which guarantees quasi-periodicity. When it fails the
witness line must be explained by a two-flat generator split, and ``classify``
cross-checks exactly that implication. Both deciders work on primitive integer
triples with exact integer dot and cross products, at any coordinate scale.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Vec3, int_row, primitive, primitive_triple, rank_of
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


def _satisfied_indices(frames: tuple[Frame, ...], u: Vec3) -> tuple[int, ...]:
    out = []
    for fr in frames:
        idx = next(i for i, v in enumerate(fr.vectors()) if v.dot(u) == 0)
        out.append(idx)
    return tuple(out)


def intersection_property(frames: tuple[Frame, ...]) -> IntersectionVerdict:
    """Decide whether the frames' orthogonal-complement union intersects in 0.

    Fails with witness u exactly when every frame owns a vector orthogonal
    to u. Any such u has its orthogonal frame vectors either all parallel to
    one direction d (then any vector orthogonal to d is a witness) or
    containing two independent members a, b (then u is parallel to a x b), so
    scanning single directions and cross products of frame-vector pairs is
    exhaustive. Frame vectors are reduced once to primitive integer triples;
    candidates are their integer cross products, tested by integer dot products.
    """
    if not frames:
        raise ValueError("no frames")
    vecs = dict.fromkeys(v for fr in frames for v in fr.vectors())
    ints = {v: primitive_triple(int_row(v)[0]) for v in vecs}
    trios = list(dict.fromkeys(tuple(ints[v] for v in fr.vectors()) for fr in frames))
    dirs = list(dict.fromkeys(d for trio in trios for d in trio))
    for d in dirs:
        if all(d in trio for trio in trios):
            u = canonical_perp(Vec3.of(*d))
            return IntersectionVerdict(False, u, _satisfied_indices(frames, u))
    tried: set[tuple[int, int, int]] = set()
    for i, (a0, a1, a2) in enumerate(dirs):
        for b0, b1, b2 in dirs[i + 1 :]:
            # distinct sign-canonical primitive directions are never parallel
            u = primitive_triple((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0))
            u0, u1, u2 = u
            if u in tried:
                continue
            tried.add(u)
            if all(any(v0 * u0 + v1 * u1 + v2 * u2 == 0 for v0, v1, v2 in t) for t in trios):
                w = Vec3.of(*u)
                return IntersectionVerdict(False, w, _satisfied_indices(frames, w))
    return IntersectionVerdict(True)


def two_flat(z: Zonotope) -> TwoFlatVerdict:
    """Can the generators be split into two sets, each spanning at most a plane?

    Any valid split with a rank-2 side is found by testing plane candidates
    spanned by pairs of direction classes (absorbing every coplanar class)
    plus single-direction candidates; with at most four direction classes any
    2+2 split works.
    """
    classes = z.direction_classes
    dirs = [d for d, _ in classes]
    ints = [tuple(c.numerator for c in d) for d in dirs]  # already primitive

    def verdict(h1_cls: list[int]) -> TwoFlatVerdict:
        h2_cls = [k for k in range(len(classes)) if k not in h1_cls]
        h1_idx = sorted(i for k in h1_cls for i in classes[k][1])
        h2_idx = sorted(i for k in h2_cls for i in classes[k][1])

        def normal_of(cls: list[int]) -> Vec3:
            if len(cls) >= 2:
                return primitive(dirs[cls[0]].cross(dirs[cls[1]]))
            return canonical_perp(dirs[cls[0]])

        return TwoFlatVerdict(
            True, tuple(h1_idx), tuple(h2_idx), normal_of(h1_cls), normal_of(h2_cls)
        )

    if len(classes) <= 4:
        return verdict([0, 1])
    for i, (a0, a1, a2) in enumerate(ints):
        for j in range(i + 1, len(classes)):
            b0, b1, b2 = ints[j]
            n0, n1, n2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
            h1 = [k for k, (c0, c1, c2) in enumerate(ints) if n0 * c0 + n1 * c1 + n2 * c2 == 0]
            rest = [dirs[k] for k in range(len(classes)) if k not in h1]
            if not rest or rank_of(rest) <= 2:
                return verdict(h1)
    for i in range(len(classes)):
        rest = [dirs[k] for k in range(len(classes)) if k != i]
        if rank_of(rest) <= 2:
            return verdict([i])
    return TwoFlatVerdict(False)


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
