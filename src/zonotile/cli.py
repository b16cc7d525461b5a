"""Command-line front end.

Every subcommand reads JSON, runs the corresponding library call, and writes
a JSON report (OFF text for export-mesh) to stdout or --out. Exit status: 0
when the run produced its verdict, 1 when a verification subcommand found a
violation, 2 on malformed input or precondition failure. All randomness is
derived from --seed, so reports are byte-reproducible.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache

from . import io as zio
from .lattices import box_count, lattice_points_in_box
from .linalg import Vec3, rat, rat_str
from .spectral import leg_ft, leg_measure, zero_set_member
from .structure import classify, intersection_property
from .tiling import SlabChoice, translate_families, translate_multiplicity, verify_level
from .weird import build_construction, build_weird, construction_from_indices
from .zonotope import Zonotope


# candidate translates weird-gen --materialize enumerates at most; a larger
# window is refused before any point is built
_MATERIALIZE_LIMIT = 200_000
# verify-tiling --samples at most: the kernel holds every sample's numerators
# and lattice coordinates as Python ints at once; checked before any input is read
_SAMPLES_LIMIT = 100_000


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's fields, refusing a key that appears twice."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"JSON object names {key!r} twice")
        obj[key] = value
    return obj


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except ValueError as exc:  # malformed JSON, a key named twice, or bytes that are not UTF-8
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_window(spec: str) -> tuple[Vec3, Vec3]:
    parts = spec.split()
    if len(parts) != 6:
        raise ValueError("window must be six rationals: 'x0 x1 y0 y1 z0 z1'")
    vals = [rat(p) for p in parts]
    if not all(a < b for a, b in zip(vals[0::2], vals[1::2])):
        raise ValueError("window is empty")
    return Vec3(*vals[0::2]), Vec3(*vals[1::2])


def _load_zonotope(path: str) -> Zonotope:
    return zio.zonotope_from_json(_read_json(path))


def _cmd_classify(args) -> int:
    z = _load_zonotope(args.zonotope)
    report = zio.classification_to_json(classify(z))
    _emit(zio.dumps(report), args.out)
    return 0


def _cmd_frames(args) -> int:
    z = _load_zonotope(args.zonotope)
    _emit(zio.dumps(zio.frames_to_json(z)), args.out)
    return 0


def _cmd_check_intersection(args) -> int:
    z = _load_zonotope(args.zonotope)
    iv = intersection_property(z.frames())
    _emit(zio.dumps(zio.intersection_to_json(iv)), args.out)
    return 0


def _cmd_pave(args) -> int:
    z = _load_zonotope(args.zonotope)
    report = zio.paving_to_json(z.pave())
    report["zonotope_volume"] = rat_str(z.volume())
    _emit(zio.dumps(report), args.out)
    return 0


def _cmd_verify_tiling(args) -> int:
    samples, seed = zio._int_field(args.samples), zio._int_field(args.seed)
    if not 1 <= samples <= _SAMPLES_LIMIT:
        raise ValueError(f"samples must be between 1 and {_SAMPLES_LIMIT}")
    z = _load_zonotope(args.zonotope)
    lam = zio.translate_set_from_json(_read_json(args.translates))
    window = _parse_window(args.window)
    rep = verify_level(z, lam, window, samples=samples, seed=seed)
    _emit(zio.dumps(zio.coverage_report_to_json(rep)), args.out)
    if rep.level is None or rep.density_consistent is False:
        return 1
    if isinstance(lam, SlabChoice) and lam.expected_level is not None:
        if rep.level != lam.expected_level:
            return 1
    return 0


def _materialize(lam: SlabChoice, lo: Vec3, hi: Vec3) -> list[tuple[Vec3, int]]:
    """Every translate in [lo, hi] with its multiplicity, in ``Vec3`` order.

    ``lattice_points_in_box`` gives each family's points in the window. They
    are deduped on their reduced numerators and denominator (``_nd``), which
    name a ``Vec3`` uniquely, and a point is kept when
    ``translate_multiplicity``, one residue lookup per lattice, is not zero.
    The kept points are sorted on their numerators over one common
    denominator, which orders them as ``Vec3`` comparison does.
    """
    families = translate_families(lam)
    count = sum(box_count(f.lattice, f.shift, lo, hi) for f in families)
    if count > _MATERIALIZE_LIMIT:
        raise ValueError(
            f"window holds {count} candidate translates, more than {_MATERIALIZE_LIMIT}"
        )
    cand = {p._nd: p for f in families for p in lattice_points_in_box(f.lattice, f.shift, lo, hi)}
    kept = [(p, m) for p in cand.values() if (m := translate_multiplicity(lam, p))]
    den = math.lcm(*(p._nd[3] for p, _ in kept))

    def key(pm: tuple[Vec3, int]) -> tuple[int, int, int]:
        n0, n1, n2, d = pm[0]._nd
        s = den // d
        return n0 * s, n1 * s, n2 * s

    return sorted(kept, key=key)


def _cmd_weird_gen(args) -> int:
    z = _load_zonotope(args.zonotope)
    coeffs = args.coefficients.split() if args.coefficients else None
    if args.v_indices:
        idx = [zio._int_field(t) for t in args.v_indices.split()]
        c = construction_from_indices(z, idx, coeffs)
    else:
        c = build_construction(z, coefficients=coeffs)
    items = (item.strip() for item in (args.choice or "").split(","))
    lam = build_weird(c, zio.choice_from_pairs(item.partition("=")[::2] for item in items if item))
    report = {
        "construction": zio.construction_to_json(c),
        "translate_set": zio.translate_set_to_json(lam),
    }
    if args.materialize:
        lo, hi = _parse_window(args.window)
        report["points"] = [
            {"point": zio.vec_to_json(p), "multiplicity": m} for p, m in _materialize(lam, lo, hi)
        ]
    _emit(zio.dumps(report), args.out)
    return 0


def _cmd_fourier_eval(args) -> int:
    try:
        tol = float(rat(args.tol))
    except (ValueError, OverflowError):
        tol = math.inf
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite: {args.tol!r}")
    z = _load_zonotope(args.zonotope)
    xi_raw = _read_json(args.points)
    if not isinstance(xi_raw, list):
        raise ValueError("points file must be a JSON array of 3-vectors")
    xis = [zio.vec_from_json(p) for p in xi_raw]
    measures = [leg_measure(fr) for fr in z.frames()]
    entries = []
    for xi in xis:
        per_frame = []
        for i, m in enumerate(measures):
            val = leg_ft(m, xi)
            per_frame.append(
                {
                    "frame_index": i,
                    "value_re": val.real,
                    "value_im": val.imag,
                    "abs": abs(val),
                    "in_zero_set": zero_set_member(m.frame, xi),
                    "near_zero": abs(val) < tol,
                }
            )
        entries.append({"xi": zio.vec_to_json(xi), "frames": per_frame})
    _emit(zio.dumps({"points": entries}), args.out)
    return 0


def _cmd_export_mesh(args) -> int:
    precision = zio._int_field(args.precision)
    if not 0 <= precision <= zio._PRECISION_LIMIT:
        raise ValueError(f"precision must be between 0 and {zio._PRECISION_LIMIT}")
    z = _load_zonotope(args.zonotope)
    _emit(zio.export_off(z, precision), args.out)
    return 0


@cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args keeps no state between calls, each
    # returns a fresh Namespace
    p = argparse.ArgumentParser(
        prog="zonotile",
        description="Exact structure theory of multiple tilings by zonotopes",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", help="write the report here instead of stdout")
        return sp

    sp = common(sub.add_parser("classify", help="structural verdict for a zonotope"))
    sp.add_argument("zonotope")
    sp.set_defaults(func=_cmd_classify)

    sp = common(sub.add_parser("frames", help="list the 4-leg frames"))
    sp.add_argument("zonotope")
    sp.set_defaults(func=_cmd_frames)

    sp = common(
        sub.add_parser("check-intersection", help="frame intersection property")
    )
    sp.add_argument("zonotope")
    sp.set_defaults(func=_cmd_check_intersection)

    sp = common(sub.add_parser("pave", help="half-open parallelepiped paving"))
    sp.add_argument("zonotope")
    sp.set_defaults(func=_cmd_pave)

    sp = common(sub.add_parser("verify-tiling", help="sample a translate set's level"))
    sp.add_argument("zonotope")
    sp.add_argument("translates")
    sp.add_argument("--window", default="-4 4 -4 4 -4 4")
    sp.add_argument("--samples", default=1000)
    sp.add_argument("--seed", default=0)
    sp.set_defaults(func=_cmd_verify_tiling)

    sp = common(sub.add_parser("weird-gen", help="build the two-flat construction"))
    sp.add_argument("zonotope")
    sp.add_argument("--v-indices", help="generator indices like '0 1'")
    sp.add_argument("--coefficients", help="rationals like '1/2 1/2'")
    sp.add_argument("--choice", help="coset family overrides like '0=T,4=T'")
    sp.add_argument("--materialize", action="store_true")
    sp.add_argument("--window", default="-3 3 -3 3 -3 3")
    sp.set_defaults(func=_cmd_weird_gen)

    sp = common(sub.add_parser("fourier-eval", help="frame transforms at points"))
    sp.add_argument("zonotope")
    sp.add_argument("points")
    sp.add_argument("--tol", default="1e-9")
    sp.set_defaults(func=_cmd_fourier_eval)

    sp = common(sub.add_parser("export-mesh", help="OFF boundary mesh"))
    sp.add_argument("zonotope")
    sp.add_argument("--precision", default=6)
    sp.set_defaults(func=_cmd_export_mesh)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, KeyError, IndexError, OSError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
