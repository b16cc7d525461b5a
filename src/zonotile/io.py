"""JSON schemas and OFF mesh export.

All rationals serialize as reduced strings "p/q" ("p" when the denominator is
1), vectors as 3-element arrays, and objects with a fixed field order, so a
serialize/parse/serialize cycle is byte-identical.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Any

from .lattices import CosetEnumeration, Lattice
from .linalg import Vec3, rat, rat_str
from .structure import Classification, IntersectionVerdict, TwoFlatVerdict
from .tiling import CoverageReport, LatticeComponent, LatticeUnion, SlabChoice
from .weird import WeirdConstruction
from .zonotope import Frame, Paving, PavingCell, Zonotope

__all__ = [
    "vec_to_json",
    "vec_from_json",
    "zonotope_to_json",
    "zonotope_from_json",
    "lattice_to_json",
    "lattice_from_json",
    "translate_set_to_json",
    "translate_set_from_json",
    "construction_to_json",
    "coverage_report_to_json",
    "classification_to_json",
    "intersection_to_json",
    "two_flat_to_json",
    "frames_to_json",
    "paving_to_json",
    "dumps",
    "decimal_str",
    "export_off",
]


# generator triples a JSON body may have, C(n, 3) for n generators: volume and
# pave walk every triple, so this keeps n <= 107 within the 200,000-item limits
# of the kernel and --materialize; checked before any generator is parsed
_TRIPLE_LIMIT = 200_000
# decimal places export_off writes at most: Python's default int-string limit,
# past which a fraction's digits could not be printed
_PRECISION_LIMIT = 4300


def vec_to_json(v: Vec3) -> list[str]:
    return [rat_str(c) for c in v]


def vec_from_json(arr) -> Vec3:
    if not isinstance(arr, (list, tuple)) or len(arr) != 3:
        raise ValueError("vector must be a 3-element array")
    return Vec3(*(_rat_field(c) for c in arr))


def _rat_field(value) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"not a rational value: {value!r}")
    try:
        return rat(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational string: {value!r}") from exc


def _int_field(value) -> int:
    if not isinstance(value, (int, str)):
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def _shaped(value, kind: type, what: str):
    """value itself, after checking it is a JSON array (list) or object (dict)."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be a JSON {'array' if kind is list else 'object'}")
    return value


def _vecs(obj: dict, key: str) -> tuple[Vec3, ...]:
    return tuple(vec_from_json(v) for v in _shaped(obj[key], list, key))


def zonotope_to_json(z: Zonotope) -> dict[str, Any]:
    return {
        "generators": [vec_to_json(g) for g in z.generators],
        "translate": vec_to_json(z.translate),
    }


def zonotope_from_json(obj) -> Zonotope:
    if not isinstance(obj, dict) or "generators" not in obj:
        raise ValueError("zonotope object needs a 'generators' field")
    n = len(_shaped(obj["generators"], list, "generators"))
    if (triples := math.comb(n, 3)) > _TRIPLE_LIMIT:
        raise ValueError(f"{n} generators make {triples} triples, more than {_TRIPLE_LIMIT}")
    gens = _vecs(obj, "generators")
    translate = vec_from_json(obj.get("translate", ["0", "0", "0"]))
    return Zonotope(gens, translate)


def lattice_to_json(lat: Lattice) -> dict[str, Any]:
    return {"basis": [vec_to_json(b) for b in lat.basis]}


def lattice_from_json(obj) -> Lattice:
    if not isinstance(obj, dict) or "basis" not in obj:
        raise ValueError("lattice object needs a 'basis' field")
    return Lattice(_vecs(obj, "basis"))


def translate_set_to_json(lam: LatticeUnion | SlabChoice) -> dict[str, Any]:
    if isinstance(lam, LatticeUnion):
        return {
            "kind": "lattice_union",
            "components": [
                {
                    "basis": [vec_to_json(b) for b in c.lattice.basis],
                    "offset": vec_to_json(c.offset),
                    "weight": c.weight,
                }
                for c in lam.components
            ],
        }
    return {
        "kind": "slab_choice",
        "gamma": [vec_to_json(b) for b in lam.gamma.basis],
        "sub": [vec_to_json(b) for b in lam.sub.basis],
        "s_offsets": [vec_to_json(u) for u in lam.s_offsets],
        "t_offsets": [vec_to_json(u) for u in lam.t_offsets],
        "choice": {str(j): lam.choice[j] for j in sorted(lam.choice)},
        "expected_level": lam.expected_level,
    }


def translate_set_from_json(obj) -> LatticeUnion | SlabChoice:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("translate set object needs a 'kind' field")
    kind = obj["kind"]
    if kind == "lattice_union":
        comps = []
        for c in _shaped(obj["components"], list, "components"):
            comps.append(
                LatticeComponent(
                    lattice_from_json(c),  # checks that c is an object first
                    vec_from_json(c.get("offset", ["0", "0", "0"])),
                    _int_field(c.get("weight", 1)),
                )
            )
        return LatticeUnion(tuple(comps))
    if kind == "slab_choice":
        gamma, sub = (Lattice(_vecs(obj, key)) for key in ("gamma", "sub"))
        choice = {int(j): v for j, v in _shaped(obj.get("choice", {}), dict, "choice").items()}
        level = obj.get("expected_level")
        return SlabChoice(
            gamma=gamma,
            sub=sub,
            cosets=CosetEnumeration(gamma, sub),
            s_offsets=_vecs(obj, "s_offsets"),
            t_offsets=_vecs(obj, "t_offsets"),
            choice=choice,
            expected_level=None if level is None else _int_field(level),
        )
    raise ValueError(f"unknown translate set kind: {kind!r}")


def construction_to_json(c: WeirdConstruction) -> dict[str, Any]:
    return {
        "zonotope": zonotope_to_json(c.zonotope),
        "v_indices": list(c.v_indices),
        "w_indices": list(c.w_indices),
        "g": [vec_to_json(b) for b in c.g.basis],
        "gamma": [vec_to_json(b) for b in c.gamma.basis],
        "coefficients": [rat_str(x) for x in c.coefficients],
        "s_offsets": [vec_to_json(u) for u in c.s_offsets],
        "t_offsets": [vec_to_json(u) for u in c.t_offsets],
        "n_value": c.n_value,
        "base_level": c.base_level,
    }


def coverage_report_to_json(rep: CoverageReport) -> dict[str, Any]:
    return {
        "level": rep.level,
        "samples": rep.samples,
        "violations": [
            {"point": vec_to_json(x), "count": c} for x, c in rep.violations
        ],
        "density": rat_str(rep.density),
        "density_consistent": rep.density_consistent,
        "window": [vec_to_json(rep.window[0]), vec_to_json(rep.window[1])],
        "seed": rep.seed,
    }


def two_flat_to_json(tf: TwoFlatVerdict) -> dict[str, Any]:
    return {
        "is_two_flat": tf.is_two_flat,
        "h1_indices": list(tf.h1_indices),
        "h2_indices": list(tf.h2_indices),
        "h1_normal": None if tf.h1_normal is None else vec_to_json(tf.h1_normal),
        "h2_normal": None if tf.h2_normal is None else vec_to_json(tf.h2_normal),
    }


def intersection_to_json(iv: IntersectionVerdict) -> dict[str, Any]:
    return {
        "holds": iv.holds,
        "witness": None if iv.witness is None else vec_to_json(iv.witness),
        "satisfied_indices": (
            None if iv.satisfied_indices is None else list(iv.satisfied_indices)
        ),
    }


def classification_to_json(cl: Classification) -> dict[str, Any]:
    return {
        "verdict": cl.verdict,
        "quasi_periodic_guarantee": cl.quasi_periodic_guarantee,
        "weird_tiling_available": cl.weird_tiling_available,
        "two_flat": two_flat_to_json(cl.two_flat),
        "intersection": intersection_to_json(cl.intersection),
    }


def _frame_to_json(fr: Frame) -> dict[str, Any]:
    return {
        "e": vec_to_json(fr.e),
        "base": vec_to_json(fr.base),
        "tau1": vec_to_json(fr.tau1),
        "tau2": vec_to_json(fr.tau2),
        "facet_index": fr.facet_index,
    }


def frames_to_json(z: Zonotope) -> dict[str, Any]:
    return {
        "frames": [_frame_to_json(fr) for fr in z.frames()],
        # no frame of a zonotope is degenerate (see ``Zonotope._build_frames``)
        "degenerate_frames": [],
    }


def _cell_to_json(cell: PavingCell) -> dict[str, Any]:
    return {
        "anchor": vec_to_json(cell.anchor),
        "edges": [vec_to_json(e) for e in cell.edges],
        "include_zero_face": list(cell.include_zero_face),
        "volume": rat_str(cell.volume()),
    }


def paving_to_json(paving: Paving) -> dict[str, Any]:
    return {
        "cells": [_cell_to_json(c) for c in paving.cells],
        "total_volume": rat_str(paving.total_volume()),
    }


def dumps(obj) -> str:
    """Canonical JSON text: 2-space indent, insertion field order, newline."""
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


# -- OFF mesh ------------------------------------------------------------------


def decimal_str(q: Fraction, precision: int) -> str:
    """Fixed-point decimal rendering, half away from zero, exact arithmetic."""
    if not 0 <= precision <= _PRECISION_LIMIT:
        raise ValueError(f"precision must be between 0 and {_PRECISION_LIMIT}")
    scaled = abs(q) * 10**precision
    n = scaled.numerator // scaled.denominator
    if 2 * (scaled - n) >= 1:
        n += 1
    sign = "-" if q < 0 and n > 0 else ""
    if precision == 0:
        return f"{sign}{n}"
    return f"{sign}{n // 10 ** precision}.{n % 10 ** precision:0{precision}d}"


def export_off(z: Zonotope, precision: int = 6) -> str:
    """OFF boundary mesh with outward-oriented facet polygons."""
    verts = z.vertex_set()
    index = {v: i for i, v in enumerate(verts)}
    faces = []
    for i in range(len(z.facets)):
        poly = z.facet_polygon(i)
        faces.append([index[v] for v in poly])
    edge_count = sum(len(f) for f in faces) // 2
    lines = ["OFF", f"{len(verts)} {len(faces)} {edge_count}"]
    for v in verts:
        lines.append(" ".join(decimal_str(c, precision) for c in v))
    for f in faces:
        lines.append(" ".join(str(n) for n in [len(f), *f]))
    return "\n".join(lines) + "\n"
