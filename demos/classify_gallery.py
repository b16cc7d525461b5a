"""Structural verdicts for a small gallery of zonotopes.

Run: python3 demos/classify_gallery.py
"""
from zonotile import Vec3, Zonotope, classify

E1, E2, E3 = Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1)


def s(v: Vec3) -> str:
    return "(" + ", ".join(str(c) for c in v) + ")"

GALLERY = [
    ("cube", (E1, E2, E3)),
    ("rhombic dodecahedron", (E1, E2, E3, Vec3(1, 1, 1))),
    ("two-flat pair of planes", (Vec3(1, 1, 0), Vec3(1, -1, 0), E3, Vec3(1, 0, 1))),
    ("generic 5-generator", (E1, E2, E3, Vec3(1, 1, 1), Vec3(1, 2, 3))),
]

for name, gens in GALLERY:
    z = Zonotope(gens)
    c = classify(z)
    print(f"== {name}")
    print(f"   verdict: {c.verdict}")
    print(f"   quasi-periodic guarantee: {c.quasi_periodic_guarantee}")
    print(f"   weird tiling available:   {c.weird_tiling_available}")
    if c.intersection.holds:
        print("   intersection property holds: every line meets all frame zero sets")
    else:
        w = c.intersection.witness
        print(f"   intersection property fails: witness direction {s(w)}")
        # witness is orthogonal to one member of every frame
        for fr, idx in zip(z.frames(), c.intersection.satisfied_indices):
            assert w.dot(fr.vectors()[idx]) == 0
    if c.two_flat.is_two_flat:
        print(f"   generator split: {c.two_flat.h1_indices} | {c.two_flat.h2_indices}")
        print(f"   flat normals: {s(c.two_flat.h1_normal)} | {s(c.two_flat.h2_normal)}")
    print()
