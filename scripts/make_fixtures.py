#!/usr/bin/env python3
"""Regenerate the bundled triangulation fixtures and verify them.

The Klein bottle comes from a 4x4 grid on the unit square with the usual
identifications (x,0)~(x,1) and (0,y)~(1,1-y); the projective plane is
the lexicographically first 6-vertex closed surface using all 15 edges
and 10 of the 20 triangles.  Both are checked to be closed surfaces with
the right Euler characteristic and orientability before being written.
"""

import sys
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cobcalc.localize import (SimplicialComplex, is_closed_surface,
                              is_orientable)

DATA = Path(__file__).resolve().parent.parent / "src" / "cobcalc" / "data"


def klein_bottle_triangles(n: int = 4) -> list[tuple[str, str, str]]:
    def vertex(i: int, j: int) -> str:
        if i == n:  # (0, y) ~ (1, 1 - y)
            i, j = 0, (n - j) % n
        j %= n  # (x, 0) ~ (x, 1)
        return f"v{i}{j}"

    triangles = []
    for i in range(n):
        for j in range(n):
            a, b = vertex(i, j), vertex(i + 1, j)
            c, d = vertex(i, j + 1), vertex(i + 1, j + 1)
            triangles.append((a, b, d))
            triangles.append((a, d, c))
    return triangles


def projective_plane_triangles() -> list[tuple[int, ...]]:
    vertices = range(1, 7)
    all_triangles = list(combinations(vertices, 3))
    all_edges = list(combinations(vertices, 2))
    for chosen in combinations(all_triangles, 10):
        counts = {e: 0 for e in all_edges}
        ok = True
        for t in chosen:
            for e in combinations(t, 2):
                counts[e] += 1
                if counts[e] > 2:
                    ok = False
                    break
            if not ok:
                break
        if ok and all(c == 2 for c in counts.values()):
            k = SimplicialComplex.from_simplices(chosen)
            if (is_closed_surface(k) and not is_orientable(k)
                    and k.euler_characteristic() == 1):
                return list(chosen)
    raise RuntimeError("no 6-vertex projective plane found")


def write_fixture(name: str, triangles, chi: int, orientable: bool) -> None:
    k = SimplicialComplex.from_simplices(triangles)
    if not is_closed_surface(k):
        raise RuntimeError(f"{name}: not a closed surface")
    if k.euler_characteristic() != chi:
        raise RuntimeError(f"{name}: chi != {chi}")
    if is_orientable(k) != orientable:
        raise RuntimeError(f"{name}: wrong orientability")
    lines = [" ".join(str(v) for v in t) for t in triangles]
    path = DATA / name
    path.write_text("\n".join(lines) + "\n")
    fv = k.f_vector()
    print(f"wrote {path.name}: {fv.get(0, 0)} vertices, {fv.get(1, 0)} edges, "
          f"{fv.get(2, 0)} triangles, chi={k.euler_characteristic()}")


def main() -> None:
    DATA.mkdir(parents=True, exist_ok=True)
    write_fixture("klein_bottle.txt", klein_bottle_triangles(),
                  chi=0, orientable=False)
    write_fixture("projective_plane.txt", projective_plane_triangles(),
                  chi=1, orientable=False)


if __name__ == "__main__":
    main()
