"""The Sierpinski gasket as a Julia set of three degree-one maps.

The maps z -> 2z - p for the three vertices p of an equilateral
triangle generate a semigroup whose Julia set is the gasket spanned by
those vertices: each inverse branch is the half-scale similarity
toward one vertex.  With the open triangle as test region the open set
condition holds, so the Bowen parameter equals the Hausdorff dimension
log 3 / log 2.  The separating variant of the condition fails, because
the three shrunken closed triangles touch at the edge midpoints.

The triangle is centered at the origin with unit side so spherical
distortion stays small.  Run from the repo root:

    python3 demos/sierpinski_gasket.py

A rendered image of the same system is one CLI call away:

    ratsemi julia --config demos/configs/gasket.json --out gasket.ppm
"""
import math

from ratsemi import (
    MultiMap,
    ThermoConfig,
    Triangle,
    bowen_parameter,
    box_dimension,
    julia_backward_cloud,
    osc_check,
    polynomial_map,
)

SIDE_HEIGHT = 0.5 * math.sqrt(3.0)
CENTROID = 0.5 + 1j * SIDE_HEIGHT / 3.0
VERTICES = tuple(p - CENTROID for p in (0.0, 1.0, 0.5 + 1j * SIDE_HEIGHT))


def main():
    mm = MultiMap([polynomial_map([-p, 2.0]) for p in VERTICES])

    print("== open set condition on the spanning triangle ==")
    tri = Triangle(*VERTICES)
    plain = osc_check(mm, tri, grid_n=256)
    print(f"plain variant:      {plain.verdict}"
          f"  ({plain.metrics['samples']} samples)")
    sep = osc_check(mm, tri, grid_n=512, variant="separating", epsilon=0.01)
    print(f"separating variant: {sep.verdict}")
    for pt, detail in sep.witnesses:
        print(f"  witness {pt:.6g}: {detail}")
    print("the closed preimage triangles touch at the edge midpoints, so the")
    print("strict-disjointness variant must fail while the plain one passes.")

    print()
    print("== Bowen parameter vs log 3 / log 2 ==")
    res = bowen_parameter(mm, ThermoConfig(depth=10))
    want = math.log(3.0) / math.log(2.0)
    print(f"delta      = {res.delta:.6f} +/- {res.delta_error:.1e}")
    print(f"closed form = {want:.6f}   (gap {abs(res.delta - want):.2e})")

    print()
    print("== box-counting dimension of the backward-orbit cloud ==")
    cloud = julia_backward_cloud(mm, depth=10)
    z, depth = cloud.finite_points()
    box = box_dimension(cloud)
    print(f"{z.size} points down to level {depth.max()}")
    print(f"slope = {box.slope:.4f}  (r^2 = {box.r_squared:.5f})")
    for eps, count in zip(box.scales, box.counts):
        print(f"  eps = {eps:.5f}: {count} boxes")


if __name__ == "__main__":
    main()
