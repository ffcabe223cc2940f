"""A family of full-dimensional Julia sets, and one that overshoots.

The pair (z^2, lambda z^2) with 0 < lambda < 1 has Julia set equal to
the closed annulus 1 <= |z| <= 1/lambda: a set of Hausdorff dimension
2 that is far from being the whole sphere.  The Bowen parameter lands
on 2 for every such lambda, and the box-counting slope of the backward
cloud approaches 2 from below.

Adding more same-degree generators pushes the parameter past 2, for
example (z^2, z^2/4, z^2/3).  A value above 2 certifies that no open
subset of the plane can make the open set condition work, since the
parameter bounds the dimension of a planar set whenever the condition
holds.

Run from the repo root:  python3 demos/annulus_family.py
"""
import numpy as np

from ratsemi import (
    MultiMap,
    ThermoConfig,
    bowen_parameter,
    box_dimension,
    julia_backward_cloud,
    polynomial_map,
)


def scaled_square(a):
    return polynomial_map([0.0, 0.0, a])


def main():
    print("== (z^2, lambda z^2): annuli of dimension 2 ==")
    print(f"{'lambda':>7}  {'|z| range of cloud':>22}  {'delta':>8}  {'box':>6}")
    for lam in (0.3, 0.5, 0.7):
        mm = MultiMap([scaled_square(1.0), scaled_square(lam)])
        cloud = julia_backward_cloud(mm, depth=12)
        radii = np.abs(cloud.finite_points()[0])
        res = bowen_parameter(mm, ThermoConfig(depth=10))
        box = box_dimension(cloud)
        print(f"{lam:7.2f}  [{radii.min():8.5f}, {radii.max():8.5f}]"
              f"  expected [1, {1.0 / lam:.4f}]"
              f"  {res.delta:8.5f}  {box.slope:6.4f}")

    print()
    print("== (z^2, z^2/4, z^2/3): past the planar ceiling ==")
    mm = MultiMap([scaled_square(1.0), scaled_square(0.25),
                   scaled_square(1.0 / 3.0)])
    res = bowen_parameter(mm, ThermoConfig(depth=12))
    print(f"delta = {res.delta:.5f} +/- {res.delta_error:.1e}")
    if res.delta - res.delta_error > 2.0:
        print("the whole error bar sits above 2: no planar open set can")
        print("satisfy the open set condition for this system.")
    print()
    print("the CLI prints the same conclusion:")
    print("    ratsemi bowen --config demos/configs/supercritical.json")


if __name__ == "__main__":
    main()
