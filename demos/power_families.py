"""Closed-form sanity tour: semigroups of power maps.

Tuples of power maps z -> a z^d are the systems where every
thermodynamic quantity has a pencil-and-paper answer, which makes them
the right place to watch the estimator machinery work before trusting
it on anything harder.  Pressure should come out as log sum_j d_j^(1-t),
the Bowen parameter as the root of that expression in t, and the
entropy/Lyapunov pair should satisfy entropy = pressure + t * lyapunov.

Run from the repo root:  python3 demos/power_families.py
"""
import math

from ratsemi import (
    MultiMap,
    ThermoConfig,
    bowen_parameter,
    lyapunov_and_entropy,
    polynomial_map,
    pressure_curve,
)


def power_mm(*specs):
    """MultiMap of maps z -> a z^d for (d, a) pairs."""
    return MultiMap([polynomial_map([0.0] * d + [a]) for d, a in specs])


def closed_form_pressure(degrees, t):
    return math.log(math.fsum(d ** (1.0 - t) for d in degrees))


def main():
    print("== pressure curve for (z^2, z^2) ==")
    mm = power_mm((2, 1.0), (2, 1.0))
    ts = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    print(f"{'t':>4}  {'estimate':>12}  {'closed form':>12}  {'gap':>9}")
    for t, est in zip(ts, pressure_curve(mm, ts)):
        want = closed_form_pressure((2, 2), t)
        print(f"{t:4.1f}  {est.value:12.8f}  {want:12.8f}"
              f"  {abs(est.value - want):9.2e}")

    print()
    print("== Bowen parameters (zero of the pressure) ==")
    cases = [
        ("(z^2, z^2)", power_mm((2, 1.0), (2, 1.0)),
         2.0),
        ("(z^2, z^2, z^2)", power_mm((2, 1.0), (2, 1.0), (2, 1.0)),
         1.0 + math.log(3) / math.log(2)),
        ("(z^3, z^3)", power_mm((3, 1.0), (3, 1.0)),
         1.0 + math.log(2) / math.log(3)),
    ]
    for name, mm_k, want in cases:
        res = bowen_parameter(mm_k, ThermoConfig(depth=10))
        print(f"{name:>16}: delta = {res.delta:.6f} +/- {res.delta_error:.1e}"
              f"   (closed form {want:.6f})")

    print()
    print("== mixed degrees: (z^2, z^3) ==")
    res = bowen_parameter(power_mm((2, 1.0), (3, 1.0)), ThermoConfig(depth=10))
    print(f"delta = {res.delta:.6f} +/- {res.delta_error:.1e}")
    print("the Moran-type equation 2^(1-t) + 3^(1-t) = 1 puts the root at"
          " 1.787885")

    print()
    print("== entropy identity at t = 2 for (z^2, z^2) ==")
    (est,) = lyapunov_and_entropy(power_mm((2, 1.0), (2, 1.0)), [2.0])
    print(f"lyapunov = {est.lyapunov:.6f}   (log 2 = {math.log(2):.6f})")
    print(f"entropy  = {est.entropy:.6f}   (log 4 = {math.log(4):.6f})")
    print(f"entropy - t * lyapunov = {est.entropy - 2.0 * est.lyapunov:.2e}"
          f"  vs pressure {est.value:.2e}")


if __name__ == "__main__":
    main()
