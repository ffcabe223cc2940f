"""Open set condition verdicts with concrete witnesses.

The checker samples a lattice over a candidate open region U and tests
the two halves of the condition: every generator's preimage of U must
land back inside U (nesting), and the preimages under different
generators must not overlap (disjointness).  A failed check always
comes with a witness point that can be replayed by hand.

Three systems below: a pair of cubics with a safe annulus between
their preimage shells (pass), the doubled map (z^2, z^2) whose two
preimage sets coincide (fail with witness), and a region around a
point of the unbounded chart, showing the checker is not confined to
bounded regions.

Run from the repo root:  python3 demos/osc_demo.py
"""
from ratsemi import (
    INF_Z,
    Annulus,
    ComplementDisc,
    MultiMap,
    polynomial_map,
    region_contains,
    osc_check,
)


def show(report):
    print(f"verdict: {report.verdict}   (margin {report.margin:.4g},"
          f" {report.metrics['samples']} samples)")
    print(f"nesting violations: {report.metrics['violations_nesting']},"
          f" overlap violations: {report.metrics['violations_overlap']}")
    for pt, detail in report.witnesses:
        label = "inf" if pt == INF_Z else f"{pt:.6g}"
        print(f"  witness {label}: {detail}")


def main():
    print("== (z^3, z^3/8) on the annulus 0.99 < |z| < 2.85 ==")
    mm = MultiMap([polynomial_map([0, 0, 0, 1.0]),
                   polynomial_map([0, 0, 0, 0.125])])
    show(osc_check(mm, Annulus(0.0, 0.99, 2.85), grid_n=256))
    print("one preimage shell sits near |z| = 1, the other near |z| = 2;")
    print("both stay inside the annulus and apart from each other.")

    print()
    print("== (z^2, z^2) on the annulus 0.9 < |z| < 1.1 ==")
    mm = MultiMap([polynomial_map([0, 0, 1.0]), polynomial_map([0, 0, 1.0])])
    report = osc_check(mm, Annulus(0.0, 0.9, 1.1), grid_n=256)
    show(report)
    pt, _ = report.witnesses[0]
    print("replaying the witness by hand:")
    w = pt ** 2
    inside = region_contains(Annulus(0.0, 0.9, 1.1), w)
    print(f"  both generators send {pt:.6g} to {w:.6g};"
          f" inside U: {inside}")

    print()
    print("== a region through infinity ==")
    mm = MultiMap([polynomial_map([0, 0, 1.0])])
    U = ComplementDisc(0.0, 0.8)
    show(osc_check(mm, U, grid_n=128))
    print("U is the complement of a closed disc, so it contains infinity;")
    print("the sampler covers both coordinate charts.")


if __name__ == "__main__":
    main()
