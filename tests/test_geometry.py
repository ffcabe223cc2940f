"""Geometry tests: regions, open-set-condition sampling, box counting."""
import math

import numpy as np
import pytest

from ratsemi.dynamics import MultiMap, julia_backward_cloud
from ratsemi.errors import InsufficientPoints
from ratsemi.geometry import (
    Annulus,
    BoxCountResult,
    ComplementDisc,
    Disc,
    Triangle,
    _fattened_contains_many,
    box_dimension,
    osc_check,
    region_contains,
)
from ratsemi.sphere import INF, polynomial_map

import oracles


def power_map(d, a=1.0):
    return polynomial_map([0.0] * d + [a])


def gasket_mm(vertices=oracles.TRIANGLE_RAW):
    return MultiMap([polynomial_map([-p, 2.0]) for p in vertices])


# ---------------------------------------------------------------------------
# regions


def test_annulus_membership_is_strict():
    U = Annulus(0.0, 1.0, 2.0)
    assert region_contains(U, 1.5)
    assert region_contains(U, -1.5j)
    assert not region_contains(U, 1.0)
    assert not region_contains(U, 2.0)
    assert not region_contains(U, 0.5)
    assert not region_contains(U, 3.0)
    assert not region_contains(U, INF)


def test_disc_membership():
    U = Disc(1.0 + 1.0j, 0.5)
    assert region_contains(U, 1.0 + 1.0j)
    assert region_contains(U, 1.3 + 1.0j)
    assert not region_contains(U, 1.5 + 1.0j)
    assert not region_contains(U, 0.0)
    assert not region_contains(U, INF)


def test_complement_disc_membership_includes_infinity():
    U = ComplementDisc(0.0, 2.0)
    assert region_contains(U, INF)
    assert region_contains(U, 3.0)
    assert not region_contains(U, 2.0)
    assert not region_contains(U, 1.0)
    assert not region_contains(U, 0.0)


def test_triangle_membership_and_orientation_normalization():
    a, b, c = oracles.TRIANGLE_RAW
    centroid = (a + b + c) / 3.0
    ccw = Triangle(a, b, c)
    cw = Triangle(a, c, b)
    assert ccw.vertices == cw.vertices
    for U in (ccw, cw):
        assert region_contains(U, centroid)
        assert not region_contains(U, a)
        assert not region_contains(U, (a + b) / 2.0)
        assert not region_contains(U, -1.0)
        assert not region_contains(U, INF)


def test_region_constructor_validation():
    with pytest.raises(ValueError):
        Disc(0.0, 0.0)
    with pytest.raises(ValueError):
        Disc(0.0, -1.0)
    with pytest.raises(ValueError):
        Annulus(0.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        Annulus(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        ComplementDisc(0.0, 0.0)
    with pytest.raises(ValueError):
        Triangle(0.0, 1.0, 2.0)


def test_fattened_membership_converts_chordal_to_local_euclidean():
    U = Annulus(0.0, 1.0, 2.0)
    eps = 1e-3
    # just outside radius 2: euclidean slack allowed is eps*(1+|z|^2)/2
    near = 2.0 + 0.9 * eps * (1.0 + 4.0) / 2.0
    far = 2.0 + 2.0 * eps * (1.0 + 4.0) / 2.0
    z = np.array([near, far, 1.5, 0.2], dtype=complex)
    inf = np.zeros(4, dtype=bool)
    got = _fattened_contains_many(U, z, inf, eps)
    assert got.tolist() == [True, False, True, False]
    # infinity joins only once the fattening reaches it chordally
    zi = np.array([0j])
    ii = np.array([True])
    assert not _fattened_contains_many(U, zi, ii, eps)[0]
    reach = 2.0 / math.sqrt(1.0 + 2.0**2)
    assert _fattened_contains_many(U, zi, ii, reach * 1.01)[0]
    assert _fattened_contains_many(ComplementDisc(0.0, 1.0), zi, ii, eps)[0]


# ---------------------------------------------------------------------------
# open set condition


def test_osc_passes_for_cubic_pair_on_annulus():
    mm = MultiMap([power_map(3), power_map(3, 1.0 / 8.0)])
    U = Annulus(0.0, 0.99, 2.85)
    rep = osc_check(mm, U, grid_n=128)
    assert rep.verdict == "pass"
    assert rep.passed
    assert rep.witnesses == []
    assert rep.metrics["violations_nesting"] == 0
    assert rep.metrics["violations_overlap"] == 0
    assert rep.margin == pytest.approx(2 * 2.85 * 1.5 / 128)


def test_osc_overlap_failure_with_reproducible_witness():
    mm = MultiMap([power_map(2), power_map(2)])
    U = Annulus(0.0, 0.9, 1.1)
    rep = osc_check(mm, U, grid_n=64)
    assert rep.verdict == "fail"
    assert not rep.passed
    assert len(rep.witnesses) == 1
    pt, detail = rep.witnesses[0]
    assert "not disjoint" in detail
    # the witness statement holds in isolation
    x = pt.value
    assert region_contains(U, mm.map_for(1)(x))
    assert region_contains(U, mm.map_for(2)(x))
    # any such point must itself lie in the preimage annulus
    assert 0.9 <= abs(x) ** 2 <= 1.1


def test_osc_failure_persists_under_grid_refinement():
    mm = MultiMap([power_map(2), power_map(2)])
    U = Annulus(0.0, 0.9, 1.1)
    coarse = osc_check(mm, U, grid_n=64)
    fine = osc_check(mm, U, grid_n=128)
    assert coarse.verdict == "fail" and fine.verdict == "fail"
    # dyadic lattices nest, so the refined run sees at least as many hits
    assert fine.metrics["violations_overlap"] >= coarse.metrics["violations_overlap"]


def test_osc_nesting_violation():
    # f(z) = z + 0.5 pulls disc points from outside the disc
    mm = MultiMap([polynomial_map([0.5, 1.0])])
    U = Disc(0.0, 1.0)
    rep = osc_check(mm, U, grid_n=64)
    assert rep.verdict == "fail"
    pt, detail = rep.witnesses[0]
    assert "outside U" in detail
    x = pt.value
    assert region_contains(U, mm.map_for(1)(x))
    assert not region_contains(U, x)


def test_osc_gasket_triangle_plain_pass():
    a, b, c = oracles.TRIANGLE_RAW
    rep = osc_check(gasket_mm(), Triangle(a, b, c), grid_n=128)
    assert rep.verdict == "pass"


def test_osc_gasket_triangle_separating_fails_at_edge_midpoints():
    a, b, c = oracles.TRIANGLE_RAW
    rep = osc_check(
        gasket_mm(), Triangle(a, b, c), grid_n=512, variant="separating",
        epsilon=0.01,
    )
    assert rep.verdict == "fail"
    assert rep.metrics["violations_nesting"] == 0
    assert rep.metrics["violations_overlap"] > 0
    pt, detail = rep.witnesses[0]
    assert "closed" in detail
    mids = [(a + b) / 2.0, (b + c) / 2.0, (c + a) / 2.0]
    assert min(abs(pt.value - m) for m in mids) < 0.02


def test_osc_complement_disc_single_power_map_passes():
    mm = MultiMap([power_map(2)])
    rep = osc_check(mm, ComplementDisc(0.0, 1.0), grid_n=64)
    assert rep.verdict == "pass"
    # sample set includes the 1/z chart and the point at infinity
    assert rep.metrics["samples"] > 65 * 65


def test_osc_complement_disc_mixed_failure():
    mm = MultiMap([power_map(2), polynomial_map([0.0, 2.0])])
    rep = osc_check(mm, ComplementDisc(0.0, 1.0), grid_n=64)
    assert rep.verdict == "fail"
    assert rep.metrics["violations_nesting"] > 0
    assert rep.metrics["violations_overlap"] > 0
    assert len(rep.witnesses) == 2


def test_osc_parameter_validation():
    mm = MultiMap([power_map(2)])
    with pytest.raises(ValueError):
        osc_check(mm, Disc(0.0, 1.0), grid_n=32)
    with pytest.raises(ValueError):
        osc_check(mm, Disc(0.0, 1.0), variant="fuzzy")


def test_osc_separating_rejects_a_negative_epsilon():
    # {z^2, z^2} overlaps everywhere in U; a negative fattening would shrink both images away
    mm = MultiMap([power_map(2), power_map(2)])
    U = Annulus(0.0, 0.5, 2.0)
    for eps in (1e-3, 0.0):
        rep = osc_check(mm, U, grid_n=64, variant="separating", epsilon=eps)
        assert rep.verdict == "fail" and rep.metrics["violations_overlap"] > 0
    for eps in (-1.0, math.nan):
        with pytest.raises(ValueError, match="epsilon"):
            osc_check(mm, U, grid_n=64, variant="separating", epsilon=eps)


def test_osc_deterministic():
    mm = MultiMap([power_map(2), power_map(2)])
    U = Annulus(0.0, 0.9, 1.1)
    r1 = osc_check(mm, U, grid_n=64)
    r2 = osc_check(mm, U, grid_n=64)
    assert r1.witnesses[0][0].value == r2.witnesses[0][0].value
    assert r1.metrics == r2.metrics


# ---------------------------------------------------------------------------
# box counting


def test_box_dimension_filled_square():
    rng = np.random.default_rng(7)
    z = rng.random(200_000) + 1j * rng.random(200_000)
    res = box_dimension(z, scale_count=5)
    assert isinstance(res, BoxCountResult)
    assert 1.9 <= res.slope <= 2.01
    assert res.r_squared > 0.99
    assert all(s1 > s2 for s1, s2 in zip(res.scales, res.scales[1:]))
    assert all(c1 <= c2 for c1, c2 in zip(res.counts, res.counts[1:]))
    assert len(res.scales) == len(res.counts) == 5


def test_box_dimension_segment():
    rng = np.random.default_rng(3)
    z = rng.random(12000) + 0.3j
    res = box_dimension(z, scale_count=5, viewport=(0.0, 1.0, 0.0, 1.0))
    assert 0.9 <= res.slope <= 1.1


def test_box_counts_match_set_based_oracle():
    rng = np.random.default_rng(11)
    z = rng.random(12000) + 1j * rng.random(12000)
    res = box_dimension(z, scale_count=4, viewport=(0.0, 1.0, 0.0, 1.0))
    for eps, count in zip(res.scales, res.counts):
        assert count == oracles.box_count_bf(z, eps, (0.0, 0.0))


def test_box_dimension_unit_circle_cloud():
    mm = MultiMap([power_map(2)])
    cloud = julia_backward_cloud(mm, depth=14, cap=200_000, rng_seed=0)
    res = box_dimension(cloud, scale_count=6)
    assert 0.9 <= res.slope <= 1.1
    assert res.r_squared > 0.98


def test_box_dimension_gasket_cloud():
    cloud = julia_backward_cloud(gasket_mm(), depth=9, cap=200_000, rng_seed=0)
    res = box_dimension(cloud, scale_count=6)
    assert 1.40 <= res.slope <= 1.70


def test_box_dimension_viewport_restriction():
    rng = np.random.default_rng(5)
    z = rng.random(40000) + 1j * rng.random(40000)
    res = box_dimension(z, scale_count=5, viewport=(0.5, 1.0, 0.0, 1.0))
    assert 1.85 <= res.slope <= 2.05


def test_box_dimension_insufficient_points():
    rng = np.random.default_rng(1)
    z = rng.random(500) + 1j * rng.random(500)
    with pytest.raises(InsufficientPoints):
        box_dimension(z)
    big = rng.random(20000) + 1j * rng.random(20000)
    with pytest.raises(InsufficientPoints):
        box_dimension(big, viewport=(5.0, 6.0, 5.0, 6.0))
