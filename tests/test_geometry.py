"""Geometry tests: regions, open-set-condition sampling, box counting."""
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ratsemi import cli
from ratsemi.config import parse_file
from ratsemi.dynamics import CloudLevel, MultiMap, PointCloud, julia_backward_cloud
from ratsemi.errors import InsufficientPoints
from ratsemi.geometry import (
    Annulus,
    BoxCountResult,
    ComplementDisc,
    Disc,
    MIN_BOX_POINTS,
    Triangle,
    _contains_many,
    _fattened_contains_many,
    _sample_points,
    _smallest_witness,
    box_dimension,
    osc_check,
    region_contains,
)
from ratsemi.sphere import INF_Z, polynomial_map

import oracles
from oracles import gasket_mm, power_map


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
    assert not region_contains(U, INF_Z)


def test_disc_membership():
    U = Disc(1.0 + 1.0j, 0.5)
    assert region_contains(U, 1.0 + 1.0j)
    assert region_contains(U, 1.3 + 1.0j)
    assert not region_contains(U, 1.5 + 1.0j)
    assert not region_contains(U, 0.0)
    assert not region_contains(U, INF_Z)


def test_complement_disc_membership_includes_infinity():
    U = ComplementDisc(0.0, 2.0)
    assert region_contains(U, INF_Z)
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
        assert not region_contains(U, INF_Z)


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
    got = _fattened_contains_many(U, z, eps)
    assert got.tolist() == [True, False, True, False]
    # infinity joins only once the fattening reaches it chordally
    zi = np.array([INF_Z])
    assert not _fattened_contains_many(U, zi, eps)[0]
    reach = 2.0 / math.sqrt(1.0 + 2.0**2)
    assert _fattened_contains_many(U, zi, reach * 1.01)[0]
    assert _fattened_contains_many(ComplementDisc(0.0, 1.0), zi, eps)[0]


_coord = st.floats(-4.0, 4.0, allow_nan=False)
_centers = st.builds(complex, _coord, _coord)
_radii = st.floats(0.01, 4.0)
_REGION_KINDS = {
    "disc": st.builds(Disc, _centers, _radii),
    "annulus": st.builds(lambda c, r, w: Annulus(c, r, r + w), _centers, _radii, _radii),
    "complement-disc": st.builds(ComplementDisc, _centers, _radii),
    "triangle": st.tuples(_centers, _centers, _centers).filter(
        lambda v: abs(((v[1] - v[0]).conjugate() * (v[2] - v[0])).imag) > 1e-3,
    ).map(lambda v: Triangle(*v)),
}


@pytest.mark.parametrize("kind", list(_REGION_KINDS))
@settings(max_examples=100, deadline=None)
@given(st.data())
def test_region_answers_agree_on_finite_points(kind, data):
    U = data.draw(_REGION_KINDS[kind])
    z = np.array(data.draw(st.lists(_centers, min_size=1, max_size=64)))
    x0, x1, y0, y1 = U.bounding_box()
    slack = 1e-9 * (1.0 + max(abs(x0), abs(x1), abs(y0), abs(y1)))  # float rounding only
    inside = U.interior(z)
    assert np.all(U.distance(z)[inside] == 0.0)
    # the box holds the boundary, so off the box only an unbounded region holds points
    off_box = ((z.real < x0 - slack) | (z.real > x1 + slack)
               | (z.imag < y0 - slack) | (z.imag > y1 + slack))
    assert np.all(inside[off_box] == U.holds_infinity)
    assert np.all(np.abs(z[inside]) <= U.max_modulus() + slack)
    assert U.holds_infinity == math.isinf(U.max_modulus())


# ---------------------------------------------------------------------------
# open set condition


@pytest.mark.parametrize("U", [Disc(0.0, 1.0), ComplementDisc(0.0, 1.0)])
@pytest.mark.parametrize("variant", ["plain", "separating"])
def test_osc_overlap_matches_pairwise_reference_on_three_generators(U, variant):
    # f_j(z) = 1.5 z - 0.5 p_j pulls the unit disc onto discs of radius 2/3 around p_j / 3,
    # which overlap pairwise and all three near 0
    mm = MultiMap([polynomial_map([-0.5 * np.exp(2j * np.pi * k / 3), 1.5]) for k in range(3)])
    eps = 0.01
    rep = osc_check(mm, U, grid_n=64, variant=variant, epsilon=eps)
    z, _ = _sample_points(U, 64)
    masks = []
    for f in mm.generators:
        img = f.eval_many(z)
        if variant == "separating":
            masks.append(_fattened_contains_many(U, img, eps))
        else:
            masks.append(_contains_many(U, img))
    overlap = np.zeros(z.shape, dtype=bool)
    for i in range(3):
        for j in range(i + 1, 3):
            overlap |= masks[i] & masks[j]
    assert rep.metrics["violations_overlap"] == int(overlap.sum()) > 0
    k = min(np.flatnonzero(overlap),
            key=lambda k: (math.inf, 0.0) if np.isinf(z[k]) else (z[k].real, z[k].imag))
    pt, detail = rep.witnesses[-1]
    assert "not disjoint" in detail
    assert pt != INF_Z and pt == z[k]


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
    x = pt
    assert region_contains(U, mm.generators[0](x))
    assert region_contains(U, mm.generators[1](x))
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
    x = pt
    assert region_contains(U, mm.generators[0](x))
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
    assert min(abs(pt - m) for m in mids) < 0.02


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


def test_osc_rejects_a_grid_n_that_is_not_an_integer():
    # grid_n 64.5 sampled a 66 x 66 lattice and returned a verdict
    mm = MultiMap([power_map(2), power_map(2, 0.5)])
    U = Annulus(0.0, 1.0, 2.0)
    for grid_n in (64.5, 128.0, True, np.float64(64.0)):
        with pytest.raises(ValueError, match="grid_n must be an integer"):
            osc_check(mm, U, grid_n=grid_n)
    assert osc_check(mm, U, grid_n=np.int64(64)) == osc_check(mm, U, grid_n=64)


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


def test_osc_samples_a_fixed_window_around_the_region():
    # the lattice spans the bounding box [-2, 2]^2 enlarged 1.5 times: 6 wide in 64 steps
    mm = MultiMap([power_map(2), power_map(2, 0.5)])
    assert osc_check(mm, Annulus(0.0, 1.0, 2.0), grid_n=64).margin == 6.0 / 64


def test_smallest_witness_is_the_first_lexsort_pick():
    # few distinct parts, so real parts repeat and whole points tie; -0.0 and 0.0 compare
    # equal but differ in their bits, which tells which of two tied points was picked
    rng = np.random.default_rng(8)
    parts = np.array([-1.0, -0.0, 0.0, 2.0])
    for _ in range(300):
        n = int(rng.integers(1, 30))
        z = rng.choice(parts, n).astype(complex)
        z.imag = rng.choice(parts, n)  # set in place: x + 1j * y would turn an imaginary -0.0 into 0.0
        z[rng.random(n) < 0.3] = INF_Z
        mask = rng.random(n) < 0.5
        mask[rng.integers(n)] = True
        idx = np.flatnonzero(mask)
        want = z[idx[np.lexsort((z[idx].imag, z[idx].real))[0]]]
        got = _smallest_witness(z, mask)
        assert type(got) is complex and np.array(got).tobytes() == want.tobytes()
    assert _smallest_witness(np.array([INF_Z, 5.0, INF_Z]), np.array([True, False, True])) == INF_Z


def test_osc_deterministic():
    mm = MultiMap([power_map(2), power_map(2)])
    U = Annulus(0.0, 0.9, 1.1)
    r1 = osc_check(mm, U, grid_n=64)
    r2 = osc_check(mm, U, grid_n=64)
    assert r1.witnesses[0][0] == r2.witnesses[0][0]
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


def _in_viewport(z, viewport):
    x0, x1, y0, y1 = viewport
    return z[(z.real >= x0) & (z.real <= x1) & (z.imag >= y0) & (z.imag <= y1)]


def _box_cases():
    """(points, scale_count, viewport or None) for the one-pass counter."""
    rng = np.random.default_rng(11)
    yield rng.random(12000) + 1j * rng.random(12000), 4, (0.0, 1.0, 0.0, 1.0)
    # clustered clouds far from the origin, default viewport (the bounding box)
    for center, spread in ((1e6 + 1e6j, 1e-3), (-3e5 + 7e4j, 2.0)):
        z = center + spread * (rng.standard_normal(12_000) + 1j * rng.standard_normal(12_000))
        yield z, 7, None
    # dyadic points on cell corners and on all four viewport edges, up to the finest scale
    k = np.arange(257) / 256.0
    grid = (k[:, None] + 1j * k[None, :]).ravel()
    edges = np.concatenate([k, 1.0 + 1j * k, 1j * k, k + 1j])
    yield np.concatenate([grid, edges, rng.random(3000) + 1j * rng.random(3000)]), 12, \
        (0.0, 1.0, 0.0, 1.0)
    # the same lattice shifted far out, a viewport edge through a row of points
    yield 5e5 - 2e5j + np.concatenate([grid, edges]), 9, (5e5, 5e5 + 0.5, -2e5, -2e5 + 1.0)
    # viewports that cut a uniform cloud, one wider than tall, one with every scale
    z = rng.random(80_000) * 3.0 - 1.0 + 1j * (rng.random(80_000) * 2.0 - 0.5)
    yield z, 6, (0.25, 1.8, -0.1, 0.6)
    yield z, 24, (-0.3, 0.7, 0.0, 1.3)
    # a levelled cloud with points at infinity, read level by level; the viewport crops
    # levels 0 and 3 to nothing, and level 2 holds only infinity
    inner = rng.random(15_000) * 0.9 + 1j * rng.random(15_000)
    inner[::7] = INF_Z
    outer = 2.0 + rng.random(500) + 1j * rng.random(500)
    levels = [np.array([5.0 + 5.0j, INF_Z]), np.concatenate([inner[:6000], outer]),
              np.full(40, INF_Z), outer, inner[6000:]]
    yield PointCloud([CloudLevel(z) for z in levels], {}), 8, (0.0, 1.0, 0.0, 1.0)


def test_box_counts_match_set_based_oracle():
    for z, scale_count, viewport in _box_cases():
        res = box_dimension(z, scale_count=scale_count, viewport=viewport)
        if isinstance(z, PointCloud):
            z = z.finite_points()[0]
        inside = z if viewport is None else _in_viewport(z, viewport)
        x0 = float(inside.real.min()) if viewport is None else viewport[0]
        y0 = float(inside.imag.min()) if viewport is None else viewport[2]
        assert len(res.counts) == scale_count
        for eps, count in zip(res.scales, res.counts):
            assert count == oracles.box_count_bf(inside, eps, (x0, y0))


def test_box_fit_matches_the_polyfit_reference():
    # the count lists of the annulus, gasket and power_pair demo configs' julia clouds
    configs = Path(__file__).parent.parent / "demos" / "configs"
    results = []
    for name in ("annulus", "gasket", "power_pair"):
        cfg = parse_file(str(configs / f"{name}.json"))
        results.append(box_dimension(cli._julia_cloud(cfg), **cfg.data["boxdim"]))
    rng = np.random.default_rng(4)
    square = rng.random(12_000) + 1j * rng.random(12_000)
    results += [box_dimension(square, scale_count=k) for k in (2, 9)]
    for res in results:
        want = oracles.box_fit_ref(res.scales, res.counts)
        assert np.allclose((res.slope, res.r_squared), want, rtol=1e-12, atol=0.0)
        assert res.r_squared <= 1.0
    # one or three points far apart, each repeated, fill as many cells at every scale:
    # slope 0 and r^2 1, exactly
    for n in (1, 3):
        spots = np.array([0.1 + 0.1j, 0.9 + 0.9j, 0.1 + 0.9j])[:n]
        res = box_dimension(np.repeat(spots, MIN_BOX_POINTS), viewport=(0.0, 1.0, 0.0, 1.0))
        assert res.counts == [n] * 6
        assert (res.slope, res.r_squared) == (0.0, 1.0)


def test_box_dimension_bounds_its_scale_count():
    rng = np.random.default_rng(2)
    z = rng.random(12_000) + 1j * rng.random(12_000)
    assert len(box_dimension(z, scale_count=24).counts) == 24
    for bad in (1, 25):
        with pytest.raises(ValueError, match="scale_count"):
            box_dimension(z, scale_count=bad)


def test_box_dimension_scale_count_must_be_an_integer():
    # 6.5 and np.float64(4.0) raised TypeError from range
    rng = np.random.default_rng(2)
    z = rng.random(12_000) + 1j * rng.random(12_000)
    for bad in (6.5, np.float64(4.0), True):
        with pytest.raises(ValueError, match="scale_count must be an integer"):
            box_dimension(z, scale_count=bad)
    assert box_dimension(z, scale_count=np.int64(4)) == box_dimension(z, scale_count=4)


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


def _square_50k():
    rng = np.random.default_rng(11)
    return rng.random(50_000) + 1j * rng.random(50_000)


@pytest.mark.parametrize("bad", [INF_Z, complex(math.nan, 0.5)], ids=["infinity", "nan"])
def test_box_dimension_of_an_array_reads_only_its_finite_points(bad):
    # infinity made the extent inf (a warning from the divide), nan made it nan (0 points counted)
    z = _square_50k()
    assert box_dimension(np.append(z, bad)) == box_dimension(z)
    assert box_dimension(np.insert(z, 7, bad), viewport=(0.0, 1.0, 0.0, 1.0)) == \
        box_dimension(z, viewport=(0.0, 1.0, 0.0, 1.0))


@pytest.mark.parametrize("viewport", [
    (0.0, math.inf, 0.0, 1.0), (0.0, 1.0, math.nan, 1.0), (1.0, 0.0, 0.0, 1.0), (0.0, 1.0, 1.0, 0.5),
], ids=["inf", "nan", "x-reversed", "y-reversed"])
def test_box_dimension_rejects_a_viewport_of_unordered_or_non_finite_bounds(viewport):
    # (0, inf, 0, 1) warned "divide by zero encountered in log", then np.polyfit raised LinAlgError
    with pytest.raises(ValueError, match="viewport must be finite"):
        box_dimension(_square_50k(), viewport=viewport)


def test_box_dimension_insufficient_points():
    rng = np.random.default_rng(1)
    z = rng.random(500) + 1j * rng.random(500)
    with pytest.raises(InsufficientPoints):
        box_dimension(z)
    big = rng.random(20000) + 1j * rng.random(20000)
    with pytest.raises(InsufficientPoints):
        box_dimension(big, viewport=(5.0, 6.0, 5.0, 6.0))
