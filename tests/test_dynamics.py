"""Dynamics tests: words, skew preimages, orbit clouds, verification checks."""
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ratsemi import cli, dynamics, families, geometry
from ratsemi.config import parse_file
from ratsemi.dynamics import (
    CloudLevel,
    MultiMap,
    PointCloud,
    VerificationReport,
    check_hyperbolic,
    _expand_backward,
    _subsample_level,
    julia_backward_cloud,
    repelling_seed,
)
from ratsemi.errors import NoRepellingSeed
from ratsemi.geometry import ComplementDisc, _sample_points, box_dimension, osc_check
from ratsemi.sphere import (
    INF_Z,
    RationalMap,
    _point_array,
    as_point,
    chordal_distance,
    chordal_distance_many,
    polynomial_map,
)
from ratsemi.thermo import PreimageTree, pressure

import oracles
from oracles import (
    RefLevel,
    cloud_entries,
    gasket_mm,
    power_map,
    power_mm,
    skew_preimages,
    word_derivative_norm,
    word_eval,
)


def annulus_mm(lam=0.5):
    return MultiMap([power_map(2), power_map(2, lam)])


def in_triangle(z, vertices, tol=1e-6):
    a, b, c = vertices
    for p, q in ((a, b), (b, c), (c, a)):
        edge = q - p
        if ((edge.conjugate() * (z - p)).imag) / abs(edge) < -tol:
            return False
    return True


# ---------------------------------------------------------------------------
# words


def test_word_eval_applies_first_symbol_first():
    mm = MultiMap([power_map(2), power_map(3)])
    assert word_eval(mm, (1, 2), 2.0) == pytest.approx(64.0)


def test_word_eval_empty_word_is_identity():
    mm = MultiMap([power_map(2)])
    assert word_eval(mm, (), 3.5 + 1j) == 3.5 + 1j
    assert word_eval(mm, (), INF_Z) == INF_Z


def test_word_eval_single_symbol():
    mm = annulus_mm(0.5)
    assert word_eval(mm, (2,), 2.0) == pytest.approx(2.0)


def test_word_eval_rejects_bad_symbol():
    mm = MultiMap([power_map(2)])
    with pytest.raises(ValueError):
        word_eval(mm, (2,), 1.0)


def test_word_derivative_norm_square_twice():
    mm = MultiMap([power_map(2)])
    assert word_derivative_norm(mm, (1, 1), 1.0) == pytest.approx(4.0, rel=1e-12)
    assert word_derivative_norm(mm, (), 1.0) == 1.0


def test_word_derivative_norm_affine_telescopes():
    # for affine maps the spherical factors telescope exactly:
    # ||(f_w)'(z)|| = 2^n (1+|z|^2) / (1+|f_w(z)|^2)
    mm = gasket_mm()
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        word = tuple(int(s) for s in rng.integers(1, 4, size=n))
        z = complex(rng.uniform(0, 1), rng.uniform(0, 0.8))
        end = word_eval(mm, word, z)
        expect = 2.0**n * (1 + abs(z) ** 2) / (1 + abs(end) ** 2)
        assert word_derivative_norm(mm, word, z) == pytest.approx(expect, rel=1e-10)


def test_composition_consistency_property():
    mm = annulus_mm(0.5)
    rng = np.random.default_rng(17)
    for _ in range(30):
        la, lb = int(rng.integers(0, 3)), int(rng.integers(0, 3))
        w1 = tuple(int(s) for s in rng.integers(1, 3, size=la))
        w2 = tuple(int(s) for s in rng.integers(1, 3, size=lb))
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        both = word_eval(mm, w1 + w2, z)
        staged = word_eval(mm, w2, word_eval(mm, w1, z))
        assert chordal_distance(both, staged) <= 1e-8


def test_cocycle_property_of_word_derivatives():
    mm = gasket_mm()
    rng = np.random.default_rng(23)
    for _ in range(30):
        w1 = tuple(int(s) for s in rng.integers(1, 4, size=int(rng.integers(0, 4))))
        w2 = tuple(int(s) for s in rng.integers(1, 4, size=int(rng.integers(0, 4))))
        z = complex(rng.uniform(0, 1), rng.uniform(0, 0.8))
        lhs = word_derivative_norm(mm, w1 + w2, z)
        rhs = word_derivative_norm(mm, w2, word_eval(mm, w1, z)) * (
            word_derivative_norm(mm, w1, z)
        )
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_skew_preimages_enumerates_all_branches():
    mm = MultiMap([power_map(2), power_map(2)])
    pairs = skew_preimages(mm, 1.0)
    assert len(pairs) == 4
    got = {(j, round(y.real), round(y.imag)) for j, y in pairs}
    assert got == {(1, 1, 0), (1, -1, 0), (2, 1, 0), (2, -1, 0)}

    mm23 = MultiMap([power_map(2), power_map(3)])
    assert len(skew_preimages(mm23, 1.0)) == 5

    sq = MultiMap([power_map(2)])
    pre = skew_preimages(sq, -1.0)
    assert {format(y, ".3f") for _, y in pre} == {"0.000+1.000j", "-0.000-1.000j"} or all(
        abs(y**2 + 1.0) < 1e-12 for _, y in pre
    )


# ---------------------------------------------------------------------------
# seeding


def test_seed_of_single_square_is_one():
    pt, sym = repelling_seed(MultiMap([power_map(2)]))
    assert sym == 1
    assert abs(pt - 1.0) < 1e-10


def test_seed_of_gasket_is_first_vertex():
    pt, sym = repelling_seed(gasket_mm())
    assert sym == 1
    assert abs(pt - oracles.TRIANGLE_RAW[0]) < 1e-10


def test_no_repelling_seed_for_translation():
    mm = MultiMap([polynomial_map([1.0, 1.0])])  # z + 1, parabolic at infinity
    with pytest.raises(NoRepellingSeed):
        repelling_seed(mm)
    with pytest.raises(NoRepellingSeed):
        julia_backward_cloud(mm, depth=2, cap=10)


# ---------------------------------------------------------------------------
# backward clouds


def full_backward_cloud(mm, depth, cap, rng_seed=0):
    """The backward tree with its bookkeeping (logd, logw, step norms):
    _expand_backward chained from a full root level at the repelling seed,
    with the cap and seed julia_backward_cloud would use."""
    seed_pt = repelling_seed(mm)[0]
    z = _point_array(seed_pt)
    levels = [CloudLevel(z, logd=np.zeros(z.shape), logw=0.0)]
    for n in range(1, depth + 1):
        levels.append(_expand_backward(mm, levels[-1], cap, rng_seed, n))
    return PointCloud(levels, {"seed_point": seed_pt})


def _seed_level(mm):
    """Level 0 at the repelling seed with an empty word, as the reference needs."""
    z = _point_array(repelling_seed(mm)[0])
    return RefLevel(z, np.zeros((1, 0), dtype=np.int8), np.zeros(1), 0.0)


def _check_capped_levels(mm, parent, cap, seed, depth):
    """_expand_backward chained from parent beside oracles.backward_levels_ref:
    at every depth its z, logd and min_step_norm are bit-identical to
    the reference level, and its one float logw to every reference row's
    weight.  Returns the reference levels, which keep their words."""
    refs = oracles.backward_levels_ref(mm, parent, cap, seed, depth)
    for n, ref in enumerate(refs, start=1):
        parent = _expand_backward(mm, parent, cap, seed, n)
        for name in ("z", "logd"):
            assert getattr(parent, name).tobytes() == getattr(ref, name).tobytes(), (n, name)
        assert type(parent.logw) is float
        assert np.full(ref.size, parent.logw).tobytes() == ref.logw.tobytes(), n
        assert parent.min_step_norm == ref.min_step_norm
    return refs


def reference_cloud(mm, depth, cap, rng_seed=0):
    """The backward tree of full_backward_cloud with the words of its rows:
    the reference levels of _check_capped_levels from the repelling seed."""
    root = _seed_level(mm)
    levels = [root, *_check_capped_levels(mm, root, cap, rng_seed, depth)]
    return PointCloud(levels, {"seed_point": repelling_seed(mm)[0]})


def test_circle_cloud_sits_on_unit_circle():
    cloud = julia_backward_cloud(MultiMap([power_map(2)]), depth=12, cap=200_000)
    z, depth = oracles.flat_arrays(cloud)
    assert np.isfinite(z).all()
    assert np.max(np.abs(np.abs(z) - 1.0)) <= 1e-6
    assert cloud.levels[12].size == 4096


def test_annulus_cloud_stays_in_annulus():
    cloud = julia_backward_cloud(annulus_mm(0.5), depth=10, cap=20_000, rng_seed=3)
    z, _ = oracles.flat_arrays(cloud)
    assert np.isfinite(z).all()
    r = np.abs(z)
    assert r.min() >= 1.0 - 1e-3
    assert r.max() <= 2.0 + 1e-3


def test_gasket_cloud_stays_in_triangle():
    cloud = julia_backward_cloud(gasket_mm(), depth=10, cap=200_000)
    z, _ = oracles.flat_arrays(cloud)
    assert np.isfinite(z).all()
    for w in z[:: max(1, z.size // 2000)]:
        assert in_triangle(complex(w), oracles.TRIANGLE_RAW)


def test_cloud_is_exact_preimage_tree():
    mm = MultiMap([power_map(2), power_map(3)])
    cloud = reference_cloud(mm, depth=4, cap=200_000)
    seed = cloud.meta["seed_point"]
    for pt, word, depth in cloud_entries(cloud):
        assert len(word) == depth
        assert chordal_distance(word_eval(mm, word, pt), seed) <= 1e-6


def test_capped_cloud_is_still_exact_and_bounded():
    mm = annulus_mm(0.5)
    cloud = reference_cloud(mm, depth=6, cap=100, rng_seed=9)
    seed = cloud.meta["seed_point"]
    assert all(lev.size <= 100 for lev in cloud.levels)
    for pt, word, depth in cloud_entries(cloud):
        assert len(word) == depth
        assert chordal_distance(word_eval(mm, word, pt), seed) <= 1e-6


def test_subsampling_is_stratified_by_first_symbol():
    cloud = reference_cloud(annulus_mm(0.5), depth=5, cap=100, rng_seed=1)
    lev = cloud.levels[5]  # 1024 children capped to 100
    assert lev.size == 100
    first = lev.words[:, -1]
    counts = [int(np.sum(first == s)) for s in (1, 2)]
    assert counts == [50, 50]
    # reweighting records the kept fraction
    assert np.allclose(lev.logw, math.log(512 / 50))


def test_cloud_determinism_and_seed_sensitivity():
    a = full_backward_cloud(annulus_mm(0.5), depth=6, cap=150, rng_seed=7)
    b = full_backward_cloud(annulus_mm(0.5), depth=6, cap=150, rng_seed=7)
    for la, lb in zip(a.levels, b.levels):
        assert np.array_equal(la.z, lb.z)
        assert np.array_equal(la.logd, lb.logd)
        assert np.array_equal(la.logw, lb.logw)
    c = full_backward_cloud(annulus_mm(0.5), depth=6, cap=150, rng_seed=8)
    assert not np.array_equal(a.levels[6].z, c.levels[6].z)


def test_raising_cap_or_depth_never_escapes_reference_bounds():
    for depth, cap in ((6, 5_000), (12, 5_000), (6, 10_000)):
        z, _ = oracles.flat_arrays(julia_backward_cloud(annulus_mm(0.5), depth=depth, cap=cap))
        r = np.abs(z)
        assert r.min() >= 1.0 - 1e-3 and r.max() <= 2.0 + 1e-3
    for depth, cap in ((8, 3**8), (9, 3**8)):
        z, _ = oracles.flat_arrays(julia_backward_cloud(gasket_mm(), depth=depth, cap=cap))
        for w in z[:: max(1, z.size // 500)]:
            assert in_triangle(complex(w), oracles.TRIANGLE_RAW, tol=1e-3)


# the Newton map of z^2 - 1 fixes infinity with multiplier 2 (the repelling seed), and
# infinity is a preimage of itself under both maps: every level keeps parents there
NEWTON_SQUARE = MultiMap([RationalMap([1.0, 0.0, 1.0], [0.0, 2.0]), power_map(2)])


def _full_chain_z(mm, depth, cap, seed):
    return [lev.z for lev in full_backward_cloud(mm, depth, cap, seed).levels]


# a capped level of degree >= 2 keeps whole sibling sets, where the full chain, which
# carries logd, picks single children: those cases compare with oracles.sibling_cloud_ref
@pytest.mark.parametrize("mm, depth, cap, seed, ref", [
    pytest.param(annulus_mm(0.5), 6, 150, 7, oracles.sibling_cloud_ref, id="capped"),
    pytest.param(MultiMap([power_map(2), power_map(3)]), 5, 10**6, 0, _full_chain_z, id="uncapped"),
    pytest.param(gasket_mm(), 7, 500, 3, _full_chain_z, id="degree-one-capped"),
    pytest.param(NEWTON_SQUARE, 6, 50, 1, oracles.sibling_cloud_ref, id="infinite-parents-capped"),
    pytest.param(NEWTON_SQUARE, 5, 10**6, 2, _full_chain_z, id="infinite-parents-uncapped"),
])
def test_julia_cloud_points_equal_the_full_chain(mm, depth, cap, seed, ref):
    cloud = julia_backward_cloud(mm, depth=depth, cap=cap, rng_seed=seed)
    assert cloud.meta["seed_point"] == repelling_seed(mm)[0]
    for lev, z in zip(cloud.levels, ref(mm, depth, cap, seed), strict=True):
        assert lev.z.tobytes() == z.tobytes()
        assert lev.size == z.size
        assert lev.logd is None and lev.logw is None
        assert lev.min_step_norm == math.inf
    if mm is NEWTON_SQUARE:
        assert all(np.isinf(lev.z).any() for lev in cloud.levels)
        assert not np.isinf(cloud.levels[-1].z).all()


@pytest.mark.parametrize("mm, depth, cap, seed", [
    pytest.param(annulus_mm(0.5), 6, 150, 7, id="annulus"),
    pytest.param(MultiMap([power_map(2), power_map(3)]), 6, 301, 2, id="mixed-degree"),
    pytest.param(NEWTON_SQUARE, 6, 51, 1, id="infinite-parents"),
    pytest.param(annulus_mm(0.5), 5, 1, 0, id="cap-one"),
])
def test_capped_points_only_levels_keep_whole_sibling_sets(mm, depth, cap, seed):
    # a capped points-only level picks k = cap // (largest degree) of the s m (generator,
    # parent) pairs and keeps every root of each: each pick's d_j rows, in pick order
    cloud = julia_backward_cloud(mm, depth=depth, cap=cap, rng_seed=seed)
    s, top = mm.num_generators, max(mm.degrees)
    k, capped = max(1, cap // top), 0
    for n in range(1, depth + 1):
        parent, z = cloud.levels[n - 1].z, cloud.levels[n].z
        m = parent.size
        if m * mm.total_degree <= cap:
            continue
        capped += 1
        j, p = np.divmod(oracles.jittered_expr_ref(dynamics._derive_seed(seed, n), m * s, k), m)
        degs = np.array(mm.degrees)[j]
        assert z.size == degs.sum() <= max(cap, top)
        # one border between the two generators' pairs: each count within 1 of k / s
        assert np.abs(np.bincount(j, minlength=s) - k / s).max() <= 1
        row = 0
        for jj, pp, d in zip(j, p, degs):
            f, roots = mm.generators[jj], z[row : row + d]
            assert chordal_distance_many(f.eval_many(roots), np.full(d, parent[pp])).max() <= 1e-9
            got = ["inf" if np.isinf(w) else complex(w) for w in roots]
            ref = oracles.preimages_bf(f.num, f.den, "inf" if np.isinf(parent[pp]) else parent[pp])
            assert oracles.best_match(got, ref) < 1e-8  # the whole sibling set, contiguous
            row += d
    assert capped >= 2


# a clipping viewport for julia_backward_cloud(NEWTON_SQUARE, **NEWTON_CLOUD): it keeps 15,206
# of the 17,955 finite points, and cuts points from every level from 3 on
NEWTON_CLOUD = {"depth": 9, "cap": 5000, "rng_seed": 1}
NEWTON_VIEWPORT = [-2.5, 2.5, -1.5, 1.5]


def test_finite_points_are_the_levels_finite_points_in_depth_order():
    for cloud in (julia_backward_cloud(NEWTON_SQUARE, **NEWTON_CLOUD),
                  julia_backward_cloud(annulus_mm(0.5), depth=6, cap=500)):
        z, depth = oracles.flat_arrays(cloud)
        inf = np.isinf(z)
        fz, fdepth = cloud.finite_points()
        assert fz.tobytes() == z[~inf].tobytes()
        assert fdepth.tobytes() == depth[~inf].tobytes()


def _check_julia_against_whole_cloud(tmp_path, capsys, monkeypatch, cloud, viewport, coloring):
    monkeypatch.setattr(cli, "_julia_cloud", lambda cfg: cloud)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "multimap": {"generators": [{"num": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}]},
        "render": {"width": 96, "height": 64, "viewport": viewport, "depth_coloring": coloring},
    }))
    out = tmp_path / "julia.ppm"
    assert cli.main(["julia", "--config", str(path), "--out", str(out)]) == 0
    ppm, lines = oracles.julia_render_ref(cloud, 96, 64, viewport, coloring)
    assert out.read_bytes() == ppm
    assert capsys.readouterr().out.splitlines()[:3] == lines


@pytest.mark.parametrize("viewport, coloring", [
    (None, True), (NEWTON_VIEWPORT, True), (NEWTON_VIEWPORT, False),
])
def test_cli_julia_paints_what_the_whole_cloud_at_once_paints(tmp_path, capsys, monkeypatch,
                                                               viewport, coloring):
    # level 0 is the seed at infinity alone, and every level keeps points there
    cloud = julia_backward_cloud(NEWTON_SQUARE, **NEWTON_CLOUD)
    _check_julia_against_whole_cloud(tmp_path, capsys, monkeypatch, cloud, viewport, coloring)


@pytest.mark.parametrize("viewport", [None, NEWTON_VIEWPORT])
def test_box_dimension_of_a_cloud_is_that_of_its_finite_points(viewport):
    cloud = julia_backward_cloud(NEWTON_SQUARE, **NEWTON_CLOUD)
    got = box_dimension(cloud, viewport=viewport)
    assert got == box_dimension(cloud.finite_points()[0], viewport=viewport)  # every field exact


@pytest.mark.parametrize("viewport", [None, NEWTON_VIEWPORT])
def test_julia_and_boxdim_read_levels_split_into_slices_as_whole_arrays(tmp_path, capsys,
                                                                         monkeypatch, viewport):
    cloud = julia_backward_cloud(NEWTON_SQUARE, **NEWTON_CLOUD)
    monkeypatch.setattr(geometry, "_SLICE", cloud.size)  # the one-array count: one slice
    whole = box_dimension(cloud.finite_points()[0], viewport=viewport)
    # an odd slice size splits the finite points of levels 6 to 9 (3,367 to 4,679) mid-sibling
    # set, and NEWTON_VIEWPORT cuts points from some of their slices but not from the last
    monkeypatch.setattr(geometry, "_SLICE", 1001)
    assert sum(np.count_nonzero(np.isfinite(lev.z)) > 1001 for lev in cloud.levels) == 4
    assert box_dimension(cloud, viewport=viewport) == whole
    _check_julia_against_whole_cloud(tmp_path, capsys, monkeypatch, cloud, viewport, True)


def _bounds_by_mask(zs, *parts):
    z = np.concatenate([np.empty(0, dtype=complex), *zs])
    z = z[np.isfinite(z)]
    return z.size, *((float(p(z).min()), float(p(z).max())) if z.size else (math.inf, -math.inf)
                     for p in parts)


def test_bounds_count_and_range_the_finite_points_in_one_pass(monkeypatch):
    # every level of the Newton-square cloud holds points at infinity, and a slice of 1,001
    # points splits levels 6 to 9; the ranges are exact, so they equal the masked min/max
    cloud = julia_backward_cloud(NEWTON_SQUARE, **NEWTON_CLOUD)
    monkeypatch.setattr(geometry, "_SLICE", 1001)
    passes = []
    monkeypatch.setattr(geometry, "_slices", lambda z, f=geometry._slices: passes.append(z) or f(z))
    zs = [lev.z for lev in cloud.levels]
    parts = (np.real, np.imag, np.abs)
    got = geometry._bounds(zs, *parts)
    assert [id(z) for z in passes] == [id(z) for z in zs]  # one pass over each level, in order
    assert got == _bounds_by_mask(zs, *parts)
    assert got[0] == cloud.size - sum(np.count_nonzero(np.isinf(z)) for z in zs)
    mixed = np.array([INF_Z, -0.5 + 2.0j, complex(math.nan, 1.0), 3.0 - 1.0j, INF_Z])
    for zs in ([], [np.empty(0, dtype=complex)], [np.full(3, INF_Z)],
               [np.full(3, INF_Z), np.empty(0, dtype=complex)], [mixed], [mixed[:2], mixed[2:]]):
        assert geometry._bounds(zs, *parts) == _bounds_by_mask(zs, *parts)
    assert geometry._bounds([np.full(3, INF_Z)], np.real) == (0, (math.inf, -math.inf))
    assert geometry._bounds([mixed], np.real, np.imag) == (2, (-0.5, 3.0), (-1.0, 2.0))


def test_jittered_matches_reference_and_draws_one_pick_per_slice():
    cases = [(0, 1, 1), (3, 5, 9), (7, 50, 50),    # k >= m: every index once
             (1, 60, 12), (5, 1296, 6), (9, 600, 600 // 7),  # integer m / k
             (2, 7, 3), (123456789, 997, 100), (4, 1024, 100), (8, 2**32 - 5, 1000)]
    for seed, m, k in cases:
        got = dynamics._jittered(seed, m, k)
        assert got.tolist() == oracles.jittered_ref(seed, m, k), (seed, m, k)
        if k >= m:
            continue
        i = np.arange(k)
        # pick i lies in slice i, [i m / k, (i + 1) m / k)
        assert np.all((got * k < (i + 1) * m) & ((got + 1) * k > i * m)), (seed, m, k)
    # each index is drawn k / m times in expectation, border indices included
    draws = sum(np.bincount(dynamics._jittered(seed, 7, 3), minlength=7) for seed in range(4000))
    np.testing.assert_allclose(draws / 4000, 3 / 7, atol=0.03)


def test_jittered_equals_the_out_of_place_expression_on_random_draws():
    # _mix64 and _jittered work in place on their arrays; the values must not move
    rng = np.random.default_rng(5)
    for _ in range(300):
        m = int(rng.integers(1, 2**32 if rng.random() < 0.3 else 5000))
        k = int(rng.integers(1, min(m, 3000) + 2))
        seed = int(rng.integers(0, 2**63)) * 2 + int(rng.integers(0, 2))
        got = dynamics._jittered(seed, m, k)
        assert got.tobytes() == oracles.jittered_expr_ref(seed, m, k).tobytes(), (seed, m, k)


def _min_step_norm_by_recompute(mm, level):
    """Reference: step norms of the kept rows, recomputed per newest symbol."""
    out = math.inf
    for j, f in enumerate(mm.generators, start=1):
        mask = level.words[:, -1] == j
        if mask.any():
            out = min(out, float(f.spherical_derivative_norm_many(level.z[mask]).min()))
    return out


def test_backward_level_children_are_contiguous_under_their_parent():
    # f(inf) = 2 for the second map, so its preimages of inf are finite
    mm = MultiMap([polynomial_map([0.1, 0.0, 1.0]), RationalMap([1.0, 0.0, 2.0], [0.0, 1.0, 1.0])])
    parent = RefLevel(
        z=np.array([0.3 + 0.2j, INF_Z, -1.5j]),
        words=np.array([[1], [1], [2]], dtype=np.int8),
        logd=np.array([0.1, 0.2, 0.3]),
        logw=-1.0,
    )
    (child,) = _check_capped_levels(mm, parent, parent.size * mm.total_degree, 0, 1)  # uncapped
    row = 0
    for j, f in enumerate(mm.generators, start=1):
        for i in range(parent.size):
            block = slice(row, row + f.degree)
            assert np.all(child.words[block, :-1] == parent.words[i])
            assert np.all(child.words[block, -1] == j)
            assert np.all(child.logw[block] == parent.logw)  # uncapped: the parent's weight
            target = as_point(parent.z[i])
            for k in range(block.start, block.stop):
                pt = as_point(child.z[k])
                assert chordal_distance(f(pt), target) <= 1e-9
            row += f.degree
    assert row == child.size
    assert not hasattr(_expand_backward(mm, parent, 5, 0, 1), "step_norm")
    (kept,) = _check_capped_levels(mm, parent, 5, 0, 1)
    assert kept.min_step_norm == _min_step_norm_by_recompute(mm, kept)


def test_backward_level_with_infinite_parents_matches_oracle():
    # parents at infinity and a degree-dropping target go through the same
    # preimages_many call as the rest; each parent's block of children must
    # be the np.roots preimage set of its target, with oracle step norms
    maps = [RationalMap([0.0, 2.0], [1.0, 0.0, 1.0]),    # 2w/(1+w^2): 0 -> {0, inf}
            RationalMap([1.0, 0.0, 1.0], [0.0, 1.0]),    # (w^2+1)/w: inf -> {0, inf}
            polynomial_map([0.5, 0.0, 0.0, 1.0])]        # inf -> {inf, inf, inf}
    mm = MultiMap(maps)
    inf = np.array([True, False, False, True, False])
    parent = RefLevel(
        z=np.array([INF_Z, 0j, 0.4 - 1.1j, INF_Z, 2.5j]),
        words=np.array([[1], [2], [3], [1], [2]], dtype=np.int8),
        logd=np.zeros(5), logw=0.0,
    )
    child = _expand_backward(mm, parent, parent.size * mm.total_degree, 0, 1)  # uncapped
    row = 0
    for f in maps:
        num, den = f.num, f.den
        for i in range(parent.size):
            block = range(row, row + f.degree)
            got = ["inf" if np.isinf(child.z[k]) else complex(child.z[k]) for k in block]
            ref = oracles.preimages_bf(num, den, "inf" if inf[i] else parent.z[i])
            assert got.count("inf") == ref.count("inf")
            assert oracles.best_match(got, ref) < 1e-8
            for k, y in zip(block, got):
                want = oracles.sph_deriv_sphere_bf(num, den, y)  # 0 at critical points
                assert math.exp(child.logd[k]) == pytest.approx(want, rel=1e-9, abs=1e-12)
            row += f.degree
    assert row == child.size


def test_backward_levels_are_grouped_by_composition_word():
    mm = MultiMap([polynomial_map([0.2j, 0.0, 1.0]), polynomial_map([0.1, 0.0, 0.5]),
                   polynomial_map([-0.3, 0.0, 0.0, 1.0])])
    cloud = reference_cloud(mm, depth=5, cap=60, rng_seed=2)
    running = math.inf  # min_step_norm runs over levels 1..n
    for lev in cloud.levels[1:]:
        words = [tuple(w) for w in lev.words[:, ::-1].tolist()]
        assert words == sorted(words)
        running = min(running, _min_step_norm_by_recompute(mm, lev))
        assert lev.min_step_norm == running
    assert cloud.levels[5].size == 60
    assert not any(hasattr(lev, "step_norm") for lev in full_backward_cloud(mm, 5, 60, 2).levels)


QUADRATIC_TRIPLES = (
    (polynomial_map([0, 0, 1.0]), polynomial_map([0, 0, 0.25]), polynomial_map([0, 0, 1 / 3])),
    (polynomial_map([0.02 + 0.01j, 0, 1.0]), polynomial_map([-0.01, 0, 0.25]),
     polynomial_map([-0.015j, 0, 1 / 3])),
    (polynomial_map([-1.0, 0, 1.0]), polynomial_map([0.25j, 0, 1.0]), polynomial_map([0, 0, 0.5])),
)


@pytest.mark.parametrize("maps", QUADRATIC_TRIPLES)
def test_capped_backward_levels_match_expand_then_subsample(maps):
    mm = MultiMap(maps)
    root = _seed_level(mm)
    for cap, seed in ((1, 0), (2, 5), (37, 1), (500, 2)):
        assert _check_capped_levels(mm, root, cap, seed, 6)[-1].size == cap
    # cap 2 over the six children of the root: one pick in each half
    kept, _ = oracles.kept_rows_ref(6, 2, 0, 1)
    assert (kept // 3).tolist() == [0, 1]
    assert _check_capped_levels(mm, root, 2, 0, 1)[0].words[:, -1].tolist() == (kept // 2 + 1).tolist()
    # a cap equal to the level size keeps every child, then caps the next level
    assert [lev.size for lev in _check_capped_levels(mm, root, 6**3, 3, 4)] == [6, 36, 216, 216]


def test_capped_mixed_degree_levels_match_expand_then_subsample():
    mm = MultiMap([power_map(2), power_map(3)])
    for cap, seed in ((7, 0), (60, 4), (400, 11)):
        assert _check_capped_levels(mm, _seed_level(mm), cap, seed, 6)[-1].size == cap


def test_capped_tree_level_weight_is_one_float_summed_over_capped_levels():
    # a capped level of n children keeps each cap / n times in expectation, so all
    # its rows share the weight log(n / cap) added to the parent level's
    mm = power_mm((2, 1.0), (2, 0.25), (2, 1 / 3))
    tree = PreimageTree(mm, depth=8, cap=500)
    tree.extend(8)
    w, capped = 0.0, 0
    for k, lev in enumerate(tree.levels):
        if k:
            n = tree.levels[k - 1].size * mm.total_degree
            if n > 500:
                w, capped = w + math.log(n / 500), capped + 1
        assert type(lev.logw) is float, k
        assert lev.logw == w, k
    assert capped == 5 and tree.levels[8].size == 500


def test_capped_rational_levels_with_infinite_parents_match_expand_then_subsample():
    # parents at infinity, degree-dropping targets (0 under the first map,
    # infinity under the second) and critical children at infinity (third map)
    mm = MultiMap([RationalMap([0.0, 2.0], [1.0, 0.0, 1.0]),
                   RationalMap([1.0, 0.0, 1.0], [0.0, 1.0]),
                   polynomial_map([-0.5, 0.0, 1.0])])
    parent = RefLevel(
        z=np.array([INF_Z, 0j, 0.4 - 1.1j, INF_Z, 2.5j]),
        words=np.array([[1], [2], [3], [1], [2]], dtype=np.int8),
        logd=np.zeros(5), logw=0.0,
    )
    for cap in (1, 2, 5, 13, 30, 10**6):
        _check_capped_levels(mm, parent, cap, 7, 3)
    last = _expand_backward(mm, _expand_backward(mm, parent, 30, 7, 1), 30, 7, 2)
    assert np.isinf(last.z).any() and not np.isinf(last.z).all()


def test_capped_level_solves_only_the_parents_of_kept_children(monkeypatch):
    mm = MultiMap(QUADRATIC_TRIPLES[0])
    parent = full_backward_cloud(mm, depth=4, cap=10**6).levels[4]  # 6^4 = 1296 rows
    solved = []
    solve = RationalMap.preimages_many
    monkeypatch.setattr(RationalMap, "preimages_many",
                        lambda f, z: solved.append(len(z)) or solve(f, z))
    got = _expand_backward(mm, parent, 2000, 1, 5)
    assert got.size == 2000
    kept = dynamics._jittered(dynamics._derive_seed(1, 5), 6 * parent.size, 2000)
    by_generator = np.split(kept, np.searchsorted(kept, [2 * parent.size, 4 * parent.size]))
    assert solved == [np.unique(c // 2).size for c in by_generator]
    assert sum(solved) < 2000  # kept siblings share one solve


def test_subsample_level_matches_reference_on_forward_levels():
    mm = MultiMap(QUADRATIC_TRIPLES[1])
    ref = oracles.postcritical_cloud_ref(mm, depth=4, cap=10**6)
    for z, _ in ref[2:]:
        rows = 3 * np.arange(z.size)[::-1]  # the picks index the rows given, in their order
        for cap in (1, 7, rows.size - 1, rows.size):
            got = _subsample_level(rows, cap, 9, 4)
            assert np.array_equal(got, rows[oracles.kept_rows_ref(rows.size, cap, 9, 4)[0]])


# ---------------------------------------------------------------------------
# postcritical clouds


def _forward_points(mm, depth, cap=1000):
    return np.concatenate([z for z, _ in oracles.postcritical_cloud_ref(mm, depth, cap)])


def test_postcritical_cloud_of_power_pair_is_zero_and_infinity():
    z = _forward_points(annulus_mm(0.5), depth=6)
    assert z.size > 0
    assert np.all(np.isinf(z) | (np.abs(z) < 1e-12))
    # the certificate traps both: four cells at 0, and |z| > 4
    assert check_hyperbolic(annulus_mm(0.5)).metrics == {"cells": 4, "h": 2.0**-5, "R": 4.0}


def test_postcritical_cloud_of_single_square():
    for z, _ in oracles.postcritical_cloud_ref(MultiMap([power_map(2)]), depth=5, cap=1000):
        assert z.size == 2  # {0, inf} at every level after deduplication


def test_postcritical_cloud_of_mobius_generators_is_empty():
    assert _forward_points(gasket_mm(), depth=5).size == 0


FORWARD_SYSTEMS = {
    "supercritical": MultiMap([power_map(2), power_map(2, 0.25), power_map(2, 1.0 / 3.0)]),
    # 6,564 images at level 7, so that level is capped at 3,000
    "quadratic-triple": MultiMap([polynomial_map([c, 0.0, 1.0])
                                  for c in (-0.4 + 0.6j, -0.1 + 0.3j, -0.5)]),
    # z^2 + 0.1 sends the critical values -2 and 2 of z^3 - 3z to the same point
    "coincident": MultiMap([polynomial_map([0.0, -3.0, 0.0, 1.0]),
                            polynomial_map([0.1, 0.0, 1.0])]),
    # the same two images 8e-11 apart, equal once rounded: the first image in
    # construction order must win although its re is the larger
    "near-coincident": MultiMap([polynomial_map([1e-11, -3.0, 0.0, 1.0]),
                                 polynomial_map([0.1, 0.0, 1.0])]),
    # z^2 and z^3 conjugated by (z - 1)/(z + 1): both fix their critical values -1 and 1
    "rational": MultiMap([RationalMap([0.0, 2.0], [1.0, 0.0, 1.0]),
                          RationalMap([0.0, 3.0, 0.0, 1.0], [1.0, 0.0, 3.0])]),
}


def sort_then_dedupe_cloud(mm, depth, cap, rng_seed):
    """The z of each level of oracles.postcritical_cloud_ref by another route:
    the first row of each group of equal rounded points found by np.unique
    and put back in construction order by a sort."""
    from ratsemi.dynamics import _derive_seed

    def first(z):
        return z[np.sort(np.unique(np.round(z, 9), return_index=True)[1])]

    levels = [first(np.array([p for f in mm.generators for p in f.critical_values()], dtype=complex))]
    for n in range(1, depth + 1):
        z = first(np.concatenate([f.eval_many(levels[-1]) for f in mm.generators]))
        levels.append(z[oracles.kept_rows_ref(z.size, cap, _derive_seed(rng_seed, 0xF0), n)[0]])
    return levels


@pytest.mark.parametrize("name", sorted(FORWARD_SYSTEMS))
def test_postcritical_cloud_matches_sort_then_dedupe_reference(name):
    mm = FORWARD_SYSTEMS[name]
    cap = 3000
    cloud = sort_then_dedupe_cloud(mm, depth=7, cap=cap, rng_seed=4)
    ref = oracles.postcritical_cloud_ref(mm, depth=7, cap=cap, rng_seed=4)
    for z, (want, _) in zip(cloud, ref, strict=True):
        assert z.tobytes() == want.tobytes()
    if name == "quadratic-triple":
        assert cloud[7].size == cap
    if name in ("coincident", "near-coincident"):
        assert cloud[1].size < mm.num_generators * cloud[0].size
    if name == "near-coincident":
        # z^2 + 0.1 of level 0's first two rows, 2 + 1e-11 and -2 + 1e-11
        first, second = mm.generators[1].eval_many(cloud[0][:2])
        assert first.real > second.real
        assert first in cloud[1] and second not in cloud[1]


@pytest.mark.parametrize("mm", [annulus_mm(0.5), *FORWARD_SYSTEMS.values()])
def test_postcritical_reference_entries_are_word_images_of_critical_values(mm):
    crit = [p for f in mm.generators for p in f.critical_values()]
    for depth, (z, words) in enumerate(oracles.postcritical_cloud_ref(mm, depth=4, cap=200)):
        assert words.shape == (z.size, depth)
        for i in range(z.size):
            pt = as_point(z[i])
            images = [word_eval(mm, tuple(int(x) for x in words[i]), c) for c in crit]
            assert min(chordal_distance(pt, img) for img in images) <= 1e-9


def test_backward_levels_keep_no_words_and_points_only_levels_no_logd():
    mm = annulus_mm(0.5)
    tree = PreimageTree(mm, repelling_seed(mm)[0], depth=5, cap=100, rng_seed=1)
    tree.extend(5)  # levels 4 and 5 are capped
    for lev in (*tree.levels, *full_backward_cloud(mm, 5, 100, 1).levels):
        assert getattr(lev, "words", None) is None and lev.logd is not None
    # points-only levels hold z alone: no words, logd or logw
    for lev in julia_backward_cloud(mm, depth=7, cap=100).levels:
        for field in ("words", "logd", "logw"):
            assert getattr(lev, field, None) is None, field
        assert lev.min_step_norm == math.inf


def _inf_z_count(z):
    """The entries of z bit-equal to INF_Z, after asserting that every other
    entry is finite: no NaN, no infinity with a nonzero or NaN imaginary part."""
    at_inf = (np.ascontiguousarray(z).view(np.uint64).reshape(-1, 2)
              == np.array([INF_Z]).view(np.uint64)).all(axis=1)
    assert (np.isfinite(z).ravel() | at_inf).all()
    return int(at_inf.sum())


def test_point_arrays_hold_finite_values_or_exactly_inf_z():
    # the Newton map of z^2 - 1 seeded at infinity, capped and uncapped
    for cloud in (julia_backward_cloud(NEWTON_SQUARE, depth=6, cap=50, rng_seed=1),
                  full_backward_cloud(NEWTON_SQUARE, 5, 10**6, 2)):
        assert all(_inf_z_count(lev.z) for lev in cloud.levels)
    # the degree-drop targets of test_preimages_many_mixes_infinity_and_degree_drops
    den = np.array([1.0, 0.0, 10.0, 1.0])
    f = RationalMap(den + np.array([2.0, 1.0, 0.0, 0.0]), den)
    z = np.array([0.3 + 0.1j, INF_Z, 1.0, -2.0j, 1.0 + 1e-12, INF_Z])
    assert _inf_z_count(f.preimages_many(z)) == 3
    _inf_z_count(f.eval_many(z))
    # a polynomial's postcritical cloud: infinity is a critical value
    post = oracles.postcritical_cloud_ref(FORWARD_SYSTEMS["quadratic-triple"], depth=5, cap=1000)
    assert all(_inf_z_count(z) == 1 for z, _ in post)
    # the osc lattice of a region holding infinity, and its images
    z, _ = _sample_points(ComplementDisc(0.0, 1.0), 64)
    assert _inf_z_count(z) == 1
    for g in (*annulus_mm(0.5).generators, *NEWTON_SQUARE.generators):
        assert _inf_z_count(g.eval_many(z)) >= 1


def _is_point(p):
    """p is a complex that as_point hands back bit for bit."""
    return type(p) is complex and np.array([as_point(p)]).tobytes() == np.array([p]).tobytes()


def test_every_scalar_point_the_library_hands_out_is_already_a_point():
    pts = []
    for f in (*NEWTON_SQUARE.generators, RationalMap([1.0, 0.0, 2.0], [0.0, 1.0, 1.0]),
              RationalMap([0.0, 1e-155])):
        pts += [f(0.5 + 0.25j), f(0.0), f(INF_Z), *f.preimages(0.5 + 0.25j), *f.preimages(INF_Z),
                *f.critical_points(), *f.critical_values(), *(p for p, _ in f.fixed_points())]
    # a root beyond BIG_MODULUS: preimages_many keeps it finite, the scalar preimages do not
    assert RationalMap([0.0, 1e-155]).preimages(1.0) == [INF_Z]
    seed, _ = repelling_seed(NEWTON_SQUARE)
    assert seed == INF_Z
    pts += [seed, julia_backward_cloud(NEWTON_SQUARE, depth=2, cap=100).meta["seed_point"],
            pressure(annulus_mm(0.5), 1.0, depth=3, cap=1000).basepoint,
            pressure(annulus_mm(0.5), 1.0, depth=3, cap=1000, basepoint=2).basepoint]
    # z / 1000 pulls only |z| > 1000 into U, which the lattice reaches at infinity alone
    for slow, at_inf in ((2.0, False), (1e-3, True)):
        mm = MultiMap([power_map(2), polynomial_map([0.0, slow])])
        rep = osc_check(mm, ComplementDisc(0.0, 1.0), grid_n=64)
        assert rep.verdict == "fail" and (rep.witnesses[-1][0] == INF_Z) == at_inf
        pts += [p for p, _ in rep.witnesses]
    assert INF_Z in pts
    assert all(_is_point(p) for p in pts)


# ---------------------------------------------------------------------------
# hyperbolicity: the trapping-region certificate


DEMO_CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"


def _demo_mm(name):
    return parse_file(DEMO_CONFIGS / f"{name}.json").multimap()


def _quadratic_pair(c2):
    return MultiMap([polynomial_map([0.2, 0.0, 1.0]), polynomial_map([c2, 0.0, 1.0])])


def _similarity_block():
    cfg = parse_file(DEMO_CONFIGS / "similarity_sweep.json")
    lams = list(cfg.grid_spec().points())[:21]
    fam = cfg.family_spec()
    return families._stack(lams, [families._coefficients(fam, lam) for lam in lams])


# T, the perturbed triple of ROADMAP's reference systems, with its pole at -50
T_SYSTEM = MultiMap([polynomial_map([0.05 + 0.02j, 0.0, 1.0]), polynomial_map([0.0, 0.03, 0.25]),
                     RationalMap([0.0, 0.0, 1.0 / 3.0], [1.0, 0.02])])
# {z^2 + 0.2, z^2 + c2}: Q at c2 = 0.24; at 0.25 the parabolic point 1/2 lies in J
CERTIFIED = {
    "supercritical": lambda: _demo_mm("supercritical"),
    "annulus": lambda: _demo_mm("annulus"),
    "power_pair": lambda: _demo_mm("power_pair"),
    "rotated_powers": lambda: _demo_mm("rotated_powers"),
    "T": lambda: T_SYSTEM,
    "Q": lambda: _quadratic_pair(0.24),
    # hyperbolic: the critical value -6 escapes to infinity in the Fatou set
    "z^2, z^2 - 6": lambda: MultiMap([power_map(2), polynomial_map([-6.0, 0.0, 1.0])]),
    "c2 = 0.249": lambda: _quadratic_pair(0.249),
}
NOT_CERTIFIED = {
    "c2 = 0.25": lambda: _quadratic_pair(0.25),
    "c2 = 0.2501": lambda: _quadratic_pair(0.2501),
    "c2 = 0.26": lambda: _quadratic_pair(0.26),
    # the critical point of z^2 + i is preperiodic onto a repelling cycle
    "z^2 + i": lambda: MultiMap([polynomial_map([1j, 0.0, 1.0])]),
    # the critical value -2 lands on the repelling fixed point 2
    "z^2, z^2 - 2": lambda: MultiMap([power_map(2), polynomial_map([-2.0, 0.0, 1.0])]),
    # the Newton map's superattracting 1 is z^2's repelling fixed point
    "newton_square": lambda: _demo_mm("newton_square"),
}


def test_hyperbolic_verdict_table(tmp_path, capsys):
    for name, build in CERTIFIED.items():
        rep = check_hyperbolic(build())
        assert rep.verdict == "pass", name
        assert 0 < rep.metrics["cells"] <= dynamics._CELL_BUDGET, name
    block = _similarity_block()
    assert block.num_systems == 21 and check_hyperbolic(block).verdict == "pass"
    for name, build in NOT_CERTIFIED.items():
        rep = check_hyperbolic(build())
        assert rep.verdict == "inconclusive", name
        assert rep.margin == dynamics._CELL_SIDE / 2**dynamics._CELL_HALVINGS, name
    # bowen refuses the parabolic pair
    path = tmp_path / "parabolic.json"
    path.write_text(json.dumps({"multimap": {"generators": [
        {"num": [[0.2, 0.0], [0.0, 0.0], [1.0, 0.0]]}, {"num": [[0.25, 0.0], [0.0, 0.0], [1.0, 0.0]]}]},
        "thermo": {"depth": 6, "cap": 2000}}))
    assert cli.main(["bowen", "--config", str(path)]) == 7
    assert capsys.readouterr().out.startswith("hyperbolicity inconclusive (")


@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_a_certified_region_maps_every_sample_into_itself_and_holds_the_postcritical_cloud(name):
    mm = CERTIFIED[name]()
    rep = check_hyperbolic(mm)
    h, R = rep.margin, rep.metrics["R"]
    keys, certified = dynamics._trap_cells(mm, h, R)
    assert certified and keys.size == rep.metrics["cells"]
    assert oracles.trap_escapes_ref(mm, keys, h, R) == []
    assert oracles.trap_contains_ref(_forward_points(mm, depth=5, cap=2000), keys, h, R).all()


def test_a_halved_majorant_is_caught_or_fails_to_certify(monkeypatch):
    image_discs = dynamics._image_discs
    monkeypatch.setattr(dynamics, "_image_discs",
                        lambda f, c, rho: (lambda w, r: (w, 0.5 * r))(*image_discs(f, c, rho)))
    passed = []
    for c2 in (0.249, 0.25, 0.2501, 0.26):
        mm = _quadratic_pair(c2)
        if (rep := check_hyperbolic(mm)).passed:
            passed.append(c2)
            keys, _ = dynamics._trap_cells(mm, rep.margin, rep.metrics["R"])
            assert oracles.trap_escapes_ref(mm, keys, rep.margin, rep.metrics["R"]), c2
    assert 0.25 in passed  # the mutant certifies the parabolic pair, and the samples catch it


def _rounded(lo, hi):
    return st.floats(lo, hi).map(lambda x: round(x, 4))


@settings(max_examples=20, deadline=None)
@given(st.lists(st.builds(complex, _rounded(-0.7, 0.4), _rounded(-0.5, 0.5)), min_size=1, max_size=3),
       st.sampled_from([0.0, 0.3, 0.7]))
def test_a_certified_region_of_a_random_quadratic_system_traps_its_samples(cs, s):
    # {z^2 + c}, hyperbolic or not, conjugated by the sphere rotation M(z) = (z - s) / (s z + 1)
    # when s > 0, which gives rational maps with poles and no escape region
    maps = [([c, 0.0, 1.0], [1.0]) for c in cs]
    if s:  # M o f o M^-1, M^-1(w) = (w + s) / (1 - s w)
        m, m_inv = ([-s, 1.0], [1.0, s]), ([s, 1.0], [1.0, -s])
        maps = [oracles.rational_compose(m, oracles.rational_compose(f, m_inv)) for f in maps]
    mm = MultiMap([RationalMap(*f) for f in maps])
    if (rep := check_hyperbolic(mm)).passed:
        keys, _ = dynamics._trap_cells(mm, rep.margin, rep.metrics["R"])
        assert oracles.trap_escapes_ref(mm, keys, rep.margin, rep.metrics["R"]) == []


def test_image_discs_hold_the_image_of_their_disc():
    rng = np.random.default_rng(8)
    for f in (*T_SYSTEM.generators, *_demo_mm("rotated_powers").generators):
        c = rng.normal(size=50) + 1j * rng.normal(size=50)
        for rho in (1e-3, 0.05, 0.4):
            w, r = dynamics._image_discs(f, c, rho)
            u = rng.uniform(size=(2, 50, 64))
            z = c[:, None] + rho * np.sqrt(u[0]) * np.exp(2j * np.pi * u[1])  # uniform in the disc
            near = np.isfinite(r)
            got = np.abs(f.eval_many(z[near]) - w[near, None])
            assert (got <= r[near, None] * (1 + 1e-9) + 1e-12).all()
    # a disc around a pole may hold it
    w, r = dynamics._image_discs(T_SYSTEM.generators[2], np.array([-50.0 + 0.01j]), 0.1)
    assert r[0] == math.inf


def test_escape_radius_is_the_least_power_of_two_that_doubles_every_modulus():
    cases = {"power_pair": 2.0, "annulus": 4.0, "supercritical": 8.0, "rotated_powers": math.inf,
             "newton_square": math.inf}
    for name, want in cases.items():
        assert dynamics._escape_radius(_demo_mm(name).generators) == want, name
    assert dynamics._escape_radius(T_SYSTEM.generators) == 16.0
    # past R every generator at least doubles |z|; at R / 2 one does not
    z = np.exp(2j * np.pi * np.arange(64) / 64)
    for f in T_SYSTEM.generators:
        for r in (16.0, 32.0, 1e3):
            assert (np.abs(f.eval_many(r * z)) >= 2 * r).all()
    assert min((np.abs(f.eval_many(8.0 * z)) / 16.0).min() for f in T_SYSTEM.generators) < 1


def test_hyperbolic_pass_on_power_pair():
    rep = check_hyperbolic(annulus_mm(0.5))
    assert rep.verdict == "pass" and rep.witnesses == []
    # the four cells at the critical value 0, at the first side, and |z| > 4 about infinity
    assert (rep.margin, rep.metrics) == (2.0**-5, {"cells": 4, "h": 2.0**-5, "R": 4.0})


def test_hyperbolic_pass_on_single_square():
    rep = check_hyperbolic(MultiMap([power_map(2)]))
    assert rep.verdict == "pass"
    assert rep.metrics == {"cells": 4, "h": 2.0**-5, "R": 2.0}


def test_hyperbolic_vacuous_pass_without_critical_points():
    rep = check_hyperbolic(gasket_mm())
    assert rep.verdict == "pass"
    assert rep.metrics == {"cells": 0, "h": dynamics._CELL_SIDE, "R": math.inf}


def test_degree_one_gate_builds_no_cloud_and_keeps_its_vacuous_report(monkeypatch):
    def no_cells(*args, **kwargs):
        raise AssertionError("a degree-one gate built cells or a cloud")

    for name in ("_trap_cells", "_escape_radius", "julia_backward_cloud"):
        monkeypatch.setattr(dynamics, name, no_cells)
    want = VerificationReport("pass", [], dynamics._CELL_SIDE,
                              {"cells": 0, "h": dynamics._CELL_SIDE, "R": math.inf})
    block = oracles.block_mm([gasket_mm(), gasket_mm(oracles.TRIANGLE_UNIT)])
    for mm in (gasket_mm(), block):
        assert check_hyperbolic(mm) == want


def test_hyperbolic_verdict_rule_is_consistent():
    # pass at the first side that certifies, else inconclusive at the last side: never fail
    sides = [dynamics._CELL_SIDE / 2**n for n in range(dynamics._CELL_HALVINGS + 1)]
    for build in (*CERTIFIED.values(), *NOT_CERTIFIED.values()):
        mm = build()
        rep = check_hyperbolic(mm)
        assert rep.verdict in ("pass", "inconclusive") and rep.margin == rep.metrics["h"]
        certified = [dynamics._trap_cells(mm, h, rep.metrics["R"])[1] for h in sides]
        assert rep.passed == any(certified)
        assert rep.margin == (sides[certified.index(True)] if rep.passed else sides[-1])


def test_hyperbolic_rejects_a_nonpositive_margin():
    # z^2 + i is not hyperbolic: its critical point lies in the Julia set
    mm = MultiMap([polynomial_map([1j, 0.0, 1.0])])
    assert check_hyperbolic(mm).verdict == "inconclusive"
    # no margin or seed: the certificate's cell side is its own, never an argument
    for kwargs in ({"margin": 0.0}, {"margin": 0.05}, {"rng_seed": 0}):
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            check_hyperbolic(mm, **kwargs)


def test_forward_cloud_and_gate_reject_a_bad_depth_or_cap():
    # the postcritical (forward) cloud is gone with the sampled gate; the backward
    # cloud is the one cloud left, and it still rejects a bad budget, while the
    # gate takes no budget at all, also on the degree-one gasket, which passes vacuously
    assert not hasattr(dynamics, "postcritical_cloud")
    for mm in (gasket_mm(), annulus_mm(0.5)):
        for kwargs, match in (({"cap": 0}, "cap"), ({"cap": -3}, "cap"), ({"depth": -3}, "depth")):
            with pytest.raises(ValueError, match=f"{match} must be"):
                julia_backward_cloud(mm, **{"depth": 4, "cap": 100, **kwargs})
            with pytest.raises(TypeError, match="unexpected keyword argument"):
                check_hyperbolic(mm, **kwargs)


# ---------------------------------------------------------------------------
# word derivative norms carried by the tree


def test_square_cloud_logd_is_n_log_two():
    # every depth-n preimage y of z^2 has |y| = 1, so ||(f^n)'(y)|| = 2^n exactly
    cloud = full_backward_cloud(MultiMap([power_map(2)]), depth=6, cap=10_000)
    for n, lev in enumerate(cloud.levels):
        assert lev.size == 2**n
        np.testing.assert_allclose(lev.logd, n * math.log(2.0), rtol=1e-9)
