"""Dynamics tests: words, skew preimages, orbit clouds, verification checks."""
import math

import numpy as np
import pytest

from ratsemi import dynamics
from ratsemi.dynamics import (
    CloudLevel,
    MultiMap,
    PointCloud,
    check_hyperbolic,
    _bottom_k,
    _expand_backward,
    _subsample_level,
    julia_backward_cloud,
    postcritical_cloud,
    repelling_seed,
)
from ratsemi.errors import NoRepellingSeed
from ratsemi.sphere import (
    INF,
    RationalMap,
    _point_arrays,
    SpherePoint,
    chordal_distance,
    chordal_distance_many,
    polynomial_map,
    sphere_embed,
)
from ratsemi.thermo import PreimageTree

import oracles
from oracles import cloud_entries, skew_preimages, word_derivative_norm, word_eval


def power_map(d, a=1.0):
    return polynomial_map([0.0] * d + [a])


def gasket_mm(vertices=oracles.TRIANGLE_RAW):
    # doubling maps 2(z - p) + p = 2z - p; inverse branches halve toward p
    return MultiMap([polynomial_map([-p, 2.0]) for p in vertices])


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
    assert word_eval(mm, (1, 2), 2.0).value == pytest.approx(64.0)


def test_word_eval_empty_word_is_identity():
    mm = MultiMap([power_map(2)])
    assert word_eval(mm, (), 3.5 + 1j).value == 3.5 + 1j
    assert word_eval(mm, (), INF).is_infinite


def test_word_eval_single_symbol():
    mm = annulus_mm(0.5)
    assert word_eval(mm, (2,), 2.0).value == pytest.approx(2.0)


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
        end = word_eval(mm, word, z).value
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
        rhs = word_derivative_norm(mm, w2, word_eval(mm, w1, z).value) * (
            word_derivative_norm(mm, w1, z)
        )
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_skew_preimages_enumerates_all_branches():
    mm = MultiMap([power_map(2), power_map(2)])
    pairs = skew_preimages(mm, 1.0)
    assert len(pairs) == 4
    got = {(j, round(y.value.real), round(y.value.imag)) for j, y in pairs}
    assert got == {(1, 1, 0), (1, -1, 0), (2, 1, 0), (2, -1, 0)}

    mm23 = MultiMap([power_map(2), power_map(3)])
    assert len(skew_preimages(mm23, 1.0)) == 5

    sq = MultiMap([power_map(2)])
    pre = skew_preimages(sq, -1.0)
    assert {format(y.value, ".3f") for _, y in pre} == {"0.000+1.000j", "-0.000-1.000j"} or all(
        abs(y.value**2 + 1.0) < 1e-12 for _, y in pre
    )


# ---------------------------------------------------------------------------
# seeding


def test_seed_of_single_square_is_one():
    pt, sym = repelling_seed(MultiMap([power_map(2)]))
    assert sym == 1
    assert abs(pt.value - 1.0) < 1e-10


def test_seed_of_gasket_is_first_vertex():
    pt, sym = repelling_seed(gasket_mm())
    assert sym == 1
    assert abs(pt.value - oracles.TRIANGLE_RAW[0]) < 1e-10


def test_no_repelling_seed_for_translation():
    mm = MultiMap([polynomial_map([1.0, 1.0])])  # z + 1, parabolic at infinity
    with pytest.raises(NoRepellingSeed):
        repelling_seed(mm)
    with pytest.raises(NoRepellingSeed):
        julia_backward_cloud(mm, depth=2, cap=10)


# ---------------------------------------------------------------------------
# backward clouds


def full_backward_cloud(mm, depth, cap, rng_seed=0):
    """The backward tree with its bookkeeping (words, logd, logw, step norms):
    _expand_backward chained from a full root level at the repelling seed,
    with the cap and seed julia_backward_cloud would use."""
    seed_pt = repelling_seed(mm)[0]
    levels = [dynamics._root_level(*_point_arrays(seed_pt))]
    for n in range(1, depth + 1):
        levels.append(_expand_backward(mm, levels[-1], cap, rng_seed, n))
    return PointCloud(levels, {"seed_point": seed_pt})


def _seed_level(mm):
    """Level 0 at the repelling seed with an empty word, as the reference needs."""
    z, inf = _point_arrays(repelling_seed(mm)[0])
    return CloudLevel(z, inf, np.zeros((1, 0), dtype=np.int8), np.zeros(1), np.zeros(1))


def _check_capped_levels(mm, parent, cap, seed, depth):
    """_expand_backward chained from parent beside oracles.backward_levels_ref:
    at every depth the level keeps no words, and its z, inf, logd, logw and
    min_step_norm are bit-identical to the reference level.  Returns the
    reference levels, which keep their words."""
    refs = oracles.backward_levels_ref(mm, parent, cap, seed, depth)
    for n, ref in enumerate(refs, start=1):
        parent = _expand_backward(mm, parent, cap, seed, n)
        assert parent.words is None
        for name in ("z", "inf", "logd", "logw"):
            assert getattr(parent, name).tobytes() == getattr(ref, name).tobytes(), (n, name)
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
    z, inf, depth = cloud.flat_arrays()
    assert not inf.any()
    assert np.max(np.abs(np.abs(z) - 1.0)) <= 1e-6
    assert cloud.levels[12].size == 4096


def test_annulus_cloud_stays_in_annulus():
    cloud = julia_backward_cloud(annulus_mm(0.5), depth=10, cap=20_000, rng_seed=3)
    z, inf, _ = cloud.flat_arrays()
    assert not inf.any()
    r = np.abs(z)
    assert r.min() >= 1.0 - 1e-3
    assert r.max() <= 2.0 + 1e-3


def test_gasket_cloud_stays_in_triangle():
    cloud = julia_backward_cloud(gasket_mm(), depth=10, cap=200_000)
    z, inf, _ = cloud.flat_arrays()
    assert not inf.any()
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
        assert np.array_equal(la.inf, lb.inf)
        assert np.array_equal(la.logd, lb.logd)
        assert np.array_equal(la.logw, lb.logw)
    c = full_backward_cloud(annulus_mm(0.5), depth=6, cap=150, rng_seed=8)
    assert not np.array_equal(a.levels[6].z, c.levels[6].z)


def test_raising_cap_or_depth_never_escapes_reference_bounds():
    for depth, cap in ((6, 5_000), (12, 5_000), (6, 10_000)):
        z, _, _ = julia_backward_cloud(annulus_mm(0.5), depth=depth, cap=cap).flat_arrays()
        r = np.abs(z)
        assert r.min() >= 1.0 - 1e-3 and r.max() <= 2.0 + 1e-3
    for depth, cap in ((8, 3**8), (9, 3**8)):
        z, _, _ = julia_backward_cloud(gasket_mm(), depth=depth, cap=cap).flat_arrays()
        for w in z[:: max(1, z.size // 500)]:
            assert in_triangle(complex(w), oracles.TRIANGLE_RAW, tol=1e-3)


# the Newton map of z^2 - 1 fixes infinity with multiplier 2 (the repelling seed), and
# infinity is a preimage of itself under both maps: every level keeps parents there
NEWTON_SQUARE = MultiMap([RationalMap([1.0, 0.0, 1.0], [0.0, 2.0]), power_map(2)])


@pytest.mark.parametrize("mm, depth, cap, seed", [
    pytest.param(annulus_mm(0.5), 6, 150, 7, id="capped"),
    pytest.param(MultiMap([power_map(2), power_map(3)]), 5, 10**6, 0, id="uncapped"),
    pytest.param(gasket_mm(), 7, 500, 3, id="degree-one-capped"),
    pytest.param(NEWTON_SQUARE, 6, 50, 1, id="infinite-parents-capped"),
    pytest.param(NEWTON_SQUARE, 5, 10**6, 2, id="infinite-parents-uncapped"),
])
def test_julia_cloud_points_equal_the_full_chain(mm, depth, cap, seed):
    cloud = julia_backward_cloud(mm, depth=depth, cap=cap, rng_seed=seed)
    full = full_backward_cloud(mm, depth, cap, seed)
    assert cloud.meta["seed_point"] == full.meta["seed_point"]
    for lev, ref in zip(cloud.levels, full.levels, strict=True):
        assert lev.z.tobytes() == ref.z.tobytes()
        assert np.array_equal(lev.inf, ref.inf)
        assert lev.size == ref.size
        assert lev.words is None and lev.logd is None and lev.logw is None
        assert lev.min_step_norm == math.inf
    if mm is NEWTON_SQUARE:
        assert all(lev.inf.any() for lev in cloud.levels)
        assert not cloud.levels[-1].inf.all()


def _bottom_k_by_lexsort(seed, m, k):
    """Reference selection: full sort by (key, index), first k, index order."""
    if k >= m:
        return np.arange(m)
    keys = dynamics._mix64(seed, np.arange(1, m + 1, dtype=np.uint64))
    return np.sort(np.lexsort((np.arange(m), keys))[:k])


def test_bottom_k_matches_lexsort_selection(monkeypatch):
    for seed, m in ((0, 1), (7, 50), (123456789, 997)):
        for k in sorted({1, 2, m // 3, m - 1, m, m + 5} - {0}):
            assert np.array_equal(_bottom_k(seed, m, k), _bottom_k_by_lexsort(seed, m, k))

    # five distinct keys over many indices: every k-th key is tied
    def tied(seed, counters):
        return (counters.astype(np.uint64) * np.uint64(7) + np.uint64(seed)) % np.uint64(5)

    monkeypatch.setattr(dynamics, "_mix64", tied)
    for seed, m in ((0, 40), (3, 41)):
        for k in range(1, m + 1):
            assert np.array_equal(_bottom_k(seed, m, k), _bottom_k_by_lexsort(seed, m, k))


def _min_step_norm_by_recompute(mm, level):
    """Reference: step norms of the kept rows, recomputed per newest symbol."""
    out = math.inf
    for j, f in enumerate(mm.generators, start=1):
        mask = level.words[:, -1] == j
        if mask.any():
            out = min(out, float(f.spherical_derivative_norm_many(level.z[mask], level.inf[mask]).min()))
    return out


def test_backward_level_children_are_contiguous_under_their_parent():
    # f(inf) = 2 for the second map, so its preimages of inf are finite
    mm = MultiMap([polynomial_map([0.1, 0.0, 1.0]), RationalMap([1.0, 0.0, 2.0], [0.0, 1.0, 1.0])])
    parent = CloudLevel(
        z=np.array([0.3 + 0.2j, 0j, -1.5j]),
        inf=np.array([False, True, False]),
        words=np.array([[1], [1], [2]], dtype=np.int8),
        logd=np.array([0.1, 0.2, 0.3]),
        logw=np.array([0.0, -1.0, -2.0]),
    )
    (child,) = _check_capped_levels(mm, parent, parent.size * mm.total_degree, 0, 1)  # uncapped
    row = 0
    for j, f in enumerate(mm.generators, start=1):
        for i in range(parent.size):
            block = slice(row, row + f.degree)
            assert np.all(child.words[block, :-1] == parent.words[i])
            assert np.all(child.words[block, -1] == j)
            assert np.all(child.logw[block] == parent.logw[i])
            target = INF if parent.inf[i] else SpherePoint.of(complex(parent.z[i]))
            for k in range(block.start, block.stop):
                pt = INF if child.inf[k] else SpherePoint.of(complex(child.z[k]))
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
    parent = CloudLevel(
        z=np.array([0j, 0j, 0.4 - 1.1j, 0j, 2.5j]), inf=inf,
        words=np.array([[1], [2], [3], [1], [2]], dtype=np.int8),
        logd=np.zeros(5), logw=np.zeros(5),
    )
    child = _expand_backward(mm, parent, parent.size * mm.total_degree, 0, 1)  # uncapped
    row = 0
    for f in maps:
        num, den = f.num, f.den
        for i in range(parent.size):
            block = range(row, row + f.degree)
            got = ["inf" if child.inf[k] else complex(child.z[k]) for k in block]
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
    for lev in cloud.levels[1:]:
        words = [tuple(w) for w in lev.words[:, ::-1].tolist()]
        assert words == sorted(words)
        assert lev.min_step_norm == _min_step_norm_by_recompute(mm, lev)
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
    # cap 2 over three strata of 2 children leaves the third generator with k = 0
    assert _check_capped_levels(mm, root, 2, 0, 1)[0].words[:, -1].tolist() == [1, 2]
    # a cap equal to the level size keeps every child, then caps the next level
    assert [lev.size for lev in _check_capped_levels(mm, root, 6**3, 3, 4)] == [6, 36, 216, 216]


def test_capped_mixed_degree_levels_match_expand_then_subsample():
    mm = MultiMap([power_map(2), power_map(3)])
    for cap, seed in ((7, 0), (60, 4), (400, 11)):
        assert _check_capped_levels(mm, _seed_level(mm), cap, seed, 6)[-1].size == cap


def test_capped_rational_levels_with_infinite_parents_match_expand_then_subsample():
    # parents at infinity, degree-dropping targets (0 under the first map,
    # infinity under the second) and critical children at infinity (third map)
    mm = MultiMap([RationalMap([0.0, 2.0], [1.0, 0.0, 1.0]),
                   RationalMap([1.0, 0.0, 1.0], [0.0, 1.0]),
                   polynomial_map([-0.5, 0.0, 1.0])])
    parent = CloudLevel(
        z=np.array([0j, 0j, 0.4 - 1.1j, 0j, 2.5j]),
        inf=np.array([True, False, False, True, False]),
        words=np.array([[1], [2], [3], [1], [2]], dtype=np.int8),
        logd=np.zeros(5), logw=np.zeros(5),
    )
    for cap in (1, 2, 5, 13, 30, 10**6):
        _check_capped_levels(mm, parent, cap, 7, 3)
    last = _expand_backward(mm, _expand_backward(mm, parent, 13, 7, 1), 13, 7, 2)
    assert last.inf.any() and not last.inf.all()


def test_capped_level_solves_only_the_parents_of_kept_children(monkeypatch):
    mm = MultiMap(QUADRATIC_TRIPLES[0])
    parent = full_backward_cloud(mm, depth=4, cap=10**6).levels[4]  # 6^4 = 1296 rows
    solved = []
    solve = RationalMap.preimages_many
    monkeypatch.setattr(RationalMap, "preimages_many",
                        lambda f, z, inf=None: solved.append(len(z)) or solve(f, z, inf))
    got = _expand_backward(mm, parent, 2000, 1, 5)
    assert got.size == 2000
    picks = dynamics._stratum_picks(np.full(3, 2 * parent.size), 2000, 1, 5, (1, 2, 3))
    assert solved == [np.unique(c // 2).size for c, _ in picks]
    assert sum(solved) < 2000  # kept siblings share one solve


def test_subsample_level_matches_reference_on_forward_levels():
    mm = MultiMap(QUADRATIC_TRIPLES[1])
    cloud = postcritical_cloud(mm, depth=4, cap=10**6)
    rng = np.random.default_rng(0)
    # symbols 1 and 3 only, as deduplication can leave a level
    gap = CloudLevel(
        z=rng.normal(size=40) + 1j * rng.normal(size=40), inf=np.zeros(40, dtype=bool),
        words=np.repeat(np.array([[2, 1], [1, 3]], dtype=np.int8), [15, 25], axis=0),
        logw=rng.normal(size=40),
    )
    for level in (*cloud.levels[2:], gap):
        for cap in (1, 7, level.size - 1, level.size):
            got = _subsample_level(level, cap, 9, 4)
            (z, inf, words, logd, logw), _ = oracles.subsample_ref(level, cap, 9, 4)
            assert got.logd is None and logd is None
            for a, b in ((got.z, z), (got.inf, inf), (got.words, words), (got.logw, logw)):
                assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# postcritical clouds


def test_postcritical_cloud_of_power_pair_is_zero_and_infinity():
    cloud = postcritical_cloud(annulus_mm(0.5), depth=6, cap=1000)
    assert cloud.size > 0
    for pt, word, depth in cloud_entries(cloud):
        assert pt.is_infinite or abs(pt.value) < 1e-12
        assert len(word) == depth


def test_postcritical_cloud_of_single_square():
    cloud = postcritical_cloud(MultiMap([power_map(2)]), depth=5, cap=1000)
    for lev in cloud.levels:
        assert lev.size == 2  # {0, inf} at every level after deduplication


def test_postcritical_cloud_of_mobius_generators_is_empty():
    cloud = postcritical_cloud(gasket_mm(), depth=5, cap=1000)
    assert cloud.size == 0


FORWARD_SYSTEMS = {
    "supercritical": MultiMap([power_map(2), power_map(2, 0.25), power_map(2, 1.0 / 3.0)]),
    # 6,564 images at level 7, so that level is capped at 3,000
    "quadratic-triple": MultiMap([polynomial_map([c, 0.0, 1.0])
                                  for c in (-0.4 + 0.6j, -0.1 + 0.3j, -0.5)]),
    # z^2 + 0.1 sends the critical values -2 and 2 of z^3 - 3z to the same point
    "coincident": MultiMap([polynomial_map([0.0, -3.0, 0.0, 1.0]),
                            polynomial_map([0.1, 0.0, 1.0])]),
    # the same two images 8e-11 apart, equal once rounded: the smaller re must
    # win although its parent comes second
    "near-coincident": MultiMap([polynomial_map([-1e-11, -3.0, 0.0, 1.0]),
                                 polynomial_map([0.1, 0.0, 1.0])]),
    # z^2 and z^3 conjugated by (z - 1)/(z + 1): both fix their critical values -1 and 1
    "rational": MultiMap([RationalMap([0.0, 2.0], [1.0, 0.0, 1.0]),
                          RationalMap([0.0, 3.0, 0.0, 1.0], [1.0, 0.0, 3.0])]),
}


@pytest.mark.parametrize("name", sorted(FORWARD_SYSTEMS))
def test_postcritical_cloud_matches_sort_then_dedupe_reference(name):
    mm = FORWARD_SYSTEMS[name]
    cap = 3000
    cloud = postcritical_cloud(mm, depth=7, cap=cap, rng_seed=4)
    ref = oracles.postcritical_cloud_ref(mm, depth=7, cap=cap, rng_seed=4)
    for lev, (z, inf, words, logw) in zip(cloud.levels, ref):
        assert lev.z.tobytes() == z.tobytes()
        assert np.array_equal(lev.inf, inf) and np.array_equal(lev.words, words)
        assert lev.logw.tobytes() == logw.tobytes()
    if name == "quadratic-triple":
        assert cloud.levels[7].size == cap and np.any(cloud.levels[7].logw > 0)
    if name in ("coincident", "near-coincident"):
        assert cloud.levels[1].size < mm.num_generators * cloud.levels[0].size


def test_backward_levels_keep_no_words_and_forward_levels_no_logd():
    mm = annulus_mm(0.5)
    tree = PreimageTree(mm, repelling_seed(mm)[0], cap=100, rng_seed=1)
    tree.extend(5)  # levels 4 and 5 are capped
    for lev in (*tree.levels, *full_backward_cloud(mm, 5, 100, 1).levels):
        assert lev.words is None and lev.logd is not None
    post = postcritical_cloud(FORWARD_SYSTEMS["quadratic-triple"], depth=7, cap=3000)
    assert post.levels[7].size == 3000  # capped by _subsample_level
    for n, lev in enumerate(post.levels):
        assert lev.logd is None and lev.words.shape == (lev.size, n)


# ---------------------------------------------------------------------------
# hyperbolicity


def bf_min_distance(cloud_a, cloud_b):
    za, ia, _ = cloud_a.flat_arrays()
    zb, ib, _ = cloud_b.flat_arrays()
    best = np.inf
    for i in range(za.size):
        d = chordal_distance_many(
            np.full(zb.shape, za[i]), np.full(ib.shape, bool(ia[i])), zb, ib
        )
        best = min(best, float(d.min()))
    return best


def test_closest_pair_matches_brute_force_across_blocks(monkeypatch):
    rng = np.random.default_rng(5)
    zq, zx = (rng.normal(size=n) + 1j * rng.normal(size=n) for n in (37, 101))
    iq, ix = np.arange(37) % 9 == 0, np.arange(101) % 13 == 0
    q, x = sphere_embed(zq, iq), sphere_embed(zx, ix)
    for block in (1, 64, 1000, 1 << 20):  # one row per block up to a single block
        monkeypatch.setattr(dynamics, "_CLOSEST_PAIR_BLOCK", block)
        k, i, dist = dynamics._closest_pair(q, x)
        d = [[chordal_distance_many(zq[a], iq[a], zx[b], ix[b]) for b in range(101)]
             for a in range(37)]
        assert dist == pytest.approx(float(np.min(d)), abs=1e-12)
        assert dist == pytest.approx(float(d[k][i]), abs=1e-12)


def test_hyperbolic_pass_on_power_pair():
    rep = check_hyperbolic(annulus_mm(0.5), depth=6, margin=0.1)
    assert rep.verdict == "pass"
    # postcritical {0, inf} vs annulus cloud: nearest approach is inf vs |z|~2
    assert 0.85 <= rep.metrics["min_distance"] <= 0.95


def test_hyperbolic_pass_on_single_square():
    rep = check_hyperbolic(MultiMap([power_map(2)]), depth=6, margin=0.5)
    assert rep.verdict == "pass"
    assert rep.metrics["min_distance"] == pytest.approx(math.sqrt(2.0), abs=1e-9)


def test_hyperbolic_vacuous_pass_without_critical_points():
    rep = check_hyperbolic(gasket_mm(), depth=5, margin=0.2)
    assert rep.verdict == "pass"
    assert rep.metrics["postcritical_size"] == 0
    assert math.isinf(rep.metrics["min_distance"])


def test_hyperbolic_fail_with_witness_on_escaping_critical_orbit():
    mm = MultiMap([power_map(2), polynomial_map([-6.0, 0.0, 1.0])])
    rep = check_hyperbolic(mm, depth=6, margin=0.7, rng_seed=0)
    julia = julia_backward_cloud(mm, depth=6, cap=200_000, rng_seed=0)
    post = postcritical_cloud(mm, depth=6, cap=200_000, rng_seed=0)
    bf = bf_min_distance(post, julia)
    assert rep.metrics["min_distance"] == pytest.approx(bf, abs=1e-9)
    assert bf < 0.35  # strictly below margin/2, so the verdict must be fail
    assert rep.verdict == "fail"
    assert rep.witnesses, "fail verdict must carry a witness"
    pt, detail = rep.witnesses[0]
    assert "chordal distance" in detail


def test_hyperbolic_verdict_rule_is_consistent():
    mm = annulus_mm(0.5)
    rep = check_hyperbolic(mm, depth=5, margin=0.1)
    d = rep.metrics["min_distance"]
    if d >= rep.margin:
        assert rep.verdict == "pass"
    elif d < rep.margin / 2:
        assert rep.verdict == "fail"
    else:
        assert rep.verdict == "inconclusive"


def test_hyperbolic_rejects_a_nonpositive_margin():
    # z^2 + i is not hyperbolic: its critical point lies in the Julia set
    mm = MultiMap([polynomial_map([1j, 0.0, 1.0])])
    assert check_hyperbolic(mm, depth=6, margin=0.05).verdict == "fail"
    for margin in (0.0, -1.0, math.nan):  # a margin <= 0 would pass every distance
        with pytest.raises(ValueError, match="margin"):
            check_hyperbolic(mm, depth=6, margin=margin)


# ---------------------------------------------------------------------------
# word derivative norms carried by the tree


def test_square_cloud_logd_is_n_log_two():
    # every depth-n preimage y of z^2 has |y| = 1, so ||(f^n)'(y)|| = 2^n exactly
    cloud = full_backward_cloud(MultiMap([power_map(2)]), depth=6, cap=10_000)
    for n, lev in enumerate(cloud.levels):
        assert lev.size == 2**n
        np.testing.assert_allclose(lev.logd, n * math.log(2.0), rtol=1e-9)
