"""Sphere-core tests: points, chordal metric, roots, maps, derivative norms."""
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ratsemi import sphere
from ratsemi.errors import NonConvergence
from ratsemi.sphere import (
    INF_Z,
    _chart_norm,
    BIG_MODULUS,
    RationalMap,
    as_point,
    chordal_distance,
    chordal_distance_many,
    horner,
    polynomial_map,
    poly_roots,
    sort_key,
    sphere_embed,
)

import oracles

RNG = np.random.default_rng(20260815)


def _bf(z):
    """A point in the oracles' notation: complex or 'inf'."""
    return "inf" if np.isinf(z) else complex(z)


def rand_complex(rng, n, scale=1.0):
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def random_rational_map(rng, max_num_deg=4, max_den_deg=2):
    """A validated random map; retries on accidental shared roots."""
    for _ in range(50):
        dn = rng.integers(1, max_num_deg + 1)
        dd = rng.integers(0, max_den_deg + 1)
        num = rand_complex(rng, dn + 1)
        den = rand_complex(rng, dd + 1) if dd > 0 else np.array([1.0 + 0j])
        num[-1] += 1.0  # keep the leading coefficient well away from zero
        if dd > 0:
            den[-1] += 1.0
        try:
            return RationalMap(num, den)
        except ValueError:
            continue
    raise AssertionError("could not build a random map")


# ---------------------------------------------------------------------------
# points and metric


def test_overflow_and_nan_route_to_infinity():
    assert as_point(complex(2.0 * BIG_MODULUS, 0.0)) == INF_Z
    assert as_point(complex(float("nan"), 0.0)) == INF_Z
    assert as_point(complex(0.0, float("inf"))) == INF_Z
    assert as_point(1.0 + 2.0j) != INF_Z


def test_chordal_reference_values():
    assert chordal_distance(0.0, INF_Z) == pytest.approx(2.0, abs=1e-15)
    assert chordal_distance(1.0, -1.0) == pytest.approx(2.0, abs=1e-15)
    assert chordal_distance(INF_Z, INF_Z) == 0.0
    assert chordal_distance(3.0 + 4.0j, 3.0 + 4.0j) == 0.0
    # antipode of z is -1/conj(z); distance must be exactly 2
    z = 0.7 - 0.2j
    assert chordal_distance(z, -1.0 / z.conjugate()) == pytest.approx(2.0, rel=1e-12)


def test_chordal_matches_bruteforce_including_infinity():
    rng = np.random.default_rng(7)
    pts = list(rand_complex(rng, 40, scale=3.0)) + ["inf"]
    for a in pts:
        for b in pts:
            lib = chordal_distance(
                INF_Z if isinstance(a, str) else a, INF_Z if isinstance(b, str) else b
            )
            assert lib == pytest.approx(oracles.chordal_bf(a, b), abs=1e-13)


finite_pts = st.complex_numbers(
    max_magnitude=1e8, allow_nan=False, allow_infinity=False
)
sphere_pts = st.one_of(finite_pts, st.just("inf"))


def _pt(x):
    return INF_Z if isinstance(x, str) else as_point(x)


@settings(max_examples=300, deadline=None)
@given(sphere_pts, sphere_pts, sphere_pts)
def test_chordal_metric_axioms(a, b, c):
    pa, pb, pc = _pt(a), _pt(b), _pt(c)
    dab = chordal_distance(pa, pb)
    assert dab == chordal_distance(pb, pa)
    assert 0.0 <= dab <= 2.0 + 1e-15
    assert chordal_distance(pa, pa) == 0.0
    assert dab <= chordal_distance(pa, pc) + chordal_distance(pc, pb) + 1e-12


def test_chordal_many_matches_scalar():
    # the scalar call wraps the batched one, so both face the direct formula
    rng = np.random.default_rng(11)
    z1 = rand_complex(rng, 30, 5.0)
    z2 = rand_complex(rng, 30, 5.0)
    i1 = rng.random(30) < 0.2
    i2 = rng.random(30) < 0.2
    z1[i1], z2[i2] = INF_Z, INF_Z
    d = chordal_distance_many(z1, z2)
    for k in range(30):
        ref = oracles.chordal_bf(_bf(z1[k]), _bf(z2[k]))
        a = INF_Z if i1[k] else z1[k]
        b = INF_Z if i2[k] else z2[k]
        assert d[k] == pytest.approx(ref, abs=1e-14)
        assert chordal_distance(a, b) == pytest.approx(ref, abs=1e-14)


def test_sphere_embedding_is_isometric_to_chordal():
    rng = np.random.default_rng(3)
    z = rand_complex(rng, 25, 4.0)
    inf = np.zeros(25, dtype=bool)
    inf[-1] = True
    z[inf] = INF_Z
    X = sphere_embed(z)
    for i in range(25):
        for j in range(25):
            a = INF_Z if inf[i] else z[i]
            b = INF_Z if inf[j] else z[j]
            assert np.linalg.norm(X[i] - X[j]) == pytest.approx(
                chordal_distance(a, b), abs=1e-12
            )


# ---------------------------------------------------------------------------
# polynomial roots


def test_horner_on_coefficient_columns_matches_each_column_bit_for_bit():
    # the Aberth solver evaluates (n+1, m) coefficient columns at its (n, m) iterates,
    # n >= 2, and the residual check at the roots; poly_roots passes one column
    rng = np.random.default_rng(19)
    for n, m in ((2, 1), (3, 1), (6, 1), (2, 9), (3, 40), (6, 257)):
        C = rand_complex(rng, (n + 1) * m).reshape(n + 1, m)
        Z = rand_complex(rng, n * m, scale=2.0).reshape(n, m)
        got = horner(C, Z)
        assert got.shape == (n, m)
        for j in range(m):
            assert got[:, j].tobytes() == horner(C[:, j], Z[:, j]).tobytes()


def test_cubic_roots_of_eight():
    roots = poly_roots([-8.0, 0.0, 0.0, 1.0])
    expect = oracles.sorted_points(oracles.np_roots([-8.0, 0.0, 0.0, 1.0]))
    got = oracles.sorted_points(roots)
    for g, e in zip(got, expect):
        assert abs(g - e) < 1e-10
    assert any(abs(r - 2.0) < 1e-12 for r in roots)


def test_roots_meet_residual_bound_on_random_polynomials():
    rng = np.random.default_rng(101)
    for _ in range(200):
        deg = int(rng.integers(1, 9))
        c = rand_complex(rng, deg + 1)
        c /= np.max(np.abs(c))  # coefficients in the closed unit disc
        if abs(c[-1]) < 1e-3:
            c[-1] = 1e-3 + 0.0j
        roots = poly_roots(c)
        assert len(roots) == deg
        for r in roots:
            bound = 1e-8 * (1.0 + np.max(np.abs(c))) * (1.0 + abs(r)) ** deg
            assert abs(horner(c, r)) <= bound


def test_roots_match_companion_matrix_solver():
    rng = np.random.default_rng(55)
    for _ in range(40):
        deg = int(rng.integers(2, 7))
        c = rand_complex(rng, deg + 1)
        c[-1] += 1.0
        got = oracles.sorted_points(poly_roots(c))
        ref = oracles.sorted_points(oracles.np_roots(c))
        for g, e in zip(got, ref):
            assert abs(g - e) <= 1e-6 * (1.0 + abs(e))


def test_multiple_root_reported_with_multiplicity():
    # (z - 1)^2 (z + 2) = z^3 - 3 z + 2
    roots = poly_roots([2.0, -3.0, 0.0, 1.0])
    near_one = [r for r in roots if abs(r - 1.0) < 1e-5]
    near_neg2 = [r for r in roots if abs(r + 2.0) < 1e-8]
    assert len(near_one) == 2 and len(near_neg2) == 1


def test_roots_deterministic():
    c = [0.3 - 1.0j, 0.0, 2.0, -0.7j, 1.0]
    assert poly_roots(c) == poly_roots(c)


def _aberth(C):
    return sphere._solve_blocks(C, sphere._aberth_block)[0]


def test_aberth_rows_do_not_depend_on_their_batch(monkeypatch):
    # each row stops on its own steps, so alone, in one batch and split
    # across blocks it runs the same iterations to the same bits
    rng = np.random.default_rng(7)
    for n in (3, 4, 5, 6):
        C = rand_complex(rng, (n + 1) * 200).reshape(n + 1, 200)
        batch = _aberth(C)
        alone = np.concatenate([_aberth(C[:, i : i + 1]) for i in range(200)])
        monkeypatch.setattr(sphere, "_ABERTH_BLOCK", 7)
        blocked = _aberth(C)
        monkeypatch.undo()
        assert batch.tobytes() == alone.tobytes() == blocked.tobytes()


def test_rows_missing_the_residual_fall_back_to_companion_eigenvalues(monkeypatch):
    rng = np.random.default_rng(84)
    f = polynomial_map(rand_complex(rng, 5) + np.array([0, 0, 0, 0, 2.0]))
    z = rand_complex(rng, 30, scale=2.0)
    solved = []
    roots_fn = np.roots
    monkeypatch.setattr(sphere, "_ABERTH_MAX_ITER", 1)  # one step leaves every row unsolved
    monkeypatch.setattr(np, "roots", lambda c: solved.append(c) or roots_fn(c))
    roots = f.preimages_many(z)
    monkeypatch.undo()
    assert len(solved) == 30 and np.isfinite(roots).all()
    for i in range(z.size):
        ref = oracles.preimages_bf(f.num, f.den, z[i])
        assert oracles.best_match(roots[i].tolist(), ref) < 1e-8


def test_nonconvergence_when_the_fallback_also_misses(monkeypatch):
    C = np.array([[-8.0, 1.0, 0.5j], [0.0, 0.0, 2.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0],
                  [1.0, 1.0, 1.0]])
    monkeypatch.setattr(sphere, "_ABERTH_MAX_ITER", 1)
    monkeypatch.setattr(sphere, "_ABERTH_BLOCK", 2)
    monkeypatch.setattr(np, "roots", lambda c: np.full(c.size - 1, 1e3 + 0j))
    with pytest.raises(NonConvergence, match=r"on 3 polynomial\(s\); the first has ascending "
                                             r"coefficients \[-8\+0j, 0\+0j, 0\+0j, 0\+0j, 1\+0j\]"):
        sphere.roots_batch(C)


def test_nonconvergence_names_the_failing_polynomial_not_its_batch_row(monkeypatch):
    # the closed form misses columns 2 and 5, Aberth misses both after one step, and the
    # companion eigenvalues miss column 5 only: the message names column 5's coefficients,
    # not its row among the misses
    rng = np.random.default_rng(21)
    C = rand_complex(rng, 4 * 6).reshape(4, 6)
    cubic_roots, roots_fn = sphere._cubic_roots_batch, np.roots

    def cubic_roots_missing(C):
        out = cubic_roots(C)
        out[[2, 5], 0] = np.nan
        return out

    monkeypatch.setattr(sphere, "_cubic_roots_batch", cubic_roots_missing)
    monkeypatch.setattr(sphere, "_ABERTH_MAX_ITER", 1)
    monkeypatch.setattr(np, "roots", lambda c: np.full(3, 1e3 + 0j)
                        if np.array_equal(c, C[::-1, 5]) else roots_fn(c))
    coeffs = ", ".join(f"{c:.6g}" for c in C[:, 5])
    with pytest.raises(NonConvergence) as info:
        sphere.roots_batch(C)
    assert str(info.value).endswith(f"on 1 polynomial(s); the first has ascending "
                                    f"coefficients [{coeffs}]")


def _worst_root_error(got, ref):
    """Largest |g - e| / (1 + |e|) between two root lists under the best pairing."""
    return min(max(abs(g - e) / (1.0 + abs(e)) for g, e in zip(perm, ref))
               for perm in itertools.permutations(got))


def test_cubic_closed_form_matches_companion_eigenvalues():
    # coefficients of widely different sizes cost Cardano the small roots' digits
    rng, m = np.random.default_rng(33), 3000
    C = rand_complex(rng, 4 * m).reshape(4, m) * 10.0 ** rng.uniform(-6.0, 6.0, (4, m))
    a = 0.3 - 1.7j
    special = [[2.0, -3.0, 0.0, 1.0],                       # (z - 1)^2 (z + 2)
               [0.0, 0.0, 0.0, 1.0],                        # z^3
               [-a**3, 3 * a**2, -3 * a, 1.0],              # (z - a)^3
               [0.0, 1.5 + 2j, -0.25j, 3.0]]                # zero constant term
    C = np.concatenate([C, np.array(special, dtype=complex).T], axis=1)
    got = sphere.roots_batch(C)
    assert got.shape == (C.shape[1], 3)
    for j in range(C.shape[1]):
        # a k-fold root moves by about eps^(1/k) under rounding of the coefficients
        tol = 1e-5 if j >= m else 1e-6
        assert _worst_root_error(got[j].tolist(), oracles.np_roots(C[:, j])) <= tol


def test_cubic_rows_do_not_depend_on_their_batch(monkeypatch):
    # some columns miss the closed form and go to Aberth; blocks of 40,000 columns
    # make numpy elide temporaries, which a complex product may not commute with
    rng, m = np.random.default_rng(8), 40000
    C = rand_complex(rng, 4 * m).reshape(4, m) * 10.0 ** rng.uniform(-3.0, 3.0, (4, m))
    batch = sphere.roots_batch(C)
    alone = np.concatenate([sphere.roots_batch(C[:, i : i + 1]) for i in range(300)])
    chunked = np.concatenate([sphere.roots_batch(C[:, i : i + 7000]) for i in range(0, m, 7000)])
    monkeypatch.setattr(sphere, "_ABERTH_BLOCK", m)
    one_block = sphere.roots_batch(C)
    assert alone.tobytes() == batch[:300].tobytes()
    assert chunked.tobytes() == batch.tobytes() == one_block.tobytes()


def test_cubic_rows_missing_the_closed_form_reach_aberth(monkeypatch):
    # columns 1 and 4 come back non-finite, columns 2 and 5 finite but off the bound
    rng = np.random.default_rng(12)
    C = rand_complex(rng, 4 * 8).reshape(4, 8)
    cubic_roots, aberth = sphere._cubic_roots_batch, sphere._aberth_block
    seen = []

    def cubic_roots_missing(C):
        out = cubic_roots(C)
        out[[1, 4], 1] = np.nan
        out[[2, 5]] += 1e-3
        return out

    monkeypatch.setattr(sphere, "_cubic_roots_batch", cubic_roots_missing)
    monkeypatch.setattr(sphere, "_aberth_block", lambda C: seen.append(np.array(C)) or aberth(C))
    got = sphere.roots_batch(C)
    assert len(seen) == 1 and seen[0].tobytes() == C[:, [1, 2, 4, 5]].tobytes()
    monkeypatch.undo()
    assert got[[1, 2, 4, 5]].tobytes() == _aberth(C[:, [1, 2, 4, 5]]).tobytes()
    for j in range(8):
        assert _worst_root_error(got[j].tolist(), oracles.np_roots(C[:, j])) <= 1e-10


def test_cubic_nonconvergence_when_the_fallback_also_misses(monkeypatch):
    C = np.array([[-8.0, 1.0], [0.0, 0.0], [0.0, 1.0], [1.0, 1.0]], dtype=complex)
    monkeypatch.setattr(sphere, "_cubic_roots_batch",
                        lambda C: np.full((np.asarray(C).shape[1], 3), np.nan))
    monkeypatch.setattr(sphere, "_ABERTH_MAX_ITER", 1)
    monkeypatch.setattr(np, "roots", lambda c: np.full(c.size - 1, 1e3 + 0j))
    with pytest.raises(NonConvergence, match=r"on 2 polynomial\(s\)"):
        sphere.roots_batch(C)


def test_a_monic_division_past_float_range_raises_non_convergence():
    # the fixed points of 1e-310 z^d solve 1e-310 z^d - z: dividing by 1e-310 leaves float
    # range, which warned in _aberth_block, and np.roots raised LinAlgError on the
    # non-finite companion matrix; under the suite's warnings-as-errors only the miss remains
    for degree in (3, 4):
        f = RationalMap(np.eye(degree + 1)[-1] * 1e-310)
        with pytest.raises(NonConvergence, match=r"missed the residual bound on 1 polynomial"):
            f.fixed_points()


@pytest.mark.parametrize("degree", [3, 4, 6])
def test_preimages_of_huge_and_tiny_targets_match_companion_eigenvalues(degree):
    # (1 + |z|)^n in an unscaled residual bound, and Aberth iterates started at radius
    # 1 + max|c_k / c_n|, overflow for |w| > 10^(308 / d): wrong roots then pass the bound
    c = np.zeros(degree + 1, dtype=complex)
    c[0], c[-1] = 0.3, 1.0
    f = polynomial_map(c)
    for w in (1e40, 1e100, 1e149, 1e-149):
        got = f.preimages_many(np.array([w + 0j]))
        assert np.isfinite(got).all()
        ref = oracles.np_roots(c - np.eye(degree + 1)[0] * w)
        for g in got[0]:
            assert min(abs(g - e) for e in ref) <= 1e-13 * abs(g)


def _cluster_size(roots, radius=1e-2):
    return max(sum(abs(r - s) <= radius for s in roots) for r in roots)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_preimages_many_fuzz_with_clustered_roots(data):
    # P has roots r_j, a cluster of up to 3 of them 1e-3 to 1e-9 apart; the
    # targets 0 and w give rows P and P - w, solved against np.roots
    n = data.draw(st.integers(3, 6), label="degree")
    coord = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    roots = [complex(data.draw(coord), data.draw(coord)) for _ in range(n)]
    gap = 10.0 ** -data.draw(st.integers(3, 9), label="log10 gap")
    for j in range(1, data.draw(st.integers(1, 3), label="cluster")):
        roots[j] = roots[0] + gap * j * 1j**j
    lead = complex(data.draw(st.floats(0.1, 10.0)), data.draw(coord))
    f = polynomial_map(lead * np.poly(roots)[::-1])
    z = np.array([0j, complex(data.draw(coord), data.draw(coord))])
    got = f.preimages_many(z)
    assert got.shape == (2, n) and np.isfinite(got).all()
    for i in range(2):
        c = f.num - np.eye(n + 1)[0] * z[i]
        bound = 1e-8 * (1.0 + np.max(np.abs(c))) * (1.0 + np.abs(got[i])) ** n
        assert np.all(np.abs(np.polyval(c[::-1], got[i])) <= bound)
        ref = oracles.preimages_bf(f.num, f.den, z[i])
        # a k-fold cluster moves by about eps^(1/k) under rounding of the coefficients
        tol = max(1e-8, 1e2 * 1e-16 ** (1.0 / _cluster_size(ref)))
        assert oracles.best_match(got[i].tolist(), ref) <= tol


# ---------------------------------------------------------------------------
# rational map evaluation


def test_eval_scaled_square():
    f = RationalMap([0.0, 0.0, 0.25])
    assert f(2.0) == pytest.approx(1.0)


def test_eval_at_infinity_follows_degree_comparison():
    assert polynomial_map([0.0, 0.0, 1.0])(INF_Z) == INF_Z          # z^2
    assert RationalMap([1.0], [0.0, 0.0, 1.0])(INF_Z) == 0.0     # 1/z^2
    f = RationalMap([1.0, 0.0, 2.0], [0.0, 0.0, 1.0])                # (2z^2+1)/z^2
    assert f(INF_Z) == pytest.approx(2.0)


def test_eval_pole_gives_infinity():
    f = RationalMap([1.0], [0.0, 1.0])  # 1/z
    assert f(0.0) == INF_Z
    g = RationalMap([1.0, 0.0, 1.0], [-1.0, 1.0])  # (z^2+1)/(z-1)
    assert g(1.0) == INF_Z


def test_eval_overflow_routes_to_infinity():
    f = polynomial_map([0.0, 0.0, 0.0, 1.0])  # z^3
    assert f(1e60) == INF_Z


def test_eval_many_matches_scalar():
    # reference: p(z)/q(z) by np.polyval; the scalar call wraps eval_many
    rng = np.random.default_rng(21)
    for _ in range(10):
        f = random_rational_map(rng)
        z = rand_complex(rng, 50, scale=3.0)
        vals = f.eval_many(z)
        for k in range(50):
            ref = oracles.rational_eval_bf(f.num, f.den, z[k])
            scalar = _bf(f(z[k]))
            assert np.isinf(vals[k]) == (ref == "inf") == (scalar == "inf")
            assert oracles.chordal_bf(_bf(vals[k]), ref) < 1e-10
            assert oracles.chordal_bf(scalar, ref) < 1e-10


def test_eval_many_at_infinity_matches_scalar_at_infinity():
    rng = np.random.default_rng(22)
    maps = [random_rational_map(rng) for _ in range(4)]
    maps += [polynomial_map([0.0, 0.0, 1.0]), RationalMap([1.0], [0.0, 0.0, 1.0]),
             RationalMap([1.0, 0.0, 2.0], [0.0, 0.0, 1.0])]
    z = rand_complex(rng, 12, scale=2.0)
    inf = np.zeros(12, dtype=bool)
    inf[[0, 5, 11]] = True
    z[inf] = INF_Z
    for f in maps:
        vals = f.eval_many(z)
        ref = oracles.rational_eval_bf(f.num, f.den, "inf")
        for k in range(z.size):
            if inf[k]:
                assert chordal_distance(as_point(vals[k]), f(INF_Z)) < 1e-15
                assert oracles.chordal_bf(_bf(vals[k]), ref) < 1e-12
            else:
                fin_ref = oracles.rational_eval_bf(f.num, f.den, z[k])
                assert oracles.chordal_bf(_bf(vals[k]), fin_ref) < 1e-10


def test_ratio_rejects_unreduced_zero_over_zero():
    zero = [np.zeros(1, dtype=complex)]
    with pytest.raises(ArithmeticError):
        sphere._chart_value(np.array([0.5 + 0j]), None, None, zero, zero)


def _chart_mix_cases():
    """(stack, its maps, near, far): a two-map MapStack of degree 2 whose first map
    has a pole at -0.5, with (2, U) point arrays all in the z chart (|z| <= 1, the
    pole included) and all in the 1/z chart (infinity included)."""
    rng = np.random.default_rng(33)
    gens = [RationalMap([1.0, 0.0, 3.0], [1.0, 2.0]), polynomial_map([0.3 + 0.1j, 0.0, 1.0])]
    near = rand_complex(rng, 2 * 37).reshape(2, -1)
    near /= 2.0 * np.maximum(np.abs(near), 1.0)
    near[0, 3] = -0.5
    far = rand_complex(rng, 2 * 29, scale=4.0).reshape(2, -1)
    far[np.abs(far) <= 1.0] *= 3.0 / np.abs(far[np.abs(far) <= 1.0])
    far[:, 5] = INF_Z
    return oracles.stack_maps(gens), gens, near, far


def test_map_stack_eval_many_equals_each_maps_own_bit_for_bit():
    stack, gens, near, far = _chart_mix_cases()
    mixed = np.concatenate([near[:, :20], far, near[:, 20:]], axis=1)
    for z in (near, far, mixed):
        vals = stack.eval_many(z)
        for b, f in enumerate(gens):
            assert vals[b].tobytes() == f.eval_many(z[b]).tobytes()
    assert vals[0, 3] == INF_Z  # the pole
    assert np.isinf(vals[:, 20 + 5]).all()  # infinity under two polynomial-like maps


@pytest.mark.parametrize("op", ["eval_many", "spherical_derivative_norm_many"])
def test_points_alone_and_in_a_mixed_array_give_identical_bits(op):
    # one chart reads the array whole, a mixed array gathers each chart's points
    stack, gens, near, far = _chart_mix_cases()
    cases = [(stack, near, far)] + [(f, near[b], far[b]) for b, f in enumerate(gens)]
    for m, z_near, z_far in cases:
        alone = np.concatenate([getattr(m, op)(z_near), getattr(m, op)(z_far)], axis=-1)
        mixed = getattr(m, op)(np.concatenate([z_near, z_far], axis=-1))
        assert mixed.tobytes() == alone.tobytes()


# ---------------------------------------------------------------------------
# spherical derivative norm


def test_derivative_norm_of_square_at_one():
    f = polynomial_map([0.0, 0.0, 1.0])
    assert f.spherical_derivative_norm(1.0) == pytest.approx(2.0, rel=1e-14)


def test_derivative_norm_of_powers_on_circle():
    for d in (2, 3, 4, 5):
        coeffs = [0.0] * d + [1.0]
        f = polynomial_map(coeffs)
        for k in range(16):
            z = np.exp(2j * np.pi * k / 16)
            assert f.spherical_derivative_norm(z) == pytest.approx(float(d), rel=1e-12)


def test_derivative_norm_matches_quotient_rule_formula():
    rng = np.random.default_rng(31)
    for _ in range(15):
        f = random_rational_map(rng)
        for z in rand_complex(rng, 8, scale=0.9):
            denom = horner(f.den, z)
            if abs(denom) < 1e-3:
                continue
            ref = oracles.sph_deriv_bf(f.num, f.den, z)
            assert f.spherical_derivative_norm(z) == pytest.approx(ref, rel=1e-10)


def test_derivative_norm_chart_consistency_on_overlap():
    rng = np.random.default_rng(41)
    for _ in range(15):
        f = random_rational_map(rng)
        r = rng.uniform(0.5, 2.0, size=12)
        th = rng.uniform(0.0, 2.0 * np.pi, size=12)
        z = r * np.exp(1j * th)
        # the two charts of the map's one-column MapStack, each on every point
        fwd = _chart_norm(z, np.abs(z), *f.fwd)
        rev = _chart_norm(1.0 / z, np.abs(1.0 / z), *f.rev)
        ok = fwd > 1e-12  # skip points essentially on a critical point
        assert np.allclose(fwd[ok], rev[ok], rtol=1e-10)


def test_derivative_norm_finite_at_infinity_and_poles():
    f = polynomial_map([0.0, 0.0, 1.0])  # z^2: superattracting at infinity
    assert f.spherical_derivative_norm(INF_Z) == pytest.approx(0.0, abs=1e-14)
    g = RationalMap([1.0], [0.0, 1.0])  # 1/z: an isometry-like rotation at 0
    assert math.isfinite(g.spherical_derivative_norm(0.0))
    assert g.spherical_derivative_norm(0.0) == pytest.approx(1.0, rel=1e-12)


def test_derivative_norm_many_matches_scalar_with_infinity():
    # reference: the quotient-rule formula, at infinity through w = 1/z
    rng = np.random.default_rng(51)
    f = random_rational_map(rng)
    num, den = f.num, f.den
    z = rand_complex(rng, 30, scale=2.0)
    inf = np.zeros(30, dtype=bool)
    inf[5] = True
    z[inf] = INF_Z
    vals = f.spherical_derivative_norm_many(z)
    for k in range(30):
        pt = INF_Z if inf[k] else z[k]
        ref = oracles.sph_deriv_sphere_bf(num, den, _bf(z[k]))
        assert vals[k] == pytest.approx(ref, rel=1e-12)
        assert f.spherical_derivative_norm(pt) == pytest.approx(ref, rel=1e-12)


def test_chain_rule_against_explicit_composition():
    rng = np.random.default_rng(61)
    for _ in range(10):
        cf = rand_complex(rng, 3)
        cg = rand_complex(rng, 4)
        cf[-1] += 1.0
        cg[-1] += 1.0
        f = polynomial_map(cf)
        g = polynomial_map(cg)
        h = polynomial_map(oracles.poly_compose(cf, cg))  # f(g(z))
        for z in rand_complex(rng, 6, scale=0.7):
            gz = g(z)
            lhs = h.spherical_derivative_norm(z)
            rhs = f.spherical_derivative_norm(gz) * g.spherical_derivative_norm(z)
            assert lhs == pytest.approx(rhs, rel=1e-8)


# ---------------------------------------------------------------------------
# preimages


def test_preimages_of_scaled_square():
    f = RationalMap([0.0, 0.0, 0.5])
    pts = f.preimages(2.0)
    vals = sorted((p for p in pts if p != INF_Z), key=lambda w: w.real)
    assert vals == pytest.approx([-2.0, 2.0])


def test_preimages_count_equals_degree_and_round_trip():
    rng = np.random.default_rng(71)
    for _ in range(12):
        f = random_rational_map(rng)
        for z in rand_complex(rng, 9, scale=2.0):
            pts = f.preimages(z)
            assert len(pts) == f.degree
            for y in pts:
                assert chordal_distance(f(y), z) <= 1e-6


def test_preimages_of_infinity():
    f = RationalMap([1.0, 0.0, 1.0], [0.0, 1.0])  # (z^2+1)/z
    pts = f.preimages(INF_Z)
    assert len(pts) == 2
    assert sum(p == INF_Z for p in pts) == 1
    assert any(p != INF_Z and abs(p) < 1e-12 for p in pts)

    g = RationalMap([1.0], [0.0, 0.0, 1.0])  # 1/z^2: no infinite preimage of inf
    pts = g.preimages(INF_Z)
    assert len(pts) == 2
    assert all(p != INF_Z and abs(p) < 1e-6 for p in pts)


def test_preimages_leading_cancellation_pads_with_infinity():
    f = RationalMap([1.0, 0.0, 1.0], [0.0, 0.0, 1.0])  # (z^2+1)/z^2
    pts = f.preimages(1.0)  # (z^2+1)/z^2 = 1 has no finite solution
    assert len(pts) == 2
    assert all(p == INF_Z for p in pts)
    assert f(INF_Z) == pytest.approx(1.0)


def test_preimages_many_matches_scalar():
    # reference: np.roots of P - zQ; the scalar call wraps preimages_many and sorts
    rng = np.random.default_rng(81)
    for _ in range(8):
        f = random_rational_map(rng)
        z = rand_complex(rng, 40, scale=2.0)
        roots = f.preimages_many(z)
        assert roots.shape == (40, f.degree)
        for i in range(40):
            got = [_bf(roots[i, k]) for k in range(f.degree)]
            ref = oracles.preimages_bf(f.num, f.den, z[i])
            scalar = f.preimages(z[i])
            assert scalar == sorted(scalar, key=sort_key)
            assert oracles.best_match(got, ref) < 1e-6
            assert oracles.best_match([_bf(p) for p in scalar], ref) < 1e-6


def test_preimages_many_rows_are_permutations_of_scalar_preimages():
    # rows come in solver order; each must match the np.roots reference (and
    # the scalar preimages()) up to order, across closed-form (d <= 2),
    # Aberth (d >= 3) and leading-cancellation rows
    rng = np.random.default_rng(82)
    maps = [random_rational_map(rng) for _ in range(6)]
    maps.append(RationalMap([1.0, 0.0, 2.0], [0.0, 1.0, 1.0]))  # f(inf) = 2
    for f in maps:
        z = rand_complex(rng, 25, scale=2.0)
        if f.den.size - 1 == f.degree:
            z[0] = f(INF_Z)  # a target whose leading coefficient cancels
        roots = f.preimages_many(z)
        for i in range(z.size):
            got = [_bf(roots[i, k]) for k in range(f.degree)]
            ref = oracles.preimages_bf(f.num, f.den, z[i])
            scalar = [_bf(p) for p in f.preimages(z[i])]
            assert got.count("inf") == ref.count("inf") == scalar.count("inf")
            assert oracles.best_match(got, ref) < 1e-8
            assert oracles.best_match(scalar, ref) < 1e-8


def test_preimages_many_mixes_infinity_and_degree_drops():
    # f = 1 + (w + 2)/Q with Q = w^3 + 10 w^2 + 1: the target 1 cancels two
    # leading coefficients exactly; 1 + 1e-12 cancels only the cubic one
    # within the 1e-12 tolerance, since the quadratic one is 10 times larger
    den = np.array([1.0, 0.0, 10.0, 1.0])
    num = den + np.array([2.0, 1.0, 0.0, 0.0])
    f = RationalMap(num, den)
    z = np.array([0.3 + 0.1j, INF_Z, 1.0, -2.0j, 1.0 + 1e-12, INF_Z])
    drops = [0, 0, 2, 0, 1, 0]
    roots = f.preimages_many(z)
    for i, k in enumerate(drops):
        assert np.isinf(roots[i]).tolist() == [False] * (3 - k) + [True] * k
        ref = oracles.preimages_bf(f.num, f.den, _bf(z[i]))
        assert oracles.best_match([_bf(r) for r in roots[i]], ref) < 1e-8


def _dense_ref_maps(rng, d):
    """Random degree-d maps: a polynomial, a rational map with deg Q < d (rows
    0 to d - 1 vary with the target), one with deg Q = d (every row varies)
    and, for d >= 2, one whose target f(inf) cancels two leading coefficients."""
    out = [polynomial_map(rand_complex(rng, d + 1)),
           RationalMap(rand_complex(rng, d + 1), rand_complex(rng, d)),
           RationalMap(rand_complex(rng, d + 1), rand_complex(rng, d + 1))]
    if d >= 2:
        den = rand_complex(rng, d + 1)
        out.append(RationalMap(0.7 * den + np.r_[rand_complex(rng, d - 1), 0, 0], den))
    return out


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_preimages_many_equals_the_dense_reference_bit_for_bit(d):
    # preimages_many builds only the rows of P - zQ that vary with the target; the
    # reference builds all d + 1 for every target, and the roots must match to the bit
    rng = np.random.default_rng(40 + d)
    maps = _dense_ref_maps(rng, d)
    blocks = [[f] for f in maps] + [[f, g, f] for f, g in zip(maps, maps[1:] + maps[:1])]
    for gens in blocks:
        stack = oracles.stack_maps(gens)
        drops = [complex(f(INF_Z)) if f(INF_Z) != INF_Z else 0j for f in gens]
        finite = rand_complex(rng, 300 * len(gens), scale=2.0).reshape(len(gens), -1)
        mixed = np.concatenate([finite[:, :40], np.full((len(gens), 3), INF_Z),
                                np.array(drops)[:, None] * [1.0, 1.0 + 1e-13],
                                np.array(drops[::-1])[:, None]], axis=1)
        for z in (finite, mixed):
            ref = oracles.preimages_dense_ref(stack, z)
            assert stack.preimages_many(z).tobytes() == ref.tobytes()
            if len(gens) == 1:
                assert gens[0].preimages_many(z[0]).tobytes() == ref[0].tobytes()


def test_preimages_many_finds_a_degree_drop_in_any_column_of_a_block():
    # column 0, z^2 - iz + 1, has no Q_d, so no finite target cancels its leading coefficient;
    # column 1, (2z^2 + 1)/(z^2 + z + 3), loses it exactly at the target 2.  Calls with finite
    # targets only, and with targets at infinity, match the dense reference bit for bit, on
    # this block and on a block of polynomials
    rng = np.random.default_rng(47)
    poly, rat = polynomial_map([1.0, -1j, 1.0]), RationalMap([1.0, 0.0, 2.0], [3.0, 1.0, 1.0])
    finite = rand_complex(rng, 40).reshape(2, -1)
    finite[:, :3] = 2.0
    mixed = finite.copy()
    mixed[:, 5:7] = INF_Z
    for maps in ([poly, rat], [poly, polynomial_map([0.5, 2.0, -1.0])]):
        stack = oracles.stack_maps(maps)
        for z in (finite, mixed):
            assert stack.preimages_many(z).tobytes() == oracles.preimages_dense_ref(stack, z).tobytes()
    roots = oracles.stack_maps([poly, rat]).preimages_many(finite)
    assert not np.isinf(roots[0]).any()
    assert np.isinf(roots[1, :, 1]).tolist() == [True] * 3 + [False] * 17


def _chart_norm_ref(x, ax, W, P, Q):
    """_chart_norm with every step a new array: the expression it forms in place."""
    wz, pz, qz = (np.abs(horner(c, x)) for c in (W, P, Q))
    den = pz * pz + qz * qz
    if den.min() < sphere._TINY:
        s = np.where(den < sphere._TINY, np.maximum(pz, qz), 1.0)
        wz, pz, qz = wz / s / s, pz / s, qz / s
        den = pz * pz + qz * qz
    return wz * (1.0 + ax**2) / den


def test_chart_norm_in_place_equals_the_new_array_expression_bit_for_bit():
    # per-map (K, 1, 1) coefficient columns against (K, U) points, as _by_chart passes them.
    # Degree 1 gives a constant W (and Q of a polynomial) beside per-point values; the 1/z
    # chart of a z^2 stack gives a per-map constant |P| beside a per-point |Q|; coefficients
    # scaled down in map 1 put |P|^2 + |Q|^2 below the normal range, the rescaled points
    rng = np.random.default_rng(29)
    stacks = [oracles.stack_maps([polynomial_map(rand_complex(rng, 2)) for _ in range(3)]),
              oracles.stack_maps([polynomial_map([0.0, 0.0, a]) for a in (1.0, -2j, 0.5 + 0.5j)]),
              oracles.stack_maps([RationalMap(rand_complex(rng, 3), rand_complex(rng, 3)) for _ in range(3)])]
    x = rand_complex(rng, 3 * 40, scale=0.6).reshape(3, -1)
    shapes, rescaled = set(), False
    for stack in stacks:
        for coeffs in (stack.fwd, stack.rev):
            for s in (1.0, 1e-160):
                scale = np.array([1.0, s, 1.0])[:, None]  # W = P'Q - PQ' scales by its square
                W, P, Q = (c[:, :, None] * k for c, k in zip(coeffs, (scale * scale, scale, scale)))
                got = _chart_norm(x, np.abs(x), W, P, Q)
                assert got.tobytes() == _chart_norm_ref(x, np.abs(x), W, P, Q).tobytes()
                pz, qz = (np.abs(horner(c, x)) for c in (P, Q))
                shapes.add((horner(W, x).shape, pz.shape, qz.shape))
                rescaled |= bool((pz * pz + qz * qz < sphere._TINY).any())
    assert {((3, 1), (3, 40), (3, 1)), ((3, 40), (3, 1), (3, 40)), ((3, 40),) * 3} <= shapes
    assert rescaled


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_stacked_columns_are_each_maps_own_bits_and_np_convolve_wronskians(d):
    # the batched constructor validates, scales and builds column by column: each
    # column's num, den and scaled P, Q are the map's own, P and Q are num and den
    # times a power of two, and the Wronskian is np.convolve's, bit for bit
    rng = np.random.default_rng(70 + d)
    maps = _dense_ref_maps(rng, d)
    maps += [RationalMap(rand_complex(rng, d + 1), rand_complex(rng, k + 1)) for k in range(d)]
    stack = oracles.stack_maps(maps)
    W = stack.fwd[0]
    for b, f in enumerate(maps):
        e = 1 - math.frexp(max(np.abs(f.num).max(), np.abs(f.den).max()))[1]
        for got, side in ((stack.P, f.num), (stack.Q, f.den)):
            want = np.zeros(d + 1, dtype=complex)
            want[: side.size] = np.ldexp(side.real, e) + 1j * np.ldexp(side.imag, e)
            assert got[:, b].tobytes() == want.tobytes()
        P, Q = stack.P[: f.num.size, b], stack.Q[: f.den.size, b]
        w = np.zeros(2 * d - 1, dtype=complex)
        if P.size > 1:
            w[: P.size + Q.size - 2] += np.convolve(P[1:] * np.arange(1, P.size), Q)[: 2 * d - 1]
        if Q.size > 1:
            w[: P.size + Q.size - 2] -= np.convolve(P, Q[1:] * np.arange(1, Q.size))[: 2 * d - 1]
        assert not w[len(W):].any()  # the rows the stack trims vanish in every column
        assert W[:, b].tobytes() == w[: len(W)].tobytes()
        for got, want in zip((*stack.raw, *stack.fwd, *stack.rev), (*f.raw, *f.fwd, *f.rev)):
            col = np.zeros(len(got), dtype=complex)
            col[: len(want)] = want[:, 0]
            assert got[:, b].tobytes() == col.tobytes()


def test_stacked_columns_fail_as_the_map_alone_does():
    good = polynomial_map([0.0, 0.0, 1.0])
    cols = [np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]), np.ones((1, 2))]
    cases = [(cols[0], cols[1], "numerator and denominator must be nonzero"),
             # column 1 is (z^2 - 1) / (z - 1)
             (np.array([[0.0, -1.0], [0.0, 0.0], [1.0, 1.0]]), np.array([[1.0, -1.0], [0.0, 1.0]]),
              "numerator and denominator share a root near"),
             (np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]), np.ones((1, 2)),
              "stacked maps must share one degree"),
             (np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 2.0]]), np.ones((1, 1)),
              "numerator and denominator must have the same number of columns")]
    for num, den, match in cases:
        with pytest.raises(ValueError, match=match):
            sphere.MapStack(num, den)
    one = sphere.MapStack(cols[0][:, :1], cols[1][:, :1])
    assert [c.tobytes() for c in (one.P, one.Q, *one.fwd, *one.rev)] == \
        [c.tobytes() for c in (good.P, good.Q, *good.fwd, *good.rev)]


def test_quadratic_kernel_equals_the_where_expression_bit_for_bit():
    # the kernel divides straight into its output and flips signs in place; the
    # reference builds every step as a new array, and the roots must match to the bit
    rng, K = np.random.default_rng(28), 3

    def rows(*shapes):
        return [rand_complex(rng, math.prod(s)).reshape(s) for s in shapes]

    # discriminants on the negative real axis: with c2 = 1, c1 = a + 0j or a - 0j and
    # c0 > a^2 / 4, c1^2 - 4 c0 is real and negative with an imaginary part of +0 or -0,
    # whose sign picks the square root's sign and so the order of the two roots
    c1 = np.array([complex(a, s) for a in (0.0, -0.0, 0.5, -0.5) for s in (0.0, -0.0)] * 2)
    c0 = np.repeat([1.0, 4.0 + 0j], 8)
    axis = [c0, c1, np.ones(16, dtype=complex)]
    assert {bool(np.signbit(d.imag)) for d in c1 * c1 - 4.0 * c0} == {False, True}
    dense = rows((3, 9000))[0]
    dense[0][::3] = dense[1][::3] = 0.0  # q = 0 columns: the root c0 / q is 0
    cases = [rows((K, 4000), (K, 1), (K, 1)),           # per-map c1, c2 beside per-target c0
             list(dense),
             [*rows((K, 4000)), np.zeros((K, 1), dtype=complex), *rows((K, 1))],  # c1 = 0
             axis]
    for C in cases:
        got = sphere._quadratic_roots_batch(C)
        assert np.isfinite(got).all()
        assert got.tobytes() == oracles.quadratic_roots_ref(C).tobytes()


@pytest.mark.parametrize("coeffs, expected", [
    ([1e200, 1e200, 1.0], [-1e200, -1.0]),
    ([0.0, 1e155 - 1.0, 1e155], [-1.0, 0.0]),   # the fixed points of 1e155 (z + z^2)
    ([1e155, -1.0, 1e155], [-1j, 1j]),          # the fixed points of 1e155 (1 + z^2)
])
def test_quadratics_whose_closed_form_overflows_are_re_solved(coeffs, expected):
    # c1^2 or 4 c2 c0 overflows: the closed form's non-finite roots send the column to
    # np.roots under the residual bound, without a warning (the suite makes them errors)
    got = poly_roots(coeffs)
    assert len(got) == 2 and np.isfinite(got).all()
    assert _worst_root_error(got, expected) <= 1e-12
    C = np.array([coeffs, [1.0, -3.0, 2.0]], dtype=complex).T  # a finite column beside it
    batch = sphere.roots_batch(C)
    assert batch[1].tobytes() == sphere._quadratic_roots_batch(C[:, 1:])[0].tobytes()


def test_fixed_points_survive_an_overflowing_quadratic():
    for num, finite in (([0.0, 1e155, 1e155], [-1.0 + 1e-155, 0.0]), ([1e155, 0.0, 1e155], [-1j, 1j])):
        pts = [p for p, _ in RationalMap(num).fixed_points()]
        assert [p == INF_Z for p in pts] == [False, False, True]
        assert _worst_root_error([p for p in pts[:2]], finite) <= 1e-12


# ---------------------------------------------------------------------------
# critical and fixed points


def test_critical_points_of_shifted_square():
    f = polynomial_map([-1.0, 0.0, 1.0])  # z^2 - 1
    pts = f.critical_points()
    assert len(pts) == 2
    assert sum(p == INF_Z for p in pts) == 1
    assert any(p != INF_Z and abs(p) < 1e-12 for p in pts)


def test_critical_points_of_cube_have_multiplicity_two():
    f = polynomial_map([0.0, 0.0, 0.0, 1.0])  # z^3
    pts = f.critical_points()
    assert len(pts) == 4
    assert sum(p == INF_Z for p in pts) == 2
    assert sum(p != INF_Z and abs(p) < 1e-4 for p in pts) == 2


def test_mobius_map_has_no_critical_points():
    f = RationalMap([1.0, 2.0], [2.0, 1.0])
    assert f.critical_points() == []


def test_fixed_points_of_squared_minus_two():
    f = polynomial_map([-2.0, 0.0, 1.0])  # z^2 - 2
    fps = f.fixed_points()
    assert len(fps) == 3
    table = {}
    for p, norm in fps:
        key = "inf" if p == INF_Z else round(p.real)
        table[key] = norm
    assert table[-1] == pytest.approx(2.0, rel=1e-9)
    assert table[2] == pytest.approx(4.0, rel=1e-9)
    assert table["inf"] == pytest.approx(0.0, abs=1e-12)


def test_fixed_points_of_doubling_affine_map():
    p = 0.3 + 0.1j
    f = polynomial_map([-p, 2.0])  # 2(z - p) + p
    fps = f.fixed_points()
    assert len(fps) == 2
    finite = [(q, n) for q, n in fps if q != INF_Z]
    at_inf = [(q, n) for q, n in fps if q == INF_Z]
    assert len(finite) == 1 and len(at_inf) == 1
    assert abs(finite[0][0] - p) < 1e-12
    assert finite[0][1] == pytest.approx(2.0, rel=1e-12)
    assert at_inf[0][1] == pytest.approx(0.5, rel=1e-12)


# ---------------------------------------------------------------------------
# validation


def test_validation_rejects_shared_roots_and_constants():
    with pytest.raises(ValueError):
        RationalMap([0.0, 1.0], [0.0, 1.0])  # z / z
    with pytest.raises(ValueError):
        RationalMap([2.0], [1.0])  # constant
    with pytest.raises(ValueError, match="must be nonzero"):
        RationalMap([0.0], [1.0])  # zero numerator
    with pytest.raises(ValueError, match="must be nonzero"):
        RationalMap([0.0, 1.0], [0.0, 0.0])  # zero denominator
    with pytest.raises(ValueError):
        RationalMap([-1.0, 0.0, 1.0], [1.0, 1.0])  # shares root z = -1
    with pytest.raises(ValueError, match="must be finite"):
        RationalMap([0.0, float("nan")])
    with pytest.raises(ValueError, match="must be finite"):
        RationalMap([0.0, 1.0], [complex(1.0, math.inf)])
    # z^2 / (z^2 + 1e-15) with P and Q times 1e155: P'Q and PQ' would overflow
    # had P and Q not been scaled down first; f = 0.3 at z^2 = 0.3e-15 / 0.7
    f = RationalMap([0.0, 0.0, 1e155], [1e140, 0.0, 1e155])
    assert f.critical_points() == [0j, INF_Z]
    root = math.sqrt(0.3e-15 / 0.7)  # 2.0702e-8
    assert [p for p in f.preimages(0.3)] == pytest.approx([-root, root], rel=1e-9)
    with pytest.raises(ValueError, match="non-empty 1-d"):
        RationalMap([])
    with pytest.raises(ValueError, match="non-empty 1-d"):
        RationalMap([[0.0, 1.0]])
    with pytest.raises(ValueError, match="zero polynomial"):
        poly_roots([0.0, 0.0])
    # trailing zeros are stripped: the degree is that of the top nonzero coefficient
    f = RationalMap([0, 0, 1, 0, 0])
    assert f.degree == 2
    assert f.num.tolist() == [0, 0, 1]
    assert not f.num.flags.writeable


@pytest.mark.parametrize("num, den", [
    # z^2 (a + b z) / z: poly_roots returns the numerator's double root 0 as +-8.0e-9,
    # farther than chordal 1e-8 from the denominator's 0, so f(0) was 0/0
    ([0, 0, -1.0448 + 0.8704j, -0.2654 + 0.2506j], [0, 1]),
    # (z - c)^2 (z - 0.25i) / ((z - c)(z - 2)) with |c| > 1, read in the 1/z chart: the
    # numerator's roots near c came back 2.6e-8 away, chordal 1.1e-8
    (np.poly([-1.7 + 0.9j, -1.7 + 0.9j, 0.25j])[::-1], np.poly([-1.7 + 0.9j, 2.0])[::-1]),
], ids=["double-at-zero", "double-away-from-zero"])
def test_validation_rejects_a_common_root_double_on_one_side(num, den):
    with pytest.raises(ValueError, match="share a root"):
        RationalMap(num, den)


def test_tiny_coefficients_are_scaled_up_before_the_wronskian_and_evaluation():
    # the identity with coefficients 1e-200: P'Q - PQ' = 1e-400 underflowed to a "constant" map
    z = np.array([0.3 + 0.1j, 0.0, 2.0 - 5.0j, INF_Z])
    inf = np.isinf(z)
    f = RationalMap([0.0, 1e-200], [1e-200])
    vals = f.eval_many(z)
    assert vals == pytest.approx(z, rel=1e-15) and np.isinf(vals).tolist() == inf.tolist()
    assert f.spherical_derivative_norm_many(z) == pytest.approx(np.ones(4), rel=1e-15)
    roots = f.preimages_many(z)
    assert roots[:, 0] == pytest.approx(z, rel=1e-15) and np.isinf(roots[:, 0]).tolist() == inf.tolist()
    # all coefficients subnormal: the unscaled z chart divided 5e-311 by 1e-310 into inf+nanj
    a, b = 5e-311, 1e-310
    g = RationalMap([a, b], [b])
    vals = g.eval_many(z)
    assert np.isfinite(vals[~inf]).all() and np.isinf(vals).tolist() == inf.tolist()
    shift = float(Fraction(a) / Fraction(b))  # 0.5 up to the subnormals' rounding
    assert vals[:3] == pytest.approx(z[:3] + shift, rel=1e-15, abs=1e-15)
    assert g.critical_points() == [] and g.fixed_points() == [(INF_Z, 1.0)]


def test_leading_coefficient_ratio_bound():
    # the root solvers divide by the leading coefficient; 1e-313 of the largest left float
    # range there (an overflow warning, then a false shared root or np.roots on infs)
    for den in ([1.0, 0.0, 1e-313], [1.0, 0.0, 0.0, 1e-313]):
        with pytest.raises(ValueError, match=r"denominator leading coefficient is 1e-313 times its "
                                             r"largest, below 1e-300: its monic form leaves float range"):
            RationalMap([0.0, 0.0, 1.0], den)
    with pytest.raises(ValueError, match="numerator leading coefficient is 5e-301 times"):
        RationalMap([2.0, 0.0, 0.0, 1e-300], [1.0, 1.0])
    # just inside the bound, building, evaluating and solving raise no warning
    z = np.array([0.3 + 0.1j, 0.0, 2.0 - 5.0j, 1e3, INF_Z])
    for num, den in (([0.0, 0.0, 1.0], [1.0, 0.0, 1e-300]), ([0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1e-300]),
                     ([2.0, 0.0, 0.0, 2e-300], [1.0, 1.0]), ([1.0, 0.0, 0.0, 0.0, 0.0, 1e-300], [0.5])):
        f = RationalMap(num, den)
        roots = f.preimages_many(z)
        assert roots.shape == (5, f.degree) and not np.isnan(roots).any()
        vals = f.eval_many(z)
        assert not np.isnan(vals).any()


@pytest.mark.parametrize("r", [1e-150, 1e-170])
def test_derivative_norm_at_infinity_with_a_tiny_leading_coefficient(r):
    # at infinity the 1/z chart reads |P|^2 + |Q|^2 = r^2, which underflows to 0 for r = 1e-170:
    # 1/0 and 0/0 there, unless the norm rescales by max(|P|, |Q|) first
    f = RationalMap([0.0, 0.0, 1.0], [1.0, 0.0, 0.0, r])  # about 1/(r z) near infinity
    assert f.spherical_derivative_norm(INF_Z) == pytest.approx(1.0 / r, rel=1e-12)
    for num, den in (([2.0, 0.0, 0.0, r], [1.0, 1.0]), ([1.0, 0.0, 0.0, 0.0, 0.0, r], [0.5])):
        g = RationalMap(num, den)
        assert INF_Z in g.critical_points()
        assert g.spherical_derivative_norm(INF_Z) == 0.0
