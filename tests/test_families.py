"""Family tests: instantiation, sweeps, sub-mean and smoothness diagnostics."""
import math
import struct
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import Polynomial as LambdaPoly

from ratsemi import errors, families, sphere, thermo
from ratsemi.config import parse_file
from ratsemi.errors import InsufficientPoints, InvalidInstance
from ratsemi.families import (
    AnnulusDomain,
    FamilySpec,
    GridSpec,
    RectDomain,
    SweepRow,
    SweepTable,
    annulus_family,
    instantiate,
    power_pair_family,
    similarity_family,
    smoothness_diagnostic,
    submean_diagnostic,
    sweep_delta,
)
from ratsemi.sphere import chordal_distance, polynomial_map
from ratsemi.thermo import ThermoConfig

import oracles


# ---------------------------------------------------------------------------
# instantiation


def test_grid_axis_with_more_than_one_point_needs_a_positive_width():
    # an axis of n > 1 equal values repeats one parameter, and the smoothness
    # diagnostic's finite-difference step along it would be 0
    for args in ((0.3, 0.3, 3, -0.05, 0.05, 9), (0.3, 0.4, 2, 0.1, 0.1, 2)):
        with pytest.raises(ValueError, match="an axis with more than one point needs a positive width"):
            GridSpec(*args)
    assert GridSpec(0.3, 0.3, 1, -0.05, 0.05, 9).re_values.tolist() == [0.3]


def test_grid_bounds_must_be_finite():
    # a NaN bound used to turn every sweep row into invalid-instance, an infinite one
    # to warn in np.linspace
    for bad in (math.nan, math.inf, -math.inf):
        for k in (0, 1, 3, 4):
            args = [0.3, 0.4, 2, -0.05, 0.05, 2]
            args[k] = bad
            with pytest.raises(ValueError, match="grid bounds must be finite"):
                GridSpec(*args)


def test_instantiate_scaled_square_pair():
    mm = instantiate(annulus_family(), 0.5)
    assert mm.num_generators == 2
    assert mm.degrees == (2, 2)
    assert mm.generators[0](3.0) == pytest.approx(9.0)
    assert mm.generators[1](3.0) == pytest.approx(4.5)
    np.testing.assert_allclose(mm.generators[1].num, [0.0, 0.0, 0.5])


def test_instantiate_similarity_triple_matches_doubling_maps():
    fam = similarity_family(oracles.TRIANGLE_RAW)
    mm = instantiate(fam, 0.5)
    for k, p in enumerate(oracles.TRIANGLE_RAW, start=1):
        doubling = polynomial_map([-p, 2.0])
        for z in (0.1 + 0.2j, 1.0, -0.7j, 2.5 + 1.0j):
            got = mm.generators[k - 1](z)
            want = doubling(z)
            assert chordal_distance(got, want) < 1e-12


def test_instantiate_degenerate_parameter():
    fam = annulus_family()
    with pytest.raises(InvalidInstance, match="degenerate"):
        instantiate(fam, 0.0)


def test_leading_coefficient_past_float_range_is_an_invalid_instance():
    # generator 2 is 1 + lam z^2: at lam = 1e-301 its monic form 1/lam + z^2 leaves float range
    fam = FamilySpec(generators=(((0.0, 0.0, 1.0), (1.0,)), ((1.0, 0.0, (0.0, 1.0)), (1.0,))),
                     domain=RectDomain(-1.0, 1.0, -1.0, 1.0))
    with pytest.raises(InvalidInstance, match=r"generator 2 is degenerate at parameter \(1e-301\+0j\): "
                                              r"numerator leading coefficient is 1e-301 times its largest"):
        instantiate(fam, 1e-301)
    table = sweep_delta(fam, GridSpec(1e-301, 1e-301, 1, 0.0, 0.0, 1), FAST)
    assert [r.status for r in table.rows] == ["invalid-instance"]


def test_instantiate_puncture_and_domain():
    fam = similarity_family(oracles.TRIANGLE_RAW)
    with pytest.raises(InvalidInstance, match="puncture"):
        instantiate(fam, 0.0)
    with pytest.raises(InvalidInstance, match="puncture"):
        instantiate(fam, 1e-12)
    with pytest.raises(InvalidInstance, match="outside"):
        instantiate(fam, 2.0)


def test_annulus_domain():
    fam = FamilySpec(
        generators=annulus_family().generators,
        domain=AnnulusDomain(0.0, 0.2, 0.8),
    )
    assert instantiate(fam, 0.5).num_generators == 2
    with pytest.raises(InvalidInstance, match="outside"):
        instantiate(fam, 0.1)
    with pytest.raises(ValueError):
        AnnulusDomain(0.0, 0.8, 0.2)
    with pytest.raises(ValueError):
        RectDomain(1.0, 0.0, 0.0, 1.0)


def test_coefficients_vary_polynomially():
    # second differences of instantiated coefficients on three collinear
    # parameters must match the coefficient polynomials' own exactly
    rng = np.random.default_rng(42)
    top = LambdaPoly([2.0])
    q0 = LambdaPoly(rng.normal(size=3) + 1j * rng.normal(size=3))
    q1 = LambdaPoly(rng.normal(size=2) + 1j * rng.normal(size=2))
    fam = FamilySpec(
        generators=(((q0, q1, top), (1.0,)),),
        domain=RectDomain(-5.0, 5.0, -5.0, 5.0),
    )
    lam0 = 0.3 + 0.1j
    h = 0.05 - 0.02j
    lams = [lam0, lam0 + h, lam0 + 2 * h]
    coeff_sets = [instantiate(fam, l).generators[0].num for l in lams]
    got = coeff_sets[0] - 2 * coeff_sets[1] + coeff_sets[2]
    want = np.array([q(lams[0]) - 2 * q(lams[1]) + q(lams[2]) for q in (q0, q1, top)])
    np.testing.assert_allclose(got, want, atol=1e-12)


def _reference_coeffs(polys, lam):
    """The coefficients of one generator side at lam, evaluated by numpy.polynomial."""
    return sphere._coeffs([LambdaPoly(q)(lam) for q in polys])


def test_instantiate_matches_numpy_polynomial_bit_for_bit_on_the_similarity_grid():
    # the demo grid's products are exact, so the array Horner loop and numpy.polynomial's
    # scalar one agree to the last bit on all 441 x 9 coefficients
    cfg = parse_file(Path(__file__).resolve().parent.parent / "demos/configs/similarity_sweep.json")
    fam, grid = cfg.family_spec(), cfg.grid_spec()
    points = 0
    for lam in grid.points():
        for f, (num, den) in zip(instantiate(fam, lam).generators, fam.generators):
            assert f.num.tobytes() == _reference_coeffs(num, lam).tobytes()
            assert f.den.tobytes() == _reference_coeffs(den, lam).tobytes()
        points += 1
    assert points == 441


def test_instantiate_matches_numpy_polynomial_on_random_coefficients():
    # a fused first product may move the last bits, nothing more
    rng = np.random.default_rng(23)
    for _ in range(200):
        num = [rng.normal(size=k) + 1j * rng.normal(size=k) for k in rng.integers(1, 6, size=3)]
        fam = FamilySpec(generators=((num, (1.0,)),), domain=RectDomain(-5.0, 5.0, -5.0, 5.0))
        lam = complex(*rng.uniform(-5.0, 5.0, size=2))
        got = instantiate(fam, lam).generators[0].num
        ref = _reference_coeffs(num, lam)
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))


def test_family_spec_coefficient_forms():
    spec = FamilySpec(generators=(((2, (0.0, 1.0), LambdaPoly([1.0, 0.0, 3j])), [1.5]),),
                      domain=RectDomain(-1.0, 1.0, -1.0, 1.0))
    assert spec.generators == ((((2 + 0j,), (0j, 1 + 0j), (1 + 0j, 0j, 3j)), ((1.5 + 0j,),)),)
    assert annulus_family() == annulus_family()
    assert similarity_family([0, 1, 1j]) == similarity_family([0, 1, 1j])
    for bad in ([], LambdaPoly([0.0, 1.0], domain=[0.0, 2.0])):
        with pytest.raises(ValueError):
            FamilySpec(generators=(((0.0, bad), (1.0,)),), domain=RectDomain(-1.0, 1.0, -1.0, 1.0))


# ---------------------------------------------------------------------------
# sweeps


FAST = ThermoConfig(depth=8, cap=20_000, hyper_depth=5, hyper_cap=20_000)


def test_sweep_scaled_square_family_delta_is_two():
    grid = GridSpec(0.3, 0.7, 5, 0.0, 0.0, 1)
    table = sweep_delta(annulus_family(), grid, FAST)
    assert len(table.rows) == 5
    for row in table.rows:
        assert row.status == "ok"
        assert row.delta == pytest.approx(2.0, abs=1e-2)
        assert row.delta_error is not None and row.delta_error > 0
        assert row.depth >= 2
    assert [r.lam.real for r in table.rows] == pytest.approx(
        list(np.linspace(0.3, 0.7, 5))
    )


def test_real_coefficient_family_has_the_same_delta_at_conjugate_parameters():
    # {z^2 + lam, z^2 + lam + 0.04} at conj(lam) is the complex conjugate of the system at lam:
    # conjugation maps its trees onto each other with the same derivative norms, so delta agrees
    quad_pair = FamilySpec(
        generators=((((0.0, 1.0), 0.0, 1.0), (1.0,)), (((0.04, 1.0), 0.0, 1.0), (1.0,))),
        domain=RectDomain(-1.0, 1.0, -1.0, 1.0),
    )
    lam = complex(0.15, 0.05)
    up, down = (thermo.bowen_parameter(instantiate(quad_pair, p), FAST).delta
                for p in (lam, lam.conjugate()))
    assert math.isclose(up, down, rel_tol=1e-12)
    table = sweep_delta(quad_pair, GridSpec(0.1, 0.2, 2, -0.05, 0.05, 3), FAST)
    for i in range(2):
        below, above = table.row_at(i, 0), table.row_at(i, 2)
        assert below.status == above.status == "ok"
        assert below.lam == above.lam.conjugate()
        assert math.isclose(above.delta, below.delta, rel_tol=1e-12)


def test_sweep_row_major_order_and_indexing():
    grid = GridSpec(0.3, 0.4, 2, -0.05, 0.05, 2)
    table = sweep_delta(annulus_family(), grid, FAST)
    lams = [r.lam for r in table.rows]
    assert lams == [
        complex(0.3, -0.05),
        complex(0.3, 0.05),
        complex(0.4, -0.05),
        complex(0.4, 0.05),
    ]
    assert table.row_at(1, 0).lam == complex(0.4, -0.05)
    assert table.shape == (2, 2)


def test_sweep_records_failures_as_statuses():
    # middle grid point hits the degenerate parameter 0
    grid = GridSpec(-0.3, 0.3, 3, 0.0, 0.0, 1)
    table = sweep_delta(annulus_family(), grid, FAST)
    statuses = [r.status for r in table.rows]
    assert statuses[1] == "invalid-instance"
    assert statuses[0] == "ok" and statuses[2] == "ok"
    bad = table.rows[1]
    assert bad.delta is None and bad.pressure_residual is None
    assert bad.depth is None and bad.delta_error is None

    # a translation has no repelling fixed point to seed from
    shift = FamilySpec(
        generators=(((LambdaPoly([0.0, 1.0]), 1.0), (1.0,)),),
        domain=RectDomain(-1.0, 1.0, -1.0, 1.0),
    )
    table = sweep_delta(shift, GridSpec(0.3, 0.3, 1, 0.0, 0.0, 1), FAST)
    assert table.rows[0].status == "seed-failure"

    # scaling pair keeps pressure above zero for every exponent
    mob = FamilySpec(
        generators=(((0.0, 2.0), (1.0,)), ((0.0, 0.5), (1.0,))),
        domain=RectDomain(-1.0, 1.0, -1.0, 1.0),
    )
    table = sweep_delta(mob, GridSpec(0.0, 0.0, 1, 0.0, 0.0, 1), FAST)
    assert table.rows[0].status == "no-sign-change"

    # critical value landing in a generator's limit set trips the gate
    basil = FamilySpec(
        generators=(((0.0, 0.0, 1.0), (1.0,)), ((-2.0, 0.0, 1.0), (1.0,))),
        domain=RectDomain(-1.0, 1.0, -1.0, 1.0),
    )
    table = sweep_delta(basil, GridSpec(0.0, 0.0, 1, 0.0, 0.0, 1), FAST)
    assert table.rows[0].status == "hyperbolicity-unverified"


# (exit code, sweep status) per error class: the codes are README's exit-code
# table, a status of None means a sweep re-raises the error
ERROR_OUTCOMES = {
    errors.RatsemiError: (1, None),
    errors.NonConvergence: (1, "non-convergence"),
    errors.ConfigError: (2, None),
    errors.NoRepellingSeed: (3, "seed-failure"),
    errors.NoSignChange: (4, "no-sign-change"),
    errors.CriticalPreimage: (5, "critical-preimage"),
    errors.InvalidInstance: (1, "invalid-instance"),
    errors.InsufficientPoints: (1, None),
    errors.HyperbolicityUnverified: (7, "hyperbolicity-unverified"),
}


def test_error_outcome_table_covers_every_error_class():
    classes = {c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.RatsemiError)}
    assert classes == set(ERROR_OUTCOMES)


@pytest.mark.parametrize("cls", list(ERROR_OUTCOMES), ids=lambda c: c.__name__)
def test_error_class_carries_exit_code_and_sweep_status(cls, monkeypatch):
    code, status = ERROR_OUTCOMES[cls]
    assert (cls.exit_code, cls.status) == (code, status)

    def fail(mm, config):
        raise cls("planted")

    # the per-point stage (gate and seed) that every sweep point runs on its own
    monkeypatch.setattr(families, "_prepare", fail)
    grid = GridSpec(0.4, 0.4, 1, 0.0, 0.0, 1)
    if status is None:
        with pytest.raises(cls, match="planted"):
            sweep_delta(annulus_family(), grid, FAST)
    else:
        row = sweep_delta(annulus_family(), grid, FAST).rows[0]
        assert row.status == status and row.delta is None


def test_sweep_deterministic():
    grid = GridSpec(0.3, 0.5, 2, 0.0, 0.0, 1)
    t1 = sweep_delta(annulus_family(), grid, FAST)
    t2 = sweep_delta(annulus_family(), grid, FAST)
    for a, b in zip(t1.rows, t2.rows):
        assert a == b


def test_sweep_similarity_family_matches_moran_closed_form():
    fam = similarity_family(oracles.TRIANGLE_UNIT)
    grid = GridSpec(0.3, 0.42, 4, 0.0, 0.0, 1)
    table = sweep_delta(fam, grid, FAST)
    for row in table.rows:
        assert row.status == "ok"
        want = math.log(3.0) / math.log(1.0 / abs(row.lam))
        assert row.delta == pytest.approx(want, abs=2e-2)


def test_sweep_power_pair_family_runs():
    table = sweep_delta(power_pair_family(), GridSpec(0.4, 0.4, 1, 0.0, 0.0, 1), FAST)
    row = table.rows[0]
    assert row.status == "ok"
    assert math.isfinite(row.delta)


# ---------------------------------------------------------------------------
# lockstep blocks: a sweep must equal its run in blocks of one


def sweep_in_blocks_of_one(monkeypatch, fam, grid, config):
    with monkeypatch.context() as m:
        m.setattr(families, "_BLOCK_NODES", 1)
        return sweep_delta(fam, grid, config)


def blocks_seen(monkeypatch):
    sizes = []
    solve = families._solve_block
    monkeypatch.setattr(families, "_solve_block",
                        lambda mms, seeds, cfg: sizes.append(len(mms)) or solve(mms, seeds, cfg))
    return sizes


@pytest.mark.parametrize("fam, grid, config", [
    # uncapped degree-one similarities: 3^7 nodes a point, one block of nine
    (similarity_family(oracles.TRIANGLE_UNIT), GridSpec(0.3, 0.42, 3, -0.05, 0.05, 3),
     ThermoConfig(depth=7, hyper_depth=3)),
    # z^2, c z^2 capped at 1,000 from level 5 on: the block shares the subsample
    (annulus_family(), GridSpec(0.3, 0.6, 4, 0.0, 0.1, 2),
     ThermoConfig(depth=7, cap=1_000, hyper_depth=4, hyper_cap=2_000)),
    # z^2, c z^3: mixed degree, the cubic solved by Aberth
    (power_pair_family(), GridSpec(0.4, 0.7, 3, -0.1, 0.1, 2),
     ThermoConfig(depth=6, cap=2_000, hyper_depth=4, hyper_cap=2_000)),
], ids=["similarity", "annulus-capped", "power-pair"])
def test_lockstep_sweep_equals_blocks_of_one(fam, grid, config, monkeypatch):
    alone = sweep_in_blocks_of_one(monkeypatch, fam, grid, config)
    sizes = blocks_seen(monkeypatch)
    table = sweep_delta(fam, grid, config)
    assert max(sizes) > 1 and sum(sizes) == len(table.rows)
    assert all(r.status == "ok" for r in table.rows)
    assert table.rows == alone.rows


def test_block_of_six_similarity_points_stays_within_its_memory_budget():
    # the deepest level of a tree keeps no points, which lets _BLOCK_NODES hold six
    # depth-9 similarity points: each costs about 460 KiB of traced peak in a
    # block, and about 800 KiB if that level kept its z
    cfg = parse_file(str(Path(__file__).parent.parent / "demos" / "configs" / "similarity_sweep.json"))
    fam, grid, tcfg = cfg.family_spec(), cfg.grid_spec(), cfg.thermo_config()
    lams = list(grid.points())[-grid.im_n :][:6]  # the last grid row
    mms = [instantiate(fam, lam) for lam in lams]
    seeds = [thermo._prepare(mm, tcfg)[1] for mm in mms]
    assert 6 * 3 ** tcfg.depth <= families._BLOCK_NODES < 7 * 3 ** tcfg.depth
    tracemalloc.start()
    try:
        results = families._solve_block(mms, seeds, tcfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not any(isinstance(r, errors.RatsemiError) for r in results)
    assert peak / len(mms) < 600 * 1024


def test_lockstep_sweep_keeps_each_points_own_status(monkeypatch):
    # 2z and c z from the fixed point 0: P(t) = log(2^-t + |c|^-t) has a root
    # only for |c| > 1; at c = 1 it decays to 0 without crossing, which is no
    # sign change either; c = 0 is degenerate, c > 3 outside the domain
    fam = FamilySpec(generators=(((0.0, 2.0), (1.0,)), ((0.0, LambdaPoly([0.0, 1.0])), (1.0,))),
                     domain=RectDomain(-3.0, 3.0, -1.0, 1.0))
    grid = GridSpec(0.0, 4.0, 9, 0.0, 0.0, 1)
    config = ThermoConfig(depth=6)
    sizes = blocks_seen(monkeypatch)
    table = sweep_delta(fam, grid, config)
    statuses = [r.status for r in table.rows]
    assert statuses == ["invalid-instance", "no-sign-change", "no-sign-change", "ok", "ok",
                        "ok", "ok", "invalid-instance", "invalid-instance"]
    assert sizes == [6]  # the failed instances do not split the block
    assert table.rows == sweep_in_blocks_of_one(monkeypatch, fam, grid, config).rows
    assert table.row_at(3, 0).delta == pytest.approx(oracles.moran_root_bf([0.5, 1 / 1.5]), abs=1e-4)


def test_failed_root_solve_in_a_block_lands_on_its_own_point(monkeypatch):
    # the tree polynomials c z^3 - y of the middle point only miss the closed form;
    # Aberth stops after one step, so they go to np.roots, which returns garbage for them
    grid = GridSpec(0.4, 0.7, 3, 0.0, 0.0, 1)
    bad = complex(grid.re_values[1])
    roots, cubic_roots = np.roots, sphere._cubic_roots_batch

    def roots_failing_on_one_point(p):
        if p[0] == bad and not np.any(p[1:-1]):
            return np.zeros(len(p) - 1, dtype=complex)
        return roots(p)

    def cubic_roots_missing_on_one_point(C):
        out = cubic_roots(C)
        out[np.broadcast_to((C[3] == bad) & ~np.any(C[1:3], axis=0), out.shape[:-1])] = np.nan
        return out

    monkeypatch.setattr(sphere, "_cubic_roots_batch", cubic_roots_missing_on_one_point)
    monkeypatch.setattr(sphere, "_ABERTH_MAX_ITER", 1)
    monkeypatch.setattr(np, "roots", roots_failing_on_one_point)
    # a gate of depth 0 solves no preimages, so the failure can only come from the block's tree
    config = ThermoConfig(depth=5, cap=500, hyper_depth=0)
    sizes = blocks_seen(monkeypatch)
    table = sweep_delta(power_pair_family(), grid, config)
    assert sizes[0] == 3 and sizes[1:] == [1, 1, 1]
    assert [r.status for r in table.rows] == ["ok", "non-convergence", "ok"]
    assert table.rows == sweep_in_blocks_of_one(monkeypatch, power_pair_family(), grid, config).rows


# ---------------------------------------------------------------------------
# diagnostics on synthetic tables


def make_table(re_vals, im_vals, fn, err=1e-4):
    grid = GridSpec(re_vals[0], re_vals[-1], len(re_vals),
                    im_vals[0], im_vals[-1], len(im_vals))
    rows = []
    for re in grid.re_values:
        for im in grid.im_values:
            lam = complex(re, im)
            rows.append(SweepRow(lam, fn(lam), err / 3.0, 8, "ok", err))
    return SweepTable(rows, grid)


def test_submean_constant_table_has_zero_violation():
    table = make_table(np.linspace(0, 1, 5), np.linspace(0, 1, 5), lambda lam: 2.0)
    rep = submean_diagnostic(table, radius=1)
    assert rep.verdict == "pass"
    assert rep.centers_checked == 9
    assert rep.worst_violation == pytest.approx(0.0, abs=1e-12)
    assert rep.worst_reciprocal_violation == pytest.approx(0.0, abs=1e-12)
    assert rep.tol_sub == pytest.approx(3e-4)


def test_submean_flags_injected_fault():
    table = make_table(np.linspace(0, 1, 5), np.linspace(0, 1, 5), lambda lam: 2.0)
    bumped = table.row_at(2, 2)
    bumped.delta += 1.0
    rep = submean_diagnostic(table, radius=1)
    assert rep.verdict == "fail"
    assert any(lam == bumped.lam for lam, _ in rep.flagged)
    assert rep.worst_at == bumped.lam
    assert rep.worst_violation == pytest.approx(1.0, abs=1e-9)


def test_submean_closed_form_similarity_delta():
    # delta = log3/log(1/|c|) is subharmonic on the sampled band and its
    # reciprocal is harmonic; with isotropic spacing the ring mean therefore
    # cancels to fourth order and neither direction shows a violation
    fn = lambda lam: math.log(3.0) / math.log(1.0 / abs(lam))
    table = make_table(np.linspace(0.2, 0.45, 9), np.linspace(-0.125, 0.125, 9),
                       fn, err=5e-4)
    rep = submean_diagnostic(table, radius=1)
    assert rep.verdict == "pass"
    assert rep.centers_checked == 49
    assert rep.worst_violation <= rep.tol_sub
    assert rep.worst_reciprocal_violation <= 1e-3


def test_submean_skips_incomplete_rings_and_radius():
    table = make_table(np.linspace(0, 1, 5), np.linspace(0, 1, 5), lambda lam: 2.0)
    table.row_at(0, 0).status = "seed-failure"
    rep = submean_diagnostic(table, radius=1)
    assert rep.centers_checked == 8
    rep2 = submean_diagnostic(table, radius=2)
    assert rep2.centers_checked == 0
    assert rep2.verdict == "inconclusive"
    with pytest.raises(ValueError):
        submean_diagnostic(table, radius=0)


def _bits(x):
    """x with every float as its IEEE-754 bytes, so equal means bit-identical."""
    if isinstance(x, dict):
        return {k: _bits(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_bits(y) for y in x]
    if isinstance(x, complex):
        return _bits(x.real), _bits(x.imag)
    return struct.pack("<d", x) if isinstance(x, float) else x


def _random_table(rng):
    """A 1x1 to 8x8 table of random deltas and delta errors, about a fifth of its rows not ok."""
    re_n, im_n = (int(n) for n in rng.integers(1, 9, size=2))
    grid = GridSpec(0.1, 0.1 + 0.05 * (re_n - 1), re_n, -0.2, -0.2 + 0.04 * (im_n - 1), im_n)
    rows = []
    for lam in grid.points():
        if rng.random() < 0.2:
            rows.append(SweepRow(lam, None, None, None, "non-convergence", None))
        else:
            rows.append(SweepRow(lam, rng.uniform(0.5, 2.0), 1e-9, 8, "ok", 10 ** rng.uniform(-9, -1)))
    return SweepTable(rows, grid)


def test_diagnostics_match_the_per_cell_reference_bit_for_bit():
    # random values with small errors flag most centres, so every ring mean reaches
    # the report; summing a ring in another order changes some of them in the last bit
    rng = np.random.default_rng(20261019)
    fits = 0
    for _ in range(500):
        table = _random_table(rng)
        for radius in (1, 2, 3):
            got = submean_diagnostic(table, radius)
            assert _bits(vars(got)) == _bits(vars(oracles.submean_ref(table, radius)))
            assert type(got.worst_violation) is float and type(got.worst_reciprocal_violation) is float
        re_n, im_n = table.shape
        for line in [("row", i) for i in range(re_n)] + [("col", j) for j in range(im_n)]:
            degree = int(rng.integers(1, 5))
            try:
                want = oracles.smoothness_ref(table, line, degree)
            except InsufficientPoints as e:
                with pytest.raises(InsufficientPoints, match=str(e)):
                    smoothness_diagnostic(table, line, degree)
                continue
            assert _bits(vars(smoothness_diagnostic(table, line, degree))) == _bits(vars(want))
            fits += 1
    assert fits > 500


def test_smoothness_cubic_table_fits_exactly():
    fn = lambda lam: 1.0 + 0.5 * lam.real - 0.2 * lam.real**3
    table = make_table(np.linspace(0, 1, 12), np.linspace(0, 1, 3), fn, err=1e-6)
    rep = smoothness_diagnostic(table, ("col", 1), fit_degree=4)
    assert rep.points_used == 12
    assert rep.max_residual < 1e-10
    assert rep.residual_ratio < 1.0
    assert rep.error_scale == pytest.approx(1e-6)


def test_smoothness_flags_injected_step():
    def fn(lam):
        return 1.0 if lam.real < 0.5 else 1.05
    table = make_table(np.linspace(0, 1, 12), np.linspace(0, 1, 3), fn, err=1e-6)
    rep = smoothness_diagnostic(table, ("col", 1), fit_degree=4)
    assert rep.residual_ratio > 3.0


def test_smoothness_row_line_and_validation():
    fn = lambda lam: 2.0 + 0.1 * lam.imag**2
    table = make_table(np.linspace(0, 1, 3), np.linspace(0, 1, 12), fn, err=1e-6)
    rep = smoothness_diagnostic(table, ("row", 1), fit_degree=2)
    assert rep.max_residual < 1e-10
    with pytest.raises(ValueError):
        smoothness_diagnostic(table, ("diag", 0))
    # the table is 3 x 12: a row index runs over the real axis, a col index over the imaginary one
    for line in (("row", 3), ("col", 12)):
        with pytest.raises(ValueError, match="lies outside the 3 x 12 grid"):
            smoothness_diagnostic(table, line)
    short = make_table(np.linspace(0, 1, 5), np.linspace(0, 1, 3), fn)
    with pytest.raises(InsufficientPoints):
        smoothness_diagnostic(short, ("col", 1), fit_degree=4)


def test_smoothness_line_index_must_be_an_integer():
    # ("row", 1.5) and ("row", True) passed check_line, then indexing raised IndexError
    fn = lambda lam: 2.0 + 0.1 * lam.imag**2
    table = make_table(np.linspace(0, 1, 3), np.linspace(0, 1, 12), fn, err=1e-6)
    for line in (("row", 1.5), ("row", True), ("col", np.float64(2.0)), ("col", None)):
        with pytest.raises(ValueError, match=f"{line[0]} index must be an integer"):
            table.grid.check_line(line)
        with pytest.raises(ValueError, match=f"{line[0]} index must be an integer"):
            smoothness_diagnostic(table, line, fit_degree=2)
    assert smoothness_diagnostic(table, ("row", np.int64(1)), fit_degree=2) == \
        smoothness_diagnostic(table, ("row", 1), fit_degree=2)


def test_smoothness_psh_indicator_on_closed_form():
    # for delta = log3/log(1/|c|) the reciprocal is harmonic, so the
    # finite-difference indicator phi*lap(phi) - 2|grad(phi)|^2 sits at zero
    # up to discretization error
    fn = lambda lam: math.log(3.0) / math.log(1.0 / abs(lam))
    table = make_table(np.linspace(0.2, 0.45, 41), np.linspace(-0.125, 0.125, 41),
                       fn, err=1e-9)
    rep = smoothness_diagnostic(table, ("row", 20), fit_degree=4)
    assert rep.min_psh_indicator is not None
    assert abs(rep.min_psh_indicator) < 0.05
    assert rep.psh_noise is not None and rep.psh_noise >= 0.0
    assert rep.psh_argmin is not None

    # constant table: indicator exactly zero
    flat = make_table(np.linspace(0, 1, 5), np.linspace(0, 1, 5), lambda lam: 2.0)
    rep_flat = smoothness_diagnostic(flat, ("row", 2), fit_degree=0)
    assert rep_flat.min_psh_indicator == pytest.approx(0.0, abs=1e-12)

    # one-dimensional grid: no indicator
    line = make_table(np.linspace(0.2, 0.45, 12), np.array([0.0]), fn)
    rep_line = smoothness_diagnostic(line, ("col", 0), fit_degree=4)
    assert rep_line.min_psh_indicator is None
