"""Thermo tests: level sums, pressure, Bowen parameter, Lyapunov exponent and entropy."""
import cmath
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ratsemi import thermo
from ratsemi.dynamics import (
    MultiMap,
    check_hyperbolic,
    julia_backward_cloud,
    postcritical_cloud,
    repelling_seed,
)
from ratsemi.errors import (
    CriticalPreimage,
    HyperbolicityUnverified,
    NoSignChange,
)
from ratsemi.families import GridSpec, instantiate, similarity_family, sweep_delta
from ratsemi.sphere import INF_Z, RationalMap, polynomial_map
from ratsemi.thermo import (
    DEFAULT_CAP,
    PreimageTree,
    ThermoConfig,
    bowen_parameter,
    lyapunov_and_entropy,
    pressure,
)

import oracles
from oracles import LOG2, gasket_mm, power_map, power_mm


def similarity_mm(lam=complex(0.3, 0.05)):
    return instantiate(similarity_family(oracles.TRIANGLE_UNIT), lam)


def level_sum(mm, t, z, n, cap=DEFAULT_CAP, rng_seed=0):
    """S_n(t, z) from a fresh one-point tree."""
    return math.exp(PreimageTree(mm, z, depth=n, cap=cap, rng_seed=rng_seed).log_level_sum(t, n))


# ---------------------------------------------------------------------------
# level sums


def test_level_sum_of_square_at_t_one_is_one():
    mm = power_mm((2, 1.0))
    assert level_sum(mm, 1.0, 1.0, 3) == pytest.approx(1.0, rel=1e-12)


def test_level_sum_at_t_zero_counts_the_tree():
    mm = power_mm((2, 1.0), (3, 1.0))
    assert level_sum(mm, 0.0, 1.0, 2) == pytest.approx(25.0, rel=1e-12)


_LEVEL_SUM_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
import numpy as np
from ratsemi.dynamics import MultiMap
from ratsemi.sphere import polynomial_map
from ratsemi.thermo import PreimageTree

mm = MultiMap([polynomial_map([0.0, 0.0, 1.0]), polynomial_map([0.0, 0.0, 0.0, 0.5 + 0.25j])])
tree = PreimageTree(mm, 1.3 + 0.2j, depth=7)
print(tree.levels[0].size, *(float(v[0]).hex() for v in tree._log_level_sums(np.array([1.7]), 7, np.arange(1))))
print(tree.levels[7].size)
"""


def test_level_sum_bits_do_not_depend_on_the_blas_thread_count(tmp_path):
    # 5^7 = 78,125 nodes: a BLAS dot product of that length is threaded
    script = _LEVEL_SUM_SCRIPT.format(src=str(Path(__file__).resolve().parent.parent / "src"))
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0].split()[-1] == "78125"
    assert outs[0] == outs[1]


def test_level_sum_matches_bruteforce_enumeration():
    cases = [
        ([( (0.0, 0.0, 1.0), (1.0,) ), ((0.0, 0.0, 0.0, 1.0), (1.0,))], 1.3, 2.0, 2),
        ([( (0.0, 0.0, 1.0), (1.0,) ), ((0.0, 0.0, 0.5), (1.0,))], 0.7, 1.0, 3),
    ]
    for gens, t, z, n in cases:
        mm = MultiMap([polynomial_map(num) for num, _den in gens])
        lib = level_sum(mm, t, z, n)
        ref = oracles.transfer_sum_bf(gens, t, z, n)
        assert lib == pytest.approx(ref, rel=1e-8)


def test_level_sum_of_similarity_triple_matches_bruteforce():
    verts = oracles.TRIANGLE_RAW
    gens = [((-p, 2.0), (1.0,)) for p in verts]
    mm = gasket_mm(verts)
    seed = repelling_seed(mm)[0]
    for t, n in ((0.8, 1), (1.6, 2)):
        lib = level_sum(mm, t, seed, n)
        ref = oracles.transfer_sum_bf(gens, t, seed, n)
        assert lib == pytest.approx(ref, rel=1e-8)


def test_level_sum_multiplicativity_for_power_maps():
    mm = power_mm((3, 1.0))
    s1 = level_sum(mm, 1.7, 1.0, 1)
    for n in (2, 3, 4, 5):
        sn = level_sum(mm, 1.7, 1.0, n)
        assert sn == pytest.approx(s1**n, rel=1e-9)


def test_critical_basepoint_raises_only_for_positive_t():
    mm = power_mm((2, 1.0))
    with pytest.raises(CriticalPreimage):
        level_sum(mm, 1.0, 0.0, 2)
    assert level_sum(mm, 0.0, 0.0, 2) == pytest.approx(4.0)


# z^2 - 2 from 2: level 1 is {2, -2}, and level 2 holds 0, the critical point, twice over -2
CHEBYSHEV = MultiMap([polynomial_map([-2.0, 0.0, 1.0])])


def _critical_text(n):
    return (f"preimage tree of (2+0j) hits derivative norm 0.000e+00 within depth {n}; "
            "pick another basepoint")


def test_critical_check_first_raises_at_the_level_holding_the_critical_point():
    tree = PreimageTree(CHEBYSHEV, 2.0, depth=4)
    assert tree.log_level_sum(1.0, 1) == pytest.approx(-LOG2, rel=1e-12)  # no raise at n = 1
    for n in (2, 3, 4):
        with pytest.raises(CriticalPreimage) as err:
            tree.log_level_sum(1.0, n)
        assert str(err.value) == _critical_text(n)
    for n in range(5):  # a sum at t = 0 never raises
        assert tree.log_level_sum(0.0, n) == pytest.approx(n * LOG2, rel=1e-12, abs=0.0)


def test_critical_check_of_a_block_names_the_critical_basepoint():
    # system 0 (z^2 from 1) never meets its critical point; system 1 is CHEBYSHEV from 2
    tree = PreimageTree([power_mm((2, 1.0)), CHEBYSHEV], [1.0, 2.0], depth=4)
    rows = np.arange(2)
    for t in ([1.0, 1.0], [0.0, 1.0], [1.0, 0.0]):
        assert np.isfinite(tree._log_level_sums(np.array(t), 1, rows)[0]).all()
        for n in (2, 4):
            # the tree is shared: a t > 0 at either point checks every basepoint
            with pytest.raises(CriticalPreimage) as err:
                tree._log_level_sums(np.array(t), n, rows)
            assert str(err.value) == _critical_text(n)
    for n in range(5):
        log_sum, _ = tree._log_level_sums(np.zeros(2), n, rows)
        assert log_sum == pytest.approx([n * LOG2] * 2, rel=1e-12, abs=0.0)


def test_preimage_tree_rejects_a_cap_below_one_as_the_clouds_do():
    mm = power_mm((2, 1.0), (2, 0.5))
    for cap in (0, -5):
        with pytest.raises(ValueError, match="cap must be positive"):
            PreimageTree(mm, depth=12, cap=cap)
        with pytest.raises(ValueError, match="cap must be positive"):
            pressure(mm, 1.0, cap=cap)
    with pytest.raises(ValueError, match="depth must be nonnegative"):
        PreimageTree(mm, depth=-1)
    with pytest.raises(ValueError, match="cap must be positive"):
        bowen_parameter(mm, cap=0)  # before the gate, which has its own cap, runs


@pytest.mark.parametrize("call, match", [
    # a float cap built a cap-1000 tree
    (lambda mm: pressure(mm, 1.0, ThermoConfig(cap=1000.5)), "cap must be an integer, got 1000.5"),
    # a float depth raised TypeError from range
    (lambda mm: ThermoConfig(depth=6.5), "depth must be an integer, got 6.5"),
    (lambda mm: PreimageTree(mm, depth=4, cap=True), "cap must be an integer, got True"),
    # the gate's budget: a float hyper_cap raised UFuncTypeError in _jittered, a float
    # hyper_depth TypeError from range
    (lambda mm: bowen_parameter(mm, ThermoConfig(hyper_cap=1000.5)),
     "cap must be an integer, got 1000.5"),
    (lambda mm: bowen_parameter(mm, ThermoConfig(hyper_depth=6.5)),
     "depth must be an integer, got 6.5"),
], ids=["pressure-cap", "config-depth", "tree-bool-cap", "bowen-hyper-cap", "bowen-hyper-depth"])
def test_a_tree_budget_that_is_not_an_integer_raises_value_error(call, match):
    with pytest.raises(ValueError, match=match):
        call(power_mm((2, 1.0), (2, 0.5)))


def test_a_tree_budget_of_numpy_integers_is_that_of_python_integers():
    # kept as numpy scalars, a uint16 cap overflowed in _jittered (cap times the level size)
    mm = power_mm((2, 1.0), (2, 0.5))
    config = ThermoConfig(depth=np.int64(6), cap=np.uint16(500))
    assert (type(config.depth), type(config.cap)) == (int, int)
    assert pressure(mm, 1.0, config) == pressure(mm, 1.0, ThermoConfig(depth=6, cap=500))
    tree = PreimageTree(mm, depth=np.uint8(6), cap=np.uint16(500))
    assert (type(tree.depth), type(tree.cap)) == (int, int)
    for build in (julia_backward_cloud, postcritical_cloud):
        got = build(mm, depth=np.uint8(7), cap=np.uint16(500))
        want = build(mm, depth=7, cap=500)
        assert [lev.z.tobytes() for lev in got.levels] == [lev.z.tobytes() for lev in want.levels]


def _count_gates(monkeypatch):
    """The list that every later hyperbolicity gate of thermo (bowen_parameter's and
    sweep_delta's) appends one entry to."""
    calls = []
    gate = thermo.check_hyperbolic
    monkeypatch.setattr(thermo, "check_hyperbolic",
                        lambda *a, **k: calls.append(1) or gate(*a, **k))
    return calls


def test_a_bad_tree_budget_fails_before_any_gate(monkeypatch):
    mm, calls = power_mm((2, 1.0), (2, 0.5)), _count_gates(monkeypatch)
    fam, grid = similarity_family(oracles.TRIANGLE_UNIT), GridSpec(0.5, 0.5, 1, 0.0, 0.0, 1)
    for field, value, match in (("cap", 0, "cap must be positive"),
                                ("depth", 1, "pressure estimation needs depth >= 2")):
        with pytest.raises(ValueError, match=match):
            bowen_parameter(mm, **{field: value})
        with pytest.raises(ValueError, match=match):
            sweep_delta(fam, grid, **{field: value})
    assert calls == []


@pytest.mark.parametrize("field", ["tol_t", "tol_p", "t_max"])
def test_a_root_search_tolerance_that_is_not_positive_fails_before_any_gate(field, monkeypatch):
    # a negative tol_t or tol_p used to run 200 evaluations into NonConvergence, and a
    # negative t_max ended in a NoSignChange that named it
    mm, calls = power_mm((2, 1.0), (2, 0.5)), _count_gates(monkeypatch)
    for value in (-5.0, 0.0, math.nan):
        with pytest.raises(ValueError, match=f"{field} must be positive, got {value}"):
            bowen_parameter(mm, **{field: value})
    assert calls == []


def test_thermo_entry_points_reject_a_t_that_is_not_finite():
    mm = power_mm((2, 1.0), (2, 0.5))
    tree = PreimageTree(mm, 1.0, depth=4)
    for t in (math.nan, math.inf, -math.inf):
        for call in (lambda: pressure(mm, t), lambda: lyapunov_and_entropy(mm, [1.0, t]),
                     lambda: tree.poincare(t, 4), lambda: tree.log_level_sum(t, 4)):
            with pytest.raises(ValueError, match=f"t must be finite, got {t}"):
                call()


def test_level_sum_subsampling_is_unbiased():
    mm = power_mm((2, 1.0), (2, 0.5))
    exact = level_sum(mm, 1.5, 1.0, 6, cap=10**9)
    vals = np.array(
        [level_sum(mm, 1.5, 1.0, 6, cap=500, rng_seed=s) for s in range(50)]
    )
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - exact) <= 2.0 * se


def test_bowen_error_bar_covers_the_closed_form_on_capped_trees():
    # calibration: every level from 5 on (6^5 = 7,776 children) is subsampled to 5,000,
    # and the printed delta_error must cover 1 + log 3 / log 2 on at least 90 % of 30 seeds
    mm = power_mm((2, 1.0), (2, 0.25), (2, 1.0 / 3.0))
    covered = 0
    for seed in range(30):
        res = bowen_parameter(mm, ThermoConfig(depth=10, cap=5000, rng_seed=seed))
        covered += abs(res.delta - oracles.DELTA_Z2_Z2_Z2) <= res.delta_error
    assert covered >= 27


# ---------------------------------------------------------------------------
# pressure


def test_pressure_of_power_map_is_closed_form():
    for d in (2, 3):
        mm = power_mm((d, 1.0))
        for t in (0.0, 1.0, 2.0):
            est = pressure(mm, t)
            assert est.value == pytest.approx((1.0 - t) * math.log(d), abs=1e-8)
            assert est.depth <= 5  # constant ratios stop the estimator early


def test_pressure_zero_of_square_pair_at_two():
    est = pressure(power_mm((2, 1.0), (2, 1.0)), 2.0)
    assert abs(est.value) <= 1e-6


def test_pressure_at_zero_is_log_total_degree():
    for mm in (power_mm((2, 1.0), (3, 1.0)), gasket_mm()):
        est = pressure(mm, 0.0, depth=6)
        assert est.value == pytest.approx(math.log(mm.total_degree), abs=1e-9)


def test_power_oracle_reference_values():
    assert math.log(oracles.power_beta((2, 2), 2.0)) == pytest.approx(0.0, abs=1e-15)
    assert math.log(oracles.power_beta((2,), 0.0)) == pytest.approx(math.log(2.0))
    assert math.log(
        oracles.power_beta((2, 2, 2), 1.0 + oracles.LOG3 / oracles.LOG2)
    ) == pytest.approx(0.0, abs=1e-12)
    assert oracles.power_beta((2, 3), 2.0) == pytest.approx(0.5 + 1.0 / 3.0)


def test_pressure_matches_power_oracle_on_degree_pairs():
    for d1, d2 in ((2, 3), (4, 4)):
        mm = power_mm((d1, 1.0), (d2, 1.0))
        for t in (0.0, 0.5, 1.0, 2.0, 3.0):
            est = pressure(mm, t)
            ref = math.log(oracles.power_beta((d1, d2), t))
            assert abs(est.value - ref) <= 1e-6


def test_pressure_estimate_fields_are_consistent():
    est = pressure(gasket_mm(), 1.2, depth=7)
    assert len(est.ratio_history) == est.depth - 1
    assert est.value == est.ratio_history[-1]
    assert est.residual == pytest.approx(
        max(est.ratio_history[-3:]) - min(est.ratio_history[-3:])
    )
    seed = repelling_seed(gasket_mm())[0]
    assert est.basepoint == seed


def test_pressure_is_strictly_decreasing_in_t():
    for mm in (power_mm((2, 1.0), (3, 1.0)), gasket_mm()):
        vals = [pressure(mm, t, depth=6).value for t in np.arange(0.0, 4.5, 0.5)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_pressure_determinism():
    mm = power_mm((2, 1.0), (2, 0.5))
    a = pressure(mm, 1.3, depth=8, cap=300, rng_seed=11)
    b = pressure(mm, 1.3, depth=8, cap=300, rng_seed=11)
    assert a.value == b.value and a.ratio_history == b.ratio_history


# ---------------------------------------------------------------------------
# Bowen parameter


def test_bowen_of_two_squares_is_two():
    res = bowen_parameter(power_mm((2, 1.0), (2, 1.0)))
    assert abs(res.delta - 2.0) <= 2e-3
    assert res.bracket[0] <= res.delta <= res.bracket[1]
    assert res.bracket[1] - res.bracket[0] <= 1e-4
    assert abs(res.pressure_at_delta) <= 1e-3
    assert res.delta_error > 0.0


def test_bowen_of_two_cubes():
    res = bowen_parameter(power_mm((3, 1.0), (3, 1.0)))
    assert abs(res.delta - oracles.DELTA_Z3_Z3) <= 2e-3


def test_bowen_of_single_mobius_is_zero():
    res = bowen_parameter(MultiMap([polynomial_map([0.0, 2.0])]))
    assert 0.0 <= res.delta <= 1e-3


def test_bowen_no_sign_change_on_nonexpanding_pair():
    mm = MultiMap([polynomial_map([0.0, 2.0]), polynomial_map([0.0, 0.5])])
    with pytest.raises(NoSignChange):
        bowen_parameter(mm)


def test_bowen_no_sign_change_when_the_pressure_decays_to_zero(monkeypatch):
    # 2z with the identity: P(t) = log(1 + 2^-t) > 0 rounds to 0.0 near t = 54,
    # where Newton stalls; past one probe there t doubles, clipped at t_max
    estimate, calls = thermo._estimate_on_tree, []
    monkeypatch.setattr(thermo, "_estimate_on_tree",
                        lambda *args: calls.append(args[1]) or estimate(*args))
    mm = MultiMap([polynomial_map([0.0, 2.0]), polynomial_map([0.0, 1.0])])
    with pytest.raises(NoSignChange):
        bowen_parameter(mm)
    assert len(calls) <= 45


def test_bowen_gate_rejects_postcritical_contact():
    # the second map's critical value -2 lies in its own Julia set
    mm = MultiMap([power_map(2), polynomial_map([-2.0, 0.0, 1.0])])
    with pytest.raises(HyperbolicityUnverified) as info:
        bowen_parameter(mm)
    cfg = ThermoConfig()
    want = check_hyperbolic(mm, depth=cfg.hyper_depth, margin=cfg.hyper_margin,
                            cap=cfg.hyper_cap, rng_seed=cfg.rng_seed)
    assert want.verdict == "fail"
    assert info.value.report == want
    # force runs the same gate and reports it instead of raising
    assert bowen_parameter(mm, force=True).gate == want


def test_bowen_returns_the_passing_gate_report():
    mm = power_mm((2, 1.0), (2, 1.0))
    cfg = ThermoConfig(hyper_depth=5, hyper_margin=0.1, rng_seed=3)
    res = bowen_parameter(mm, cfg)
    want = check_hyperbolic(mm, depth=5, margin=0.1, cap=cfg.hyper_cap, rng_seed=3)
    assert want.verdict == "pass"
    assert res.gate == want


def test_bowen_force_flag_matches_gated_run():
    mm = power_mm((2, 1.0), (2, 1.0))
    gated = bowen_parameter(mm)
    forced = bowen_parameter(mm, force=True)
    assert forced.delta == gated.delta
    assert forced.gate == gated.gate


def assert_bowen_contract(res, config=ThermoConfig()):
    """delta is an evaluated point with |P| <= tol_p inside a closed sign-change bracket."""
    values = dict(res.history)
    lo, hi = res.bracket
    assert values[res.delta] == res.pressure_at_delta
    assert abs(res.pressure_at_delta) <= config.tol_p
    assert values[lo] >= 0.0 > values[hi]
    assert lo <= res.delta <= hi
    assert hi - lo <= config.tol_t
    assert res.evaluations == len(res.history)


def test_pressure_slope_matches_central_difference():
    h = 1e-4
    cases = [
        (power_mm((2, 1.0), (3, 1.0)), 1.0, 300, 6),  # 5^n nodes: capped from level 4 on
        (similarity_mm(), 0.9, DEFAULT_CAP, 8),        # 3^8 nodes: uncapped
    ]
    for mm, t, cap, depth in cases:
        tree = PreimageTree(mm, repelling_seed(mm)[0], depth=depth, cap=cap, rng_seed=3)
        (est,) = thermo._estimate_on_tree(tree, [t], depth, -1.0)
        (up,) = thermo._estimate_on_tree(tree, [t + h], depth, -1.0)
        (down,) = thermo._estimate_on_tree(tree, [t - h], depth, -1.0)
        assert tree.levels[depth].size == min(cap, mm.total_degree ** depth)
        assert est.depth == depth and est.slope < 0.0
        assert abs(est.slope - (up.value - down.value) / (2.0 * h)) <= 1e-6


def test_bowen_newton_search_is_short_and_keeps_the_contract():
    moran = math.log(3.0) / -math.log(abs(complex(0.3, 0.05)))
    for mm, want in ((power_mm((2, 1.0), (2, 1.0)), 2.0), (similarity_mm(), moran)):
        res = bowen_parameter(mm)
        assert res.evaluations <= 6, res.history
        assert_bowen_contract(res)
        assert abs(res.delta - want) <= 1e-5
        assert res.bracket[1] - res.bracket[0] <= res.delta_error < math.inf


def test_bowen_probes_across_a_converged_newton_point_without_stepping_to_it():
    # a Newton step below tol_t/4 is never evaluated: the probe replaces it
    for mm in (power_mm((2, 1.0), (2, 1.0)), similarity_mm(), power_mm((2, 1.0), (3, 1.0))):
        res = bowen_parameter(mm, depth=10)
        assert_bowen_contract(res)
        ts = [t for t, _ in res.history]
        assert min(abs(b - a) for a, b in zip(ts, ts[1:])) >= ThermoConfig().tol_t / 4, ts
    # the demo power pair z^2, z^3 spends a sixth evaluation on the tiny step
    assert res.evaluations <= 5, res.history
    assert abs(res.delta - oracles.DELTA_Z2_Z3) <= 1e-6


def test_bowen_bisects_when_the_slope_is_unusable(monkeypatch):
    estimate = thermo._estimate_on_tree
    # nan and a positive slope are refused; a tiny one sends Newton out of the bracket
    for bad in (math.nan, 1.0, -1e-9):
        monkeypatch.setattr(
            thermo, "_estimate_on_tree",
            lambda *args: [replace(e, slope=bad) for e in estimate(*args)],
        )
        for mm in (power_mm((2, 1.0), (2, 1.0)), similarity_mm()):
            res = bowen_parameter(mm)
            assert_bowen_contract(res)
            assert res.evaluations > 3  # doubling and bisection, no Newton step lands


def test_lyapunov_rejects_critical_preimages_at_every_t():
    mm = power_mm((2, 1.0))
    for t in (0.0, 1.0):
        with pytest.raises(CriticalPreimage):
            lyapunov_and_entropy(mm, [t], depth=3, basepoint=0.0)


def test_lyapunov_rejects_a_depth_below_two_as_pressure_does():
    mm = power_mm((2, 1.0))
    for n in (-1, 0, 1):
        for estimate, t in ((lyapunov_and_entropy, [1.0]), (pressure, 1.0)):
            with pytest.raises(ValueError, match=r"pressure estimation needs depth >= 2"):
                estimate(mm, t, depth=n)


def test_bowen_accepts_config_and_overrides():
    cfg = ThermoConfig(depth=8, tol_t=1e-3)
    res = bowen_parameter(power_mm((2, 1.0), (2, 1.0)), cfg, tol_t=1e-4)
    assert res.bracket[1] - res.bracket[0] <= 1e-4


# ---------------------------------------------------------------------------
# Poincare series


def test_poincare_partial_of_square_decays():
    val = PreimageTree(power_mm((2, 1.0)), 1.0, depth=4).poincare(2.0, 4)[0]
    assert val == pytest.approx(sum(2.0**-n for n in range(1, 5)), rel=1e-10)


def test_poincare_partial_across_the_critical_exponent():
    mm = power_mm((2, 1.0), (2, 1.0))
    tree = PreimageTree(mm, 1.0, depth=6)
    decaying = tree.poincare(3.0, 6)[0]
    assert decaying == pytest.approx(sum(2.0**-n for n in range(1, 7)), rel=1e-9)
    growing = tree.poincare(1.0, 6)[0]
    assert growing == pytest.approx(sum(2.0**n for n in range(1, 7)), rel=1e-9)


# ---------------------------------------------------------------------------
# Lyapunov / entropy


def test_lyapunov_of_square_is_log_two():
    (diag,) = lyapunov_and_entropy(power_mm((2, 1.0)), [1.0])
    assert diag.lyapunov == pytest.approx(math.log(2.0), abs=1e-6)
    assert diag.entropy == pytest.approx(math.log(2.0), abs=1e-6)


def test_entropy_identity_for_square_pair_at_delta():
    (diag,) = lyapunov_and_entropy(power_mm((2, 1.0), (2, 1.0)), [2.0])
    assert diag.lyapunov == pytest.approx(math.log(2.0), abs=1e-4)
    assert diag.entropy == pytest.approx(math.log(4.0), abs=1e-3)
    assert diag.value == pytest.approx(0.0, abs=1e-9)


def test_gasket_spectrum_near_similarity_values():
    (diag,) = lyapunov_and_entropy(gasket_mm(), [oracles.DELTA_GASKET], depth=9)
    assert diag.lyapunov == pytest.approx(math.log(2.0), abs=1e-2)
    assert diag.entropy == pytest.approx(math.log(3.0), abs=1e-2)


# ---------------------------------------------------------------------------
# exact invariances, on uncapped trees of random hyperbolic pairs


def _reals(lo, hi):
    # rounded to 6 decimals, so every part is 0 or at least 1e-6.  Tiny nonzero parts leave
    # subnormal roundoff in a conjugate's coefficient that should vanish, and RationalMap's
    # reduced-fraction check overflows on coefficient ratios past float range
    return st.floats(lo, hi).map(lambda x: round(x, 6))


def _polar(r_min, r_max):
    return st.builds(cmath.rect, _reals(r_min, r_max), _reals(0.0, 2.0 * math.pi))


# a z^d: 0 and inf are superattracting for every generator.  a z^2 + b z + c with
# |a| >= 0.7 and |b|, |c| <= 0.05: every generator maps |z| < 0.2 into |z| < 0.1, and so
# does a z^d with |a| <= 2, so a mixed system of both kinds is hyperbolic too
_POWER = st.builds(power_map, st.sampled_from((2, 3)), _polar(0.5, 2.0))
_QUADRATIC = st.builds(lambda a, b, c: polynomial_map([c, b, a]),
                       _polar(0.7, 1.0), _polar(0.0, 0.05), _polar(0.0, 0.05))
_HYPERBOLIC_SYSTEMS = st.one_of(
    st.lists(_POWER, min_size=2, max_size=3),
    st.lists(_QUADRATIC, min_size=2, max_size=3),
    st.tuples(_POWER, _QUADRATIC),
    # no mixed quadruples: their uncapped depth-5 trees grow too large
    st.lists(st.one_of(_POWER, _QUADRATIC), min_size=3, max_size=3),
).map(MultiMap)
_UNCAPPED = 10**6  # above every level of these trees: 9^5 = 59,049 nodes at most


@settings(max_examples=20, deadline=None)
@given(_HYPERBOLIC_SYSTEMS, st.floats(-1.0, 4.0))
def test_two_letter_refinement_gives_the_even_level_sums(mm, t):
    # a length-n word over the s^2 compositions f_i o f_j is a length-2n word over mm, and
    # derivative norms multiply along it: S2_n = S_2n, so the refined pressure is 2P.  Only
    # level sums are compared: the refined estimate log S2_n - log S2_n-1 pairs two levels
    # of mm's tree, so at a finite depth its delta differs from mm's by the truncation error
    refined = MultiMap([RationalMap(*oracles.rational_compose((f.num, f.den), (g.num, g.den)))
                        for f in mm.generators for g in mm.generators])
    levels = 3 if mm.num_generators == 2 else 2  # a refined triple of cubics has 81^2 nodes at level 2
    b = repelling_seed(mm)[0]
    tree = PreimageTree(mm, b, depth=2 * levels, cap=_UNCAPPED)
    tree2 = PreimageTree(refined, b, depth=levels, cap=_UNCAPPED)
    t, one = np.array([t]), np.arange(1)
    for n in range(1, levels + 1):
        (log_s2,), (slope2,) = tree2._log_level_sums(t, n, one)
        (log_s,), (slope,) = tree._log_level_sums(t, 2 * n, one)
        assert abs(log_s2 - log_s) <= 1e-9
        assert slope2 == pytest.approx(slope, rel=1e-9)


@settings(max_examples=20, deadline=None)
@given(_HYPERBOLIC_SYSTEMS, st.booleans(), _reals(0.0, 0.5 * math.pi), _reals(0.0, 2.0 * math.pi),
       _reals(0.0, 2.0 * math.pi), st.floats(-1.0, 4.0))
def test_sphere_rotation_conjugacy_keeps_the_estimates(mm, through_inf, theta, phi, psi, t):
    # M(z) = (a z - conj c) / (c z + conj a) with |a|^2 + |c|^2 = 1 is a chordal isometry,
    # so M o f o M^-1 from M(b) has the tree of f from b, moved by M, with the same norms
    b = repelling_seed(mm)[0]
    a, c = cmath.rect(math.cos(theta), phi), cmath.rect(math.sin(theta), psi)
    if through_inf:  # put M's pole -conj(a) / c at b: the conjugate's J passes through inf
        c = cmath.rect(1.0 / math.hypot(1.0, abs(b)), psi)
        a = (-c * b).conjugate()
    m = ([-c.conjugate(), a], [a.conjugate(), c])
    m_inv = ([c.conjugate(), a.conjugate()], [a, -c])
    conj = MultiMap([
        RationalMap(*oracles.rational_compose(m, oracles.rational_compose((f.num, f.den), m_inv)))
        for f in mm.generators
    ])
    mb = INF_Z if through_inf else RationalMap(*m)(b)
    (want,) = lyapunov_and_entropy(mm, [t], depth=5, basepoint=b, cap=_UNCAPPED)
    (got,) = lyapunov_and_entropy(conj, [t], depth=5, basepoint=mb, cap=_UNCAPPED)
    for x, y in ((got.value, want.value), (got.lyapunov, want.lyapunov),
                 (got.entropy, want.entropy)):
        assert math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-12)
    # the Bowen search on the two trees, not bowen_parameter: its repelling seed breaks ties
    # between fixed points of equal multiplier norm by coordinates, which M moves
    cfg = ThermoConfig(depth=5, cap=_UNCAPPED)
    (want,), (got,) = (thermo._bowen_search(PreimageTree(f, p, depth=5, cap=_UNCAPPED), cfg)
                       for f, p in ((mm, b), (conj, mb)))
    assert type(got) is type(want)
    if isinstance(want, thermo.BowenResult):
        assert math.isclose(got.delta, want.delta, rel_tol=1e-9)


# ---------------------------------------------------------------------------
# preimage tree


def test_preimage_tree_is_shared_and_lazy():
    mm = power_mm((2, 1.0), (2, 0.5))
    tree = PreimageTree(mm, 1.0, depth=5, cap=1000, rng_seed=4)
    tree.extend(3)
    assert len(tree.levels) == 4
    s3 = tree.log_level_sum(0.0, 3)
    tree.extend(5)
    assert len(tree.levels) == 6
    assert tree.log_level_sum(0.0, 3) == s3


def test_deepest_level_keeps_no_points_and_sums_as_a_deeper_tree():
    # the power pair is capped from level 4 on (4^4 = 256 > 200), the similarity tree never
    for mm, d in ((power_mm((2, 1.0), (2, 0.5)), 6), (similarity_mm(), 4)):
        tree = PreimageTree(mm, depth=d, cap=200, rng_seed=4)
        deeper = PreimageTree(mm, depth=d + 1, cap=200, rng_seed=4)
        for n in range(d + 1):
            for t in (0.0, 0.7, 1.9):
                assert tree.log_level_sum(t, n) == deeper.log_level_sum(t, n)
        last = tree.levels[d]
        assert last.z is None and last.size == deeper.levels[d].size
        assert deeper.levels[d].z is not None  # the frontier of the deeper tree
        assert np.array_equal(last.logd, deeper.levels[d].logd)
        with pytest.raises(ValueError, match=f"depth {d}"):
            tree.extend(d + 1)
        with pytest.raises(ValueError, match=f"depth {d}"):
            tree.log_level_sum(1.0, d + 1)


def test_level_zero_sum_is_one_and_negative_levels_raise():
    mm = power_mm((2, 1.0), (2, 0.5))
    tree = PreimageTree(mm, 1.0, depth=5, cap=1000, rng_seed=4)
    for t in (0.0, 1.0, 2.5):
        assert tree.log_level_sum(t, 0) == 0.0
    # level 0 takes no step, so a critical basepoint does not count against it
    assert PreimageTree(mm, 0.0, depth=0).log_level_sum(1.0, 0) == 0.0
    tree.extend(5)
    assert tree.log_level_sum(1.0, 0) == 0.0
    for n in (-1, -6):
        with pytest.raises(ValueError, match="nonnegative"):
            tree.log_level_sum(0.0, n)


def test_preimage_tree_defaults_to_the_repelling_seed():
    mm = power_mm((2, 1.0), (2, 0.5))
    default = PreimageTree(mm, depth=4, cap=1000, rng_seed=4)
    seeded = PreimageTree(mm, repelling_seed(mm)[0], depth=4, cap=1000, rng_seed=4)
    assert default.basepoints == seeded.basepoints
    assert default.log_level_sum(1.0, 4) == seeded.log_level_sum(1.0, 4)
