"""Acceptance suite: one test per release criterion, stated tolerances only.

Each test prints a single `criterion N: pass` line once its assertions hold,
so a verbose pytest run doubles as the acceptance report.
"""
import json
import math
import time

import numpy as np
import pytest

from ratsemi.cli import main
from ratsemi.dynamics import MultiMap, julia_backward_cloud
from ratsemi.families import (
    GridSpec,
    similarity_family,
    smoothness_diagnostic,
    submean_diagnostic,
    sweep_delta,
)
from ratsemi.geometry import Annulus, Triangle, box_dimension, osc_check
from ratsemi.thermo import (
    ThermoConfig,
    bowen_parameter,
    lyapunov_and_entropy,
    pressure_curve,
)

import oracles
from oracles import gasket_mm, power_map, power_mm


SUPERCRITICAL = ((2, 1.0), (2, 0.25), (2, 1.0 / 3.0))


def report(n, detail):
    print(f"criterion {n}: pass ({detail})")


def test_criterion_01_power_map_bowen_parameters():
    t0 = time.perf_counter()
    cfg = ThermoConfig(depth=10)
    cases = [
        (power_mm((2, 1.0), (2, 1.0)), oracles.DELTA_Z2_Z2),
        (power_mm((2, 1.0), (2, 1.0), (2, 1.0)), oracles.DELTA_Z2_Z2_Z2),
        (power_mm((3, 1.0), (3, 1.0)), oracles.DELTA_Z3_Z3),
    ]
    errs = []
    for mm, want in cases:
        res = bowen_parameter(mm, cfg)
        errs.append(abs(res.delta - want))
        assert errs[-1] <= 2e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(1, f"max error {max(errs):.2e}, {elapsed:.1f}s")


def test_criterion_02_pressure_matches_closed_form():
    t0 = time.perf_counter()
    ts = [0.0, 0.5, 1.0, 2.0, 3.0]
    worst = 0.0
    for d1 in (2, 3, 4):
        for d2 in (2, 3, 4):
            mm = power_mm((d1, 1.0), (d2, 1.0))
            for t, est in zip(ts, pressure_curve(mm, ts)):
                want = math.log(oracles.power_beta((d1, d2), t))
                worst = max(worst, abs(est.value - want))
                assert abs(est.value - want) <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(2, f"9 degree pairs x 5 t-values, worst gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_mixed_degree_moran_root():
    root = oracles.moran_root_bf((0.5, 1.0 / 3.0)) + 1.0
    assert root == pytest.approx(oracles.DELTA_Z2_Z3, abs=1e-9)
    res = bowen_parameter(power_mm((2, 1.0), (3, 1.0)), ThermoConfig(depth=10))
    assert abs(res.delta - root) <= 2e-3
    report(3, f"delta {res.delta:.6f} vs Moran root {root:.6f}")


def test_criterion_04_sierpinski_dimension():
    t0 = time.perf_counter()
    mm = gasket_mm(oracles.TRIANGLE_UNIT)
    res = bowen_parameter(mm, ThermoConfig(depth=10))
    assert abs(res.delta - oracles.DELTA_GASKET) <= 5e-3
    cloud = julia_backward_cloud(mm, depth=10)
    box = box_dimension(cloud)
    assert 1.48 <= box.slope <= 1.68
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(4, f"delta {res.delta:.6f}, box slope {box.slope:.4f}, {elapsed:.1f}s")


def test_criterion_05_annulus_family():
    for lam in (0.3, 0.5, 0.7):
        mm = power_mm((2, 1.0), (2, lam))
        cloud = julia_backward_cloud(mm, depth=12)
        radii = np.abs(cloud.finite_points()[0])
        assert radii.min() >= 1.0 - 1e-3
        assert radii.max() <= 1.0 / lam + 1e-3
        res = bowen_parameter(mm, ThermoConfig(depth=10))
        assert res.delta == pytest.approx(2.0, abs=1e-2)
        box = box_dimension(cloud)
        assert box.slope >= 1.8
    report(5, "cloud bounds, delta = 2, box slope >= 1.8 for lambda in {.3,.5,.7}")


def test_criterion_06_supercritical_exceeds_two(tmp_path, capsys):
    res = bowen_parameter(power_mm(*SUPERCRITICAL), ThermoConfig(depth=12))
    assert res.delta > 2.0
    assert res.delta - res.delta_error > 2.0
    assert res.delta < 3.0

    cfg = {
        "multimap": {"generators": [
            {"num": [[0.0, 0.0], [0.0, 0.0], [a, 0.0]]} for _d, a in SUPERCRITICAL
        ]},
        "thermo": {"depth": 10, "cap": 100000},
    }
    path = tmp_path / "super.json"
    path.write_text(json.dumps(cfg))
    assert main(["bowen", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "note: delta exceeds 2" in out
    report(6, f"delta {res.delta:.4f} - err {res.delta_error:.1e} > 2, CLI note shown")


def test_criterion_07_pressure_monotonicity_and_slope():
    ts = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    systems = {
        "z2": power_mm((2, 1.0)),
        "z3": power_mm((3, 1.0)),
        "z4": power_mm((4, 1.0)),
        "z2,z2": power_mm((2, 1.0), (2, 1.0)),
        "z3,z3": power_mm((3, 1.0), (3, 1.0)),
        "z2,z2,z2": power_mm((2, 1.0), (2, 1.0), (2, 1.0)),
        "z2,z3": power_mm((2, 1.0), (3, 1.0)),
        "gasket": gasket_mm(oracles.TRIANGLE_UNIT),
        "annulus": power_mm((2, 1.0), (2, 0.5)),
        "supercritical": power_mm(*SUPERCRITICAL),
    }
    for name, mm in systems.items():
        values = [est.value for est in pressure_curve(mm, ts)]
        assert all(a > b for a, b in zip(values, values[1:])), name

    for d in (2, 3, 4):
        curve = pressure_curve(power_mm((d, 1.0)), [0.5, 1.5])
        slope = (curve[1].value - curve[0].value) / 1.0
        assert slope == pytest.approx(-math.log(d), abs=1e-6)
    report(7, "10 systems strictly decreasing; power slopes = -log d to 1e-6")


def test_criterion_08_entropy_identity():
    (diag,) = lyapunov_and_entropy(power_mm((2, 1.0), (2, 1.0)), [2.0])
    assert diag.entropy == pytest.approx(math.log(4.0), abs=1e-3)
    assert diag.lyapunov == pytest.approx(math.log(2.0), abs=1e-4)
    report(8, f"entropy {diag.entropy:.6f} = log 4, lyapunov {diag.lyapunov:.6f}")


def test_criterion_09_osc_checker():
    mm = MultiMap([power_map(3, 1.0), power_map(3, 0.125)])
    rep = osc_check(mm, Annulus(0.0, 0.99, 2.85), grid_n=128)
    assert rep.verdict == "pass"

    overlap = power_mm((2, 1.0), (2, 1.0))
    U = Annulus(0.0, 0.9, 1.1)
    first = osc_check(overlap, U, grid_n=128)
    second = osc_check(overlap, U, grid_n=128)
    assert first.verdict == "fail"
    assert len(first.witnesses) >= 1
    assert first.witnesses[0][0] == second.witnesses[0][0]
    assert first.witnesses[0][1] == second.witnesses[0][1]

    gasket = gasket_mm(oracles.TRIANGLE_UNIT)
    tri = Triangle(*oracles.TRIANGLE_UNIT)
    assert osc_check(gasket, tri, grid_n=128).verdict == "pass"
    sep = osc_check(gasket, tri, grid_n=512, variant="separating", epsilon=0.01)
    assert sep.verdict == "fail"
    report(9, "annulus pass, overlap fail reproducibly, gasket plain/separating split")


def test_criterion_10_family_diagnostics():
    t0 = time.perf_counter()
    fam = similarity_family(oracles.TRIANGLE_UNIT)
    # 21x21 isotropic grid inside the band 0.2 <= |lambda| <= 0.45
    grid = GridSpec(0.25, 0.43, 21, -0.09, 0.09, 21)
    assert all(0.2 <= abs(lam) <= 0.45 for lam in grid.points())
    table = sweep_delta(fam, grid, ThermoConfig(depth=10))

    worst_gap = 0.0
    for row in table.rows:
        assert row.status == "ok"
        want = oracles.LOG3 / math.log(1.0 / abs(row.lam))
        worst_gap = max(worst_gap, abs(row.delta - want))
    assert worst_gap <= 2e-2

    sub = submean_diagnostic(table, radius=1)
    assert sub.verdict == "pass"
    assert sub.centers_checked == 19 * 19
    assert sub.worst_violation <= sub.tol_sub

    worst_ratio = 0.0
    for j in (0, 10, 20):
        smooth = smoothness_diagnostic(table, ("col", j), fit_degree=4)
        worst_ratio = max(worst_ratio, smooth.residual_ratio)
        assert smooth.max_residual <= 3.0 * smooth.error_scale
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report(10, f"gap {worst_gap:.1e}, submean margin "
               f"{sub.tol_sub - sub.worst_violation:.1e}, "
               f"fit ratio {worst_ratio:.2f}, {elapsed:.0f}s")


def test_criterion_11_byte_identical_reruns(tmp_path, capsys):
    mm_cfg = {
        "multimap": {"generators": [
            {"num": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]},
            {"num": [[0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]},
        ]},
        "thermo": {"depth": 7, "cap": 20000},
        "julia": {"depth": 8, "cap": 5000},
        "render": {"width": 48, "height": 48},
        "t_values": [0.5, 1.5],
    }
    fam_cfg = {
        "family": {
            "generators": [
                {"num": [[[0.0, 0.0]], [[0.0, 0.0]], [[1.0, 0.0]]]},
                {"num": [[[0.0, 0.0]], [[0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
            ],
            "domain": {"kind": "rect", "re_min": -0.99, "re_max": 0.99,
                       "im_min": -0.99, "im_max": 0.99},
        },
        "grid": {"re_min": 0.4, "re_max": 0.5, "re_n": 2,
                 "im_min": 0.0, "im_max": 0.0, "im_n": 1},
        "thermo": {"depth": 6, "cap": 10000},
    }
    mm_path = tmp_path / "mm.json"
    mm_path.write_text(json.dumps(mm_cfg))
    fam_path = tmp_path / "fam.json"
    fam_path.write_text(json.dumps(fam_cfg))

    jobs = [
        ("bowen", mm_path, "bowen.csv"),
        ("pressure", mm_path, "pressure.csv"),
        ("poincare", mm_path, "poincare.csv"),
        ("lyap", mm_path, "lyap.csv"),
        ("julia", mm_path, "julia.ppm"),
        ("boxdim", mm_path, "boxdim.csv"),
        ("sweep", fam_path, "sweep.csv"),
    ]
    for cmd, cfg_path, out_name in jobs:
        outs = []
        for run, threads in enumerate(("1", "4")):
            out = tmp_path / f"run{run}-{out_name}"
            rc = main([cmd, "--config", str(cfg_path), "--out", str(out),
                       "--threads", threads, "--seed", "0"])
            assert rc == 0, cmd
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], cmd
    capsys.readouterr()
    report(11, "7 commands byte-identical across reruns and --threads values")
