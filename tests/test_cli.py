"""Config parsing and CLI subcommand tests (in-process via main())."""
import ast
import errno
import json
import math
import os
import re
import runpy
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ratsemi import cli, config, thermo
from ratsemi.cli import main
from ratsemi.config import emit, parse, parse_file
from ratsemi.dynamics import MultiMap, julia_backward_cloud, repelling_seed
from ratsemi.errors import ConfigError
from ratsemi.sphere import RationalMap

import oracles


# ---------------------------------------------------------------------------
# config fixtures


def gen_poly(coeffs):
    """Multimap generator from ascending real coefficients."""
    return {"num": [[float(c), 0.0] for c in coeffs]}


Z2 = gen_poly([0, 0, 1])
Z3 = gen_poly([0, 0, 0, 1])


def family_similarity(vertices, lam=None):
    gens = []
    for p in vertices:
        gens.append(
            {
                "num": [[[-p.real, -p.imag], [p.real, p.imag]], [[1.0, 0.0]]],
                "den": [[[0.0, 0.0], [1.0, 0.0]]],
            }
        )
    fam = {
        "generators": gens,
        "domain": {"kind": "rect", "re_min": -0.99, "re_max": 0.99,
                   "im_min": -0.99, "im_max": 0.99},
        "excluded": [[0.0, 0.0]],
    }
    if lam is not None:
        fam["lam"] = [lam.real, lam.imag]
    return fam


def family_scaled_square(lam=None):
    fam = {
        "generators": [
            {"num": [[[0.0, 0.0]], [[0.0, 0.0]], [[1.0, 0.0]]]},
            {"num": [[[0.0, 0.0]], [[0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
        ],
        "domain": {"kind": "rect", "re_min": -0.99, "re_max": 0.99,
                   "im_min": -0.99, "im_max": 0.99},
    }
    if lam is not None:
        fam["lam"] = [lam.real, lam.imag]
    return fam


def write_cfg(tmp_path, data, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


# ---------------------------------------------------------------------------
# config parsing


def test_defaults_and_seed_propagation(monkeypatch):
    cfg = parse(json.dumps({"multimap": {"generators": [Z2]}}))
    assert cfg.data["thermo"]["depth"] == 10
    assert cfg.data["rng_seed"] == 0
    assert cfg.thermo_config().rng_seed == 0
    assert cfg.data["julia"]["cap"] == 200_000
    assert cfg.data["render"]["out"] == "julia.ppm"
    assert cfg.data["region"] is None
    assert cfg.data["multimap"]["generators"][0]["den"] == [[1.0, 0.0]]

    # the one rng_seed reaches the thermo config and the julia cloud
    cfg = parse(json.dumps({"rng_seed": 7, "multimap": {"generators": [Z2]}}))
    assert cfg.thermo_config().rng_seed == 7
    seeds = []
    monkeypatch.setattr(cli, "julia_backward_cloud",
                        lambda mm, **kw: seeds.append(kw["rng_seed"]))
    cli._julia_cloud(cfg)
    assert seeds == [7]


def test_round_trip_is_lossless():
    rich = {
        "rng_seed": 11,
        "family": family_similarity(oracles.TRIANGLE_UNIT, lam=complex(0.4, 0.1)),
        "thermo": {"depth": 8, "cap": 5000, "force": True, "basepoint": [1.0, 0.5]},
        "render": {"width": 100, "height": 80, "viewport": [-2.0, 2.0, -2.0, 2.0]},
        "region": {"kind": "triangle",
                   "vertices": [[0.0, 0.0], [1.0, 0.0], [0.5, 0.8]]},
        "osc": {"variant": "separating", "epsilon": 0.01, "grid_n": 128},
        "grid": {"re_min": 0.2, "re_max": 0.45, "re_n": 5,
                 "im_min": -0.1, "im_max": 0.1, "im_n": 5},
        "boxdim": {"viewport": [-1.0, 1.0, -1.0, 1.0]},
        "t_values": [0.0, 2.5],
        "sweep": {"out": "s.csv"},
    }
    cfg = parse(json.dumps(rich))
    again = parse(emit(cfg))
    assert again == cfg
    assert parse(emit(again)) == again


def test_readme_config_grammar_has_the_keys_and_defaults_of_the_config_table():
    # README's grammar block without its // comments is JSON, with every key of
    # config._CONFIG and each section's own keys; a key with a default shows the value
    # parsing fills in, and multimap and family, which have none, show a valid example
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Configuration grammar.*?```jsonc\n(.*?)```", text, re.S).group(1)
    doc = json.loads(re.sub(r"//[^\n]*", "", block))
    assert set(doc) == set(config._CONFIG)
    defaults = config.normalize({"multimap": doc["multimap"]})
    for key, (_, default, table) in config._CONFIG.items():
        if isinstance(default, dict) or default is config._OMITTED:
            assert set(doc[key]) == set(table), key
        if default is config._OMITTED:
            assert all(set(g) == set(table["generators"][2]) for g in doc[key]["generators"]), key
            config.normalize({key: doc[key]})
        else:
            assert doc[key] == defaults[key], key


def test_config_rejections():
    ok = {"multimap": {"generators": [Z2]}}
    fam = family_scaled_square()
    huge = 10 ** 400  # an integer too large for a float
    # each bad input with the text its message must contain, from the dotted path on
    bad = [
        ({"multimap": {"generators": [Z2]}, "typo_key": 1}, "config: unknown keys"),
        ({**ok, "lyap_h": 1e-3}, "config: unknown keys ['lyap_h']"),  # a removed key
        # removed keys: one run seed, one early-stop tolerance, one OSC window, one
        # puncture tolerance
        ({**ok, "thermo": {"rng_seed": 3}}, "config.thermo: unknown keys ['rng_seed']"),
        ({**ok, "julia": {"rng_seed": 3}}, "config.julia: unknown keys ['rng_seed']"),
        ({**ok, "thermo": {"rtol_pressure": 1e-6}},
         "config.thermo: unknown keys ['rtol_pressure']"),
        ({**ok, "osc": {"enlarge": 1.5}}, "config.osc: unknown keys ['enlarge']"),
        ({"family": {**fam, "puncture_tol": 1e-9}},
         "config.family: unknown keys ['puncture_tol']"),
        ({"multimap": {"generators": [Z2]}, "family": family_scaled_square()},
         "config: exactly one"),
        ({}, "config: exactly one"),
        ({"multimap": {"generators": []}}, "config.multimap: generators"),
        ({"multimap": {"generators": [{"num": [[1, 0, 3]]}]}},
         "config.multimap.generators[0].num[0]:"),
        ({**ok, "thermo": {"depth": 1}}, "config.thermo.depth:"),
        ({**ok, "thermo": {"depth": True}}, "config.thermo.depth:"),
        ({**ok, "osc": {"variant": "fuzzy"}}, "config.osc.variant:"),
        ({**ok, "t_values": []}, "config.t_values:"),
        ({**ok, "grid": {"re_min": 0.0}}, "config.grid: missing re_max"),
        ({**ok, "render": {"viewport": [1.0, -1.0, 0.0, 1.0]}}, "config.render.viewport:"),
        ({**ok, "region": {"kind": "square"}}, "config.region.kind:"),
        # sections that are not objects
        ({**ok, "thermo": None}, "config.thermo: expected an object"),
        ({**ok, "julia": 5}, "config.julia: expected an object"),
        ({**ok, "render": "ab"}, "config.render: expected an object"),
        ({**ok, "osc": [["grid_n", 128]]}, "config.osc: expected an object"),
        ({**ok, "boxdim": [["viewport", None]]}, "config.boxdim: expected an object"),
        ({**ok, "sweep": None}, "config.sweep: expected an object"),
        # family.excluded must be a list
        ({"family": {**fam, "excluded": 5}}, "config.family.excluded: expected a list"),
        ({"family": {**fam, "excluded": None}}, "config.family.excluded: expected a list"),
        ({"family": {**fam, "excluded": {"a": [0.0, 0.0]}}},
         "config.family.excluded: expected a list"),
        # integers beyond the float range where a number is expected
        ({**ok, "t_values": [0.0, huge]}, "config.t_values[1]:"),
        ({**ok, "thermo": {"basepoint": [huge, 0.0]}}, "config.thermo.basepoint[0]:"),
        ({"family": {**fam, "lam": [huge, 0.0]}}, "config.family.lam[0]:"),
        # upper bounds on sizes and seeds
        ({**ok, "osc": {"grid_n": 4097}}, "config.osc.grid_n: must be <= 4096"),
        ({**ok, "osc": {"grid_n": huge}}, "config.osc.grid_n: must be <= 4096"),
        ({**ok, "render": {"width": huge}}, "config.render.width: must be <= 8192"),
        ({**ok, "render": {"height": 8193}}, "config.render.height: must be <= 8192"),
        # seeds 2^64 apart would alias in dynamics._derive_seed
        ({**ok, "rng_seed": 2 ** 64}, "config.rng_seed: must be <= 18446744073709551615"),
        ({**ok, "rng_seed": -1}, "config.rng_seed: must be >= 0"),
        # a removed key: the root search's tolerances (once required > 0), the gate's
        # budget (a margin once required > 0), the box scales, the Poincare depth and the
        # sweep diagnostics' settings are constants
        *[({**ok, "thermo": {key: 1}}, f"config.thermo: unknown keys ['{key}']")
          for key in ("tol_t", "tol_p", "t_max", "hyper_depth", "hyper_margin", "hyper_cap")],
        ({**ok, "thermo": {"tol_t": 0.0}}, "config.thermo: unknown keys ['tol_t']"),
        ({**ok, "thermo": {"t_max": -1}}, "config.thermo: unknown keys ['t_max']"),
        ({**ok, "thermo": {"hyper_margin": 0.0}}, "config.thermo: unknown keys ['hyper_margin']"),
        ({**ok, "poincare_N": 8}, "config: unknown keys ['poincare_N']"),
        ({**ok, "boxdim": {"scale_count": 6}}, "config.boxdim: unknown keys ['scale_count']"),
        *[({**ok, "sweep": {key: 1}}, f"config.sweep: unknown keys ['{key}']")
          for key in ("submean_radius", "smooth_line", "fit_degree")],
        # a negative epsilon hides every overlap
        ({**ok, "osc": {"epsilon": -1.0}}, "config.osc.epsilon: must be >= 0"),
    ]
    parse(json.dumps(ok))
    parse(json.dumps({**ok, "osc": {"variant": "separating", "epsilon": 0.0}}))  # closed region
    for raw, message in bad:
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse(json.dumps(raw))
    with pytest.raises(ConfigError):
        parse("not json {")
    with pytest.raises(ConfigError):
        parse("[1, 2]")
    # integer literals past the interpreter's digit limit, and nesting past its recursion limit
    for text in ("1" * 5000, "[" * 100_000):
        with pytest.raises(ConfigError, match="config is not valid JSON"):
            parse(text)


DEMO_CONFIGS = sorted((Path(__file__).parent.parent / "demos" / "configs").glob("*.json"))


def _value_paths(value, path=()):
    """Every path of dict keys into a parsed JSON value, entering lists at index 0 only."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value[:1]) if isinstance(value, list) else ())
    for key, child in items:
        yield from _value_paths(child, path + (key,))


json_scalars = (st.none() | st.booleans() | st.integers(-5, 300) | st.just(10 ** 400)
                | st.floats() | st.text(max_size=4))
json_values = json_scalars | st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_config_fuzz_rejects_or_round_trips(data):
    raw = json.loads(data.draw(st.sampled_from(DEMO_CONFIGS)).read_text())
    path = data.draw(st.sampled_from(list(_value_paths(raw))))
    value = data.draw(json_values)
    if path:
        parent = raw
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        raw = value
    try:
        cfg = parse(json.dumps(raw))
    except ConfigError:
        return
    assert parse(emit(cfg)) == cfg


def test_builders():
    cfg = parse(json.dumps({
        "multimap": {"generators": [Z2, Z3]},
        "region": {"kind": "annulus", "center": [0.0, 0.0], "r1": 1.0, "r2": 2.0},
        "grid": {"re_min": 0.0, "re_max": 1.0, "re_n": 3,
                 "im_min": 0.0, "im_max": 0.0, "im_n": 1},
        "thermo": {"basepoint": [2.0, 0.0]},
    }))
    mm = cfg.multimap()
    assert mm.degrees == (2, 3)
    U = cfg.region()
    assert U.r1 == 1.0 and U.r2 == 2.0
    grid = cfg.grid_spec()
    assert grid.re_n == 3 and grid.im_n == 1
    assert cfg.basepoint() == complex(2.0, 0.0)
    tc = cfg.thermo_config()
    assert tc.depth == 10 and tc.cap == 200_000

    fam_cfg = parse(json.dumps({"family": family_scaled_square(lam=complex(0.5, 0))}))
    mm = fam_cfg.multimap()
    assert mm.generators[1](2.0) == pytest.approx(2.0)

    no_lam = parse(json.dumps({"family": family_scaled_square()}))
    with pytest.raises(ConfigError, match="lam"):
        no_lam.multimap()
    with pytest.raises(ConfigError, match="region"):
        no_lam.region()
    with pytest.raises(ConfigError, match="grid"):
        no_lam.grid_spec()
    with pytest.raises(ConfigError, match="family"):
        parse(json.dumps({"multimap": {"generators": [Z2]}})).family_spec()

    collinear = parse(json.dumps({
        "multimap": {"generators": [Z2]},
        "region": {"kind": "triangle",
                   "vertices": [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]},
    }))
    with pytest.raises(ConfigError, match="collinear"):
        collinear.region()

    degenerate = parse(json.dumps({
        "multimap": {"generators": [{"num": [[1.0, 0.0]]}]},
    }))
    with pytest.raises(ConfigError, match="degree"):
        degenerate.multimap()


# ---------------------------------------------------------------------------
# CLI subcommands


def test_cli_bowen_power_pair(tmp_path, capsys):
    path = write_cfg(tmp_path, {
        "multimap": {"generators": [Z2, Z2]},
        "thermo": {"depth": 8, "cap": 20000},
    })
    out_csv = str(tmp_path / "bowen.csv")
    assert main(["bowen", "--config", path, "--out", out_csv]) == 0
    out = capsys.readouterr().out
    delta_line = next(l for l in out.splitlines() if l.startswith("delta = "))
    delta = float(delta_line.split()[2])
    assert delta == pytest.approx(2.0, abs=5e-3)
    assert "hyperbolicity pass" in out
    assert "note:" not in out
    csv = Path(out_csv).read_text()
    assert csv.startswith("delta,bracket_lo,bracket_hi,")
    assert float(csv.splitlines()[1].split(",")[0]) == pytest.approx(delta)


def test_cli_bowen_supercritical_note(tmp_path, capsys):
    path = write_cfg(tmp_path, {
        "multimap": {
            "generators": [Z2, gen_poly([0, 0, 0.25]), gen_poly([0, 0, 1.0 / 3.0])]
        },
        "thermo": {"depth": 8, "cap": 20000},
    })
    assert main(["bowen", "--config", path]) == 0
    out = capsys.readouterr().out
    delta = float(next(l for l in out.splitlines() if l.startswith("delta"))
                  .split()[2])
    assert delta > 2.0
    assert "note: delta exceeds 2" in out


def test_cli_bowen_no_sign_change_exit_4(tmp_path, capsys):
    path = write_cfg(tmp_path, {
        "multimap": {"generators": [gen_poly([0, 2]), gen_poly([0, 0.5])]},
        "thermo": {"depth": 6, "cap": 5000},
    })
    assert main(["bowen", "--config", path]) == 4
    assert "error" in capsys.readouterr().err


def test_cli_bowen_no_sign_change_stops_at_t_max(tmp_path, capsys, monkeypatch):
    # {z^2, z^2} has P(t) = (2 - t) log 2, positive up to the root 2; the doubling
    # step from t = 0 is clipped at thermo._T_MAX, and the error names that t
    path = write_cfg(tmp_path, {"multimap": {"generators": [Z2, Z2]},
                                "thermo": {"depth": 6, "cap": 5000}})
    assert main(["bowen", "--config", path]) == 0
    monkeypatch.setattr(thermo, "_T_MAX", 0.5)
    capsys.readouterr()
    assert main(["bowen", "--config", path]) == 4
    assert "up to t = 0.5;" in capsys.readouterr().err


def test_cli_bowen_hyperbolicity_exit_7_and_force(tmp_path, capsys):
    base = {
        "multimap": {"generators": [Z2, gen_poly([-2, 0, 1])]},
        "thermo": {"depth": 8, "cap": 20000},
    }
    path = write_cfg(tmp_path, base)
    assert main(["bowen", "--config", path]) == 7
    out = capsys.readouterr().out
    assert "hyperbolicity" in out and "pass" not in out.split("hyperbolicity")[1][:10]

    base["thermo"]["force"] = True
    path2 = write_cfg(tmp_path, base, name="forced.json")
    assert main(["bowen", "--config", path2]) == 0
    assert "delta = " in capsys.readouterr().out


@pytest.mark.parametrize("force", [False, True])
def test_cli_bowen_runs_the_gate_once(tmp_path, capsys, monkeypatch, force):
    calls = []
    check = thermo.check_hyperbolic

    def counted(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    monkeypatch.setattr(thermo, "check_hyperbolic", counted)
    gens = {"pass": [Z2, Z2], "inconclusive": [Z2, gen_poly([-2, 0, 1])]}
    for verdict, generators in gens.items():
        path = write_cfg(tmp_path, {
            "multimap": {"generators": generators},
            "thermo": {"depth": 6, "cap": 5000, "force": force},
        }, name=f"{verdict}.json")
        calls.clear()
        code = main(["bowen", "--config", path])
        assert code == (7 if verdict == "inconclusive" and not force else 0)
        assert len(calls) == 1
        assert f"hyperbolicity {verdict} " in capsys.readouterr().out


def test_cli_pressure_csv(tmp_path, capsys):
    path = write_cfg(tmp_path, {
        "multimap": {"generators": [Z2]},
        "t_values": [0.0, 1.0, 2.0],
        "thermo": {"depth": 6, "cap": 5000},
    })
    out_file = str(tmp_path / "p.csv")
    assert main(["pressure", "--config", path, "--out", out_file]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "t,value,residual,depth"
    assert len(lines) == 4
    vals = [float(l.split(",")[1]) for l in lines[1:]]
    assert vals[0] == pytest.approx(math.log(2.0), abs=1e-9)
    assert vals[1] == pytest.approx(0.0, abs=1e-9)
    assert vals[2] == pytest.approx(-math.log(2.0), abs=1e-9)
    assert Path(out_file).read_text() == out


def test_cli_pressure_critical_basepoint_exit_5(tmp_path, capsys):
    path = write_cfg(tmp_path, {
        "multimap": {"generators": [Z2]},
        "t_values": [1.0],
        "thermo": {"depth": 6, "cap": 5000, "basepoint": [0.0, 0.0]},
    })
    assert main(["pressure", "--config", path]) == 5
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command, t", [
    ("poincare", -800.0),  # the partial sums pass float range
    ("poincare", 1e308),   # t times a level-2 log norm overflows
    ("pressure", 1e308),
    ("lyap", 1e308),
])
def test_cli_t_past_float_range_exits_1_without_warnings(tmp_path, command, t):
    # run as a process under -W error, so a traceback or a leaked warning reaches stderr
    path = write_cfg(tmp_path, {
        "multimap": {"generators": [Z2, Z3]},
        "t_values": [t],
        "thermo": {"depth": 4},
    })
    src = str(Path(__file__).resolve().parent.parent / "src")
    argv = [sys.executable, "-W", "error", "-m", "ratsemi.cli", command, "--config", path]
    proc = subprocess.run(argv, env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: ") and f"at t = {t!r} overflows" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "nan" not in proc.stdout


@pytest.mark.parametrize("den", [
    [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1e-313, 0.0]],  # was np.roots on infs
    [[1.0, 0.0], [0.0, 0.0], [1e-313, 0.0]],  # was a false shared root near 0
])
def test_cli_leading_coefficient_past_float_range_exits_2(tmp_path, den):
    # run as a process under -W error, so a traceback or a leaked warning reaches stderr
    path = write_cfg(tmp_path, {"multimap": {"generators": [{"num": Z2["num"], "den": den}]}})
    src = str(Path(__file__).resolve().parent.parent / "src")
    argv = [sys.executable, "-W", "error", "-m", "ratsemi.cli", "bowen", "--config", path]
    proc = subprocess.run(argv, env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == ("config error: config.multimap.generators[0]: denominator leading "
                           "coefficient is 1e-313 times its largest, below 1e-300: its monic "
                           "form leaves float range\n")


@pytest.mark.filterwarnings("error")
def test_cli_bowen_critical_preimage_exit_5_without_warnings(tmp_path, capsys):
    # z^2 - 2 maps its critical point 0 onto the seed 2 in two steps; force skips the gate
    path = write_cfg(tmp_path, {
        "multimap": {"generators": [{"num": [[-2.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}]},
        "thermo": {"force": True},
    })
    assert main(["bowen", "--config", path]) == 5
    assert capsys.readouterr().err.startswith("error: preimage tree")


def test_importing_cli_leaves_scipy_spatial_unloaded():
    # nothing in the library needs scipy.spatial; set-up must not pay for it
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "import sys; import ratsemi.cli; sys.exit('scipy.spatial' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_importing_cli_leaves_numpy_polynomial_unloaded():
    # family coefficients are plain ascending tuples evaluated by sphere.horner
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "import sys; import ratsemi.cli; sys.exit('numpy.polynomial' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_output_digests_runs_every_subcommand_on_an_existing_config():
    root = Path(__file__).resolve().parent.parent
    commands = runpy.run_path(str(root / "tools" / "output_digests.py"))["COMMANDS"]
    assert {cmd for cmd, _, _ in commands} == {name for name, _, _ in cli._COMMANDS}
    assert all((root / "demos" / "configs" / f"{c}.json").is_file() for _, c, _ in commands)


def test_bowen_runs_without_scipy():
    # the hyperbolicity certificate is numpy alone; a None entry makes any scipy import fail
    root = Path(__file__).resolve().parent.parent
    config = str(root / "demos" / "configs" / "supercritical.json")
    code = ("import sys; sys.modules['scipy'] = None; from ratsemi.cli import main; "
            f"sys.exit(main(['bowen', '--config', {config!r}, '--depth', '6']))")
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": str(root / "src")},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "hyperbolicity pass" in proc.stdout and "delta = " in proc.stdout


def test_cli_bowen_on_a_root_solve_past_float_range_exits_1_without_a_traceback(tmp_path):
    # the fixed points of 1e-310 z^3 ended in np.roots' LinAlgError; run as a process under
    # -W error, so a traceback or a leaked warning reaches stderr
    path = write_cfg(tmp_path, {"multimap": {"generators": [Z2, gen_poly([0, 0, 0, 1e-310])]}})
    src = str(Path(__file__).resolve().parent.parent / "src")
    argv = [sys.executable, "-W", "error", "-m", "ratsemi.cli", "bowen", "--config", path]
    proc = subprocess.run(argv, env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: root solver missed the residual bound on 1 polynomial")
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_cli_seed_outside_64_bits_is_a_config_error(tmp_path, capsys):
    # --seed 18446744073709551616 wrote the --seed 0 image
    path = write_cfg(tmp_path, {"multimap": {"generators": [Z2]}})
    out = tmp_path / "j.ppm"
    for seed in (2 ** 64, -1):
        assert main(["julia", "--config", path, "--seed", str(seed), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: --seed must be in [0, 2^64)\n"
    assert not out.exists()


def test_cli_poincare_partial_sum(tmp_path, capsys):
    path = write_cfg(tmp_path, {
        "multimap": {"generators": [Z2]},
        "t_values": [1.5],
        "thermo": {"cap": 5000},
    })
    assert main(["poincare", "--config", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,value,residual,depth"
    t, value, residual, depth = lines[1].split(",")
    want = sum(2.0 ** (-0.5 * n) for n in range(1, 9))  # the 8 levels of cli.POINCARE_DEPTH
    assert float(value) == pytest.approx(want, abs=1e-9)
    assert float(residual) < 1e-9
    assert depth == "8"


def test_cli_lyap_csv(tmp_path, capsys):
    path = write_cfg(tmp_path, {
        "multimap": {"generators": [Z2]},
        "t_values": [1.0],
        "thermo": {"depth": 6, "cap": 5000},
    })
    assert main(["lyap", "--config", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,value,residual,depth"
    assert float(lines[1].split(",")[1]) == pytest.approx(math.log(2.0), abs=1e-6)


def test_cli_lyap_shares_one_tree_and_matches_per_t_calls(tmp_path, capsys, monkeypatch):
    # capped, so each level is subsampled; the per-t calls build their own trees
    path = write_cfg(tmp_path, {
        "multimap": {"generators": [Z2, Z3]},
        "t_values": [0.5, 1.0, 1.8],
        "thermo": {"depth": 6, "cap": 300},
        "rng_seed": 5,
    })
    builds = []
    init = thermo.PreimageTree.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(thermo.PreimageTree, "__init__", counting_init)
    assert main(["lyap", "--config", path]) == 0
    assert len(builds) == 1
    lines = capsys.readouterr().out.splitlines()
    mm = parse_file(path).multimap()
    for line, t in zip(lines[1:], (0.5, 1.0, 1.8)):
        (d,) = thermo.lyapunov_and_entropy(mm, [t], depth=6, cap=300, rng_seed=5)
        assert line == f"{t:.17g},{d.lyapunov:.17g},{d.residual:.17g},{d.depth}"
    assert len(lines) == 4


def test_cli_osc_pass_and_fail(tmp_path, capsys):
    annulus_pass = write_cfg(tmp_path, {
        "multimap": {"generators": [Z3, gen_poly([0, 0, 0, 0.125])]},
        "region": {"kind": "annulus", "center": [0.0, 0.0], "r1": 0.99, "r2": 2.85},
        "osc": {"grid_n": 128},
    }, name="pass.json")
    assert main(["osc", "--config", annulus_pass]) == 0
    assert "osc pass" in capsys.readouterr().out

    annulus_fail = write_cfg(tmp_path, {
        "multimap": {"generators": [Z2, Z2]},
        "region": {"kind": "annulus", "center": [0.0, 0.0], "r1": 0.9, "r2": 1.1},
        "osc": {"grid_n": 64},
    }, name="fail.json")
    assert main(["osc", "--config", annulus_fail]) == 6
    out = capsys.readouterr().out
    assert "osc fail" in out
    assert "witness" in out


@pytest.mark.parametrize("gens,region,osc,verdict,code", [
    # 3z -+ 2 pull the unit disc onto two disjoint discs of radius 1/3 inside it
    ([gen_poly([-2, 3]), gen_poly([2, 3])],
     {"kind": "disc", "center": [0.0, 0.0], "r": 1.0}, {"grid_n": 64}, "pass", 0),
    ([Z3, gen_poly([0, 0, 0, 0.125])],
     {"kind": "annulus", "center": [0.0, 0.0], "r1": 0.99, "r2": 2.85},
     {"grid_n": 64, "variant": "separating"}, "pass", 0),
    # z^2 and z^2/2 both keep |z| > sqrt(2) and infinity outside the unit disc
    ([Z2, gen_poly([0, 0, 0.5])],
     {"kind": "complement-disc", "center": [0.0, 0.0], "r": 1.0}, {"grid_n": 64}, "fail", 6),
    ([{"num": [[-p.real, -p.imag], [2.0, 0.0]]} for p in oracles.TRIANGLE_RAW],
     {"kind": "triangle", "vertices": [[p.real, p.imag] for p in oracles.TRIANGLE_RAW]},
     {"grid_n": 64}, "pass", 0),
], ids=["disc", "annulus", "complement-disc", "triangle"])
def test_cli_osc_on_each_region_kind(tmp_path, capsys, gens, region, osc, verdict, code):
    path = write_cfg(tmp_path, {"multimap": {"generators": gens}, "region": region, "osc": osc})
    assert main(["osc", "--config", path]) == code
    first = capsys.readouterr().out.splitlines()[0]
    variant = osc.get("variant", "plain")
    assert first.startswith(f"osc {verdict} (variant {variant}, grid 64, spacing "), first


def test_cli_julia_render(tmp_path, capsys):
    path = write_cfg(tmp_path, {
        "family": family_scaled_square(lam=complex(0.5, 0)),
        "julia": {"depth": 8, "cap": 5000},
        "render": {"width": 64, "height": 64},
    })
    out = str(tmp_path / "annulus.ppm")
    assert main(["julia", "--config", path, "--out", out]) == 0
    text = capsys.readouterr().out
    assert "wrote" in text
    radial = next(l for l in text.splitlines() if l.startswith("radial range"))
    rmin, rmax = [float(x) for x in
                  radial.replace("radial range [", "").rstrip("]").split(",")]
    assert 0.99 <= rmin <= 1.01
    assert 1.9 <= rmax <= 2.01
    seed_pt, seed_gen = repelling_seed(parse_file(path).multimap())
    z = seed_pt
    assert f"seed {z.real:.6g}{z.imag:+.6g}i from generator {seed_gen}" in text.splitlines()
    data = Path(out).read_bytes()
    assert data.startswith(b"P6\n64 64\n255\n")
    assert len(data) == len(b"P6\n64 64\n255\n") + 64 * 64 * 3
    assert b"\x00" in data  # some black pixels exist


def test_cli_julia_deterministic_and_seed_sensitive(tmp_path, capsys):
    path = write_cfg(tmp_path, {
        "family": family_scaled_square(lam=complex(0.5, 0)),
        "julia": {"depth": 8, "cap": 5000},
        "render": {"width": 64, "height": 64,
                   "viewport": [-2.1, 2.1, -2.1, 2.1]},
    })
    a, b, c, d = (str(tmp_path / f"{n}.ppm") for n in "abcd")
    assert main(["julia", "--config", path, "--out", a]) == 0
    assert main(["julia", "--config", path, "--out", b, "--threads", "4"]) == 0
    assert main(["julia", "--config", path, "--out", c, "--seed", "0"]) == 0
    assert main(["julia", "--config", path, "--out", d, "--seed", "1"]) == 0
    capsys.readouterr()
    ba, bb, bc, bd = (Path(p).read_bytes() for p in (a, b, c, d))
    assert ba == bb == bc
    assert bd != ba


def test_cli_other_library_error_exit_1(tmp_path, capsys):
    # a depth-3 circle cloud has 15 points, far below what box counting needs
    path = write_cfg(tmp_path, {
        "multimap": {"generators": [Z2]},
        "julia": {"depth": 3},
    })
    assert main(["boxdim", "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 15 points in viewport; box counting needs 10000\n"


ANNULUS_CONFIG = str(Path(__file__).parent.parent / "demos" / "configs" / "annulus.json")


def _julia_and_boxdim_peaks(cloud, tmp_path, monkeypatch):
    """tracemalloc peaks of cli julia and box_dimension on cloud, read with annulus.json's
    render and boxdim sections, and the bytes of the cloud's points."""
    cfg = parse_file(ANNULUS_CONFIG)
    monkeypatch.setattr(cli, "_julia_cloud", lambda cfg: cloud)
    runs = {
        "boxdim": lambda: cli.box_dimension(cloud, **cfg.data["boxdim"]),
        "julia": lambda: main(["julia", "--config", ANNULUS_CONFIG, "--out", str(tmp_path / "j.ppm")]),
    }
    peaks = {}
    for name, run in runs.items():
        tracemalloc.start()
        try:
            run()
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peaks, sum(lev.z.nbytes for lev in cloud.levels)


def test_julia_and_boxdim_peak_below_the_bytes_of_the_cloud_they_read(tmp_path, capsys,
                                                                       monkeypatch):
    # annulus.json's depth-12 cloud: 887,381 points, 14.2 MB of z.  Reading it concatenated,
    # with a bool mask beside z, peaked at 3.4 times 15.1 MB in box_dimension, 4.1 in cmd_julia;
    # reading it in whole levels, at 0.48 and 0.54 times 14.2 MB; in fixed-size slices, 0.12 and 0.11
    cloud = cli._julia_cloud(parse_file(ANNULUS_CONFIG))
    peaks, own = _julia_and_boxdim_peaks(cloud, tmp_path, monkeypatch)
    assert max(peaks.values()) < own / 4, (peaks, own)


def test_julia_and_boxdim_peak_below_the_cloud_bytes_with_points_at_infinity(tmp_path, capsys,
                                                                              monkeypatch):
    # every level of this 887,381-point cloud holds points at infinity (50,773 in all); reading
    # each level's finite points as one masked copy held all of them at once, 0.97 and 1.05
    # times the cloud's 14.2 MB in box_dimension and cmd_julia; per slice, 0.05 and 0.13
    newton_square = MultiMap([RationalMap([1.0, 0.0, 1.0], [0.0, 2.0]), oracles.power_map(2)])
    cloud = julia_backward_cloud(newton_square, depth=12, cap=200_000, rng_seed=1)
    assert all(np.isinf(lev.z).any() for lev in cloud.levels)
    peaks, own = _julia_and_boxdim_peaks(cloud, tmp_path, monkeypatch)
    assert max(peaks.values()) < own / 4, (peaks, own)


def test_cli_julia_cap_below_the_largest_degree_keeps_one_sibling_set(tmp_path, capsys):
    raw = json.loads((Path(__file__).parent.parent / "demos" / "configs" / "annulus.json").read_text())
    raw["julia"]["cap"] = 1
    path = write_cfg(tmp_path, raw)
    assert main(["julia", "--config", path, "--out", str(tmp_path / "j.ppm")]) == 0
    assert "points 25 finite + 0 at infinity (25 total, depth 12)" in capsys.readouterr().out
    # z^2 and z^2/2: each level after the seed is both roots of one picked parent
    cloud = cli._julia_cloud(parse_file(path))
    assert [lev.size for lev in cloud.levels] == [1] + [2] * 12


def test_cli_julia_no_seed_exit_3(tmp_path, capsys):
    path = write_cfg(tmp_path, {
        "multimap": {"generators": [gen_poly([1, 1])]},
    })
    assert main(["julia", "--config", path]) == 3
    assert "error" in capsys.readouterr().err


def test_cli_sweep_similarity(tmp_path, capsys):
    path = write_cfg(tmp_path, {
        "family": family_similarity(oracles.TRIANGLE_UNIT),
        "grid": {"re_min": 0.3, "re_max": 0.42, "re_n": 3,
                 "im_min": 0.0, "im_max": 0.0, "im_n": 1},
        "thermo": {"depth": 8, "cap": 20000},
    })
    out = str(tmp_path / "sweep.csv")
    assert main(["sweep", "--config", path, "--out", out]) == 0
    text = capsys.readouterr().out
    assert "submean" in text
    assert "smoothness" in text
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "re_lambda,im_lambda,delta,pressure_residual,depth,status"
    assert len(lines) == 4
    for line in lines[1:]:
        re_l, im_l, delta, resid, depth, status = line.split(",")
        assert status == "ok"
        want = math.log(3.0) / math.log(1.0 / abs(complex(float(re_l), float(im_l))))
        assert float(delta) == pytest.approx(want, abs=2e-2)


def test_cli_sweep_rejects_a_grid_axis_that_repeats_one_parameter(tmp_path):
    # 3 real values all 0.3: the smoothness diagnostic's step along that axis would be 0;
    # run as a process under -W error, so a traceback or a leaked warning reaches stderr
    path = write_cfg(tmp_path, {
        "family": family_similarity(oracles.TRIANGLE_UNIT),
        "grid": {"re_min": 0.3, "re_max": 0.3, "re_n": 3,
                 "im_min": -0.05, "im_max": 0.05, "im_n": 9},
        "thermo": {"depth": 4, "cap": 1000},
    })
    out = tmp_path / "sweep.csv"
    src = str(Path(__file__).resolve().parent.parent / "src")
    argv = [sys.executable, "-W", "error", "-m", "ratsemi.cli", "sweep", "--config", path,
            "--out", str(out)]
    proc = subprocess.run(argv, env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == ("config error: config.grid: an axis with more than one point "
                           "needs a positive width\n")
    assert proc.stdout == ""
    assert not out.exists()


def test_cli_sweep_puncture_rows_still_written(tmp_path, capsys):
    path = write_cfg(tmp_path, {
        "family": family_scaled_square(),
        "grid": {"re_min": -0.2, "re_max": 0.2, "re_n": 3,
                 "im_min": 0.0, "im_max": 0.0, "im_n": 1},
        "thermo": {"depth": 6, "cap": 10000},
    })
    out = str(tmp_path / "sweep.csv")
    assert main(["sweep", "--config", path, "--out", out]) == 0
    capsys.readouterr()
    lines = Path(out).read_text().splitlines()
    assert len(lines) == 4
    mid = lines[2].split(",")
    assert mid[5] == "invalid-instance"
    assert mid[2] == "" and mid[3] == "" and mid[4] == ""
    assert lines[1].split(",")[5] == "ok"
    assert lines[3].split(",")[5] == "ok"


@pytest.mark.parametrize("domain, message", [
    ({"kind": "rect", "re_min": 1.0, "re_max": 0.99, "im_min": -0.99, "im_max": 0.99},
     "rectangle bounds must be ordered"),
    ({"kind": "annulus", "center": [0.0, 0.0], "r1": 2.0, "r2": 2.0}, "annulus needs 0 <= r1 < r2"),
])
def test_cli_sweep_reports_a_bad_family_domain_as_a_config_error(tmp_path, domain, message):
    # run as a process, so a traceback would reach stderr instead of failing the test
    path = write_cfg(tmp_path, {
        "family": {**family_scaled_square(), "domain": domain},
        "grid": {"re_min": 0.4, "re_max": 0.5, "re_n": 3, "im_min": 0.0, "im_max": 0.0, "im_n": 1},
    })
    out = tmp_path / "sweep.csv"
    src = str(Path(__file__).resolve().parent.parent / "src")
    argv = [sys.executable, "-m", "ratsemi.cli", "sweep", "--config", path, "--out", str(out)]
    proc = subprocess.run(argv, env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert f"config error: config.family: {message}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_cli_sweep_deterministic(tmp_path, capsys):
    path = write_cfg(tmp_path, {
        "family": family_scaled_square(),
        "grid": {"re_min": 0.4, "re_max": 0.5, "re_n": 2,
                 "im_min": 0.0, "im_max": 0.0, "im_n": 1},
        "thermo": {"depth": 6, "cap": 10000},
    })
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    assert main(["sweep", "--config", path, "--out", a]) == 0
    assert main(["sweep", "--config", path, "--out", b, "--threads", "8"]) == 0
    capsys.readouterr()
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_cli_unwritable_out_is_a_config_error_and_leaves_no_temp_file(tmp_path, capsys):
    lyap = write_cfg(tmp_path, {
        "multimap": {"generators": [Z2, Z3]},
        "t_values": [1.0],
        "thermo": {"depth": 4, "cap": 1000},
    }, name="lyap.json")
    sweep = write_cfg(tmp_path, {
        "family": family_scaled_square(),
        "grid": {"re_min": 0.4, "re_max": 0.5, "re_n": 2,
                 "im_min": 0.0, "im_max": 0.0, "im_n": 1},
        "thermo": {"depth": 4, "cap": 1000},
    }, name="sweep.json")
    taken = tmp_path / "taken"
    taken.mkdir()
    for cmd, cfg, out in (("lyap", lyap, tmp_path / "missing" / "x.csv"), ("sweep", sweep, taken)):
        assert main([cmd, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: cannot write {out}: "), err
    assert not list(tmp_path.rglob("*.tmp.*"))


def test_cli_unwritable_out_fails_before_any_work(tmp_path, capsys, monkeypatch):
    def work(*args, **kwargs):
        raise AssertionError("the command ran before its output was checked")

    for name in ("julia_backward_cloud", "sweep_delta", "PreimageTree", "bowen_parameter"):
        monkeypatch.setattr(cli, name, work)
    taken = tmp_path / "taken"
    taken.mkdir()
    missing = tmp_path / "missing" / "x.out"
    gens = {"multimap": {"generators": [Z2, Z3]}}
    sweep = {"family": family_scaled_square(),
             "grid": {"re_min": 0.4, "re_max": 0.5, "re_n": 2, "im_min": 0.0, "im_max": 0.0,
                      "im_n": 1}}
    runs = [
        ("julia", {**gens, "render": {"out": str(taken)}}, [], taken),
        ("julia", gens, ["--out", str(missing)], missing),
        ("sweep", {**sweep, "sweep": {"out": str(missing)}}, [], missing),
        ("sweep", sweep, ["--out", str(taken)], taken),
        ("lyap", gens, ["--out", str(missing)], missing),
        ("poincare", gens, ["--out", str(taken)], taken),
        ("bowen", gens, ["--out", str(missing)], missing),
    ]
    for cmd, data, flags, out in runs:
        assert main([cmd, "--config", write_cfg(tmp_path, data), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        reason = os.strerror(errno.EISDIR if out == taken else errno.ENOENT)
        assert captured.err.splitlines() == [f"config error: cannot write {out}: {reason}"]


def test_cli_boxdim_circle(tmp_path, capsys):
    path = write_cfg(tmp_path, {
        "multimap": {"generators": [Z2]},
        "julia": {"depth": 13},
    })
    assert main(["boxdim", "--config", path]) == 0
    out = capsys.readouterr().out
    slope = float(next(l for l in out.splitlines()
                       if l.startswith("box dimension slope")).split()[4])
    assert 0.9 <= slope <= 1.1
    assert "scale,count" in out


def test_cli_depth_flag_overrides(tmp_path, capsys):
    path = write_cfg(tmp_path, {
        "multimap": {"generators": [Z2, Z2]},
        "thermo": {"depth": 10, "cap": 20000},
    })
    assert main(["bowen", "--config", path, "--depth", "6"]) == 0
    out = capsys.readouterr().out
    depth_line = next(l for l in out.splitlines() if l.startswith("depth = "))
    assert int(depth_line.split()[2].rstrip(",")) <= 6


def test_cli_config_error_exit_2(tmp_path, capsys):
    assert main(["bowen", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["bowen", "--config", str(bad)]) == 2
    unknown = write_cfg(tmp_path, {"multimap": {"generators": [Z2]}, "zzz": 1},
                        name="unknown.json")
    assert main(["bowen", "--config", unknown]) == 2
    no_region = write_cfg(tmp_path, {"multimap": {"generators": [Z2]}},
                          name="noregion.json")
    assert main(["osc", "--config", no_region]) == 2
    mm_sweep = write_cfg(tmp_path, {"multimap": {"generators": [Z2]}},
                         name="mmsweep.json")
    assert main(["sweep", "--config", mm_sweep]) == 2
    no_lam = write_cfg(tmp_path, {"family": family_scaled_square()},
                       name="nolam.json")
    assert main(["julia", "--config", no_lam]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    # the OSC window is fixed: an unbounded one once turned a failing verdict into a pass
    wide = write_cfg(tmp_path, {
        "multimap": {"generators": [Z2, gen_poly([0, 0, 0.5])]},
        "region": {"kind": "annulus", "center": [0.0, 0.0], "r1": 0.3, "r2": 2.5},
        "osc": {"enlarge": 1e308},
    }, name="wide.json")
    assert main(["osc", "--config", wide]) == 2
    assert capsys.readouterr().err.startswith("config error: config.osc: unknown keys ['enlarge']")
    null_thermo = write_cfg(tmp_path, {"multimap": {"generators": [Z2]}, "thermo": None},
                            name="nullthermo.json")
    assert main(["pressure", "--config", null_thermo]) == 2
    assert capsys.readouterr().err.startswith("config error: config.thermo:")


def test_demo_configs_parse_and_round_trip():
    import pathlib

    configs = sorted((pathlib.Path(__file__).parent.parent / "demos"
                      / "configs").glob("*.json"))
    assert len(configs) >= 5
    for path in configs:
        cfg = parse_file(str(path))
        assert parse(emit(cfg)) == cfg
        if "multimap" in cfg.data:
            cfg.multimap()
        else:
            cfg.family_spec()


def test_public_api_resolves_and_covers_the_demos():
    public = {}
    exec("from ratsemi import *", public)
    demos = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))
    assert len(demos) >= 5
    imported = {
        alias.name
        for path in demos
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ratsemi"
        for alias in node.names
    }
    assert imported and imported <= public.keys()


def test_cli_verbose_echoes_normalized_config(tmp_path, capsys):
    path = write_cfg(tmp_path, {
        "multimap": {"generators": [Z2]},
        "t_values": [0.0],
        "thermo": {"depth": 6, "cap": 5000},
    })
    assert main(["pressure", "--config", path, "--verbose"]) == 0
    captured = capsys.readouterr()
    assert '"rng_seed"' in captured.err
    assert captured.out.startswith("t,value,residual,depth")
