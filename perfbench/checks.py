"""Output checks for the benchmark workloads.

Every check compares what the ratsemi CLI printed or wrote against a value
computed here from the mathematics of the input, never against a stored copy
of an earlier output and never through ratsemi itself.  Each function takes
the finished invocations of one workload round and returns one
``(ok, message)`` pair per operation.
"""
from __future__ import annotations

import json
import math
import re
import sys
from collections import Counter

# Tolerances; README.md gives the reasoning behind each value.
SWEEP_TOL = 2e-4       # |delta - log 3 / log(1/|lambda|)| per sweep row
LYAP_SE_LIMIT = 6.0    # |lyapunov + P'(t)| per lyap row, in sampling standard errors
DEFAULT_CAP = 200_000  # per-level cap of a config that sets none
RADIUS_TOL = 1e-3      # slack on the annulus radii 1 and 2
BOX_SLOPE_MIN = 1.8    # box slope of a planar set of dimension 2
_NUM = r"([-+0-9.eEinfa]+)"


def _float_after(pattern: str, text: str):
    m = re.search(pattern, text, re.MULTILINE)
    return None if m is None else [float(g) for g in m.groups()]


def _csv_rows(inv, name):
    """Data rows of an output CSV as lists of strings, or None if absent."""
    data = inv.files.get(name)
    if data is None:
        return None
    lines = data.decode("ascii", "replace").splitlines()
    return [line.split(",") for line in lines[1:]]


def _exit_ok(inv):
    if inv.exit_code != 0:
        return False, f"{inv.label}: exit code {inv.exit_code}"
    return True, ""


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def check_bowen(invs, config_path):
    """One operation: the Bowen parameter of a_j z^2, j = 1..s.

    For a_j z^d the map r -> d r + log|a_j| on log-radius and z -> z^d on the
    angle make every branch expand by exactly d in the cylinder metric, which
    differs from the spherical one by a coboundary.  So the level-n sums are
    (s d)^n d^(-n t), the pressure is log(s d) - t log d and the zero is
    delta = log(s d) / log d = 1 + log 3 / log 2 for s = 3, d = 2.

    Whether the oracle lies within the printed delta_error depends on the
    seed (the error bar is not calibrated), so a miss is reported on stderr
    as a calibration fault but is not a failed operation.
    """
    (inv,) = invs
    ok, msg = _exit_ok(inv)
    if not ok:
        return [(False, msg)]
    gens = _load(config_path)["multimap"]["generators"]
    degrees = {len(g["num"]) - 1 for g in gens}
    if len(degrees) != 1:
        return [(False, "bowen check expects generators of one degree")]
    d = degrees.pop()
    oracle = math.log(len(gens) * d) / math.log(d)
    rows = _csv_rows(inv, "bowen.csv")
    if not rows or len(rows[0]) != 7:
        return [(False, "bowen: bowen.csv missing or malformed")]
    delta, err = float(rows[0][0]), float(rows[0][5])
    if not abs(delta - oracle) <= err:
        print(
            f"{inv.label}: calibration fault: |delta - {oracle:.10f}| = "
            f"{abs(delta - oracle):.3g} exceeds the printed delta_error {err:.3g}",
            file=sys.stderr,
        )
    problems = []
    if not delta - err > 2.0:
        problems.append(f"delta - delta_error = {delta - err:.6g} is not above 2")
    if "note: delta exceeds 2" not in inv.stdout_text:
        problems.append("the 'delta exceeds 2' note is missing")
    return [(not problems, "bowen: " + "; ".join(problems))]


def _linspace(lo, hi, n):
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)] if n > 1 else [lo]


def check_sweep(invs, config_path):
    """One operation per grid row, plus one for the sub-mean verdict.

    The family is three similarities z -> lambda z + c_j (the inverse
    branches of (z - c_j (1 - lambda)) / lambda), so Moran's equation
    3 |lambda|^delta = 1 gives delta = log 3 / log(1/|lambda|).  1/delta is
    then harmonic in lambda, so the sub-mean diagnostic has to pass.
    """
    (inv,) = invs
    cfg = _load(config_path)
    g = cfg["grid"]
    n_maps = len(cfg["family"]["generators"])
    expected = {
        (round(re_, 9), round(im_, 9))
        for re_ in _linspace(g["re_min"], g["re_max"], g["re_n"])
        for im_ in _linspace(g["im_min"], g["im_max"], g["im_n"])
    }
    # a row the program never wrote still counts as attempted
    by_key = {key: (False, f"sweep: row {key} missing") for key in expected}
    seen, stray = set(), []
    for row in _csv_rows(inv, "sweep.csv") or []:
        key = (round(float(row[0]), 9), round(float(row[1]), 9)) if len(row) == 6 else None
        if key not in by_key or key in seen:
            stray.append(row)
            continue
        seen.add(key)
        if row[5] != "ok":
            by_key[key] = (False, f"sweep: row {key} has status {row[5]}")
        else:
            oracle = math.log(n_maps) / -math.log(abs(complex(*key)))
            gap = abs(float(row[2]) - oracle)
            by_key[key] = (gap <= SWEEP_TOL, f"sweep: row {key} misses Moran by {gap:.3g}")
    ok, msg = _exit_ok(inv)
    if ok and stray:
        ok, msg = False, f"sweep: {len(stray)} malformed, unexpected or repeated rows"
    elif ok and not re.search(r"^submean pass", inv.stdout_text, re.MULTILINE):
        ok, msg = False, "sweep: sub-mean verdict is not pass"
    return [by_key[key] for key in sorted(by_key)] + [(ok, msg)]


def lyap_sampling_se(degrees, t, depth, cap):
    """Standard error of -d/dt log S_depth(t) when only level depth is capped.

    Level n of the power-map tree has prod(d) nodes per word, each with log
    derivative sum(log d) over its word, so the level is known exactly as a
    population.  The cap keeps a uniform sample without replacement from each
    stratum of the newest symbol j (N_j = d_j D^(n-1) nodes, D = sum d),
    allocated in proportion, and reweights it by N_j / k_j.  The estimate is
    the ratio sum w e^(-tL) L / sum w e^(-tL); this is its linearised
    standard error with the finite-population correction.
    """
    total = sum(degrees)
    if total ** (depth - 1) > cap or total ** depth <= cap:
        raise ValueError("the standard error assumes exactly the last level is capped")
    parents = Counter({0.0: 1})  # log derivative -> node count at level depth-1
    for _ in range(depth - 1):
        nxt = Counter()
        for logd, count in parents.items():
            for d in degrees:
                nxt[round(logd + math.log(d), 12)] += count * d
        parents = nxt
    strata = [
        [(count * d, logd + math.log(d)) for logd, count in parents.items()] for d in degrees
    ]
    population = [(c, L) for stratum in strata for c, L in stratum]
    s_t = math.fsum(c * math.exp(-t * L) for c, L in population)
    mean = math.fsum(c * math.exp(-t * L) * L for c, L in population) / s_t
    var = 0.0
    for stratum in strata:
        n_j = sum(c for c, _ in stratum)
        k_j = cap * n_j / total**depth
        ys = [(c, math.exp(-t * L) * (L - mean)) for c, L in stratum]
        y_bar = math.fsum(c * y for c, y in ys) / n_j
        s2 = math.fsum(c * (y - y_bar) ** 2 for c, y in ys) / (n_j - 1)
        var += n_j**2 * (1.0 - k_j / n_j) * s2 / k_j
    return math.sqrt(var) / s_t


def check_lyap(invs, config_path, depth):
    """One operation per t-row.

    Power maps z^d keep the unit circle invariant with |f'| = d on it, so
    P(t) = log sum_j d_j^(1-t) and the Lyapunov exponent is
    -P'(t) = sum d^(1-t) log d / sum d^(1-t).  The capped last level makes
    the estimate random; a row may miss by LYAP_SE_LIMIT standard errors.
    """
    (inv,) = invs
    cfg = _load(config_path)
    degrees = [len(g["num"]) - 1 for g in cfg["multimap"]["generators"]]
    cap = cfg.get("thermo", {}).get("cap", DEFAULT_CAP)
    t_values = cfg["t_values"]
    rows = _csv_rows(inv, "lyap.csv") or []
    results = []
    for k, t in enumerate(t_values):
        if k >= len(rows) or len(rows[k]) != 4 or float(rows[k][0]) != float(t):
            results.append((False, f"lyap: row for t = {t} missing or malformed"))
            continue
        w = [d ** (1.0 - t) for d in degrees]
        oracle = math.fsum(wi * math.log(d) for wi, d in zip(w, degrees)) / math.fsum(w)
        gap = abs(float(rows[k][1]) - oracle)
        tol = LYAP_SE_LIMIT * lyap_sampling_se(degrees, t, depth, cap)
        results.append((gap <= tol, f"lyap: t = {t} misses -P'(t) by {gap:.3g} > {tol:.3g}"))
    if inv.exit_code != 0:
        results = [_exit_ok(inv)] * len(t_values)
    return results


def check_julia(inv, config_path):
    """The annulus cloud lies in 1 <= |z| <= 2 and the PPM is well formed.

    z^2 keeps |z| = 1 and z^2 / 2 keeps |z| = 2; their inverse branches map
    the closed annulus 1 <= |z| <= 2 into itself, so it holds the Julia set.
    """
    ok, msg = _exit_ok(inv)
    if not ok:
        return ok, msg
    problems = []
    radii = _float_after(rf"^radial range \[{_NUM}, {_NUM}\]", inv.stdout_text)
    if radii is None:
        problems.append("no radial range line")
    elif not (radii[0] >= 1.0 - RADIUS_TOL and radii[1] <= 2.0 + RADIUS_TOL):
        problems.append(f"radial range {radii} leaves [1, 2]")
    render = _load(config_path)["render"]
    w, h = render["width"], render["height"]
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    ppm = inv.files.get("julia.ppm", b"")
    if not ppm.startswith(header) or len(ppm) != len(header) + 3 * w * h:
        problems.append(f"julia.ppm header or length does not match {w}x{h}")
    return not problems, "julia: " + "; ".join(problems)


def check_boxdim(inv):
    ok, msg = _exit_ok(inv)
    if not ok:
        return ok, msg
    slope = _float_after(rf"^box dimension slope = {_NUM}", inv.stdout_text)
    if slope is None or not slope[0] >= BOX_SLOPE_MIN:
        return False, f"boxdim: slope {slope} is below {BOX_SLOPE_MIN}"
    return True, ""


def check_osc(inv):
    """The preimages of 1 < |z| < 2 are 1 < |z| < sqrt 2 under z^2 and
    sqrt 2 < |z| < 2 under z^2 / 2: nested and disjoint, so OSC holds."""
    ok, msg = _exit_ok(inv)
    if not ok:
        return ok, msg
    if not re.search(r"^osc pass", inv.stdout_text, re.MULTILINE):
        return False, "osc: verdict is not pass"
    return True, ""


def check_annulus(invs, config_path):
    julia, boxdim, osc = invs
    return [check_julia(julia, config_path), check_boxdim(boxdim), check_osc(osc)]
