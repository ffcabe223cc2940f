"""Command-line front end: config loading, subcommand dispatch, CSV/PPM
emission.  Single-threaded by design; --threads is accepted so batch scripts
can pass it, but outputs never depend on it.

Exit codes: 0 success, 1 other computation error, 2 config error or
unwritable output, 3 no repelling seed, 4 pressure never crosses zero,
5 critical preimage, 6 open-set-condition failure, 7 hyperbolicity unverified.
"""
from __future__ import annotations

import argparse
import errno
import math
import os
import sys

import numpy as np

from .config import RunConfig, emit, parse_file
from .dynamics import check_hyperbolic  # noqa: F401  unused here; perfbench/spans.py patches this name
from .dynamics import julia_backward_cloud
from .errors import ConfigError, HyperbolicityUnverified, InsufficientPoints, RatsemiError
from .families import smoothness_diagnostic, submean_diagnostic, sweep_delta
from .geometry import _bounds, _slices, box_dimension, osc_check
from .sphere import INF_Z
from .thermo import PreimageTree, bowen_parameter, lyapunov_and_entropy, pressure_curve

EXIT_OSC_FAIL = 6  # the one exit code no RatsemiError carries (errors.py has the rest)


def _g17(x) -> str:
    return f"{float(x):.17g}"


def _fmt_point(z) -> str:
    return "inf" if z == INF_Z else f"{z.real:.6g}{z.imag:+.6g}i"


def _atomic_write(path: str, *chunks) -> None:  # chunks: bytes-like, written in order
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except OSError as e:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise ConfigError(f"cannot write {path}: {e.strerror or e}") from e


def _resolve_out(cfg: RunConfig, args) -> None:
    """Set args.out to the file the command writes: --out, else render.out for
    julia and sweep.out for sweep.  A directory, or a path whose directory
    does not exist, is rejected before any work."""
    section = {"julia": "render", "sweep": "sweep"}.get(args.command)
    out = args.out = args.out or (cfg.data[section]["out"] if section else None)
    if out and os.path.isdir(out):
        raise ConfigError(f"cannot write {out}: {os.strerror(errno.EISDIR)}")
    if out and not os.path.isdir(os.path.dirname(out) or "."):
        raise ConfigError(f"cannot write {out}: {os.strerror(errno.ENOENT)}")


def _csv_text(header: str, rows) -> str:
    return header + "\n" + "".join(r + "\n" for r in rows)


def _write_csv(path: str, header: str, rows) -> None:
    _atomic_write(path, _csv_text(header, rows).encode("ascii"))


def _julia_cloud(cfg: RunConfig):
    """The backward-orbit cloud of the configured system, as the julia section sets it."""
    mm = cfg.multimap()
    ju = cfg.data["julia"]
    return julia_backward_cloud(mm, depth=ju["depth"], cap=ju["cap"], rng_seed=ju["rng_seed"])


# ---------------------------------------------------------------------------
# subcommands


def cmd_julia(cfg: RunConfig, args) -> int:
    cloud = _julia_cloud(cfg)
    rn = cfg.data["render"]
    zs = [lev.z for lev in cloud.levels]  # read level by level, in slices: never concatenated
    n_finite, (xmin, xmax), (ymin, ymax), (rmin, rmax) = _bounds(zs, np.real, np.imag, np.abs)
    if n_finite == 0:
        raise RatsemiError("cloud has no finite points to render")
    if rn["viewport"] is not None:
        vx0, vx1, vy0, vy1 = rn["viewport"]
    else:
        # pad the bounding box so boundary points stay visible
        pad = 0.05 * max(xmax - xmin, ymax - ymin, 1e-9)
        vx0, vx1, vy0, vy1 = xmin - pad, xmax + pad, ymin - pad, ymax + pad

    w, h = rn["width"], rn["height"]
    img = np.full((h, w, 3), 255, dtype=np.uint8)
    for d, z in enumerate(zs):  # in depth order, so deeper levels overwrite
        f = d / cloud.depth if rn["depth_coloring"] and cloud.depth > 0 else None
        color = 0 if f is None else np.round([230 * (1.0 - f), 30, 230 * f]).astype(np.uint8)
        for s in _slices(z):
            px = np.floor((s.real - vx0) / (vx1 - vx0) * w).astype(np.int64)
            py = np.floor((vy1 - s.imag) / (vy1 - vy0) * h).astype(np.int64)
            keep = (px >= 0) & (px < w) & (py >= 0) & (py < h)
            if not keep.all():  # the padded default viewport keeps every point and copies nothing
                px, py = px[keep], py[keep]
            img[py, px] = color
    _atomic_write(args.out, f"P6\n{w} {h}\n255\n".encode("ascii"), img)

    meta = cloud.meta
    print(f"points {n_finite} finite + {cloud.size - n_finite} at infinity "
          f"({cloud.size} total, depth {cloud.depth})")
    print(f"bounding box [{xmin:.6g}, {xmax:.6g}] x [{ymin:.6g}, {ymax:.6g}]")
    print(f"radial range [{rmin:.6g}, {rmax:.6g}]")
    print(f"seed {_fmt_point(meta['seed_point'])} from generator {meta['seed_generator']}")
    print(f"wrote {args.out}")
    return 0


def _gate_line(rep) -> str:
    dist = rep.metrics.get("min_distance", math.nan)
    return (
        f"hyperbolicity {rep.verdict} "
        f"(min postcritical-to-cloud distance {dist:.6g}, margin {rep.margin:.6g})"
    )


def cmd_bowen(cfg: RunConfig, args) -> int:
    try:
        res = bowen_parameter(cfg.multimap(), cfg.thermo_config())
    except HyperbolicityUnverified as e:
        print(_gate_line(e.report))
        print("refusing to report a Bowen parameter; set thermo.force to override")
        return e.exit_code
    lo, hi = res.bracket
    print(f"delta = {res.delta:.10g} +/- {res.delta_error:.3g}")
    print(f"bracket = [{lo:.10g}, {hi:.10g}]")
    print(
        f"pressure at delta = {res.pressure_at_delta:.6g} "
        f"(residual {res.pressure_residual:.6g})"
    )
    print(f"depth = {res.depth}, root-search evaluations = {res.evaluations}")
    print(_gate_line(res.gate))
    if res.delta - res.delta_error > 2.0:
        print(
            "note: delta exceeds 2 beyond its error bar, so no open set in the "
            "plane can satisfy the open set condition for this system"
        )
    if args.out:
        row = [res.delta, lo, hi, res.pressure_at_delta, res.pressure_residual, res.delta_error]
        _write_csv(
            args.out,
            "delta,bracket_lo,bracket_hi,pressure_at_delta,pressure_residual,delta_error,depth",
            [",".join([*map(_g17, row), str(res.depth)])],
        )
        print(f"wrote {args.out}")
    return 0


def _emit_t_csv(rows, out) -> int:
    """Print the (t, value, residual, depth) rows as the t-grid CSV, also to out if set."""
    text = _csv_text("t,value,residual,depth",
                     [",".join([*map(_g17, (t, v, r)), str(depth)]) for t, v, r, depth in rows])
    sys.stdout.write(text)
    if out:
        _atomic_write(out, text.encode("ascii"))
    return 0


def cmd_pressure(cfg: RunConfig, args) -> int:
    ests = pressure_curve(cfg.multimap(), cfg.data["t_values"], cfg.thermo_config(),
                          cfg.basepoint())
    return _emit_t_csv([(e.t, e.value, e.residual, e.depth) for e in ests], args.out)


def cmd_poincare(cfg: RunConfig, args) -> int:
    mm, tcfg, N = cfg.multimap(), cfg.thermo_config(), cfg.data["poincare_N"]
    tree = PreimageTree(mm, cfg.basepoint(), depth=N, cap=tcfg.cap, rng_seed=tcfg.rng_seed)
    rows = [(t, *tree.poincare(float(t), N), N) for t in cfg.data["t_values"]]
    return _emit_t_csv(rows, args.out)


def cmd_lyap(cfg: RunConfig, args) -> int:
    ests = lyapunov_and_entropy(cfg.multimap(), cfg.data["t_values"], cfg.thermo_config(),
                                cfg.basepoint())
    return _emit_t_csv([(e.t, e.lyapunov, e.residual, e.depth) for e in ests], args.out)


def cmd_osc(cfg: RunConfig, args) -> int:
    oc = cfg.data["osc"]  # its keys are osc_check's keyword arguments
    rep = osc_check(cfg.multimap(), cfg.region(), **oc)
    print(
        f"osc {rep.verdict} (variant {oc['variant']}, grid {oc['grid_n']}, "
        f"spacing {rep.margin:.6g}, {rep.metrics['samples']} samples)"
    )
    print(
        f"violations: nesting {rep.metrics['violations_nesting']}, "
        f"overlap {rep.metrics['violations_overlap']}"
    )
    for pt, detail in rep.witnesses:
        print(f"witness {_fmt_point(pt)}: {detail}")
    return 0 if rep.passed else EXIT_OSC_FAIL


def cmd_sweep(cfg: RunConfig, args) -> int:
    fam = cfg.family_spec()
    grid = cfg.grid_spec()
    line = cfg.data["sweep"]["smooth_line"] or ["col", grid.im_n // 2]
    try:
        grid.check_line(line)
    except ValueError as e:
        raise ConfigError(f"config.sweep.smooth_line: {e}") from e
    table = sweep_delta(fam, grid, cfg.thermo_config())
    rows = []
    for r in table.rows:
        ok = r.status == "ok"
        fit = [_g17(r.delta), _g17(r.pressure_residual), str(r.depth)] if ok else ["", "", ""]
        rows.append(",".join([_g17(r.lam.real), _g17(r.lam.imag), *fit, r.status]))
    _write_csv(args.out, "re_lambda,im_lambda,delta,pressure_residual,depth,status", rows)
    n_ok = sum(1 for r in table.rows if r.status == "ok")
    print(f"wrote {args.out} ({len(table.rows)} rows, {n_ok} ok)")

    sub = submean_diagnostic(table, radius=cfg.data["sweep"]["submean_radius"])
    print(
        f"submean {sub.verdict}: worst violation {sub.worst_violation:.6g}, "
        f"reciprocal {sub.worst_reciprocal_violation:.6g} "
        f"(tol_sub {sub.tol_sub:.6g}, centers {sub.centers_checked})"
    )
    try:
        smooth = smoothness_diagnostic(table, line, fit_degree=cfg.data["sweep"]["fit_degree"])
    except InsufficientPoints as e:
        print(f"smoothness skipped: {e}")
    else:
        print(
            f"smoothness ({line[0]} {line[1]}): max residual {smooth.max_residual:.6g} "
            f"= {smooth.residual_ratio:.3g}x error scale {smooth.error_scale:.6g} "
            f"over {smooth.points_used} points"
        )
        if smooth.min_psh_indicator is not None:
            print(
                f"psh indicator min {smooth.min_psh_indicator:.6g} "
                f"(noise estimate {smooth.psh_noise:.6g}) "
                f"at {smooth.psh_argmin.real:.6g}{smooth.psh_argmin.imag:+.6g}i"
            )
    return 0


def cmd_boxdim(cfg: RunConfig, args) -> int:
    # the boxdim section's keys are box_dimension's keyword arguments
    res = box_dimension(_julia_cloud(cfg), **cfg.data["boxdim"])
    print(f"box dimension slope = {res.slope:.6g} (r^2 = {res.r_squared:.6g})")
    print("scale,count")
    rows = []
    for eps, count in zip(res.scales, res.counts):
        line = f"{_g17(eps)},{count}"
        print(line)
        rows.append(line)
    if args.out:
        _write_csv(args.out, "scale,count", rows)
        print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# dispatch


_COMMANDS = (
    ("julia", cmd_julia, "render a backward-orbit Julia cloud to a PPM image"),
    ("bowen", cmd_bowen, "solve for the Bowen parameter (pressure zero)"),
    ("pressure", cmd_pressure, "pressure estimates over the configured t grid"),
    ("poincare", cmd_poincare, "truncated Poincare series over the t grid"),
    ("lyap", cmd_lyap, "Lyapunov exponents of the Gibbs state over the t grid"),
    ("osc", cmd_osc, "sampled open-set-condition check for the configured region"),
    ("sweep", cmd_sweep, "Bowen parameter over a parameter grid, with diagnostics"),
    ("boxdim", cmd_boxdim, "box-counting dimension of the Julia cloud"),
)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ratsemi",
        description="thermodynamic-formalism toolkit for rational map semigroups",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn, help_text in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON run config")
        p.add_argument("--out", default=None, help="output file (overrides config)")
        p.add_argument(
            "--threads",
            type=int,
            default=None,
            help="accepted for compatibility; execution is single-threaded and "
            "outputs never depend on it",
        )
        p.add_argument("--seed", type=int, default=None,
                       help="override every rng seed in the config")
        p.add_argument("--depth", type=int, default=None,
                       help="override thermo and julia depth")
        p.add_argument("--verbose", action="store_true",
                       help="echo the normalized config to stderr")
        p.set_defaults(fn=fn)
    return ap


def _apply_flags(cfg: RunConfig, args) -> None:
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("--seed must be nonnegative")
        cfg.data["rng_seed"] = args.seed
        cfg.data["thermo"]["rng_seed"] = args.seed
        cfg.data["julia"]["rng_seed"] = args.seed
    if args.depth is not None:
        if args.depth < 2:
            raise ConfigError("--depth must be at least 2")
        cfg.data["thermo"]["depth"] = args.depth
        cfg.data["julia"]["depth"] = args.depth


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_file(args.config)
        _apply_flags(cfg, args)
        _resolve_out(cfg, args)
        if args.verbose:
            sys.stderr.write(emit(cfg))
        return args.fn(cfg, args)
    except RatsemiError as e:
        kind = "config error" if isinstance(e, ConfigError) else "error"
        print(f"{kind}: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
