"""One-parameter map families: instantiation, Bowen-parameter sweeps over
grids in the parameter plane, and sub-mean-value / smoothness diagnostics.

A family holds generators whose numerator and denominator coefficients are
polynomials in a single complex parameter, kept as tuples of ascending
complex coefficients.  Instantiating at a parameter value evaluates every
coefficient polynomial with sphere.horner and builds the multi-map.  Sweeps
instantiate, gate and seed each grid point on its own, then run the Bowen
root searches of consecutive same-signature points in lockstep blocks on one
shared preimage tree, and record failures as row statuses instead of raising.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import MultiMap, _integer
from .errors import InsufficientPoints, InvalidInstance, RatsemiError
from .sphere import RationalMap, horner
from .thermo import (
    ThermoConfig,
    _bowen_search,
    _config_tree,
    _prepare,
    bowen_parameter,  # noqa: F401  unused here; perfbench/spans.py patches this name
)

# deepest-level tree nodes of one sweep block, all its points together: six
# similarity points (depth 9, 19,683 nodes each).  The deepest level keeps no
# points; the similarity sweep peaks at 35.2 MiB RSS, about 1 MiB above blocks of three
_BLOCK_NODES = 120_000


def _as_poly(c) -> tuple:
    """One coefficient of a FamilySpec generator as an ascending tuple."""
    if isinstance(c, (int, float, complex, np.number)):
        return (complex(c),)
    if hasattr(c, "coef"):
        if type(c).__name__ != "Polynomial" or not np.array_equal(c.domain, c.window):
            raise ValueError(f"parameter polynomial {c!r} is not a Polynomial whose domain "
                             "equals its window; pass its ascending coefficients instead")
        c = c.coef
    c = np.asarray(c, dtype=complex)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("a parameter polynomial needs a non-empty 1-d list of coefficients")
    return tuple(c.tolist())


# ---------------------------------------------------------------------------
# parameter domains


@dataclass(frozen=True)
class RectDomain:
    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        if not (self.re_min <= self.re_max and self.im_min <= self.im_max):
            raise ValueError("rectangle bounds must be ordered")

    def contains(self, lam: complex) -> bool:
        return self.re_min <= lam.real <= self.re_max and self.im_min <= lam.imag <= self.im_max


@dataclass(frozen=True)
class AnnulusDomain:
    center: complex
    r1: float
    r2: float

    def __post_init__(self):
        if not 0 <= self.r1 < self.r2:
            raise ValueError("annulus needs 0 <= r1 < r2")

    def contains(self, lam: complex) -> bool:
        return self.r1 <= abs(lam - self.center) <= self.r2


@dataclass
class FamilySpec:
    """Generators as (numerator, denominator) tuples of coefficient
    polynomials in the parameter, plus the parameter domain and punctures.
    A coefficient is a number, a non-empty sequence of ascending coefficients
    in the parameter, or a numpy Polynomial whose domain equals its window
    (read by its coef); each is stored as a tuple of complex numbers."""

    generators: tuple
    domain: object
    excluded: tuple = ()
    puncture_tol: float = 1e-9

    def __post_init__(self):
        self.generators = tuple((tuple(map(_as_poly, num)), tuple(map(_as_poly, den)))
                                for num, den in self.generators)
        self.excluded = tuple(complex(p) for p in self.excluded)
        if not self.generators:
            raise ValueError("family needs at least one generator")
        if not hasattr(self.domain, "contains"):
            raise TypeError("domain must provide a contains() test")


def instantiate(fam: FamilySpec, lam) -> MultiMap:
    """Evaluate every coefficient polynomial at the parameter and build the
    multi-map; any degeneracy surfaces as InvalidInstance."""
    lam = complex(lam)
    if not fam.domain.contains(lam):
        raise InvalidInstance(f"parameter {lam} lies outside the family domain")
    for p in fam.excluded:
        if abs(lam - p) <= fam.puncture_tol:
            raise InvalidInstance(f"parameter {lam} is an excluded puncture")
    maps = []
    for k, (num_polys, den_polys) in enumerate(fam.generators, start=1):
        num = [horner(q, lam) for q in num_polys]
        den = [horner(q, lam) for q in den_polys]
        try:
            maps.append(RationalMap(num, den))
        except ValueError as e:
            raise InvalidInstance(f"generator {k} is degenerate at parameter {lam}: {e}") from e
    return MultiMap(maps)


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class GridSpec:
    """Rectangular parameter grid; rows are emitted with the real axis as the
    outer loop and the imaginary axis as the inner loop."""

    re_min: float
    re_max: float
    re_n: int
    im_min: float
    im_max: float
    im_n: int

    def __post_init__(self):
        if self.re_n < 1 or self.im_n < 1:
            raise ValueError("grid needs at least one point per axis")
        if not np.isfinite([self.re_min, self.re_max, self.im_min, self.im_max]).all():
            raise ValueError("grid bounds must be finite")
        if self.re_min > self.re_max or self.im_min > self.im_max:
            raise ValueError("grid bounds must be ordered")
        if self.re_n > 1 and self.re_min == self.re_max or self.im_n > 1 and self.im_min == self.im_max:
            raise ValueError("an axis with more than one point needs a positive width")

    @property
    def re_values(self) -> np.ndarray:
        return np.linspace(self.re_min, self.re_max, self.re_n)

    @property
    def im_values(self) -> np.ndarray:
        return np.linspace(self.im_min, self.im_max, self.im_n)

    def check_line(self, line) -> None:
        """ValueError unless line is ('row', i) or ('col', j), integers i < re_n and j < im_n."""
        axis, idx = line
        if axis not in ("row", "col"):
            raise ValueError("line must be ('row', i) or ('col', j)")
        if not 0 <= _integer(idx, f"{axis} index") < (self.re_n if axis == "row" else self.im_n):
            raise ValueError(f"{axis} {idx} lies outside the {self.re_n} x {self.im_n} grid")

    def points(self):
        for re in self.re_values:
            for im in self.im_values:
                yield complex(re, im)


@dataclass
class SweepRow:
    lam: complex
    delta: float | None
    pressure_residual: float | None
    depth: int | None
    status: str
    delta_error: float | None


@dataclass
class SweepTable:
    rows: list
    grid: GridSpec

    @property
    def shape(self):
        return (self.grid.re_n, self.grid.im_n)

    def row_at(self, i: int, j: int) -> SweepRow:
        return self.rows[i * self.grid.im_n + j]

    def field(self, name: str, dtype=float) -> np.ndarray:
        """The named SweepRow field over the grid, nan where the row is not ok."""
        values = [getattr(r, name) if r.status == "ok" else np.nan for r in self.rows]
        return np.array(values, dtype=dtype).reshape(self.shape)

    def error_scale(self) -> float:
        errs = [r.delta_error for r in self.rows if r.status == "ok"]
        if not errs:
            return math.nan
        return float(np.median(errs))


def _solve_block(mms, seeds, cfg: ThermoConfig) -> list:
    """The BowenResult (gate None) or own RatsemiError of each prepared point,
    searched in lockstep on one tree; if the shared tree raises, in blocks of one."""
    try:
        return _bowen_search(_config_tree(mms, seeds, cfg), cfg)
    except RatsemiError as e:
        if len(mms) == 1:
            return [e]
        return [r for mm, seed in zip(mms, seeds) for r in _solve_block([mm], [seed], cfg)]


def _row(lam, res) -> SweepRow:
    if not isinstance(res, RatsemiError):
        return SweepRow(lam, res.delta, res.pressure_residual, res.depth, "ok", res.delta_error)
    if res.status is None:
        raise res
    return SweepRow(lam, None, None, None, res.status, None)


def sweep_delta(fam: FamilySpec, grid: GridSpec, config: ThermoConfig | None = None,
                **overrides) -> SweepTable:
    """Bowen parameter per grid point.  Each point is instantiated, gated and
    seeded on its own; consecutive points with one degree signature are then
    searched in blocks of at most _BLOCK_NODES deepest-level tree nodes.  An
    error whose class has a sweep status (errors.py) becomes the status of
    the point that raised it; any other error raises."""
    cfg = replace(config if config is not None else ThermoConfig(), **overrides)
    rows, block = [], []  # block: (row index, mm, seed) of consecutive prepared points

    def flush():
        indices, mms, seeds = zip(*block)
        for i, res in zip(indices, _solve_block(mms, seeds, cfg)):
            rows[i] = _row(rows[i], res)  # rows[i] held the parameter until now
        block.clear()

    for lam in grid.points():
        rows.append(lam)
        try:
            mm = instantiate(fam, lam)
            seed = _prepare(mm, cfg)[1]
        except RatsemiError as e:
            rows[-1] = _row(lam, e)
            continue
        nodes = min(cfg.cap, mm.total_degree ** cfg.depth)
        if block and (block[0][1].degrees != mm.degrees or (len(block) + 1) * nodes > _BLOCK_NODES):
            flush()
        block.append((len(rows) - 1, mm, seed))
    if block:
        flush()
    return SweepTable(rows, grid)


# ---------------------------------------------------------------------------
# diagnostics


@dataclass
class SubmeanReport:
    tol_sub: float
    centers_checked: int
    worst_violation: float
    worst_at: complex | None
    worst_reciprocal_violation: float
    worst_reciprocal_at: complex | None
    flagged: list
    verdict: str


def _first_max(values, lam):
    """The first maximum of values above -inf and its parameter, else (-inf, None)."""
    live = values > -math.inf
    if not live.any():
        return -math.inf, None
    i = np.argmax(np.where(live, values, -math.inf))
    return float(values[i]), complex(lam[i])


def submean_diagnostic(table: SweepTable, radius: int = 1) -> SubmeanReport:
    """Discrete sub-mean-value check: at every interior ok-point, the value
    must not exceed the mean over the surrounding grid ring by more than
    tol_sub, and its reciprocal must not fall under the reciprocal ring mean
    by more than tol_sub.  tol_sub = 3x the median per-row delta error."""
    k = int(radius)
    if k < 1:
        raise ValueError("radius must be a positive number of grid steps")
    D = table.field("delta")
    scale = table.error_scale()
    tol_sub = 3.0 * scale if math.isfinite(scale) else math.inf
    # each cell's radius-k ring on a last, contiguous axis, offsets in row-major order,
    # so a ring's mean is numpy's pairwise sum over it; the nan padding leaves the
    # rings of cells within k of the edge incomplete
    P, (re_n, im_n) = np.pad(D, k, constant_values=np.nan), D.shape
    ring = np.stack([P[i:i + re_n, j:j + im_n] for i in range(2 * k + 1) for j in range(2 * k + 1)
                     if max(abs(i - k), abs(j - k)) == k], axis=-1)
    checked = np.isfinite(D) & np.isfinite(ring).all(axis=-1)
    center, ring, lam = D[checked], ring[checked], table.field("lam", complex)[checked]
    v = center - ring.mean(axis=-1)
    vi = (1.0 / ring).mean(axis=-1) - 1.0 / center
    bad = (v > tol_sub) | (vi > tol_sub)
    flagged = list(zip(lam[bad].tolist(), np.where(vi > v, vi, v)[bad].tolist()))
    verdict = "inconclusive" if not checked.any() else "fail" if flagged else "pass"
    return SubmeanReport(tol_sub, int(checked.sum()), *_first_max(v, lam), *_first_max(vi, lam),
                         flagged, verdict)


@dataclass
class SmoothnessReport:
    points_used: int
    max_residual: float
    error_scale: float
    residual_ratio: float
    min_psh_indicator: float | None
    psh_noise: float | None
    psh_argmin: complex | None


def smoothness_diagnostic(table: SweepTable, line, fit_degree: int = 4) -> SmoothnessReport:
    """Polynomial-fit residuals along one grid line (a proxy smoothness probe)
    plus the minimum finite-difference value of phi*lap(phi) - 2|grad(phi)|^2
    over the grid interior.  The second quantity is reported with a noise
    estimate and carries no verdict: second differences amplify estimator
    noise."""
    table.grid.check_line(line)
    axis, idx = line
    re_n, im_n = table.shape
    D, E = table.field("delta"), table.field("delta_error")
    s, cut = (table.grid.im_values, idx) if axis == "row" else (table.grid.re_values, np.s_[:, idx])
    ok = ~np.isnan(D[cut])  # an ok row has a finite delta
    s, phi, errs = s[ok], D[cut][ok], E[cut][ok]
    if s.size < fit_degree + 4:
        raise InsufficientPoints(f"{s.size} usable points on the line; need {fit_degree + 4}")
    scale = max(float(np.median(errs)), 1e-15)
    coeffs = np.polyfit(s, phi, fit_degree)
    resid = phi - np.polyval(coeffs, s)
    max_resid = float(np.max(np.abs(resid)))

    min_q = noise = argmin = None
    if re_n >= 3 and im_n >= 3:
        hx = (table.grid.re_max - table.grid.re_min) / (re_n - 1)
        hy = (table.grid.im_max - table.grid.im_min) / (im_n - 1)
        e = table.error_scale()
        c, up, dn, rt, lf = D[1:-1, 1:-1], D[2:, 1:-1], D[:-2, 1:-1], D[1:-1, 2:], D[1:-1, :-2]
        lap = (up + dn - 2 * c) / hx**2 + (rt + lf - 2 * c) / hy**2
        gx, gy = (up - dn) / (2 * hx), (rt - lf) / (2 * hy)
        q = c * lap - 2.0 * (gx * gx + gy * gy)
        # a center counts once its five-point cross is finite; the first minimum wins
        q[~(np.isfinite(np.stack([c, up, dn, rt, lf])).all(axis=0) & (q < math.inf))] = math.inf
        k = np.unravel_index(np.argmin(q), q.shape)
        if q[k] < math.inf:
            min_q, argmin = float(q[k]), complex(table.row_at(k[0] + 1, k[1] + 1).lam)
            # first-order error propagation of the per-row delta error
            noise = (
                abs(c[k]) * (4 * e / hx**2 + 4 * e / hy**2)
                + abs(lap[k]) * e
                + 4 * (abs(gx[k]) / hx + abs(gy[k]) / hy) * e
            )
    return SmoothnessReport(int(s.size), max_resid, scale, max_resid / scale, min_q, noise, argmin)


# ---------------------------------------------------------------------------
# shipped reference families


def annulus_family() -> FamilySpec:
    """(z^2, c z^2): the second generator's scale is the parameter; Julia
    clouds fill round annuli and the Bowen parameter stays 2."""
    z2 = ((0.0, 0.0, 1.0), (1.0,))
    cz2 = ((0.0, 0.0, (0.0, 1.0)), (1.0,))
    return FamilySpec(
        generators=(z2, cz2),
        domain=RectDomain(-0.99, 0.99, -0.99, 0.99),
    )


def similarity_family(vertices) -> FamilySpec:
    """Three degree-one maps (z - p + p*c)/c whose inverse branches contract
    toward the given vertices with complex ratio c; at c = 1/2 this is the
    doubling triple 2z - p."""
    gens = []
    for p in vertices:
        p = complex(p)
        num = ((-p, p), 1.0)
        den = ((0.0, 1.0),)
        gens.append((num, den))
    return FamilySpec(
        generators=tuple(gens),
        domain=RectDomain(-0.99, 0.99, -0.99, 0.99),
        excluded=(0.0,),
    )


def power_pair_family() -> FamilySpec:
    """(z^2, c z^3): mixed-degree sanity family."""
    z2 = ((0.0, 0.0, 1.0), (1.0,))
    cz3 = ((0.0, 0.0, 0.0, (0.0, 1.0)), (1.0,))
    return FamilySpec(
        generators=(z2, cz3),
        domain=RectDomain(-0.99, 0.99, -0.99, 0.99),
        excluded=(0.0,),
    )
