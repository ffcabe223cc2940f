"""Transfer-operator level sums, pressure, Bowen parameter, Lyapunov exponent and entropy.

The level sum S_n(t, z) adds ||(f_w)'(y)||^(-t) over every length-n word w
and every solution of f_w(y) = z, with multiplicity.  The pressure estimate
is the consecutive-level log ratio log(S_n / S_{n-1}), which kills constant
prefactors and converges geometrically for expanding systems.  The Bowen
parameter is its root, found by Newton steps on the estimate's exact
t-derivative (Ruelle's formula P'(t) = -chi on the tree) inside a bracket.

A preimage tree's geometry does not depend on t, so one tree is built per
basepoint and shared by every pressure evaluation of a root search.  A tree
can also hold a block of same-signature systems, whose root searches then
run in lockstep: one level sum per depth and round for the whole block.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import (
    DEFAULT_CAP,
    CloudLevel,
    MultiMap,
    VerificationReport,
    _check_tree_args,
    _expand_backward,
    _integer,
    _subsample_level,  # noqa: F401  patched by perfbench/spans.py until ROADMAP item 1a
    check_hyperbolic,
    repelling_seeds,
)
from .errors import (
    CriticalPreimage,
    HyperbolicityUnverified,
    NonConvergence,
    NoSignChange,
    RatsemiError,
)
from .sphere import as_point

_CRIT_NORM = 1e-12
_RTOL_PRESSURE = 1e-6  # pressure and Bowen estimates stop once the last 3 ratios agree this well
# the Bowen root search: bracket width and |P| at the accepted root, and where the sign-change hunt stops
_TOL_T, _TOL_P, _T_MAX = 1e-4, 1e-3, 64.0
DEFAULT_TREE_DEPTH = 10


@dataclass(frozen=True)
class ThermoConfig:
    """Shared knobs for pressure evaluation and Bowen root finding."""

    depth: int = DEFAULT_TREE_DEPTH
    cap: int = DEFAULT_CAP
    rng_seed: int = 0
    force: bool = False           # run and report the hyperbolicity certificate, but do not enforce it

    def __post_init__(self):
        """The tree's depth, cap and seed fail here, before any gate runs."""
        if _integer(self.depth, "depth") < 2:
            raise ValueError("pressure estimation needs depth >= 2")
        tree_args = _check_tree_args(self.depth, self.cap, self.rng_seed)
        for name, v in zip(("depth", "cap", "rng_seed"), tree_args):
            object.__setattr__(self, name, v)  # frozen; a numpy integer becomes an int


@dataclass
class PressureEstimate:
    t: float
    value: float
    depth: int
    basepoint: complex
    ratio_history: list
    residual: float
    slope: float  # exact dP/dt of value

    @property
    def lyapunov(self) -> float:
        """Lyapunov exponent of the equilibrium state at t: -dP/dt."""
        return -self.slope

    @property
    def entropy(self) -> float:
        """Entropy of the equilibrium state at t: P(t) + t * lyapunov."""
        return self.value + self.t * self.lyapunov


@dataclass
class BowenResult:
    delta: float
    bracket: tuple
    pressure_at_delta: float
    evaluations: int
    depth: int
    history: list
    pressure_residual: float
    delta_error: float
    gate: VerificationReport  # the hyperbolicity check bowen_parameter ran first


def _finite_t(t) -> float:
    """t as a float; a t that is not finite raises ValueError."""
    if not math.isfinite(t := float(t)):
        raise ValueError(f"t must be finite, got {t}")
    return t


class PreimageTree:
    """Lazily extended backward tree, shared across t, from a basepoint (by
    default the system's repelling seed); or, given a block MultiMap of B
    systems (see MultiMap) and a list of basepoints (by default their
    repelling seeds), of the block.  depth is the deepest level a caller may
    read.  Level n holds logd as (B, N), one row per system, and
    min_step_norm per system; logw is one float for all rows and systems
    (see CloudLevel).  No level keeps words.  Only the frontier keeps
    its points z, which the next extension reads; level depth is built
    without them.  basepoints holds each system's basepoint as a point."""

    def __init__(self, mm, basepoint=None, *, depth: int, cap: int = DEFAULT_CAP, rng_seed: int = 0):
        self.depth, self.cap, self.rng_seed = _check_tree_args(depth, cap, rng_seed)
        seeds = [p for p, _ in repelling_seeds(mm)] if basepoint is None else np.atleast_1d(basepoint)
        self.mm, self.basepoints = mm, [as_point(p) for p in seeds]
        z = np.array(self.basepoints)[:, None]
        self.levels = [CloudLevel(z, logd=np.zeros(z.shape), logw=0.0,
                                  min_step_norm=np.full(z.size, math.inf))]

    def extend(self, n: int) -> None:
        if n > self.depth:
            raise ValueError(f"level {n} is past the tree's depth {self.depth}")
        while len(self.levels) <= n:
            last, k = self.levels[-1], len(self.levels)
            lev = _expand_backward(self.mm, last, self.cap, self.rng_seed, k, points=k < self.depth)
            self.levels.append(lev)
            last.z = None

    def check_critical(self, n: int) -> None:
        """Raise CriticalPreimage if a step derivative norm within depth n (built) vanishes."""
        norms = self.levels[n].min_step_norm
        b = int(np.argmin(norms))
        if norms[b] < _CRIT_NORM:
            raise CriticalPreimage(
                f"preimage tree of {self.basepoints[b]} hits derivative norm {norms[b]:.3e} "
                f"within depth {n}; pick another basepoint"
            )

    def _log_level_sums(self, t: np.ndarray, n: int, rows: np.ndarray):
        """(log S_n, d/dt log S_n) of the points rows, point rows[i] at t[i].
        Importance weights keep the capped sum unbiased; the derivative is
        minus the mean of logd under the weights of S_n.  Each reduction is a
        numpy sum along a row: no BLAS, so neither a point's block nor the
        BLAS thread count changes its bits.  Level 0 is the basepoint alone,
        so log S_0 = 0 at every t.  A t so large that t * logd overflows
        raises RatsemiError instead of returning nan."""
        if n < 0:
            raise ValueError(f"level must be nonnegative, got {n}")
        self.extend(n)
        if n > 0 and np.any(t > 0):
            self.check_critical(n)
        lev = self.levels[n]
        logd = lev.logd if rows.size == len(self.basepoints) else lev.logd[rows]
        try:
            with np.errstate(invalid="ignore", divide="ignore", over="raise"):
                a = t[:, None] * logd
                np.subtract(lev.logw, a, out=a)
                # at t = 0 avoid 0 * (-inf) = nan when the tree contains critical preimages
                if (zero := t == 0.0).any():
                    a[zero] = lev.logw
                top = a.max(axis=1, initial=-np.inf)
                a -= top[:, None]
                np.exp(a, out=a)
                total = a.sum(axis=1)
                a *= logd
                finite = np.isfinite(top)
                log_sum = np.where(finite, top + np.log(total), top)
                return log_sum, np.where(finite, -(a.sum(axis=1) / total), math.nan)
        except FloatingPointError:
            worst = float(t[np.argmax(np.abs(t))])
            raise RatsemiError(f"level sum S_{n} at t = {worst} overflows float range") from None

    def log_level_sum(self, t: float, n: int) -> float:
        """log S_n(t) of a one-point tree; see _log_level_sums."""
        return float(self._log_level_sums(np.array([_finite_t(t)]), n, np.arange(1))[0][0])

    def poincare(self, t: float) -> tuple:
        """(sum of S_n(t) for n = 1..depth, residual): the residual is the spread
        of the last three level log ratios log(S_n / S_{n-1}), inf when depth < 4.
        A sum past float range raises RatsemiError."""
        logs = [self.log_level_sum(t, n) for n in range(1, self.depth + 1)]
        ratios = [b - a for a, b in zip(logs, logs[1:])][-3:]
        residual = max(ratios) - min(ratios) if len(ratios) >= 3 else math.inf
        try:
            return math.fsum(math.exp(s) for s in logs), residual
        except OverflowError:
            raise RatsemiError(f"Poincare partial sum at t = {t} overflows float range") from None


def _estimate_on_tree(tree: PreimageTree, t, rtol: float) -> list:
    """Pressure estimates of the tree's points, point b at t[b]; a nan t[b]
    skips point b, which gets None.  The live points share one level sum per
    depth, and each stops on its own once its last three log ratios agree
    within rtol, or at the tree's depth."""
    t = np.asarray(t, dtype=float)
    out = [None] * t.size
    ratios = [[] for _ in out]
    live = np.flatnonzero(~np.isnan(t))
    prev, prev_d = tree._log_level_sums(t[live], 1, live)
    for n in range(2, tree.depth + 1):
        if live.size == 0:
            break
        cur, cur_d = tree._log_level_sums(t[live], n, live)
        going = np.ones(live.size, dtype=bool)
        # at t = 0 a critical preimage makes both level slopes inf, their difference nan
        with np.errstate(invalid="ignore"):
            slope = cur_d - prev_d
        for i, b in enumerate(live):
            r = ratios[b]
            r.append(float(cur[i] - prev[i]))
            residual = max(r[-3:]) - min(r[-3:]) if len(r) >= 3 else math.inf
            if (len(r) >= 3 and residual <= rtol) or n == tree.depth:
                going[i] = False
                out[b] = PressureEstimate(float(t[b]), r[-1], n, tree.basepoints[b], r,
                                          float(residual), float(slope[i]))
        live, prev, prev_d = live[going], cur[going], cur_d[going]
    return out


def _config_tree(mm, basepoint, config: ThermoConfig) -> PreimageTree:
    """The preimage tree of mm (a system or a block) at the config's depth,
    cap and seed, from basepoint (the repelling seeds if None)."""
    return PreimageTree(mm, basepoint, depth=config.depth, cap=config.cap, rng_seed=config.rng_seed)


def pressure(mm: MultiMap, t: float, config: ThermoConfig = None, basepoint=None,
             **overrides) -> PressureEstimate:
    """Topological pressure estimate at t from a preimage tree of the config's depth.

    The basepoint defaults to the deterministic repelling seed.  Stops early
    once the last three log ratios agree within _RTOL_PRESSURE (1e-6).
    Keyword overrides replace config fields, as in bowen_parameter.
    """
    return pressure_curve(mm, [t], config, basepoint, **overrides)[0]


def pressure_curve(mm: MultiMap, t_values, config: ThermoConfig = None, basepoint=None,
                   **overrides) -> list:
    """Pressure estimates over a grid of t values, sharing one preimage tree."""
    config = replace(config or ThermoConfig(), **overrides)
    t_values = [_finite_t(t) for t in t_values]
    tree = _config_tree(mm, basepoint, config)
    return [_estimate_on_tree(tree, [t], _RTOL_PRESSURE)[0] for t in t_values]


def _prepare(mm: MultiMap, config: ThermoConfig):
    """(gates, seeds), one of each per system of mm (see PreimageTree): the
    per-system stage of a Bowen search.  The hyperbolicity certificate runs
    first, once for a block of degree-one maps (a vacuous pass); unless force
    is set, a verdict other than pass raises HyperbolicityUnverified carrying
    its report.  The seeds are the repelling fixed points the trees grow from."""
    gates = []
    for system in [mm] if max(mm.degrees) == 1 else map(mm.system, range(mm.num_systems)):
        gate = check_hyperbolic(system)
        if gate.verdict != "pass" and not config.force:
            msg = f"no trapping region down to cell side {gate.margin:.6g}; pass force=True to override"
            raise HyperbolicityUnverified(f"hyperbolicity {gate.verdict}: {msg}", report=gate)
        gates.append(gate)
    return gates * (mm.num_systems // len(gates)), [p for p, _ in repelling_seeds(mm)]


def _root_search():
    """The search of bowen_parameter as a generator: it yields each t, is
    sent the estimate there, and returns the result without its gate."""
    history = []
    est = lo = yield 0.0  # lo and hi: the estimates at the bracket ends
    history.append((est.t, est.value))
    hi, probed = None, False
    while True:
        if hi is not None and hi.t - lo.t <= _TOL_T:
            best = min((lo, hi), key=lambda e: abs(e.value))
            if abs(best.value) <= _TOL_P:
                break
        if len(history) > 200:
            raise NonConvergence(
                f"Bowen root search did not meet tolerances after {len(history)} evaluations"
            )
        top = _T_MAX if hi is None else hi.t
        t = est.t - est.value / est.slope if -math.inf < est.slope < 0.0 else math.nan
        # est is a converged Newton point: probe across the root, once while no P < 0 is known
        if abs(t - est.t) < _TOL_T / 4:
            probe = hi is not None or not probed
            t = est.t + math.copysign(_TOL_T / 2, t - est.t) if probe else math.nan
            probed = True
        if not lo.t < t < top:  # also catches nan
            t = 0.5 * (lo.t + hi.t) if hi is not None else min(max(2.0 * lo.t, 1.0), _T_MAX)
        est = yield t
        history.append((est.t, est.value))
        if not est.value >= 0.0:
            hi = est
        elif hi is None and t >= _T_MAX:
            raise NoSignChange(
                f"pressure stays nonnegative up to t = {t}; the system may "
                "not be expanding or the tree depth is too small"
            )
        else:
            lo = est

    # error scale: residual noise over the exact slope, plus the bracket width
    residual = best.residual if math.isfinite(best.residual) else _TOL_P
    return BowenResult(
        delta=best.t,
        bracket=(lo.t, hi.t),
        pressure_at_delta=best.value,
        evaluations=len(history),
        depth=best.depth,
        history=history,
        pressure_residual=best.residual,
        delta_error=float(residual / max(abs(best.slope), 1e-12) + (hi.t - lo.t)),
        gate=None,
    )


def _bowen_search(tree: PreimageTree) -> list:
    """The root searches of the tree's points in lockstep: each round is one
    _estimate_on_tree call at every unfinished point's own next t.  Returns
    per point its result, gate None, or the RatsemiError that ended its
    search; an error of the shared tree (a critical preimage, a failed root
    solve) raises."""
    searches = [_root_search() for _ in tree.basepoints]
    out = [None] * len(searches)
    t = np.array([next(s) for s in searches])
    while not np.isnan(t).all():
        for b, est in enumerate(_estimate_on_tree(tree, t, _RTOL_PRESSURE)):
            if est is not None:
                try:
                    t[b] = searches[b].send(est)
                except StopIteration as done:
                    out[b], t[b] = done.value, math.nan
                except RatsemiError as e:
                    out[b], t[b] = e, math.nan
    return out


def bowen_parameter(mm: MultiMap, config: ThermoConfig = None, **overrides) -> BowenResult:
    """Root of t -> P(t) by safeguarded Newton steps on a shared preimage tree.

    Starts at t = 0, where P = log(total degree) >= 0, and keeps a bracket
    with P(lo) >= 0 > P(hi).  A Newton step that leaves the bracket, or a
    slope that is not negative and finite, becomes a bisection (doubling t
    from 1, up to _T_MAX, while no negative P is known).  A Newton step below
    _TOL_T/4 is not taken: a probe _TOL_T/2 across the root, straight from the
    current point, closes the bracket; while no negative P is known, later
    probes double t instead, so a P that decays to 0 ends in NoSignChange.
    Stops once the bracket is at most _TOL_T wide with an end, delta, where
    |P| <= _TOL_P.
    The hyperbolicity certificate runs first and is returned as gate; unless
    force is set, a verdict other than pass raises HyperbolicityUnverified
    carrying that report.  This is the one-point case of _bowen_search.
    """
    config = replace(config or ThermoConfig(), **overrides)
    (gate,), seeds = _prepare(mm, config)
    (res,) = _bowen_search(_config_tree(mm, seeds, config))
    if isinstance(res, RatsemiError):
        raise res
    return replace(res, gate=gate)


def lyapunov_and_entropy(mm: MultiMap, t_values, config: ThermoConfig = None, basepoint=None,
                         **overrides) -> list:
    """Pressure estimates at the config's fixed depth over a grid of t values,
    sharing one preimage tree; each estimate's lyapunov (-dP/dt, from the
    exact slope) and entropy (P(t) + t * lyapunov) are those of the
    equilibrium state at its t.  No estimate stops early, and a critical
    preimage within the depth raises CriticalPreimage at every t.
    """
    config = replace(config or ThermoConfig(), **overrides)
    t_values = [_finite_t(t) for t in t_values]
    tree = _config_tree(mm, basepoint, config)
    tree.extend(config.depth)
    tree.check_critical(config.depth)
    return [_estimate_on_tree(tree, [t], -1.0)[0] for t in t_values]
