"""Multi-generator dynamics: words, skew-product preimages, orbit clouds, the hyperbolicity certificate.

Generators are indexed 1..s.  A word (w1, ..., wn) acts by applying the
generator w1 first, so the composed map is f_{wn} o ... o f_{w1}.  Backward
orbit trees therefore grow by prepending a symbol: a child y of a tree point
y' under generator j satisfies f_j(y) = y' and has the word (j,) + word'.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoRepellingSeed
from .sphere import INF_Z, MapStack, RationalMap, _sizes, horner

_REPEL_TOL = 1e-6
# the hyperbolicity certificate's first cell side, its halvings, cell budget, rounding size, index bound
_CELL_SIDE, _CELL_HALVINGS, _CELL_BUDGET, _ROUND, _GRID = 2.0**-5, 4, 50_000, 1e-9, 1 << 30
_EXPAND_ROWS = 1 << 13  # solve rows per chunk of a backward level (_expand_backward)
DEFAULT_DEPTH = 12
DEFAULT_CAP = 200_000


class MultiMap:
    """Finite ordered family of rational-map generators; symbols are 1-based.
    The generators of a block of K systems are K-column MapStacks instead,
    system b in column b of each (see PreimageTree)."""

    __slots__ = ("generators",)

    def __init__(self, generators):
        gens = tuple(generators)
        if not gens:
            raise ValueError("need at least one generator")
        if not all(isinstance(g, MapStack) for g in gens):
            raise TypeError("every generator must be a RationalMap or a MapStack")
        self.generators = gens

    @property
    def num_generators(self) -> int:
        return len(self.generators)

    @property
    def degrees(self) -> tuple:
        return tuple(g.degree for g in self.generators)

    @property
    def total_degree(self) -> int:
        return sum(g.degree for g in self.generators)

    num_systems = property(lambda self: self.generators[0].P.shape[1])  # 1, or K for a block

    def system(self, b: int) -> MultiMap:
        """System b of a block, its generators RationalMaps; a system of RationalMaps is itself."""
        return self if isinstance(self.generators[0], RationalMap) else MultiMap(
            RationalMap(*(c[:, b] for c in g.raw)) for g in self.generators)

    def __repr__(self):
        return f"MultiMap(s={self.num_generators}, degrees={self.degrees})"


# ---------------------------------------------------------------------------
# deterministic subsampling: stateless splitmix64 counter stream


def _mix64(seed: int, x: np.ndarray) -> np.ndarray:
    """splitmix64 of seed at the uint64 counters x, computed in place in x."""
    x *= np.uint64(0x9E3779B97F4A7C15)
    x += np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    t = np.empty_like(x)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        x ^= np.right_shift(x, np.uint64(shift), out=t)
        x *= np.uint64(mult)
    x ^= np.right_shift(x, np.uint64(31), out=t)
    return x


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values in sorted keys."""
    new = np.empty(keys.shape, dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return new


def _derive_seed(*parts) -> int:
    s = 0x243F6A8885A308D3
    for p in parts:
        s = int(_mix64(s ^ (p & 0xFFFFFFFFFFFFFFFF), np.arange(1, 2, dtype=np.uint64))[0])
    return s


def _jittered(seed: int, m: int, k: int) -> np.ndarray:
    """Jittered systematic picks of k from range(m) in order, 1 <= k, m < 2^32.

    range(m) is cut into k slices of width m / k, and slice i draws
    floor((i + u_i) m / k), u_i the top 32 bits of the seeded splitmix64
    stream over 2^32.  Each index is drawn k / m times in expectation.  When
    m / k is not an integer, neighbouring slices can both draw the index on
    their border.  Within the cap (k >= m) every index is kept once.
    """
    if k >= m:
        return np.arange(m)
    u = _mix64(seed, np.arange(1, k + 1, dtype=np.uint64))
    u >>= np.uint64(32)
    u *= np.uint64(m)
    u >>= np.uint64(32)  # floor(u_i m), below m < 2^32: the same value as an int64
    picks = u.view(np.int64)
    picks += np.arange(0, k * m, m)
    return np.floor_divide(picks, k, out=picks)


# ---------------------------------------------------------------------------
# cloud levels


@dataclass
class CloudLevel:
    """One depth slice of an orbit cloud.  No level stores words.

    Every level is in construction order: by the generator j of the newest
    symbol, then parent row, then root slot.  The newest symbol acts first, so
    rows are nondecreasing in their composition-order word, the kept children
    of a parent are contiguous and rows sharing a word follow parent order,
    then root slot.  Levels of a preimage tree hold logd per row and one logw,
    all a level sum reads.  A capped level holds only the rows its subsample
    keeps, in two rows a row drawn twice; its picks keep each child cap/n
    times in expectation, so one importance weight, the float logw, serves
    every row.  A capped points-only backward level picks whole sibling sets
    (all roots of one generator at one parent, contiguous in slot order), so
    it holds the d_j rows of each pick: at most cap rows, or one set when cap
    is below the largest degree.

    A level of a block of B systems (PreimageTree) has z and logd of shape
    (B, n), one row per system, a min_step_norm per system and one logw.

    z is a point array: complex values, INF_Z for infinity, like a scalar
    point (sphere.as_point).  A points-only level (julia_backward_cloud) holds
    z alone: logd and logw are None and min_step_norm stays inf.  A
    PreimageTree level holds z only while it is the frontier; the tree's
    deepest level never holds it.
    """

    z: np.ndarray | None  # point array
    logd: np.ndarray | None = None   # tree levels only: cumulative log word-derivative norm to the root
    logw: float | None = None        # tree levels only: log importance weight shared by every row
    min_step_norm: float = math.inf  # running minimum of the step derivative norms on levels 1..n

    @property
    def size(self) -> int:
        # logd where it is kept: a PreimageTree level may hold no z
        return int((self.z if self.logd is None else self.logd).shape[-1])


def _subsample_level(rows: np.ndarray, cap: int, seed: int, tag: int) -> np.ndarray:
    """The rows a level keeps under the cap: the _jittered picks of seed and
    tag over them, in their order, repeats included.  No library code calls
    it: perfbench/spans.py patches this name, until ROADMAP item 1a."""
    return rows[_jittered(_derive_seed(seed, tag), rows.size, cap)]


def _expand_backward(mm: MultiMap, level: CloudLevel, cap: int, seed: int, tag: int,
                     points: bool = True) -> CloudLevel:
    """Skew-product preimages of a level, subsampled to cap, in construction order.

    Rows run over (generator j, parent row, root slot); see CloudLevel.  Over
    the cap, the kept units are chosen first (_jittered with seed and tag, so
    the choice depends on the counts and the seed alone) and split by
    generator into sorted indices c.  Under logd the unit is a child, cap of
    the n: roots and derivative norms are solved only for the distinct
    parents c // d_j, slot c % d_j of each.  On a points-only parent (logd
    None, see CloudLevel) it is a sibling set, cap // (largest degree) of
    the m s (generator j, parent) pairs, at least one: each is solved once
    into its d_j rows in slot order.  Nothing sums a points-only level, so
    its sets need no equal weights; in degree one a set is a child.  Each
    child is kept picks/units times in expectation, and a unit drawn twice
    fills its rows twice.  Within the cap every child is kept.
    Parents at infinity go through the same calls.  A kept row adds its log
    step norm to its parent's logd.  The level's logw is the parent's plus
    log(n / cap) when capped, so level sums stay unbiased.  min_step_norm is
    the running minimum, of the parent's and the kept rows' step norms.

    A level of a block (see PreimageTree) carries a leading point axis on z
    and logd and a min_step_norm per point; its logw, like the picks,
    is shared.  Each generator is solved in equal chunks of about
    _EXPAND_ROWS / B parents, distinct ones under per-child picks, B the
    block's points, so a chunk solves about _EXPAND_ROWS rows (parents
    times B) and temporaries do not grow with the block.

    A points-only level holds no derivative norms, logd or logw; within
    the cap its z is bit for bit that of a parent with logd.  points False,
    for a tree's deepest level, which nothing expands, allocates no z
    (None): each chunk's roots give its derivative norms and are dropped.
    """
    lead = level.z.shape[:-1]  # () for one system, (B,) for a block
    full = level.logd is not None
    m = level.size
    n, picks, shift = m * mm.total_degree, None, 0.0
    if n > cap:
        # the unit picked: a child under logd, else a sibling set (pair j, parent: d_j rows)
        sizes = [m * d if full else m for d in mm.degrees]
        k = cap if full else max(1, cap // max(mm.degrees))
        kept = _jittered(_derive_seed(seed, tag), sum(sizes), k)
        starts = np.cumsum([0, *sizes[:-1]])
        picks = np.split(kept, np.searchsorted(kept, starts[1:]))
        for c, start in zip(picks, starts):
            c -= start  # views of kept, offset in place: a second index array costs peak memory
        shift = math.log(n / cap)
        n = cap if full else sum(c.size * d for c, d in zip(picks, mm.degrees))
    # the level arrays come before the solver temporaries, which leave no heap hole under them
    z = np.empty(lead + (n,), dtype=complex) if points else None
    if full:
        logd = np.empty(lead + (n,))
    min_norm, row, B = np.full(lead, level.min_step_norm), 0, math.prod(lead)
    for j, f in enumerate(mm.generators, start=1):
        d = f.degree
        # sets: every row a whole sibling set of its parent (uncapped, or capped points-only)
        c, sets = (None, True) if picks is None else (picks[j - 1], not full)
        if not sets:
            slot = np.divmod(c, d, out=(c, np.empty_like(c)))[1]  # c now holds the parents
            new = _run_starts(c)  # the first child of each parent (c is sorted)
        # equal chunks of about _EXPAND_ROWS / B parents, distinct ones under per-child picks
        units = m if c is None else c.size if sets else np.count_nonzero(new)
        per = max(1, -(-units // max(1, math.ceil(units * B / _EXPAND_ROWS))))
        bounds = range(0, units, per) if sets else np.flatnonzero(new)[::per].tolist()
        for s, e in zip(bounds, [*bounds[1:], units if sets else c.size]):
            if sets:
                # whole sibling sets, no slot gathers; uncapped, p is a view (running uncapped
                # levels through gathers made sweep-similarity job_s 8-22 % slower, 2-core host)
                p = slice(s, e) if c is None else c[s:e]
                zj = f.preimages_many(level.z[..., p]).reshape(lead + (-1,))
            else:
                p, first = c[s:e], new[s:e]
                roots = f.preimages_many(level.z[..., p[first]]).reshape(lead + (-1,))
                zj = np.take(roots, (np.cumsum(first) - 1) * d + slot[s:e], axis=-1)

            block = slice(row, row + zj.shape[-1])
            row = block.stop
            if points:
                z[..., block] = zj
            if not full:
                continue
            # the parent's logd of each child, along the node axis
            up = level.logd[..., p].repeat(d, axis=-1) if sets and d > 1 else level.logd[..., p]
            norms = f.spherical_derivative_norm_many(zj)
            np.minimum(min_norm, norms.min(axis=-1, initial=math.inf), out=min_norm)
            with np.errstate(divide="ignore"):
                np.add(up, np.log(norms, out=norms), out=logd[..., block])
    if not full:
        return CloudLevel(z)
    return CloudLevel(z, logd=logd, logw=level.logw + shift,
                      min_step_norm=min_norm if lead else float(min_norm))


@dataclass
class PointCloud:
    """Levelled orbit cloud.  meta holds the seed_point and seed_generator
    (1-based) of the backward cloud.  cli julia and box_dimension read it
    level by level (geometry._slices)."""

    levels: list
    meta: dict

    @property
    def size(self) -> int:
        return sum(lev.size for lev in self.levels)

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def finite_points(self):
        """Concatenated finite-chart values with their depths."""
        z = np.concatenate([lev.z for lev in self.levels])
        depth = np.repeat(np.arange(self.depth + 1), [lev.size for lev in self.levels])
        finite = np.isfinite(z)
        return (z, depth) if finite.all() else (z[finite], depth[finite])


def repelling_seeds(mm: MultiMap) -> list:
    """Deterministic backward-orbit seeds, one (point, symbol) per system of
    mm: a repelling fixed point (INF_Z for infinity) of the first generator,
    in index order, that has one with multiplier norm > 1 + 1e-6, the largest
    norm preferred (ties resolve to the canonically first point), and that
    generator's 1-based symbol.  NoRepellingSeed if a system has none."""
    seeds = [None] * mm.num_systems
    for j, f in enumerate(mm.generators, start=1):
        z, norms = f.fixed_points_many()
        norms[~(norms > 1.0 + _REPEL_TOL)] = -math.inf
        for b, k in enumerate(np.argmax(norms, axis=-1)):  # the first of equal norms
            if seeds[b] is None and norms[b, k] > -math.inf:
                seeds[b] = (complex(z[b, k]), j)
        if None not in seeds:
            return seeds
    raise NoRepellingSeed("no generator has a fixed point with multiplier norm > 1 + 1e-6")


def repelling_seed(mm: MultiMap):
    """(point, symbol): the repelling_seeds of a single system."""
    return repelling_seeds(mm)[0]


def _integer(v, what: str) -> int:
    """v as an int; ValueError unless it is an integer, numpy's accepted, bool not."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {v!r}")
    return int(v)  # a narrow numpy integer would overflow in _jittered


def _check_tree_args(depth: int, cap: int, rng_seed: int) -> tuple:
    """(depth, cap, rng_seed) of a tree or cloud as ints; depth >= 0, cap >= 1, 0 <= rng_seed < 2^64."""
    if _integer(depth, "depth") < 0:
        raise ValueError("depth must be nonnegative")
    if _integer(cap, "cap") < 1:
        raise ValueError("cap must be positive")
    if not 0 <= _integer(rng_seed, "rng_seed") < 2**64:  # _derive_seed reads 64 bits
        raise ValueError(f"rng_seed must be in [0, 2^64), got {rng_seed}")
    return int(depth), int(cap), int(rng_seed)


def julia_backward_cloud(mm: MultiMap, depth: int = DEFAULT_DEPTH, cap: int = DEFAULT_CAP,
                         rng_seed: int = 0) -> PointCloud:
    """Backward-orbit tree of a repelling seed, one capped level per depth.

    Its levels hold points only (see CloudLevel).  A capped level of degree
    two or more keeps whole sibling sets (_expand_backward), so its z is not
    that of a full tree from the seed at this cap and rng_seed; an uncapped
    or degree-one level's z is, bit for bit.
    """
    depth, cap, rng_seed = _check_tree_args(depth, cap, rng_seed)
    seed_pt, seed_sym = repelling_seed(mm)
    levels = [CloudLevel(np.array([seed_pt]))]
    for n in range(1, depth + 1):
        levels.append(_expand_backward(mm, levels[-1], cap, rng_seed, n))
    return PointCloud(levels, {"seed_point": seed_pt, "seed_generator": seed_sym})


# ---------------------------------------------------------------------------
# verification reports and the hyperbolicity certificate


@dataclass
class VerificationReport:
    """Check outcome.  verdict is pass, fail or inconclusive; witnesses are
    (point, detail) pairs, each point a complex value with INF_Z for infinity;
    margin is the last cell side tried (check_hyperbolic) or the lattice
    spacing (osc_check); metrics hold the counts and sizes the check measured."""

    verdict: str
    witnesses: list
    margin: float
    metrics: dict

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _escape_radius(gens) -> float:
    """The least R = 2^k, k <= 20, with |f(z)| >= 2|z| wherever |z| >= R, for
    every generator f = P/Q, each with deg P > deg Q; inf if there is none.  On
    |z| = r, |P| >= |p_n| r^n - sum_{k<n} |p_k| r^k and |Q| <= sum |q_k| r^k;
    where the first is positive, it over r times the second grows with r."""
    R, ok = 2.0 ** np.arange(21), True
    for f in gens:
        p, q = (np.abs(c[: _sizes(c)[0], 0]) for c in f.raw)
        rk = R ** np.arange(p.size)[:, None]
        with np.errstate(over="ignore", invalid="ignore"):  # nan or inf fails the test
            ok &= p.size > q.size and 2.0 * p[-1] * rk[-1] - p @ rk >= 2.0 * R * (q @ rk[: q.size])
    return float(R[ok][0]) if np.any(ok) else math.inf


def _cells_meeting(w, r, h: float, R: float):
    """Sorted keys (i + _GRID) 2^31 + k + _GRID of the cells [i, i + 1] h x
    [k, k + 1] h that meet |z| <= R and a disc |z - w| <= r, enlarged by the
    rounding size _ROUND.  None when a disc not wholly in |z| > R is not finite,
    leaves the grid (|i| or |k| reaching _GRID) or the discs span over _CELL_BUDGET cells."""
    r = r + _ROUND * (1.0 + np.abs(w) + r)
    w, r = w[keep := ~(np.abs(w) - r > R)], r[keep]
    x0, x1, y0, y1 = (np.floor(v / h) for v in (w.real - r, w.real + r, w.imag - r, w.imag + r))
    n = (x1 - x0 + 1) * (ny := y1 - y0 + 1)  # the cells of each disc's bounding box
    if not (np.abs([x0, x1, y0, y1]) < _GRID).all() or n.sum() > _CELL_BUDGET:
        return None
    disc = np.repeat(np.arange(n.size), n := n.astype(np.int64))
    t = np.arange(disc.size) - np.repeat(np.cumsum(n) - n, n)
    i, k = x0[disc] + t // ny[disc], y0[disc] + t % ny[disc]
    z = np.stack([w[disc], np.zeros(disc.size)])  # each cell's disc centre, and 0
    gap = np.abs(np.clip(z.real, i * h, (i + 1) * h) + 1j * np.clip(z.imag, k * h, (k + 1) * h) - z)
    meet = (gap[0] <= r[disc]) & (gap[1] <= R)
    keys = np.sort((i[meet].astype(np.int64) + _GRID) << 31 | (k[meet].astype(np.int64) + _GRID))
    return keys[_run_starts(keys)]  # not np.unique, whose first call imports numpy.ma (~10 ms)


def _image_discs(f: RationalMap, c, rho: float):
    """(f(c), r) at centres c: f maps |z - c| <= rho into |w - f(c)| <= r.
    There |P(z) - P(c)| <= dP = sum_{k>=1} |P^(k)(c) / k!| rho^k, and Q's dQ
    likewise, so |f(z) - f(c)| <= (|Q(c)| dP + |P(c)| dQ) / (|Q(c)| (|Q(c)| - dQ));
    r is inf where |Q(c)| <= dQ, a disc that may hold a pole."""
    a = np.stack(f.raw, axis=1)[..., 0, None] * np.ones(c.size)  # rows (P_k, Q_k) per centre
    for i in range(f.degree):  # Taylor shift: a[k] becomes (P, Q)^(k)(c) / k!
        for j in range(f.degree - 1, i - 1, -1):
            a[j] += c * a[j + 1]
    (p, q), (dp, dq) = np.abs(a[0]), rho * horner(np.abs(a[1:]), rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        return a[0, 0] / a[0, 1], np.where(q > dq, (q * dp + p * dq) / (q * (q - dq)), math.inf)


def _trap_cells(mm: MultiMap, h: float, R: float) -> tuple:
    """(keys, certified): the cells of side h grown from the critical values
    (_cells_meeting's keys), and whether with |z| > R they trap them.  Each new
    cell's circumscribed disc goes through _image_discs under every generator,
    and every cell meeting an image joins.  Not certified when a critical value
    is infinity and R is inf, a disc leaves the grid or may hold a pole, the
    cells pass _CELL_BUDGET, a cell holds a stop (a finite fixed point of
    multiplier norm above 1 - 1e-6: a trapped U holds attracting ones only), or
    no stop lies in |z| < R (R finite) to show Montel's three omitted points."""
    crit = np.array([v for f in mm.generators for v in f.critical_values() if abs(v) <= R], complex)
    stops = np.array([z for f in mm.generators for z, norm in f.fixed_points()
                      if norm > 1.0 - _REPEL_TOL and z != INF_Z], complex)
    new = None if np.isinf(crit).any() else _cells_meeting(crit, 0 * crit.real, h, R)  # inf: in no cell
    cells = np.empty(0, dtype=np.int64)
    while new is not None and new.size and cells.size + new.size <= _CELL_BUDGET:
        cells = np.sort(np.concatenate((cells, new)))  # new holds no cell of cells
        c = ((new >> 31) - _GRID + 0.5 + 1j * ((new & (2**31 - 1)) - _GRID + 0.5)) * h
        d = c[:, None] - stops
        if (np.maximum(np.abs(d.real), np.abs(d.imag)) <= 0.5 * h + _ROUND * (1 + np.abs(stops))).any():
            return cells, False
        w, r = map(np.concatenate, zip(*(_image_discs(f, c, h / math.sqrt(2.0)) for f in mm.generators)))
        if (new := _cells_meeting(w, r, h, R)) is not None:
            new = np.setdiff1d(new, cells, assume_unique=True)
    # an open set off the cells, around a stop or infinity, omits Montel's three points
    return cells, new is not None and not new.size and (R == math.inf or (np.abs(stops) < R).any())


def check_hyperbolic(mm: MultiMap) -> VerificationReport:
    """Trapping-region certificate that the semigroup G of mm is hyperbolic:
    its postcritical set P(G) lies in its Fatou set F(G) (Hinkkanen and Martin,
    Proc. LMS 1996).  U, the interior of _trap_cells' cells and of |z| >= R (R
    from _escape_radius), holds the critical values and each generator maps
    its closure into it, so P(G) lies in U; U omits an open set, so G is
    normal on U by Montel's theorem: U lies in F(G).  pass is that proof, up
    to rounding in the majorants, at the first side h = _CELL_SIDE / 2^n,
    n <= _CELL_HALVINGS, that certifies; inconclusive proves nothing.  margin
    is the last h tried; metrics hold its cell count, h and R (inf: none).  mm
    is one system, or a block of degree-one maps, which pass with no cells."""
    h, R, trap = _CELL_SIDE, math.inf, ((), True)
    if max(mm.degrees) > 1:
        R = _escape_radius(mm.generators)
        for h in (_CELL_SIDE / 2**n for n in range(_CELL_HALVINGS + 1)):
            if (trap := _trap_cells(mm, h, R))[1]:
                break
    return VerificationReport("pass" if trap[1] else "inconclusive", [], h,
                              {"cells": len(trap[0]), "h": h, "R": R})
