"""Multi-generator dynamics: words, skew-product preimages, orbit clouds, the hyperbolicity check.

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
from .sphere import INF_Z, MapStack, RationalMap, as_point, sphere_embed

_REPEL_TOL = 1e-6
_CLOSEST_PAIR_BLOCK = 1 << 20  # entries of one row block of the closest-pair search
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
    symbol, then parent row, then (backward) root slot, so rows are
    nondecreasing in their word read from the newest symbol.  On a backward
    level the newest symbol acts first, so that is the composition-order
    word, the kept children of a parent are contiguous and rows sharing a
    word follow parent order, then root slot.  A forward level keeps the
    first row of equal points (_dedupe).  Backward levels (preimage trees)
    hold logd per row and one logw, all a level sum reads.  A capped level
    holds only the rows its subsample keeps, in two rows a row drawn twice;
    its picks keep each child cap/n times in expectation, so one importance
    weight, the float logw, serves every row.  A capped points-only
    backward level picks whole sibling sets (all roots of one generator at
    one parent, contiguous in slot order), so it holds the d_j rows of each
    pick: at most cap rows, or one set when cap is below the largest degree.

    A level of a block of B systems (PreimageTree) has z and logd of shape
    (B, n), one row per system, a min_step_norm per system and one logw.

    z is a point array: complex values, INF_Z for infinity, like a scalar
    point (sphere.as_point).  A points-only level (julia_backward_cloud,
    postcritical_cloud) holds z alone: logd and logw are None and
    min_step_norm stays inf.  A PreimageTree level holds z only while it is
    the frontier; the tree's deepest level never holds it.
    """

    z: np.ndarray | None  # point array
    logd: np.ndarray | None = None   # backward only: cumulative log word-derivative norm to the root
    logw: float | None = None        # backward only: log importance weight shared by every row
    min_step_norm: float = math.inf  # running minimum of the step derivative norms on levels 1..n

    @property
    def size(self) -> int:
        # logd where it is kept: a PreimageTree level may hold no z
        return int((self.z if self.logd is None else self.logd).shape[-1])


def _subsample_level(rows: np.ndarray, cap: int, seed: int, tag: int) -> np.ndarray:
    """The rows a level keeps under the cap: the _jittered picks of seed and
    tag over them, in their order, repeats included."""
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
            up = level.logd[..., p].repeat(d, axis=-1) if sets else level.logd[..., p]
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
    (1-based) of a backward cloud, and is empty for a forward one.  cli
    julia and box_dimension read it level by level (geometry._slices)."""

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
# forward (postcritical) cloud


def _dedupe(z) -> np.ndarray:
    """Rows of a level in construction order, the first of each group of
    equal rounded coordinates; INF_Z rounds to itself."""
    return np.sort(np.unique(np.round(z, 9), return_index=True)[1])


def postcritical_cloud(mm: MultiMap, depth: int = DEFAULT_DEPTH, cap: int = DEFAULT_CAP,
                       rng_seed: int = 0) -> PointCloud:
    """Forward orbit of all critical values under all words up to depth.

    Level 0 is the deduplicated set of critical values themselves (identity
    word); level n applies every generator to level n-1, deduplicates and
    subsamples (_subsample_level).  Levels hold points only, in construction
    order (see CloudLevel, _dedupe).  Maps without critical points (degree
    one) contribute nothing, so the cloud may be empty.
    """
    depth, cap, rng_seed = _check_tree_args(depth, cap, rng_seed)
    z = np.array([p for f in mm.generators for p in f.critical_values()], dtype=complex)
    levels = [CloudLevel(z[_dedupe(z)])]
    seed = _derive_seed(rng_seed, 0xF0)
    for n in range(1, depth + 1):
        z = np.concatenate([f.eval_many(levels[-1].z) for f in mm.generators])
        levels.append(CloudLevel(z[_subsample_level(_dedupe(z), cap, seed, n)]))
    return PointCloud(levels, {})


# ---------------------------------------------------------------------------
# verification reports


@dataclass
class VerificationReport:
    """Sampled check outcome.  verdict is pass, fail or inconclusive;
    witnesses are (point, detail) pairs, each point a complex value with
    INF_Z for infinity; margin is the separation asked for
    (check_hyperbolic) or the lattice spacing (osc_check); metrics hold the
    counts and distances the check measured."""

    verdict: str
    witnesses: list
    margin: float
    metrics: dict

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _fmt_point(pt: complex) -> str:
    return "inf" if pt == INF_Z else format(pt, ".9g")


def _closest_pair(q: np.ndarray, x: np.ndarray):
    """(row of q, row of x, distance) of the closest pair between two point sets.

    Each q row takes the argmin of |x|^2 - 2 q.x over all of x, in row blocks
    of about _CLOSEST_PAIR_BLOCK entries; the distance of the chosen pair is
    then computed directly.
    """
    xx = np.einsum("ij,ij->i", x, x)
    nearest = np.empty(q.shape[0], dtype=np.int64)
    step = max(1, _CLOSEST_PAIR_BLOCK // x.shape[0])
    for start in range(0, q.shape[0], step):
        g = q[start : start + step] @ x.T
        g *= -2.0
        g += xx
        nearest[start : start + step] = np.argmin(g, axis=1)
    dist = np.sqrt(np.sum((q - x[nearest]) ** 2, axis=1))
    k = int(np.argmin(dist))
    return k, int(nearest[k]), float(dist[k])


def check_hyperbolic(mm: MultiMap, *, depth: int, margin: float, cap: int,
                     rng_seed: int = 0) -> VerificationReport:
    """Sampled separation of the postcritical cloud from the Julia cloud.

    pass when the minimum chordal distance is at least margin, fail below
    margin/2 (with the closest pair as witness), inconclusive between.  An
    empty postcritical cloud passes vacuously, unbuilt when every degree is 1
    (no critical points; mm may then be a block).  A pass certifies only that
    no violation was found at this sampling resolution.  margin must be
    positive: at margin <= 0 every distance would pass.  depth, margin and
    cap have no defaults here: thermo's _HYPER_* constants are the gate's.
    """
    if not margin > 0.0:
        raise ValueError(f"margin must be positive, got {margin!r}")
    _check_tree_args(depth, cap, rng_seed)
    if max(mm.degrees) == 1 or (post := postcritical_cloud(mm, depth, cap, rng_seed)).size == 0:
        return VerificationReport("pass", [], margin,
                                  {"min_distance": math.inf, "postcritical_size": 0})
    cloud = julia_backward_cloud(mm, depth=depth, cap=cap, rng_seed=rng_seed)
    jz, pz = (np.concatenate([lev.z for lev in c.levels]) for c in (cloud, post))
    k, i, min_dist = _closest_pair(sphere_embed(pz), sphere_embed(jz))
    p_pt, j_pt = as_point(pz[k]), as_point(jz[i])
    metrics = {"min_distance": min_dist, "postcritical_size": post.size, "julia_size": cloud.size}
    if min_dist >= margin:
        return VerificationReport("pass", [], margin, metrics)
    witness = [(p_pt, f"postcritical point at chordal distance {min_dist:.6g} from "
                      f"backward-orbit point {_fmt_point(j_pt)}")]
    verdict = "fail" if min_dist < margin / 2.0 else "inconclusive"
    return VerificationReport(verdict, witness, margin, metrics)

