"""Independent oracles and frozen expected values for the test suite.

Every frozen constant states how it was computed.  The helpers here are
deliberately written with different machinery than the library (np.roots
companion matrices instead of simultaneous iteration, explicit word
enumeration instead of level-by-level trees) so each test compares two
independent routes to the same number.
"""
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npp

from ratsemi.dynamics import MultiMap
from ratsemi.errors import InsufficientPoints
from ratsemi.families import SmoothnessReport, SubmeanReport
from ratsemi.sphere import INF_Z, as_point, polynomial_map, roots_batch

# ---------------------------------------------------------------------------
# frozen constants

LOG2 = math.log(2.0)
LOG3 = math.log(3.0)

# Bowen parameters of equal-degree power-map tuples: 1 + log s / log m for s
# generators all of degree m (closed form for z^m repeated s times).
DELTA_Z2_Z2 = 2.0
DELTA_Z2_Z2_Z2 = 1.0 + LOG3 / LOG2          # 2.5849625007211562
DELTA_Z3_Z3 = 1.0 + LOG2 / LOG3             # 1.6309297535714573

# Unique root of 2^(1-t) + 3^(1-t) = 1, computed with scipy.optimize.brentq
# at xtol 1e-15 and frozen here to 12 digits.
DELTA_Z2_Z3 = 1.787884911026

# Similarity dimension of the three-map half-scale triangle system:
# 3 * (1/2)^t = 1.
DELTA_GASKET = LOG3 / LOG2                  # 1.5849625007211562

# Centered equilateral triangle of unit side (diameter 1, barycenter 0).
TRIANGLE_UNIT = tuple(
    p - (0.5 + 0.5j * math.sqrt(3.0) / 3.0)
    for p in (0.0 + 0.0j, 1.0 + 0.0j, 0.5 + 0.5j * math.sqrt(3.0))
)
# Same triangle before centering (vertices 0, 1, (1+i sqrt 3)/2).
TRIANGLE_RAW = (0.0 + 0.0j, 1.0 + 0.0j, 0.5 + 0.5j * math.sqrt(3.0))


# ---------------------------------------------------------------------------
# test systems


def power_map(d, a=1.0):
    """a z^d."""
    return polynomial_map([0.0] * d + [a])


def power_mm(*specs):
    """The MultiMap of power_map(d, a) for each (d, a) in specs."""
    return MultiMap([power_map(d, a) for d, a in specs])


def gasket_mm(vertices=TRIANGLE_RAW):
    """Doubling maps 2(z - p) + p = 2z - p, one per vertex p; their inverse
    branches halve toward p, so the Julia set is the Sierpinski gasket."""
    return MultiMap([polynomial_map([-p, 2.0]) for p in vertices])


# ---------------------------------------------------------------------------
# independent root finding and polynomial helpers


def np_roots(coeffs_ascending):
    """Roots via the numpy companion-matrix solver (independent of the
    library's simultaneous iteration)."""
    c = np.asarray(coeffs_ascending, dtype=complex)
    return np.roots(c[::-1])


def sorted_points(values):
    vals = [complex(v) for v in values]
    return sorted(vals, key=lambda z: (z.real, z.imag))


def poly_compose(outer, inner):
    """Coefficients of outer(inner(z)), both ascending."""
    out = np.array([0.0 + 0.0j])
    acc = np.array([1.0 + 0.0j])  # inner^0
    inner = np.asarray(inner, dtype=complex)
    for c in np.asarray(outer, dtype=complex):
        term = c * acc
        n = max(out.size, term.size)
        new = np.zeros(n, dtype=complex)
        new[: out.size] += out
        new[: term.size] += term
        out = new
        acc = np.convolve(acc, inner)
    return out


def rational_compose(outer, inner):
    """(num, den) of outer(inner(z)), each map a (num, den) pair of ascending
    coefficients: outer's terms c_k z^k become c_k N^k D^(d - k) for inner = N/D
    and d the degree of outer."""
    N, D = (np.asarray(c, dtype=complex) for c in inner)
    d = max(len(c) for c in outer) - 1
    terms = [npp.polymul(npp.polypow(N, k), npp.polypow(D, d - k)) for k in range(d + 1)]
    return tuple(functools.reduce(npp.polyadd, [c * term for c, term in zip(coeffs, terms)])
                 for coeffs in outer)


# ---------------------------------------------------------------------------
# brute-force spherical geometry


def chordal_bf(a, b):
    """Direct chordal distance; a and b are complex or the string 'inf'."""
    ainf = isinstance(a, str)
    binf = isinstance(b, str)
    if ainf and binf:
        return 0.0
    if ainf or binf:
        w = b if ainf else a
        return 2.0 / math.sqrt(1.0 + abs(w) ** 2)
    return 2.0 * abs(a - b) / math.sqrt((1.0 + abs(a) ** 2) * (1.0 + abs(b) ** 2))


def sph_deriv_bf(num, den, z, h=None):
    """Spherical derivative norm from the defining formula with an explicit
    |f'| from the quotient rule; no chart tricks, small moduli only."""
    num = np.asarray(num, dtype=complex)
    den = np.asarray(den, dtype=complex)
    p = np.polyval(num[::-1], z)
    q = np.polyval(den[::-1], z)
    dp = np.polyval(np.polyder(num[::-1]), z) if num.size > 1 else 0.0
    dq = np.polyval(np.polyder(den[::-1]), z) if den.size > 1 else 0.0
    fprime = (dp * q - p * dq) / q**2
    f = p / q
    return abs(fprime) * (1.0 + abs(z) ** 2) / (1.0 + abs(f) ** 2)


def sph_deriv_sphere_bf(num, den, z):
    """sph_deriv_bf anywhere on the sphere, z = 'inf' included.

    z -> 1/z and f -> 1/f are chordal isometries, so infinity is read as
    w = 0 of w -> f(1/w) (reversed coefficients padded to the degree), and
    points with |f| > 1 through 1/f = q/p; no pole is ever divided by.
    """
    if isinstance(z, str):
        p, q = _padded(num, den)
        num, den, z = p[::-1], q[::-1], 0.0
    if abs(np.polyval(np.asarray(den)[::-1], z)) < abs(np.polyval(np.asarray(num)[::-1], z)):
        num, den = den, num
    return sph_deriv_bf(num, den, z)


# ---------------------------------------------------------------------------
# brute-force rational maps: np.polyval values, np.roots preimages


def _padded(num, den):
    """num and den (ascending, no trailing zeros) zero-padded to the degree."""
    num = np.asarray(num, dtype=complex)
    den = np.asarray(den, dtype=complex)
    d = max(num.size, den.size) - 1
    p = np.zeros(d + 1, dtype=complex)
    q = np.zeros(d + 1, dtype=complex)
    p[: num.size] = num
    q[: den.size] = den
    return p, q


def rational_eval_bf(num, den, z):
    """p(z)/q(z) by np.polyval, 'inf' at a pole.  At z = 'inf' the value is
    the ratio of the degree-d coefficients (d the larger degree)."""
    p, q = _padded(num, den)
    if isinstance(z, str):
        a, b = p[-1], q[-1]
    else:
        a, b = np.polyval(p[::-1], z), np.polyval(q[::-1], z)
    return "inf" if b == 0 else complex(a / b)


def preimages_bf(num, den, z, rtol=1e-12):
    """All d solutions of p(w)/q(w) = z by np.roots; z may be 'inf'.

    A finite z solves p - z q = 0, infinity solves q = 0.  Leading
    coefficients of modulus <= rtol (|p_d| + |z| |q_d|) count as cancelled
    (for z = 'inf' only exact zeros do); each one is a solution at 'inf'.
    """
    p, q = _padded(num, den)
    d = p.size - 1
    if isinstance(z, str):
        c, tol = q, 0.0
    else:
        c, tol = p - z * q, rtol * (abs(p[d]) + abs(z) * abs(q[d]))
    n = d + 1
    while n > 1 and abs(c[n - 1]) <= tol:
        n -= 1
    roots = [complex(r) for r in np.roots(c[:n][::-1])] if n > 1 else []
    return roots + ["inf"] * (d - len(roots))


def best_match(got, ref):
    """Largest chordal distance between two equal-size point lists under the
    best pairing (brute force over permutations; points complex or 'inf')."""
    assert len(got) == len(ref)
    return min(
        max((chordal_bf(a, b) for a, b in zip(perm, ref)), default=0.0)
        for perm in itertools.permutations(got)
    )


# ---------------------------------------------------------------------------
# scalar word references: one point, one symbol at a time


def _generator(mm, sym):
    """Generator sym of mm, symbols being 1-based; ValueError outside 1..s."""
    if not 1 <= sym <= mm.num_generators:
        raise ValueError(f"symbol {sym} out of range 1..{mm.num_generators}")
    return mm.generators[sym - 1]


def word_eval(mm, word, z):
    """Apply the generators named by the word, first symbol first."""
    pt = as_point(z)
    for sym in word:
        pt = _generator(mm, sym)(pt)
    return pt


def word_derivative_norm(mm, word, z):
    """Product of spherical derivative norms along the orbit of z."""
    pt = as_point(z)
    acc = 1.0
    for sym in word:
        f = _generator(mm, sym)
        acc *= f.spherical_derivative_norm(pt)
        pt = f(pt)
    return acc


def skew_preimages(mm, z):
    """All (symbol, y) with f_symbol(y) = z; total_degree entries."""
    return [(j, y) for j, f in enumerate(mm.generators, start=1) for y in f.preimages(z)]


def flat_arrays(cloud):
    """(z, depth) of a PointCloud: every level's points concatenated in depth
    order, with the depth of each."""
    z = np.concatenate([lev.z for lev in cloud.levels])
    depth = np.concatenate([np.full(lev.size, d, dtype=np.int64)
                            for d, lev in enumerate(cloud.levels)])
    return z, depth


def cloud_entries(cloud):
    """Yield (point, word, depth) over every entry of a PointCloud of
    backward reference levels (RefLevel, as backward_levels_ref builds
    them), the word in composition order: those levels keep the newest
    symbol, which acts first, in the final column."""
    for depth, lev in enumerate(cloud.levels):
        for i in range(lev.size):
            word = tuple(int(x) for x in lev.words[i, ::-1])
            yield as_point(lev.z[i]), word, depth


# ---------------------------------------------------------------------------
# brute-force transfer sums (explicit word enumeration, np.roots preimages)


def transfer_sum_bf(gen_coeffs, t, z, n):
    """S_n(t, z) by enumerating all length-n words and all preimages, with
    np.roots as the root finder.  gen_coeffs: list of (num, den) ascending
    coefficient tuples of polynomial maps (den == (1,) assumed).
    """
    total = 0.0
    s = len(gen_coeffs)
    for word in itertools.product(range(s), repeat=n):
        # preimages y with f_{w_n}(...f_{w_1}(y)...) = z: peel from the outside
        targets = [complex(z)]
        for sym in reversed(word):
            num, _den = gen_coeffs[sym]
            new_targets = []
            for tgt in targets:
                c = np.asarray(num, dtype=complex).copy()
                c[0] -= tgt
                new_targets.extend(np_roots(c))
            targets = new_targets
        # now targets are the level-n preimages along this word; weight each
        for y in targets:
            d = 1.0
            x = y
            for sym in word:
                num, den = gen_coeffs[sym]
                d *= sph_deriv_bf(num, den, x)
                x = np.polyval(np.asarray(num, dtype=complex)[::-1], x)
            total += d ** (-t)
    return total


def power_beta(degrees, t):
    """Closed-form level-sum base for power maps: sum_j d_j^(1-t)."""
    return math.fsum(float(d) ** (1.0 - t) for d in degrees)


def moran_root_bf(ratios, lo=0.0, hi=64.0):
    """Moran equation root via scipy brentq (independent of the library's
    bisection)."""
    from scipy.optimize import brentq

    f = lambda t: math.fsum(r**t for r in ratios) - 1.0
    if f(lo) <= 0.0:
        return lo
    return brentq(f, lo, hi, xtol=1e-13)


def _delta_rows_ref(table):
    """The deltas of a sweep table as a grid, nan where the row is not ok."""
    deltas = [r.delta if r.status == "ok" else np.nan for r in table.rows]
    return np.array(deltas, dtype=float).reshape(table.shape)


def submean_ref(table, radius):
    """families.submean_diagnostic by a loop over the grid's cells: each
    ring is gathered cell by cell in row-major offset order and averaged as
    its own array."""
    k = radius
    D = _delta_rows_ref(table)
    re_n, im_n = table.shape
    scale = table.error_scale()
    tol_sub = 3.0 * scale if math.isfinite(scale) else math.inf
    offs = [(di, dj) for di in range(-k, k + 1) for dj in range(-k, k + 1)
            if max(abs(di), abs(dj)) == k]
    checked, worst, worst_at, worst_inv, worst_inv_at, flagged = 0, -math.inf, None, -math.inf, None, []
    for i in range(k, re_n - k):
        for j in range(k, im_n - k):
            center = D[i, j]
            if not math.isfinite(center):
                continue
            ring = np.array([D[i + di, j + dj] for di, dj in offs])
            if not np.all(np.isfinite(ring)):
                continue
            checked += 1
            lam = complex(table.row_at(i, j).lam)
            v = center - float(ring.mean())
            vi = float((1.0 / ring).mean()) - 1.0 / center
            if v > worst:
                worst, worst_at = v, lam
            if vi > worst_inv:
                worst_inv, worst_inv_at = vi, lam
            if v > tol_sub or vi > tol_sub:
                flagged.append((lam, max(v, vi)))
    verdict = "inconclusive" if checked == 0 else "fail" if flagged else "pass"
    return SubmeanReport(tol_sub, checked, worst, worst_at, worst_inv,
                         worst_inv_at, flagged, verdict)


def smoothness_ref(table, line, fit_degree):
    """families.smoothness_diagnostic with the line taken as a list of rows
    and the psh indicator computed by a loop over the interior cells."""
    axis, idx = line
    re_n, im_n = table.shape
    if axis == "row":
        params = table.grid.im_values
        rows = [table.row_at(idx, j) for j in range(im_n)]
    else:
        params = table.grid.re_values
        rows = [table.row_at(i, idx) for i in range(re_n)]
    s = np.array([p for p, r in zip(params, rows) if r.status == "ok"])
    phi = np.array([r.delta for r in rows if r.status == "ok"])
    if s.size < fit_degree + 4:
        raise InsufficientPoints(f"{s.size} usable points on the line; need {fit_degree + 4}")
    errs = [r.delta_error for r in rows if r.status == "ok"]
    scale = max(float(np.median(errs)), 1e-15)
    resid = phi - np.polyval(np.polyfit(s, phi, fit_degree), s)
    max_resid = float(np.max(np.abs(resid)))

    min_q = noise = argmin = None
    if re_n >= 3 and im_n >= 3:
        D = _delta_rows_ref(table)
        hx = (table.grid.re_max - table.grid.re_min) / (re_n - 1)
        hy = (table.grid.im_max - table.grid.im_min) / (im_n - 1)
        e = table.error_scale()
        for i in range(1, re_n - 1):
            for j in range(1, im_n - 1):
                c, up, dn, rt, lf = D[i, j], D[i + 1, j], D[i - 1, j], D[i, j + 1], D[i, j - 1]
                if not all(math.isfinite(x) for x in (c, up, dn, rt, lf)):
                    continue
                lap = (up + dn - 2 * c) / hx**2 + (rt + lf - 2 * c) / hy**2
                gx, gy = (up - dn) / (2 * hx), (rt - lf) / (2 * hy)
                q = c * lap - 2.0 * (gx * gx + gy * gy)
                if q < (math.inf if min_q is None else min_q):
                    min_q, argmin = float(q), complex(table.row_at(i, j).lam)
                    noise = (abs(c) * (4 * e / hx**2 + 4 * e / hy**2) + abs(lap) * e
                             + 4 * (abs(gx) / hx + abs(gy) / hy) * e)
    return SmoothnessReport(int(s.size), max_resid, scale, max_resid / scale, min_q, noise, argmin)


def box_count_bf(points, eps, origin):
    """Occupied-box count at one scale, done with a Python set of cells."""
    cells = set()
    x0, y0 = origin
    for z in points:
        cells.add((math.floor((z.real - x0) / eps), math.floor((z.imag - y0) / eps)))
    return len(cells)


def box_fit_ref(scales, counts):
    """(slope, r^2) of the least-squares line of log N on log 1/eps, from
    np.polyfit and the residual sum of squares."""
    xs = np.log(1.0 / np.asarray(scales))
    ys = np.log(np.asarray(counts, dtype=float))
    slope, intercept = np.polyfit(xs, ys, 1)
    fit = slope * xs + intercept
    ss_res = float(np.sum((ys - fit) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    return float(slope), 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot


def julia_render_ref(cloud, width, height, viewport=None, depth_coloring=False):
    """cli julia's PPM bytes and its points, bounding-box and radial-range
    lines, from the whole cloud at once: its finite points concatenated and
    painted in one fancy-index assignment, where a later row (a deeper
    level) overwrites an earlier one."""
    z, depths = flat_arrays(cloud)
    finite = np.isfinite(z)
    z, depths = z[finite], depths[finite]
    xmin, xmax = float(z.real.min()), float(z.real.max())
    ymin, ymax = float(z.imag.min()), float(z.imag.max())
    if viewport is None:
        pad = 0.05 * max(xmax - xmin, ymax - ymin, 1e-9)
        viewport = xmin - pad, xmax + pad, ymin - pad, ymax + pad
    vx0, vx1, vy0, vy1 = viewport
    img = np.full((height, width, 3), 255, dtype=np.uint8)
    px = np.floor((z.real - vx0) / (vx1 - vx0) * width).astype(np.int64)
    py = np.floor((vy1 - z.imag) / (vy1 - vy0) * height).astype(np.int64)
    keep = (px >= 0) & (px < width) & (py >= 0) & (py < height)
    px, py, depths = px[keep], py[keep], depths[keep]
    col = np.zeros((px.size, 3), dtype=np.uint8)
    if depth_coloring and cloud.depth > 0:
        f = depths / float(cloud.depth)
        col[:, 0] = np.round(230 * (1.0 - f))
        col[:, 1] = 30
        col[:, 2] = np.round(230 * f)
    img[py, px] = col
    r = np.abs(z)
    lines = [
        f"points {z.size} finite + {cloud.size - z.size} at infinity "
        f"({cloud.size} total, depth {cloud.depth})",
        f"bounding box [{xmin:.6g}, {xmax:.6g}] x [{ymin:.6g}, {ymax:.6g}]",
        f"radial range [{float(r.min()):.6g}, {float(r.max()):.6g}]",
    ]
    return f"P6\n{width} {height}\n255\n".encode("ascii") + img.tobytes(), lines


# ---------------------------------------------------------------------------
# reference capped backward level: solve every child, then subsample


@dataclass
class RefLevel:
    """A reference level with the word of every row, int8 of shape
    (n, depth); the library's CloudLevel keeps no words.  It keeps logw per
    row, where CloudLevel keeps one float.  With a float logw it can also
    stand as a parent level for dynamics._expand_backward."""

    z: np.ndarray
    words: np.ndarray
    logd: np.ndarray | None = None
    logw: np.ndarray | float | None = None
    min_step_norm: float = math.inf

    @property
    def size(self) -> int:
        return int(self.z.shape[-1])


def _splitmix64_ref(seed, counter):
    """Output number counter of the splitmix64 stream of seed, in Python ints."""
    mask = (1 << 64) - 1
    x = (seed + counter * 0x9E3779B97F4A7C15) & mask
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
    return x ^ (x >> 31)


def jittered_ref(seed, m, k):
    """Jittered systematic picks of k from range(m), one scalar at a time:
    slice i draws floor((i + u_i) m / k) with u_i = (top 32 bits of output
    i + 1 of the stream) / 2^32, in exact integer arithmetic.  Every index
    once when k >= m."""
    if k >= m:
        return list(range(m))
    return [((i << 32) + (_splitmix64_ref(seed, i + 1) >> 32)) * m // (k << 32) for i in range(k)]


def jittered_expr_ref(seed, m, k):
    """The jittered picks as one out-of-place numpy expression: the splitmix64
    stream of seed at counters 1..k, its top 32 bits u_i, then
    (i m + floor(u_i m / 2^32)) // k.  Every index once when k >= m."""
    if k >= m:
        return np.arange(m)
    counters = np.arange(1, k + 1, dtype=np.uint64)
    x = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + counters * np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    u = (x ^ (x >> np.uint64(31))) >> np.uint64(32)
    return (np.arange(k) * m + (u * np.uint64(m) >> np.uint64(32)).astype(np.int64)) // k


def quadratic_roots_ref(C):
    """sphere._quadratic_roots_batch as out-of-place np.where expressions, one
    new array per step: the stable closed form q = -(c1 + s) / 2, s the
    square root of the discriminant signed against cancellation, roots q / c2
    (0 where not finite) and c0 / q (0 where q = 0)."""
    c0, c1, c2 = C
    disc = c1 * c1 - 4.0 * c2 * c0
    sq = np.sqrt(disc)
    flip = np.real(np.conj(c1) * sq) < 0
    sq = np.where(flip, -sq, sq)
    q = -0.5 * (c1 + sq)
    with np.errstate(invalid="ignore", divide="ignore"):
        r1 = q / c2
        r2 = np.where(q != 0, c0 / np.where(q == 0, 1.0, q), 0.0)
    return np.stack([np.where(np.isfinite(r1), r1, 0.0), r2], axis=-1)


def preimages_dense_ref(stack, z):
    """MapStack.preimages_many the dense way: the full (d + 1, K U) matrix of
    P - zQ, Q for a target at infinity, then one sphere.roots_batch call per
    number k of cancelled leading coefficients (|c| <= 1e-12 (|P_d| + |z|
    |Q_d|), or zero at infinity), whose rows end in k INF_Z."""
    d, shape = stack.degree, np.shape(z)
    z = np.asarray(z, dtype=complex).reshape(stack.P.shape[1], -1)
    inf = np.isinf(z)
    z = np.where(inf, 0j, z)
    C = np.empty((d + 1,) + z.shape, dtype=complex)
    for c, p, q in zip(C, stack.P[:, :, None], stack.Q[:, :, None]):
        np.subtract(p, np.multiply(z, q, out=c), out=c)
    C[:, inf] = stack.Q[:, np.nonzero(inf)[0]]
    qd = np.abs(stack.Q[d])[:, None]
    tol = 1e-12 * (np.where(inf, qd, np.abs(stack.P[d])[:, None] + np.abs(z) * qd) + 1e-300)
    C, tol = C.reshape(d + 1, -1), tol.ravel()
    k = np.cumprod(np.abs(C[:0:-1]) <= tol, axis=0).sum(axis=0)
    roots = np.full((C.shape[1], d), INF_Z)
    for kk in np.unique(k):
        rows = np.flatnonzero(k == kk)
        roots[rows, : d - kk] = roots_batch(C[: d - kk + 1, rows])
    return roots.reshape(shape + (d,))


def kept_rows_ref(n, cap, seed, tag):
    """Rows of an n-row level a capped subsample keeps, in row order with
    repeats, and the log weight shift log(n / cap) of every kept row (0
    where nothing is dropped)."""
    from ratsemi.dynamics import _derive_seed

    if n <= cap:
        return np.arange(n), 0.0
    return np.array(jittered_ref(_derive_seed(seed, tag), n, cap)), math.log(n / cap)


def subsample_ref(level, cap, seed, tag, step_norm):
    """kept_rows_ref on a RefLevel.  Returns the reduced (z, words, logd,
    logw) columns, the kept rows reweighted in logw, and the minimum of
    level.min_step_norm and the step_norm of the kept rows."""
    idx, shift = kept_rows_ref(level.size, cap, seed, tag)
    min_norm = min(level.min_step_norm, float(step_norm[idx].min()))
    logd = None if level.logd is None else level.logd[idx]
    return (level.z[idx], level.words[idx], logd, level.logw[idx] + shift), min_norm


def expand_then_subsample(mm, level, cap, seed, tag):
    """A capped backward level built the long way: preimages and derivative
    norms of every child in construction order (generator, parent, slot),
    then subsample_ref.  Same return shape as subsample_ref; its minimum
    step norm is a running one, over level's min_step_norm and the kept
    children's norms, so a chain of levels carries the minimum over
    levels 1..n."""
    parts = []
    for j, f in enumerate(mm.generators, start=1):
        d = f.degree
        z = f.preimages_many(level.z).ravel()
        norms = f.spherical_derivative_norm_many(z)
        with np.errstate(divide="ignore"):
            logd = np.repeat(level.logd, d) + np.log(norms)
        words = np.empty((z.size, level.words.shape[1] + 1), dtype=np.int8)
        words[:, :-1] = np.repeat(level.words, d, axis=0)
        words[:, -1] = j
        parts.append((z, words, logd, np.repeat(np.broadcast_to(level.logw, level.size), d), norms))
    z, words, logd, logw, norms = (np.concatenate(col) for col in zip(*parts))
    full = RefLevel(z, words, logd, logw, level.min_step_norm)
    return subsample_ref(full, cap, seed, tag, norms)


def sibling_cloud_ref(mm, depth, cap, rng_seed=0):
    """The points of julia_backward_cloud the long way.  Level 0 is the
    repelling seed.  Level n solves every child of level n - 1, generator by
    generator, as one sibling set (all d_j roots, in slot order) per
    (generator j, parent) pair.  Over the cap (more than cap children) it
    keeps the sets of the pairs jittered_expr_ref draws: cap // (largest
    degree) picks, at least one, from the s m pairs in construction order,
    seed _derive_seed(rng_seed, n); a pair drawn twice is kept twice.  Within
    the cap it keeps every set.  Returns the z array of each level."""
    from ratsemi.dynamics import _derive_seed, repelling_seed

    levels = [np.array([repelling_seed(mm)[0]], dtype=complex)]
    for n in range(1, depth + 1):
        z = levels[-1]
        sets = [row for f in mm.generators for row in f.preimages_many(z).reshape(z.size, f.degree)]
        pairs = range(len(sets))
        if z.size * mm.total_degree > cap:
            k = max(1, cap // max(mm.degrees))
            pairs = jittered_expr_ref(_derive_seed(rng_seed, n), len(sets), k)
        levels.append(np.concatenate([sets[i] for i in pairs]))
    return levels


def backward_levels_ref(mm, level, cap, seed, depth):
    """Levels 1..depth of expand_then_subsample chained from level, level n
    drawn with tag n, as _expand_backward chains them.  Each keeps its
    min_step_norm, the running minimum over levels 1..n, and its words,
    newest symbol in the final column: that symbol acts first, so the
    composition-order word of row i is tuple(words[i, ::-1]).  level is a
    RefLevel with logd and logw."""
    out = []
    for n in range(1, depth + 1):
        cols, min_norm = expand_then_subsample(mm, level, cap, seed, n)
        level = RefLevel(*cols, min_step_norm=min_norm)
        out.append(level)
    return out


# ---------------------------------------------------------------------------
# reference forward (postcritical) cloud: expand every level, keep first occurrences


def _first_occurrences_ref(z, words):
    """The rows of a level whose rounded coordinates (9 decimals; infinity
    one key of its own) no earlier row has, in row order, found with a
    Python dict instead of a sort."""
    first = {}
    for i in range(z.size):
        key = "inf" if np.isinf(z[i]) else (float(np.round(z[i].real, 9)), float(np.round(z[i].imag, 9)))
        first.setdefault(key, i)
    idx = np.fromiter(first.values(), dtype=np.int64, count=len(first))  # insertion order
    return z[idx], words[idx]


def postcritical_cloud_ref(mm, depth, cap, rng_seed=0):
    """The forward cloud the long way: level 0 is the critical values of
    every generator in generator order, level n every generator's images
    of level n - 1, generator by generator; each is cut to its first
    occurrences and then subsampled by kept_rows_ref.  Returns (z, words)
    per level; words grow by appending, so words[i] is row i's word
    in composition order."""
    from ratsemi.dynamics import _derive_seed

    crit = [p for f in mm.generators for p in f.critical_values()]
    z = np.array(crit, dtype=complex)
    levels = [_first_occurrences_ref(z, np.zeros((len(crit), 0), dtype=np.int8))]
    for n in range(1, depth + 1):
        z, words = levels[-1]
        if z.size == 0:
            levels.append(levels[-1])
            continue
        zs, ws = [], []
        for j, f in enumerate(mm.generators, start=1):
            zs.append(f.eval_many(z))
            ws.append(np.hstack([words, np.full((z.size, 1), j, dtype=np.int8)]))
        z, words = _first_occurrences_ref(np.concatenate(zs), np.vstack(ws))
        idx, _ = kept_rows_ref(z.size, cap, _derive_seed(rng_seed, 0xF0), n)
        levels.append((z[idx], words[idx]))
    return levels
