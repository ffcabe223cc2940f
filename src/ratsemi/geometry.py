"""Open-region primitives, sampled open-set-condition checks, box counting.

Each region class answers for itself on arrays of finite points: interior
(strict membership), distance (Euclidean, to the closure), bounding_box (of
the boundary) and max_modulus (largest |z| on the closure, inf if unbounded);
holds_infinity says whether infinity lies in the region.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import MultiMap, PointCloud, VerificationReport, _integer, _run_starts
from .errors import InsufficientPoints
from .sphere import INF_Z, _point_array, as_point

MIN_BOX_POINTS = 10_000
MAX_BOX_SCALES = 24  # finest cell index at most 8 * 2^23, well inside half of a packed cell key
_SLICE = 1 << 14  # points per pass over a level in cli julia and box_dimension


# ---------------------------------------------------------------------------
# regions


@dataclass(frozen=True)
class _Round:
    """The fields, validation and bounding box that Disc and its complement share."""

    center: complex
    r: float

    def __post_init__(self):
        if not self.r > 0:
            raise ValueError("disc radius must be positive")

    def bounding_box(self):
        c, r = self.center, self.r
        return c.real - r, c.real + r, c.imag - r, c.imag + r


@dataclass(frozen=True)
class Disc(_Round):
    """Open disc |z - center| < r."""

    holds_infinity = False

    def interior(self, z: np.ndarray) -> np.ndarray:
        return np.abs(z - self.center) < self.r

    def distance(self, z: np.ndarray) -> np.ndarray:
        return np.maximum(np.abs(z - self.center) - self.r, 0.0)

    def max_modulus(self) -> float:
        return abs(self.center) + self.r


@dataclass(frozen=True)
class ComplementDisc(_Round):
    """Points outside the closed disc, plus infinity."""

    holds_infinity = True

    def interior(self, z: np.ndarray) -> np.ndarray:
        return np.abs(z - self.center) > self.r

    def distance(self, z: np.ndarray) -> np.ndarray:
        return np.maximum(self.r - np.abs(z - self.center), 0.0)

    def max_modulus(self) -> float:
        return math.inf


@dataclass(frozen=True)
class Annulus:
    center: complex
    r1: float
    r2: float
    holds_infinity = False

    def __post_init__(self):
        if not 0 < self.r1 < self.r2:
            raise ValueError("annulus needs 0 < r1 < r2")

    def interior(self, z: np.ndarray) -> np.ndarray:
        r = np.abs(z - self.center)
        return (self.r1 < r) & (r < self.r2)

    def distance(self, z: np.ndarray) -> np.ndarray:
        r = np.abs(z - self.center)
        return np.maximum(np.maximum(self.r1 - r, r - self.r2), 0.0)

    def bounding_box(self):
        c, r = self.center, self.r2
        return c.real - r, c.real + r, c.imag - r, c.imag + r

    def max_modulus(self) -> float:
        return abs(self.center) + self.r2


@dataclass(frozen=True)
class Triangle:
    """Open triangle interior; vertices are normalized to counterclockwise."""

    p1: complex
    p2: complex
    p3: complex
    holds_infinity = False

    def __post_init__(self):
        a, b, c = complex(self.p1), complex(self.p2), complex(self.p3)
        cross = ((b - a).conjugate() * (c - a)).imag
        if cross == 0.0:
            raise ValueError("triangle vertices are collinear")
        if cross < 0.0:
            b, c = c, b
        object.__setattr__(self, "p1", a)
        object.__setattr__(self, "p2", b)
        object.__setattr__(self, "p3", c)

    @property
    def vertices(self):
        return (self.p1, self.p2, self.p3)

    def interior(self, z: np.ndarray) -> np.ndarray:
        ok = np.ones(z.shape, dtype=bool)
        a, b, c = self.vertices
        for p, q in ((a, b), (b, c), (c, a)):
            ok &= ((q - p).conjugate() * (z - p)).imag > 0.0
        return ok

    def distance(self, z: np.ndarray) -> np.ndarray:
        a, b, c = self.vertices
        d = np.minimum(
            _segment_distance(z, a, b),
            np.minimum(_segment_distance(z, b, c), _segment_distance(z, c, a)),
        )
        return np.where(self.interior(z), 0.0, d)

    def bounding_box(self):
        res = [v.real for v in self.vertices]
        ims = [v.imag for v in self.vertices]
        return min(res), max(res), min(ims), max(ims)

    def max_modulus(self) -> float:
        return max(abs(v) for v in self.vertices)


def _segment_distance(z: np.ndarray, a: complex, b: complex) -> np.ndarray:
    ab = b - a
    t = np.clip(((z - a) * np.conjugate(ab)).real / abs(ab) ** 2, 0.0, 1.0)
    return np.abs(z - (a + t * ab))


def region_contains(U, point) -> bool:
    """Strict-interior membership; infinity belongs only to a region that holds it."""
    return bool(_contains_many(U, _point_array(point))[0])


def _fattened_contains_many(U, z: np.ndarray, eps: float) -> np.ndarray:
    """Membership in the chordal eps-neighborhood of the closed region.

    A chordal ball of radius eps at a finite z has Euclidean radius about
    eps * (1 + |z|^2) / 2, which converts the fattening locally.  Infinity
    lies within chordal distance 2 / sqrt(1 + m^2) of a closure of largest
    modulus m, so an unbounded region (m = inf) always reaches it.
    """
    m = U.max_modulus()
    out = np.full(z.shape, 2.0 / math.sqrt(1.0 + m * m) <= eps)
    finite = np.isfinite(z)
    zf = z[finite]
    out[finite] = U.distance(zf) <= eps * (1.0 + np.abs(zf) ** 2) / 2.0
    return out


# ---------------------------------------------------------------------------
# open set condition


def _lattice(x0, x1, y0, y1, n):
    xs = x0 + (x1 - x0) * np.arange(n + 1) / n
    ys = y0 + (y1 - y0) * np.arange(n + 1) / n
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return (gx + 1j * gy).ravel()


def _enlarged(x0, x1, y0, y1, factor):
    cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    hx, hy = 0.5 * (x1 - x0) * factor, 0.5 * (y1 - y0) * factor
    return cx - hx, cx + hx, cy - hy, cy + hy


def _sample_points(U, grid_n: int, enlarge: float):
    """Grid over the enlarged bounding box; a region holding infinity (a
    ComplementDisc) adds a 1/z-chart grid and the point at infinity itself."""
    x0, x1, y0, y1 = _enlarged(*U.bounding_box(), enlarge)
    z = _lattice(x0, x1, y0, y1, grid_n)
    spacing = max(x1 - x0, y1 - y0) / grid_n
    if U.holds_infinity:
        h = enlarge / U.r
        w = _lattice(-h, h, -h, h, grid_n)
        w = w[np.abs(w) > 1e-12]
        z = np.concatenate([z, 1.0 / w, [INF_Z]])
    return z, spacing


def _contains_many(U, z: np.ndarray) -> np.ndarray:
    out = np.full(z.shape, U.holds_infinity)
    finite = np.isfinite(z)
    out[finite] = U.interior(z[finite])
    return out


def _smallest_witness(z: np.ndarray, mask: np.ndarray):
    """The first point of z under mask with the least (real, imag); INF_Z sorts last."""
    idx = np.flatnonzero(mask)
    re = z.real[idx]
    idx = idx[re == re.min()]  # the least real part; then the least imaginary part among those
    return as_point(z[idx[np.argmin(z.imag[idx])]])


def osc_check(
    mm: MultiMap,
    U,
    grid_n: int = 256,
    variant: str = "plain",
    epsilon: float = 1e-3,
    enlarge: float = 1.5,
) -> VerificationReport:
    """Sampled open-set-condition check on a lattice over U's bounding box.

    Tests x in f_j^{-1}(U) via f_j(x) in U.  Violation A: f_j(x) in U while
    x is outside U (the preimages do not nest into U).  Violation B: two
    different generators both pull x into U (the preimages overlap).  The
    separating variant fattens only the overlap test by a chordal epsilon to
    approximate closures; epsilon 0 tests the closed region, and a negative
    one, which would hide overlaps, raises ValueError.  The lattice endpoints
    are shared across dyadic refinements, so a failing witness persists when
    grid_n doubles.  enlarge scales the lattice window about U's bounding
    box and must lie in [1, 16], as config.osc.enlarge does: a smaller
    window misses part of U, and at 0 every sample is the box centre.
    """
    if _integer(grid_n, "grid_n") < 64:
        raise ValueError("grid_n must be at least 64")
    if variant not in ("plain", "separating"):
        raise ValueError(f"unknown variant {variant!r}")
    if not epsilon >= 0.0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon!r}")
    if not 1.0 <= enlarge <= 16.0:
        raise ValueError(f"enlarge must lie in [1, 16], got {enlarge!r}")
    z, spacing = _sample_points(U, int(grid_n), enlarge)
    outside = ~_contains_many(U, z)
    # nesting: some f(x) in U with x outside U; overlap: at least two
    # generators hit, fattened by epsilon in the separating variant
    mask_a = np.zeros(z.shape, dtype=bool)
    hits = np.zeros(z.shape, dtype=int)
    for f in mm.generators:
        img = f.eval_many(z)
        strict = _contains_many(U, img)
        mask_a |= strict & outside
        hits += _fattened_contains_many(U, img, epsilon) if variant == "separating" else strict
    mask_b = hits >= 2

    witnesses = []
    if np.any(mask_a):
        pt = _smallest_witness(z, mask_a)
        witnesses.append(
            (pt, "some generator maps this point into U although it lies outside U")
        )
    if np.any(mask_b):
        pt = _smallest_witness(z, mask_b)
        tag = "closed " if variant == "separating" else ""
        witnesses.append(
            (pt, f"two generators map this point into the {tag}region, so the "
                 "preimages are not disjoint")
        )
    metrics = {
        "samples": int(z.size),
        "violations_nesting": int(mask_a.sum()),
        "violations_overlap": int(mask_b.sum()),
    }
    verdict = "fail" if witnesses else "pass"
    return VerificationReport(verdict, witnesses, float(spacing), metrics)


# ---------------------------------------------------------------------------
# box-counting dimension


def _slices(z):
    """The finite points of each run of _SLICE consecutive points of z: the run
    itself, a view, when it holds no point at infinity, else a masked copy."""
    for i in range(0, z.size, _SLICE):
        s = z[i:i + _SLICE]
        finite = np.isfinite(s)
        yield s if finite.all() else s[finite]


def _bounds(zs, *parts):
    """The number of finite points of the arrays zs and each part's (min, max) over
    them, (inf, -inf) if none, in one pass of _slices: exact, as min and max are."""
    n, lo, hi = 0, [math.inf] * len(parts), [-math.inf] * len(parts)
    for s in (s for z in zs for s in _slices(z) if s.size):
        n += s.size
        for i, a in enumerate(p(s) for p in parts):
            lo[i], hi[i] = min(lo[i], float(a.min())), max(hi[i], float(a.max()))
    return n, *zip(lo, hi)


def _distinct(keys):
    """The distinct values of an int64 key array, ascending; sorts keys in place."""
    keys.sort()
    return keys[_run_starts(keys)]


@dataclass
class BoxCountResult:
    scales: list
    counts: list
    slope: float
    r_squared: float


def box_dimension(cloud, scale_count: int = 6, viewport=None) -> BoxCountResult:
    """Dyadic box-counting slope of a planar point cloud.

    cloud is a PointCloud, read level by level and never concatenated, or
    an array of points, read as one level: only finite points count.
    viewport is (xmin, xmax, ymin, ymax), four finite bounds with
    xmin <= xmax and ymin <= ymax, and defaults to the cloud's bounding box.
    The base scale is an eighth of the viewport's longer side, and scale k
    is eps_k = eps_0 * 2^-k for k < scale_count, 2 <= scale_count <= 24.

    At most two passes read a level, _bounds for the default viewport and
    the count, in slices of _SLICE points (_slices): temporaries have a fixed
    size even with points at infinity.  The points are binned once, at the finest
    scale; the occupied cells of a level's slices are merged once per level.
    _distinct sorts the keys and keeps the first of each run, as numpy 2.4's
    np.unique hashes int64 keys, over 7 times slower on 200,000 cell keys.
    Dividing by a power of two is exact, so a point's cell at scale k is its
    finest cell shifted right by the scale difference.  Cell indices are at
    most 8 * 2^23, so both 32-bit halves of the packed cell key shift exactly.
    The fit of log N on log 1/eps is closed-form: no LAPACK or BLAS call.
    """
    if not 2 <= scale_count <= MAX_BOX_SCALES:
        raise ValueError(f"scale_count must be in 2..{MAX_BOX_SCALES}, got {scale_count}")
    if isinstance(cloud, PointCloud):
        zs = [lev.z for lev in cloud.levels]
    else:
        zs = [np.asarray(cloud, dtype=complex).ravel()]
    if viewport is None:
        n, xs, ys = _bounds(zs, np.real, np.imag)
        if not n:
            raise InsufficientPoints("empty cloud")
        viewport = (*xs, *ys)
    x0, x1, y0, y1 = viewport = tuple(map(float, viewport))
    if not (np.isfinite(viewport).all() and x0 <= x1 and y0 <= y1):
        raise ValueError(f"viewport must be finite, xmin <= xmax, ymin <= ymax, got {viewport}")
    side = max(x1 - x0, y1 - y0)
    scales = [side / 8.0 / 2.0**k for k in range(scale_count)]

    def finest(z):  # the occupied finest cells of one slice, as packed keys
        ix = np.floor((z.real - x0) / scales[-1]).astype(np.int64)
        iy = np.floor((z.imag - y0) / scales[-1]).astype(np.int64)
        ix <<= 32
        ix |= iy
        return _distinct(ix)

    n, cells = 0, np.empty(0, dtype=np.int64)
    for z in zs:
        found = [cells]
        for s in _slices(z):
            keep = (s.real >= x0) & (s.real <= x1) & (s.imag >= y0) & (s.imag <= y1)
            m = int(np.count_nonzero(keep))
            n += m
            if m and side > 0:  # a degenerate viewport is rejected below, after the count
                found.append(finest(s if m == s.size else s[keep]))
        cells = _distinct(np.concatenate(found))
    if n < MIN_BOX_POINTS:
        raise InsufficientPoints(
            f"{n} points in viewport; box counting needs {MIN_BOX_POINTS}"
        )
    if side <= 0:
        raise InsufficientPoints("degenerate viewport")
    counts = [int(cells.size)]
    for _ in range(scale_count - 1):
        cells = _distinct(cells >> 33 << 32 | (cells & 0xFFFFFFFF) >> 1)
        counts.append(int(cells.size))
    counts.reverse()
    x, y = np.log(1.0 / np.asarray(scales)), np.log(np.asarray(counts, dtype=float) / counts[0])
    x, y = x - x.mean(), y - y.mean()  # equal counts give y exactly 0, so r^2 1
    sxx, sxy, syy = float(np.sum(x * x)), float(np.sum(x * y)), float(np.sum(y * y))
    r2 = 1.0 if syy == 0.0 else min(1.0, sxy * sxy / (sxx * syy))
    return BoxCountResult(scales, counts, sxy / sxx, r2)
