"""Open-region primitives, sampled open-set-condition checks, box counting."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import MultiMap, PointCloud, VerificationReport
from .errors import InsufficientPoints
from .sphere import _array_point, _point_arrays

MIN_BOX_POINTS = 10_000
MAX_BOX_SCALES = 24  # finest cell index at most 8 * 2^23, well inside half of a packed cell key


# ---------------------------------------------------------------------------
# regions


@dataclass(frozen=True)
class Disc:
    center: complex
    r: float

    def __post_init__(self):
        if not self.r > 0:
            raise ValueError("disc radius must be positive")


@dataclass(frozen=True)
class Annulus:
    center: complex
    r1: float
    r2: float

    def __post_init__(self):
        if not 0 < self.r1 < self.r2:
            raise ValueError("annulus needs 0 < r1 < r2")


@dataclass(frozen=True)
class ComplementDisc:
    """Points outside the closed disc, plus infinity."""

    center: complex
    r: float

    def __post_init__(self):
        if not self.r > 0:
            raise ValueError("disc radius must be positive")


@dataclass(frozen=True)
class Triangle:
    """Open triangle interior; vertices are normalized to counterclockwise."""

    p1: complex
    p2: complex
    p3: complex

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


Region = (Disc, Annulus, ComplementDisc, Triangle)


def _contains_finite_many(U, z: np.ndarray) -> np.ndarray:
    """Strict-interior membership for an array of finite points."""
    if isinstance(U, Disc):
        return np.abs(z - U.center) < U.r
    if isinstance(U, Annulus):
        r = np.abs(z - U.center)
        return (U.r1 < r) & (r < U.r2)
    if isinstance(U, ComplementDisc):
        return np.abs(z - U.center) > U.r
    if isinstance(U, Triangle):
        ok = np.ones(z.shape, dtype=bool)
        a, b, c = U.vertices
        for p, q in ((a, b), (b, c), (c, a)):
            ok &= ((q - p).conjugate() * (z - p)).imag > 0.0
        return ok
    raise TypeError(f"not a region: {U!r}")


def region_contains(U, point) -> bool:
    """Strict-interior membership; infinity belongs only to ComplementDisc."""
    return bool(_contains_many(U, *_point_arrays(point))[0])


def _segment_distance(z: np.ndarray, a: complex, b: complex) -> np.ndarray:
    ab = b - a
    t = np.clip(((z - a) * np.conjugate(ab)).real / abs(ab) ** 2, 0.0, 1.0)
    return np.abs(z - (a + t * ab))


def _euclid_distance_to_closure(U, z: np.ndarray) -> np.ndarray:
    """Euclidean distance from finite points to the closed region."""
    if isinstance(U, Disc):
        return np.maximum(np.abs(z - U.center) - U.r, 0.0)
    if isinstance(U, Annulus):
        r = np.abs(z - U.center)
        return np.maximum(np.maximum(U.r1 - r, r - U.r2), 0.0)
    if isinstance(U, ComplementDisc):
        return np.maximum(U.r - np.abs(z - U.center), 0.0)
    if isinstance(U, Triangle):
        a, b, c = U.vertices
        d = np.minimum(
            _segment_distance(z, a, b),
            np.minimum(_segment_distance(z, b, c), _segment_distance(z, c, a)),
        )
        return np.where(_contains_finite_many(U, z), 0.0, d)
    raise TypeError(f"not a region: {U!r}")


def _max_modulus_of_closure(U) -> float:
    if isinstance(U, Disc):
        return abs(U.center) + U.r
    if isinstance(U, Annulus):
        return abs(U.center) + U.r2
    if isinstance(U, Triangle):
        return max(abs(v) for v in U.vertices)
    raise TypeError(f"unbounded region: {U!r}")


def _fattened_contains_many(U, z: np.ndarray, inf: np.ndarray, eps: float) -> np.ndarray:
    """Membership in the chordal eps-neighborhood of the closed region.

    A chordal ball of radius eps at a finite z has Euclidean radius about
    eps * (1 + |z|^2) / 2, which converts the fattening locally.
    """
    out = np.zeros(z.shape, dtype=bool)
    fin = ~inf
    if np.any(fin):
        zf = z[fin]
        dist = _euclid_distance_to_closure(U, zf)
        out[fin] = dist <= eps * (1.0 + np.abs(zf) ** 2) / 2.0
    if np.any(inf):
        if isinstance(U, ComplementDisc):
            near = True
        else:
            m = _max_modulus_of_closure(U)
            near = 2.0 / math.sqrt(1.0 + m * m) <= eps
        out[inf] = near
    return out


# ---------------------------------------------------------------------------
# open set condition


def _bounding_box(U):
    if isinstance(U, Disc):
        c, r = U.center, U.r
    elif isinstance(U, Annulus):
        c, r = U.center, U.r2
    elif isinstance(U, ComplementDisc):
        c, r = U.center, U.r
    elif isinstance(U, Triangle):
        res = [v.real for v in U.vertices]
        ims = [v.imag for v in U.vertices]
        return min(res), max(res), min(ims), max(ims)
    else:
        raise TypeError(f"not a region: {U!r}")
    return c.real - r, c.real + r, c.imag - r, c.imag + r


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
    """Grid over the enlarged bounding box; ComplementDisc adds a 1/z-chart
    grid and the point at infinity itself."""
    x0, x1, y0, y1 = _enlarged(*_bounding_box(U), enlarge)
    z = _lattice(x0, x1, y0, y1, grid_n)
    spacing = max(x1 - x0, y1 - y0) / grid_n
    inf = np.zeros(z.shape, dtype=bool)
    if isinstance(U, ComplementDisc):
        h = enlarge / U.r
        w = _lattice(-h, h, -h, h, grid_n)
        w = w[np.abs(w) > 1e-12]
        z = np.concatenate([z, 1.0 / w, [0.0]])
        inf = np.zeros(z.shape, dtype=bool)
        inf[-1] = True
    return z, inf, spacing


def _contains_many(U, z: np.ndarray, inf: np.ndarray) -> np.ndarray:
    out = np.zeros(z.shape, dtype=bool)
    fin = ~inf
    if np.any(fin):
        out[fin] = _contains_finite_many(U, z[fin])
    if np.any(inf):
        out[inf] = isinstance(U, ComplementDisc)
    return out


def _smallest_witness(z: np.ndarray, inf: np.ndarray, mask: np.ndarray):
    idx = np.flatnonzero(mask)
    re = np.where(inf[idx], np.inf, z[idx].real)
    im = np.where(inf[idx], 0.0, z[idx].imag)
    k = idx[np.lexsort((im, re))[0]]
    return _array_point(z[k], inf[k])


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
    grid_n doubles.
    """
    if grid_n < 64:
        raise ValueError("grid_n must be at least 64")
    if variant not in ("plain", "separating"):
        raise ValueError(f"unknown variant {variant!r}")
    if not epsilon >= 0.0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon!r}")
    z, inf, spacing = _sample_points(U, grid_n, enlarge)
    in_u = _contains_many(U, z, inf)
    # per generator: f(x) in U for the nesting test, and the membership the
    # overlap test uses, fattened by epsilon in the separating variant
    strict, fat = [], []
    for f in mm.generators:
        img, img_inf = f.eval_many(z, inf)
        strict.append(_contains_many(U, img, img_inf))
        if variant == "separating":
            fat.append(_fattened_contains_many(U, img, img_inf, epsilon))
    if variant == "plain":
        fat = strict

    mask_a = np.zeros(z.shape, dtype=bool)
    for h in strict:
        mask_a |= h & ~in_u
    mask_b = np.zeros(z.shape, dtype=bool)
    for i in range(len(fat)):
        for j in range(i + 1, len(fat)):
            mask_b |= fat[i] & fat[j]

    witnesses = []
    if np.any(mask_a):
        pt = _smallest_witness(z, inf, mask_a)
        witnesses.append(
            (pt, "some generator maps this point into U although it lies outside U")
        )
    if np.any(mask_b):
        pt = _smallest_witness(z, inf, mask_b)
        tag = "closed " if variant == "separating" else ""
        witnesses.append(
            (pt, f"two generators map this point into the {tag}region, so the "
                 "preimages are not disjoint")
        )
    params = {
        "grid_n": grid_n,
        "variant": variant,
        "epsilon": epsilon if variant == "separating" else None,
        "enlarge": enlarge,
        "region": U,
    }
    metrics = {
        "samples": int(z.size),
        "violations_nesting": int(mask_a.sum()),
        "violations_overlap": int(mask_b.sum()),
    }
    verdict = "fail" if witnesses else "pass"
    return VerificationReport(verdict, witnesses, float(spacing), params, metrics)


# ---------------------------------------------------------------------------
# box-counting dimension


@dataclass
class BoxCountResult:
    scales: list
    counts: list
    slope: float
    r_squared: float


def box_dimension(cloud, scale_count: int = 6, viewport=None) -> BoxCountResult:
    """Dyadic box-counting slope of a planar point cloud.

    cloud is a PointCloud or an array of finite complex points; viewport is
    (xmin, xmax, ymin, ymax) and defaults to the cloud's bounding box.  The
    base scale is an eighth of the viewport's longer side, and scale k is
    eps_k = eps_0 * 2^-k for k < scale_count, 2 <= scale_count <= 24.

    The points are binned once, at the finest scale: dividing by a power of
    two is exact, so a point's cell at scale k is its finest cell shifted
    right by the scale difference.  Cell indices are at most 8 * 2^23, so
    both 32-bit halves of the packed cell key shift exactly.
    """
    if not 2 <= scale_count <= MAX_BOX_SCALES:
        raise ValueError(f"scale_count must be in 2..{MAX_BOX_SCALES}, got {scale_count}")
    if isinstance(cloud, PointCloud):
        z, _ = cloud.finite_points()
    else:
        z = np.asarray(cloud, dtype=complex).ravel()
    if viewport is None:
        if z.size == 0:
            raise InsufficientPoints("empty cloud")
        viewport = (
            float(z.real.min()),
            float(z.real.max()),
            float(z.imag.min()),
            float(z.imag.max()),
        )
    x0, x1, y0, y1 = map(float, viewport)
    keep = (z.real >= x0) & (z.real <= x1) & (z.imag >= y0) & (z.imag <= y1)
    z = z[keep]
    if z.size < MIN_BOX_POINTS:
        raise InsufficientPoints(
            f"{z.size} points in viewport; box counting needs {MIN_BOX_POINTS}"
        )
    side = max(x1 - x0, y1 - y0)
    if side <= 0:
        raise InsufficientPoints("degenerate viewport")
    scales = [side / 8.0 / 2.0**k for k in range(scale_count)]
    ix = np.floor((z.real - x0) / scales[-1]).astype(np.int64)
    iy = np.floor((z.imag - y0) / scales[-1]).astype(np.int64)
    cells = np.unique(ix << 32 | iy)  # occupied finest cells
    counts = [int(cells.size)]
    for _ in range(scale_count - 1):
        cells = np.unique(cells >> 33 << 32 | (cells & 0xFFFFFFFF) >> 1)
        counts.append(int(cells.size))
    counts.reverse()
    xs = np.log(1.0 / np.asarray(scales))
    ys = np.log(np.asarray(counts, dtype=float))
    slope, intercept = np.polyfit(xs, ys, 1)
    fit = slope * xs + intercept
    ss_res = float(np.sum((ys - fit) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return BoxCountResult(scales, counts, float(slope), float(r2))
