"""Riemann-sphere arithmetic: points, polynomials, rational maps.

Everything here treats the sphere as the complex plane plus one point at
infinity.  The chordal metric and the spherical derivative norm are the
two quantities the rest of the library is built on; both are evaluated
through the 1/z chart whenever moduli get large, so no intermediate blows
up and the two charts agree to near machine precision on their overlap.

A point is one complex value, with infinity as INF_Z = inf + 0j; as_point
turns any value into a point, and a point array is a complex array of points.
MapStack implements each map operation (construction, evaluation, derivative
norm, preimages, fixed points) once, batched over maps given as coefficient
columns and over point arrays; each handles infinity and degree drops.  A
RationalMap is its one-column case, whose scalar methods are 1-element
wrappers that take and return points.  Every polynomial of the library is
its ascending complex coefficients, evaluated by horner, and roots_batch is
its one root solver: closed forms up to degree 3, Aberth-Ehrlich above,
Aberth again for a cubic the closed form misses, and the companion
eigenvalues for a polynomial Aberth misses.

Conventions:
  - polynomial coefficients are stored ascending (coeffs[k] multiplies z^k)
  - any modulus above BIG_MODULUS is reclassified as the point at infinity
  - root multiplicity shows up as repeated list entries, never collapsed
"""
from __future__ import annotations

import math

import numpy as np

from .errors import NonConvergence

BIG_MODULUS = 1e150
INF_Z = complex(math.inf, 0.0)  # the point at infinity in a point array

# residual acceptance factor for the root solver
_ROOT_RESID = 1e-8
_ABERTH_MAX_ITER = 500
# smallest |leading| / max |coefficient| of a map's num or den: the root solvers divide by the
# leading coefficient, and below this ratio the monic form nears the end of float range
_MIN_LEAD_RATIO = 1e-300
_TINY = np.finfo(float).tiny  # the smallest normal float


# ---------------------------------------------------------------------------
# points


def _to_points(z):
    """The complex array z, in place, with every non-finite value and every
    value with a part beyond BIG_MODULUS set to INF_Z (a NaN part fails <=)."""
    z[~(np.maximum(np.abs(z.real), np.abs(z.imag)) <= BIG_MODULUS)] = INF_Z
    return z


def _point_array(value):
    """as_point(value) as the 1-element point array the batched methods take."""
    return _to_points(np.array([INF_Z if value is None else value], dtype=complex))


def as_point(value) -> complex:
    """value as a point of the sphere: INF_Z for None, a non-finite value or
    one with a part beyond BIG_MODULUS; any other value as a complex."""
    return complex(_point_array(value)[0])


def sort_key(z):
    """Canonical order of points: finite ones by (real, imag), INF_Z last."""
    return z.real, z.imag


def _split(z):
    """(z with 0 at infinity, the mask of infinity): what a kernel's arithmetic reads."""
    z = np.asarray(z, dtype=complex)
    inf = np.isinf(z)
    return (np.where(inf, 0j, z) if inf.any() else z), inf


def chordal_distance(a, b) -> float:
    """Chordal metric on the sphere; range [0, 2], with 2 for antipodes."""
    return float(chordal_distance_many(_point_array(a), _point_array(b))[0])


def chordal_distance_many(z1, z2):
    """Vectorized chordal distance between point arrays."""
    (z1, inf1), (z2, inf2) = _split(z1), _split(z2)
    s1 = np.hypot(1.0, np.abs(z1))
    s2 = np.hypot(1.0, np.abs(z2))
    d = 2.0 * np.abs(z1 - z2) / (s1 * s2)
    if np.any(inf1) or np.any(inf2):
        d = np.where(inf1 & inf2, 0.0, d)
        d = np.where(inf1 & ~inf2, 2.0 / s2, d)
        d = np.where(~inf1 & inf2, 2.0 / s1, d)
    return d


# ---------------------------------------------------------------------------
# polynomials: ascending complex coefficient arrays


def _coeffs(c):
    """c as a read-only ascending complex coefficient array: non-empty, 1-d
    and finite, with trailing (high-order) exact zeros stripped down to one entry."""
    c = np.array(c, dtype=complex, ndmin=1) + 0.0  # -0 to +0: a zero row of P - zQ is then +0
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coefficients must be a non-empty 1-d sequence")
    if not np.isfinite(c).all():
        raise ValueError("coefficients must be finite")
    c = c[: max(1, _sizes(c[:, None])[0])]
    c.flags.writeable = False
    return c


def horner(coeffs, z):
    """Evaluate ascending-coefficient polynomial(s) at a scalar or array z; the
    rows coeffs[k] (any sequence: rows of any broadcasting shapes) broadcast
    against z, so 2-d coefficients hold one polynomial per column, and a
    constant comes back as its row.  Each product is new: numpy rounds an
    in-place complex product of length-1 arrays differently.  Even so, 0-d
    and length-1 inputs may round differently from the same value inside a
    longer array, so callers whose values must match a batch's pass arrays."""
    acc = np.asarray(coeffs[-1])
    for k in range(len(coeffs) - 2, -1, -1):
        acc = acc * z
        acc += coeffs[k]
    return complex(acc) if np.ndim(acc) == 0 else acc


# ---------------------------------------------------------------------------
# root finding: closed forms up to degree 3, Aberth-Ehrlich iteration above

# polynomials per block of the Aberth and cubic solvers: bounds their temporaries,
# such as Aberth's (n, n, block) pair differences
_ABERTH_BLOCK = 4096


def _resid_ok(C, z):
    """Columns of C whose roots z, (n,) + columns, all meet the residual bound
    |p(z)| <= 1e-8 (1 + max|c|) (1 + |z|)^n, tested as p(z) / s^n with
    s = 1 + |z|: Horner in z / s on the coefficients c_k s^(k - n), so
    neither side overflows however large z is."""
    s = 1.0 + np.abs(z)
    x, inv = z / s, 1.0 / s
    acc, top, scale = C[-1], np.abs(C[-1]), 1.0
    for k in range(len(C) - 2, -1, -1):
        scale = scale * inv
        acc = acc * x + C[k] * scale
        top = np.maximum(top, np.abs(C[k]))
    return np.all(np.abs(acc) <= _ROOT_RESID * (1.0 + top), axis=0)


def _solve_blocks(C, solve):
    """Roots, columns + (n,), that the kernel solve gives for the columns of
    C (see roots_batch), _ABERTH_BLOCK of the last column axis at a time, and
    the mask of the columns whose roots are not all finite or miss the
    residual bound; no raise."""
    cols = np.broadcast_shapes(*map(np.shape, C))
    # allocated before the temporaries, so freeing them leaves no heap hole under it
    out = np.empty(cols + (len(C) - 1,), dtype=complex)
    missed = np.empty(cols, dtype=bool)
    for s in range(0, cols[-1], _ABERTH_BLOCK):
        b = slice(s, s + _ABERTH_BLOCK)
        Cb = [c if c.shape[-1] == 1 else c[..., b] for c in C]
        out[..., b, :] = z = solve(Cb)
        z = np.moveaxis(z, -1, 0)  # the kernel's own (n,) + columns layout
        with np.errstate(invalid="ignore"):  # a non-finite root fails the bound
            missed[..., b] = ~(np.isfinite(z).all(axis=0) & _resid_ok(Cb, z))
    return out, missed


def _aberth_block(C):
    """Aberth roots (m, n) for the columns of C from a fixed start circle; a
    column stops once every one of its own steps is below 1e-13 (1 + |z|)."""
    C = np.asarray(C)
    n = len(C) - 1
    circle = np.exp(1j * (2.0 * np.pi * (np.arange(n) + 0.354) / n + 0.5))[:, None]
    act, diag = np.arange(C.shape[1]), np.arange(n)
    # a monic column past float range comes back non-finite, a miss for roots_batch
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        Cm = C / C[-1]  # monic
        # the roots' scale max_k |c_k / c_n|^(1 / (n - k)): every root lies within twice it
        # (Fujiwara), so iterates started there do not overflow; 0 only when all roots are 0
        radius = np.max(np.abs(Cm[:-1]) ** (1.0 / np.arange(n, 0, -1))[:, None], axis=0)
        radius[radius == 0] = 1.0
        z = za = radius * circle
        Cd = Cm[1:] * np.arange(1, n + 1)[:, None]
        for _ in range(_ABERTH_MAX_ITER):
            pd = horner(Cd, za)
            pd[pd == 0] = 1e-300
            newton = horner(Cm, za) / pd
            diff = za[:, None] - za
            diff[diag, diag] = np.inf
            inv = 1.0 / diff
            repel = inv[:, 0] + inv[:, 1]  # a fixed order whatever the batch, unlike np.sum
            for j in range(2, n):
                repel += inv[:, j]
            denom = 1.0 - newton * repel
            denom[denom == 0] = 1.0
            step = newton / denom
            # reset any non-finite iterate deterministically inside the disc
            bad = ~np.isfinite(step)
            if np.any(bad):
                step[bad] = 0.0
                za = np.where(bad, 0.5 * radius[act] * circle, za)
            za = za - step
            done = np.all(np.abs(step) <= 1e-13 * (1.0 + np.abs(za)), axis=0)
            if np.any(done):  # freeze converged columns
                z[:, act[done]] = za[:, done]
                act, za, Cm, Cd = act[~done], za[:, ~done], Cm[:, ~done], Cd[:, ~done]
                if act.size == 0:
                    break
    z[:, act] = za  # columns still moving at the iteration cap
    return z.T


def poly_roots(coeffs) -> list[complex]:
    """All complex roots of a polynomial, multiplicity as repeated entries.

    The one-column case of roots_batch, so deterministic: closed forms up to
    degree 3, the Aberth-Ehrlich iteration above, with the fallbacks there.
    Residual acceptance per root:
    |p(root)| <= 1e-8 * (1 + max|coeff|) * (1 + |root|)^degree.
    """
    p = _coeffs(coeffs)
    if not p.any():
        raise ValueError("zero polynomial has no well-defined root set")
    if p.size == 1:
        return []
    roots = roots_batch(p[:, None])[0]
    return sorted((complex(r) for r in roots), key=sort_key)


def _quadratic_roots_batch(C):
    """Stable closed-form roots, columns + (2,), for the columns of 3 coefficient
    rows, divided straight into the output.  Where c1^2 or 4 c2 c0 overflows, the
    roots come back non-finite, with no warning, for roots_batch to re-solve."""
    c0, c1, c2 = C
    # allocated before the temporaries, so freeing them leaves no heap hole under it
    out = np.empty(np.broadcast(c0, c1, c2).shape + (2,), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sq = np.sqrt(c1 * c1 - 4.0 * c2 * c0)
        # pick the sign that avoids cancellation in -b -+ sqrt(disc)
        np.negative(sq, out=sq, where=np.real(np.conj(c1) * sq) < 0)
        q = -0.5 * (c1 + sq)
        np.divide(q, c2, out=out[..., 0])
        np.divide(c0, q, out=out[..., 1])
    out[..., 1][q == 0] = 0.0
    return out


_OMEGA = np.exp(2j * np.pi * np.arange(3) / 3)  # the cube roots of unity


def _cubic_roots_batch(C):
    """Closed-form roots, columns + (3,), for 4 coefficient rows (per-map
    rows give per-map a, b, p and derivative rows): Cardano
    on the depressed cubic t^3 + p t + q, z = t - a/3, each root then
    polished by one Newton step.  A root whose step is not below
    1e-8 (1 + |z|) comes back as NaN."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a, b, c = C[2] / C[3], C[1] / C[3], C[0] / C[3]
        a3 = a / 3.0
        p = b - a * a3
        # a temporary goes left of a complex product: numpy may compute x * (temporary)
        # in place as temporary * x on large arrays, and the two differ in the last bit
        h = 0.5 * (c - (b - 2.0 * a3 * a3) * a3)  # q / 2
        sq = np.sqrt(h * h + (p / 3.0) ** 3)
        # pick the sign that avoids cancellation in -q/2 -+ sqrt(disc)
        sq = np.where(np.real(np.conj(h) * sq) < 0, -sq, sq)
        u3 = -(h + sq)
        u = np.cbrt(np.abs(u3)) * np.exp(1j * np.angle(u3) / 3.0)  # principal cube root
        wu = np.multiply.outer(_OMEGA, u)
        t = np.where(u == 0, 0.0, wu - p / (3.0 * wu))  # u = 0: the triple root t = 0
        z = t - a3
        step = horner(C, z) / horner([C[k] * float(k) for k in (1, 2, 3)], z)
        step[~np.isfinite(step)] = 0.0
        z -= step
        # a longer step means cancellation cost the root its digits (coefficients of
        # widely different sizes, clustered roots): NaN hands the column to Aberth
        z[np.abs(step) > 1e-8 * (1.0 + np.abs(z))] = np.nan
    return np.moveaxis(z, 0, -1)


def roots_batch(C):
    """Roots for a batch of same-degree polynomials, in solver order.

    C is a sequence of n+1 complex coefficient rows, ascending, the last
    nonzero: a complex (n+1, m) array, column j polynomial j; or rows that
    broadcast to columns (K, U), such as per-map (K, 1) rows beside
    per-target ones.
    Returns (m, n), or (K, U, n).  Degrees 1 and 2 take closed forms,
    degree 3 _cubic_roots_batch and higher ones _aberth_block, in one
    _solve_blocks pass.  A degree 1 root is not checked; a quadratic column
    misses only where its closed form overflows to a non-finite root, a
    higher one on a non-finite root or the residual bound.  The missed
    columns are gathered dense, cubics get an _aberth_block pass, then any
    miss np.roots.  NonConvergence if that misses the bound too, with the
    count and the first such polynomial's coefficients.  Row j depends only
    on polynomial j: deterministic, unsorted.
    """
    n = len(C) - 1
    if n == 0:
        return np.empty(np.shape(C[0]) + (0,), dtype=complex)
    if n == 1:
        return np.negative(root := C[0] / C[1], out=root)[..., None]  # -C[0] / C[1], in place
    if n == 2:
        out = _quadratic_roots_batch(C)
        if np.isfinite(out).all():  # a per-column test first costs a third of the kernel
            return out
        missed = ~np.isfinite(out).all(axis=-1)
    else:
        out, missed = _solve_blocks(C, _cubic_roots_batch if n == 3 else _aberth_block)
    if not missed.any():
        return out
    Cm = np.array([np.broadcast_to(c, missed.shape)[missed] for c in C])
    zm, still = _solve_blocks(Cm, _aberth_block) if n == 3 else (out[missed], np.ones(Cm.shape[1], bool))
    still = np.flatnonzero(still)
    for i in still:
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                zm[i] = np.roots(Cm[::-1, i])
        except np.linalg.LinAlgError:  # a companion matrix past float range: a miss
            zm[i] = np.nan
    with np.errstate(invalid="ignore"):  # a non-finite root fails the bound
        bad = [i for i in still if not _resid_ok(Cm[:, i, None], zm[i, :, None])[0]]
    if bad:
        coeffs = ", ".join(f"{c:.6g}" for c in Cm[:, bad[0]])
        raise NonConvergence(f"root solver missed the residual bound on {len(bad)} polynomial(s); "
                             f"the first has ascending coefficients [{coeffs}]")
    out[missed] = zm
    return out


# ---------------------------------------------------------------------------
# rational maps


def _sizes(C):
    """Per column of C, 1 + the row of its last nonzero entry; 0 for a zero or empty column."""
    return ((C != 0) * np.arange(1, len(C) + 1)[:, None]).max(axis=0, initial=0)


def _check_reduced(P, Q):
    """Reject a root a of one side within chordal 1e-8 of a root of the other, or where
    the other side is at most 1e-8 of its terms' moduli, read in the 1/z chart when
    |a| > 1: poly_roots resolves a double root only to about 1e-8."""
    rp, rq = poly_roots(P), poly_roots(Q)
    for roots, c, other in ((rp, Q, rq), (rq, P, ())):  # chordal: each pair once
        for a in roots:
            cc, x = (c, a) if abs(a) <= 1.0 else (c[::-1], 1.0 / a)
            if (abs(horner(cc, x)) <= 1e-8 * abs(horner(np.abs(cc), abs(x)))
                    or any(chordal_distance(a, b) <= 1e-8 for b in other)):
                raise ValueError(f"numerator and denominator share a root near {a}")


def _chart_norm(x, ax, W, P, Q):
    """|W(x)| (1 + |x|^2) / (|P(x)|^2 + |Q(x)|^2) with ax = |x|; coefficient
    rows broadcast against x.  Where |P|^2 + |Q|^2 underflows the normal
    float range, numerator and denominator are first divided by
    max(|P|, |Q|)^2; every other norm keeps its bits.  It cannot overflow:
    |x| <= 1 in both charts, and the largest |coefficient| is below 2."""
    wz = np.abs(horner(W, x))
    pz = np.abs(horner(P, x))
    qz = np.abs(horner(Q, x))
    den = pz * pz + qz * qz
    if den.min() < _TINY:
        s = np.where(den < _TINY, np.maximum(pz, qz), 1.0)  # dividing by 1 is exact
        wz, pz, qz = wz / s / s, pz / s, qz / s
        den = pz * pz + qz * qz
    out = ax**2  # (1 + |x|^2) |W| / den, in place
    return np.divide(np.multiply(np.add(out, 1.0, out=out), wz, out=out), den, out=out)


def _chart_value(x, ax, W, P, Q):
    """P(x) / Q(x), coefficient rows broadcasting against x, and INF_Z at a
    pole; the kernel signature of _chart_norm, of which only P and Q are read."""
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        pz, qz = horner(P, x), horner(Q, x)
        pole = qz == 0
        if np.any(pole & (pz == 0)):
            # a reduced map cannot make both vanish; only unvalidated input
            # squeaking past the shared-root tolerance can land here
            raise ArithmeticError("evaluation hit an unreduced 0/0")
        return np.where(pole, INF_Z, pz / np.where(pole, 1.0, qz))


class MapStack:
    """K rational maps of one degree d as coefficient columns, the batched
    kernel of every map operation: RationalMap is its one-column case, and a
    block of same-signature systems stacks each generator's maps.

    Point arrays are read as (K, U), row b under map b, and results come
    back in the input's shape.  raw holds the validated num and den columns,
    (d + 1, K) each, zero-padded; P and Q are them times one power of two per
    column.  fwd holds their Wronskian W = P'Q - PQ', P and Q for the z chart
    of evaluation and derivative norm, rev w^(2d-2) W(1/w), w^d P(1/w),
    w^d Q(1/w) for the 1/z chart, without the leading coefficients that
    vanish in every column: they change Horner's values by the sign of a
    zero at most.
    """

    __slots__ = ("degree", "raw", "P", "Q", "fwd", "rev", "_fwd_cols", "_rev_cols", "_rows", "_drops")

    def __init__(self, num, den):
        """The maps num[:, b] / den[:, b] of ascending (rows, K) coefficient
        columns, all of one degree; a zero, constant or unreduced map, or a
        leading coefficient below _MIN_LEAD_RATIO of its side's largest, raises ValueError."""
        N, D = (np.array(c, dtype=complex, ndmin=2) for c in (num, den))
        if D.shape[1] != (K := N.shape[1]):
            raise ValueError("numerator and denominator must have the same number of columns")
        # num columns, then den columns, zero-padded: each check below is one call for both sides
        S = np.zeros((max(len(N), len(D)), 2 * K), dtype=complex)
        S[: len(N), :K], S[: len(D), K:] = N + 0.0, D + 0.0  # -0 to +0: a zero row of P - zQ is +0
        if not np.isfinite(S).all():
            raise ValueError("coefficients must be finite")
        sizes = _sizes(S)
        ps, qs = sizes[:K], sizes[K:]
        if not sizes.all():
            raise ValueError("numerator and denominator must be nonzero")
        deg = np.maximum(ps, qs) - 1
        d = self.degree = int(deg.min())
        if d < 1:
            raise ValueError("map must have degree >= 1 (not constant)")
        if (deg != d).any():
            raise ValueError("stacked maps must share one degree")
        A = np.abs(S)
        top = A.max(axis=0)
        if (ratio := A[sizes - 1, np.arange(2 * K)] / top).min() < _MIN_LEAD_RATIO:
            for name, r in (("numerator", ratio[:K].min()), ("denominator", ratio[K:].min())):
                if r < _MIN_LEAD_RATIO:
                    raise ValueError(f"{name} leading coefficient is {r:.3g} times its largest, "
                                     f"below {_MIN_LEAD_RATIO:g}: its monic form leaves float range")
        for b in np.flatnonzero((ps > 1) & (qs > 1)):
            _check_reduced(S[: ps[b], b], S[: qs[b], K + b])
        S = S[: d + 1]
        self.raw = S[:, :K], S[:, K:]
        # times the power of two (exact) that brings each column's largest |coefficient| into
        # [1, 2), so P'Q and PQ' can neither overflow nor underflow to a vanishing Wronskian
        e = 1 - np.frexp(np.maximum(top[:K], top[K:]))[1]
        PQ = np.ldexp(S.view(float), np.concatenate((e, e)).repeat(2)).view(complex)
        self.P, self.Q = PQ[:, :K], PQ[:, K:]
        dPQ = PQ[1:] * np.arange(1, d + 1)[:, None]  # P' and Q'
        W = np.zeros((2 * d - 1, K), dtype=complex)
        for b, (p, q) in enumerate(zip(ps.tolist(), qs.tolist())):
            # np.convolve's bits, column by column: a longer batched sum rounds differently.
            # P'Q - PQ' accumulates into zeros: a zero coefficient is +0 whatever its products'
            # signs; the degree 2d - 1 terms cancel exactly in theory, not always in floating point
            n = min(p + q - 2, 2 * d - 1)
            if p > 1:
                W[:n, b] += np.convolve(dPQ[: p - 1, b], self.Q[:q, b])[:n]
            if q > 1:
                W[:n, b] -= np.convolve(self.P[:p, b], dPQ[: q - 1, K + b])[:n]
        if not W.any(axis=0).all():
            raise ValueError("map is constant (vanishing derivative)")
        nz = (PQ != 0).reshape(d + 1, 2, K).any(axis=2).T.tolist()  # the nonzero rows of P and Q

        def charts(C, rows):  # C and C reversed, without the end rows that vanish in every column
            lo, hi = rows.index(True), len(rows) - rows[::-1].index(True)
            return C[:hi], C[::-1][: len(C) - lo]

        self.fwd, self.rev = zip(charts(W, W.any(axis=1).tolist()), *map(charts, (self.P, self.Q), nz))
        # per-map (K, 1, 1) columns, which broadcast against (K, U) points
        self._fwd_cols, self._rev_cols = (tuple(c[:, :, None] for c in t) for t in (self.fwd, self.rev))
        # the rows of P - zQ: (P_k, Q_k) as (K, 1) columns, Q_k None where no map has Q_k != 0
        self._rows = tuple((p[:, None], q[:, None] if v else None)
                           for p, q, v in zip(self.P, self.Q, nz[1]))
        # only a nonzero Q_d lets a finite target's leading coefficient P_d - z Q_d cancel
        self._drops = nz[1][d]

    def _by_chart(self, z, kernel):
        """kernel(x, |x|, W, P, Q) at the point array z read as (K, U), in z's
        shape: |z| <= 1 in the z chart with fwd, the rest as x = 1/z with rev."""
        shape = np.shape(z)
        z = np.asarray(z, dtype=complex).reshape(self.P.shape[1], -1)
        # |z| <= 1 is read in z, the rest as w = 1/z: infinity is far, and 1/INF_Z is exactly 0
        az = np.abs(z)
        near = az <= 1.0
        if near.all():  # one chart: read whole, no gathers
            return kernel(z, az, *self._fwd_cols).reshape(shape)
        if not near.any():
            return kernel(x := 1.0 / z, np.abs(x), *self._rev_cols).reshape(shape)

        def cols(mask, coeffs):  # the map column of every masked entry
            return coeffs if len(self.P[0]) == 1 else [c[:, np.nonzero(mask)[0]] for c in coeffs]

        values = kernel(z[near], az[near], *cols(near, self.fwd))
        out = np.empty(z.shape, dtype=values.dtype)
        out[near] = values
        far = ~near
        w = 1.0 / z[far]
        out[far] = kernel(w, np.abs(w), *cols(far, self.rev))
        return out.reshape(shape)

    def eval_many(self, z):
        """Values at a point array, a point array; both charts read the scaled
        P and Q, so nothing overflows on the way to the ratio."""
        return _to_points(self._by_chart(z, _chart_value))

    def spherical_derivative_norm_many(self, z):
        """Norm of the derivative in the spherical metric at a point array:
        |f'(z)| (1+|z|^2)/(1+|f(z)|^2), read through the 1/z chart when
        |z| > 1, so the two charts agree to relative 1e-10 on their overlap
        and the value is finite everywhere."""
        return self._by_chart(z, _chart_norm)

    def preimages_many(self, z):
        """Preimages of a target point array.

        Returns the roots, a point array of shape z.shape + (d,), each row in
        roots_batch's solver order rather than sorted.  A finite target z
        solves P - zQ = 0, a target at infinity Q = 0, coefficient-major (one
        row per power).  Row k varies with z only if some map has Q_k != 0
        (row 0 alone for a polynomial); the other rows stay per-map (K, 1)
        columns.  Targets at infinity, degree drops and degrees above 3 build
        the dense (d + 1, K U) matrix.  When the k leading coefficients of a
        row cancel (|c| <= 1e-12 (|P_d| + |z| |Q_d|), or exactly zero for
        infinity) the row loses k degrees: its remaining roots fill the first
        d - k slots and the last k are INF_Z.  Rows are solved in one
        roots_batch call per k; each row's roots depend only on its own
        target and map.
        """
        shape, d = np.shape(z), self.degree
        z = np.asarray(z, dtype=complex).reshape(self.P.shape[1], -1)
        inf = np.isinf(z)
        if has_inf := inf.any():
            z = np.where(inf, 0j, z)
        # a varying row P_k - z Q_k is subtracted into its own product z Q_k
        C = [p if q is None else np.subtract(p, zq := z * q, out=zq) for p, q in self._rows]
        if has_inf or d > 3:  # dense: roots_batch's Aberth reads whole columns
            C = np.array(np.broadcast_arrays(*C))
            C[:, inf] = self.Q[:, np.nonzero(inf)[0]]
        # a finite target of a map with no Q_d keeps its leading coefficient P_d: no drop
        tol = None
        if has_inf or self._drops:
            qd = np.abs(self.Q[d])[:, None]
            scale = np.abs(self.P[d])[:, None] + (np.abs(z) * qd if self._drops else 0.0)
            if has_inf:
                scale = np.where(inf, qd, scale)
            tol = 1e-12 * (scale + 1e-300)
        if tol is None or not (np.abs(C[-1]) <= tol).any():
            return roots_batch(C if d <= 3 else C.reshape(d + 1, -1)).reshape(shape + (d,))
        C = np.reshape(np.broadcast_arrays(*C), (d + 1, -1))
        # k = number of cancelled leading coefficients; the constant one stays
        k = np.cumprod(np.abs(C[:0:-1]) <= np.broadcast_to(tol, z.shape).ravel(), axis=0).sum(axis=0)
        roots = np.full((k.size, d), INF_Z)
        for kk in np.unique(k):
            rows = np.flatnonzero(k == kk)
            n = d - kk
            roots[rows, :n] = roots_batch(C[: n + 1, rows])
        return roots.reshape(shape + (d,))

    def fixed_points_many(self):
        """(z, norms): row b holds map b's fixed points in canonical order
        (sort_key), a (K, d + 1) point array, and norms their spherical
        multiplier norms, nan in the slots a map leaves empty.  The finite
        ones are the roots of P - zQ, one roots_batch call per degree it keeps;
        infinity is fixed where deg P > deg Q.  One derivative-norm call."""
        num, den = self.raw
        fp = np.concatenate([num, np.zeros((1, num.shape[1]))])
        fp[1:] -= den
        n = _sizes(fp) - 1  # the degree of P - zQ, -1 for 0
        z = np.zeros((num.shape[1], self.degree + 1), dtype=complex)
        empty = np.arange(self.degree + 1) >= n[:, None]
        for m in set(n[n > 0].tolist()):  # not np.unique, whose first call costs ~30 ms
            z[n == m, :m] = roots_batch(fp[: m + 1, n == m])
        # infinity, where deg P > deg Q, takes the last slot: P - zQ has degree deg P - 1 at most
        inf = _sizes(num) > _sizes(den)
        z[inf, -1], empty[inf, -1] = INF_Z, False
        norms = self.spherical_derivative_norm_many(_to_points(z))
        norms[empty] = np.nan
        order = np.lexsort((z.imag, z.real))
        return np.take_along_axis(z, order, -1), np.take_along_axis(norms, order, -1)


class RationalMap(MapStack):
    """Rational self-map of the sphere, stored as a reduced fraction P/Q: the
    one-column MapStack of its num and den, kept stripped and read-only.
    Validation rejects shared roots of P and Q (_check_reduced), so
    evaluation is total: a vanishing denominator means a genuine pole."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=(1.0,)):
        self.num, self.den = _coeffs(num), _coeffs(den)
        super().__init__(self.num[:, None], self.den[:, None])

    def __call__(self, point) -> complex:
        return complex(self.eval_many(_point_array(point))[0])

    def spherical_derivative_norm(self, point) -> float:
        """Norm of the derivative in the spherical metric at one point."""
        return self.spherical_derivative_norm_many(_point_array(point))[0]

    def preimages(self, point) -> list[complex]:
        """All degree-many solutions w of f(w) = point, with multiplicity, sorted."""
        return sorted(map(as_point, self.preimages_many(_point_array(point))[0]), key=sort_key)

    def critical_points(self) -> list[complex]:
        """Zeros of the derivative on the sphere, with multiplicity (2d-2 total).

        Infinity is critical exactly when the Wronskian P'Q - PQ' drops below
        degree 2d-2; the drop is its multiplicity.
        """
        w = self.fwd[0][:, 0]  # the Wronskian, trailing zeros stripped
        pts = [as_point(r) for r in poly_roots(w)]
        pts += [INF_Z] * (2 * self.degree - 1 - w.size)
        return sorted(pts, key=sort_key)

    def critical_values(self) -> list[complex]:
        return [self(p) for p in self.critical_points()]

    def fixed_points(self) -> list[tuple[complex, float]]:
        """(point, norm) of each fixed point, canonically ordered: the one-column
        case of fixed_points_many.  A point is repelling when its norm exceeds 1."""
        z, norms = self.fixed_points_many()
        return [(p, norm) for p, norm in zip(z[0].tolist(), norms[0].tolist()) if not math.isnan(norm)]

    def __repr__(self):
        return f"RationalMap({self.num.tolist()!r}, {self.den.tolist()!r})"


def polynomial_map(coeffs) -> RationalMap:
    """Convenience constructor for a polynomial map (denominator 1)."""
    return RationalMap(coeffs, (1.0,))
