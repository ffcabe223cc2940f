"""Riemann-sphere arithmetic: points, polynomials, rational maps.

Everything here treats the sphere as the complex plane plus one point at
infinity.  The chordal metric and the spherical derivative norm are the
two quantities the rest of the library is built on; both are evaluated
through the 1/z chart whenever moduli get large, so no intermediate blows
up and the two charts agree to near machine precision on their overlap.

Each RationalMap operation (evaluation, derivative norm, preimages) is
implemented once, batched over parallel arrays (z, inf) with the bool mask
inf marking infinity; it handles infinity and degree drops (cancelling
leading coefficients), and the scalar methods are 1-element wrappers.
Polynomial roots, batched the same way in roots_batch, come from closed
forms up to degree 3 and from the Aberth-Ehrlich iteration above; a cubic
the closed form misses goes to Aberth, and a polynomial Aberth misses to
the companion eigenvalues.

Conventions:
  - polynomial coefficients are stored ascending (coeffs[k] multiplies z^k)
  - any modulus above BIG_MODULUS is reclassified as the point at infinity
  - root multiplicity shows up as repeated list entries, never collapsed
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence

BIG_MODULUS = 1e150

# residual acceptance factor for the root solver
_ROOT_RESID = 1e-8
_ABERTH_MAX_ITER = 500


# ---------------------------------------------------------------------------
# points


@dataclass(frozen=True)
class SpherePoint:
    """A point of the Riemann sphere: a finite complex value or infinity.

    Construct through SpherePoint.of(), which routes overflow and non-finite
    floats to the infinity representative so NaN never enters the data.
    """

    z: complex | None  # None encodes the point at infinity

    @staticmethod
    def of(value) -> "SpherePoint":
        if isinstance(value, SpherePoint):
            return value
        if value is None:
            return INF
        z = complex(value)
        finite = math.isfinite(z.real) and math.isfinite(z.imag)
        return SpherePoint(z) if finite and max(abs(z.real), abs(z.imag)) <= BIG_MODULUS else INF

    @property
    def is_infinite(self) -> bool:
        return self.z is None

    @property
    def value(self) -> complex:
        if self.z is None:
            raise ValueError("point at infinity has no finite value")
        return self.z

    def sort_key(self):
        if self.z is None:
            return (1, 0.0, 0.0)
        return (0, self.z.real, self.z.imag)

    def __repr__(self):
        return "INF" if self.z is None else f"SpherePoint({self.z!r})"


INF = SpherePoint(None)


def _point_arrays(point):
    """A point as the 1-element (z, inf) arrays the batched methods take."""
    pt = SpherePoint.of(point)
    return np.array([0j if pt.is_infinite else pt.value]), np.array([pt.is_infinite])


def _array_point(z, inf) -> SpherePoint:
    return INF if inf else SpherePoint.of(complex(z))


def chordal_distance(a, b) -> float:
    """Chordal metric on the sphere; range [0, 2], with 2 for antipodes."""
    return float(chordal_distance_many(*_point_arrays(a), *_point_arrays(b))[0])


def chordal_distance_many(z1, inf1, z2, inf2):
    """Vectorized chordal distance for parallel arrays with infinity masks."""
    z1 = np.asarray(z1, dtype=complex)
    z2 = np.asarray(z2, dtype=complex)
    s1 = np.hypot(1.0, np.abs(z1))
    s2 = np.hypot(1.0, np.abs(z2))
    d = 2.0 * np.abs(z1 - z2) / (s1 * s2)
    if np.any(inf1) or np.any(inf2):
        d = np.where(inf1 & inf2, 0.0, d)
        d = np.where(inf1 & ~inf2, 2.0 / s2, d)
        d = np.where(~inf1 & inf2, 2.0 / s1, d)
    return d


def sphere_embed(z, inf):
    """Map plane points to R^3 on the unit sphere; chordal distance equals
    Euclidean distance there, which check_hyperbolic's closest-pair search relies on."""
    z = np.asarray(z, dtype=complex)
    r2 = np.abs(z) ** 2
    denom = 1.0 + r2
    out = np.empty(z.shape + (3,))
    out[..., 0] = 2.0 * z.real / denom
    out[..., 1] = 2.0 * z.imag / denom
    out[..., 2] = (r2 - 1.0) / denom
    if np.any(inf):
        out[inf] = (0.0, 0.0, 1.0)
    return out


# ---------------------------------------------------------------------------
# polynomials: ascending complex coefficient arrays


def _coeffs(c):
    """c as a read-only ascending complex coefficient array: non-empty, 1-d
    and finite, with trailing (high-order) exact zeros stripped down to one entry."""
    c = np.array(c, dtype=complex, ndmin=1)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coefficients must be a non-empty 1-d sequence")
    if not np.isfinite(c).all():
        raise ValueError("coefficients must be finite")
    n = c.size
    while n > 1 and c[n - 1] == 0:
        n -= 1
    c = c[:n]
    c.flags.writeable = False
    return c


def horner(coeffs, z):
    """Evaluate ascending-coefficient polynomial(s) at a scalar or array z; the
    coefficient rows coeffs[k] broadcast against z, so 2-d coefficients hold
    one polynomial per column, and a constant comes back as its row.  Each
    product is new: numpy rounds an in-place complex product of length-1
    arrays differently.  Even so, 0-d and length-1 inputs may round
    differently from the same value inside a longer array, so callers pass
    arrays."""
    c = np.asarray(coeffs, dtype=complex)
    acc = c[-1, ...]
    for k in range(len(c) - 2, -1, -1):
        acc = acc * z
        acc += c[k]
    return complex(acc) if np.ndim(acc) == 0 else acc


# ---------------------------------------------------------------------------
# root finding: closed forms up to degree 3, Aberth-Ehrlich iteration above

# polynomials per block of the Aberth and cubic solvers: bounds their temporaries,
# such as Aberth's (n, n, block) pair differences
_ABERTH_BLOCK = 4096


def _resid_ok(C, z):
    """Columns of C whose roots z, (n, m), all meet the residual bound
    |p(z)| <= 1e-8 (1 + max|c|) (1 + |z|)^n, tested as p(z) / s^n with
    s = 1 + |z|: Horner in z / s on the coefficients c_k s^(k - n), so
    neither side overflows however large z is."""
    s = 1.0 + np.abs(z)
    x, inv = z / s, 1.0 / s
    acc, scale = C[-1], 1.0
    for k in range(len(C) - 2, -1, -1):
        scale = scale * inv
        acc = acc * x + C[k] * scale
    return np.all(np.abs(acc) <= _ROOT_RESID * (1.0 + np.max(np.abs(C), axis=0)), axis=0)


def _solve_blocks(C, solve):
    """Roots (m, n) that solve gives for the columns of C, one block of
    _ABERTH_BLOCK columns at a time, and the indices of the columns whose
    roots are not all finite or miss the residual bound."""
    # allocated before the temporaries, so freeing them leaves no heap hole under it
    out = np.empty((C.shape[1], len(C) - 1), dtype=complex)
    missed = []
    for s in range(0, C.shape[1], _ABERTH_BLOCK):
        Cb = C[:, s : s + _ABERTH_BLOCK]
        z = out[s : s + Cb.shape[1]] = solve(Cb)
        ok = np.isfinite(z).all(axis=1)
        ok[ok] = _resid_ok(Cb[:, ok], z[ok].T)
        missed.extend(s + np.flatnonzero(~ok))
    return out, missed


def _aberth_block(C, circle):
    """Aberth iterates (n, m) for the columns of C; a column stops once every
    one of its own steps is below 1e-13 (1 + |z|)."""
    n = len(C) - 1
    Cm = C / C[-1]  # monic
    # the roots' scale max_k |c_k / c_n|^(1 / (n - k)): every root lies within twice it
    # (Fujiwara), so iterates started there do not overflow; 0 only when all roots are 0
    radius = np.max(np.abs(Cm[:-1]) ** (1.0 / np.arange(n, 0, -1))[:, None], axis=0)
    radius[radius == 0] = 1.0
    z = za = radius * circle
    Cd = Cm[1:] * np.arange(1, n + 1)[:, None]
    act, diag = np.arange(C.shape[1]), np.arange(n)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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
    return z


def _aberth_batch(C):
    """All roots of each column of C: (n+1, m) ascending coefficients,
    coefficient-major (one polynomial per column), with a nonzero last row.

    Returns (m, n) roots, unordered within rows.  Runs in blocks of
    _ABERTH_BLOCK columns, and only the polynomials whose own steps are not
    yet all below 1e-13 (1 + |z|) keep iterating, so a polynomial's roots
    never depend on its batch.  One that misses the residual bound after
    _ABERTH_MAX_ITER steps is re-solved from its companion eigenvalues
    (np.roots) under the same bound; NonConvergence if it misses it again.
    """
    C = np.asarray(C, dtype=complex)
    n = len(C) - 1
    if n == 1:
        return (-C[0] / C[1])[:, None]
    if n == 0:
        return np.empty((C.shape[1], 0), dtype=complex)
    # deterministic start: a circle at the roots' scale with a fixed symmetry-breaking offset
    circle = np.exp(1j * (2.0 * np.pi * (np.arange(n) + 0.354) / n + 0.5))[:, None]
    out, failed = _solve_blocks(C, lambda Cb: _aberth_block(Cb, circle).T)
    for i in failed:
        out[i] = np.roots(C[::-1, i])
    bad_rows = [i for i in failed if not _resid_ok(C[:, i, None], out[i, :, None])[0]]
    if bad_rows:
        raise NonConvergence(
            f"root solver missed the residual bound on {len(bad_rows)} "
            f"polynomial(s); first failing row index {bad_rows[0]}"
        )
    return out


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
    return sorted((complex(r) for r in roots), key=lambda r: (r.real, r.imag))


def _quadratic_roots_batch(C):
    """Stable closed-form roots for (3, m) coefficient-major quadratics."""
    # allocated before the temporaries, so freeing them leaves no heap hole under it
    out = np.empty((C.shape[1], 2), dtype=complex)
    c0, c1, c2 = C
    disc = c1 * c1 - 4.0 * c2 * c0
    sq = np.sqrt(disc)
    # pick the sign that avoids cancellation in -b -+ sqrt(disc)
    flip = np.real(np.conj(c1) * sq) < 0
    sq = np.where(flip, -sq, sq)
    q = -0.5 * (c1 + sq)
    with np.errstate(invalid="ignore", divide="ignore"):
        r1 = q / c2
        r2 = np.where(q != 0, c0 / np.where(q == 0, 1.0, q), 0.0)
    out[:, 0] = np.where(np.isfinite(r1), r1, 0.0)
    out[:, 1] = r2
    return out


_OMEGA = np.exp(2j * np.pi * np.arange(3) / 3)  # the cube roots of unity


def _cubic_roots_batch(C):
    """Closed-form roots for (4, m) coefficient-major cubics, (m, 3): Cardano
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
        wu = _OMEGA[:, None] * u
        t = np.where(u == 0, 0.0, wu - p / (3.0 * wu))  # u = 0: the triple root t = 0
        z = t - a3
        step = horner(C, z) / horner(C[1:] * np.arange(1.0, 4.0)[:, None], z)
        step[~np.isfinite(step)] = 0.0
        z -= step
        # a longer step means cancellation cost the root its digits (coefficients of
        # widely different sizes, clustered roots): NaN hands the column to Aberth
        z[np.abs(step) > 1e-8 * (1.0 + np.abs(z))] = np.nan
    return z.T


def roots_batch(C):
    """Roots for a batch of same-degree polynomials, in solver order.

    C is (n+1, m), coefficient-major: column j holds the ascending
    coefficients of polynomial j, each coefficient is one contiguous row,
    and the last row is nonzero.  Returns (m, n).  Degree 1, 2 and 3 take
    closed forms, higher degrees the Aberth iteration (stopped per
    polynomial, with a companion-eigenvalue fallback).  A cubic whose closed
    form is not finite or misses the residual bound is re-solved by Aberth.
    Row j of the result depends only on polynomial j, in solver order:
    deterministic, unsorted.
    """
    if C.shape[0] == 3:
        return _quadratic_roots_batch(C)
    if C.shape[0] != 4:
        return _aberth_batch(C)
    out, missed = _solve_blocks(C, _cubic_roots_batch)
    if missed:
        out[missed] = _aberth_batch(C[:, missed])
    return out


# ---------------------------------------------------------------------------
# rational maps


def _charts(z, inf):
    """(near, far, w, |z|): |z| <= 1 is read in z, the rest as w = 1/z, infinity as w = 0."""
    inf = np.zeros(z.shape, dtype=bool) if inf is None else inf
    az = np.abs(z)
    near = ~inf & (az <= 1.0)
    far = ~near
    with np.errstate(divide="ignore", invalid="ignore"):
        w = 1.0 / z[far]
    w[inf[far]] = 0.0
    return near, far, w, az


def _chart_norm(x, ax, W, P, Q):
    """|W(x)| (1 + |x|^2) / (|P(x)|^2 + |Q(x)|^2) with ax = |x|; coefficient
    rows broadcast against x."""
    wz = np.abs(horner(W, x))
    pz = np.abs(horner(P, x))
    qz = np.abs(horner(Q, x))
    return wz * (1.0 + ax**2) / (pz * pz + qz * qz)


class MapStack:
    """K rational maps of one degree d as coefficient columns: the batched
    derivative-norm and preimage kernel.  A RationalMap is the stack of
    itself (K = 1); a block of same-signature systems stacks its maps.

    Point arrays are read as (K, U), row b under map b, and results come
    back in the input's shape.  P and Q are ascending (d + 1, K) coefficient
    arrays, each map's num and den times one power of two (RationalMap).  fwd
    holds the Wronskian W = P'Q - PQ', P and Q for the derivative norm's z
    chart, rev w^(2d-2) W(1/w), w^d P(1/w), w^d Q(1/w) for its 1/z chart,
    without the leading coefficients that vanish in every column: they
    change Horner's values by the sign of a zero at most.
    """

    __slots__ = ("degree", "P", "Q", "fwd", "rev")

    def __init__(self, maps):
        d = self.degree = maps[0].degree
        if any(f.degree != d for f in maps):
            raise ValueError("stacked maps must share one degree")

        def cols(polys, size):
            out = np.zeros((size, len(polys)), dtype=complex)
            for k, p in enumerate(polys):
                out[: p.size, k] = p
            return out

        def trimmed(C):
            n = len(C)
            while n > 1 and not C[n - 1].any():
                n -= 1
            return C[:n]

        self.P, self.Q = (cols(pq, d + 1) for pq in zip(*(f._pq for f in maps)))
        W = cols([f._wron for f in maps], 2 * d - 1)
        self.fwd = (trimmed(W), trimmed(self.P), trimmed(self.Q))
        self.rev = (trimmed(W[::-1]), trimmed(self.P[::-1]), trimmed(self.Q[::-1]))

    def spherical_derivative_norm_many(self, z, inf=None):
        """Norm of the derivative in the spherical metric at parallel point
        arrays: |f'(z)| (1+|z|^2)/(1+|f(z)|^2), read through the 1/z chart
        when |z| > 1, so the two charts agree to relative 1e-10 on their
        overlap and the value is finite everywhere."""
        shape = np.shape(z)
        z = np.asarray(z, dtype=complex).reshape(self.P.shape[1], -1)
        near, far, w, az = _charts(z, None if inf is None else np.reshape(inf, z.shape))
        if near.all():
            return _chart_norm(z, az, *(c[:, :, None] for c in self.fwd)).reshape(shape)

        def cols(mask, coeffs):  # the map column of every masked entry
            return coeffs if len(self.P[0]) == 1 else [c[:, np.nonzero(mask)[0]] for c in coeffs]

        out = np.empty(z.shape)
        if near.any():
            out[near] = _chart_norm(z[near], az[near], *cols(near, self.fwd))
        out[far] = _chart_norm(w, np.abs(w), *cols(far, self.rev))
        return out.reshape(shape)

    def preimages_many(self, z, inf=None):
        """Preimages for parallel target arrays; inf marks targets at infinity.

        Returns (roots, inf_mask) of shape z.shape + (d,), each row in
        roots_batch's solver order rather than sorted.  A finite target z
        solves P - zQ = 0, a target at infinity Q = 0, built coefficient-major
        (one contiguous row per power), the layout roots_batch reads.  When
        the k leading coefficients of a row cancel (|c| <= 1e-12 (|P_d| +
        |z| |Q_d|), or exactly zero for infinity) the row loses k degrees:
        its remaining roots fill the first d - k slots and the last k are
        infinity.  Rows are solved in one roots_batch call per k; each row's
        roots depend only on its own target and map.
        """
        shape, d = np.shape(z), self.degree
        z = np.asarray(z, dtype=complex).reshape(self.P.shape[1], -1)
        C = np.empty((d + 1,) + z.shape, dtype=complex)
        for c, p, q in zip(C, self.P[:, :, None], self.Q[:, :, None]):
            np.subtract(p, np.multiply(z, q, out=c), out=c)
        has_inf = inf is not None and inf.any()
        if has_inf:
            inf = np.reshape(inf, z.shape)
            C[:, inf] = self.Q[:, np.nonzero(inf)[0]]
        qd = np.abs(self.Q[d])[:, None]
        # without a Q_d in any column, |z| |Q_d| is 0 and a finite row's top is P_d
        scale = np.abs(self.P[d])[:, None] + (np.abs(z) * qd if qd.any() else 0.0)
        if has_inf:
            scale = np.where(inf, qd, scale)
        tol = 1e-12 * (scale + 1e-300)
        drop = np.abs(C[-1] if has_inf or qd.any() else self.P[d][:, None]) <= tol
        C = C.reshape(d + 1, -1)
        if not drop.any():
            return roots_batch(C).reshape(shape + (d,)), np.zeros(shape + (d,), dtype=bool)
        drop, tol = np.broadcast_to(drop, z.shape).ravel(), np.broadcast_to(tol, z.shape).ravel()
        # k = number of cancelled leading coefficients; the constant one stays
        k = np.zeros(drop.size, dtype=np.int64)
        small = np.abs(C[:0:-1, drop]) <= tol[drop]
        k[drop] = np.cumprod(small, axis=0).sum(axis=0)
        roots = np.zeros((drop.size, d), dtype=complex)
        infm = np.zeros((drop.size, d), dtype=bool)
        for kk in np.unique(k):
            rows = np.flatnonzero(k == kk)
            n = d - kk
            roots[rows, :n] = roots_batch(C[: n + 1, rows])
            infm[rows, n:] = True
        return roots.reshape(shape + (d,)), infm.reshape(shape + (d,))


class RationalMap(MapStack):
    """Rational self-map of the sphere, stored as a reduced fraction P/Q;
    its batched derivative norms and preimages are those of the one-column
    MapStack it is.

    Validation rejects shared roots of P and Q (within chordal 1e-8), so
    evaluation is total: a vanishing denominator means a genuine pole.
    """

    __slots__ = ("num", "den", "_pq", "_wron")

    def __init__(self, num, den=(1.0,)):
        P, Q = self.num, self.den = _coeffs(num), _coeffs(den)
        if not (P.any() and Q.any()):
            raise ValueError("numerator and denominator must be nonzero")
        d = self.degree = max(P.size, Q.size) - 1
        if d < 1:
            raise ValueError("map must have degree >= 1 (not constant)")
        self._check_reduced()
        # P, Q times the power of two (exact) that brings the largest |coefficient| into [1, 2),
        # so P'Q and PQ' can neither overflow nor underflow to a vanishing Wronskian
        e = 1 - math.frexp(max(np.abs(P).max(), np.abs(Q).max()))[1]
        self._pq = np.empty_like(P), np.empty_like(Q)
        for c, out in zip((P, Q), self._pq):
            np.ldexp(c.view(float), e, out=out.view(float))  # 2.0 ** e overflows for e > 1023
        P, Q = self._pq
        # P'Q - PQ' accumulated into zeros: a zero coefficient is +0 whatever its products' signs
        W = np.zeros(P.size + Q.size - 2, dtype=complex)
        if P.size > 1:
            W += np.convolve(P[1:] * np.arange(1, P.size), Q)
        if Q.size > 1:
            W -= np.convolve(P, Q[1:] * np.arange(1, Q.size))
        # the degree 2d - 1 terms cancel exactly in theory, not always in floating point
        self._wron = _coeffs(W[: 2 * d - 1])
        if not self._wron.any():
            raise ValueError("map is constant (vanishing derivative)")
        super().__init__([self])

    def _check_reduced(self):
        if self.num.size == 1 or self.den.size == 1:
            return
        rd = poly_roots(self.den)
        for a in poly_roots(self.num):
            if any(chordal_distance(a, b) <= 1e-8 for b in rd):
                raise ValueError(f"numerator and denominator share a root near {a}")

    # -- evaluation ---------------------------------------------------------

    def __call__(self, point) -> SpherePoint:
        vals, inf = self.eval_many(*_point_arrays(point))
        return _array_point(vals[0], inf[0])

    def eval_many(self, z, inf=None):
        """Evaluate at parallel point arrays; returns (values, inf_mask).

        inf marks targets at infinity (their z entries are ignored); None
        means all finite.  Points with |z| > 1 and infinity go through the
        1/z chart, so nothing overflows on the way to the ratio.  Both charts
        read the scaled P and Q, so tiny coefficients give no 0/0 either.
        """
        z = np.asarray(z, dtype=complex)
        near, far, w, _ = _charts(z, inf)
        pz = np.empty_like(z)
        qz = np.empty_like(z)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            pz[near] = horner(self._pq[0], z[near])
            qz[near] = horner(self._pq[1], z[near])
            pz[far] = horner(self.P[::-1, 0], w)
            qz[far] = horner(self.Q[::-1, 0], w)
            return self._ratio_many(pz, qz)

    @staticmethod
    def _ratio_many(pz, qz):
        pole = qz == 0
        if np.any(pole & (pz == 0)):
            # a reduced map cannot make both vanish; only unvalidated input
            # squeaking past the shared-root tolerance can land here
            raise ArithmeticError("evaluation hit an unreduced 0/0")
        safe_q = np.where(pole, 1.0, qz)
        vals = pz / safe_q
        big = ~np.isfinite(vals) | (np.abs(vals.real) > BIG_MODULUS) | (
            np.abs(vals.imag) > BIG_MODULUS
        )
        inf = pole | big
        vals = np.where(inf, 0.0, vals)
        return vals, inf

    # -- scalar wrappers ---------------------------------------------------------

    def spherical_derivative_norm(self, point) -> float:
        """Norm of the derivative in the spherical metric at one point."""
        return self.spherical_derivative_norm_many(*_point_arrays(point))[0]

    def preimages(self, point) -> list[SpherePoint]:
        """All degree-many solutions w of f(w) = point, with multiplicity, sorted."""
        roots, inf = self.preimages_many(*_point_arrays(point))
        return sorted(map(_array_point, roots[0], inf[0]), key=SpherePoint.sort_key)

    # -- critical and fixed points ---------------------------------------------

    def critical_points(self) -> list[SpherePoint]:
        """Zeros of the derivative on the sphere, with multiplicity (2d-2 total).

        Infinity is critical exactly when the Wronskian P'Q - PQ' drops below
        degree 2d-2; the drop is its multiplicity.
        """
        pts = [SpherePoint.of(r) for r in poly_roots(self._wron)]
        pts += [INF] * (2 * self.degree - 1 - self._wron.size)
        return sorted(pts, key=SpherePoint.sort_key)

    def critical_values(self) -> list[SpherePoint]:
        return [self(p) for p in self.critical_points()]

    def fixed_points(self) -> list[tuple[SpherePoint, float]]:
        """Fixed points with spherical multiplier norms, canonically ordered.

        A point is repelling exactly when its norm exceeds 1.  Infinity is
        fixed precisely when deg P > deg Q (e.g. for polynomials).
        """
        fp = np.zeros(max(self.num.size, self.den.size + 1), dtype=complex)
        fp[: self.num.size] = self.num
        fp[1 : self.den.size + 1] -= self.den  # P(z) - z Q(z)
        out = []
        if fp.any():
            for r in poly_roots(fp):
                p = SpherePoint.of(r)
                out.append((p, float(self.spherical_derivative_norm(p))))
        if self.num.size > self.den.size:
            out.append((INF, float(self.spherical_derivative_norm(INF))))
        out.sort(key=lambda t: t[0].sort_key())
        return out

    def __repr__(self):
        return f"RationalMap({self.num.tolist()!r}, {self.den.tolist()!r})"


def polynomial_map(coeffs) -> RationalMap:
    """Convenience constructor for a polynomial map (denominator 1)."""
    return RationalMap(coeffs, (1.0,))
