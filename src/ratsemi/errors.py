"""Exception types shared across the library."""


class RatsemiError(Exception):
    """Base class for all library-specific errors."""


class NonConvergence(RatsemiError):
    """A root solve missed its residual bound with Aberth and then with the
    companion eigenvalues, or a Bowen or Moran root search ran away."""


class NoRepellingSeed(RatsemiError):
    """No generator has a repelling fixed point to seed backward iteration."""


class CriticalPreimage(RatsemiError):
    """A preimage sits on (or within 1e-12 of) a critical point, so the
    transfer sum at t > 0 would be dominated by an unbounded term."""


class NoSignChange(RatsemiError):
    """Pressure stayed nonnegative over the whole bracketing range, so there
    is no zero to bisect for."""


class InvalidInstance(RatsemiError):
    """Family instantiation produced a degenerate map (degree drop, shared
    roots, puncture hit, or parameter outside the domain)."""


class InsufficientPoints(RatsemiError):
    """Not enough sample points for a statistically meaningful estimate."""


class HyperbolicityUnverified(RatsemiError):
    """A computation that requires a verified-hyperbolic system was asked to
    run on one whose check failed or was inconclusive (pass force=True to
    override)."""


class ConfigError(RatsemiError):
    """Run configuration is malformed, incomplete, or inconsistent."""
