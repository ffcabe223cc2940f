"""Exception types shared across the library.

Each class carries the outcome it stands for: exit_code is the CLI exit code
(the README table) and status the row status a family sweep records for a
grid point that raised it; a sweep re-raises errors whose status is None.
"""


class RatsemiError(Exception):
    """Base class for all library-specific errors."""

    exit_code = 1
    status = None


class NonConvergence(RatsemiError):
    """A root solve missed its residual bound with every solver it reached
    (the cubic closed form, Aberth, then the companion eigenvalues), or a
    Bowen root search ran away.  sphere.roots_batch raises it in one place,
    naming how many polynomials of its batch missed and the first one by its
    ascending coefficients, which no split of the batch can mislabel."""

    status = "non-convergence"


class NoRepellingSeed(RatsemiError):
    """No generator has a repelling fixed point to seed backward iteration."""

    exit_code, status = 3, "seed-failure"


class CriticalPreimage(RatsemiError):
    """A preimage sits on (or within 1e-12 of) a critical point, so the
    transfer sum at t > 0 would be dominated by an unbounded term."""

    exit_code, status = 5, "critical-preimage"


class NoSignChange(RatsemiError):
    """Pressure stayed nonnegative over the whole bracketing range, so there
    is no zero to bisect for."""

    exit_code, status = 4, "no-sign-change"


class InvalidInstance(RatsemiError):
    """Family instantiation produced a degenerate map (degree drop, shared
    roots, puncture hit, or parameter outside the domain)."""

    status = "invalid-instance"


class InsufficientPoints(RatsemiError):
    """Not enough sample points for a statistically meaningful estimate."""


class HyperbolicityUnverified(RatsemiError):
    """A computation that requires a verified-hyperbolic system was asked to
    run on one whose check failed or was inconclusive (pass force=True to
    override); report is the check's VerificationReport."""

    exit_code, status = 7, "hyperbolicity-unverified"

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ConfigError(RatsemiError):
    """Run configuration is malformed, incomplete, or inconsistent."""

    exit_code = 2
