"""Exception types shared across the package.

Config problems (bad dimensions, malformed scenario files, out-of-domain
parameters) raise ConfigError; numerical failures (solver residual above
tolerance, singular sample covariance) raise NumericalError. The CLI maps
them to exit codes 2 and 3.
"""

import numpy as np


# the cause a numerical check names when the covariance's scale leaves the
# range in which its squares are normal doubles
OUT_OF_RANGE = "the powers are out of floating-point range"
_SQRT_TINY = np.sqrt(np.finfo(float).tiny)
_SQRT_MAX = np.sqrt(np.finfo(float).max)


class ConfigError(ValueError):
    """Invalid configuration or out-of-domain argument."""


class NumericalError(RuntimeError):
    """A solver or factorization failed to reach its stated tolerance."""


def require_finite(values, what, why, nonzero=False):
    """Raise NumericalError when any of values is NaN or infinite, or, with
    nonzero, zero."""
    bad = ~np.isfinite(values)
    if nonzero:
        bad |= np.equal(values, 0)
    if bad.any():
        kinds = "NaN, infinite or zero" if nonzero else "NaN or infinite"
        raise NumericalError(f"{np.count_nonzero(bad)} of {np.size(values)} "
                             f"{what} are {kinds}; {why}")


def out_of_range(scale):
    """Whether a covariance of this scale (its largest eigenvalue or
    diagonal entry) squares to a subnormal number or overflows."""
    return not _SQRT_TINY <= scale <= _SQRT_MAX
