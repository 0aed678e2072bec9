"""Exception types shared across the package.

Config problems (bad dimensions, malformed scenario files, out-of-domain
parameters) raise ConfigError; numerical failures (solver residual above
tolerance, singular sample covariance) raise NumericalError. The CLI maps
them to exit codes 2 and 3.
"""

import numpy as np


class ConfigError(ValueError):
    """Invalid configuration or out-of-domain argument."""


class NumericalError(RuntimeError):
    """A solver or factorization failed to reach its stated tolerance."""


def require_finite(values, what, why):
    """Raise NumericalError when any of values is NaN or infinite."""
    bad = int(np.count_nonzero(~np.isfinite(values)))
    if bad:
        raise NumericalError(f"{bad} of {np.size(values)} {what} are NaN or "
                             f"infinite; {why}")
