"""Small result containers shared by the optimizer, harness and CLI."""

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Curve:
    """A sampled curve with optional pointwise confidence band.

    x and y always have equal length; ci_lo/ci_hi are either both None
    (deterministic curve) or aligned with y.
    """

    x: np.ndarray
    y: np.ndarray
    ci_lo: np.ndarray | None = None
    ci_hi: np.ndarray | None = None
    label: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.shape != self.y.shape:
            raise ValueError("curve x and y must have equal shape")
        for name in ("ci_lo", "ci_hi"):
            v = getattr(self, name)
            if v is not None:
                v = np.asarray(v, dtype=float)
                if v.shape != self.y.shape:
                    raise ValueError(f"curve {name} must align with y")
                setattr(self, name, v)

    def rows(self):
        """Yield (x, y, ci_lo, ci_hi) tuples; empty strings when no band."""
        for i in range(len(self.x)):
            lo = "" if self.ci_lo is None else self.ci_lo[i]
            hi = "" if self.ci_hi is None else self.ci_hi[i]
            yield (self.x[i], self.y[i], lo, hi)


@dataclass
class Histogram:
    """Density-normalized histogram of a Monte Carlo statistic."""

    bin_edges: np.ndarray
    density: np.ndarray
    n_samples: int
    label: str = ""
    meta: dict = field(default_factory=dict)

    @property
    def bin_centers(self):
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])
