"""Half-open/closed intervals on the nonnegative reals.

Claim-transition bands and claim sets are intervals whose endpoint
strictness is semantically meaningful (a claim is made only when the
compensation *strictly* exceeds a threshold), so endpoints carry
explicit open/closed flags and all comparisons are exact on floats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Interval:
    """An interval with independently open or closed endpoints.

    Attributes:
        lo: Lower endpoint (may be 0).
        hi: Upper endpoint (``np.inf`` for unbounded).
        lo_open: True when the lower endpoint is excluded.
        hi_open: True when the upper endpoint is excluded.
    """

    lo: float
    hi: float
    lo_open: bool = True
    hi_open: bool = False

    @property
    def empty(self) -> bool:
        if self.lo > self.hi:
            return True
        return self.lo == self.hi and (self.lo_open or self.hi_open)

    def contains(self, x):
        """Vectorized membership test; exact float comparisons."""
        x = np.asarray(x)
        above = x > self.lo if self.lo_open else x >= self.lo
        below = x < self.hi if self.hi_open else x <= self.hi
        return above & below

    def cut_below(self, threshold: float) -> "Interval":
        """Intersect with the strictly-above set ``(threshold, inf)``."""
        if threshold < self.lo or (threshold == self.lo and self.lo_open):
            return self
        return Interval(threshold, self.hi, lo_open=True, hi_open=self.hi_open)


def index_range(sorted_values: np.ndarray, interval: Interval, above=-np.inf):
    """Map an interval to the index range it covers in a sorted array.

    Returns ``(start, stop)`` such that ``sorted_values[start:stop]`` are
    exactly the entries inside ``interval.cut_below(above)``, that is,
    inside ``interval`` and strictly above ``above``. An array of
    thresholds gives an array of ranges. Endpoint strictness is honored
    through the searchsorted side argument, so no tolerance is introduced;
    an empty range has ``start == stop``.
    """
    # A threshold at or above the lower end opens the interval there; one
    # below it leaves the lower end, whose position is never earlier.
    side_lo = "right" if interval.lo_open else "left"
    start = np.maximum(
        np.searchsorted(sorted_values, above, side="right"),
        np.searchsorted(sorted_values, interval.lo, side=side_lo),
    )
    if np.isinf(interval.hi):
        stop = len(sorted_values)
    else:
        side_hi = "left" if interval.hi_open else "right"
        stop = np.searchsorted(sorted_values, interval.hi, side=side_hi)
    return start, np.maximum(start, stop)
