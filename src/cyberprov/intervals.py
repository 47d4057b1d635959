"""Claim bands in compensation space, as ``(lo, hi]`` float pairs.

A claim is made only when the compensation *strictly* exceeds a threshold,
and every claim band is left-open and right-closed, so a band is the pair
``(lo, hi)`` standing for ``lo < c <= hi``, ``hi`` possibly ``np.inf``.
Cutting it at a threshold ``alpha`` gives ``(max(alpha, lo), hi]``.
"""

from __future__ import annotations

import numpy as np


def index_range(sorted_values: np.ndarray, lo, hi):
    """The index range of the entries of a sorted array inside ``(lo, hi]``.

    Returns ``(start, stop)`` such that ``sorted_values[start:stop]`` are
    exactly the entries ``v`` with ``lo < v <= hi``. An array of lower
    ends gives an array of ranges. Comparisons are exact, with no
    tolerance; an empty range has ``start == stop``.
    """
    start = np.searchsorted(sorted_values, lo, side="right")
    stop = np.searchsorted(sorted_values, hi, side="right")
    return start, np.maximum(start, stop)
