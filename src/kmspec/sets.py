"""Closed subsets of the line given by finitely many intervals and points."""

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ._arrays import scalar_or_array
from .errors import InvalidInputError


@dataclass(frozen=True)
class ClosedSetSpec:
    """Finite union of disjoint closed intervals (endpoints may be +-inf) and
    isolated points, with an exact 1-Lipschitz distance function."""

    intervals: Tuple[Tuple[float, float], ...] = ()
    points: Tuple[float, ...] = ()

    def __post_init__(self):
        ivs = tuple((float(lo), float(hi)) for lo, hi in self.intervals)
        pts = tuple(float(p) for p in self.points)
        for lo, hi in ivs:
            if math.isnan(lo) or math.isnan(hi) or lo > hi:
                raise InvalidInputError(f"bad interval [{lo}, {hi}]")
            if lo == math.inf or hi == -math.inf:
                raise InvalidInputError("interval endpoints must bound a nonempty set")
        for p in pts:
            if not math.isfinite(p):
                raise InvalidInputError("points must be finite")
        srt = sorted(ivs)
        for (_, h1), (l2, _) in zip(srt, srt[1:]):
            if h1 >= l2:
                raise InvalidInputError("intervals must be disjoint")
        if not ivs and not pts:
            raise InvalidInputError("the set must be nonempty")
        object.__setattr__(self, "intervals", ivs)
        object.__setattr__(self, "points", pts)

    @scalar_or_array
    def distance(self, betas):
        d = np.full_like(betas, np.inf)
        for lo, hi in self.intervals:
            # distance to [lo, hi] is max(lo - beta, beta - hi, 0)
            d = np.minimum(d, np.maximum.reduce(
                [lo - betas, betas - hi, np.zeros_like(betas)]))
        for p in self.points:
            d = np.minimum(d, np.abs(betas - p))
        return d

    @classmethod
    def from_config(cls, spec: dict) -> "ClosedSetSpec":
        """Parse {"intervals": [[lo, hi], ...], "points": [p, ...]} with
        decimal-string numerics; "inf"/"-inf" are accepted as endpoints.
        A spec of any other shape, or one that describes no valid set,
        raises InvalidInputError naming 'K'."""
        try:
            intervals = tuple((float(lo), float(hi))
                              for lo, hi in spec.get("intervals", []))
            points = tuple(float(p) for p in spec.get("points", []))
        except (AttributeError, OverflowError, TypeError, ValueError) as exc:
            raise InvalidInputError(
                "config key 'K' must map 'intervals' to [[lo, hi], ...] and "
                f"'points' to [p, ...] with numeric values, got {spec!r}") from exc
        try:
            return cls(intervals=intervals, points=points)
        except InvalidInputError as exc:
            raise InvalidInputError(f"config key 'K': {exc}") from exc
